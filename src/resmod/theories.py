"""Built-in theory presets and the theory-file loader.

Presets: ``arith``, ``integral-rings``, ``chain(n)``, ``hol-comb``,
``hol-sigma``, ``set``, ``set-cantor``.  Each preset bundles a signature,
a rewrite system split into E/R classes, axiom propositions, and optional
named goals.

The two higher-order presets erase the simple-type decorations of their
symbols down to a single term sort (plus a substitution sort for the
explicit-substitution language); the rewrite rules are stated once, not as
decorated families, which keeps the rule counts finite and matching on
them first-order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial, reduce

from .kernel import (
    And,
    App,
    Atom,
    Bottom,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Prop,
    Signature,
    Symbol,
    Term,
    Var,
    children,
    free_names,
    subst_prop,
)
from .prover import FREEZE, ON_THE_FLY
from .rewrite import EtaRule, RewriteRule, RewriteSystem


class UnknownPresetError(Exception):
    pass


class SkolemInBodyError(Exception):
    """A comprehension body may not mention skolem symbols."""


@dataclass
class TheoryPreset:
    name: str
    sig: Signature
    system: RewriteSystem
    axioms: list[Prop] = field(default_factory=list)
    goals: dict[str, Prop] = field(default_factory=dict)
    default_strategy: str = FREEZE
    # alpha-keyed registry of comprehension instances: key -> (symbol, rule)
    comprehensions: dict[Prop, tuple[Symbol, RewriteRule]] = field(default_factory=dict)


def declare_subset_symbol(theory: TheoryPreset, params: list[Var], w: Var, body: Prop,
                          *, name: str | None = None) -> tuple[Symbol, RewriteRule]:
    """Materialize one instance of the comprehension scheme.

    Declares a fresh function symbol ``f`` of arity ``len(params) + 1`` and
    the rule ``v in f(y1..yn, z) -> v in z /\\ body[y/params, v/w]``.  The
    body may not mention skolem symbols.
    Instances are deduplicated up to alpha-equivalence of the closed body.
    """
    extra = free_names(body) - {v.name for v in params} - {w.name}
    if extra:
        raise ValueError(f"comprehension body has stray variables {sorted(extra)}")
    for s in symbols_in(body):
        declared = theory.sig.symbols.get(s)
        if declared is not None and declared.origin == "skolem":
            raise SkolemInBodyError(f"comprehension body mentions skolem symbol {s}")
    closed: Prop = body
    for v in (w, *reversed(params)):
        closed = Forall(v, closed)
    if closed in theory.comprehensions:
        return theory.comprehensions[closed]
    universe = w.sort
    sym_name = theory.sig.fresh_name(name or "cset")
    arg_sorts = tuple(v.sort for v in params) + (universe,)
    sym = theory.sig.function(sym_name, arg_sorts, universe)
    member = theory.sig.lookup("in")
    taken = set(free_names(body)) | {v.name for v in params} | {w.name}
    v_name = "v" if "v" not in taken else "v0"
    z_name = "z" if "z" not in taken else "z0"
    v = Var(v_name, universe)
    z = Var(z_name, universe)
    body_inst = subst_prop(body, {w.name: v})
    lhs = Atom(member, (v, App(sym, tuple(params) + (z,))))
    rhs = And(Atom(member, (v, z)), body_inst)
    rule = RewriteRule(f"subset_{sym_name}", lhs, rhs)
    theory.system = theory.system.extend([rule])
    theory.comprehensions[closed] = (sym, rule)
    return sym, rule


def symbols_in(p: Term | Prop) -> set[str]:
    """The names of the predicates, functions and individuals in ``p``."""
    out: set[str] = set()
    stack: list = [p]
    while stack:
        x = stack.pop()
        if isinstance(x, (Atom, App)):
            out.add(x.pred.name if isinstance(x, Atom) else x.sym.name)
        stack.extend(children(x))
    return out


# ---------------------------------------------------------------------------
# arith
# ---------------------------------------------------------------------------


def _arith() -> TheoryPreset:
    sig = Signature()
    nat = sig.declare_sort("nat")
    zero = sig.individual("0", nat)
    succ = sig.function("S", (nat,), nat)
    plus = sig.function("+", (nat, nat), nat, display="infix")
    times = sig.function("*", (nat, nat), nat, display="infix")
    eq = sig.predicate("=", (nat, nat), display="infix")

    def numeral(n: int) -> Term:
        t: Term = App(zero)
        for _ in range(n):
            t = App(succ, (t,))
        return t

    sig.numeral = numeral
    x, y = Var("x", nat), Var("y", nat)
    rules = [
        RewriteRule("plus_zero", App(plus, (App(zero), y)), y),
        RewriteRule("plus_succ", App(plus, (App(succ, (x,)), y)),
                    App(succ, (App(plus, (x, y)),))),
        RewriteRule("times_zero", App(times, (App(zero), y)), App(zero)),
        RewriteRule("times_succ", App(times, (App(succ, (x,)), y)),
                    App(plus, (App(times, (x, y)), y))),
    ]
    refl = Forall(x, Atom(eq, (x, x)))
    goal = Exists(x, Atom(eq, (App(times, (numeral(2), x)), numeral(4))))
    return TheoryPreset("arith", sig, RewriteSystem(rules), [refl],
                        {"double": goal}, FREEZE)


# ---------------------------------------------------------------------------
# integral-rings
# ---------------------------------------------------------------------------


def _integral_rings() -> TheoryPreset:
    sig = Signature()
    elem = sig.declare_sort("elem")
    zero = sig.individual("0", elem)
    times = sig.function("*", (elem, elem), elem, display="infix")
    eq = sig.predicate("=", (elem, elem), display="infix")
    a = sig.individual("a", elem)
    x, y = Var("x", elem), Var("y", elem)
    rule = RewriteRule(
        "zero_product",
        Atom(eq, (App(times, (x, y)), App(zero))),
        Or(Atom(eq, (x, App(zero))), Atom(eq, (y, App(zero)))))
    aa = App(times, (App(a), App(a)))
    goal = Exists(y, Implies(Atom(eq, (aa, y)), Atom(eq, (App(a), y))))
    return TheoryPreset("integral-rings", sig, RewriteSystem([rule]), [],
                        {"square_zero": goal}, ON_THE_FLY)


# ---------------------------------------------------------------------------
# chain(n)
# ---------------------------------------------------------------------------


def _chain(n: int) -> TheoryPreset:
    if n < 1:
        raise UnknownPresetError("chain(n) needs n >= 1")
    sig = Signature()
    p = {i: sig.predicate(f"P{i}", ()) for i in range(1, n + 2)}
    q = {i: sig.predicate(f"Q{i}", ()) for i in range(2, n + 2)}
    rules = []
    for i in range(1, n + 1):
        rules.append(RewriteRule(
            f"p{i}", Atom(p[i]), Or(Atom(q[i + 1]), Atom(p[i + 1]))))
    for i in range(2, n + 2):
        rules.append(RewriteRule(f"q{i}", Atom(q[i]), Bottom()))
    rules.append(RewriteRule(f"p{n + 1}_bot", Atom(p[n + 1]), Bottom()))
    return TheoryPreset(f"chain({n})", sig, RewriteSystem(rules),
                        [Atom(p[1])], {"refute": Bottom()}, ON_THE_FLY)


def chain_axioms(n: int) -> tuple[Signature, list[Prop]]:
    """The chain theory as plain equivalence axioms (no rewrite rules),
    for baseline comparisons."""
    sig = Signature()
    p = {i: sig.predicate(f"P{i}", ()) for i in range(1, n + 2)}
    q = {i: sig.predicate(f"Q{i}", ()) for i in range(2, n + 2)}
    axioms: list[Prop] = []
    for i in range(1, n + 1):
        axioms.append(Iff(Atom(p[i]), Or(Atom(q[i + 1]), Atom(p[i + 1]))))
    axioms.append(Atom(p[1]))
    for i in range(2, n + 2):
        axioms.append(Iff(Atom(q[i]), Bottom()))
    axioms.append(Iff(Atom(p[n + 1]), Bottom()))
    return sig, axioms


# ---------------------------------------------------------------------------
# hol-comb: combinator presentation
# ---------------------------------------------------------------------------


def _spine(f: Symbol, *ts: Term) -> Term:
    """``ts[0]`` applied by the binary ``f`` to each of the rest in turn."""
    return reduce(lambda out, t: App(f, (out, t)), ts)


def _hol_comb() -> TheoryPreset:
    sig = Signature()
    term = sig.declare_sort("term")
    app = sig.function("app", (term, term), term, display="app")
    S = sig.individual("S", term)
    K = sig.individual("K", term)
    dor = sig.individual("dor", term)
    dnot = sig.individual("dnot", term)
    dall = sig.individual("dall", term)
    eps = sig.predicate("eps", (term,))
    for c in ("a", "b", "c"):
        sig.individual(c, term)
    ap = partial(_spine, app)

    x, y, z = Var("x", term), Var("y", term), Var("z", term)
    rules = [
        RewriteRule("s", ap(App(S), x, y, z), ap(x, z, ap(y, z))),
        RewriteRule("k", ap(App(K), x, y), x),
        RewriteRule("eps_not", Atom(eps, (ap(App(dnot), x),)), Not(Atom(eps, (x,)))),
        RewriteRule("eps_or", Atom(eps, (ap(App(dor), x, y),)),
                    Or(Atom(eps, (x,)), Atom(eps, (y,)))),
        RewriteRule("eps_all", Atom(eps, (ap(App(dall), x),)),
                    Forall(y, Atom(eps, (ap(x, y),)))),
    ]
    return TheoryPreset("hol-comb", sig, RewriteSystem(rules), [], {}, FREEZE)


# ---------------------------------------------------------------------------
# hol-sigma: explicit substitutions over de Bruijn indices
# ---------------------------------------------------------------------------


def _hol_sigma() -> TheoryPreset:
    sig = Signature()
    term = sig.declare_sort("term")
    subst = sig.declare_sort("subst")
    app = sig.function("app", (term, term), term, display="app")
    lam = sig.function("lam", (term,), term)
    sub = sig.function("sub", (term, subst), term, display="sub")
    one = sig.individual("1", term)
    ident = sig.individual("id", subst)
    shift = sig.individual("shift", subst)
    cons = sig.function("cons", (term, subst), subst, display="cons")
    comp = sig.function("comp", (subst, subst), subst, display="comp")
    dor = sig.individual("dor", term)
    dnot = sig.individual("dnot", term)
    dall = sig.individual("dall", term)
    eps = sig.predicate("eps", (term,))
    ap, SB, CN, CM = (partial(_spine, f) for f in (app, sub, cons, comp))

    def numeral(n: int) -> Term:
        if n < 1:
            raise ValueError("de Bruijn indices start at 1")
        if n == 1:
            return App(one)
        shifts: Term = App(shift)
        for _ in range(n - 2):
            shifts = App(comp, (App(shift), shifts))
        return App(sub, (App(one), shifts))

    sig.numeral = numeral

    a, b = Var("a", term), Var("b", term)
    s, t = Var("s", subst), Var("t", subst)
    s1, s2, s3 = Var("s1", subst), Var("s2", subst), Var("s3", subst)
    x, y = Var("x", term), Var("y", term)

    rules: list[RewriteRule] = [
        RewriteRule("beta", ap(App(lam, (a,)), b), SB(a, CN(b, App(ident)))),
        EtaRule("eta", lam, app, sub, shift, one, term),
        RewriteRule("sigma_app", SB(ap(a, b), s), ap(SB(a, s), SB(b, s))),
        RewriteRule("sigma_one", SB(App(one), CN(a, s)), a),
        RewriteRule("sigma_id", SB(a, App(ident)), a),
        RewriteRule("sigma_lam", SB(App(lam, (a,)), s),
                    App(lam, (SB(a, CN(App(one), CM(s, App(shift)))),))),
        RewriteRule("sigma_sub", SB(SB(a, s), t), SB(a, CM(s, t))),
        RewriteRule("sigma_id_comp", CM(App(ident), s), s),
        RewriteRule("sigma_shift_cons", CM(App(shift), CN(a, s)), s),
        RewriteRule("sigma_assoc", CM(CM(s1, s2), s3), CM(s1, CM(s2, s3))),
        RewriteRule("sigma_cons_comp", CM(CN(a, s), t), CN(SB(a, t), CM(s, t))),
        RewriteRule("sigma_comp_id", CM(s, App(ident)), s),
        RewriteRule("sigma_one_shift", CN(App(one), App(shift)), App(ident)),
        RewriteRule("sigma_surj", CN(SB(App(one), s), CM(App(shift), s)), s),
        RewriteRule("eps_or", Atom(eps, (ap(App(dor), x, y),)),
                    Or(Atom(eps, (x,)), Atom(eps, (y,)))),
        RewriteRule("eps_not", Atom(eps, (ap(App(dnot), x),)), Not(Atom(eps, (x,)))),
        RewriteRule("eps_all", Atom(eps, (ap(App(dall), x),)),
                    Forall(y, Atom(eps, (ap(x, y),)))),
    ]
    return TheoryPreset("hol-sigma", sig, RewriteSystem(rules), [], {}, FREEZE)


# ---------------------------------------------------------------------------
# set and set-cantor
# ---------------------------------------------------------------------------


def _set_base() -> TheoryPreset:
    sig = Signature()
    st = sig.declare_sort("set")
    member = sig.predicate("in", (st, st), display="infix")
    eq = sig.predicate("=", (st, st), display="infix")
    upair = sig.function("upair", (st, st), st, display="brace")
    union = sig.function("union", (st,), st)
    pow_ = sig.function("pow", (st,), st)
    w, x, y, z = Var("w", st), Var("x", st), Var("y", st), Var("z", st)
    rules = [
        RewriteRule("pair", Atom(member, (w, App(upair, (x, y)))),
                    Or(Atom(eq, (w, x)), Atom(eq, (w, y)))),
        RewriteRule("union", Atom(member, (w, App(union, (x,)))),
                    Exists(z, And(Atom(member, (w, z)), Atom(member, (z, x))))),
        RewriteRule("power", Atom(member, (w, App(pow_, (x,)))),
                    Forall(z, Implies(Atom(member, (z, w)), Atom(member, (z, x))))),
    ]
    return TheoryPreset("set", sig, RewriteSystem(rules), [], {}, ON_THE_FLY)


def pair_term(sig: Signature, x: Term, y: Term) -> Term:
    """Ordered-pair notation: <x,y> stands for {{x,y},{x}}."""
    upair = sig.lookup("upair")
    return App(upair, (App(upair, (x, y)), App(upair, (x, x))))


def _set_cantor() -> TheoryPreset:
    preset = _set_base()
    sig = preset.sig
    st = sig.sorts["set"]
    member = sig.lookup("in")
    eq = sig.lookup("=")
    pow_ = sig.lookup("pow")
    B = sig.individual("B", st)
    R = sig.individual("R", st)
    C = sig.individual("C", st)
    x, y, z = Var("x", st), Var("y", st), Var("z", st)
    # the diagonal set as an ad hoc rule: the comprehension scheme itself
    # cannot instantiate a body containing the symbols B and R
    cantor = RewriteRule(
        "cantor",
        Atom(member, (x, App(C))),
        And(Atom(member, (x, App(B))),
            Forall(y, Implies(Atom(member, (pair_term(sig, x, y), App(R))),
                              Not(Atom(member, (x, y)))))))
    surj = Forall(y, Implies(
        Atom(member, (y, App(pow_, (App(B),)))),
        Exists(x, And(Atom(member, (x, App(B))),
                      Atom(member, (pair_term(sig, x, y), App(R)))))))
    functional = Forall(x, Forall(y, Forall(z, Implies(
        Atom(member, (pair_term(sig, x, y), App(R))),
        Implies(Atom(member, (pair_term(sig, x, z), App(R))),
                Atom(eq, (y, z)))))))
    leibniz = Forall(z, Forall(x, Forall(y, Implies(
        Atom(eq, (x, y)),
        Implies(Not(Atom(member, (z, x))), Not(Atom(member, (z, y))))))))
    preset.name = "set-cantor"
    preset.system = preset.system.extend([cantor])
    preset.axioms = [surj, functional, leibniz]
    preset.goals = {"cantor": Bottom()}
    return preset


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------

_BUILDERS = {
    "arith": _arith,
    "integral-rings": _integral_rings,
    "hol-comb": _hol_comb,
    "hol-sigma": _hol_sigma,
    "set": _set_base,
    "set-cantor": _set_cantor,
}

_CHAIN_RE = re.compile(r"chain\((\d+)\)$")


def preset_names() -> list[str]:
    return sorted(_BUILDERS) + ["chain(n)"]


def load_preset(name: str) -> TheoryPreset:
    m = _CHAIN_RE.match(name)
    if m:
        return _chain(int(m.group(1)))
    builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownPresetError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return builder()


def leibniz_equal(sig: Signature, lhs: Term, rhs: Term) -> Prop:
    """Equality of two term-sort values as agreement under every predicate."""
    term = sig.sorts["term"]
    app = sig.lookup("app")
    eps = sig.lookup("eps")
    p = Var("p", term)
    left = Atom(eps, (App(app, (p, lhs)),))
    right = Atom(eps, (App(app, (p, rhs)),))
    return Forall(p, Iff(left, right))


def surjection_axiom(sig: Signature) -> Prop:
    """``g`` is a right inverse of ``f``, stated with Leibniz equality."""
    term = sig.sorts["term"]
    app = sig.lookup("app")
    f, g = App(sig.lookup("f")), App(sig.lookup("g"))
    x = Var("x", term)
    fgx = App(app, (f, App(app, (g, x))))
    return Forall(x, leibniz_equal(sig, fgx, x))


# ---------------------------------------------------------------------------
# Theory files
# ---------------------------------------------------------------------------


def parse_theory_file(text: str) -> TheoryPreset:
    """Parse the documented theory-file format; see the parser module."""
    from .parser import parse_theory

    return parse_theory(text)

