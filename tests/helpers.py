"""Shared test utilities: independent oracles and structural comparators."""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterator

from resmod import unify
from resmod.kernel import (
    And,
    App,
    Atom,
    Bottom,
    Iff,
    Implies,
    Not,
    Or,
    PREDICATE,
    Prop,
    RankMismatchError,
    Signature,
    Sort,
    Substitution,
    Symbol,
    Term,
    Top,
    UnknownSymbolError,
    Var,
    _Binary,
    _Quant,
    _prop_layout,
    _quant_layout,
    _term_layout,
    children,
    is_term,
    rename_apart,
    subst_prop,
    subst_term,
    term_sort,
    term_var_names,
    term_vars,
    with_children,
)
from resmod.clausal import (ClausalResult, ConstrainedClause, Constraint, Literal,
                             renormalize_clause)
from resmod.prover import ON_THE_FLY, _literal_sort_key, _side_skeleton, eligible
from resmod.rewrite import (R_CLASS, EtaRule, NarrowingRule, NormalizeOutcome,
                            RewriteSystem, match)
from resmod.unify import (
    CHECK_FUEL,
    SOLUTIONS,
    UNKNOWN,
    UNSAT,
    EUnifyOutcome,
    _Eq,
    _Path,
    _Side,
    _clash,
    _is_flex,
    _rename_internal,
    _replace_term,
    _term_pairs,
    check_solution,
)
from resmod.theories import TheoryPreset, declare_subset_symbol, load_preset, surjection_axiom


# ---------------------------------------------------------------------------
# Truth-table oracle for ground propositional logic
# ---------------------------------------------------------------------------


def eval_ground(p: Prop, valuation: dict[str, bool]) -> bool:
    """Evaluate a quantifier-free proposition whose atoms are nullary."""
    match p:
        case Atom():
            return valuation[p.pred.name]
        case Top():
            return True
        case Bottom():
            return False
        case Not():
            return not eval_ground(p.body, valuation)
        case And():
            return eval_ground(p.left, valuation) and eval_ground(p.right, valuation)
        case Or():
            return eval_ground(p.left, valuation) or eval_ground(p.right, valuation)
        case Implies():
            return (not eval_ground(p.left, valuation)) or eval_ground(p.right, valuation)
        case Iff():
            return eval_ground(p.left, valuation) == eval_ground(p.right, valuation)
    raise TypeError(f"not ground propositional: {p!r}")


def eval_clause(c: ConstrainedClause, valuation: dict[str, bool]) -> bool:
    return any(valuation[l.atom.pred.name] == l.positive for l in c.literals)


def all_valuations(names: list[str]):
    for bits in range(2 ** len(names)):
        yield {n: bool(bits >> i & 1) for i, n in enumerate(names)}


def truth_table(p: Prop, names: list[str]) -> list[bool]:
    return [eval_ground(p, v) for v in all_valuations(names)]


def random_ground_prop(rng: random.Random, preds: list, depth: int) -> Prop:
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.05:
            return Top()
        if roll < 0.1:
            return Bottom()
        return Atom(rng.choice(preds), ())
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_ground_prop(rng, preds, depth - 1))
    cls = (And, Or, Implies, Iff)[kind - 1]
    return cls(random_ground_prop(rng, preds, depth - 1),
               random_ground_prop(rng, preds, depth - 1))


# ---------------------------------------------------------------------------
# Alpha-variant and isomorphism checks on clauses
# ---------------------------------------------------------------------------


def _match_tree(a, b, var_map: dict, sym_map: dict, flex: frozenset[str]) -> bool:
    """Structural equality up to a variable bijection and a bijection on
    the symbols named in ``flex``."""
    if isinstance(a, Var) != isinstance(b, Var):
        return False
    if isinstance(a, Var):
        bound = var_map.get(("v", a.name))
        if bound is not None:
            return bound == b.name
        if ("v*", b.name) in var_map:
            return False
        var_map[("v", a.name)] = b.name
        var_map[("v*", b.name)] = a.name
        return True
    names_differ = a.sym.name != b.sym.name
    if a.sym.name in flex or b.sym.name in flex:
        bound = sym_map.get(("s", a.sym.name))
        if bound is not None:
            if bound != b.sym.name:
                return False
        else:
            if ("s*", b.sym.name) in sym_map:
                return False
            sym_map[("s", a.sym.name)] = b.sym.name
            sym_map[("s*", b.sym.name)] = a.sym.name
    elif names_differ:
        return False
    if len(a.args) != len(b.args):
        return False
    return all(_match_tree(x, y, var_map, sym_map, flex) for x, y in zip(a.args, b.args))


def _match_literal(a: Literal, b: Literal, var_map, sym_map, flex) -> bool:
    if a.positive != b.positive or a.atom.pred.name != b.atom.pred.name:
        return False
    if len(a.atom.args) != len(b.atom.args):
        return False
    return all(_match_tree(x, y, var_map, sym_map, flex)
               for x, y in zip(a.atom.args, b.atom.args))


def clauses_isomorphic(c1: ConstrainedClause, c2: ConstrainedClause,
                       flex_symbols: frozenset[str] = frozenset(),
                       var_map: dict | None = None,
                       sym_map: dict | None = None) -> bool:
    """Same clause up to literal order, a variable bijection, and a
    bijection of the ``flex_symbols`` (used for generated skolem names)."""
    if len(c1.literals) != len(c2.literals):
        return False
    base_vars = dict(var_map) if var_map else {}
    base_syms = dict(sym_map) if sym_map else {}

    def go(i: int, used: set[int], vm: dict, sm: dict) -> bool:
        if i == len(c1.literals):
            if var_map is not None:
                var_map.update(vm)
            if sym_map is not None:
                sym_map.update(sm)
            return True
        for j, lb in enumerate(c2.literals):
            if j in used:
                continue
            vm2, sm2 = dict(vm), dict(sm)
            if _match_literal(c1.literals[i], lb, vm2, sm2, flex_symbols):
                if go(i + 1, used | {j}, vm2, sm2):
                    return True
        return False

    return go(0, set(), base_vars, base_syms)


def clause_variant(c1: ConstrainedClause, c2: ConstrainedClause) -> bool:
    return clauses_isomorphic(c1, c2)


def clause_sets_isomorphic(actual: list[ConstrainedClause],
                           expected: list[ConstrainedClause],
                           flex_symbols: frozenset[str] = frozenset()) -> bool:
    """Set-level isomorphism with one shared symbol bijection; variable
    renamings are local to each clause pair."""
    if len(actual) != len(expected):
        return False

    def go(i: int, used: set[int], sym_map: dict) -> bool:
        if i == len(expected):
            return True
        for j, a in enumerate(actual):
            if j in used:
                continue
            sm = dict(sym_map)
            if clauses_isomorphic(expected[i], a, flex_symbols,
                                  var_map={}, sym_map=sm):
                if go(i + 1, used | {j}, sm):
                    return True
        return False

    return go(0, set(), {})


def contains_isomorphic(clauses, expected: ConstrainedClause,
                        flex_symbols: frozenset[str] = frozenset()) -> bool:
    return any(clauses_isomorphic(expected, c, flex_symbols) for c in clauses)


def canonical_variant(c: ConstrainedClause) -> ConstrainedClause:
    """A reference for the key ``prover.clause_key`` reads off ``c``: the
    variant of ``c`` whose variables are renamed ``?0``, ``?1``, ... in
    order of first occurrence, in the literals sorted by polarity,
    predicate and variable-blind skeleton and then in the constraints
    sorted by the skeletons and the texts of their sides, every side
    printed.  Two clauses key alike when the literal sets and the
    constraint sets of their canonical variants are equal."""
    def ordered_sides(con):
        sides = sorted(((_side_skeleton(x), str(x), x) for x in (con.lhs, con.rhs)),
                       key=lambda e: e[:2])
        return (tuple(e[0] for e in sides), tuple(e[1] for e in sides),
                tuple(e[2] for e in sides))

    terms = [a for lit in sorted(c.literals, key=_literal_sort_key) for a in lit.atom.args]
    for _, _, sides in sorted((ordered_sides(con) for con in c.constraints),
                              key=lambda e: e[:2]):
        for x in sides:
            terms += x.args if isinstance(x, Atom) else (x,)
    names = {}
    stack = terms[::-1]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            names.setdefault(t.name, Var(f"?{len(names)}", t.sort))
        else:
            stack += reversed(t.args)

    def rename(x):
        if isinstance(x, Atom):
            return Atom(x.pred, tuple(subst_term(a, names) for a in x.args))
        return subst_term(x, names)

    return ConstrainedClause(
        (Literal(lit.positive, rename(lit.atom)) for lit in c.literals),
        (Constraint(rename(con.lhs), rename(con.rhs)) for con in c.constraints))


def maps_onto(c: ConstrainedClause, images) -> bool:
    """Is some tuple in ``images``, one literal for each literal of ``c``,
    an image of ``c``: each literal in it has the sign of its literal of
    ``c``, and ``match`` binds one instance of ``c`` onto them all?"""
    for image in images:
        bindings: dict | None = {}
        for a, b in zip(c.literals, image):
            if a.positive != b.positive or (bindings := match(a.atom, b.atom, bindings)) is None:
                break
        else:
            return True
    return False


def multiset_subsumes(c: ConstrainedClause, d: ConstrainedClause) -> bool:
    """A reference for ``prover.subsumes``: does constraint-free ``c`` map
    onto ``d`` by some one-to-one map of its literals to ``d``'s?  Every
    such map is tried, with no test to prune them."""
    return not c.constraints and maps_onto(c, itertools.permutations(d.literals, len(c)))


# ---------------------------------------------------------------------------
# Sort checking against a signature
# ---------------------------------------------------------------------------


def _ranked_symbol(t: App, sig: Signature) -> Symbol:
    """The declared function symbol at the root of ``t``, once its argument
    count is checked."""
    sym = sig.symbols.get(t.sym.name)
    if sym is None:
        raise UnknownSymbolError(f"symbol {t.sym.name} is not declared")
    if sym.kind == PREDICATE:
        raise RankMismatchError(f"predicate {sym.name} used in term position")
    if len(t.args) != sym.arity:
        raise RankMismatchError(
            f"{sym.name} expects {sym.arity} arguments, got {len(t.args)}")
    return sym


def sort_of(t: Term, sig: Signature) -> Sort:
    """Sort of ``t``, re-checking every symbol against ``sig``.

    Raises UnknownSymbolError for undeclared symbols and RankMismatchError
    when argument counts or argument sorts disagree with a symbol's rank.
    Subterms are checked in pre-order, and an argument's sort once the
    argument itself is checked, so the first fault is the one reported.
    """
    if isinstance(t, Var):
        return t.sort
    # frames [symbol, arguments, next argument]
    stack: list[list] = [[_ranked_symbol(t, sig), t.args, 0]]
    while True:
        frame = stack[-1]
        sym, args, i = frame
        if i < len(args):
            a = args[i]
            if not isinstance(a, Var):
                stack.append([_ranked_symbol(a, sig), a.args, 0])
                continue
            actual = a.sort
        else:
            stack.pop()
            assert sym.result is not None
            if not stack:
                return sym.result
            actual = sym.result
            frame = stack[-1]
            sym, args, i = frame
        expected = sym.arg_sorts[i]
        if actual != expected:
            raise RankMismatchError(
                f"argument {i + 1} of {sym.name} has sort {actual}, expected {expected}")
        frame[2] = i + 1


# ---------------------------------------------------------------------------
# Random first-order terms
# ---------------------------------------------------------------------------


def small_signature() -> Signature:
    sig = Signature()
    s = sig.declare_sort("u")
    sig.individual("a", s)
    sig.individual("b", s)
    sig.individual("c", s)
    sig.function("f", (s, s), s)
    sig.function("g", (s,), s)
    sig.predicate("p", (s, s))
    return sig


def random_term(rng: random.Random, sig: Signature, depth: int,
                var_names=("x", "y", "z", "u")) -> Term:
    s = sig.sorts["u"]
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.5:
            return Var(rng.choice(var_names), s)
        return App(sig.lookup(rng.choice("abc")))
    if rng.random() < 0.5:
        return App(sig.lookup("f"), (random_term(rng, sig, depth - 1, var_names),
                                     random_term(rng, sig, depth - 1, var_names)))
    return App(sig.lookup("g"), (random_term(rng, sig, depth - 1, var_names),))


def random_sig_term(rng, sig, sort, depth, names=("x", "y", "z")):
    """A random term of ``sort`` over the function symbols of ``sig`` and
    the variables ``names``, shared between the terms drawn."""
    symbols = [s for s in sig.symbols.values()
               if s.kind in ("individual", "function") and s.result == sort]
    if depth == 0 or not symbols or rng.random() < 0.3:
        if rng.random() < 0.6 or not any(not s.arg_sorts for s in symbols):
            return Var(rng.choice(names), sort)
        symbols = [s for s in symbols if not s.arg_sorts]
    sym = rng.choice(symbols)
    return App(sym, tuple(random_sig_term(rng, sig, a, depth - 1, names)
                          for a in sym.arg_sorts))


def random_ground_term(rng: random.Random, sig: Signature, depth: int) -> Term:
    if depth == 0 or rng.random() < 0.4:
        return App(sig.lookup(rng.choice("abc")))
    if rng.random() < 0.5:
        return App(sig.lookup("f"), (random_ground_term(rng, sig, depth - 1),
                                     random_ground_term(rng, sig, depth - 1)))
    return App(sig.lookup("g"), (random_ground_term(rng, sig, depth - 1),))


def random_arith_term(rng, sig, depth):
    nat = sig.sorts["nat"]
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.2:
            return Var(rng.choice("xy"), nat)
        return sig.numeral(rng.randint(0, 3))
    roll = rng.random()
    if roll < 0.2:
        return App(sig.lookup("S"), (random_arith_term(rng, sig, depth - 1),))
    op = sig.lookup("+" if roll < 0.6 else "*")
    return App(op, (random_arith_term(rng, sig, depth - 1),
                    random_arith_term(rng, sig, depth - 1)))


def random_sigma_term(rng, sig, depth, sort="term"):
    """A hol-sigma term or substitution, often of the eta-redex shape
    ``lam(app(t, 1))``."""
    term, subst = sig.sorts["term"], sig.sorts["subst"]
    one = App(sig.lookup("1"))
    if sort == "subst":
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.2:
                return Var("s", subst)
            return App(sig.lookup(rng.choice(["id", "shift"])))
        if rng.random() < 0.5:
            return App(sig.lookup("cons"), (random_sigma_term(rng, sig, depth - 1),
                                            random_sigma_term(rng, sig, depth - 1, "subst")))
        return App(sig.lookup("comp"), (random_sigma_term(rng, sig, depth - 1, "subst"),
                                        random_sigma_term(rng, sig, depth - 1, "subst")))
    if depth == 0 or rng.random() < 0.25:
        return Var("a", term) if rng.random() < 0.2 else sig.numeral(rng.randint(1, 3))
    roll = rng.random()
    if roll < 0.25:
        return App(sig.lookup("lam"), (App(sig.lookup("app"), (
            random_sigma_term(rng, sig, depth - 1), one)),))
    if roll < 0.45:
        return App(sig.lookup("lam"), (random_sigma_term(rng, sig, depth - 1),))
    if roll < 0.75:
        return App(sig.lookup("app"), (random_sigma_term(rng, sig, depth - 1),
                                       random_sigma_term(rng, sig, depth - 1)))
    return App(sig.lookup("sub"), (random_sigma_term(rng, sig, depth - 1),
                                   random_sigma_term(rng, sig, depth - 1, "subst")))


def church_terms(sig):
    """Application, Church numerals, plus and mult as hol-sigma terms, the
    shapes of the benchmark's ``church`` family."""
    app, lam, idx = sig.lookup("app"), sig.lookup("lam"), sig.numeral

    def ap(*ts):
        t = ts[0]
        for u in ts[1:]:
            t = App(app, (t, u))
        return t

    def lams(n, body):
        for _ in range(n):
            body = App(lam, (body,))
        return body

    def church(n):
        body = idx(1)
        for _ in range(n):
            body = ap(idx(2), body)
        return lams(2, body)

    plus = lams(4, ap(idx(4), idx(2), ap(idx(3), idx(2), idx(1))))
    mult = lams(3, ap(idx(3), ap(idx(2), idx(1))))
    return ap, church, plus, mult


def random_comb_spine(rng, sig, depth):
    """A combinator applied to up to three random spines: redexes are
    common."""
    app, term = sig.lookup("app"), sig.sorts["term"]
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.2:
            return Var(rng.choice("xy"), term)
        return App(sig.lookup(rng.choice(["S", "K", "a", "b"])))
    out = App(sig.lookup(rng.choice(["S", "K", "S", "K", "a"])))
    for _ in range(rng.randint(1, 3)):
        out = App(app, (out, random_comb_spine(rng, sig, depth - 1)))
    return out


# ---------------------------------------------------------------------------
# Rigid clashes modulo the E-rules
# ---------------------------------------------------------------------------


def rigid_clash(t: Term, u: Term, roots) -> bool:
    """Do ``t`` and ``u`` carry different symbols (name or arity) at a
    position reached only through symbols outside ``roots``, the E-rule
    roots?  Then no E-unifier exists.  A reference for ``cheap_fail``."""
    if isinstance(t, Var) or isinstance(u, Var):
        return False
    if t.sym.name in roots or u.sym.name in roots:
        return False
    if t.sym.name != u.sym.name or len(t.args) != len(u.args):
        return True
    return any(rigid_clash(a, b, roots) for a, b in zip(t.args, u.args))


# ---------------------------------------------------------------------------
# Tree positions: tuples of 1-based child indices
# ---------------------------------------------------------------------------


def subtrees(x, prefix: tuple = ()):
    """Every ``(position, subtree)`` of a term or proposition, in pre-order,
    root first."""
    yield prefix, x
    for i, c in enumerate(children(x), start=1):
        yield from subtrees(c, prefix + (i,))


def replace_at(x, pos: tuple, new):
    """``x`` with the subtree at ``pos`` replaced by ``new``."""
    if not pos:
        return new
    kids = children(x)
    i = pos[0]
    return with_children(x, kids[:i - 1] + (replace_at(kids[i - 1], pos[1:], new),) + kids[i:])


# ---------------------------------------------------------------------------
# The rules that can fire at a node, by its root and argument heads
# ---------------------------------------------------------------------------


def arg_heads(x: App | Atom) -> tuple[str | None, ...]:
    """The head symbol name of each argument of ``x``, None for a variable."""
    return tuple(a.sym.name if type(a) is App else None for a in x.args)


def fits(rule, heads: tuple[str | None, ...]) -> bool:
    """Whether ``rule`` can fire at a node whose arguments have ``heads``
    (a symbol name, or None for a variable), given the node's root fits."""
    if isinstance(rule, EtaRule):
        return True
    args = rule.lhs.args
    return len(args) == len(heads) and all(
        type(p) is Var or p.sym.name == h for p, h in zip(args, heads))


def fits_skeleton(pattern: Term, x: Term) -> bool:
    """Whether ``x`` has the symbol (name and arity) ``pattern`` has at each
    of its non-variable positions."""
    if isinstance(pattern, Var):
        return True
    return (isinstance(x, App) and x.sym.name == pattern.sym.name
            and len(x.args) == len(pattern.args)
            and all(fits_skeleton(p, a) for p, a in zip(pattern.args, x.args)))


def pinning(rule) -> bool:
    """Whether ``rule`` is an eta rule or an E-rule whose left side repeats a
    variable: one a change deeper than its left side can make fire."""
    if isinstance(rule, EtaRule):
        return True
    names = [v.name for _, v in subtrees(rule.lhs) if isinstance(v, Var)]
    return rule.cls != R_CLASS and len(names) > len(set(names))


def pinned_at(system: RewriteSystem, x: App | Atom) -> bool:
    """The reference for where a dispatcher returns ``rewrite.PINNED`` when
    no rule fires: ``x`` fits the skeleton of a pinning rule of its root."""
    return any(pinning(r) and fits_skeleton(r.lhs, x) for r in same_root(system, x))


def same_root(system: RewriteSystem, x: App | Atom) -> tuple:
    """The rules whose left side has the root symbol or predicate of ``x``,
    in declaration order."""
    if isinstance(x, Atom):
        return system.r_index.get(x.pred.name, ())
    return system.e_index.get(x.sym.name, ())


def head_candidates(system: RewriteSystem, x: App | Atom) -> list:
    """The reference for the rules a root's dispatcher tries at ``x``: those
    of its root that fit the heads of its arguments, in declaration order."""
    return [r for r in same_root(system, x) if fits(r, arg_heads(x))]


# ---------------------------------------------------------------------------
# One-step reduction by a scan of every rule at every node
# ---------------------------------------------------------------------------


def _contract(rules, x: Term | Atom,
              system: RewriteSystem) -> tuple[Term | Prop, str] | None:
    """The contractum of the first of ``rules`` that fires at the root of
    ``x``, and that rule's name."""
    for rule in rules:
        if isinstance(rule, EtaRule):
            contracted = rule.contract(x, system)
            if contracted is not None:
                return contracted, rule.name
            continue
        b = match(rule.lhs, x)
        if b is not None:
            if rule.cls == R_CLASS:
                return subst_prop(rule.rhs, b), rule.name
            return subst_term(rule.rhs, b), rule.name
    return None


def _reduce_term_once(t: Term, system: RewriteSystem) -> tuple[Term, str] | None:
    """Leftmost-outermost E-step inside a term: contract the first redex in
    pre-order, trying every E-rule at every node."""
    # visited nodes as (node, index of its parent here, argument position)
    visited: list[tuple[App, int, int]] = []
    stack: list[tuple[Term, int, int]] = [(t, -1, 0)]
    while stack:
        u, parent, i = stack.pop()
        if isinstance(u, Var):
            continue
        red = _contract(system.e_rules, u, system)
        if red is None:
            visited.append((u, parent, i))
            here = len(visited) - 1
            stack.extend((u.args[j], here, j) for j in reversed(range(len(u.args))))
            continue
        new, name = red
        while parent >= 0:
            node, up, j = visited[parent]
            new = App(node.sym, node.args[:i] + (new,) + node.args[i + 1:])
            parent, i = up, j
        return new, name
    return None


def _reduce_atom_once(a: Atom, system: RewriteSystem) -> tuple[Prop, str] | None:
    """An R-step at ``a``, or else the leftmost-outermost E-step in its
    arguments."""
    red = _contract(system.r_rules, a, system)
    if red is not None:
        return red
    for i, t in enumerate(a.args):
        red = _reduce_term_once(t, system)
        if red is not None:
            new, name = red
            return Atom(a.pred, a.args[:i] + (new,) + a.args[i + 1:]), name
    return None


def scan_reduce_once(x: Term | Prop, system: RewriteSystem) -> tuple[Term | Prop, str] | None:
    """The reference for ``rewrite.reduce_once``: rewrite the
    leftmost-outermost redex of ``x``.

    R-rules fire at atom positions of propositions, E-rules inside terms.
    Every rule is tried at every node, with ``match`` and no index.
    Returns ``(reduct, rule name)`` or None when ``x`` is normal.
    """
    if is_term(x):
        return _reduce_term_once(x, system)
    # frames [connective, its children, the child searched]; the bottom frame
    # holds ``x``; atoms are searched in pre-order, left to right
    frames: list[list] = [[None, (x,), 0]]
    while True:
        frame = frames[-1]
        kids, i = frame[1], frame[2]
        if i == len(kids):
            frames.pop()
            if not frames:
                return None
            frames[-1][2] += 1
            continue
        y = kids[i]
        if isinstance(y, Atom):
            red = _reduce_atom_once(y, system)
            if red is not None:
                break
        elif not isinstance(y, (Top, Bottom)):
            frames.append([y, children(y), 0])
            continue
        frame[2] = i + 1
    new, name = red
    for node, kids, i in reversed(frames[1:]):
        new = with_children(node, kids[:i] + (new,) + kids[i + 1:])
    return new, name


# ---------------------------------------------------------------------------
# A second reduction strategy, for confluence tests
# ---------------------------------------------------------------------------


def _reduce_rightmost_innermost(x, system: RewriteSystem):
    best = None
    for pos, sub in subtrees(x):
        red = None
        if isinstance(sub, App):
            red = _contract(system.e_rules, sub, system)
        elif isinstance(sub, Atom):
            red = _contract(system.r_rules, sub, system)
        if red is None:
            continue
        # rightmost first, then innermost (longer positions win)
        if best is None or pos > best[0] or (pos[:len(best[0])] == best[0] and len(pos) > len(best[0])):
            best = (pos, red[0])
    if best is None:
        return None
    return replace_at(x, best[0], best[1])


def normalize_rightmost_innermost(x, system: RewriteSystem, fuel: int) -> NormalizeOutcome:
    """``normalize`` with the rightmost-innermost redex contracted first."""
    value = x
    for n in range(fuel):
        red = _reduce_rightmost_innermost(value, system)
        if red is None:
            return NormalizeOutcome(True, value, n)
        value = red
    return NormalizeOutcome(_reduce_rightmost_innermost(value, system) is None, value, fuel)


# ---------------------------------------------------------------------------
# Cantor's theorem in type theory
# ---------------------------------------------------------------------------


def hol_cantor(name: str) -> TheoryPreset:
    """Cantor's theorem in a HOL preset: f and g with the surjection axiom."""
    theory = load_preset(name)
    term = theory.sig.sorts["term"]
    theory.sig.individual("f", term)
    theory.sig.individual("g", term)
    theory.axioms = [surjection_axiom(theory.sig)]
    return theory


def russell_theory() -> tuple[TheoryPreset, Symbol]:
    """The set preset extended with a constant ``a`` and the comprehension
    ``{w in a | ~(w in w)}`` (whose membership proposition has no normal
    form)."""
    preset = load_preset("set")
    st = preset.sig.sorts["set"]
    preset.sig.individual("a", st)
    member = preset.sig.lookup("in")
    w = Var("w", st)
    sym, _rule = declare_subset_symbol(
        preset, [], w, Not(Atom(member, (w, w))), name="russell")
    return preset, sym


# ---------------------------------------------------------------------------
# Syntactic unification that rewrites its substitution at every binding
# ---------------------------------------------------------------------------


def _reference_bind(sigma: dict[str, Term], name: str, value: Term) -> dict[str, Term] | None:
    if name in term_var_names(value):
        return None  # occurs check
    one = {name: value}
    out = {k: subst_term(v, one) for k, v in sigma.items()}
    out[name] = value
    return out


def reference_unify_terms(t: Term, u: Term,
                          sigma: dict[str, Term] | None = None) -> dict[str, Term] | None:
    """A reference for ``unify.unify_terms``: the most general unifier of two
    terms as an idempotent binding map, or None.  It applies the whole map
    to both sides of every pair it takes and substitutes each new binding
    into every earlier one."""
    sigma = dict(sigma) if sigma else {}
    stack = [(t, u)]
    while stack:
        a, b = stack.pop()
        a = subst_term(a, sigma)
        b = subst_term(b, sigma)
        if a == b:
            continue
        if isinstance(a, Var):
            if term_sort(b) != a.sort:
                return None
            sigma = _reference_bind(sigma, a.name, b)
            if sigma is None:
                return None
        elif isinstance(b, Var):
            if term_sort(a) != b.sort:
                return None
            sigma = _reference_bind(sigma, b.name, a)
            if sigma is None:
                return None
        elif a.sym.name == b.sym.name and len(a.args) == len(b.args):
            stack.extend(zip(a.args, b.args))
        else:
            return None
    return sigma


# ---------------------------------------------------------------------------
# On-the-fly propagation through a constrained clause and a Substitution
# ---------------------------------------------------------------------------


def solve_syntactic(constraints) -> Substitution | None:
    """Most general unifier of every constraint at once, or None: one
    triangular binding map is extended over all the term equations by
    ``unify.unify_terms`` and resolved once, at the end, into a checked
    ``Substitution``."""
    pairs = _term_pairs(constraints)
    if pairs is None:
        return None
    bindings = unify.Bindings()
    for a, b in pairs:
        bindings = unify.unify_terms(a, b, bindings)
        if bindings is None:
            return None
    return Substitution(unify.resolve(bindings))


def reference_propagate(c: ConstrainedClause, system: RewriteSystem, sig,
                        fuel: int = 10_000) -> ClausalResult | None:
    """A reference for ``unify.propagate_on_the_fly`` on a built constrained
    clause: its constraints are solved by :func:`solve_syntactic`, its
    literals copied into a clause without constraints, instantiated by
    ``ConstrainedClause.apply`` and the copy re-normalized."""
    solution = solve_syntactic(c.constraints)
    if solution is None:
        return None
    instance = ConstrainedClause(c.literals).apply(solution)
    return renormalize_clause(instance, system, sig, fuel)[0]


def reference_process_new(clauses, on_the_fly: bool, propagate: bool, system: RewriteSystem,
                          sig, fuel: int = 10_000) -> tuple[list[ConstrainedClause], int]:
    """A reference for ``prover._Saturation.process_new`` on inferences
    built as constrained clauses first: the clauses it registers, in order,
    and the number of inferences whose constraints failed.  ``propagate``
    says that no parent carries constraints."""
    out, failed = [], 0
    for c in clauses:
        if not c.constraints:
            out.append(c)
        elif propagate and on_the_fly and (result := reference_propagate(
                c, system, sig, fuel)) is not None:
            out += result.clauses
        elif ((on_the_fly and not system.e_rules)
              or any(unify.cheap_fail(con, system) for con in c.constraints)):
            failed += 1
        else:
            out.append(c)
    return out, failed


def reference_resolve(sel: ConstrainedClause, partner: ConstrainedClause, strategy: str,
                      select: bool, system: RewriteSystem, sig, fuel: int = 10_000):
    """A reference for ``prover._Saturation._resolve`` that builds first:
    ``partner`` is renamed apart from ``sel`` in full by ``rename_apart``,
    each resolvent's literals and constraints are built before anything is
    unified, and each is then built as a clause by the strategy, on the fly
    by ``unify.propagate_on_the_fly`` on those literals.  Returns the
    clauses registered, in order; the number of inferences whose
    constraints failed; and the number that registered a clause, which
    ``steps["resolution"]`` counts."""
    renamed, _ = rename_apart(sel.free_names(), partner)
    on_the_fly = strategy == ON_THE_FLY
    propagate = on_the_fly and not sel.constraints and not partner.constraints
    out, failed, steps = [], 0, 0
    for pos, neg in ((sel, renamed), (renamed, sel)):
        negatives = [j for j in eligible(neg, select) if not neg.literals[j].positive]
        for i in eligible(pos, select):
            lp = pos.literals[i]
            for j in negatives if lp.positive else ():
                ln = neg.literals[j]
                if (lp.atom.pred.name, len(lp.atom.args)) != (ln.atom.pred.name,
                                                              len(ln.atom.args)):
                    continue
                literals = [l for k, l in enumerate(pos.literals) if k != i]
                literals += [l for k, l in enumerate(neg.literals) if k != j]
                constraints = (*pos.constraints, *neg.constraints)
                if lp.atom != ln.atom:
                    constraints += (Constraint(lp.atom, ln.atom),)
                c = ConstrainedClause(literals, constraints)
                if not constraints:
                    survivors = [c]
                elif propagate and (result := unify.propagate_on_the_fly(
                        literals, unify._term_pairs(constraints), system, sig, fuel)):
                    survivors = result.clauses
                elif ((on_the_fly and not system.e_rules)
                      or any(unify.cheap_fail(con, system) for con in c.constraints)):
                    failed += 1
                    continue
                else:
                    survivors = [c]
                out += survivors
                steps += bool(survivors)
    return out, failed, steps


# ---------------------------------------------------------------------------
# Basic positions, and a narrowing step that renames the rule before it
# unifies
# ---------------------------------------------------------------------------


def basic_subterms(term: Term, skel: Term) -> Iterator[tuple[_Path, App]]:
    """The subterms of ``term`` at the applications of its skeleton
    ``skel``, with their paths, in pre-order: the basic positions that
    ``unify._file`` files those of."""
    stack: list[tuple[Term, Term, _Path]] = [(term, skel, None)]
    while stack:
        t, k, path = stack.pop()
        if isinstance(k, App):
            yield path, t
            stack.extend((t.args[i], k.args[i], (path, i))
                         for i in reversed(range(len(k.args))))


def reference_narrowing_step(sub: App, rule: NarrowingRule,
                             first: int) -> tuple[dict[str, Term], Term] | None:
    """A reference for ``rule.step(sub, first)``: the rule's left side is
    tested with ``unify._clash`` against ``sub``, renamed, its variable
    ``j`` to ``_n<first + j>``, and unified with ``sub`` by
    ``unify.unify_terms``; the step's θ is the resolved unifier and its right
    side the renamed right side."""
    if _clash(sub, rule.lhs, frozenset()):
        return None
    renaming = {v: Var(f"_n{first + j}", sort) for j, (v, sort) in enumerate(rule.variables)}
    bindings = unify.unify_terms(sub, subst_term(rule.lhs, renaming))
    if bindings is None:
        return None
    return unify.resolve(bindings), subst_term(rule.rhs, renaming)


# ---------------------------------------------------------------------------
# The refutation gate's search with eager levels
# ---------------------------------------------------------------------------


def eager_narrowing(constraints, system: RewriteSystem, depth: int = 8, *,
                    app_symbols=(), max_states: int = 4_000) -> EUnifyOutcome:
    """A reference for ``e_unify_narrowing``: every examined state is
    expanded into a list for the next level at once, every rule is tried
    against ``_clash`` at every basic position, and every rule renaming
    draws its fresh names from one counter, clash or not.  Like the gate, it
    stops at the first candidate that passes the solution check.  It
    unifies with :func:`reference_unify_terms`, not the gate's triangular
    ``unify_terms``.  It calls ``unify._simplify`` by its module name, once
    per examined state, so a test can watch the states both searches
    examine."""
    rules = [(r.lhs, r.rhs, tuple((v.name, v.sort)
                                  for v in sorted(term_vars(r.lhs), key=lambda v: v.name)))
             for r in system.e_rules if not isinstance(r, EtaRule)]
    apps = frozenset(app_symbols)
    constraints = tuple(constraints)
    pairs = _term_pairs(constraints)
    if pairs is None:
        return EUnifyOutcome(UNSAT)
    original_vars: set[str] = set()
    for a, b in pairs:
        original_vars |= term_var_names(a) | term_var_names(b)

    def finish(sigma, chain):
        thetas = [sigma]
        while chain is not None:
            chain, theta = chain
            thetas.append(theta)
        candidate = Substitution()
        for theta in reversed(thetas):
            candidate = candidate.compose(Substitution(theta))
        candidate = _rename_internal(candidate.restrict(original_vars), original_vars)
        if rules and not check_solution(candidate, constraints, system, CHECK_FUEL).ok:
            return None
        return candidate

    def frozen(e):
        return _is_flex(e.left.term, apps) and _is_flex(e.right.term, apps)

    def child(eqs, chain, idx, side_ix, path, sub, lhs, rule_rhs, renaming):
        theta = reference_unify_terms(sub, subst_term(lhs, renaming))
        if theta is None:
            return None

        def moved(side):
            return _Side(subst_term(side.term, theta), side.skel)

        rhs = subst_term(rule_rhs, renaming)
        new_eqs = []
        for jdx, e in enumerate(eqs):
            left, right = moved(e.left), moved(e.right)
            if jdx == idx:
                side = e.right if side_ix else e.left
                new_side = _Side(subst_term(_replace_term(side.term, path, rhs), theta),
                                 _replace_term(side.skel, path, rhs))
                left, right = (left, new_side) if side_ix else (new_side, right)
            new_eqs.append(_Eq(left, right))
        return new_eqs, (chain, theta)

    def expand(eqs, chain, counter):
        for idx, e in enumerate(eqs):
            if frozen(e):
                continue
            for side_ix, side in enumerate((e.left, e.right)):
                for path, sub in basic_subterms(side.term, side.skel):
                    for lhs, rule_rhs, rule_vars in rules:
                        renaming = {v: Var(f"_n{next(counter)}", sort) for v, sort in rule_vars}
                        if not _clash(sub, lhs, frozenset()):
                            yield functools.partial(child, eqs, chain, idx, side_ix, path,
                                                    sub, lhs, rule_rhs, renaming)

    start = [_Eq(_Side(a), _Side(b)) for a, b in pairs]
    level = [lambda: (start, None)]
    seen = set()
    counter = itertools.count(1)
    states_used = 0
    truncated = False
    for current_depth in range(depth + 1):
        next_level = []
        for step in level:
            state = step()
            if state is None:
                continue
            eqs, chain = state
            states_used += 1
            if states_used > max_states:
                truncated = True
                break
            eqs = unify._simplify(eqs, system)
            if eqs is None:
                continue
            key = tuple((e.left.term, e.right.term) for e in eqs)
            if key in seen:
                continue
            seen.add(key)
            sigma = {}
            for e in eqs:
                sigma = reference_unify_terms(e.left.term, e.right.term, sigma)
                if sigma is None:
                    break
            if sigma is not None:
                solution = finish(sigma, chain)
                if solution is not None:
                    return EUnifyOutcome(SOLUTIONS, solution, current_depth, states=states_used)
            if current_depth == depth:
                if rules and any(not frozen(e) and (isinstance(e.left.skel, App)
                                                    or isinstance(e.right.skel, App))
                                 for e in eqs):
                    truncated = True
                continue
            next_level.extend(expand(eqs, chain, counter))
        if truncated:
            break
        level = next_level
        if not level:
            return EUnifyOutcome(UNSAT, states=states_used)
    reason = "states" if states_used > max_states else "depth"
    return EUnifyOutcome(UNKNOWN, reason=reason, states=min(states_used, max_states))


# ---------------------------------------------------------------------------
# The printer that lays out every node on its own
# ---------------------------------------------------------------------------


def reference_format_term(x: Term | Prop, env=None, prec: int = 0) -> str:
    """The reference for :func:`resmod.kernel.format_term`: the same text,
    each application laid out by ``kernel._term_layout`` one level at a
    time, and the shadowing binders found by a walk of every node."""
    out: list[str] = []
    stack: list = [(x, prec)]
    root, shadowing = x, None
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if isinstance(item, dict):
            env = item
            continue
        x, prec = item
        if isinstance(x, Var):
            out.append(env.get(x.name, x.name) if env else x.name)
        elif isinstance(x, App):
            if x.args:
                stack.extend(reversed(_term_layout(x, prec)))
            else:
                out.append(x.sym.name)
        elif isinstance(x, _Quant):
            if shadowing is None:
                shadowing = reference_binders_over_symbols(root)
            stack.append(dict(env) if env else {})
            parts, env = _quant_layout(x, prec, env, id(x) in shadowing)
            stack.extend(reversed(parts))
        else:
            stack.extend(reversed(_prop_layout(x, prec)))
    return "".join(out)


def reference_binders_over_symbols(x: Term | Prop) -> set[int]:
    """The ids of the quantifiers in ``x`` whose hint names a constant or a
    nullary predicate in their body, by a walk of every node that keeps the
    open quantifiers by hint."""
    out: set[int] = set()
    open_by_hint: dict[str, list[_Quant]] = {}
    stack: list = [x]
    while stack:
        y = stack.pop()
        if isinstance(y, str):  # the body of the innermost quantifier of hint y ends
            open_by_hint[y].pop()
            continue
        if isinstance(y, _Quant):
            open_by_hint.setdefault(y.hint, []).append(y)
            stack += (y.hint, y.body)
            continue
        name = (y.sym.name if isinstance(y, App) else y.pred.name
                if isinstance(y, Atom) else None)
        if name is not None and not y.args:
            for q in reversed(open_by_hint.get(name, ())):
                if id(q) in out:
                    break
                out.add(id(q))
        stack += children(y)
    return out
