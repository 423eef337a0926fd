"""Parser tests: what the kernel prints, the parser reads back; a theory file
builds the preset that its directives describe; constraint and solution
files report parse errors where they are in the file."""

import random
import re

import pytest

from resmod import cli, prover
from resmod.clausal import clausal_form
from resmod.kernel import (
    PREDICATE,
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
    Top,
    Var,
    format_term,
)
from resmod.parser import (
    ParseError,
    parse_constraints,
    parse_prop,
    parse_rule_text,
    parse_substitution,
    parse_term,
    parse_theory,
    parse_trace,
)
from resmod.rewrite import EtaRule, RewriteRule
from resmod.theories import declare_subset_symbol, load_preset, pair_term

from helpers import hol_cantor, reference_format_term, small_signature

PRESETS = ["arith", "integral-rings", "chain(4)", "hol-comb", "hol-sigma", "set", "set-cantor"]


def build(name):
    if name.startswith("cantor:"):
        return hol_cantor(name.split(":", 1)[1])
    return load_preset(name)


@pytest.mark.parametrize("name", PRESETS + ["cantor:hol-comb", "cantor:hol-sigma"])
def test_printed_propositions_parse_back(name):
    theory = build(name)
    props = [*theory.axioms, *theory.goals.values(),
             *(r.rhs for r in theory.system.r_rules)]
    assert props
    for p in props:
        assert parse_prop(str(p), theory.sig) == p, str(p)


@pytest.mark.parametrize("name", PRESETS)
def test_printed_rules_parse_back(name):
    theory = build(name)
    rules = [r for r in theory.system.rules if not isinstance(r, EtaRule)]
    assert rules
    for r in rules:
        assert parse_rule_text(f"{r.lhs} -> {r.rhs}", theory.sig, name=r.name) == r, str(r)


def random_term_of(rng, sig, sort, depth, variables):
    """A term of ``sort`` over the symbols of ``sig`` and the ``variables``
    (name to sort) of that sort; a constant named like a variable is
    shadowed by it, so it is left out."""
    symbols = [s for s in sig.symbols.values() if s.kind != PREDICATE and s.result == sort]
    names = [n for n, s in variables.items() if s == sort]
    compound = [s for s in symbols if s.arg_sorts]
    if depth == 0 or not compound or rng.random() < 0.3:
        leaves = [s for s in symbols if not s.arg_sorts and s.name not in variables]
        if rng.random() < 0.4 or not leaves:
            return Var(rng.choice(names), sort)
        return App(rng.choice(leaves))
    sym = rng.choice(compound)
    return App(sym, tuple(random_term_of(rng, sig, s, depth - 1, variables)
                          for s in sym.arg_sorts))


@pytest.mark.parametrize("name", PRESETS)
def test_printed_random_terms_parse_back(name):
    sig = build(name).sig
    rng = random.Random(f"terms:{name}")
    variables = {f"{v}{s}": sort for s, sort in sig.sorts.items() for v in ("x", "y")}
    for sort in sig.sorts.values():
        for _ in range(300):
            t = random_term_of(rng, sig, sort, 5, variables)
            assert parse_term(format_term(t), sig, dict(variables)) == t, format_term(t)


_CONNECTIVES = [(And, "/\\", 4), (Or, "\\/", 3), (Implies, "=>", 2), (Iff, "<=>", 1)]


BINDERS = ("x", "y", "z", "w1", "x'")


def random_prop_text(rng, sig, depth, variables, binders=BINDERS):
    """A random proposition over ``sig`` and its text, written apart from
    the kernel's printer: with redundant parentheses around atoms and around
    terms, and with the sort annotation of a bound variable left out where
    the parser infers it.  ``variables`` (name to sort) are in scope, and a
    quantifier binds one of the names ``binders``.  The
    third value is the precedence of the text's outermost connective (0
    for a quantifier), or None when the text needs no parentheses as an
    operand."""
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.05:
            return Top(), "top", None
        if roll < 0.1:
            return Bottom(), "bot", None
        pred = rng.choice([s for s in sig.symbols.values() if s.kind == PREDICATE])
        args = tuple(random_term_of(rng, sig, a, 2, variables) for a in pred.arg_sorts)
        texts = [f"({format_term(a)})" if rng.random() < 0.2 else format_term(a) for a in args]
        if pred.display == "infix":
            text = f"{texts[0]} {pred.name} {texts[1]}"
        else:
            text = f"{pred.name}({', '.join(texts)})" if args else pred.name
        if rng.random() < 0.2:
            text = f"({text})"
        return Atom(pred, args), text, None
    kind = rng.randrange(7 if sig.sorts else 5)
    if kind == 0:
        body, text, prec = random_prop_text(rng, sig, depth - 1, variables, binders)
        return Not(body), f"~({text})" if prec is not None else f"~{text}", None
    if kind <= 4:
        cls, token, my = _CONNECTIVES[kind - 1]
        (left, lt, lp), (right, rt, rp) = (
            random_prop_text(rng, sig, depth - 1, variables, binders) for _ in range(2))
        # => associates to the right, the others to the left; a quantifier
        # (precedence 0) takes all that follows it
        if lp is not None and (lp < my or lp == my and cls is Implies) or rng.random() < 0.1:
            lt = f"({lt})"
        if rp is not None and (rp < my or rp == my and cls is not Implies) or rng.random() < 0.1:
            rt = f"({rt})"
        return cls(left, right), f"{lt} {token} {rt}", my
    name = rng.choice([n for n in binders
                       if n not in sig.symbols or sig.symbols[n].kind != PREDICATE])
    sort = rng.choice(list(sig.sorts.values()))
    var = Var(name, sort)
    body, text, _ = random_prop_text(rng, sig, depth - 1, {**variables, name: sort},
                                    binders)
    ann = f":{sort}"
    if (name in body._free or sort == sig.default_sort) and rng.random() < 0.5:
        ann = ""  # the parser infers the sort from the variable's first use
    quant = Forall if kind == 5 else Exists
    return quant(var, body), f"{quant.__name__.lower()} {name}{ann} {text}", 0


def check_random_propositions(sig, rng, binders=BINDERS):
    """Parse 200 random propositions back from their texts; return the texts."""
    free = {f"v{s}": sort for s, sort in sig.sorts.items()}
    texts = []
    for _ in range(200):
        p, text, _ = random_prop_text(rng, sig, 5, free, binders)
        assert parse_prop(text, sig) == p, text
        assert parse_prop(str(p), sig) == p, str(p)
        texts.append(text)
    return texts


@pytest.mark.parametrize("name", PRESETS)
def test_random_propositions_parse_back(name):
    check_random_propositions(build(name).sig, random.Random(f"props:{name}"))


@pytest.mark.parametrize("name", PRESETS)
def test_random_propositions_parse_back_beside_skolems_named_like_binders(name):
    # clausifying declares skolem constants x and y and unary skolem
    # functions z and w1, each numbered apart from a rule variable of its
    # name (x1, y1, ... for a second sort); the binders are also drawn from
    # the skolem constants, so a binder x1 shadows the constant x1, a binder
    # w1 shadows the function w1, and w1(..) is still the function
    theory = build(name)
    for sort in list(theory.sig.sorts.values()):
        v = {n: Var(n, sort) for n in ("x", "y", "v", "z", "w1")}
        clausal_form(Exists(v["x"], Exists(v["y"], Forall(v["v"], Exists(
            v["z"], Exists(v["w1"], Top()))))), theory.system, theory.sig)
    skolems = {f"{n}1" if n in theory.system.var_names else n for n in ("x", "y", "z", "w1")}
    assert skolems <= theory.sig.symbols.keys() or not theory.sig.sorts
    constants = sorted(s.name for s in theory.sig.symbols.values()
                       if s.origin == "skolem" and not s.arg_sorts)
    assert bool(constants) == bool(theory.sig.sorts)
    texts = check_random_propositions(theory.sig, random.Random(f"skolem props:{name}"),
                                      (*BINDERS, *constants))
    shadowing = re.compile(rf"\b(forall|exists) ({'|'.join(map(re.escape, constants))})\b")
    assert any(shadowing.search(t) for t in texts) or not theory.sig.sorts


def test_a_printed_binder_is_renamed_apart_from_what_its_body_names():
    arith = load_preset("arith").sig
    nat = arith.sorts["nat"]
    w, x, y = App(arith.individual("w", nat)), Var("x", nat), Var("y", nat)
    eq = arith.lookup("=")
    for p, text in [
        (Exists(x, Atom(eq, (x, w)), hint="w"), "exists w':nat w' = w"),
        (Exists(x, Atom(eq, (x, x)), hint="w"), "exists w:nat w = w"),
        (Forall(x, Exists(y, Atom(eq, (x, y)), hint="x")), "forall x:nat (exists x':nat x = x')"),
        (Forall(x, Exists(y, Atom(eq, (x, w)), hint="w"), hint="w"),
         "forall w':nat (exists w'':nat w' = w)"),
    ]:
        assert (str(p), parse_prop(text, arith)) == (text, p)


@pytest.mark.parametrize("plain, parenthesized", [
    ("p(x) /\\ q", "(p(x) /\\ q)"),
    ("~p(x)", "~(p(x))"),
    ("p(x)", "((p(x)))"),
], ids=["connective", "negation", "atom"])
def test_a_theory_file_declares_predicates_by_use_inside_parentheses(plain, parenthesized):
    expected, parsed = (parse_theory(f"sort i\naxiom {text}\n")
                        for text in (plain, parenthesized))
    assert parsed.axioms == expected.axioms
    assert parsed.sig.symbols == expected.sig.symbols


def test_printed_propositions_5000_levels_deep_parse_back():
    arith = load_preset("arith").sig
    nat = arith.sorts["nat"]
    x = Var("x", nat)
    atom = parse_prop("x = 0", arith, env={"x": nat})
    nested = [atom, atom, atom]
    for _ in range(5000):
        nested = [Forall(x, nested[0]), Not(nested[1]), Implies(Top(), nested[2])]
    for p in nested:
        # a proposition's == recurses, but its hash and its text do not
        back = parse_prop(str(p), arith)
        assert (hash(back), str(back)) == (hash(p), str(p))


def church(sig, n):
    """The hol-sigma Church numeral ``n``: lam(lam((2 (2 ... (2 1)))))."""
    app, lam, idx = sig.lookup("app"), sig.lookup("lam"), sig.numeral
    body = idx(1)
    for _ in range(n):
        body = App(app, (idx(2), body))
    return App(lam, (App(lam, (body,)),))


def test_printed_terms_5000_levels_deep_parse_back():
    arith, sigma = load_preset("arith").sig, load_preset("hol-sigma").sig
    numeral = arith.numeral(5000)
    assert format_term(numeral) == "S(" * 5000 + "0" + ")" * 5000
    for t, sig in [(numeral, arith), (church(sigma, 5000), sigma)]:
        assert parse_term(format_term(t), sig) == t


class TestRunPrinter:
    """``format_term`` prints a run of one-argument applications in one
    step; ``helpers.reference_format_term`` lays out every node on its own.
    Both print every term and proposition alike, byte for byte."""

    def same(self, x, env=None, precs=(0,)):
        """Check both printers alike at each of ``precs``; the text at 0."""
        for prec in precs:
            assert format_term(x, env, prec) == reference_format_term(x, env, prec)
        return format_term(x, env)

    @pytest.mark.parametrize("name", PRESETS + ["cantor:hol-comb", "cantor:hol-sigma"])
    def test_random_terms_and_propositions_print_as_the_reference(self, name):
        theory = build(name)
        sig = theory.sig
        rng = random.Random(f"run printer:{name}")
        variables = {f"{v}{s}": sort for s, sort in sig.sorts.items() for v in ("x", "y")}
        env = {n: n.upper() for n in variables}
        for sort in sig.sorts.values():
            for depth in (5, 8):
                for _ in range(100):
                    t = random_term_of(rng, sig, sort, depth, variables)
                    self.same(t, precs=(0, 9, 99))
                    self.same(t, env)
        # binders named like constants, so some quantifiers are renamed
        constants = tuple(s.name for s in sig.symbols.values()
                          if s.kind != PREDICATE and not s.arg_sorts)
        free = {f"v{s}": sort for s, sort in sig.sorts.items()}
        props = [*theory.axioms, *theory.goals.values(), *(r.rhs for r in theory.system.r_rules)]
        for binders in (BINDERS, BINDERS + constants):
            props += [random_prop_text(rng, sig, 5, free, binders)[0] for _ in range(200)]
        for p in props:
            self.same(p, precs=(0, 9))
            self.same(p, {n: n.upper() for n in free})

    def test_a_numeral_5000_levels_deep(self):
        arith = load_preset("arith").sig
        numeral = arith.numeral(5000)
        assert self.same(numeral, precs=(0, 99)) == "S(" * 5000 + "0" + ")" * 5000
        p = parse_prop("exists x:nat x = 5000", arith)
        assert self.same(p) == "exists x:nat x = " + "S(" * 5000 + "0" + ")" * 5000

    def test_a_run_ending_in_a_variable(self):
        arith = load_preset("arith").sig
        nat, eq, succ = arith.sorts["nat"], arith.lookup("="), arith.lookup("S")
        w = App(arith.individual("w", nat))
        x, y = Var("x", nat), Var("y", nat)

        def s(t, n=2):
            for _ in range(n):
                t = App(succ, (t,))
            return t

        assert self.same(s(x)) == "S(S(x))"
        assert self.same(s(x), {"x": "X"}) == "S(S(X))"
        for p, text in [
            (Forall(x, Atom(eq, (s(x), w)), hint="w"), "forall w':nat S(S(w')) = w"),
            (Forall(x, Exists(y, Atom(eq, (s(x), s(y, 3))), hint="x")),
             "forall x:nat (exists x':nat S(S(x)) = S(S(S(x'))))"),
            (Forall(y, Atom(eq, (s(x), s(y))), hint="x"), "forall x':nat S(S(x)) = S(S(x'))"),
            (Forall(y, Atom(eq, (s(y), w))), "forall y:nat S(S(y)) = w"),
        ]:
            assert (self.same(p, precs=(0, 9)), parse_prop(text, arith)) == (text, p)

    def test_runs_around_an_infix_app_sub_and_brace_node(self):
        arith, sigma, sets = (load_preset(n).sig for n in ("arith", "hol-sigma", "set"))
        texts = {
            arith: ["S(S(x + S(y)))", "S(x * (y + S(S(0))))", "S(S(x) + S(S(y)) * S(0))",
                    "(S(x) + y) * S(S(x * y))"],
            sigma: ["lam(lam((1 lam(1))))", "lam(lam(1)[1 . shift])",
                    "lam(lam(lam(1)[shift @ shift])[id])", "(lam(lam(1)) lam(1))",
                    "lam((lam(1) lam(lam(1))[lam(1) . shift]))"],
            sets: ["union(pow({x, union(y)}))", "pow(union(<x,pow(pow(y))>))",
                   "union({pow(x), union(union(x))})", "union(<pow(x),union(y)>)"],
        }
        for sig, written in texts.items():
            env = {"x": sig.default_sort, "y": sig.default_sort}
            for text in written:
                assert self.same(parse_term(text, sig, dict(env)), precs=(0, 99)) == text
        # a one-argument symbol of another display is laid out as before
        sig = small_signature()
        u = sig.sorts["u"]
        for display in ("infix", "sub", "brace", "cons"):
            h = sig.function(f"h_{display}", (u,), u, display=display)
            t = App(h, (App(sig.lookup("g"), (App(h, (App(sig.lookup("a")),)),)),))
            assert self.same(t, precs=(0, 99)) == f"h_{display}(g(h_{display}(a)))"

    def test_a_lam_chain_in_hol_sigma(self):
        sigma = load_preset("hol-sigma").sig
        lam = sigma.lookup("lam")
        for body, text in [(church(sigma, 3), "lam(lam((1[shift] (1[shift] (1[shift] 1)))))"),
                           (sigma.numeral(1), "1"), (sigma.numeral(3), "1[shift @ shift]")]:
            t = body
            for _ in range(3000):
                t = App(lam, (t,))
            assert self.same(t) == "lam(" * 3000 + text + ")" * 3000
            assert parse_term(self.same(t), sigma) == t

    def test_a_hint_that_names_the_foot_of_a_run_is_renamed(self):
        arith = load_preset("arith").sig
        nat, eq, succ = arith.sorts["nat"], arith.lookup("="), arith.lookup("S")
        w = App(arith.individual("w", nat))
        x = Var("x", nat)
        deep = w
        for _ in range(1000):
            deep = App(succ, (deep,))
        p = Exists(x, Atom(eq, (x, deep)), hint="w")
        assert self.same(p) == "exists w':nat w' = " + "S(" * 1000 + "w" + ")" * 1000
        assert parse_prop(str(p), arith) == p
        # a unary symbol is no constant: a hint naming it is kept
        q = Exists(x, Atom(eq, (x, deep)), hint="S")
        assert self.same(q).startswith("exists S:nat S = S(S(")
        # the quantifier marked is the one whose body holds the run
        r = And(q, Forall(x, Atom(eq, (x, App(succ, (x,)))), hint="w"))
        assert self.same(r).endswith(" /\\ (forall w:nat w = S(w))")


# one line per directive: theory, use, sort, const, fun, pred, display, E, R,
# rule, eta, subset, axiom and goal
THEORY = """\
theory demo
use set
sort term
sort subst
const 1 : term
const id : subst
const shift : subst
const d : set
fun app : (term, term) -> term
fun lam : (term) -> term
fun sub : (term, subst) -> term
fun + : (set, set) -> set
pred eps : (term)
display app app
display sub sub
E sigma_id: sub(a, id) -> a
R eps_lam: eps(lam(a)) -> eps(a)
rule k: app(app(1, a), b) -> a
eta
subset diag(r, w) : forall y (<w, y> in r => ~(w in y))
axiom forall x:set exists y:set x in y + d
goal g : forall x:set x in d
"""


def hand_built():
    theory = load_preset("set")
    sig = theory.sig
    st, term, subst = sig.sorts["set"], sig.declare_sort("term"), sig.declare_sort("subst")
    one = sig.individual("1", term)
    ident = sig.individual("id", subst)
    shift = sig.individual("shift", subst)
    d = App(sig.individual("d", st))
    app = sig.function("app", (term, term), term, display="app")
    lam = sig.function("lam", (term,), term)
    sub = sig.function("sub", (term, subst), term, display="sub")
    plus = sig.function("+", (st, st), st, display="infix")
    eps = sig.predicate("eps", (term,))
    member = sig.lookup("in")
    a, b = Var("a", term), Var("b", term)
    theory.system = theory.system.extend([
        RewriteRule("sigma_id", App(sub, (a, App(ident))), a),
        RewriteRule("eps_lam", Atom(eps, (App(lam, (a,)),)), Atom(eps, (a,))),
        RewriteRule("k", App(app, (App(app, (App(one), a)), b)), a),
        EtaRule("eta", lam, app, sub, shift, one, term),
    ])
    r, w, x, y = Var("r", st), Var("w", st), Var("x", st), Var("y", st)
    declare_subset_symbol(theory, [r], w, Forall(y, Implies(
        Atom(member, (pair_term(sig, w, y), r)), Not(Atom(member, (w, y))))), name="diag")
    theory.name = "demo"
    theory.axioms = [Forall(x, Exists(y, Atom(member, (x, App(plus, (y, d))))))]
    theory.goals = {"g": Forall(x, Atom(member, (x, d)))}
    return theory


def test_a_theory_file_builds_the_preset_its_directives_describe():
    parsed, expected = parse_theory(THEORY), hand_built()
    assert (parsed.name, parsed.default_strategy) == (expected.name, expected.default_strategy)
    assert parsed.sig.sorts == expected.sig.sorts
    assert parsed.sig.default_sort == expected.sig.default_sort
    assert parsed.sig.symbols == expected.sig.symbols
    assert ({n: s.display for n, s in parsed.sig.symbols.items()}
            == {n: s.display for n, s in expected.sig.symbols.items()})
    assert parsed.sig.app_symbols == expected.sig.app_symbols
    assert parsed.system.rules == expected.system.rules
    assert parsed.comprehensions == expected.comprehensions
    assert parsed.axioms == expected.axioms
    assert parsed.goals == expected.goals


@pytest.mark.parametrize("text, strategy", [
    ("sort s\npred in : (s, s)\n", prover.ON_THE_FLY),
    ("sort s\npred in : (s, s)\nsubset e(w) : ~(w in w)\n", prover.ON_THE_FLY),
    ("sort s\nfun f : (s) -> s\nE f(f(x)) -> x\n", prover.FREEZE),
    ("sort s\npred in : (s, s)\nfun f : (s) -> s\nE f(f(x)) -> x\n"
     "subset e(w) : ~(w in w)\n", prover.FREEZE),
])
def test_a_file_that_names_no_preset_freezes_exactly_when_it_has_e_rules(text, strategy):
    assert parse_theory(text).default_strategy == strategy


NAT_BESIDE_S = """sort s
sort nat
const 0 : nat
fun + : (nat, nat) -> nat
"""

SUB_BESIDE_SET = """use set
sort term
sort subst
const id : subst
fun sub : (term, subst) -> term
display sub sub
"""


@pytest.mark.parametrize("header, text, sort", [
    (NAT_BESIDE_S, "x + 0 -> x", "nat"),
    (NAT_BESIDE_S, "x * y + x -> x", "nat"),
    (SUB_BESIDE_SET, "x[id] -> x", "term"),
    (SUB_BESIDE_SET, "sub(x, id) -> x", "term"),
])
def test_a_variable_left_of_an_operator_takes_the_operators_argument_sort(
        header, text, sort):
    # the theory's default sort, s or set, is not the operator's
    if "*" in text:
        header += "fun * : (nat, nat) -> nat\n"
    theory = parse_theory(header + f"E r: {text}\n")
    (rule,) = theory.system.e_rules
    var = Var("x", theory.sig.sorts[sort])
    assert rule.rhs == var
    assert rule.lhs.args[0] == var or rule.lhs.args[0].args[0] == var


def test_a_trace_declares_the_skolems_of_its_run():
    theory = parse_theory(THEORY)
    report = cli.run_prove(theory, theory.goals["g"],
                           prover.ProverConfig(strategy=prover.ON_THE_FLY, max_clauses=50))
    reader = parse_theory(THEORY).sig
    parse_trace(report.trace, reader)
    skolems = {n: s for n, s in theory.sig.symbols.items() if s.origin == "skolem"}
    assert {s.kind for s in skolems.values()} == {"individual", "function"}
    assert {n: s for n, s in reader.symbols.items() if s.origin == "skolem"} == skolems


@pytest.mark.parametrize("parse, text, token", [
    (parse_substitution, "x := S(0)\nx := S(0) 0 garbage\n", "0"),
    (parse_constraints, "x + 0 = 1\nx + 0 = 1 )\n", ")"),
    (parse_substitution, "# a comment\n\n   x := 0 )\n", ")"),
], ids=["solution", "constraints", "after-comment-and-blank"])
def test_constraint_and_solution_files_report_errors_where_they_are(parse, text, token):
    # each file's last line holds the offending token at column 11
    theory = load_preset("arith")
    with pytest.raises(ParseError) as err:
        parse(text, theory.sig, {"x": theory.sig.sorts["nat"]})
    lines = text.splitlines()
    assert (err.value.line, err.value.col) == (len(lines), 11)
    assert lines[-1][10] == token


def test_a_theory_file_counts_comment_and_blank_lines():
    with pytest.raises(ParseError) as err:
        parse_theory("# a comment\n\nsort s\nbogus x\n")
    assert err.value.line == 4


@pytest.mark.parametrize("text, where", [
    ("sort s\npred P : (s)\naxiom forall x:s P(x) )\n", (3, 23)),
    ("sort s\npred P : (s)\n  goal g :  P(x) )\n", (3, 18)),
    ("sort s\npred P : (s) )\n", (2, 14)),
    ("sort s\nconst a : s\nfun f : (s) -> s\nE r: f(a) -> a )\n", (4, 16)),
    ("sort s\naxiom forall x:s P(x $\n", (2, 22)),
    ("sort s\n   display s bold\n", (2, 4)),
], ids=["axiom", "goal", "declaration", "rule", "character", "directive"])
def test_a_theory_file_reports_each_error_once_where_it_is(text, where):
    # a directive's body is tokenized at its place in the file, so an error
    # inside it names the offending token; one about the whole directive
    # names where the directive begins
    with pytest.raises(ParseError) as err:
        parse_theory(text)
    assert (err.value.line, err.value.col) == where
    assert str(err.value).endswith(f" (line {where[0]}, column {where[1]})")
    assert str(err.value).count("(line ") == 1


@pytest.mark.parametrize("text, col, error", [
    ("eps(lam(id))", 5, "argument 1 of lam has sort subst, but sort term is needed here"),
    ("eps(id)", 1, "argument 1 of eps has sort subst, but sort term is needed here"),
    ("d in 1", 3, "argument 2 of in has sort term, but sort set is needed here"),
    ("d in d + 1", 8, "argument 2 of + has sort term, but sort set is needed here"),
    ("eps(1[id . shift])", 10, "argument 1 of cons has sort subst, but sort term is needed here"),
], ids=["function", "prefix-predicate", "infix-predicate", "operator", "cons"])
def test_an_ill_sorted_application_is_reported_at_its_symbol(text, col, error):
    sig = parse_theory(THEORY + "fun cons : (term, subst) -> subst\ndisplay cons cons\n").sig
    with pytest.raises(ParseError) as err:
        parse_prop(text, sig)
    assert (err.value.message, err.value.col) == (error, col)


@pytest.mark.parametrize("text, where", [
    ("x y := 0\n", (1, 3)),
    ("0 := S(0)\n", (1, 1)),
    ("S(x) := 0\n", (1, 1)),
    ("\n  := 0\n", (2, 3)),
    ("forall := 0\n", (1, 1)),
    ("x := 0\n# again\n x := S(0)\n", (3, 2)),
], ids=["two-names", "numeral", "application", "no-name", "keyword", "bound-twice"])
def test_a_solution_binds_each_variable_once_by_name(text, where):
    theory = load_preset("arith")
    with pytest.raises(ParseError) as err:
        parse_substitution(text, theory.sig)
    assert (err.value.line, err.value.col) == where
