"""Parser tests: what the kernel prints, the parser reads back; a theory file
builds the preset that its directives describe; constraint and solution
files report parse errors where they are in the file."""

import random

import pytest

from resmod import cli, prover
from resmod.kernel import (
    PREDICATE,
    App,
    Atom,
    Exists,
    Forall,
    Implies,
    Not,
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

from helpers import hol_cantor

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
    (name to sort) of that sort."""
    symbols = [s for s in sig.symbols.values() if s.kind != PREDICATE and s.result == sort]
    names = [n for n, s in variables.items() if s == sort]
    compound = [s for s in symbols if s.arg_sorts]
    if depth == 0 or not compound or rng.random() < 0.3:
        leaves = [s for s in symbols if not s.arg_sorts]
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
    sig.app_symbols = ("app", "sub")
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
