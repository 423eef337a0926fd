"""Prover tests: duplicate detection in the redundancy filter, the narrowing
filter, the proof slice of a search, the traces of the refutation gate and
of on-the-fly searches, the propagations on the fly, the atom ordering and
the literals it leaves eligible, the clause index against the checks it
prefilters, ground subsumption against a literal-mapping oracle, the
duplicate key against a variant oracle and against the canonical variants
of a reference, and saturation against a truth
table, on ground clauses and, through Herbrand's theorem, on function-free
ones."""

import collections
import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from resmod import cli, kernel, prover, theories, unify
from resmod.clausal import ConstrainedClause, Constraint, Literal, Provenance
from resmod.kernel import (And, App, Atom, Bottom, Exists, Forall, Not, Or, Signature,
                           Substitution, Var, format_term, free_names, free_vars,
                           rename_apart, subst_term)
from resmod.parser import parse_prop, parse_term_or_atom
from resmod.prover import (
    ClauseIndex,
    _guided,
    atom_key,
    clause_key,
    eligible,
    extended_resolution,
    factor,
    key_greater,
    narrowing_applicable,
    redundancy_filter,
    subsumes,
)
from resmod.rewrite import RewriteRule, RewriteSystem, match, normalize
from resmod.unify import propagate_on_the_fly, unify_syntactic

from helpers import (canonical_variant, clause_variant, hol_cantor, maps_onto,
                     multiset_subsumes, random_arith_term, random_comb_spine, random_sig_term,
                     random_sigma_term, random_term, reference_process_new, reference_propagate,
                     reference_resolve, small_signature, solve_syntactic, truth_table)

SRC = Path(__file__).resolve().parents[1] / "src"


def numbered(clauses, start: int = 1) -> list[ConstrainedClause]:
    """Copies of ``clauses`` numbered from ``start`` as input clauses, as a
    search numbers the clauses it keeps."""
    return [ConstrainedClause(c.literals, c.constraints, id=i, provenance=Provenance("input"))
            for i, c in enumerate(clauses, start=start)]


# a freeze search of chain_axioms(n), whose clauses are propositional, so
# ground subsumption finds their duplicates
CHAIN_AXIOMS_FREEZE = """
import hashlib
from resmod import cli, kernel, prover, rewrite, theories
sig, axioms = theories.chain_axioms(7)
theory = theories.TheoryPreset("chain_axioms(7)", sig, rewrite.RewriteSystem(()), axioms)
report = cli.run_prove(theory, kernel.Bottom(), prover.ProverConfig(strategy=prover.FREEZE))
print(report.verdict, report.result.stats.generated,
      hashlib.sha256(report.trace.encode()).hexdigest())
"""

# on the fly, P(X) keeps its constraint X + 0 = 3 frozen, since only the
# E-rules solve it, and carries it through narrowing to the gate
NARROW_FROZEN_ON_THE_FLY = """
import hashlib
from resmod import cli, prover, theories
theory = theories.parse_theory_file(
    "use arith\\npred P : (nat)\\npred Q : (nat)\\nR pq: P(S(y)) -> Q(y)\\n"
    "axiom forall x:nat (x + 0 = 3 => P(x))\\ngoal q2 : Q(2)\\n")
report = cli.run_prove(theory, theory.goals["q2"], prover.ProverConfig(strategy=prover.ON_THE_FLY))
print(report.verdict, report.result.stats.generated,
      hashlib.sha256(report.trace.encode()).hexdigest())
"""


# on the fly, resolution partners come from an index of the selected
# clauses that iterates dicts
SET_CANTOR_ON_THE_FLY = """
import hashlib
from resmod import cli, prover, theories
theory = theories.load_preset("set-cantor")
report = cli.run_prove(theory, theory.goals["cantor"], prover.ProverConfig(strategy=prover.ON_THE_FLY))
print(report.verdict, report.result.stats.generated,
      hashlib.sha256(report.trace.encode()).hexdigest())
"""


# the gate takes the empty clause's constraints in the order of their text,
# so its narrowing makes as many syntactic unifications at every hash seed:
# those of its states, by unify_terms, and those of its compiled narrowing
# steps, counted apart
HOL_CANTOR_GATE_UNIFICATIONS = """
from resmod import cli, kernel, prover, theories, unify
theory = theories.load_preset("hol-comb")
theory.sig.individual("f", theory.sig.sorts["term"])
theory.sig.individual("g", theory.sig.sorts["term"])
theory.axioms = [theories.surjection_axiom(theory.sig)]
calls, steps = [], []
unify_terms = unify.unify_terms
unify.unify_terms = lambda *args: calls.append(args) or unify_terms(*args)
rules, _ = theory.system.narrowing
def counted(rule):
    def step(sub, first):
        steps.append(not unify._clash(sub, rule.lhs, frozenset()))
        return rule.step(sub, first)
    return step
for root, filed in rules.items():
    rules[root] = tuple(r._replace(step=counted(r)) for r in filed)
report = cli.run_prove(theory, kernel.Bottom(),
                       prover.ProverConfig(strategy=prover.FREEZE, narrow_states=50))
print(report.verdict, report.result.stats.generated, len(calls), sum(steps), len(steps))
"""


# HOL Cantor's gate makes 144 unifications: 94 by unify_terms, at each state
# it examines one per equation up to the first that fails, and 50 in its
# narrowing steps, one per step that passes the clash test of the 119 steps
# it takes at positions whose root has a rule
@pytest.mark.parametrize("script, verdict, unifications", [
    (CHAIN_AXIOMS_FREEZE, "PROVED", None), (NARROW_FROZEN_ON_THE_FLY, "PROVED", None),
    (SET_CANTOR_ON_THE_FLY, "PROVED", None),
    (HOL_CANTOR_GATE_UNIFICATIONS, "PROVED_UNVERIFIED", (94, 50, 119)),
], ids=["chain_axioms-freeze", "narrow-frozen-onfly", "set-cantor-onfly",
        "hol-cantor-gate-unifications"])
def test_traces_with_frozen_constraints_do_not_depend_on_the_hash_seed(
        script, verdict, unifications):
    outputs = set()
    for seed in range(4):
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1, outputs
    fields = outputs.pop().split()
    assert fields[0] == verdict
    if unifications is not None:
        assert tuple(map(int, fields[2:])) == unifications


def test_a_variable_is_not_a_duplicate_of_a_same_named_constant():
    sig = Signature()
    u = sig.declare_sort("u")
    p = sig.predicate("P", (u,))
    r = sig.predicate("R", (u, u))
    v0, x, y = App(sig.individual("v0", u)), Var("X", u), Var("Y", u)
    index = ClauseIndex()
    for cid, kept in enumerate((ConstrainedClause([Literal(True, Atom(p, (v0,)))]),
                                ConstrainedClause([Literal(True, Atom(r, (v0, y)))])), 1):
        assert redundancy_filter(kept, index) == (True, None)
        index.note_kept(*numbered([kept], cid))
    # neither kept clause, each a forward-subsumption candidate, subsumes:
    # a constant of the subsumer matches only itself
    assert redundancy_filter(ConstrainedClause([Literal(True, Atom(p, (x,)))]),
                             index) == (True, None)
    assert redundancy_filter(ConstrainedClause([Literal(True, Atom(r, (x, y)))]),
                             index) == (True, None)
    # the key compares terms structurally, and a variable never equals a
    # constant, whatever their names; nor can a symbol take the name ?n of
    # a variable of the canonical variant
    with pytest.raises(ValueError):
        sig.individual("?0", u)


@pytest.mark.parametrize("atom, on_the_fly, freeze", [
    ("a in {b, c}", True, True),
    ("X in Y", False, True),
    ("a in Y", False, True),
    ("X in {b, c}", True, True),
    ("a in union(b)", False, False),
])
def test_narrowing_applicable_guesses_under_freeze_only(atom, on_the_fly, freeze):
    theory = theories.load_preset("set")
    for name in "abc":
        theory.sig.individual(name, theory.sig.sorts["set"])
    pair = next(r for r in theory.system.r_rules if r.name == "pair")
    a = parse_term_or_atom(atom, theory.sig)
    lhs = pair.rename_for(free_names(a)).lhs
    assert (narrowing_applicable(a, pair) and _guided(a, lhs)) is on_the_fly
    assert narrowing_applicable(a, pair) is freeze


def test_proof_steps_is_the_ancestor_slice_of_the_empty_clause():
    theory = theories.load_preset("arith")
    goal = Not(theory.goals["double"])
    result = prover.saturate(theory.axioms + [goal], theory.system, theory.sig,
                             prover.ProverConfig(strategy=prover.FREEZE))
    steps = result.proof_steps()
    assert result.verdict == prover.PROVED
    assert steps[-1] is result.empty_clause and steps[-1].is_empty()
    ids = [s.id for s in steps]
    assert ids == sorted(set(ids))
    assert all(p in ids for s in steps for p in s.provenance.parents)


# sha256 of each trace; the same at PYTHONHASHSEED 0-5
GATE_TRACES = {
    "double": "e5527bdd8125314e6c1d3a85c8b79ad6653055430fb1fb2fe9a4de42243a12e2",
    "exists x:nat (x * x = 4)":
        "110e033d10cff6792e7f0cf72fa2a8b39180156b00df6eabcf77056337a98a6d",
    "exists x:nat (x * x = 9)":
        "42ffb8ea8229927ca21dbfe4883563706372f0a66886daa4f0baa9da372f3810",
    "exists x:nat x = 300": "be82727ed8811fc216ec7be97dc83529057b8f3ac8d430e21d6d76878b0e86ac",
    "hol-comb": "cd95b63baca1f1f6cf9b5fddc79e6034d6f5afc373e29b442042ba2171eb5d35",
    "hol-sigma": "cb345487f8b6391d285025add2f0a814155366cf091303bf1928265a94ed4e3d",
}


@pytest.mark.parametrize("problem", sorted(GATE_TRACES))
def test_the_gate_leaves_the_trace_unchanged(problem):
    # the searches end at the refutation gate, so its narrowing decides the
    # verdict and the solution printed
    if problem.startswith("hol-"):
        theory, goal = hol_cantor(problem), Bottom()
        cfg = prover.ProverConfig(strategy=prover.FREEZE, narrow_states=300)
    else:
        theory = theories.load_preset("arith")
        goal = theory.goals.get(problem) or parse_prop(problem, theory.sig)
        cfg = prover.ProverConfig(strategy=prover.FREEZE)
    trace = cli.run_prove(theory, goal, cfg).trace
    assert hashlib.sha256(trace.encode()).hexdigest() == GATE_TRACES[problem]


def test_hol_cantor_under_the_default_bounds_spends_the_whole_state_budget():
    # the gate stops at the default state budget, not the depth bound, and
    # the search ends at the same empty clause as with 300 states
    report = cli.run_prove(hol_cantor("hol-comb"), Bottom(),
                           prover.ProverConfig(strategy=prover.FREEZE))
    assert hashlib.sha256(report.trace.encode()).hexdigest() == GATE_TRACES["hol-comb"]
    assert "exhausted: narrow_states (4000 states)" in report.summary().splitlines()


@pytest.mark.parametrize("strategy", [prover.FREEZE, prover.ON_THE_FLY])
def test_the_gate_narrows_inside_a_term_nested_beyond_the_recursion_limit(strategy):
    # exists x. x * S^1100(x + 0) = 0, built here because the parser cannot
    # nest 1,100 levels; x := 0 solves it at the gate's first level, whose
    # steps narrow at every basic position, x + 0 1,101 levels down included
    theory = theories.load_preset("arith")
    sig = theory.sig
    x = Var("x", sig.sorts["nat"])
    deep = App(sig.lookup("+"), (x, sig.numeral(0)))
    for _ in range(1100):
        deep = App(sig.lookup("S"), (deep,))
    goal = Exists(x, Atom(sig.lookup("="), (App(sig.lookup("*"), (x, deep)), sig.numeral(0))))
    result = prover.saturate([*theory.axioms, Not(goal)], theory.system, sig,
                             prover.ProverConfig(strategy=strategy))
    assert result.verdict == prover.PROVED


# verdict, generated clauses and sha256 of each trace of an on-the-fly
# search; the same at PYTHONHASHSEED 0 and 3
ON_THE_FLY_TRACES = {
    "set-cantor": ("PROVED", 734,
                   "4ef8aa7d217317d525ca55f3265b986ab7ac6501dfe8c4b1cccb1048891a670d"),
    "chain_axioms(12)": ("PROVED", 75,
                         "c79f49d60f2f75cc7da83851692230302af5c42837b0d67c7152e5954d687bad"),
}


def on_the_fly_search(problem: str):
    """The theory, goal and configuration of a search of
    ``ON_THE_FLY_TRACES``."""
    if problem == "set-cantor":
        theory = theories.load_preset("set-cantor")
        goal = theory.goals["cantor"]
    else:
        sig, axioms = theories.chain_axioms(12)
        theory = theories.TheoryPreset(problem, sig, RewriteSystem(()), axioms)
        goal = Bottom()
    return theory, goal, prover.ProverConfig(strategy=prover.ON_THE_FLY)


@pytest.mark.parametrize("problem", sorted(ON_THE_FLY_TRACES))
def test_the_on_the_fly_loop_leaves_the_trace_unchanged(problem):
    # constraint-free clauses skip propagation, and resolution partners come
    # from the index of selected clauses
    report = cli.run_prove(*on_the_fly_search(problem))
    digest = hashlib.sha256(report.trace.encode()).hexdigest()
    assert (report.verdict, report.result.stats.generated, digest) == ON_THE_FLY_TRACES[problem]


@pytest.mark.parametrize("preset, calls, failed, generated", [
    ("hol-comb", 44, 6, 92),
    ("hol-sigma", 60, 7, 133),
])
def test_on_the_fly_does_not_propagate_constraints_known_to_fail(
        preset, calls, failed, generated, monkeypatch):
    # a kept clause carries constraints only when they have no syntactic
    # unifier, so the clauses derived from it skip the attempt; re-trying
    # made 90 calls (52 failed) on hol-comb and 131 (78) on hol-sigma
    outcomes = []
    propagate = prover.propagate_on_the_fly
    monkeypatch.setattr(prover, "propagate_on_the_fly",
                        lambda *args: outcomes.append(propagate(*args)) or outcomes[-1])
    report = cli.run_prove(hol_cantor(preset), Bottom(),
                           prover.ProverConfig(strategy=prover.ON_THE_FLY, narrow_states=300))
    assert (report.verdict, report.result.stats.generated) == ("PROVED_UNVERIFIED", generated)
    assert (len(outcomes), outcomes.count(None)) == (calls, failed)


# verdict, generated clauses, narrowing steps and sha256 of each trace of a
# search whose narrowing passes the root-clash filter (freeze's guesses
# included); the same at PYTHONHASHSEED 0, 3 and 5; a search that runs out
# of clauses does not count the clause that would break the budget
NARROWING_FILTER_TRACES = {
    ("integral-rings", prover.FREEZE): (
        "PROVED", 7, 2, "18d5d5c87e00e59ccfbd88398ef20e73a1622f83487887f3c3381e984ced66b0"),
    ("integral-rings", prover.ON_THE_FLY): (
        "PROVED", 4, 1, "01ed09c7f4c8e6512ec1ca5ab2cd4983398417a10dbf370d88a5f3f7c67f7711"),
    ("set-cantor", prover.FREEZE): (
        "RESOURCE_OUT", 306, 35,
        "b8aae5dd83b34e72328f586f8ade1ba354cea2db3770e4cdacfb2a47737ea601"),
}


def narrowing_filter_search(preset: str, strategy: str):
    """The theory, goal and configuration of a search of
    ``NARROWING_FILTER_TRACES``."""
    theory = theories.load_preset(preset)
    goal = theory.goals["square_zero" if preset == "integral-rings" else "cantor"]
    return theory, goal, prover.ProverConfig(
        strategy=strategy, max_clauses=300 if preset == "set-cantor" else 5_000)


@pytest.mark.parametrize("preset, strategy", sorted(NARROWING_FILTER_TRACES))
def test_the_narrowing_filter_leaves_the_trace_unchanged(preset, strategy):
    report = cli.run_prove(*narrowing_filter_search(preset, strategy))
    digest = hashlib.sha256(report.trace.encode()).hexdigest()
    stats = report.result.stats
    assert (report.verdict, stats.generated, stats.steps["narrowing"],
            digest) == NARROWING_FILTER_TRACES[preset, strategy]


@pytest.mark.parametrize("search", [
    *(pytest.param(on_the_fly_search(p), id=p) for p in sorted(ON_THE_FLY_TRACES)),
    *(pytest.param(narrowing_filter_search(*k), id="-".join(k))
      for k in sorted(NARROWING_FILTER_TRACES)),
])
def test_registration_numbers_each_fresh_clause_in_place_once(search, monkeypatch):
    """``register`` numbers the clause it is handed in place, so it must be
    handed only fresh ones: none already numbered, none twice.  The kept
    clauses are then distinct objects, each numbered with its position."""
    handed = []
    register = prover._Saturation.register

    def checked(self, c, *args):
        assert c.id is None, c
        handed.append(c)
        return register(self, c, *args)

    monkeypatch.setattr(prover._Saturation, "register", checked)
    steps = cli.run_prove(*search).result.steps
    assert len(set(map(id, handed))) == len(handed) >= len(steps)
    assert len(set(map(id, steps))) == len(steps)
    assert [s.id for s in steps] == list(range(1, len(steps) + 1))
    assert all(p < s.id for s in steps for p in s.provenance.parents)


# ---------------------------------------------------------------------------
# The atom ordering is a strict order, total on ground atoms and stable, and
# a clause that selects nothing keeps only its maximal literals
# ---------------------------------------------------------------------------

# each signature's draw of a random term of a sort, and the sort its atoms
# take arguments of
ORDERING_SIGNATURES = {
    "first-order": (lambda rng, sig, sort: random_term(rng, sig, 3), "u"),
    "arith": (lambda rng, sig, sort: random_arith_term(rng, sig, 3), "nat"),
    "hol-comb": (lambda rng, sig, sort: random_comb_spine(rng, sig, 3), "term"),
    "hol-sigma": (lambda rng, sig, sort: random_sigma_term(rng, sig, 3, sort), "term"),
}


def ordering_atoms(name: str, rng: random.Random):
    """30 random atoms and 30 random ground atoms over the signature
    ``name``, with a unary ``P1`` and a binary ``P2`` declared on it; and a
    draw of a random ground term of a sort."""
    draw, sort = ORDERING_SIGNATURES[name]
    sig = small_signature() if name == "first-order" else theories.load_preset(name).sig
    s = sig.sorts[sort]
    preds = [sig.predicate("P1", (s,)), sig.predicate("P2", (s, s))]

    def ground_term(sort_name: str):
        while free_names(t := draw(rng, sig, sort_name)):
            pass
        return t

    def atom(term):
        pred = rng.choice(preds)
        return Atom(pred, tuple(term(sort) for _ in pred.arg_sorts))

    atoms = [atom(lambda sort: draw(rng, sig, sort)) for _ in range(30)]
    return atoms + [atom(ground_term) for _ in range(30)], ground_term


def ground_instance(atom: Atom, ground_term) -> Atom:
    return Substitution({v.name: ground_term(str(v.sort)) for v in free_vars(atom)})(atom)


@pytest.mark.parametrize("name", sorted(ORDERING_SIGNATURES))
def test_the_atom_ordering_is_a_strict_order_total_on_ground_atoms(name):
    atoms, _ = ordering_atoms(name, random.Random(f"ordering:{name}"))
    keys = [atom_key(a) for a in atoms]
    greater = {i: {j for j, b in enumerate(keys) if key_greater(a, b)}
               for i, a in enumerate(keys)}
    chains = 0
    for i, below in greater.items():
        assert i not in below, atoms[i]
        for j in below:
            assert greater[j] <= below, (atoms[i], atoms[j])
            chains += len(greater[j])
    assert chains >= 10_000
    ground = [i for i, a in enumerate(atoms) if not free_names(a)]
    for i, j in itertools.combinations(ground, 2):
        if atoms[i] != atoms[j]:
            assert (j in greater[i]) != (i in greater[j]), (atoms[i], atoms[j])


@pytest.mark.parametrize("name", sorted(ORDERING_SIGNATURES))
def test_the_atom_ordering_is_stable_under_ground_substitutions(name):
    rng = random.Random(f"ordering:{name}")
    atoms, ground_term = ordering_atoms(name, rng)
    pairs = 0
    for a, b in itertools.permutations(atoms, 2):
        if key_greater(atom_key(a), atom_key(b)) and free_names(b):
            pairs += 1
            for _ in range(3):
                both = ground_instance(Or(a, b), ground_term)
                assert key_greater(atom_key(both.left), atom_key(both.right)), (a, b, both)
    assert pairs >= 40


def ordering_clause_signature() -> Signature:
    """Sort ``u`` with ``a``, ``f(u, u)`` and the predicates ``p(u)``,
    ``q(u, u)`` and ``r(u)``."""
    sig = Signature()
    u = sig.declare_sort("u")
    sig.individual("a", u)
    sig.function("f", (u, u), u)
    for name, arity in (("p", 1), ("q", 2), ("r", 1)):
        sig.predicate(name, (u,) * arity)
    return sig


@pytest.mark.parametrize("name", sorted(ORDERING_SIGNATURES))
def test_a_ground_positive_clause_keeps_its_largest_literal_alone(name):
    rng = random.Random(f"eligible:{name}")
    atoms, _ = ordering_atoms(name, rng)
    ground = list(dict.fromkeys(a for a in atoms if not free_names(a)))
    for _ in range(50):
        c = ConstrainedClause(Literal(True, a) for a in rng.sample(ground, rng.randint(2, 4)))
        keys = [atom_key(lit.atom) for lit in c.literals]
        largest = [i for i, k in enumerate(keys)
                   if all(key_greater(k, o) for o in keys if o is not k)]
        assert len(largest) == 1 and tuple(eligible(c)) == tuple(largest), c
        assert factor(c) == [], c


def test_a_positive_clause_keeps_the_literals_no_other_one_exceeds():
    sig = ordering_clause_signature()
    assert tuple(eligible(parse_clause(sig, "q(X, Y)", "p(X)"))) == (0,)
    both = parse_clause(sig, "p(X)", "p(Y)")
    assert tuple(eligible(both)) == (0, 1)
    assert len(factor(both)) == 1
    # p(X) and p(Y) unify, but q(f(X, Y), a) exceeds both
    assert tuple(eligible(parse_clause(sig, "p(X)", "p(Y)", "q(f(X, Y), a)"))) == (2,)


def test_ground_atoms_are_printed_to_be_ordered_only_on_a_tie(monkeypatch):
    # the atom ordering reads a ground atom's text only when the weights and
    # the predicates of two different atoms tie
    sig = ordering_clause_signature()
    clauses = [(parse_clause(sig, *literals), largest) for literals, largest in [
        (("p(a)", "q(a, a)"), (1,)),
        (("p(f(a, a))", "r(f(a, a))"), (1,)),
        (("r(f(a, a))", "q(a, a)", "p(f(a, f(a, a)))"), (2,)),
        # a tie, which the text decides
        (("p(f(a, f(a, a)))", "p(f(f(a, a), a))"), (1,)),
    ]]
    printed = []

    def spy(x, *args):
        text = format_term(x, *args)
        printed.append(text)
        return text

    monkeypatch.setattr(kernel, "format_term", spy)
    for c, largest in clauses[:3]:
        assert tuple(eligible(c)) == largest
    assert printed == []
    c, largest = clauses[3]
    assert tuple(eligible(c)) == largest
    # each atom is compared with the other, never with itself
    assert printed == ["p(f(f(a, a), a))", "p(f(a, f(a, a)))",
                       "p(f(a, f(a, a)))", "p(f(f(a, a), a))"]


def test_a_clause_under_a_rule_or_with_constraints_keeps_every_literal():
    sig = ordering_clause_signature()
    clause = parse_clause(sig, "p(X)", "p(Y)", "q(f(X, Y), a)")
    constrained = ConstrainedClause(clause.literals,
                                    [Constraint(Var("X", sig.sorts["u"]), App(sig.lookup("a")))])
    assert tuple(eligible(constrained)) == (0, 1, 2)
    assert tuple(eligible(clause, select=False)) == (0, 1, 2)
    # with a rule in the system the loop factors p(X) and p(Y); without,
    # q(f(X, Y), a) alone is eligible and the clause saturates unfactored
    x, y = Var("x", sig.sorts["u"]), Var("y", sig.sorts["u"])
    prop = Forall(x, Forall(y, parse_prop("p(x) \\/ p(y) \\/ q(f(x, y), a)", sig,
                                          env={"x": x.sort, "y": y.sort})))
    rule = RewriteRule("rp", parse_term_or_atom("r(X)", sig, {"X": x.sort}),
                       parse_term_or_atom("p(X)", sig, {"X": x.sort}))
    for strategy in (prover.FREEZE, prover.ON_THE_FLY):
        cfg = prover.ProverConfig(strategy=strategy)
        for rules, factorings in (((), 0), ((rule,), 1)):
            result = prover.saturate([prop], RewriteSystem(rules), sig.copy(), cfg)
            assert result.verdict == prover.SATURATED
            assert result.stats.steps["factoring"] == factorings


# ---------------------------------------------------------------------------
# The clause index passes on every clause the checks it prefilters can accept
# ---------------------------------------------------------------------------


def ground_cnf(n: int, clauses) -> tuple[Signature, list[ConstrainedClause]]:
    """Clauses over the nullary predicates A0..A(n-1); each clause of
    ``clauses`` is a tuple of (atom number, polarity)."""
    sig = Signature()
    preds = [sig.predicate(f"A{i}", ()) for i in range(n)]
    return sig, [ConstrainedClause([Literal(pos, Atom(preds[a])) for a, pos in clause])
                 for clause in clauses]


def random_ground_cnf(rng: random.Random, n: int, m: int, widths=(1, 2, 3)):
    return [tuple((a, rng.random() < 0.5) for a in rng.sample(range(n), rng.choice(widths)))
            for _ in range(m)]


def random_first_order_clauses(rng: random.Random, m: int) -> list[ConstrainedClause]:
    """Clauses over ``small_signature`` plus a unary ``q``, with variables;
    factors and resolvents among them add clauses that carry constraints.
    The factors and resolvents are taken without literal selection, which
    would leave out most of them."""
    sig = small_signature()
    u = sig.sorts["u"]
    p, q = sig.lookup("p"), sig.predicate("q", (u,))

    def literal() -> Literal:
        if rng.random() < 0.5:
            return Literal(rng.random() < 0.5, Atom(p, (random_term(rng, sig, 2),
                                                        random_term(rng, sig, 2))))
        return Literal(rng.random() < 0.5, Atom(q, (random_term(rng, sig, 2),)))

    out = [ConstrainedClause([literal() for _ in range(rng.randint(1, 4))]) for _ in range(m)]
    for c in list(out):
        out += [ConstrainedClause(*f) for f in factor(c, select=False)[:1]]
    for _ in range(m):
        c, d = rng.sample(out[:m], 2)
        out += [ConstrainedClause(*r) for r in
                extended_resolution(c, rename_apart(c.free_names(), d)[0], select=False)[:2]]
    return out


def chain_axioms_kept(n: int) -> list[ConstrainedClause]:
    """The kept clauses of both strategies' searches of chain_axioms(n).
    Its predicates are nullary, so the clauses are closed and carry no
    constraint, and each search keeps the same ones."""
    sig, axioms = theories.chain_axioms(n)
    out = []
    for strategy in (prover.FREEZE, prover.ON_THE_FLY):
        result = prover.saturate(axioms, RewriteSystem(()), sig,
                                 prover.ProverConfig(strategy=strategy, max_clauses=400))
        out += [s for s in result.steps if not s.is_empty()]
    return out


def index_clause_sets():
    rng = random.Random(20231)
    sets = [pytest.param(ground_cnf(6, random_ground_cnf(rng, 6, 60))[1], id=f"ground-{i}")
            for i in range(4)]
    sets += [pytest.param(random_first_order_clauses(rng, 40), id=f"first-order-{i}")
             for i in range(4)]
    return sets + [pytest.param(chain_axioms_kept(6), id="chain_axioms(6)")]


def parse_clause(sig: Signature, *literals: str, sort: str = "u",
                 variables=("X", "Y", "Z")) -> ConstrainedClause:
    """A clause of the atoms ``literals``, each negated by a leading ``~``;
    ``variables`` are variables of ``sort``."""
    env = dict.fromkeys(variables, sig.sorts[sort])
    return ConstrainedClause([Literal(not text.startswith("~"),
                                      parse_term_or_atom(text.lstrip("~"), sig, env))
                              for text in literals])


def subset(c: ConstrainedClause, d: ConstrainedClause) -> bool:
    return set(c.features()) <= set(d.features())


@pytest.mark.parametrize("clauses", index_clause_sets())
def test_the_index_offers_every_subsumption_pair(clauses):
    # every candidate pair is one the features allow, and every pair that
    # subsumes is a candidate pair
    clauses = numbered(clauses)
    index = ClauseIndex()
    for c in clauses:
        index.note_kept(c)
    pairs = 0
    for d in clauses:
        forward = list(index.forward_candidates(d))
        assert all(not c.constraints and subset(c, d) for c in forward), d
        assert all(e is not d and subset(d, e) for e in index.backward_candidates(d)), d
        forward_ids = {c.id for c in forward}
        for c in clauses:
            if c is not d and subsumes(c, d):
                pairs += 1
                assert c.id in forward_ids, (c, d)
                assert d.id in {x.id for x in index.backward_candidates(c)}, (c, d)
    assert pairs >= 50


@pytest.mark.parametrize("clauses", index_clause_sets())
def test_the_resolution_prefilter_skips_only_partners_without_resolvents(clauses):
    clauses = numbered(clauses)
    index = ClauseIndex()
    for c in clauses:
        index.note_selected(c)
    skipped = 0
    for c in clauses:
        partners = [d.id for d in index.partners(c)]
        assert partners == sorted(set(partners))  # once each, in selection order
        for d in clauses:
            if d.id not in partners:
                skipped += 1
                assert extended_resolution(c, rename_apart(c.free_names(), d)[0]) == [], (c, d)
    assert skipped >= 1000


def retirement_sets():
    """Four clauses in which the first subsumes the second and the fourth
    and resolves with the third, as ground atoms and as non-ground ones;
    each with the features the first clause alone keeps after the other
    two retire."""
    _, ground = ground_cnf(4, [((0, True),), ((0, True), (1, False)),
                               ((0, False), (2, True)), ((0, True), (3, True))])
    sig = small_signature()
    u = sig.sorts["u"]
    for name in "qrs":
        sig.predicate(name, (u,))
    first_order = [parse_clause(sig, "p(g(X), a)"),
                   parse_clause(sig, "p(g(b), a)", "~q(X)"),
                   parse_clause(sig, "~p(g(X), a)", "r(X)"),
                   parse_clause(sig, "p(g(c), a)", "s(f(X, b))")]
    return [(ground, [(True, "A0")]),
            (first_order, [(True, "p"), (True, "p", "g"), (True, "p", "a")])]


def test_the_index_drops_retired_clauses_from_the_lists_it_scans():
    for clauses, first_only in retirement_sets():
        clauses = numbered(clauses)
        index = ClauseIndex()
        for c in clauses:
            index.note_kept(c)
            index.note_selected(c)
        unit, _, negative, _ = clauses
        assert sorted(c.id for c in index.backward_candidates(unit)) == [2, 4]
        index.retire(clauses[1])
        index.retire(clauses[3])
        assert [c.id for c in index.backward_candidates(unit)] == []
        assert [c.id for c in index.partners(negative)] == [1]
        assert [c.id for c in index.forward_candidates(clauses[1])] == [1]
        for feature in first_only:
            assert list(index.postings[feature]) == [1], feature
        assert list(index.active[first_only[0]]) == [1]
        # a retired clause is in no list, and a query whose features are all
        # the clauses' finds only the live ones in the trie
        for lists in (index.postings, index.active):
            assert all(lst.keys().isdisjoint({2, 4}) for lst in lists.values())
        everything = ConstrainedClause([lit for c in clauses for lit in c.literals])
        assert sorted(c.id for c in index.forward_candidates(everything)) == [1, 3]


def literals_map_into(c: ConstrainedClause, d: ConstrainedClause) -> bool:
    """Some map from the literals of ground ``c`` to those of ``d`` takes
    each literal to one with the same sign and the same text."""
    text = lambda lit: (lit.positive, str(lit.atom))
    return any(all(text(a) == text(b) for a, b in zip(c.literals, image))
               for image in itertools.product(d.literals, repeat=len(c.literals)))


@pytest.mark.parametrize("clauses", [p for p in index_clause_sets()
                                     if p.id.startswith("ground")])
def test_ground_subsumption_agrees_with_a_literal_mapping_oracle(clauses):
    assert all(c.literals_ground() for c in clauses)
    pairs = 0
    for c in clauses:
        for d in clauses:
            expected = literals_map_into(c, d)
            assert subsumes(c, d) == expected, (c, d)
            pairs += expected
    assert pairs >= 100


def some_map_subsumes(c: ConstrainedClause, d: ConstrainedClause) -> bool:
    """:func:`multiset_subsumes` with any map of the literals, so two
    literals of ``c`` may go to one of ``d``."""
    return maps_onto(c, itertools.product(d.literals, repeat=len(c)))


def fits_counts(c: ConstrainedClause, d: ConstrainedClause) -> bool:
    """``c`` is no longer than ``d`` and no richer in any (polarity,
    predicate): what a one-to-one map needs, and what a map taking two
    literals to one may not meet."""
    return len(c) <= len(d) and all(d.profile().get(k, 0) >= n for k, n in c.profile().items())


def one_to_one_pairs() -> list[tuple[ConstrainedClause, ConstrainedClause, ConstrainedClause]]:
    """Clauses ``c``, ``d`` and ``e``: ``c`` is no longer than ``d`` and no
    richer in any (polarity, predicate), and takes its literals onto ``d``'s
    only by sending two of them to one, while it takes them one to one onto
    ``e``, ``d`` with literals added.  The set-cantor pair came up in its
    on-the-fly search, where the skolem functions ``x1`` and ``z`` are
    declared."""
    small = small_signature()
    sig = theories.load_preset("set-cantor").sig
    s = sig.sorts["set"]
    sig.function("x1", (s,), s)
    sig.function("z", (s,), s)
    names = ("Y", "Z'", "Y'")
    cantor = ["~<x1(C),B> in R", "~<z(C),Y> in R", "~z(C) in Y", "~x1(C) in B"]
    return [
        (parse_clause(small, "p(X, a)", "p(a, X)"), parse_clause(small, "p(a, a)", "p(b, c)"),
         parse_clause(small, "p(a, a)", "p(b, c)", "p(b, a)", "p(a, b)")),
        (parse_clause(sig, "~<x1(C),Y> in R", "~<Z',Y'> in R", "~Z' in Y'", "~Z' in Y",
                      sort="set", variables=names),
         parse_clause(sig, *cantor, sort="set", variables=names),
         parse_clause(sig, *cantor, "~<x1(C),Y> in R", "~x1(C) in Y", sort="set",
                      variables=names)),
    ]


@pytest.mark.parametrize("c, d, e", one_to_one_pairs(), ids=["p", "set-cantor"])
def test_subsumption_never_takes_two_literals_to_one(c, d, e):
    assert fits_counts(c, d) and some_map_subsumes(c, d)
    assert not multiset_subsumes(c, d)
    assert not subsumes(c, d)
    assert subsumes(c, e)


def set_cantor_subsumption_pairs(seed: int, rounds: int):
    """Seeded clause pairs over set-cantor's signature.  Each round draws a
    clause ``c`` of two or three literals over X, Y and Z, its second half
    the time a renaming of its first, and a clause ``d``: ``c`` under a
    substitution onto at most three terms, which often merges two literals,
    with up to two literals of the sign and predicate of some literal of
    ``c``.  It yields ``(c, d)``, ``(d, c)`` and ``c`` against a random
    clause."""
    rng = random.Random(seed)
    sig = theories.load_preset("set-cantor").sig
    s = sig.sorts["set"]
    preds = [sig.lookup("in"), sig.lookup("=")]

    def literal(names, depth, like=None):
        positive, pred = ((rng.random() < 0.5, rng.choice(preds)) if like is None
                          else (like.positive, like.atom.pred))
        return Literal(positive, Atom(pred, tuple(random_sig_term(rng, sig, s, depth, names)
                                                  for _ in range(2))))

    def instance(lit, theta):
        return Literal(lit.positive, Atom(lit.atom.pred,
                                          tuple(subst_term(a, theta) for a in lit.atom.args)))

    xyz, uv = ("X", "Y", "Z"), ("U", "V")
    rotate = {"X": Var("Y", s), "Y": Var("Z", s), "Z": Var("X", s)}
    for _ in range(rounds):
        lits = [literal(xyz, 1) for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.5:
            lits[1] = instance(lits[0], rotate)
        c = ConstrainedClause(lits)
        terms = [random_sig_term(rng, sig, s, 1, ("U",)) for _ in range(rng.randint(1, 3))]
        theta = {name: rng.choice(terms) for name in xyz}
        lits = [instance(lit, theta) for lit in c.literals]
        lits += [literal(uv, 2, rng.choice(c.literals)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(lits)
        d = ConstrainedClause(lits)
        yield c, d
        yield d, c
        yield c, ConstrainedClause([literal(uv, 2) for _ in range(rng.randint(1, 4))])


def test_subsumption_agrees_with_a_multiset_oracle_over_set_cantor():
    subsumed = merged = 0
    for c, d in set_cantor_subsumption_pairs(37, 300):
        expected = multiset_subsumes(c, d)
        assert subsumes(c, d) == expected, (c, d)
        subsumed += expected
        # pairs that only a map sending two literals to one subsumes
        merged += not expected and fits_counts(c, d) and some_map_subsumes(c, d)
    assert subsumed >= 200 and merged >= 10


@pytest.mark.parametrize("clauses", index_clause_sets())
def test_subsumption_agrees_with_a_multiset_oracle(clauses):
    pairs = 0
    for c in clauses:
        for d in clauses:
            expected = multiset_subsumes(c, d)
            assert subsumes(c, d) == expected, (c, d)
            pairs += expected and c is not d
    assert pairs >= 50


@pytest.mark.parametrize("clauses", [p for p in index_clause_sets()
                                     if p.id.startswith("first-order")])
def test_subsumption_rejects_on_counts_before_it_matches(monkeypatch, clauses):
    matched = []
    monkeypatch.setattr(prover, "match", lambda *args: matched.append(args) or match(*args))
    rejected = 0
    for c in clauses:
        for d in clauses:
            if not c.literals_ground() and not fits_counts(c, d):
                matched.clear()
                assert not subsumes(c, d)
                assert not matched, (c, d)
                rejected += 1
    assert rejected >= 2000


# ---------------------------------------------------------------------------
# The duplicate key is the variant relation, computed once per clause that
# carries constraints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("clauses", index_clause_sets())
def test_the_duplicate_key_agrees_with_a_variant_oracle(clauses):
    # the canonical variant follows literal order among literals of one
    # skeleton, so p(X, Y) | p(Y, Z) keys apart from its reverse; these
    # sets hold no such clause
    plain = [c for c in clauses if not c.constraints]
    keys = [clause_key(c) for c in plain]
    for c, key_c in zip(plain, keys):
        for d, key_d in zip(plain, keys):
            assert (key_c == key_d) == clause_variant(c, d), (c, d)
    for c in clauses:
        renamed, _ = rename_apart(c.free_names(), c)
        copy = ConstrainedClause(reversed(renamed.literals), renamed.constraints)
        assert clause_key(copy) == clause_key(c), (c, copy)
        canonical = canonical_variant(c)
        assert clause_variant(canonical, c), (c, canonical)
        assert clause_key(canonical) == clause_key(c), (c, canonical)
    closed = {clause_key(c) for c in clauses if not c.free_vars()}
    assert closed.isdisjoint(clause_key(c) for c in clauses if c.free_vars())


def all_pairs_factor(c: ConstrainedClause, select: bool = True) -> list[ConstrainedClause]:
    """A reference for ``factor``: every two eligible literals are paired,
    in position order, and the pairs of another polarity, predicate or arity
    are skipped."""
    out = []
    positions = eligible(c, select)
    for n, i in enumerate(positions):
        li = c.literals[i]
        for j in positions[n + 1:]:
            lj = c.literals[j]
            if (li.positive, li.atom.pred.name, len(li.atom.args)) \
                    != (lj.positive, lj.atom.pred.name, len(lj.atom.args)):
                continue
            rest = [l for k, l in enumerate(c.literals) if k != j]
            out.append(ConstrainedClause(rest, tuple(c.constraints)
                                         + (Constraint(li.atom, lj.atom),)))
    return out


@pytest.mark.parametrize("name", sorted(ORDERING_SIGNATURES))
def test_factoring_by_groups_yields_the_factors_of_all_pairs(name):
    rng = random.Random(f"factor:{name}")
    atoms, _ = ordering_atoms(name, rng)
    factors = 0
    for _ in range(200):
        c = ConstrainedClause(Literal(rng.random() < 0.5, a)
                              for a in rng.sample(atoms, rng.randint(2, 7)))
        for select in (True, False):
            got = [ConstrainedClause(*f) for f in factor(c, select)]
            want = all_pairs_factor(c, select)
            assert [(d.literals, d.constraints) for d in got] \
                == [(d.literals, d.constraints) for d in want], c
            factors += len(got)
    assert factors > 100


# ---------------------------------------------------------------------------
# On the fly, an inference is unified before its clause is built; the route
# that built the constrained clause first is the reference
# ---------------------------------------------------------------------------


def propagation_theory(name: str) -> tuple[Signature, RewriteSystem]:
    if name == "small":
        sig = small_signature()
        sig.predicate("q", (sig.sorts["u"],))
        return sig, RewriteSystem(())
    preset = theories.load_preset(name)
    return preset.sig, preset.system


def normal_clause(rng: random.Random, sig: Signature, system: RewriteSystem,
                  constrained: bool, depth: int = 2) -> ConstrainedClause:
    """One to three literals over the predicates of ``sig`` whose atoms are
    normal, as a kept clause's are, with terms ``depth`` deep at most; now
    and then with a copy of each where a variable of the first is renamed
    ``V``, which a unifier that binds the two merges back.  ``constrained``
    adds a random term equation."""
    preds = sorted((s for s in sig.symbols.values() if s.kind == "predicate"),
                   key=lambda s: s.name)

    def normal(atom: Atom) -> bool:
        return normalize(atom, system).value == atom

    literals, n = [], rng.randint(1, 3)
    while len(literals) < n:
        pred = rng.choice(preds)
        atom = Atom(pred, tuple(random_sig_term(rng, sig, a, depth, ("X", "Y", "Z"))
                                for a in pred.arg_sorts))
        if normal(atom):
            literals.append(Literal(rng.random() < 0.5, atom))
    first = sorted(free_vars(literals[0].atom), key=lambda v: v.name)
    if first and rng.random() < 0.3:
        rename = Substitution({first[0].name: Var("V", first[0].sort)})
        literals += [Literal(lit.positive, rename(lit.atom)) for lit in literals
                     if normal(rename(lit.atom))]
    constraints = []
    if constrained:
        sort = literals[0].atom.pred.arg_sorts[0]
        constraints.append(Constraint(random_sig_term(rng, sig, sort, 2, ("X", "Y", "W")),
                                      random_sig_term(rng, sig, sort, 2, ("X", "Y", "W"))))
    return ConstrainedClause(literals, constraints)


def all_resolvents(c: ConstrainedClause, d: ConstrainedClause) -> list[ConstrainedClause]:
    """A reference for ``extended_resolution`` without literal selection,
    each resolvent built as a constrained clause: every positive literal of
    one clause against every negative literal of the other with the same
    predicate and arity, ``c``'s positive literals first."""
    out = []
    for pos, neg in ((c, d), (d, c)):
        for i, lp in enumerate(pos.literals):
            for j, ln in enumerate(neg.literals):
                if (lp.positive and not ln.positive and lp.atom.pred.name == ln.atom.pred.name
                        and len(lp.atom.args) == len(ln.atom.args)):
                    rest = [l for k, l in enumerate(pos.literals) if k != i]
                    rest += [l for k, l in enumerate(neg.literals) if k != j]
                    out.append(ConstrainedClause(rest, (*pos.constraints, *neg.constraints,
                                                        Constraint(lp.atom, ln.atom))))
    return out


def registered(system: RewriteSystem, sig: Signature, strategy: str,
               parents: tuple[ConstrainedClause, ...], inferences):
    """The clauses ``_Saturation.process_new`` registers for ``inferences``,
    with ``parents`` as the first steps, and the inferences whose
    constraints failed."""
    sat = prover._Saturation(system, sig, prover.ProverConfig(strategy=strategy))
    sat.steps = numbered(parents)
    out = []
    sat.register = lambda c, kind, parents, aux=None: out.append(c)
    sat.process_new(inferences, "resolution", tuple(range(1, len(parents) + 1)))
    return out, sat.stats.failed_constraints


def shapes(clauses) -> list[tuple]:
    return [(c.literals, c.constraints) for c in clauses]


@pytest.mark.parametrize("theory, least", [
    ("small", {"none": 200, "merged": 10}),
    ("set-cantor", {"none": 400, "merged": 50, "rewritten": 50, "narrowing": 300}),
    ("arith", {"none": 400, "merged": 30, "rewritten": 30, "frozen": 200, "cheap_fail": 150}),
])
def test_on_the_fly_builds_what_the_constrained_route_builds(theory, least):
    """For the resolvents and factors of random clause pairs, which must
    be those of the references that build them as constrained clauses, and
    the narrowing steps of each R-rule, ``propagate_on_the_fly`` and the
    reference route of ``helpers.reference_propagate`` agree on the
    clauses, in order, and on None; ``process_new`` and
    ``helpers.reference_process_new`` register the same clauses and count
    the same failures under both strategies, so on the fly takes the freeze
    path where the reference does."""
    sig, system = propagation_theory(theory)
    depth = 1 if theory == "small" else 2
    rng = random.Random(f"propagation:{theory}")
    tally = dict.fromkeys(("none", "merged", "rewritten", "narrowing", "frozen",
                           "cheap_fail"), 0)
    for _ in range(400):
        c = normal_clause(rng, sig, system, rng.random() < 0.2, depth)
        d = rename_apart(c.free_names(), normal_clause(rng, sig, system, False, depth))[0]
        cases = [((c, d), extended_resolution(c, d, select=False), all_resolvents(c, d)),
                 ((c,), factor(c, select=False), all_pairs_factor(c, select=False))]
        for rule in system.r_rules:
            steps = [i for event in prover.extended_narrowing(c, rule, system, sig)
                     for i in event]
            # the parent's constraints and the narrowed atom's equation
            assert all(len(cons) == len(c.constraints) + 1 and set(c.constraints) <= set(cons)
                       for _, cons in steps)
            tally["narrowing"] += len(steps)
            cases.append(((c,), steps, [ConstrainedClause(*i) for i in steps]))
        for parents, inferences, built in cases:
            assert shapes(ConstrainedClause(*i) for i in inferences) == shapes(built)
            for literals, constraints in inferences:
                if not constraints:
                    continue
                got = propagate_on_the_fly(literals, unify._term_pairs(constraints), system,
                                           sig.copy())
                want = reference_propagate(ConstrainedClause(literals, constraints),
                                           system, sig.copy())
                assert (got is None) == (want is None), (literals, constraints)
                if got is None:
                    tally["none"] += 1
                    continue
                assert shapes(got.clauses) == shapes(want.clauses), (literals, constraints)
                assert got.normalized == want.normalized
                solution = solve_syntactic(constraints)
                instances = {Literal(l.positive, solution(l.atom)) for l in literals}
                tally["merged"] += len(instances) < len(set(literals))
                tally["rewritten"] += any(lit not in instances
                                          for e in got.clauses for lit in e.literals)
            propagate = not any(p.constraints for p in parents)
            for strategy in (prover.FREEZE, prover.ON_THE_FLY):
                clauses, failed = registered(system, sig.copy(), strategy, parents, inferences)
                want, want_failed = reference_process_new(
                    built, strategy == prover.ON_THE_FLY, propagate, system, sig.copy())
                assert (shapes(clauses), failed) == (shapes(want), want_failed), inferences
                if strategy == prover.ON_THE_FLY and system.e_rules:
                    tally["frozen"] += sum(bool(e.constraints) for e in clauses)
                    tally["cheap_fail"] += failed
    assert all(tally[k] >= n for k, n in least.items()), tally


def test_a_failed_unifier_builds_no_clause_and_a_resolvent_one(monkeypatch):
    """On the fly, an occurs check or a clash builds nothing and counts one
    failure, as the reference route does after building the clause; a
    unifier builds the one instantiated clause, its merged literals once."""
    sig, system = propagation_theory("small")
    parse = functools.partial(parse_clause, sig)
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return ConstrainedClause(*args, **kwargs)

    monkeypatch.setattr(prover, "ConstrainedClause", counting)
    monkeypatch.setattr(unify, "ConstrainedClause", counting)
    for c, d, outcome in [("p(X, g(X))", "~p(Y, Y)", None),  # occurs check
                          ("p(a, X)", "~p(b, Y)", None),  # clash
                          ("p(X, a) | q(X)", "~p(b, Y) | q(b)", ["q(b)"])]:  # merged
        c, d = parse(*c.split(" | ")), parse(*d.split(" | "))
        (inference,) = extended_resolution(c, d, select=False)
        reference = reference_propagate(ConstrainedClause(*inference), system, sig.copy())
        built.clear()
        clauses, failed = registered(system, sig.copy(), prover.ON_THE_FLY, (c, d), [inference])
        assert [e.literal_text() for e in clauses] == (outcome or []), (c, d)
        assert (len(built), failed) == ((0, 1) if outcome is None else (1, 0))
        assert reference is None if outcome is None \
            else shapes(reference.clauses) == shapes(clauses)


def resolved(system: RewriteSystem, sig: Signature, strategy: str, select: bool,
             sel: ConstrainedClause, partner: ConstrainedClause):
    """The clauses ``_Saturation._resolve`` registers for ``sel`` and
    ``partner`` (``sel`` itself for self-resolution), numbered as the first
    steps; the inferences whose constraints failed; and
    ``steps["resolution"]``."""
    sat = prover._Saturation(system, sig, prover.ProverConfig(strategy=strategy))
    sat.select = select
    sat.steps = numbered([sel] if partner is sel else [sel, partner])
    sel, partner = sat.steps[0], sat.steps[-1]
    out = []

    def register(c, kind, parents, aux=None):
        out.append(c)
        sat.stats.kept += 1

    sat.register = register
    sat._resolve(sel, sel.free_names(), partner)
    return out, sat.stats.failed_constraints, sat.stats.steps["resolution"]


def cut_outcome(sel: ConstrainedClause, partner: ConstrainedClause, select: bool) -> list[str]:
    """How each resolution inference of ``sel`` and ``partner`` ends at its
    cut atoms: ``equal``, a rigid ``clash``, another failure of syntactic
    unification (an occurs check or a clash below a variable's binding) or
    ``unified``."""
    rho = kernel.renaming_apart(sel.free_names(), partner.free_vars())
    out = []
    for inference in extended_resolution(sel, partner, rho, select):
        lhs, rhs = inference.lhs, inference.rhs
        if lhs == rhs:
            out.append("equal")
        elif any(unify._clash(a, b, frozenset()) for a, b in zip(lhs.args, rhs.args)):
            out.append("clash")
        else:
            out.append("unified" if unify_syntactic(lhs, rhs) else "failed")
    return out


@pytest.mark.parametrize("theory, depth, least", [
    ("small", 0, {"equal": 10, "clash": 60, "failed": 5, "unified": 300, "shared": 100,
                  "self": 10}),
    ("small", 1, {"equal": 10, "clash": 250, "failed": 3, "unified": 100, "shared": 70,
                  "self": 10}),
    ("set-cantor", 2, {"equal": 3, "clash": 300, "failed": 12, "unified": 80,
                        "shared": 80, "self": 10}),
    ("arith", 2, {"equal": 20, "clash": 500, "failed": 15, "unified": 250,
                   "shared": 140, "self": 10}),
])
def test_resolving_against_the_partner_unrenamed_builds_what_renaming_it_first_builds(
        theory, depth, least):
    """``_Saturation._resolve`` renames only the partner's cut atom before it
    unifies, and its other literals once the clause is built; the reference
    route of ``helpers.reference_resolve`` renames the partner in full
    first.  Over seeded pairs whose variables share their names (``X``,
    ``Y`` and ``Z``), some carrying constraints, and self-resolution, both
    register the same clauses, literals in order and variable names
    included, count the same failures and the same ``steps["resolution"]``,
    under both strategies and with and without literal selection.  Depth 0
    draws function-free clauses."""
    sig, system = propagation_theory(theory)
    rng = random.Random(f"resolve:{theory}:{depth}")
    tally = dict.fromkeys(("equal", "clash", "failed", "unified", "shared", "self"), 0)
    pairs = []
    for _ in range(500):
        sel = normal_clause(rng, sig, system, rng.random() < 0.2, depth)
        pairs.append((sel, sel if rng.random() < 0.2
                      else normal_clause(rng, sig, system, rng.random() < 0.2, depth)))
    if theory == "small" and depth:
        pairs += [(parse_clause(sig, *c.split(" | ")), parse_clause(sig, *d.split(" | ")))
                  for c, d in [("p(X, g(X))", "~p(Y, Y)"),  # occurs check
                               ("p(a, X) | q(X)", "~p(b, X)"),  # clash
                               ("p(a, b) | q(X)", "~p(a, b) | ~q(X)")]]  # equal atoms
    for sel, partner in pairs:
        tally["shared"] += partner is not sel and bool(sel.free_names() & partner.free_names())
        for select in (True, False):
            outcomes = cut_outcome(sel, partner, select)
            for outcome in outcomes:
                tally[outcome] += 1
            tally["self"] += partner is sel and bool(outcomes)
            for strategy in (prover.FREEZE, prover.ON_THE_FLY):
                got, failed, steps = resolved(system, sig.copy(), strategy, select, sel, partner)
                want, want_failed, want_steps = reference_resolve(
                    sel, partner, strategy, select, system, sig.copy())
                assert (shapes(got), failed, steps) == (shapes(want), want_failed, want_steps), \
                    (sel, partner, strategy, select)
    assert all(tally[k] >= n for k, n in least.items()), tally


def keyed_signature() -> Signature:
    """``small_signature`` with a second sort ``v``: a constant ``d``, a
    function ``h`` from ``u`` to ``v`` and a predicate ``q`` on ``v`` and
    ``u``."""
    sig = small_signature()
    u, v = sig.sorts["u"], sig.declare_sort("v")
    sig.individual("d", v)
    sig.function("h", (u,), v)
    sig.predicate("q", (v, u))
    return sig


def random_keyed_clause(rng: random.Random, sig: Signature) -> ConstrainedClause:
    """One to three literals and up to five constraints, some between atoms,
    over small terms of two sorts, so that skeletons often tie, within a
    constraint and between constraints or literals; ``X``, ``Y`` and ``Z``
    are variables of sort ``u``, ``V`` and ``W`` of sort ``v``."""
    u, v = sig.sorts["u"], sig.sorts["v"]
    p, q, g, h, d = (sig.lookup(name) for name in "pqghd")

    def term(sort):
        roll = rng.random()
        if sort == v:
            if roll < 0.5:
                return Var(rng.choice("VW"), v)
            return App(d) if roll < 0.7 else App(h, (term(u),))
        x = Var(rng.choice("XYZ"), u)
        if roll < 0.3:
            return x
        return App(g, (x,)) if roll < 0.6 else random_term(rng, sig, 1, "XYZ")

    def atom():
        return Atom(p, (term(u), term(u))) if rng.random() < 0.6 else Atom(q, (term(v), term(u)))

    constraints = []
    for _ in range(rng.randint(0, 5)):
        roll = rng.random()
        if roll < 0.3:
            constraints.append(Constraint(atom(), atom()))
        else:
            sort = u if roll < 0.75 else v
            constraints.append(Constraint(term(sort), term(sort)))
    return ConstrainedClause([Literal(rng.random() < 0.5, atom())
                              for _ in range(rng.randint(1, 3))], constraints)


def renamed_clause(c: ConstrainedClause, names: dict[str, Var],
                   rng: random.Random) -> ConstrainedClause:
    """``c`` with its variables renamed by ``names``, its literals shuffled
    and each constraint's sides swapped at random."""
    def rename(x):
        if isinstance(x, Atom):
            return Atom(x.pred, tuple(subst_term(a, names) for a in x.args))
        return subst_term(x, names)

    literals = [Literal(lit.positive, rename(lit.atom)) for lit in c.literals]
    rng.shuffle(literals)
    constraints = [(rename(con.rhs), rename(con.lhs)) if rng.random() < 0.5
                   else (rename(con.lhs), rename(con.rhs)) for con in c.constraints]
    return ConstrainedClause(literals, [Constraint(*sides) for sides in constraints])


def test_the_duplicate_key_agrees_with_the_canonical_variant():
    # pairs of a clause and a variant of it, a variant with two variables
    # merged or a literal negated, or another random clause: the keys are
    # equal exactly when the canonical variants' literal and constraint
    # sets are, variants that tie on their skeletons included
    sig = keyed_signature()
    u, v = sig.sorts["u"], sig.sorts["v"]
    rng = random.Random("clause keys")
    seen = collections.Counter()
    for _ in range(1500):
        c = random_keyed_clause(rng, sig)
        permuted = {**dict(zip("XYZ", (Var(n, u) for n in rng.sample("XYZ", 3)))),
                    **dict(zip("VW", (Var(n, v) for n in rng.sample("VW", 2))))}
        roll = rng.random()
        if roll < 0.5:
            kind, d = "variant", renamed_clause(c, permuted, rng)
        elif roll < 0.65:
            kind, d = "merged", renamed_clause(c, {"X": Var("Y", u), "V": Var("W", v)}, rng)
        elif roll < 0.8:
            kind = "negated"
            d = renamed_clause(c, permuted, rng)
            first, *rest = d.literals
            d = ConstrainedClause([Literal(not first.positive, first.atom), *rest],
                                  d.constraints)
        else:
            kind, d = "other", random_keyed_clause(rng, sig)
        ref_c, ref_d = canonical_variant(c), canonical_variant(d)
        equal = ref_c._lit_set == ref_d._lit_set and ref_c.constraints == ref_d.constraints
        assert (clause_key(c) == clause_key(d)) == equal, (kind, c, d)
        atoms = any(isinstance(con.lhs, Atom) for con in c.constraints)
        seen[kind, equal, atoms] += 1
    assert seen["variant", True, True] >= 100 and seen["variant", True, False] >= 100
    # a variant keys apart where the numbering follows literal order or
    # variable names among tied skeletons
    assert seen["variant", False, True] + seen["variant", False, False] >= 10
    assert all(seen[kind, False, atoms] >= 30 for kind in ("merged", "negated", "other")
               for atoms in (True, False))
    assert seen["merged", True, False] + seen["merged", True, True] >= 20
    # a variable's code reads its sort, as Var equality does
    lit = Literal(True, Atom(sig.lookup("p"), (App(sig.lookup("a")),) * 2))
    pairs = [ConstrainedClause([lit], [Constraint(Var(x, sort), Var(y, sort))])
             for x, y, sort in (("X", "Y", u), ("V", "W", v))]
    assert clause_key(pairs[0]) != clause_key(pairs[1])
    assert canonical_variant(pairs[0]).constraints != canonical_variant(pairs[1]).constraints


def seeded_cnf(seed: int, unsatisfiable: bool):
    """The first set of 18 seeded ground clauses of 2 or 3 literals over 6
    atoms that is unsatisfiable, or satisfiable, as asked."""
    rng = random.Random(seed)
    while cnf_unsatisfiable(6, clauses := random_ground_cnf(rng, 6, 18, widths=(2, 3))) \
            != unsatisfiable:
        pass
    return cnf_props(6, clauses)


def discarding_for_every_reason(problems, strategy: str, reasons: list[str]):
    """The first of ``problems``, (signature, propositions) pairs, whose
    search under ``strategy`` at 150 clauses discards clauses for exactly
    the ``reasons`` of the redundancy filter, besides ``unsolvable``."""
    for sig, props in problems:
        result = prover.saturate(props, RewriteSystem(()), sig,
                                 prover.ProverConfig(strategy=strategy, max_clauses=150))
        if sorted(result.stats.discards.keys() - {"unsolvable"}) == reasons:
            return sig, props
    pytest.fail(f"no problem discards for exactly {reasons}")


# a ground clause carries no constraint, so on the fly ground CNF is never
# keyed and finds no duplicate; a function-free set under freeze keeps its
# unifiers as constraints, which the canonical variant keys
KEYED_PROBLEMS = {
    "unsatisfiable-cnf": (lambda: (seeded_cnf(seed, True) for seed in range(1, 21)),
                          prover.ON_THE_FLY, ["subsumed", "tautology"], prover.PROVED),
    "cnf": (lambda: (seeded_cnf(seed, False) for seed in range(1, 21)),
            prover.ON_THE_FLY, ["subsumed", "tautology"], prover.SATURATED),
    "function-free-freeze": (lambda: (function_free_props(clauses)
                                      for clauses, unsat in function_free_sets() if unsat),
                             prover.FREEZE, ["duplicate", "subsumed", "tautology"],
                             prover.PROVED),
}


@pytest.mark.parametrize("problem", KEYED_PROBLEMS)
def test_the_redundancy_filter_keys_each_clause_once(problem, monkeypatch):
    # every non-empty clause that carries constraints, and so passes the
    # tautology test, is keyed once, when it is filtered, and never again
    # once kept; a constraint-free clause is never keyed, since forward
    # subsumption finds its variants, nor is the empty clause
    problems, strategy, reasons, expected = KEYED_PROBLEMS[problem]
    sig, props = discarding_for_every_reason(problems(), strategy, reasons)
    filtered, keyed = [], []
    key, keep = prover.clause_key, prover.redundancy_filter
    monkeypatch.setattr(prover, "clause_key", lambda c: keyed.append(c) or key(c))
    monkeypatch.setattr(prover, "redundancy_filter",
                        lambda c, index: filtered.append(c) or keep(c, index))
    result = prover.saturate(props, RewriteSystem(()), sig,
                             prover.ProverConfig(strategy=strategy, max_clauses=150))
    assert result.verdict == expected
    assert len(filtered) == result.stats.generated
    constrained = [c for c in filtered if c.constraints and not c.is_empty()]
    assert [id(c) for c in keyed] == [id(c) for c in constrained]
    assert bool(constrained) == (strategy == prover.FREEZE)


def test_a_constraint_free_variant_is_subsumed_without_a_key(monkeypatch):
    # p(X, Y) | p(Y, Z) and its reverse tie on their literals' skeletons,
    # which the canonical variant numbers in literal order; subsumption
    # maps the literals one to one whatever their order
    sig = Signature()
    u = sig.declare_sort("u")
    p = sig.predicate("p", (u, u))
    a = App(sig.individual("a", u))
    x, y, z, x2, y2, z2 = (Var(n, u) for n in ("X", "Y", "Z", "X'", "Y'", "Z'"))
    keyed = []
    key = prover.clause_key
    monkeypatch.setattr(prover, "clause_key", lambda c: keyed.append(c) or key(c))
    index = ClauseIndex()
    kept = ConstrainedClause([Literal(True, Atom(p, (x, y))), Literal(True, Atom(p, (y, z)))])
    assert redundancy_filter(kept, index) == (True, None)
    index.note_kept(*numbered([kept]))
    reverse = ConstrainedClause([Literal(True, Atom(p, (y2, z2))),
                                 Literal(True, Atom(p, (x2, y2)))])
    assert redundancy_filter(reverse, index) == (False, "subsumed")
    assert keyed == []
    # a clause that carries constraints is keyed, and its variant under
    # freeze, constraints and all, is a duplicate
    frozen = ConstrainedClause([Literal(False, Atom(p, (x, y)))], [Constraint(x, a)])
    assert redundancy_filter(frozen, index) == (True, None)
    index.note_kept(*numbered([frozen], 2))
    copy = ConstrainedClause([Literal(False, Atom(p, (x2, y2)))], [Constraint(x2, a)])
    assert redundancy_filter(copy, index) == (False, "duplicate")
    assert keyed == [frozen, copy]


# ---------------------------------------------------------------------------
# Saturation against a truth table
# ---------------------------------------------------------------------------


def cnf_props(n: int, clauses) -> tuple[Signature, list]:
    """One disjunction over the nullary predicates A0..A(n-1) per clause."""
    sig = Signature()
    atoms = [Atom(sig.predicate(f"A{i}", ())) for i in range(n)]
    return sig, [functools.reduce(Or, [atoms[a] if pos else Not(atoms[a]) for a, pos in clause])
                 for clause in clauses]


def cnf_unsatisfiable(n: int, clauses) -> bool:
    _, props = cnf_props(n, clauses)
    return not any(truth_table(functools.reduce(And, props), [f"A{i}" for i in range(n)]))


def three_literal_cnf_sets():
    """Seeded ground CNF over 3-6 atoms with 2 to 8 clauses per atom, every
    clause of 3 literals, drawn until the sets alternate between
    unsatisfiable and satisfiable; then the 8 clauses over A, B, C."""
    rng = random.Random(3)
    sets, want_unsat = [], True
    while len(sets) < 24:
        n = rng.randint(3, 6)
        clauses = random_ground_cnf(rng, n, rng.randint(2 * n, 8 * n), widths=(3,))
        if cnf_unsatisfiable(n, clauses) == want_unsat:
            sets.append(pytest.param(n, clauses, id=f"{len(sets)}:n={n},m={len(clauses)}"))
            want_unsat = not want_unsat
    all_signs = [tuple((a, bits >> a & 1 == 1) for a in range(3)) for bits in range(8)]
    return sets + [pytest.param(3, all_signs, id="all-8-over-ABC")]


@pytest.mark.parametrize("strategy", [prover.FREEZE, prover.ON_THE_FLY])
@pytest.mark.parametrize("n, clauses", three_literal_cnf_sets())
def test_saturation_refutes_exactly_the_unsatisfiable_sets(n, clauses, strategy):
    sig, props = cnf_props(n, clauses)
    result = prover.saturate(props, RewriteSystem(()), sig,
                             prover.ProverConfig(strategy=strategy))
    expected = prover.PROVED if cnf_unsatisfiable(n, clauses) else prover.SATURATED
    assert result.verdict == expected


# ---------------------------------------------------------------------------
# Saturation of function-free clauses against Herbrand's theorem
# ---------------------------------------------------------------------------

# a unary and a binary predicate over the constants a and b
FUNCTION_FREE_ARITY = {"p": 1, "q": 2}


def random_function_free_clauses(rng: random.Random):
    """5 to 10 clauses of 1 to 3 literals; a literal is (polarity,
    predicate, arguments), each argument a constant ``a``, ``b`` or a
    variable ``x``, ``y``."""
    return [tuple((rng.random() < 0.5, pred,
                   tuple(rng.choice("abxy") for _ in range(FUNCTION_FREE_ARITY[pred])))
                  for pred in rng.choices(sorted(FUNCTION_FREE_ARITY), k=rng.choice((1, 2, 2, 3, 3))))
            for _ in range(rng.randint(5, 10))]


def herbrand_unsatisfiable(clauses) -> bool:
    """Is the set of ground instances over {a, b} unsatisfiable?  By
    Herbrand's theorem, exactly when the clauses are; decided by a truth
    table over the ground atoms."""
    ground = {frozenset((pos, pred, tuple(s.get(t, t) for t in args)) for pos, pred, args in c)
              for c in clauses for s in ({"x": x, "y": y} for x in "ab" for y in "ab")}
    atoms = sorted({(pred, args) for c in ground for _, pred, args in c})
    for bits in range(2 ** len(atoms)):
        value = {atom: bits >> i & 1 == 1 for i, atom in enumerate(atoms)}
        if all(any(value[pred, args] == pos for pos, pred, args in c) for c in ground):
            return False
    return True


def function_free_props(clauses) -> tuple[Signature, list]:
    """Each clause as a proposition, universally closed over x and y."""
    sig = Signature()
    u = sig.declare_sort("u")
    terms = {"a": App(sig.individual("a", u)), "b": App(sig.individual("b", u)),
             "x": Var("x", u), "y": Var("y", u)}
    preds = {name: sig.predicate(name, (u,) * n) for name, n in FUNCTION_FREE_ARITY.items()}
    props = []
    for c in clauses:
        literals = [Atom(preds[pred], tuple(terms[t] for t in args)) for _, pred, args in c]
        body = functools.reduce(Or, [a if pos else Not(a) for (pos, _, _), a in zip(c, literals)])
        props.append(Forall(terms["x"], Forall(terms["y"], body)))
    return sig, props


def function_free_sets():
    """80 seeded sets, alternately unsatisfiable and satisfiable."""
    rng = random.Random(1)
    sets, want_unsat = [], True
    while len(sets) < 80:
        clauses = random_function_free_clauses(rng)
        if herbrand_unsatisfiable(clauses) == want_unsat:
            sets.append((clauses, want_unsat))
            want_unsat = not want_unsat
    return sets


@pytest.mark.parametrize("strategy", [prover.FREEZE, prover.ON_THE_FLY])
def test_saturation_agrees_with_herbrand_on_function_free_clauses(strategy):
    # literal selection and the atom ordering are complete only if lifting
    # holds: a search may run out of clauses, but it proves only
    # unsatisfiable sets and saturates only satisfiable ones; removing
    # factoring makes on-the-fly searches saturate unsatisfiable sets here
    verdicts, ordered = {}, 0
    for clauses, unsat in function_free_sets():
        sig, props = function_free_props(clauses)
        result = prover.saturate(props, RewriteSystem(()), sig,
                                 prover.ProverConfig(strategy=strategy, max_clauses=150))
        assert result.verdict != (prover.SATURATED if unsat else prover.PROVED), clauses
        verdicts[result.verdict] = verdicts.get(result.verdict, 0) + 1
        # kept clauses that select nothing and keep fewer than all literals
        ordered += sum(not c.constraints and all(lit.positive for lit in c.literals)
                       and len(eligible(c)) < len(c.literals) for c in result.steps)
    assert verdicts[prover.PROVED] >= 30 and verdicts[prover.SATURATED] >= 10, verdicts
    assert ordered >= 20
