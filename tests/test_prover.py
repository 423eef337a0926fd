"""Prover tests: duplicate detection in the redundancy filter, the narrowing
filter, the proof slice of a search and the traces of the refutation gate."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from resmod import cli, prover, theories
from resmod.clausal import ConstrainedClause, Literal, clausal_form
from resmod.kernel import App, Atom, Bottom, Not, Signature, Var
from resmod.parser import parse_prop, parse_term_or_atom
from resmod.prover import ClauseIndex, narrowing_applicable, redundancy_filter

SRC = Path(__file__).resolve().parents[1] / "src"

# chain_axioms(n) under freeze keeps many clauses with several atom
# constraints, so their duplicate keys must order the constraints by content
CHAIN_AXIOMS_FREEZE = """
import hashlib
from resmod import cli, kernel, prover, rewrite, theories
sig, axioms = theories.chain_axioms(7)
theory = theories.TheoryPreset("chain_axioms(7)", sig, rewrite.RewriteSystem(()), axioms)
report = cli.run_prove(theory, kernel.Bottom(), prover.ProverConfig(strategy=prover.FREEZE))
print(report.verdict, report.clauses_generated, hashlib.sha256(report.trace.encode()).hexdigest())
"""


def test_freeze_trace_does_not_depend_on_the_hash_seed():
    outputs = set()
    for seed in range(4):
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", CHAIN_AXIOMS_FREEZE], env=env,
                             capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1, outputs
    assert outputs.pop().startswith("PROVED ")


def test_a_variable_is_not_a_duplicate_of_a_same_named_constant():
    sig = Signature()
    u = sig.declare_sort("u")
    p = sig.predicate("P", (u,))
    ground = ConstrainedClause([Literal(True, Atom(p, (App(sig.individual("v0", u)),)))])
    index = ClauseIndex()
    index.note(ground)
    index.note_kept(ground)
    assert redundancy_filter(ConstrainedClause([Literal(True, Atom(p, (Var("X", u),)))]),
                             index) == (True, None)
    # variables render as ?n in the key, a form no symbol name can take
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
    assert narrowing_applicable(a, pair, prover.ON_THE_FLY) is on_the_fly
    assert narrowing_applicable(a, pair, prover.FREEZE) is freeze


def test_proof_steps_is_the_ancestor_slice_of_the_empty_clause():
    theory = theories.load_preset("arith")
    goal = Not(theory.goals["double"])
    inputs = [c for p in theory.axioms + [goal]
              for c in clausal_form(p, theory.system, theory.sig).clauses]
    result = prover.saturate(inputs, theory.system, theory.sig,
                             prover.ProverConfig(strategy=prover.FREEZE))
    steps = result.proof_steps()
    assert result.proved and steps[-1] is result.empty_clause and steps[-1].is_empty()
    ids = [s.id for s in steps]
    assert ids == sorted(set(ids))
    assert all(p in ids for s in steps for p in s.provenance.parents)


def hol_cantor(name: str) -> theories.TheoryPreset:
    """Cantor's theorem in a HOL preset: f and g with the surjection axiom."""
    theory = theories.load_preset(name)
    term = theory.sig.sorts["term"]
    theory.sig.individual("f", term)
    theory.sig.individual("g", term)
    theory.axioms = [theories.surjection_axiom(theory.sig)]
    return theory


# sha256 of each trace; the same at PYTHONHASHSEED 0-5
GATE_TRACES = {
    "double": "64391d9b2b18178201a69a7bf82962300a9ca1cccffde10c6236e7e3bcb1f5e7",
    "exists x:nat (x * x = 4)":
        "48b1f5a3eefb995cd4e3516770faf64f7fbb8e4ce61a6d6fa91cd6aeae34c10b",
    "exists x:nat (x * x = 9)":
        "d9775a7cb249adb64ae1b331ae1fc3b043d0c7b62cb62605527d40b62caee7b5",
    "exists x:nat x = 300": "75af75c3a6287fb4f5750507533859d0572e4746ab6cdbe154da624e4931013e",
    "hol-comb": "146ac31dc70f0412fee15d8b755befe26b9b3dbd7f9904bfb5d960cf4230083b",
    "hol-sigma": "1fea1eb218ff40b8bb3f7bde346faf31965d4124593e0ae0b9619da31d9bb6ae",
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
