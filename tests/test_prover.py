"""Prover tests: duplicate detection in the redundancy filter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from resmod.clausal import ConstrainedClause, Literal
from resmod.kernel import App, Atom, Signature, Var
from resmod.prover import ClauseIndex, redundancy_filter

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
