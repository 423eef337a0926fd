"""Trace tests: what ``format_trace`` writes, ``parse_trace`` reads back."""

import re

import pytest

from resmod import cli, kernel, prover, rewrite, theories
from resmod.parser import ParseError, parse_prop, parse_trace

FREEZE = prover.ProverConfig(strategy=prover.FREEZE)
ON_THE_FLY = prover.ProverConfig(strategy=prover.ON_THE_FLY)


def preset_goal(name, goal):
    def build():
        theory = theories.load_preset(name)
        return theory, theory.goals[goal]
    return build


def chain_axioms(n):
    def build():
        sig, axioms = theories.chain_axioms(n)
        theory = theories.TheoryPreset(f"chain_axioms({n})", sig, rewrite.RewriteSystem(()),
                                       axioms)
        return theory, kernel.Bottom()
    return build


def hol_cantor():
    theory = theories.load_preset("hol-comb")
    term = theory.sig.sorts["term"]
    theory.sig.individual("f", term)
    theory.sig.individual("g", term)
    theory.axioms = [theories.surjection_axiom(theory.sig)]
    return theory, kernel.Bottom()


def assert_round_trip(build, cfg):
    theory, goal = build()
    text = cli.run_prove(theory, goal, cfg).trace
    # a second build gives a signature without the run's skolem symbols
    reader_sig = build()[0].sig
    assert parse_trace(text, reader_sig).render() == text


@pytest.mark.parametrize("cfg", [FREEZE, ON_THE_FLY], ids=["freeze", "on_the_fly"])
@pytest.mark.parametrize("build", [
    preset_goal("integral-rings", "square_zero"),
    preset_goal("arith", "double"),
    preset_goal("chain(5)", "refute"),
], ids=["integral-rings", "arith", "chain(5)"])
def test_preset_goal_traces_round_trip(build, cfg):
    assert_round_trip(build, cfg)


def test_set_cantor_on_the_fly_trace_round_trips():
    assert_round_trip(preset_goal("set-cantor", "cantor"),
                      prover.ProverConfig(strategy=prover.ON_THE_FLY, max_clauses=300))


def test_chain_axioms_freeze_trace_round_trips():
    assert_round_trip(chain_axioms(5), FREEZE)


# A skolem symbol takes its name from the binder hint of its existential, so
# it can share the name of a rule variable shown in the same trace (x in
# set-cantor, y in HOL Cantor's constraint (P X) = (dor x y)); the reader
# then takes the variable for the function symbol.
SKOLEM_NAME_CLASH = pytest.mark.xfail(
    raises=ParseError, strict=True,
    reason="skolem symbols can share a name with a variable of the trace")


@SKOLEM_NAME_CLASH
def test_set_cantor_freeze_trace_round_trips():
    assert_round_trip(preset_goal("set-cantor", "cantor"),
                      prover.ProverConfig(strategy=prover.FREEZE, max_clauses=100))


@SKOLEM_NAME_CLASH
def test_hol_cantor_trace_round_trips():
    assert_round_trip(hol_cantor, prover.ProverConfig(strategy=prover.FREEZE,
                                                      narrow_states=300))


def constraint_names(text):
    """The names in the ``constraints:`` table and the names clause lines
    refer to."""
    table = set(re.findall(r"^  (c\d+): ", text, re.M))
    refs = {name for line in re.findall(r"^\d+\. .* / (c\d+(?:, c\d+)*)$", text, re.M)
            for name in line.split(", ")}
    return table, refs


@pytest.mark.parametrize("cfg", [FREEZE, ON_THE_FLY], ids=["freeze", "on_the_fly"])
def test_an_unsolvable_empty_clause_names_no_constraint(cfg):
    # the only clause that carries S(X) = 0 is the empty clause the gate
    # refutes, and it is never kept
    theory = theories.load_preset("arith")
    report = cli.run_prove(theory, parse_prop("exists x:nat S(x) = 0", theory.sig), cfg)
    assert report.discards == {"unsolvable": 1}
    assert "constraints:" not in report.trace


def test_the_constraint_table_names_only_constraints_of_kept_clauses():
    theory, goal = preset_goal("set-cantor", "cantor")()
    report = cli.run_prove(theory, goal,
                           prover.ProverConfig(strategy=prover.FREEZE, max_clauses=1500))
    assert report.discards["unsolvable"] > 0
    table, refs = constraint_names(report.trace)
    assert table and table == refs


def test_a_freeze_trace_with_lines_of_6000_characters_round_trips():
    theory = theories.load_preset("arith")
    goal = parse_prop("exists x:nat x + 0 = 2000", theory.sig)
    text = cli.run_prove(theory, goal, FREEZE).trace
    assert max(len(line) for line in text.splitlines()) > 6000
    assert parse_trace(text, theories.load_preset("arith").sig).render() == text


@pytest.mark.parametrize("line_no, before", [(6, "| "), (7, "| "), (9, ": ")],
                         ids=["input", "resolvent", "constraint"])
def test_a_trace_reports_an_error_at_its_own_line_and_column(line_no, before):
    # lines 6, 7 and 9 of this trace are "2. input | ~X + X = ...",
    # "3. resolution(2, 1) | [] / c1" and "  c1: X'' = X'' = ..."
    theory = theories.load_preset("arith")
    lines = cli.run_prove(theory, theory.goals["double"], FREEZE).trace.splitlines()
    line = lines[line_no - 1]
    col = line.index(before) + len(before) + 1
    lines[line_no - 1] = line[:col - 1] + ")" + line[col - 1:]
    with pytest.raises(ParseError) as err:
        parse_trace("\n".join(lines) + "\n", theories.load_preset("arith").sig)
    assert (err.value.line, err.value.col) == (line_no, col)
