"""Command-line tests: ``cli.main`` on each subcommand, with its exit code."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from resmod import cli
from resmod.kernel import App
from resmod.parser import parse_prop, parse_term_or_atom
from resmod.rewrite import normalize
from resmod.theories import load_preset

from helpers import scan_reduce_once


@pytest.mark.parametrize("theory, goal", [
    ("arith", "double"),
    ("integral-rings", "square_zero"),
    ("chain(10)", "refute"),
    ("set-cantor", "cantor"),
])
def test_named_goal_is_proved_under_the_default_strategy(capsys, theory, goal):
    assert cli.main(["prove", "--theory", theory, "--goal-name", goal]) == cli.EXIT_PROVED
    assert "verdict: PROVED\n" in capsys.readouterr().out


ARITH_WITH_P = "use arith\npred P : (nat)\naxiom P(0)\ngoal clash : P(S(0))\n"
# no E-rules; the only resolvent's constraint fails on the occurs check
DIAGONAL = ("sort s\nfun f : (s) -> s\npred P : (s, s)\n"
            "axiom forall x:s P(x, f(x))\ngoal diag : exists y:s P(y, y)\n")
# S(x) = 0 clashes only once the pairs (X, S(Y)) and (X, 0) are taken together
SUCC_ZERO = "use arith\ngoal s0 : exists x:nat S(x) = 0\n"
# narrowing P(S(y)) -> Q(y) must guess the structure of the argument of
# P(X), whose constraint X + 0 = 3 stays frozen on the fly
NARROW_FROZEN = ("use arith\npred P : (nat)\npred Q : (nat)\nR pq: P(S(y)) -> Q(y)\n"
                 "axiom forall x:nat (x + 0 = 3 => P(x))\ngoal q2 : Q(2)\n")
# narrowing the fully flexible P(x) guesses x = S(y); on the fly that step
# waits until nothing else is left, and Q(0) saturates once it is taken
NARROW_SUCC = ("use arith\npred P : (nat)\npred Q : (nat)\nR pq: P(S(y)) -> Q(S(y))\n"
               "axiom forall x:nat P(x)\ngoal q0 : Q(0)\ngoal q2 : Q(2)\n")


def theory_file(tmp_path, text: str) -> str:
    theory = tmp_path / "theory"
    theory.write_text(text)
    return str(theory)


@pytest.mark.parametrize("text, goal, binding, names, citing", [
    ("use arith\n", ["--goal-name", "double"], "X := S(S(0))", 1, ["3"]),
    ("use arith\n", ["--goal", "exists x:nat x + 0 = 3"], "X := S(S(S(0)))", 1, ["3"]),
    (NARROW_FROZEN, ["--goal-name", "q2"], "y := S(S(0))", 3, ["4", "5", "6"]),
], ids=["double", "x+0=3", "narrow-frozen"])
def test_on_the_fly_proves_goals_whose_constraints_need_the_e_rules(
        tmp_path, capsys, text, goal, binding, names, citing):
    # propagation fails syntactically, so the clause keeps its constraints
    # frozen and the gate solves them modulo the E-rules
    code = cli.main(["prove", "--theory", theory_file(tmp_path, text), "--strategy", "onfly",
                     *goal])
    assert code == cli.EXIT_PROVED
    out = capsys.readouterr().out
    assert "verdict: PROVED\n" in out
    assert f"\n  {binding}\n" in out.split("solution:")[1]
    # a clause keeps the variable names of the constraints it inherits, so
    # the first frozen equation is c1 in every clause below it, and the
    # table names each equation once
    assert len(re.findall(r"^  c\d+: ", out, re.M)) == names
    cited = re.findall(r"^(\d+)\. .* / (.*)$", out, re.M)
    assert [cid for cid, _ in cited] == citing
    assert all("c1" in refs.split(", ") for _, refs in cited)


@pytest.mark.parametrize("text, goal", [(ARITH_WITH_P, "clash"), (DIAGONAL, "diag"),
                                        (SUCC_ZERO, "s0")],
                         ids=["clash", "diag", "s0"])
def test_on_the_fly_saturates_past_a_constraint_that_fails_modulo_the_e_rules(
        tmp_path, capsys, text, goal):
    # P(0) = P(S(0)) clashes on symbols no E-rule rewrites; without E-rules
    # every syntactic failure is a refutation; the gate refutes S(x) = 0
    code = cli.main(["prove", "--theory", theory_file(tmp_path, text), "--strategy", "onfly",
                     "--goal-name", goal])
    assert code == cli.EXIT_SATURATED
    assert "verdict: SATURATED\n" in capsys.readouterr().out


@pytest.mark.parametrize("text, goal", [
    ("use arith\n", ["--goal-name", "double"]),
    ("use arith\n", ["--goal", "exists x:nat x + 0 = 3"]),
    (SUCC_ZERO, ["--goal-name", "s0"]),
    ("use arith\n", ["--goal", "exists x:nat (x * x = 9)"]),
    ("use arith\n", ["--goal", "exists x:nat (x + x = 3)"]),
    ("use arith\n", ["--goal", "exists x:nat exists y:nat (x + y = 4)"]),
    (NARROW_FROZEN, ["--goal-name", "q2"]),
    (NARROW_SUCC, ["--goal-name", "q0"]),
    (NARROW_SUCC, ["--goal-name", "q2"]),
], ids=["double", "x+0=3", "S(x)=0", "x*x=9", "x+x=3", "x+y=4", "narrow-frozen",
        "narrow-succ-q0", "narrow-succ-q2"])
def test_on_the_fly_agrees_with_freeze(tmp_path, capsys, text, goal):
    # freeze is the reference: both strategies must reach the same verdict
    theory = theory_file(tmp_path, text)
    outcomes = []
    for strategy in ("freeze", "onfly"):
        code = cli.main(["prove", "--theory", theory, "--strategy", strategy, *goal])
        verdict = re.search(r"^verdict: (\w+)$", capsys.readouterr().out, re.M).group(1)
        outcomes.append((code, verdict))
    assert outcomes[0] == outcomes[1]


# P(X) is fully flexible: freeze's filter narrows it, guessing X = S(y),
# while the on-the-fly filter defers the step until the passive set is empty
NARROW_FLEXIBLE = ("use arith\npred P : (nat)\npred Q : (nat)\nR pq: P(S(y)) -> Q(y)\n"
                   "axiom forall x:nat P(x)\ngoal q2 : Q(2)\n")


def test_on_the_fly_builds_the_narrowing_steps_it_deferred(tmp_path, capsys):
    theory = theory_file(tmp_path, NARROW_FLEXIBLE)
    for strategy in ("freeze", "onfly"):
        assert cli.main(["prove", "--theory", theory, "--strategy", strategy,
                         "--goal-name", "q2"]) == cli.EXIT_PROVED
        out = capsys.readouterr().out
        assert "verdict: PROVED\n" in out
        assert "exhausted:" not in out


# P(X) \/ R(X) and ~T(X) \/ P(X) defer narrowing P(X), and their resolvent
# P(X) then retires both, so only the step deferred for P(X) is built
NARROW_RETIRED = ("use arith\npred P : (nat)\npred Q : (nat)\npred R : (nat)\n"
                  "pred T : (nat)\nR pq: P(S(y)) -> Q(y)\naxiom forall x:nat (P(x) \\/ R(x))\n"
                  "axiom forall x:nat (T(x) => P(x))\naxiom forall x:nat T(x)\n"
                  "goal q2 : Q(2)\n")


def test_the_deferred_steps_of_a_retired_clause_are_dropped(tmp_path, capsys):
    assert cli.main(["prove", "--theory", theory_file(tmp_path, NARROW_RETIRED),
                     "--strategy", "onfly", "--goal-name", "q2"]) == cli.EXIT_PROVED
    out = capsys.readouterr().out
    assert "\n6. resolution(4, 3) | P(X')\n" in out
    assert re.findall(r"^\d+\. narrowing.*$", out, re.M) == ["7. narrowing(6; pq) | Q(y)"]
    assert ", 2 retired by backward subsumption\n" in out


# with fuel 2 the narrowed clause keeps Q(3 * 3) half reduced
NARROW_FUEL = ("use arith\npred P : (nat)\npred Q : (nat)\nR pq: P(S(y)) -> Q(3 * 3)\n"
               "axiom forall x:nat P(x)\ngoal q9 : Q(9)\ngoal q0 : Q(0)\n")


@pytest.mark.parametrize("goal, verdict, exhausted", [
    ("q9", "PROVED_UNVERIFIED", "narrow_depth (14 states)"),
    ("q0", "RESOURCE_OUT", "fuel"),
])
def test_a_clause_left_unnormalized_is_reported(tmp_path, capsys, goal, verdict, exhausted):
    # q0 saturates once 9 = 0 is refuted, so only the fuel-out keeps it
    # from reading as not a theorem
    cli.main(["prove", "--theory", theory_file(tmp_path, NARROW_FUEL), "--strategy", "freeze",
              "--fuel", "2", "--goal-name", goal])
    out = capsys.readouterr().out
    assert "| Q(S(0) * S(S(S(0))) + S(S(S(0))) + S(S(S(0)))) / c1\n" in out
    assert (f"verdict: {verdict}\nexhausted: {exhausted}\nnormalization: fuel exhausted\n"
            in out)


def test_a_theory_file_extends_a_preset(tmp_path, capsys):
    theory = tmp_path / "theory"
    theory.write_text(ARITH_WITH_P)
    assert cli.main(["prove", "--theory", str(theory), "--goal-name", "double"]) == cli.EXIT_PROVED
    assert "verdict: PROVED\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code, discards", [
    # on the fly, the clauses that carry constraints have no unifier, and
    # none of them is a duplicate; a constraint-free variant is subsumed
    ([], cli.EXIT_PROVED, {"subsumed": 391, "tautology": 14}),
    # under freeze, the canonical variant finds the duplicates
    (["--strategy", "freeze", "--max-clauses", "500"], cli.EXIT_RESOURCE_OUT,
     {"duplicate": 60}),
], ids=["onfly", "freeze"])
def test_the_summary_counts_the_discarded_clauses_by_reason(capsys, argv, code, discards):
    # every generated clause of a proof search is kept or discarded
    assert cli.main(["prove", "--theory", "set-cantor", "--goal-name", "cantor", *argv]) \
        == code
    lines = capsys.readouterr().out.splitlines()
    generated, kept = re.fullmatch(r"clauses: (\d+) generated, (\d+) kept",
                                   next(l for l in lines if l.startswith("clauses:"))).groups()
    line = next(l for l in lines if l.startswith("discarded:"))
    total, parts = re.match(r"discarded: (\d+) \((.*)\), \d+ retired", line).groups()
    by_reason = {reason: int(n) for n, reason in (p.split() for p in parts.split(", "))}
    assert by_reason == discards
    assert int(total) == int(generated) - int(kept) == sum(by_reason.values())


def test_the_clause_budget_is_named_when_it_runs_out(capsys):
    code = cli.main(["prove", "--theory", "set-cantor", "--max-clauses", "5",
                     "--goal-name", "cantor"])
    assert code == cli.EXIT_RESOURCE_OUT
    assert "verdict: RESOURCE_OUT\nexhausted: max_clauses\n" in capsys.readouterr().out


def test_input_clauses_do_not_spend_the_clause_budget(capsys):
    # the negated goal clausifies to 199 copies of 0 = 0 and ~0 = 0, beside
    # the axiom; every input clause counts as generated, and the budget of
    # one derived clause is enough for the empty one
    goal = " => ".join(["0 = 0"] * 200)
    code = cli.main(["prove", "--theory", "arith", "--goal", goal, "--max-clauses", "1"])
    assert code == cli.EXIT_PROVED
    assert "\nclauses: 202 generated, 3 kept\n" in capsys.readouterr().out


@pytest.mark.parametrize("goal, exhausted", [
    (["--goal", "exists x:nat (x * x = 9)"], "narrow_depth (35 states)"),
    (["--goal", "exists x:nat x + 0 = 100"], "narrow_depth (17 states)"),
    (["--goal-name", "double", "--narrow-states", "2"], "narrow_states (2 states)"),
])
def test_the_gate_names_the_bound_that_left_a_proof_unverified(capsys, goal, exhausted):
    # the trace digests do not cover the gate's search, so its size is pinned here
    code = cli.main(["prove", "--theory", "arith", "--strategy", "freeze", *goal])
    assert code == cli.EXIT_PROVED_UNVERIFIED
    assert f"verdict: PROVED_UNVERIFIED\nexhausted: {exhausted}\n" in capsys.readouterr().out


def test_normalize_prints_the_normal_form(capsys):
    assert cli.main(["normalize", "--theory", "arith", "2 * 2"]) == 0
    assert "normal form after 7 steps: S(S(S(S(0))))\n" in capsys.readouterr().out


@pytest.mark.parametrize("value, code", [("2", 0), ("3", 1)])
def test_check_solution_accepts_a_root_and_rejects_a_non_root(tmp_path, capsys, value, code):
    constraints = tmp_path / "constraints"
    constraints.write_text("x * 2 = 4\n")
    solution = tmp_path / "solution"
    solution.write_text(f"x := {value}\n")
    assert cli.main(["check-solution", "--theory", "arith", "--constraints", str(constraints),
                     "--solution", str(solution)]) == code
    out = capsys.readouterr().out
    assert out.endswith("all equations pass\n" if code == 0 else "solution rejected\n")


def test_check_solution_compares_deep_normal_forms(tmp_path, capsys):
    constraints = tmp_path / "constraints"
    constraints.write_text("x + 0 = 1000\n")
    solution = tmp_path / "solution"
    solution.write_text("x := 1000\n")
    assert cli.main(["check-solution", "--theory", "arith", "--constraints", str(constraints),
                     "--solution", str(solution)]) == 0
    assert capsys.readouterr().out.endswith("all equations pass\n")


def test_a_solution_with_trailing_input_is_an_input_error(tmp_path, capsys):
    # read up to its first term, the file would state x := S(0), a root
    constraints = tmp_path / "constraints"
    constraints.write_text("x * 2 = 2\n")
    solution = tmp_path / "solution"
    solution.write_text("x := S(0) 0 garbage\n")
    assert cli.main(["check-solution", "--theory", "arith", "--constraints", str(constraints),
                     "--solution", str(solution)]) == cli.EXIT_INPUT_ERROR
    assert "trailing input after" in capsys.readouterr().err


def test_unknown_theory_is_an_input_error(capsys):
    code = cli.main(["prove", "--theory", "no-such-theory", "--goal", "bot"])
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_a_crash_in_the_prover_is_an_internal_error(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "saturate", crash)
    code = cli.main(["prove", "--theory", "arith", "--goal-name", "double"])
    assert code == cli.EXIT_INTERNAL_ERROR
    assert "error: internal error: RuntimeError: boom" in capsys.readouterr().err


class ClosedPipe:
    """A standard output whose reader has gone: every write fails."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["prove", "--theory", "arith", "--goal-name", "double"],
    ["normalize", "--theory", "arith", "2 * 2"],
], ids=["prove", "normalize"])
def test_a_closed_standard_output_is_not_a_crash(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(argv) == cli.EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("size", ["large", "small"])
def test_a_reader_that_closes_early_ends_the_run_with_sigpipe_status(size):
    # the large trace breaks the pipe while it is written, the small output
    # only when it is flushed; buffered either way, as a pipe is by default
    argv = (["prove", "--theory", "set-cantor", "--goal-name", "cantor", "--strategy",
             "freeze", "--max-clauses", "300"] if size == "large"
            else ["normalize", "--theory", "arith", "2 * 2"])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.Popen([sys.executable, "-m", "resmod.cli", *argv], env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    run.stdout.close()  # long before the child writes: it imports resmod first
    err = run.stderr.read()
    run.stderr.close()
    assert run.wait() == 141
    assert err == b""


def test_a_deep_goal_is_proved(capsys):
    # the numeral is 1000 applications of S deep, beyond the interpreter's
    # default recursion limit
    code = cli.main(["prove", "--theory", "arith", "--goal", "exists x:nat x = 1000"])
    assert code == cli.EXIT_PROVED


# P(1100) = P(1099) fails on a rigid clash 1,100 levels down; the narrowed
# clause is ordered by the size of its 1,100-level literal
DEEP_CLASH = "use arith\npred P : (nat)\naxiom P(1100)\ngoal g : P(1099)\n"
DEEP_NARROW = ("use arith\npred P : (nat)\npred Q : (nat)\nR pq: P(S(y)) -> Q(y)\n"
               "axiom P(1100)\ngoal g : Q(1098)\n")
# the rule's left side clashes with P(2999) 3,000 levels down
DEEP_RULE = "use arith\npred P : (nat)\nR deep: P(3000) -> bot\ngoal g : ~P(2999)\n"
# two variant clauses 1,500 literals wide: subsumption maps one to the other
# a literal at a time, 1,500 deep
WIDE_VARIANTS = "sort s\n" + "".join(f"pred P{i} : (s)\n" for i in range(1500)) + "".join(
    "axiom forall %s:s (%s)\n" % (v, " \\/ ".join(f"P{i}({v})" for i in range(1500)))
    for v in "xy") + "goal g : bot\n"


@pytest.mark.parametrize("strategy", ["freeze", "onfly"])
@pytest.mark.parametrize("text", [DEEP_CLASH, DEEP_NARROW, DEEP_RULE, WIDE_VARIANTS],
                         ids=["clash", "narrow", "rule", "wide"])
def test_a_deep_theory_that_is_not_a_theorem_saturates(tmp_path, capsys, text, strategy):
    code = cli.main(["prove", "--theory", theory_file(tmp_path, text), "--strategy", strategy,
                     "--goal-name", "g"])
    assert code == cli.EXIT_SATURATED
    assert "verdict: SATURATED\n" in capsys.readouterr().out


DEEP_SUBSET = "subset s{}(w) : " + "~" * 3000 + "(w in w)\n"


@pytest.mark.parametrize("copies", [1, 2])
def test_a_subset_body_3000_levels_deep_may_be_declared_twice(tmp_path, capsys, copies):
    # the second declaration compares its body with the first one's, which
    # takes no recursion
    text = "use set\n" + "".join(DEEP_SUBSET.format(i) for i in range(1, copies + 1))
    code = cli.main(["prove", "--theory", theory_file(tmp_path, text), "--goal", "bot",
                     "--max-clauses", "10"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_SATURATED
    assert "verdict: SATURATED\n" in out and "error:" not in err


def _nested_numeral(depth: int) -> str:
    return "S(" * depth + "0" + ")" * depth


DEEP = _nested_numeral(5000)


@pytest.mark.parametrize("strategy, solution", [
    ("freeze", f"solution:\n  X := {DEEP}\n"),
    # resolution binds X on the fly, so no constraint is left to solve
    ("onfly", "solution: identity\n"),
], ids=["freeze", "onfly"])
def test_a_goal_nested_5000_levels_deep_is_proved(capsys, strategy, solution):
    code = cli.main(["prove", "--theory", "arith", "--strategy", strategy,
                     "--goal", f"exists x:nat x = {DEEP}"])
    assert code == cli.EXIT_PROVED
    out = capsys.readouterr().out
    assert f"verdict: PROVED\n{solution}" in out
    assert f"\n2. input | ~X = {DEEP}\n" in out


DEEP_F = "f(" * 5000 + "a" + ")" * 5000
# no rules, so P(t) \/ Q(t) keeps only its larger literal eligible; the two
# atoms tie on weight, and the ordering reads their text, 5,000 levels deep
DEEP_ORDERED = (f"sort s\nconst a : s\nfun f : (s) -> s\npred P : (s)\npred Q : (s)\n"
                f"axiom P({DEEP_F}) \\/ Q({DEEP_F})\naxiom ~P({DEEP_F})\n"
                f"goal g : Q({DEEP_F})\n")


@pytest.mark.parametrize("strategy", ["freeze", "onfly"])
def test_a_positive_clause_5000_levels_deep_is_ordered(tmp_path, capsys, strategy):
    code = cli.main(["prove", "--theory", theory_file(tmp_path, DEEP_ORDERED),
                     "--strategy", strategy, "--goal-name", "g"])
    assert code == cli.EXIT_PROVED
    assert "verdict: PROVED\n" in capsys.readouterr().out


DEEP_GOALS = {
    "forall": "forall x:nat " * 5000 + "x = x",
    "exists": "exists x:nat " * 5000 + "x = x",
    "distinct": "".join(f"forall x{i}:nat " for i in range(5000)) + "x0 = x0",
    "negation": "~" * 5000 + "top",
    "implication": "top => " * 5000 + "0 = 0",
    "conjunction": " /\\ ".join(["0 = 0"] * 5000),
    "parentheses": "forall x:nat " + "(" * 5000 + "x" + ")" * 5000 + " = x",
}


@pytest.mark.parametrize("strategy", ["freeze", "onfly"])
@pytest.mark.parametrize("goal", DEEP_GOALS.values(), ids=DEEP_GOALS.keys())
def test_a_proposition_nested_5000_levels_deep_is_proved(capsys, strategy, goal):
    # each is read, clausified and printed in the trace without recursion
    code = cli.main(["prove", "--theory", "arith", "--strategy", strategy, "--goal", goal])
    assert code == cli.EXIT_PROVED
    assert "verdict: PROVED\n" in capsys.readouterr().out


def test_normalize_reads_a_term_nested_5000_levels_deep(capsys):
    assert cli.main(["normalize", "--theory", "arith", DEEP]) == 0
    assert capsys.readouterr().out.endswith(f"normal form after 0 steps: {DEEP}\n")


def test_normalize_contracts_an_eta_redex_whose_body_is_5000_levels_deep(capsys):
    # lam((dor[shift] ... dor[shift] 1)) eta-contracts to the spine of dor,
    # each dor[shift] unshifted, without recursion
    theory = load_preset("hol-sigma")
    assert cli.main(["normalize", "--theory", "hol-sigma",
                     "lam((" + "dor[shift] " * 5000 + "1))"]) == 0
    normal_form = capsys.readouterr().out.split("normal form after 1 steps: ")[1]
    app, dor = theory.sig.lookup("app"), App(theory.sig.lookup("dor"))
    spine = dor
    for _ in range(4999):
        spine = App(app, (spine, dor))
    assert parse_term_or_atom(normal_form.strip(), theory.sig) == spine


def test_check_solution_reads_files_nested_5000_levels_deep(tmp_path, capsys):
    constraints = tmp_path / "constraints"
    constraints.write_text(f"x = {DEEP}\n")
    solution = tmp_path / "solution"
    solution.write_text(f"x := {DEEP}\n")
    assert cli.main(["check-solution", "--theory", "arith", "--constraints", str(constraints),
                     "--solution", str(solution)]) == 0
    assert capsys.readouterr().out.endswith("all equations pass\n")


@pytest.mark.parametrize("goal, error", [
    ("eps(lam(id))", "argument 1 of lam has sort subst, but sort term is needed here "
                     "(line 1, column 5)"),
    ("eps(id)", "argument 1 of eps has sort subst, but sort term is needed here "
                "(line 1, column 1)"),
], ids=["function", "predicate"])
def test_an_ill_sorted_goal_is_an_input_error(capsys, goal, error):
    # lam takes a term, and id is a substitution
    assert cli.main(["prove", "--theory", "hol-sigma", "--goal", goal]) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("theory, constraint, binding", [
    ("hol-sigma", "x = lam(id)", "x := lam(id)"),
    ("arith", "S(x) = S(0)", "S(x) := 0"),
    ("arith", "x = 0", "x := 0\nx := S(0)"),
], ids=["ill-sorted", "not-a-variable", "bound-twice"])
def test_a_malformed_constraint_or_solution_file_is_an_input_error(
        tmp_path, capsys, theory, constraint, binding):
    # each used to be checked as if well formed, its error read as a verdict
    constraints = tmp_path / "constraints"
    constraints.write_text(constraint + "\n")
    solution = tmp_path / "solution"
    solution.write_text(binding + "\n")
    assert cli.main(["check-solution", "--theory", theory, "--constraints",
                     str(constraints), "--solution", str(solution)]) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_normalize_reaches_a_deep_normal_form(capsys):
    assert cli.main(["normalize", "--theory", "arith", "--fuel", "20000", "30 * 30"]) == 0
    assert "normal form after 13111 steps: S(S(" in capsys.readouterr().out


def test_normalize_prints_the_steps_it_shows_and_counts_the_rest(capsys):
    assert cli.main(["normalize", "--theory", "arith", "--show-steps", "2", "2 * 2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["start: S(S(0)) * S(S(0))",
                     "   1  [times_succ] S(0) * S(S(0)) + S(S(0))",
                     "   2  [times_succ] 0 * S(S(0)) + S(S(0)) + S(S(0))",
                     "      ... 5 more steps",
                     "normal form after 7 steps: S(S(S(S(0))))"]


def scan_output(theory: str, expr: str, fuel: int) -> str:
    """What ``normalize --verbose`` prints, stepped with the scan of every
    rule at every node."""
    preset = cli.load_theory(theory)
    value = parse_term_or_atom(expr, preset.sig)
    lines = [f"start: {value}"]
    while len(lines) <= fuel and (red := scan_reduce_once(value, preset.system)) is not None:
        value, rule = red
        lines.append(f"{len(lines):4d}  [{rule}] {value}")
    steps = len(lines) - 1
    if scan_reduce_once(value, preset.system) is None:
        lines.append(f"normal form after {steps} steps: {value}")
    else:
        lines.append(f"FUEL EXHAUSTED after {steps} steps; last value: {value}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("theory, expr, fuel, shown", [
    ("arith", "2 * 3", 10_000, "[plus_zero]"),
    ("hol-sigma", "lam(app(sub(f, shift), 1))", 10_000, "[eta] f\n"),
    ("set-cantor", "a in union(pow(b))", 10_000, "[power]"),
    ("{A -> A => B}", "A", 50, "\nFUEL EXHAUSTED after 50 steps"),
])
def test_normalize_verbose_prints_the_steps_of_a_scan_of_every_rule(capsys, theory, expr, fuel,
                                                                     shown):
    # the steps come from the compiled normalizer, one unit of fuel at a time
    assert cli.main(["normalize", "--theory", theory, "--fuel", str(fuel), "--verbose",
                     expr]) == 0
    out = capsys.readouterr().out
    assert out == scan_output(theory, expr, fuel)
    assert shown in out


@pytest.mark.parametrize("argv", [
    ["normalize", "--theory", "arith", "--fuel", "0", "2 * 2"],
    ["check-solution", "--theory", "arith", "--constraints", "c", "--solution", "s",
     "--fuel", "0"],
    ["prove", "--theory", "arith", "--goal-name", "double", "--fuel", "0"],
    ["prove"],
    ["prove", "--bogus"],
    ["prove", "--theory", "arith", "--goal-name", "double", "--narrow-depth", "-1"],
])
def test_a_bad_command_line_is_an_input_error(capsys, argv):
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--narrow-depth", "--narrow-states"])
def test_a_negative_narrowing_bound_is_named(capsys, option):
    argv = ["prove", "--theory", "arith", "--goal-name", "double", option, "-1"]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    assert "must not be negative" in capsys.readouterr().err


def test_the_trace_goes_to_the_file_named(tmp_path, capsys):
    argv = ["prove", "--theory", "arith", "--goal-name", "double"]
    assert cli.main(argv) == cli.EXIT_PROVED
    printed = capsys.readouterr().out
    path = tmp_path / "trace.txt"
    assert cli.main([*argv, "--trace", str(path)]) == cli.EXIT_PROVED
    summary = capsys.readouterr().out
    assert summary.startswith("verdict: PROVED\n")
    wall_time = re.compile(r"wall time: .*")
    assert wall_time.sub("", path.read_text() + summary) == wall_time.sub("", printed)


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_a_trace_path_that_cannot_be_written_is_rejected_before_the_search(
        tmp_path, monkeypatch, capsys, where):
    searches = []
    monkeypatch.setattr(cli, "saturate", lambda *args: searches.append(args))
    path = tmp_path if where == "directory" else tmp_path / "missing" / "trace.txt"
    code = cli.main(["prove", "--theory", "arith", "--goal-name", "double",
                     "--trace", str(path)])
    assert (code, searches) == (cli.EXIT_INPUT_ERROR, [])
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "verdict:" not in out


@pytest.mark.parametrize("strategy", ["freeze", "onfly"])
def test_clausification_spends_one_fuel_budget(capsys, strategy):
    # an input clause is normalized once, when it is clausified, so it is
    # left where three rewrite steps reach and not given a second budget
    arith = load_preset("arith")
    expected = normalize(parse_prop("2 * 2 = 4", arith.sig), arith.system, 3)
    assert not expected.normal
    cli.main(["prove", "--theory", "arith", "--goal", "2 * 2 = 4", "--fuel", "3",
              "--strategy", strategy])
    out = capsys.readouterr().out
    assert f"\n2. input | ~{expected.value}\n" in out
    assert "\nnormalization: fuel exhausted\n" in out


@pytest.mark.parametrize("argv, code, steps", [
    (["--theory", "arith", "--goal-name", "double"], cli.EXIT_PROVED,
     "1 resolution, 0 narrowing, 0 factoring"),
    (["--theory", "set-cantor", "--goal-name", "cantor"], cli.EXIT_PROVED,
     "241 resolution, 14 narrowing, 27 factoring"),
    # the budget, which the 6 input clauses do not spend, runs out while a
    # kept resolvent (clause 145) is factored; the resolution that kept it
    # counts
    (["--theory", "set-cantor", "--goal-name", "cantor", "--max-clauses", "294"],
     cli.EXIT_RESOURCE_OUT, "102 resolution, 8 narrowing, 18 factoring"),
], ids=["double", "set-cantor", "set-cantor-294"])
def test_the_summary_counts_the_inferences_that_kept_a_clause(capsys, argv, code, steps):
    # the one that derived the empty clause included
    assert cli.main(["prove", *argv]) == code
    assert f"\nsteps: {steps}\n" in capsys.readouterr().out


ROLE_SIGNATURE = ("sort s\nconst a : s\nfun f : (s) -> s\nfun g : (s, s) -> s\n"
                  "pred P : (s)\npred Q : (s, s)\naxiom forall x:s P(x)\n")


@pytest.mark.parametrize("directive, error", [
    ("display f app", "display app needs a binary function symbol, and f is not one"),
    ("display Q sub", "display sub needs a binary function symbol, and Q is not one"),
    ("display P infix", "display infix needs a binary symbol, and P is not one"),
], ids=["app-unary", "sub-predicate", "infix-unary"])
def test_a_display_of_the_wrong_rank_is_an_input_error(tmp_path, capsys, directive, error):
    # a spine or an infix is laid out with two arguments: printing the trace
    # of P(f(a)) under "display f app" used to crash
    theory = tmp_path / "theory"
    theory.write_text(f"{ROLE_SIGNATURE}{directive}\ngoal g : P(f(a))\n")
    assert cli.main(["prove", "--theory", str(theory), "--goal-name", "g"]) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: in theory text: {error} (line 8, column 1)\n"


@pytest.mark.parametrize("text, symbol, line", [
    ("sort s\nfun g : (s, s) -> s\nconst a : s\npred P : (s)\naxiom forall x:s P(g(x, a))\n"
     "display g infix\ngoal h : P(g(a, a))\n", "g", 6),
    ("sort s\nconst a : s\npred Q : (s, s)\ngoal h : Q(a, a)\ndisplay Q infix\n", "Q", 5),
    ("sort s\nconst a : s\npred P : (s)\npred Q : (s, s)\nR q: Q(x, a) -> P(x)\n"
     "display Q infix\ngoal h : P(a)\n", "Q", 6),
    ("use set\ndisplay in prefix\n", "in", 2),
], ids=["axiom", "goal", "rule", "preset"])
def test_a_display_after_a_use_of_its_symbol_is_an_input_error(
        tmp_path, capsys, text, symbol, line):
    # what was read before keeps the symbol it was read with: the axiom used
    # to print as P(g(X, a)) beside the goal's ~P(a g a)
    assert cli.main(["prove", "--theory", theory_file(tmp_path, text),
                     "--goal-name", "h"]) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        f"error: in theory text: display {symbol} must come before the axioms, rules and "
        f"goals that use it (line {line}, column 1)\n")


@pytest.mark.parametrize("argv", [["prove", "--goal-name", "g"], ["normalize", "lam(app(1))"]])
def test_eta_over_symbols_of_the_wrong_rank_is_an_input_error(tmp_path, capsys, argv):
    # contracting lam(app(1)) with a unary app used to crash
    theory = tmp_path / "theory"
    theory.write_text("sort s\nfun lam : (s) -> s\nfun app : (s) -> s\nfun sub : (s, s) -> s\n"
                      "const shift : s\nconst 1 : s\npred P : (s)\neta\n"
                      "axiom forall x:s P(x)\ngoal g : P(lam(app(1)))\n")
    argv = [argv[0], "--theory", str(theory), *argv[1:]]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == ("error: in theory text: eta needs app to be a term "
                                       "symbol of 2 arguments (line 8, column 1)\n")
