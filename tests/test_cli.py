"""Command-line tests: ``cli.main`` on each subcommand, with its exit code."""

import re

import pytest

from resmod import cli
from resmod.parser import parse_prop
from resmod.rewrite import normalize
from resmod.theories import load_preset


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


def theory_file(tmp_path, text: str) -> str:
    theory = tmp_path / "theory"
    theory.write_text(text)
    return str(theory)


@pytest.mark.parametrize("text, goal, binding", [
    ("use arith\n", ["--goal-name", "double"], "X := S(S(0))"),
    ("use arith\n", ["--goal", "exists x:nat x + 0 = 3"], "X := S(S(S(0)))"),
    (NARROW_FROZEN, ["--goal-name", "q2"], "y := S(S(0))"),
], ids=["double", "x+0=3", "narrow-frozen"])
def test_on_the_fly_proves_goals_whose_constraints_need_the_e_rules(
        tmp_path, capsys, text, goal, binding):
    # propagation fails syntactically, so the clause keeps its constraints
    # frozen and the gate solves them modulo the E-rules
    code = cli.main(["prove", "--theory", theory_file(tmp_path, text), "--strategy", "onfly",
                     *goal])
    assert code == cli.EXIT_PROVED
    out = capsys.readouterr().out
    assert "verdict: PROVED\n" in out
    assert f"\n  {binding}\n" in out.split("solution:")[1]


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
], ids=["double", "x+0=3", "S(x)=0", "x*x=9", "x+x=3", "x+y=4", "narrow-frozen"])
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
# while the on-the-fly filter skips the step and nothing ever instantiates X
NARROW_FLEXIBLE = ("use arith\npred P : (nat)\npred Q : (nat)\nR pq: P(S(y)) -> Q(y)\n"
                   "axiom forall x:nat P(x)\ngoal q2 : Q(2)\n")


def test_a_search_the_on_the_fly_narrowing_filter_cut_short_is_not_saturated(
        tmp_path, capsys):
    theory = theory_file(tmp_path, NARROW_FLEXIBLE)
    assert cli.main(["prove", "--theory", theory, "--strategy", "freeze",
                     "--goal-name", "q2"]) == cli.EXIT_PROVED
    assert "verdict: PROVED\n" in capsys.readouterr().out
    assert cli.main(["prove", "--theory", theory, "--strategy", "onfly",
                     "--goal-name", "q2"]) == cli.EXIT_RESOURCE_OUT
    assert ("verdict: RESOURCE_OUT\nexhausted: narrowing_filter (1 skipped)\n"
            in capsys.readouterr().out)


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


def test_the_summary_counts_the_discarded_clauses_by_reason(capsys):
    # every generated clause of a proof search is kept or discarded
    assert cli.main(["prove", "--theory", "set-cantor", "--goal-name", "cantor"]) \
        == cli.EXIT_PROVED
    lines = capsys.readouterr().out.splitlines()
    generated, kept = re.fullmatch(r"clauses: (\d+) generated, (\d+) kept",
                                   next(l for l in lines if l.startswith("clauses:"))).groups()
    line = next(l for l in lines if l.startswith("discarded:"))
    total, parts = re.match(r"discarded: (\d+) \((.*)\), \d+ retired", line).groups()
    by_reason = {reason: int(n) for n, reason in (p.split() for p in parts.split(", "))}
    assert int(total) == int(generated) - int(kept) == sum(by_reason.values())
    assert set(by_reason) == {"tautology", "duplicate", "subsumed"}


def test_the_clause_budget_is_named_when_it_runs_out(capsys):
    code = cli.main(["prove", "--theory", "set-cantor", "--max-clauses", "5",
                     "--goal-name", "cantor"])
    assert code == cli.EXIT_RESOURCE_OUT
    assert "verdict: RESOURCE_OUT\nexhausted: max_clauses\n" in capsys.readouterr().out


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


@pytest.mark.parametrize("strategy", ["freeze", "onfly"])
@pytest.mark.parametrize("text", [DEEP_CLASH, DEEP_NARROW], ids=["clash", "narrow"])
def test_a_deep_theory_that_is_not_a_theorem_saturates(tmp_path, capsys, text, strategy):
    code = cli.main(["prove", "--theory", theory_file(tmp_path, text), "--strategy", strategy,
                     "--goal-name", "g"])
    assert code == cli.EXIT_SATURATED
    assert "verdict: SATURATED\n" in capsys.readouterr().out


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


def test_normalize_reads_a_term_nested_5000_levels_deep(capsys):
    assert cli.main(["normalize", "--theory", "arith", DEEP]) == 0
    assert capsys.readouterr().out.endswith(f"normal form after 0 steps: {DEEP}\n")


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
    # the budget runs out while a kept resolvent (clause 145) is factored;
    # the resolution that kept it counts
    (["--theory", "set-cantor", "--goal-name", "cantor", "--max-clauses", "300"],
     cli.EXIT_RESOURCE_OUT, "102 resolution, 8 narrowing, 18 factoring"),
], ids=["double", "set-cantor", "set-cantor-300"])
def test_the_summary_counts_the_inferences_that_kept_a_clause(capsys, argv, code, steps):
    # the one that derived the empty clause included
    assert cli.main(["prove", *argv]) == code
    assert f"\nsteps: {steps}\n" in capsys.readouterr().out
