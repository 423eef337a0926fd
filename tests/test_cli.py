"""Command-line tests: ``cli.main`` on each subcommand, with its exit code."""

import pytest

from resmod import cli


@pytest.mark.parametrize("theory, goal", [
    ("arith", "double"),
    ("integral-rings", "square_zero"),
    ("chain(10)", "refute"),
    ("set-cantor", "cantor"),
])
def test_named_goal_is_proved_under_the_default_strategy(capsys, theory, goal):
    assert cli.main(["prove", "--theory", theory, "--goal-name", goal]) == cli.EXIT_PROVED
    assert "verdict: PROVED\n" in capsys.readouterr().out


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


def test_a_deep_goal_does_not_read_as_saturated(capsys):
    # the numeral is 400 applications of S deep
    code = cli.main(["prove", "--theory", "arith", "--goal", "exists x:nat x = 400"])
    assert code != cli.EXIT_SATURATED
    assert code in (cli.EXIT_PROVED, cli.EXIT_INTERNAL_ERROR)
