"""Command-line front end.

Subcommands:
  prove           negate a goal, clausify, saturate, print the trace
  normalize       print the reduction sequence of a term or proposition
  check-solution  verify a substitution against a constraint file

Exit codes for ``prove``: 0 PROVED, 1 SATURATED, 2 RESOURCE_OUT, 4
PROVED_UNVERIFIED; after the last two the summary's ``exhausted:`` line
names why.  For 2 that is ``max_clauses`` (the clause budget), or
``fuel`` for a search that ran out of inferences after normalization ran
out of fuel.
For 4 it is the bound the gate's narrowing hit, ``narrow_depth`` or
``narrow_states``, with the number of states it examined.  Whatever the
verdict, the summary's ``normalization: fuel exhausted`` line says that
some kept clause was left unnormalized (``--fuel``).
``check-solution`` exits 0 when the substitution solves every equation and
1 when it does not; ``normalize`` exits 0.  Every subcommand exits 3 on an
input error, a malformed command line included, and 5 on an internal error
(resmod itself failed), so neither reads as a verdict.  ``--theory``
accepts a preset name (``arith``, ``integral-rings``, ``chain(n)``,
``hol-comb``, ``hol-sigma``, ``set``, ``set-cantor``), a theory file path,
or an inline rule set in braces such as ``'{A -> A => B}'``.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from .kernel import Not, Prop
from .parser import ParseError, parse_constraints, parse_inline_rules, parse_prop, \
    parse_substitution, parse_term_or_atom
from .prover import FREEZE, ON_THE_FLY, PROVED, PROVED_UNVERIFIED, RESOURCE_OUT, SATURATED, \
    ProverConfig, SearchResult, format_trace, saturate
from .rewrite import normalize, reduce_once
from .theories import TheoryPreset, UnknownPresetError, load_preset, parse_theory_file
from .unify import FUEL, PASS, check_solution

EXIT_PROVED = 0
EXIT_SATURATED = 1
EXIT_RESOURCE_OUT = 2
EXIT_INPUT_ERROR = 3
EXIT_PROVED_UNVERIFIED = 4
EXIT_INTERNAL_ERROR = 5

_VERDICT_EXIT = {
    PROVED: EXIT_PROVED,
    SATURATED: EXIT_SATURATED,
    RESOURCE_OUT: EXIT_RESOURCE_OUT,
    PROVED_UNVERIFIED: EXIT_PROVED_UNVERIFIED,
}


@dataclass
class RunReport:
    """One ``prove`` run: the search's result, the trace written from it,
    and the wall time the search took."""

    result: SearchResult
    trace: str
    wall_time: float

    @property
    def verdict(self) -> str:
        return self.result.verdict

    @property
    def exit_code(self) -> int:
        return _VERDICT_EXIT[self.verdict]

    def summary(self) -> str:
        result, stats = self.result, self.result.stats
        notes = [f"exhausted: {result.exhausted}"] if result.exhausted else []
        if result.unnormalized:
            notes.append("normalization: fuel exhausted")
        discards = ", ".join(f"{n} {r}" for r, n in sorted(stats.discards.items()))
        return "\n".join([
            f"verdict: {result.verdict}",
            *notes,
            f"clauses: {stats.generated} generated, {stats.kept} kept",
            (f"discarded: {stats.discarded} ({discards or 'none'}), "
             f"{stats.retired} retired by backward subsumption"),
            f"steps: {', '.join(f'{n} {kind}' for kind, n in stats.steps.items())}",
            f"wall time: {self.wall_time:.3f}s",
        ])


def load_theory(spec: str) -> TheoryPreset:
    spec = spec.strip()
    if spec.startswith("{"):
        return parse_inline_rules(spec)
    try:
        return load_preset(spec)
    except UnknownPresetError:
        pass
    path = Path(spec)
    if path.exists():
        return parse_theory_file(path.read_text())
    raise UnknownPresetError(
        f"--theory {spec!r} is neither a preset, an inline rule set, nor a file")


def _config(args: argparse.Namespace, theory: TheoryPreset) -> ProverConfig:
    strategy = {"freeze": FREEZE, "onfly": ON_THE_FLY, None: theory.default_strategy}[
        args.strategy]
    return ProverConfig(
        strategy=strategy,
        fuel=args.fuel,
        max_clauses=args.max_clauses,
        narrowing_depth=args.narrow_depth,
        narrow_states=args.narrow_states,
    )


def run_prove(theory: TheoryPreset, goal: Prop, cfg: ProverConfig) -> RunReport:
    started = time.monotonic()
    result = saturate([*theory.axioms, Not(goal)], theory.system, theory.sig, cfg)
    elapsed = time.monotonic() - started
    header = {
        "theory": theory.name,
        "goal": str(goal),
        "strategy": cfg.strategy,
    }
    return RunReport(result, format_trace(result, header, theory.sig), elapsed)


def cmd_prove(args: argparse.Namespace) -> int:
    try:
        theory = load_theory(args.theory)
        if args.goal_name:
            if args.goal_name not in theory.goals:
                raise ParseError(f"theory has no goal named {args.goal_name!r}")
            goal = theory.goals[args.goal_name]
        else:
            text = args.goal
            if args.goal_file:
                text = Path(args.goal_file).read_text()
            if text is None or not text.strip():
                raise ParseError("no goal given (use --goal, --goal-file or --goal-name)")
            goal = parse_prop(text, theory.sig)
        cfg = _config(args, theory)
        # opened before the search, so that a trace path that cannot be
        # written is an input error and no search runs in vain
        trace_out = open(args.trace, "w") if args.trace else nullcontext(sys.stdout)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    with trace_out as stream:
        report = run_prove(theory, goal, cfg)
        print(report.trace, end="", file=stream)
    print(report.summary())
    return report.exit_code


def cmd_normalize(args: argparse.Namespace) -> int:
    try:
        theory = load_theory(args.theory)
        x = parse_term_or_atom(args.expr, theory.sig)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    outcome = normalize(x, theory.system, args.fuel)
    print(f"start: {x}")
    shown = outcome.steps if args.verbose else max(0, min(outcome.steps, args.show_steps))
    value = x
    for i in range(1, shown + 1):
        value, rule = reduce_once(value, theory.system)
        print(f"{i:4d}  [{rule}] {value}")
    hidden = outcome.steps - shown
    if hidden > 0:
        print(f"      ... {hidden} more steps")
    if outcome.normal:
        print(f"normal form after {outcome.steps} steps: {outcome.value}")
        return 0
    print(f"FUEL EXHAUSTED after {outcome.steps} steps; last value: {outcome.value}")
    return 0


def cmd_check_solution(args: argparse.Namespace) -> int:
    try:
        theory = load_theory(args.theory)
        env: dict = {}
        constraints = parse_constraints(Path(args.constraints).read_text(),
                                        theory.sig, env)
        solution = parse_substitution(Path(args.solution).read_text(),
                                      theory.sig, env)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    check = check_solution(solution, constraints, theory.system, args.fuel)
    for i, verdict in enumerate(check.verdicts, start=1):
        mark = {PASS: "ok", FUEL: "fuel exhausted"}.get(verdict.status, "FAIL")
        print(f"equation {i}: {mark}   {verdict.constraint}")
    print("all equations pass" if check.ok else "solution rejected")
    return 0 if check.ok else 1


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as an input error, not as argparse's
    exit code 2, which is RESOURCE_OUT."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _fuel(text: str) -> int:
    try:
        fuel = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if fuel < 1:
        raise argparse.ArgumentTypeError("fuel must be positive")
    return fuel


def build_arg_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="resmod",
                         description="first-order prover modulo a rewrite system")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="refute the negation of a goal")
    p.add_argument("--theory", required=True)
    p.add_argument("--goal")
    p.add_argument("--goal-file")
    p.add_argument("--goal-name")
    p.add_argument("--strategy", choices=["freeze", "onfly"])
    p.add_argument("--fuel", type=_fuel, default=10_000)
    p.add_argument("--max-clauses", type=int, default=5_000)
    p.add_argument("--narrow-depth", type=int, default=8)
    p.add_argument("--narrow-states", type=int, default=4_000)
    p.add_argument("--trace", help="write the trace to this file instead of stdout")
    p.set_defaults(func=cmd_prove)

    n = sub.add_parser("normalize", help="print a reduction sequence")
    n.add_argument("--theory", required=True)
    n.add_argument("--fuel", type=_fuel, default=10_000)
    n.add_argument("--show-steps", type=int, default=20)
    n.add_argument("--verbose", action="store_true",
                   help="print every step, each with its reduct in full")
    n.add_argument("expr")
    n.set_defaults(func=cmd_normalize)

    c = sub.add_parser("check-solution", help="verify a substitution against constraints")
    c.add_argument("--theory", required=True)
    c.add_argument("--constraints", required=True)
    c.add_argument("--solution", required=True)
    c.add_argument("--fuel", type=_fuel, default=10_000)
    c.set_defaults(func=cmd_check_solution)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a malformed command line
        return exc.code
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
