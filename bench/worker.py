"""One workload process: set up, run the attempts, report metrics as JSON.

Started by ``run.py`` with ``PYTHONHASHSEED`` already set from the workload
seed.  Modes:

``plain``  passes over the workload until ``--seconds`` have elapsed (and at
           least ``MIN_PASSES`` passes and ``MIN_ATTEMPTS`` attempts), then
           the end-to-end metrics.
``trace``  one untraced pass, then traced passes until ``--seconds``; the
           per-layer metrics, the tracing overhead and the span file.
``probe``  one traced pass; only the per-attempt trace digests.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter, deque
from pathlib import Path

import tracing
import workloads
from workloads import DECIDED, UNDECIDED, WRONG

MIN_PASSES = 3
MIN_ATTEMPTS = 100
SETUP_REPEATS = 7
# the reference loop's time on the machine that defined the benchmark
# (2-core x86-64 sandbox, Python 3.11); measured times are scaled to it
REFERENCE_S = 0.0009
SAMPLE_EVERY_S = 0.05
SPEED_WINDOW = 16
# stop starting passes after this long, whatever else is asked, so the
# process ends well inside the three minutes a run may take
HARD_STOP_S = 120.0

FAILED = "failed"
TIMEOUT = "timeout"

# Where each workload is predicted to spend its time (largest self times).
PREDICTED_DOMINANT = {
    "saturate-onfly": ("prover.subsumes", "prover.saturate"),
    "freeze-gate": ("unify.e_unify_narrowing",),
    "normalize": ("rewrite.normalize",),
}


class AttemptTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler inside resmod
    that catches Exception can swallow it."""


def _alarm(signum, frame):
    raise AttemptTimeout


def setup(workload: str, seed: int):
    """Import resmod and build the workload ``SETUP_REPEATS`` times.

    Each repetition drops resmod from ``sys.modules`` first, so the import
    runs again.  Returns the last build and the median set-up time, scaled
    like the attempts' times (see ``Speedometer``)."""
    times, reference = [], []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "resmod" or n.startswith("resmod.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        reference += [reference_loop() for _ in range(3)]
        started = time.perf_counter()
        m = workloads.import_resmod()
        attempts = workloads.build(workload, seed, m)
        times.append(time.perf_counter() - started)
    return attempts, statistics.median(times) * REFERENCE_S / statistics.median(reference)


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work: dict, tuple and
    int operations like those of resmod's term code."""
    started = time.perf_counter()
    table = {}
    for i in range(3000):
        table[(i % 97, "k")] = (i, i + 1)
    return time.perf_counter() - started


class Speedometer:
    """The machine's speed around and during each attempt.

    The speed of a shared machine drifts by 10-20 % over seconds to
    minutes, on CPU time as much as on wall time.  So the reference loop
    runs before and after each attempt and, from a profiling timer, every
    ``SAMPLE_EVERY_S`` of CPU time during it.  An attempt's time, less the
    time spent in those samples, is scaled by ``REFERENCE_S`` over the
    median of the last ``SPEED_WINDOW`` samples: the samples of a long
    attempt, or those of the last few short ones.  Measured times thus read
    as seconds on a machine where the loop takes ``REFERENCE_S``.  In the
    traced run the samples fall inside whichever span is open, adding about
    2 % to its self time."""

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=SPEED_WINDOW)
        self.inside = 0.0
        self.armed = False
        signal.signal(signal.SIGPROF, self._tick)

    def _tick(self, signum, frame) -> None:
        if self.armed:
            t = reference_loop()
            self.recent.append(t)
            self.inside += t

    def start(self) -> None:
        self.recent.append(reference_loop())
        self.inside = 0.0
        self.armed = True
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.recent.append(reference_loop())

    def scaled(self, elapsed: float) -> float:
        return (elapsed - self.inside) * REFERENCE_S / statistics.median(self.recent)


def run_attempt(a: workloads.Attempt, speed: Speedometer) -> tuple[str, float, str]:
    """(outcome, charged seconds, note) of one attempt.

    The outcome is DECIDED, UNDECIDED, TIMEOUT or FAILED.  A failed or timed
    out attempt is charged its time limit; the others their scaled time."""
    speed.start()
    signal.setitimer(signal.ITIMER_REAL, a.limit)
    started = time.perf_counter()
    try:
        try:
            out = a.run()
        finally:
            elapsed = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
    except AttemptTimeout:
        return TIMEOUT, a.limit, "time limit"
    except Exception as exc:  # a crash is a result to record, not a reason to stop
        return FAILED, a.limit, f"{type(exc).__name__}: {str(exc)[:80]}"
    finally:
        speed.stop()
    verdict = a.judge(out)
    if verdict == WRONG:
        return FAILED, a.limit, "rejected by the oracle"
    return verdict, speed.scaled(elapsed), ""


def run_pass(attempts, speed: Speedometer, tracer=None) -> list[tuple[str, float, str]]:
    """Run every attempt once; (outcome, charged seconds, note) of each."""
    results = []
    for a in attempts:
        if tracer is None:
            results.append(run_attempt(a, speed))
            continue
        sid = tracer.begin_attempt()
        try:
            results.append(run_attempt(a, speed))
        finally:
            tracer.close(sid)
    return results


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def outcome_counts(attempts, passes) -> tuple[int, int, bool]:
    """(attempted, failed, correct): the run is correct when every failed
    attempt is one that names a known defect."""
    attempted = sum(len(p) for p in passes)
    failed = sum(r[0] == FAILED for p in passes for r in p)
    correct = all(r[0] != FAILED or attempts[i].known for p in passes for i, r in enumerate(p))
    return attempted, failed, correct


def end_to_end(passes, setup_s: float) -> dict:
    charged = [r[1] for p in passes for r in p]
    outcomes = [r[0] for p in passes for r in p]
    attempted = len(outcomes)
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(sum(r[1] for r in p) for p in passes), "s"),
        "solve_s.p50": metric(statistics.median(charged), "s"),
        "solve_s.p90": metric(statistics.quantiles(charged, n=10, method="inclusive")[-1], "s"),
        "decided_ratio": metric(outcomes.count(DECIDED) / attempted, "1"),
        "failed_ratio": metric(outcomes.count(FAILED) / attempted, "1"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# (metric suffix, tally key, kind): "count" reports the tally, "ratio"
# divides it by the number of calls
LAYER_EXTRAS = {
    "rewrite.normalize": (("steps", "steps", "count"), ("fuel_out", "fuel_out", "count"),
                          ("noop_ratio", "noop", "ratio")),
    "clausal.clausal_form": (("clauses_out", "clauses_out", "count"),),
    "clausal.renormalize_clause": (("changed_ratio", "changed", "ratio"),),
    "prover.extended_resolution": (("out", "out", "count"),),
    "prover.factor": (("out", "out", "count"),),
    "prover.extended_narrowing": (("out", "out", "count"),),
    "prover.redundancy_filter": (("kept_ratio", "kept", "ratio"),
                                 ("tautology", "tautology", "count"),
                                 ("duplicate", "duplicate", "count"),
                                 ("subsumed", "subsumed", "count")),
    "prover.subsumes": (("hit_ratio", "true", "ratio"),),
    "unify.e_unify_narrowing": (("solutions", "solutions", "count"),
                                ("unsat", "unsat", "count"),
                                ("unknown_depth", "unknown_depth", "count"),
                                ("unknown_states", "unknown_states", "count")),
    "unify.check_solution": (("ok_ratio", "ok", "ratio"), ("fuel_out", "fuel_out", "count")),
    "unify.propagate_on_the_fly": (("failed_ratio", "failed", "ratio"),),
    "unify.cheap_fail": (("hit_ratio", "true", "ratio"),),
}
# prover.saturate and prover.format_trace report self time only; the search
# counts of every saturate call are reported as prover.<count>
SELF_ONLY = ("prover.saturate", "prover.format_trace")
SEARCH_COUNTS = ("generated", "kept", "selected", "discarded", "failed_constraints",
                 "gate_calls", "proof_len")


def per_layer(tallies: dict, self_s: dict) -> dict:
    out = {}
    for target in tracing.TARGETS:
        name, t = target.name, tallies[target.name]
        if name not in SELF_ONLY:
            out[f"{name}.calls"] = metric(t["calls"], "count")
        out[f"{name}.self_s"] = metric(self_s[name], "s")
        for suffix, key, kind in LAYER_EXTRAS.get(name, ()):
            value = t[key] / t["calls"] if kind == "ratio" and t["calls"] else t[key]
            out[f"{name}.{suffix}"] = metric(value, "1" if kind == "ratio" else "count")
    for key in SEARCH_COUNTS:
        out[f"prover.{key}"] = metric(tallies["prover.saturate"][key], "count")
    return out


def traced_passes(attempts, speed, seconds: float, spans_path: Path):
    """Traced passes until ``seconds``.

    Returns the first pass's results, tallies and digests, the median self
    times and the charged walls over all passes, and the number of spans
    written to ``spans_path`` (those of the first pass)."""
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        walls, selfs = [], []
        started = time.perf_counter()
        while True:
            tracer.reset()
            results = run_pass(attempts, speed, tracer)
            walls.append(sum(r[1] for r in results))
            selfs.append(tracer.self_times())
            if len(walls) == 1:
                first = results
                tallies = {k: Counter(v) for k, v in tracer.tallies.items()}
                digests = tracer.digests
                spans = tracer.write_spans(spans_path)
            elapsed = time.perf_counter() - started
            if elapsed >= seconds or elapsed >= HARD_STOP_S:
                break
    finally:
        installed.restore()
    self_s = {name: statistics.median(s[name] for s in selfs) for name in tracer.names}
    return first, tallies, digests, self_s, walls, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["plain", "trace", "probe"], default="plain")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    speed = Speedometer()
    attempts, setup_s = setup(args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"PYTHONHASHSEED {os.environ.get('PYTHONHASHSEED')}  attempts/pass {len(attempts)}")

    if args.mode == "probe":
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            run_pass(attempts, speed, tracer)
        finally:
            installed.restore()
        print(json.dumps({"digests": tracer.digests}))
        return 0

    if args.mode == "trace":
        untraced = sum(r[1] for r in run_pass(attempts, speed))
        first, tallies, digests, self_s, walls, spans = traced_passes(
            attempts, speed, args.seconds, args.spans)
        metrics = per_layer(tallies, self_s)
        metrics["trace.overhead_s"] = metric(statistics.median(walls) - untraced, "s")
        metrics["trace.spans"] = metric(spans, "count")
        report_dominant(args.workload, self_s)
        for name, v in metrics.items():
            print(f"  {name:45s} {v['value']:>14.6g} {v['unit']}")
        attempted, failed, correct = outcome_counts(attempts, [first])
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics, "digests": digests}))
        return 0

    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(attempts, speed))
        elapsed = time.perf_counter() - started
        if elapsed >= HARD_STOP_S:
            break
        if (elapsed >= args.seconds and len(passes) >= MIN_PASSES
                and len(passes) * len(attempts) >= MIN_ATTEMPTS):
            break
    metrics = end_to_end(passes, setup_s)
    attempted, failed, correct = outcome_counts(attempts, passes)
    report_families(attempts, passes)
    for name, v in metrics.items():
        print(f"  {name:15s} {v['value']:>12.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report_families(attempts, passes) -> None:
    """One line per family: outcomes of the first pass, median charged time."""
    first = passes[0]
    print(f"passes {len(passes)}")
    for family in dict.fromkeys(a.family for a in attempts):
        idx = [i for i, a in enumerate(attempts) if a.family == family]
        outcomes = [first[i][0] for i in idx]
        med = statistics.median(p[i][1] for p in passes for i in idx)
        counts = "  ".join(f"{o} {outcomes.count(o)}" for o in
                           (DECIDED, UNDECIDED, TIMEOUT, FAILED) if outcomes.count(o))
        print(f"  {family:15s} x{len(idx):<3d} median {med:8.4f} s  {counts}")
        print(f"  {'':15s} why: {workloads.FAMILIES[family]}")
        for i in idx:
            if first[i][0] == FAILED:
                known = f" (known: {attempts[i].known})" if attempts[i].known else " (UNEXPECTED)"
                print(f"  {'':15s} failed {attempts[i].label}: {first[i][2]}{known}")


def report_dominant(workload: str, self_s: dict) -> None:
    """Compare the layers with the largest self time with the prediction."""
    predicted = PREDICTED_DOMINANT[workload]
    total = sum(self_s.values())
    layers = sorted((n for n in self_s if n != tracing.ATTEMPT), key=self_s.get, reverse=True)
    top = layers[:len(predicted)]
    share = sum(self_s[n] for n in predicted) / total
    verdict = "confirmed" if set(top) == set(predicted) else "MISMATCH"
    print(f"dominant layers {verdict}: predicted {', '.join(predicted)} "
          f"({share:.1%} of traced time)")
    for n in layers[:6]:
        print(f"  {n:35s} self {self_s[n]:9.4f} s  {self_s[n] / total:6.1%}")
    print(f"  {'(outside the measured layers)':35s} self {self_s[tracing.ATTEMPT]:9.4f} s")


if __name__ == "__main__":
    sys.exit(main())
