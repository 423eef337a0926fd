"""Tests of the benchmark's own code: oracles, wrappers, self-time arithmetic.

    python3 -m pytest bench
"""

from __future__ import annotations

import hashlib
import itertools
import json
import signal
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import pytest

import oracles
import tracing
import worker
import workloads


@pytest.fixture(scope="module")
def m():
    return workloads.import_resmod()


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def test_the_eight_three_literal_sign_patterns_are_unsatisfiable():
    patterns = [tuple(zip((1, 2, 3), signs))
                for signs in itertools.product((True, False), repeat=3)]
    assert not oracles.cnf_satisfiable(3, patterns)
    for i in range(8):
        assert oracles.cnf_satisfiable(3, patterns[:i] + patterns[i + 1:])


def test_truth_table_on_small_cases():
    assert oracles.cnf_satisfiable(1, [])
    assert not oracles.cnf_satisfiable(1, [((1, True),), ((1, False),)])
    assert oracles.cnf_satisfiable(2, [((1, True), (2, True)), ((1, False),)])
    assert not oracles.cnf_satisfiable(2, [((1, True), (2, True)), ((1, False),),
                                           ((2, False),)])


def test_plus_2_2_gives_church_4(m):
    sigma = m.theories.load_preset("hol-sigma")
    ap, church, plus, mult = workloads.church_terms(m.kernel, sigma.sig)
    for op, a, b, want in ((plus, 2, 2, 4), (mult, 2, 3, 6), (plus, 0, 1, 1)):
        outcome = m.rewrite.normalize(ap(op, church(a), church(b)), sigma.system)
        assert outcome.normal
        assert oracles.shape(outcome.value) == oracles.church_normal_form(want)
    assert oracles.church_normal_form(4) != oracles.church_normal_form(3)


def test_numeral_oracles(m):
    num = m.theories.load_preset("arith").sig.numeral
    assert oracles.numeral_value(num(7)) == 7
    assert oracles.numeral_value(num(0)) == 0
    assert oracles.numeral_text_value("S(S(0))") == 2
    assert oracles.numeral_text_value("0") == 0
    assert oracles.numeral_text_value("S(x)") is None
    assert oracles.numeral_text_value("S(S(0)") is None
    assert [k for k in range(30) if oracles.is_square(k)] == [0, 1, 4, 9, 16, 25]


def test_solution_of_a_trace():
    trace = "verdict: PROVED\nsolution:\n  X := S(S(0))\n  Y := 0\n"
    assert oracles.trace_solution(trace) == {"X": "S(S(0))", "Y": "0"}
    assert oracles.solution_has_root(trace, lambda r: r * r == 4)
    assert not oracles.solution_has_root(trace, lambda r: r * r == 9)
    assert oracles.trace_solution("verdict: SATURATED\n") == {}


# ---------------------------------------------------------------------------
# Attempts
# ---------------------------------------------------------------------------


def attempt(run, judge=lambda out: workloads.DECIDED, limit=1.0, known=None):
    return workloads.Attempt("test", "test", limit, run, judge, known)


def test_run_attempt_charges_the_limit_to_timeouts_and_failures():
    signal.signal(signal.SIGALRM, worker._alarm)
    speed = worker.Speedometer()

    def spin():
        while True:
            pass

    assert worker.run_attempt(attempt(spin, limit=0.05), speed)[:2] == (worker.TIMEOUT, 0.05)
    assert worker.run_attempt(attempt(lambda: 1 / 0), speed)[:2] == (worker.FAILED, 1.0)
    wrong = attempt(lambda: None, judge=lambda out: workloads.WRONG)
    assert worker.run_attempt(wrong, speed)[:2] == (worker.FAILED, 1.0)
    outcome, charged, _ = worker.run_attempt(attempt(lambda: None), speed)
    assert outcome == workloads.DECIDED and charged < 1.0


def test_speedometer_samples_during_an_attempt_and_discounts_the_samples():
    speed = worker.Speedometer()
    speed.start()
    deadline = time.process_time() + 0.3
    while time.process_time() < deadline:
        pass
    speed.stop()
    samples = list(speed.recent)
    assert len(samples) >= 4  # before, after, and every 0.05 s of CPU time
    assert speed.inside == pytest.approx(sum(samples[1:-1]))
    elapsed = 0.3 + speed.inside
    expected = 0.3 * worker.REFERENCE_S / statistics.median(samples)
    assert speed.scaled(elapsed) == pytest.approx(expected)


def test_only_failures_without_a_known_defect_make_a_run_incorrect():
    attempts = [attempt(None), attempt(None, known="a known defect")]
    ok = (workloads.DECIDED, 0.1, "")
    bad = (worker.FAILED, 1.0, "")
    assert worker.outcome_counts(attempts, [[ok, bad], [ok, bad]]) == (4, 2, True)
    assert worker.outcome_counts(attempts, [[bad, ok]]) == (2, 1, False)


def test_workloads_are_seeded(m):
    for name in workloads.WORKLOADS:
        a = [x.label for x in workloads.build(name, 7, m)]
        assert a == [x.label for x in workloads.build(name, 7, m)]
        assert a != [x.label for x in workloads.build(name, 8, m)]


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def binding_sites(target):
    """(owner, attribute) pairs that refer to the target's original function."""
    home = sys.modules[target.module]
    if "." in target.attr:
        cls_name, meth = target.attr.split(".")
        return [(getattr(home, cls_name), meth)]
    original = getattr(home, target.attr)
    return [(mod, attr) for mod in tracing.resmod_modules()
            for attr, value in vars(mod).items() if value is original]


def test_wrappers_cover_every_binding_site_and_restore_the_originals(m):
    before = {t.name: [(owner, attr, owner.__dict__[attr]) for owner, attr in binding_sites(t)]
              for t in tracing.TARGETS}
    # the by-name imports the wrappers must follow
    assert len(before["rewrite.normalize"]) >= 4
    assert len(before["unify.check_solution"]) >= 3
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        for target in tracing.TARGETS:
            for owner, attr, original in before[target.name]:
                assert owner.__dict__[attr].__wrapped__ is original, (target.name, attr)
        originals = {id(site[2]) for sites in before.values() for site in sites}
        for module in tracing.resmod_modules():
            assert not any(id(v) in originals for v in vars(module).values()), module
    finally:
        installed.restore()
    for target in tracing.TARGETS:
        for owner, attr, original in before[target.name]:
            assert owner.__dict__[attr] is original


def test_wrapped_calls_are_counted_through_by_name_imports(m):
    arith = m.theories.load_preset("arith")
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        sid = tracer.begin_attempt()
        report = m.cli.run_prove(workloads.fresh(arith), arith.goals["double"],
                                 m.prover.ProverConfig())
        tracer.close(sid)
    finally:
        installed.restore()
    assert report.verdict == "PROVED"
    t = tracer.tallies
    # clausal_form calls normalize through clausal's own binding
    assert t["clausal.clausal_form"]["calls"] >= 2
    assert t["rewrite.normalize"]["calls"] >= t["clausal.clausal_form"]["calls"]
    assert t["prover.saturate"]["calls"] == 1
    assert t["unify.e_unify_narrowing"]["calls"] == t["prover.saturate"]["gate_calls"] == 1
    assert t["unify.check_solution"]["calls"] >= 1  # called by name inside the gate
    assert t["prover.saturate"]["proof_len"] >= 1
    assert tracer.digests[0] == hashlib.sha256(report.trace.encode()).hexdigest()
    root = [i for i in range(len(tracer.span_parent)) if tracer.span_parent[i] < 0]
    assert root == [0]


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def test_self_time_of_a_synthetic_span_tree():
    names = ["attempt", "a", "b"]
    # attempt [0, 10] has children a [1, 4] (itself with child b [2, 3]),
    # b [5, 9] and a [8, 10]; the last two overlap, so their union counts
    spans = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 1, 2.0, 3.0), (2, 0, 5.0, 9.0),
             (1, 0, 8.0, 10.0)]
    cols = [array("i", [s[0] for s in spans]), array("i", [s[1] for s in spans]),
            array("d", [s[2] for s in spans]), array("d", [s[3] for s in spans])]
    out = tracing.self_times(names, *cols)
    assert out == pytest.approx({"attempt": 2.0, "a": 2.0 + 2.0, "b": 1.0 + 4.0})


def test_recorded_spans_nest_and_self_times_add_up():
    tracer = tracing.Tracer()
    sid = tracer.begin_attempt()
    inner = tracer.open(1)
    time.sleep(0.002)
    tracer.close(inner)
    tracer.close(sid)
    out = tracer.self_times()
    assert list(tracer.span_parent) == [-1, 0]
    assert out[tracing.TARGETS[0].name] >= 0.002
    assert sum(out.values()) == pytest.approx(tracer.span_end[0] - tracer.span_start[0])


# ---------------------------------------------------------------------------
# The metric list
# ---------------------------------------------------------------------------


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    layer = worker.per_layer({t.name: Counter() for t in tracing.TARGETS},
                             dict.fromkeys([tracing.ATTEMPT] + [t.name for t in tracing.TARGETS],
                                           0.0))
    extra = {"trace.overhead_s", "trace.spans", "prover.trace_nondeterministic"}
    assert {x["name"] for x in spec["per_layer"]} == set(layer) | extra
    e2e = worker.end_to_end([[(workloads.DECIDED, 0.1, "")] * 20], 0.5)
    assert {x["name"] for x in spec["end_to_end"]} == set(e2e)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
