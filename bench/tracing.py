"""Outside-in tracing of resmod's layers.

The wrappers are installed from the benchmark's own code: each measured
function is replaced at every binding site, that is in every ``resmod``
module that holds a reference to it (``prover``, ``clausal``, ``unify`` and
``cli`` import ``normalize``, ``check_solution``, ``reclausify`` and others
by name, so patching only the defining module would silently drop calls).
Methods are patched on their class.

A wrapper records a span (name, start, end, parent) in flat arrays and
tallies counts from the function's return value, so the counts repeat
exactly at a fixed ``PYTHONHASHSEED``.  Self time is a span's duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import gzip
import hashlib
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable


def _normalize(t: Counter, out) -> None:
    t["steps"] += out.steps
    t["fuel_out"] += not out.normal
    t["noop"] += out.steps == 0


def _clausal_form(t: Counter, out) -> None:
    t["clauses_out"] += len(out.clauses)


def _renormalize_clause(t: Counter, out) -> None:
    t["changed"] += bool(out[1])


def _clause_list(t: Counter, out) -> None:
    t["out"] += len(out)


def _narrowing_events(t: Counter, out) -> None:
    t["out"] += sum(len(event) for event in out)


def _redundancy_filter(t: Counter, out) -> None:
    keep, reason = out
    if keep:
        t["kept"] += 1
    elif reason == "tautology":
        t["tautology"] += 1
    elif reason == "duplicate":
        t["duplicate"] += 1
    else:
        t["subsumed"] += 1


def _true(t: Counter, out) -> None:
    t["true"] += bool(out)


def _saturate(t: Counter, out) -> None:
    s = out.stats
    for name in ("generated", "kept", "selected", "discarded", "failed_constraints",
                 "gate_calls"):
        t[name] += getattr(s, name)
    t["proof_len"] += len(out.proof_steps())


def _e_unify(t: Counter, out) -> None:
    if out.is_solutions:
        t["solutions"] += 1
    elif out.is_unsat:
        t["unsat"] += 1
    else:
        t["unknown_" + out.reason] += 1


def _check_solution(t: Counter, out) -> None:
    t["ok"] += out.ok
    t["fuel_out"] += out.fuel_exhausted


def _propagate(t: Counter, out) -> None:
    t["failed"] += out is None


@dataclass(frozen=True)
class Target:
    """One measured function: its metric name, its defining module and
    attribute (``Class.method`` for a method), and its return-value tally."""

    name: str
    module: str
    attr: str
    tally: Callable[[Counter, object], None] | None = None


TARGETS = (
    Target("rewrite.normalize", "resmod.rewrite", "normalize", _normalize),
    Target("clausal.clausal_form", "resmod.clausal", "clausal_form", _clausal_form),
    Target("clausal.renormalize_clause", "resmod.clausal", "renormalize_clause",
           _renormalize_clause),
    Target("clausal.reclausify", "resmod.clausal", "reclausify"),
    Target("clausal.free_vars", "resmod.clausal", "ConstrainedClause.free_vars"),
    Target("prover.extended_resolution", "resmod.prover", "extended_resolution", _clause_list),
    Target("prover.factor", "resmod.prover", "factor", _clause_list),
    Target("prover.extended_narrowing", "resmod.prover", "extended_narrowing",
           _narrowing_events),
    Target("prover.redundancy_filter", "resmod.prover", "redundancy_filter",
           _redundancy_filter),
    Target("prover.subsumes", "resmod.prover", "subsumes", _true),
    Target("prover.tidy_clause", "resmod.prover", "tidy_clause"),
    Target("prover.saturate", "resmod.prover", "saturate", _saturate),
    Target("prover.format_trace", "resmod.prover", "format_trace"),
    Target("unify.e_unify_narrowing", "resmod.unify", "e_unify_narrowing", _e_unify),
    Target("unify.check_solution", "resmod.unify", "check_solution", _check_solution),
    Target("unify.propagate_on_the_fly", "resmod.unify", "propagate_on_the_fly", _propagate),
    Target("unify.cheap_fail", "resmod.unify", "cheap_fail", _true),
    Target("kernel.rename_apart", "resmod.kernel", "rename_apart"),
    Target("kernel.compose", "resmod.kernel", "Substitution.compose"),
)

ATTEMPT = "attempt"


class Tracer:
    """Spans in flat arrays, tallies per target, trace digests per attempt."""

    def __init__(self) -> None:
        self.names: list[str] = [ATTEMPT] + [t.name for t in TARGETS]
        self.tallies: dict[str, Counter] = {t.name: Counter() for t in TARGETS}
        self.reset()

    def reset(self) -> None:
        """Forget spans, tallies and digests (the wrappers stay valid)."""
        for counts in self.tallies.values():
            counts.clear()
        self.digests = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]

    def open(self, name_ix: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(name_ix)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self.stack.pop()

    def begin_attempt(self) -> int:
        self.digests.append(None)
        return self.open(0)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name_ix = self.names.index(target.name)
        tally, counts = target.tally, self.tallies[target.name]
        digest = target.name == "prover.format_trace"
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            sid = open_(name_ix)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(sid)
            counts["calls"] += 1
            if tally is not None:
                tally(counts, out)
            if digest:
                self.digests[-1] = hashlib.sha256(out.encode()).hexdigest()
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> dict[str, float]:
        return self_times(self.names, self.span_name, self.span_parent,
                          self.span_start, self.span_end)

    def write_spans(self, path) -> int:
        """Write the recorded spans as gzipped TSV; returns the span count.

        Columns: id, name, start, end, parent, attempt (the root span id,
        shared by every span of one attempt)."""
        root = array("i")
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tname\tstart\tend\tparent\tattempt\n")
            for sid in range(len(self.span_start)):
                parent = self.span_parent[sid]
                root.append(sid if parent < 0 else root[parent])
                f.write(f"{sid}\t{self.names[self.span_name[sid]]}\t"
                        f"{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\t"
                        f"{parent}\t{root[sid]}\n")
        return len(self.span_start)


def self_times(names, span_name, span_parent, span_start, span_end) -> dict[str, float]:
    """Total self time per span name.

    Spans must be listed in order of their start time, as a single thread
    records them.  A span's self time is its duration minus the length of
    the union of its children's intervals, clipped to its own interval.
    """
    n = len(span_start)
    covered = array("d", bytes(8 * n))
    reach = array("d", span_start)  # how far the union of children reaches so far
    for sid in range(n):
        p = span_parent[sid]
        if p < 0:
            continue
        lo = max(span_start[sid], reach[p])
        hi = min(span_end[sid], span_end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    out = dict.fromkeys(names, 0.0)
    for sid in range(n):
        out[names[span_name[sid]]] += span_end[sid] - span_start[sid] - covered[sid]
    return out


def resmod_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "resmod" or name.startswith("resmod."))]


class Installed:
    """The wrappers in place; ``restore`` puts every original back."""

    def __init__(self) -> None:
        self.sites: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.sites.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.sites):
            setattr(owner, attr, original)
        self.sites.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap every target at every binding site in the loaded resmod modules."""
    modules = resmod_modules()
    done = Installed()
    for target in TARGETS:
        home = sys.modules[target.module]
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            cls = getattr(home, cls_name)
            done.set(cls, meth, tracer.wrap(target, cls.__dict__[meth]))
            continue
        original = getattr(home, target.attr)
        wrapper = tracer.wrap(target, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    done.set(module, attr, wrapper)
    return done
