"""Benchmark of resmod: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload saturate-onfly --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(``worker.py``) whose ``PYTHONHASHSEED`` is derived from ``--seed`` and
printed, so a run can be repeated exactly.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a traced
run, writes its spans under ``.bench_out/``, and repeats the traced pass
under a second hash seed to count attempts whose trace depends on it.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# every run must end within three minutes; leave room to report
DEADLINE_S = 170.0


def hash_seed(seed: int, probe: bool = False) -> int:
    """The PYTHONHASHSEED of the workload process (or of the probe)."""
    return random.Random(f"hashseed:{'probe:' if probe else ''}{seed}").randrange(1, 2**32)


def run_worker(args, mode: str, hashseed: int, deadline: float, *extra: str) -> dict:
    """Run ``worker.py``; relay its report; return its final JSON object."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode, *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "resmod" / "__init__.py").is_file():
        print(f"error: no resmod sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not args.trace:
            result = run_worker(args, "plain", hash_seed(args.seed), deadline)
        else:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            result = run_worker(args, "trace", hash_seed(args.seed), deadline,
                                "--spans", str(spans))
            probe = run_worker(args, "probe", hash_seed(args.seed, probe=True), deadline)
            differ = sum(a != b for a, b in zip(result.pop("digests"), probe["digests"]))
            print(f"spans written to {spans.relative_to(ROOT)}")
            print(f"  prover.trace_nondeterministic {differ:>8d} count  (PYTHONHASHSEED "
                  f"{hash_seed(args.seed)} against {hash_seed(args.seed, probe=True)})")
            result["metrics"]["prover.trace_nondeterministic"] = {"value": differ,
                                                                  "unit": "count"}
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
