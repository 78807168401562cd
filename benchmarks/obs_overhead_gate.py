#!/usr/bin/env python
"""CI gate: campaign telemetry must be cheap and answer-preserving.

Runs a fixed four-job campaign with telemetry off and on, once each per
round, for ``--rounds`` rounds (default 20, plus one unmeasured warmup).
The two arms alternate order from round to round so CPU frequency drift
cannot systematically favour whichever arm runs first.  Each round gives
one paired ratio, on-time / off-time; the gate reads the **median** of
those ratios: pairing cancels the slow drifts a shared host adds to
both runs of a round, and the median ignores the rounds where noise hit
only one arm.  Fails when

- the median ratio exceeds ``1 + --threshold`` (default 3%), or
- any run's campaign digest differs from any other's (telemetry touched
  the answers — the one thing it must never do).

The workload is deliberately compute-heavy per run (a 2500-iteration
concrete loop before the symbolic branches): overhead is a *ratio*, so
the gate measures telemetry against a realistic event density rather
than against toy programs that execute in microseconds and make any
fixed cost look enormous.

Usage::

    PYTHONPATH=src python benchmarks/obs_overhead_gate.py
    PYTHONPATH=src python benchmarks/obs_overhead_gate.py --rounds 30 --json out.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import api  # noqa: E402
from repro.apps.paper_programs import churn_source  # noqa: E402
from repro.engine import CampaignSpec  # noqa: E402

#: compute-heavy concolic workload: the concrete loop dominates wall
#: time (as real programs do), then two symbolic branches exercise the
#: solver, the generational frontier, and higher-order test generation
CHURN_SOURCE = churn_source(2500, 31, 97)


def _gate_spec() -> CampaignSpec:
    return CampaignSpec(
        programs=[
            {
                "name": "churn",
                "source": CHURN_SOURCE,
                "entry": "churn",
                "natives": "paper",
                "seed": {"x": 5, "y": 9},
            }
        ],
        strategies=["higher_order", "unsound"],
        schedulers=["dfs", "generational"],
        max_runs=60,
    )


def _run_once(spec: CampaignSpec, telemetry: bool) -> tuple[float, str]:
    if telemetry:
        with tempfile.TemporaryDirectory(prefix="repro-obs-gate-") as tele:
            start = time.perf_counter()
            report = api.Client(telemetry=tele).submit(spec).wait()
            elapsed = time.perf_counter() - start
    else:
        start = time.perf_counter()
        report = api.Client().submit(spec).wait()
        elapsed = time.perf_counter() - start
    assert not report.failed_jobs, "gate campaign had failed jobs"
    return elapsed, report.campaign_digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.03,
        help="max tolerated relative overhead (default 0.03 = 3%%)",
    )
    parser.add_argument("--json", default=None, metavar="FILE")
    args = parser.parse_args()

    spec = _gate_spec()
    _run_once(spec, telemetry=False)  # warmup: imports, pyc, allocator
    digests = set()
    off_times: list[float] = []
    on_times: list[float] = []
    for round_index in range(args.rounds):
        # alternate which arm goes first so frequency/thermal drift
        # cannot bias the comparison toward either arm
        order = (False, True) if round_index % 2 == 0 else (True, False)
        for telemetry in order:
            elapsed, digest = _run_once(spec, telemetry)
            (on_times if telemetry else off_times).append(elapsed)
            digests.add(digest)
        print(
            f"round {round_index + 1}/{args.rounds}: "
            f"off={off_times[-1]:.3f}s on={on_times[-1]:.3f}s "
            f"ratio={on_times[-1] / off_times[-1]:.3f}"
        )

    ratios = [on / off for on, off in zip(on_times, off_times)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    overhead = median - 1.0
    print(
        f"paired on/off ratio: median {median:.3f} (IQR {q1:.3f}-{q3:.3f}) "
        f"-> overhead {overhead:+.1%} (threshold {args.threshold:.0%})"
    )
    payload = {
        "off_seconds": off_times,
        "on_seconds": on_times,
        "ratios": ratios,
        "median_ratio": median,
        "ratio_iqr": [q1, q3],
        "overhead": overhead,
        "threshold": args.threshold,
        "digests": sorted(digests),
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if len(digests) != 1:
        print(f"FAIL: campaign digest varied across runs: {sorted(digests)}")
        return 1
    print(f"digest stable across all runs: {next(iter(digests))}")
    if overhead > args.threshold:
        print("FAIL: telemetry overhead exceeds the gate")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
