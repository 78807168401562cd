#!/usr/bin/env python3
"""Compare benchmark results against the bounds in ``BENCHMARK.json``.

Two modes::

    python3 bench/compare.py BASE.json NEW.json
    python3 bench/compare.py --pairs 10 --baseline HEAD~1 [--workload W ...]

``BASE.json`` and ``NEW.json`` each hold one ``bench/run.py --json``
record or a JSON list of them (several runs of one commit).  For every
(workload, metric) pair the script prints the medians, quartiles, wins
and a verdict:

- ``worse``: the new median is worse than the base median by more than
  the metric's bound;
- ``unresolved``: a side's spread (quartile distance over median) is
  wider than the bound, unless every new run reads better than every
  base run;
- ``better``: at least ten pairs, the new side wins at least nine in
  ten (runs are paired by position), and the medians differ by more
  than the distance between the base runs' quartiles;
- ``same``: otherwise.  Metrics without a bound (per-layer) are ``info``.

The script exits 1 when any metric is ``worse``.

``--pairs N --baseline REV`` measures first: it extracts REV with
``git archive`` into ``.bench_work/``, puts this tree's ``bench/`` and
``BENCHMARK.json`` in it so both sides run identical benchmark code,
then runs the two trees alternately (which side goes first alternates
too), seed ``--seed + i`` for pair ``i``, and compares the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Optional, Tuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def load_runs(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload if isinstance(payload, list) else [payload]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


#: pairs a gain needs before it can be called ``better``
MIN_PAIRS = 10


def verdict(base: List[float], new: List[float], bound: Optional[float],
            lower_is_better: bool) -> Tuple[str, int, int]:
    """(verdict, wins, pairs) for one metric; see the module docstring."""
    sign = -1.0 if lower_is_better else 1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if bound is None:
        return "info", wins, len(pairs)
    q1, base_median, q3 = quartiles(base)
    new_median = statistics.median(new)
    gain = sign * (new_median - base_median) / abs(base_median) if base_median else 0.0
    all_better = all(sign * (n - b) > 0 for b in base for n in new)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if gain < -bound:
        return "worse", wins, len(pairs)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and sign * (new_median - base_median) > q3 - q1
    ):
        return "better", wins, len(pairs)
    return "same", wins, len(pairs)


def groups(run: dict) -> Dict[str, dict]:
    """Metrics of a run by workload; metrics of the whole run (from a
    run of several workloads) under ``run``."""
    found = {name: record["metrics"] for name, record in run["workloads"].items()}
    if run.get("run_metrics"):
        found["run"] = run["run_metrics"]
    return found


def compare(base_runs: List[dict], new_runs: List[dict], benchmark: dict) -> int:
    """Print one row per (workload, metric); returns the exit status."""
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    base_groups = [groups(r) for r in base_runs]
    new_groups = [groups(r) for r in new_runs]
    workloads = sorted(set(base_groups[0]) & set(new_groups[0]))
    print(f"base: {len(base_runs)} runs, new: {len(new_runs)} runs")
    print(f"{'workload':<16} {'metric':<36} {'base q1/med/q3':>30} "
          f"{'new q1/med/q3':>30} {'wins':>6}  verdict")
    regressions = 0
    for workload in workloads:
        for name in base_groups[0][workload]:
            base = [g[workload][name]["value"] for g in base_groups]
            new = [g[workload][name]["value"] for g in new_groups]
            spec = bounds.get(name)
            result, wins, pairs = verdict(
                base, new,
                spec["bound"] if spec else None,
                spec["better"] == "lower" if spec else True,
            )
            regressions += result == "worse"
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))  # noqa: E731
            print(f"{workload:<16} {name:<36} {fmt(base):>30} {fmt(new):>30} "
                  f"{wins:>3}/{pairs:<2}  {result}")
    return 1 if regressions else 0


def extract(rev: str, dest: str) -> None:
    """``git archive REV`` into ``dest``, with this tree's benchmark."""
    proc = subprocess.Popen(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        stdout=subprocess.PIPE,
    )
    with tarfile.open(fileobj=proc.stdout, mode="r|") as archive:
        archive.extractall(dest, filter="data")
    if proc.wait() != 0:
        raise SystemExit(f"error: git archive {rev} failed")
    shutil.rmtree(os.path.join(dest, "bench"), ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(dest, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def run_side(tree: str, args, seed: int, out: str) -> dict:
    command = [sys.executable, "bench/run.py", "--seed", str(seed),
               "--trace", str(args.trace), "--json", out]
    if args.workload:
        command += ["--workload", *args.workload]
    subprocess.run(command, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    return load_runs(out)[0]


def measure_pairs(args) -> Tuple[List[dict], List[dict]]:
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    baseline = tempfile.mkdtemp(prefix="baseline-", dir=work)
    try:
        extract(args.baseline, baseline)
        sides: Dict[str, List[dict]] = {"base": [], "new": []}
        trees = {"base": baseline, "new": ROOT}
        for i in range(args.pairs):
            order = ("base", "new") if i % 2 == 0 else ("new", "base")
            for side in order:
                out = os.path.join(baseline, f"run-{side}.json")
                sides[side].append(run_side(trees[side], args, args.seed + i, out))
            print(f"pair {i + 1}/{args.pairs} done ({'/'.join(order)})",
                  file=sys.stderr)
    finally:
        shutil.rmtree(baseline, ignore_errors=True)
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    for side, runs in sides.items():
        with open(os.path.join(results, f"pairs-{side}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
    return sides["base"], sides["new"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", metavar="BASE.json NEW.json")
    parser.add_argument("--pairs", type=int, default=0,
                        help="measure N alternating pairs first")
    parser.add_argument("--baseline", default="HEAD",
                        help="git revision of the base side (with --pairs)")
    parser.add_argument("--workload", nargs="+", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    if args.pairs:
        base, new = measure_pairs(args)
    elif len(args.files) == 2:
        base, new = load_runs(args.files[0]), load_runs(args.files[1])
    else:
        parser.error("give BASE.json NEW.json, or --pairs N --baseline REV")
    return compare(base, new, benchmark)


if __name__ == "__main__":
    sys.exit(main())
