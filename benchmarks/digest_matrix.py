#!/usr/bin/env python
"""The digest gate: every configuration reproduces the pinned answers.

The paper's answers are pinned in one file,
``benchmarks/paper_suite_digests.json``.  This script runs the built-in
paper campaign through the real CLI over a literal table of cells
(:data:`CELLS`) and compares every cell against that file.  The axes:

- ``workers`` {1, 2};
- ``scheduler`` {dfs, generational, coverage};
- ``store`` {off, cold, warm, evicted}: no ``--store-dir``; an empty
  one; one a previous campaign filled; one filled, then ``repro store
  gc --max-bytes 0``;
- ``telemetry`` {off, on}: ``--telemetry DIR``;
- ``faults`` {none, :data:`HANG_POOL`}: the supervisor fault plan, with
  ``--job-deadline 10 --max-attempts 2``;
- ``door`` {batch, served, served+kill}: ``repro campaign``; ``repro
  submit`` + ``repro serve --idle-exit`` + ``repro results``; or the
  same with the server SIGKILLed after its first finished job and then
  restarted.

The table covers every pair of axis values; the pairs the CLI cannot
express are listed in :data:`EXCLUDED` with the reason, and every cell
covers some pair no other cell does.  Three fixed single runs
(:data:`CHAOS_ROWS`) pin the degradation ladder and the escalated retry
under :data:`CHAOS_PLAN`.  The app rows (:data:`APP_ROWS`) pin the
solver-heavy searches of ``benchmarks/solver_answers.py`` (lexer,
CRC protocol and tinyvm requests, whose queries are many and
uncached): each runs that app's requests through the script's
``run_requests`` in this process and checks their suite digests.

Each cell checks its campaign digest (and, under dfs, every per-job
suite digest) against the pin file, 0 failed and 0 quarantined jobs,
and what its axis values promise:

- warm store: disk-cache hits and no disk-cache misses;
- evicted store: gc emptied a filled store (the digest then shows that
  evicted entries recompute to the same answers);
- any store: ``repro store verify`` passes afterwards;
- telemetry: the merged journal has ``journal_events`` lines, each
  tagged with ``job``/``gseq``/``mono``, and the ``repro stats
  --trace-out`` export holds all five kernel stages;
- faults: exactly :data:`FAULT_RETRIES` jobs were retried, the hang's
  and the pool break's, also in a served+kill cell (a restarted server
  continues the fault plan it saved in its state dir);
- served+kill: no job has two result lines or more than
  ``--max-attempts`` attempt lines.

Usage::

    PYTHONPATH=src python benchmarks/digest_matrix.py

Exits 1, naming every failing cell, when any check fails.
"""

from __future__ import annotations

import glob
import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from functools import partial
from typing import Dict, Iterator, List, NamedTuple, Tuple

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PINS_PATH = os.path.join(REPO, "benchmarks", "paper_suite_digests.json")
ANSWERS_PATH = os.path.join(REPO, "benchmarks", "solver_answers.py")
ENV = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))

HANG_POOL = "hang:at=2;pool:at=1"
MAX_ATTEMPTS = 2
FAULT_RETRIES = 2
CHAOS_PLAN = "solver:every=3;journal:at=2"
KERNEL_STAGES = ("execute", "derive", "schedule", "generate", "reconstitute")


class Cell(NamedTuple):
    workers: int
    scheduler: str
    store: str
    telemetry: str
    faults: str
    door: str


AXES: Dict[str, Tuple] = {
    "workers": (1, 2),
    "scheduler": ("dfs", "generational", "coverage"),
    "store": ("off", "cold", "warm", "evicted"),
    "telemetry": ("off", "on"),
    "faults": ("none", HANG_POOL),
    "door": ("batch", "served", "served+kill"),
}

NO_SERVE_TELEMETRY = "repro serve has no --telemetry"
#: pairs of axis values no cell can run, with the reason
EXCLUDED = {
    (("telemetry", "on"), ("door", "served")): NO_SERVE_TELEMETRY,
    (("telemetry", "on"), ("door", "served+kill")): NO_SERVE_TELEMETRY,
}

CELLS = (
    Cell(2, "dfs",          "off",     "on",  HANG_POOL, "batch"),
    Cell(1, "generational", "cold",    "on",  HANG_POOL, "batch"),
    Cell(1, "coverage",     "warm",    "on",  "none",    "batch"),
    Cell(1, "dfs",          "evicted", "on",  "none",    "batch"),
    Cell(2, "generational", "off",     "off", "none",    "batch"),
    Cell(1, "generational", "off",     "off", "none",    "served"),
    Cell(2, "coverage",     "cold",    "off", "none",    "served"),
    Cell(2, "dfs",          "warm",    "off", HANG_POOL, "served"),
    Cell(2, "generational", "evicted", "off", "none",    "served"),
    Cell(1, "coverage",     "off",     "off", "none",    "served+kill"),
    Cell(2, "dfs",          "cold",    "off", "none",    "served+kill"),
    Cell(1, "generational", "warm",    "off", "none",    "served+kill"),
    Cell(2, "coverage",     "evicted", "off", HANG_POOL, "served+kill"),
)

#: `repro run examples/programs/<name>.minic` under CHAOS_PLAN
CHAOS_ROWS = ("foo", "chain3", "div_guard")

#: apps whose `solver_answers.run_requests` searches are pinned
APP_ROWS = ("lexer", "protocol", "tinyvm")

PinKey = Tuple[str, str]


def cell_pins(cell: Cell, pins: Dict) -> List[PinKey]:
    """The ``(group, name)`` pins a cell's report must reproduce."""
    keys = [("scheduler_campaigns", cell.scheduler)]
    if cell.scheduler == "dfs":
        keys += [("dfs_jobs", name) for name in pins["dfs_jobs"]]
    return keys


def chaos_pins(name: str) -> List[PinKey]:
    return [("chaos_runs", name)]


def app_pins(app: str, pins: Dict) -> List[PinKey]:
    """The ``solver_searches`` pins of one app's requests."""
    return [("solver_searches", name) for name in pins["solver_searches"]
            if name.split("/")[0] == app]


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def repro(*args: str) -> str:
    """Run one ``repro`` command to exit 0; its stdout."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=ENV,
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=300,
        )
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"`repro {' '.join(args)}` timed out") from None
    check(
        proc.returncode == 0,
        f"`repro {' '.join(args)}` exited {proc.returncode}: "
        f"{proc.stderr.strip()[-400:]}",
    )
    return proc.stdout


def store_args(cell: Cell, store_dir: str) -> List[str]:
    """Bring ``store_dir`` to the cell's store state; its CLI flags."""
    if cell.store == "off":
        return []
    if cell.store in ("warm", "evicted"):
        repro("campaign", "paper", "--quiet", "--scheduler", cell.scheduler,
              "--store-dir", store_dir)
    if cell.store == "evicted":
        filled = _store_bytes(store_dir)
        repro("store", "gc", "--store-dir", store_dir, "--max-bytes", "0")
        left = _store_bytes(store_dir)
        check(filled > 0 and left == 0,
              f"gc to zero left {left} of {filled} store bytes")
    return ["--store-dir", store_dir]


def _store_bytes(store_dir: str) -> int:
    stats = repro("store", "stats", "--store-dir", store_dir, "--json")
    return json.loads(stats)["total_bytes"]


def ledger(state_dir: str) -> Iterator[Dict]:
    """Every parseable line of every served campaign's ``jobs.jsonl``."""
    for path in glob.glob(os.path.join(state_dir, "campaigns", "*", "jobs.jsonl")):
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    continue  # a write the kill tore


def sigkill_after_first_result(serve: List[str], state_dir: str) -> None:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *serve],
        env=ENV,
        cwd=REPO,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 120
        while not any("attempt_of" not in p for p in ledger(state_dir)):
            check(proc.poll() is None, "the server exited before any job finished")
            check(time.monotonic() < deadline, "no job finished within 120 s")
            time.sleep(0.01)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
    finally:
        try:
            # the kill orphans the server's pool workers; reap them too
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def run_cell(cell: Cell, work: str) -> Dict[PinKey, str]:
    """Run one cell's campaign and its axis checks; its digests."""
    os.makedirs(work)
    report_path = os.path.join(work, "report.json")
    stores = store_args(cell, os.path.join(work, "store"))
    faulted = cell.faults != "none"
    deadline = ["--job-deadline", "10"] if faulted else []
    supervised = (
        ["--fault-plan", cell.faults, "--max-attempts", str(MAX_ATTEMPTS)]
        if faulted
        else []
    )
    tele = os.path.join(work, "telemetry")
    if cell.door == "batch":
        repro("campaign", "paper", "--quiet", "--workers", str(cell.workers),
              "--scheduler", cell.scheduler, "--json", report_path, *stores,
              *(["--telemetry", tele] if cell.telemetry == "on" else []),
              *supervised, *deadline)
    else:
        state = os.path.join(work, "state")
        submitted = repro("submit", "--state-dir", state, "paper",
                          "--scheduler", cell.scheduler, *deadline)
        ticket = submitted.split("ticket", 1)[1].split()[0]
        serve = ["serve", "--state-dir", state, "--workers",
                 str(cell.workers), "--quiet", *stores, *supervised]
        if cell.door == "served+kill":
            sigkill_after_first_result(serve, state)
        repro(*serve, "--idle-exit")
        repro("results", "--state-dir", state, ticket, "--json", report_path)
        if cell.door == "served+kill":
            _check_ledger(state)
    with open(report_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)

    totals = report["totals"]
    check(totals["failed_jobs"] == 0, f"{totals['failed_jobs']} failed jobs")
    check(totals["quarantined_jobs"] == [],
          f"quarantined {totals['quarantined_jobs']}")
    if faulted:
        retried = totals["retried_jobs"]
        check(retried == FAULT_RETRIES, f"{retried} retried jobs")
    if cell.store == "warm":
        disk = report["disk_cache"]
        check(disk["hits"] > 0 and disk["misses"] == 0,
              f"warm store: {disk['hits']} disk hits, {disk['misses']} misses")
    if stores:
        repro("store", "verify", *stores)
    if cell.telemetry == "on":
        _check_telemetry(report, tele, os.path.join(work, "trace.json"))
    digests = {("scheduler_campaigns", cell.scheduler): report["campaign_digest"]}
    digests.update(
        (("dfs_jobs", job["key"].split("//")[0]), job["suite_digest"])
        for job in report["jobs"]
    )
    return digests


def _check_ledger(state_dir: str) -> None:
    results: Dict[str, int] = {}
    attempts: Dict[str, int] = {}
    for payload in ledger(state_dir):
        if "attempt_of" in payload:
            key = payload["attempt_of"]
            attempts[key] = attempts.get(key, 0) + 1
        else:
            results[payload["key"]] = results.get(payload["key"], 0) + 1
    check(all(n == 1 for n in results.values()),
          f"duplicated result lines: {results}")
    check(all(n <= MAX_ATTEMPTS for n in attempts.values()),
          f"attempt double-spend: {attempts}")


def _check_telemetry(report: Dict, tele: str, trace_path: str) -> None:
    with open(os.path.join(tele, "campaign.jsonl"), "r", encoding="utf-8") as handle:
        merged = [json.loads(line) for line in handle]
    check(0 < report["journal_events"] == len(merged),
          f"merged {len(merged)} lines for {report['journal_events']} events")
    check(all("job" in e and "gseq" in e and "mono" in e for e in merged),
          "a merged journal line lacks its job/gseq/mono tags")
    repro("stats", tele, "--trace-out", trace_path)
    with open(trace_path, "r", encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    missing = set(KERNEL_STAGES) - {e["name"] for e in events if e["ph"] == "X"}
    check(not missing, f"campaign trace lacks kernel stages {sorted(missing)}")


def _describe(cell: Cell) -> str:
    return (f"{cell.door:<11} w{cell.workers} {cell.scheduler:<12} "
            f"store={cell.store:<7} telemetry={cell.telemetry:<3} "
            f"faults={cell.faults}")


def run_chaos_row(name: str, work: str) -> Dict[PinKey, str]:
    corpus = os.path.join(work, f"{name}.corpus.json")
    # --trace gives the journal fault site a sink to fail
    out = repro("run", f"examples/programs/{name}.minic", "--max-runs", "60",
                "--fault-plan", CHAOS_PLAN,
                "--trace", os.path.join(work, f"{name}.jsonl"),
                "--corpus", corpus)
    with open(corpus, "r", encoding="utf-8") as handle:
        check(bool(json.load(handle)), "the fault plan left an empty suite")
    found = re.search(r"suite digest: (\w+)", out)
    return {("chaos_runs", name): found.group(1) if found else None}


def run_app_row(keys: List[PinKey]) -> Dict[PinKey, str]:
    spec = importlib.util.spec_from_file_location("solver_answers", ANSWERS_PATH)
    answers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(answers)
    try:
        digests = answers.run_requests(answers.Recorder(),
                                       [name for _, name in keys])
    except Exception as exc:
        raise CheckFailed(f"{type(exc).__name__}: {exc}") from None
    return {("solver_searches", name): d for name, d in digests.items()}


def main() -> int:
    with open(PINS_PATH, "r", encoding="utf-8") as handle:
        pins = json.load(handle)
    for pair, reason in EXCLUDED.items():
        print("excluded: " + " x ".join(f"{a}={v}" for a, v in pair) + f" ({reason})")
    failures: List[str] = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="digest-matrix-") as work:
        rows = [
            (f"cell {i:2d} {_describe(cell)}", cell_pins(cell, pins),
             partial(run_cell, cell, os.path.join(work, f"cell{i}")))
            for i, cell in enumerate(CELLS, 1)
        ] + [
            (f"chaos {name} under {CHAOS_PLAN}", chaos_pins(name),
             partial(run_chaos_row, name, work))
            for name in CHAOS_ROWS
        ] + [
            (f"app {app} solver_answers searches", app_pins(app, pins),
             partial(run_app_row, app_pins(app, pins)))
            for app in APP_ROWS
        ]
        for label, keys, run in rows:
            row_start = time.perf_counter()
            try:
                digests = run()
                for group, name in keys:
                    pinned = pins.get(group, {}).get(name)
                    check(digests.get((group, name)) == pinned,
                          f"{group}.{name} is {digests.get((group, name))}, "
                          f"pinned {pinned}")
            except CheckFailed as exc:
                failures.append(f"{label}: {exc}")
                print(f"{label}  FAIL: {exc}", flush=True)
                continue
            print(f"{label}  {digests[keys[0]]}  ok "
                  f"({time.perf_counter() - row_start:.1f}s)", flush=True)
    print(f"{len(CELLS)} cells + {len(CHAOS_ROWS)} chaos rows + "
          f"{len(APP_ROWS)} app rows in "
          f"{time.perf_counter() - start:.1f}s")
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
