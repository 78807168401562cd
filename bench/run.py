#!/usr/bin/env python3
"""The standing benchmark: oracle-checked metrics over its workloads.

Usage, from the root of the repository::

    python3 bench/run.py                                  # BENCHMARK.json's workloads
    python3 bench/run.py --workload tinyvm --seed 3       # any of the five
    python3 bench/run.py --workload fleet-paper --trace   # per-layer run
    python3 bench/run.py --quick --json out.json          # one request each

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  An untraced run reports the end-to-end
metrics, a ``--trace`` run the per-layer metrics (``BENCHMARK.json``
lists both).  The run fails (exit 1) when the oracle finds a generated
test whose replay disagrees with what the system recorded.

Requests of each workload run in blocks; with several workloads the
blocks are interleaved round-robin, so drift in host speed spreads over
every workload instead of landing on one.  Between blocks, with nothing
in flight, a fixed pure-Python kernel times the CPUs the block ran on
(see :class:`Calibrator`); end-to-end times are reported in seconds at
a reference host speed, the raw wall-clock values beside them.  CPU
pinning makes the benchmark Linux-only.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
INJECT = os.path.join(BENCH, "_inject")

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "tests_per_s": "tests/s",
    "outcomes_covered": "count",
    "bugs_found": "count",
    "peak_rss_mb": "MB",
}

#: longest timed block; each block is calibrated before and after, so
#: a request of the single-client workloads is a block of its own
BLOCK_SECONDS = 0.5
#: set-ups per workload; set-up time is their median
SETUPS = 3
#: seconds the calibration kernel takes at the reference host speed
CALIBRATION_REF_S = 0.004
#: how much more the workloads slow down than the kernel when the host
#: is busy: over windows of ten requests, log latency grew 0.9 to 1.4
#: times as fast as log kernel time, by workload (see bench/README.md)
CALIBRATION_EXPONENT = 1.2


def calibrate() -> float:
    """Median time of a fixed pure-Python kernel: the host's speed now.

    The host is a shared VM whose speed flips between states tens of
    percent apart every few seconds, and a CPU-bound Python program
    slows with it.  The kernel runs no ``repro`` code, so a change to
    the program under test does not move it.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(50000):
            acc = (acc * 31 + i) % 1000003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def import_repro() -> None:
    """Make ``src/`` importable here and in child processes, or exit."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"error: no repro package under {SRC}")
    sys.path.insert(0, SRC)
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + paths)
    import repro

    found = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    if found != SRC:
        sys.exit(f"error: imported repro from {found}, not {SRC}")


def quantile(values, q: float) -> float:
    """The ``q`` quantile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith(".calls") or name in (
        "engine.retries", "search.flips_deferred", "search.flips_abandoned",
        "solver.validity.unknown", "solver.validity.candidates_per_check",
    ):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def scale_of(before: float, after: float) -> float:
    """Reference-speed seconds per wall-clock second, from the
    calibration samples taken around an interval."""
    return (CALIBRATION_REF_S / ((before + after) / 2)) ** CALIBRATION_EXPONENT


#: the CPUs this process may run on
CPUS = sorted(os.sched_getaffinity(0))


class Calibrator:
    """Calibration samples, taken per CPU, between timed intervals.

    The host's CPUs differ in speed from one moment to the next (other
    tenants load the cores they share), and a thread stays on one CPU
    for seconds, so a kernel timed on another CPU than the one the work
    ran on does not tell how fast the work ran.  An interval whose work
    all runs in this process is pinned to one CPU, the next interval to
    the next CPU, and calibrated on that CPU; an interval whose work
    also runs in child processes is calibrated on every CPU, and the
    mean is taken.  A CPU's sample after one interval is its sample
    before the next when nothing ran between them.
    """

    def __init__(self) -> None:
        self._last = {}
        self._next = itertools.cycle(CPUS)

    def sample(self, cpus) -> float:
        for cpu in cpus:
            if cpu not in self._last:
                os.sched_setaffinity(0, {cpu})
                self._last[cpu] = calibrate()
        os.sched_setaffinity(0, CPUS)
        return statistics.mean(self._last[cpu] for cpu in cpus)

    def ran(self) -> None:
        """Something ran since the last sample: the next one is new."""
        self._last = {}

    def around(self, fn, in_process: bool):
        """``(fn(), scale)`` with ``fn`` timed between two samples;
        ``in_process`` pins it to one CPU (threads it starts inherit
        the pin; child processes would too, so it must start none)."""
        cpus = [next(self._next)] if in_process else CPUS
        before = self.sample(cpus)
        self.ran()
        os.sched_setaffinity(0, cpus)
        try:
            result = fn()
        finally:
            os.sched_setaffinity(0, CPUS)
        return result, scale_of(before, self.sample(cpus))


class Phase:
    """Requests of one workload over one or more timed blocks."""

    def __init__(self) -> None:
        #: wall-clock latencies
        self.latencies = []
        #: the same latencies at the reference host speed
        self.scaled = []
        self.outcomes = []
        self.errors = 0
        self.wall = 0.0
        self.scaled_wall = 0.0

    def run_block(self, workload, seconds, counter, calibrator, recorder=None,
                  quick=False):
        """Issue requests for about ``seconds`` between two calibration
        samples; ``quick`` issues exactly one request per client.

        A client starts another request while half its last latency
        still fits in the block, so blocks end on time on average.
        """
        deadline = time.perf_counter() + seconds
        lock = threading.Lock()
        block = []

        def client() -> None:
            while True:
                with lock:
                    index = next(counter)
                call = workload.prepare(index)
                if recorder is not None:
                    recorder.set_thread_rid(index)
                    if workload.clients == 1:
                        recorder.rid = index
                start = time.perf_counter()
                try:
                    if recorder is not None:
                        outcome = recorder.call("bench.request", call, (), {})
                    else:
                        outcome = call()
                except Exception:  # noqa: BLE001 - a failed request is a result
                    outcome = None
                    traceback.print_exc()
                latency = time.perf_counter() - start
                with lock:
                    block.append(latency)
                    if outcome is None:
                        self.errors += 1
                    else:
                        self.outcomes.append(outcome)
                if quick or time.perf_counter() + latency / 2 >= deadline:
                    return

        def run() -> float:
            start = time.perf_counter()
            threads = [
                threading.Thread(target=client, name=f"bench-client-{i}")
                for i in range(1, workload.clients)
            ]
            for thread in threads:
                thread.start()
            client()
            for thread in threads:
                thread.join()
            return time.perf_counter() - start

        wall, scale = calibrator.around(run, workload.in_process)
        self.latencies.extend(block)
        self.scaled.extend(latency * scale for latency in block)
        self.wall += wall
        self.scaled_wall += wall * scale

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.errors + sum(1 for o in self.outcomes if o.failed)

    def scaled_wall_time(self, workload) -> float:
        """Timed-phase wall time at the reference speed.  A single
        closed-loop client does nothing between requests but untimed
        harness work (copying the warm store), which is left out: its
        wall time is the sum of its latencies."""
        if workload.clients > 1:
            return self.scaled_wall
        return sum(self.scaled)

    def raw_wall_time(self, workload) -> float:
        if workload.clients > 1:
            return self.wall
        return sum(self.latencies)


def run_blocks(workloads, phases, seconds, counter, calibrator, quick,
               recorder=None):
    """Blocks of at most :data:`BLOCK_SECONDS`, round-robin across
    ``workloads``, until each has used about ``seconds`` (a workload
    starts another block while half its last latency still fits)."""
    used = {w.name: 0.0 for w in workloads}
    last = {w.name: 0.0 for w in workloads}
    while True:
        ran = False
        for w in workloads:
            left = seconds - used[w.name]
            if left <= last[w.name] / 2:
                continue
            phase = phases[w.name]
            start = time.perf_counter()
            phase.run_block(w, min(BLOCK_SECONDS, left), counter, calibrator,
                            recorder, quick)
            used[w.name] += time.perf_counter() - start
            last[w.name] = phase.latencies[-1]
            ran = True
        if quick or not ran:
            return


def timed(fn) -> float:
    """Wall-clock seconds ``fn()`` takes."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def wait_for_children(timeout: float = 60.0) -> None:
    """Join every child process this process started (pool workers)."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join()


def stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process a spawn pool starts."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the standing benchmark (see bench/README.md)."
    )
    parser.add_argument("--workload", nargs="+", action="extend", default=None,
                        metavar="NAME",
                        help="workloads to run (default: those of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=0)
    # runs of the same benchmark must measure for the same time, so the
    # length is fixed by BENCHMARK.json; the option exists because the
    # benchmark's command line passes it
    parser.add_argument("--seconds", type=int, default=None,
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="also write the full result record to OUT")
    parser.add_argument("--quick", action="store_true",
                        help="one set-up and one timed request per workload")
    args = parser.parse_args(argv)

    import_repro()
    from oracle import Oracle
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    benchmark = load_benchmark()
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
    seconds = benchmark["run_seconds"]
    if args.seconds not in (None, seconds):
        parser.error(f"--seconds must be run_seconds of BENCHMARK.json ({seconds})")

    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    results_dir = os.path.join(ROOT, ".bench_results")
    workloads = [WORKLOADS[n](args.seed, os.path.join(work, n)) for n in names]
    counter = itertools.count()
    setup_s = {}
    untraced = {w.name: Phase() for w in workloads}
    traced = {w.name: Phase() for w in workloads}
    layers = {}
    calibrator = Calibrator()
    try:
        kernel = calibrator.sample(CPUS)
        import_scale = scale_of(kernel, kernel)
        for w in workloads:
            durations = []
            for _ in range(1 if args.quick else SETUPS):
                elapsed, scale = calibrator.around(lambda: timed(w.setup),
                                                   w.in_process)
                durations.append(elapsed * scale)
            setup_s[w.name] = import_s * import_scale + statistics.median(durations)
        if args.trace:
            # a third of the time untraced, the baseline of
            # trace.overhead, then two thirds traced
            run_blocks(workloads, untraced, seconds / 3, counter, calibrator,
                       args.quick)
            layers = run_traced(workloads, traced, untraced, seconds, counter,
                                calibrator, args.quick, work, results_dir)
        else:
            run_blocks(workloads, untraced, seconds, counter, calibrator, args.quick)
    finally:
        for w in workloads:
            w.close()
        wait_for_children()
        stop_resource_tracker()

    oracle_by = {}
    for w in workloads:
        oracle = Oracle()
        for phase in (untraced[w.name], traced[w.name]):
            for outcome in phase.outcomes:
                outcome.verify(oracle)
        oracle_by[w.name] = oracle
    shutil.rmtree(work, ignore_errors=True)

    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)["digests"]

    # one process runs every workload of a run, so with several
    # workloads its peak memory belongs to the run, not to one of them
    rss = {"value": peak_rss_mb(), "unit": END_TO_END["peak_rss_mb"]}
    run_metrics = {"peak_rss_mb": rss} if len(workloads) > 1 and not args.trace else {}
    records = {}
    for w in workloads:
        phase = untraced[w.name]
        oracle = oracle_by[w.name]
        attempted = phase.attempted + traced[w.name].attempted
        failed = phase.failed + traced[w.name].failed + w.failures
        tests = sum(o.tests for o in phase.outcomes)
        if args.trace:
            values = layers[w.name]
            units = {name: unit_of(name) for name in values}
        else:
            values = {
                "setup_s": setup_s[w.name],
                "latency_p50_s": quantile(phase.scaled, 0.5),
                "tests_per_s": tests / phase.scaled_wall_time(w),
                "outcomes_covered": oracle.outcomes_covered,
                "bugs_found": len(oracle.bugs),
                "peak_rss_mb": rss["value"],
            }
            units = {n: u for n, u in END_TO_END.items() if n not in run_metrics}
        records[w.name] = {
            "correct": oracle.mismatches == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
            },
            # wall-clock values, before scaling to the reference speed
            "raw": {
                "latency_p50_s": quantile(phase.latencies, 0.5),
                "latency_p90_s": quantile(phase.latencies, 0.9),
                "tests_per_s": tests / phase.raw_wall_time(w),
            },
            "samples": (traced if args.trace else untraced)[w.name].attempted,
            "tests_replayed": oracle.tests,
            "replay_mismatches": oracle.mismatches,
            "failed_frac": failed / max(attempted, 1),
            "digests": sorted(
                {o.digest for o in phase.outcomes + traced[w.name].outcomes}
            ),
        }
        if args.trace:
            records[w.name]["trace_file"] = trace_file(results_dir, w.name)
        report(w.name, records[w.name], oracle, expected.get(w.name))

    if len(records) == 1:
        metrics = next(iter(records.values()))["metrics"]
    else:
        metrics = {
            f"{name}/{metric}": value
            for name, record in records.items()
            for metric, value in record["metrics"].items()
        }
        metrics.update(run_metrics)
        for metric, value in run_metrics.items():
            print(f"== run: {metric} {value['value']:.6g} {value['unit']}")
    line = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {"seed": args.seed, "seconds": seconds, "trace": bool(args.trace),
                 "quick": args.quick, "workloads": records,
                 "run_metrics": run_metrics},
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


def run_traced(workloads, traced, untraced, seconds, counter, calibrator,
               quick, work, results_dir):
    """The per-layer run: wrap every layer, in this process and in every
    child started from now on, then run each workload in turn."""
    import benchtrace

    recorder = benchtrace.SpanRecorder()
    recorder.install()
    span_dir = os.path.join(work, "spans")
    os.environ[benchtrace.ENV] = span_dir
    os.environ["PYTHONPATH"] = os.pathsep.join([INJECT, os.environ["PYTHONPATH"]])
    os.makedirs(results_dir, exist_ok=True)
    layers = {}
    for w in workloads:
        shutil.rmtree(span_dir, ignore_errors=True)
        os.makedirs(span_dir)
        if w.restart_for_trace:
            w.setup()
            calibrator.ran()
        recorder.take()
        phase = traced[w.name]
        window = (time.perf_counter_ns(), 0)
        run_blocks([w], traced, seconds * 2 / 3, counter, calibrator, quick,
                   recorder)
        window = (window[0], time.perf_counter_ns())
        # children write their spans when they exit
        w.close()
        wait_for_children()
        processes = benchtrace.load_span_files(span_dir)
        processes[os.getpid()] = recorder.take()
        metrics, table = benchtrace.layer_metrics(processes, os.getpid(), window)
        base = quantile(untraced[w.name].scaled, 0.5)
        metrics["trace.overhead"] = quantile(phase.scaled, 0.5) / base - 1
        layers[w.name] = metrics
        with open(trace_file(results_dir, w.name), "w", encoding="utf-8") as handle:
            json.dump(benchtrace.chrome_trace(processes, window), handle)
        with open(os.path.join(results_dir, f"layers-{w.name}.txt"), "w",
                  encoding="utf-8") as handle:
            handle.write(format_table(w.name, table, phase))
    return layers


def trace_file(results_dir: str, name: str) -> str:
    """Where a traced run writes the Chrome trace of ``name``."""
    return os.path.join(results_dir, f"trace-{name}.json")


def format_table(name, table, phase) -> str:
    latency = quantile(phase.latencies, 0.5)
    lines = [
        f"{name}: per-layer self time per request "
        f"(traced requests: {phase.attempted}, traced p50 {latency:.4f} s)",
        f"{'span':<28} {'calls':>12} {'self_s':>12} {'share':>8}",
    ]
    for span, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{span:<28} {row['calls']:>12.1f} {row['self_s']:>12.5f} "
            f"{row['share']:>8.1%}"
        )
    return "\n".join(lines) + "\n"


def report(name, record, oracle, expected_digest) -> None:
    print(f"== {name}: {record['samples']} timed requests, "
          f"{record['attempted']} attempted, {record['failed']} failed "
          f"(failed_frac {record['failed_frac']:.3f})")
    for metric, value in record["metrics"].items():
        print(f"  {metric:<40} {value['value']:>14.6g} {value['unit']}")
    for metric, value in record["raw"].items():
        print(f"  {metric + ' (wall clock)':<40} {value:>14.6g}")
    print(f"  replay_mismatches {record['replay_mismatches']} "
          f"of {record['tests_replayed']} replayed tests")
    for example in oracle.examples:
        print(f"    mismatch: {example}")
    for digest in record["digests"][:3]:
        print(f"  digest {digest}")
    if expected_digest and record["digests"] and record["digests"] != [expected_digest]:
        print(f"  warning: digest differs from bench/expected.json ({expected_digest})")


if __name__ == "__main__":
    sys.exit(main())
