"""Per-layer span tracing, installed from outside the program.

The benchmark never edits ``src/``: it wraps the public functions of
each ``repro`` layer at run time.  A wrapped call records one span —
name, start, end, the enclosing span on the same thread, the request id
and the thread — in memory.  Module-level functions are rebound in
every loaded ``repro.*`` module that imported them by name (the code
base uses ``from … import`` throughout); methods are patched on their
class.

The benchmark's own process holds a :class:`SpanRecorder` and reads its
spans directly.  Child processes (pool workers, the ``repro serve``
process tree) load ``bench/_inject/sitecustomize.py``, which calls
:func:`install_in_child` when :data:`ENV` names a span directory; each
such process writes its spans once, as ``spans-<pid>.json``, when it
exits.  Self time is a span's duration minus the time covered by its
child spans, computed per process and thread.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import signal
import statistics
import sys
import threading
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "ENV",
    "LAYERS",
    "REQUEST",
    "SpanRecorder",
    "install_in_child",
    "load_span_files",
    "layer_metrics",
    "chrome_trace",
    "span_names",
]

#: environment variable naming the span directory of traced children
ENV = "REPRO_BENCH_TRACE"

#: name of the benchmark's root span, one per request
REQUEST = "bench.request"


def _ret(getter: Callable[[object], object]) -> Callable:
    """An attrs function reading one number from the return value."""

    def attrs(args, ret):
        return getter(ret)

    return attrs


def _solve_flip_attrs(args, ret):
    from repro.search import kernel

    if ret is kernel._DEFERRED:
        return {"deferred": 1}
    if ret is None or ret is kernel._STOP:
        return None
    return {"generated": 1}


def _validity_attrs(args, ret):
    status = getattr(ret.status, "value", "")
    return {
        "valid": int(status == "valid"),
        "unknown": int(status == "unknown"),
        "candidates": ret.candidates_tried,
    }


def _lease_attrs(args, ret):
    if ret is None:
        return None
    return {"ticket": os.path.basename(ret.telemetry_dir or "")}


def _runner_attrs(args, ret):
    supervisor = getattr(args[0], "last_supervisor", None)
    return {"retries": supervisor.retries} if supervisor is not None else None


#: (span name, module, attribute path, attrs function).  An attrs
#: function maps (args, return value) to a dict of numbers summed per
#: span name, or of string tags used to match spans across processes.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("api.generate", "repro.api", "generate_tests", None),
    ("api.submit", "repro.api", "Client.submit", None),
    ("lang.parse", "repro.lang.parser", "parse_program", None),
    ("lang.compile", "repro.lang.bytecode", "compile_program", None),
    ("symbolic.run", "repro.symbolic.concolic", "ConcolicEngine.run",
     _ret(lambda r: {"steps": r.steps})),
    ("search.run", "repro.search.directed", "DirectedSearch.run",
     _ret(lambda r: {"deferred": r.deferred_flips,
                     "abandoned": r.abandoned_flips})),
    ("search.kernel", "repro.search.kernel", "SearchKernel.search", None),
    ("search.execute", "repro.search.kernel", "SearchKernel.execute", None),
    ("search.derive", "repro.search.kernel", "SearchKernel.derive_flips", None),
    ("search.schedule", "repro.search.kernel", "SearchKernel.schedule", None),
    ("search.solve_flip", "repro.search.kernel", "SearchKernel.solve_flip",
     _solve_flip_attrs),
    ("search.reconstitute", "repro.search.kernel", "SearchKernel.reconstitute",
     None),
    ("core.hotg.generate", "repro.core.hotg", "HigherOrderBackend.generate",
     None),
    ("core.hotg.plan", "repro.core.hotg", "plan_validity", None),
    ("core.multistep.resolve", "repro.core.hotg", "MultiStepDriver.resolve",
     None),
    ("solver.validity", "repro.solver.validity", "ValidityChecker.check",
     _validity_attrs),
    ("solver.session", "repro.solver.session", "SolverSession.check", None),
    ("solver.prefix", "repro.solver.session", "PrefixSession.solve", None),
    ("solver.smt", "repro.solver.smt", "Solver.check",
     _ret(lambda r: {"sat": int(r.sat)})),
    ("solver.theory", "repro.solver.smt", "check_theory", None),
    ("solver.sat", "repro.solver.sat", "SatSolver.solve", None),
    ("solver.lia", "repro.solver.lia", "LiaSolver.check", None),
    ("solver.euf", "repro.solver.euf", "CongruenceClosure.check", None),
    ("solver.cache", "repro.solver.cache", "QueryCache.lookup",
     _ret(lambda r: {"hit": int(r is not None)})),
    ("solver.diskcache", "repro.solver.diskcache", "DiskCache.lookup",
     _ret(lambda r: {"hit": int(r is not None)})),
    ("store.load", "repro.store.cas", "ContentStore.load_entry",
     _ret(lambda r: {"hit": int(r[0] is not None)})),
    ("store.save", "repro.store.cas", "ContentStore.save", None),
    ("store.load_group", "repro.store.cas", "ContentStore.load_group", None),
    ("engine.expand", "repro.engine.planner", "BatchPlanner.expand", None),
    # batch campaigns only: the serve loop lives as long as the server,
    # its work shows as engine.dispatch, service.lease, service.finalize
    ("engine.runner", "repro.engine.runner", "ProcessPoolRunner.run",
     _runner_attrs),
    ("engine.dispatch", "repro.engine.supervisor",
     "CampaignSupervisor._dispatch",
     lambda args, ret: {"key": args[1].job.key}),
    ("engine.run_job", "repro.engine.runner", "run_job",
     lambda args, ret: {"key": args[0].key}),
    ("engine.merge", "repro.engine.merger", "ResultMerger.merge", None),
    ("engine.checkpoint", "repro.engine.runner", "CampaignCheckpoint.record",
     None),
    ("engine.checkpoint", "repro.engine.runner",
     "CampaignCheckpoint.record_attempt", None),
    ("service.submit", "repro.service.client", "ServiceClient.submit",
     _ret(lambda r: {"ticket": r.ticket})),
    ("service.wait", "repro.service.client", "ServiceHandle.wait", None),
    ("service.state", "repro.service.state", "ServiceState.submit", None),
    ("service.state", "repro.service.state", "ServiceState.load", None),
    ("service.state", "repro.service.state", "ServiceState.records", None),
    ("service.state", "repro.service.state", "ServiceState.update", None),
    ("service.state", "repro.service.state", "ServiceState.cancel_requested",
     None),
    ("service.state", "repro.service.state", "ServiceState.write_result", None),
    ("service.state", "repro.service.state", "ServiceState.load_result", None),
    ("service.lease", "repro.service.scheduler", "ServiceScheduler.lease",
     _lease_attrs),
    ("service.finalize", "repro.service.scheduler",
     "ServiceScheduler._finalize", None),
    ("obs.emit", "repro.obs.journal", "RunJournal.emit", None),
    ("obs.merge_shards", "repro.obs.shipper", "merge_shards", None),
    ("obs.shard_poll", "repro.obs.shipper", "ShardReader.poll", None),
)

#: the layers, named after the ``repro`` modules, in report order
LAYERS = ("api", "lang", "symbolic", "search", "core", "solver", "store",
          "engine", "service", "obs")


def layer_of(name: str) -> str:
    """The layer a span name belongs to (the disk cache is store I/O)."""
    if name.startswith("solver.diskcache"):
        return "store"
    return name.split(".", 1)[0]


class SpanRecorder:
    """Records spans of wrapped calls in this process, in memory."""

    def __init__(self) -> None:
        self._spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: request id for spans on threads that set none of their own
        #: (the local-mode campaign thread runs on behalf of the request
        #: whose id the benchmark set here)
        self.rid: Optional[int] = None

    # -- recording ---------------------------------------------------------

    def set_thread_rid(self, rid: Optional[int]) -> None:
        """Tag spans opened on the calling thread with request ``rid``."""
        self._local.rid = rid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        rid = getattr(self._local, "rid", None)
        record = [
            name,
            perf_counter_ns(),
            0,
            stack[-1] if stack else None,
            self.rid if rid is None else rid,
            threading.get_ident(),
            None,
        ]
        stack.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter_ns()
        self._stack().pop()
        with self._lock:
            self._spans.append(record)

    def call(self, name: str, fn: Callable, args, kwargs, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        record = self._open(name)
        try:
            ret = fn(*args, **kwargs)
        finally:
            self._close(record)
        if attrs is not None:
            record[6] = attrs(args, ret)
        return ret

    def wrap(self, name: str, fn: Callable, attrs=None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs, attrs)

        wrapper.__bench_original__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target, once per process."""
        rebind: Dict[int, Callable] = {}
        for name, module_name, path, attrs in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, attrs)
            setattr(owner, attr, wrapper)
            if not owner_name:
                rebind[id(original)] = wrapper
        # functions imported by name elsewhere keep pointing at the
        # original: rebind every loaded repro module's reference
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = rebind.get(id(value))
                if wrapper is not None and wrapper.__bench_original__ is value:
                    setattr(module, attr, wrapper)

    # -- output ------------------------------------------------------------

    def take(self) -> List[list]:
        """Finished spans so far, parent links as indices; clears them."""
        with self._lock:
            spans, self._spans = self._spans, []
        index = {id(record): i for i, record in enumerate(spans)}
        threads: Dict[int, int] = {}
        out = []
        for record in spans:
            parent = record[3]
            out.append([
                record[0],
                record[1],
                record[2],
                index.get(id(parent), -1) if parent is not None else -1,
                record[4],
                threads.setdefault(record[5], len(threads)),
                record[6],
            ])
        return out

    def dump(self, directory: str) -> None:
        """Write this process's spans to ``directory/spans-<pid>.json``."""
        pid = os.getpid()
        path = os.path.join(directory, f"spans-{pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"pid": pid, "spans": self.take()}, handle)
        os.replace(tmp, path)


def install_in_child(directory: str) -> SpanRecorder:
    """Trace this (child) process and write its spans once at exit.

    Three exits are covered: a normal interpreter exit (``atexit``), a
    multiprocessing worker's exit, which ends in ``os._exit`` after
    running ``multiprocessing.util`` finalizers but not ``atexit``
    hooks, and the ``terminate()`` a campaign pool's teardown sends to
    its workers (SIGTERM).  Processes that install their own SIGTERM
    handler later, such as ``repro serve``, keep it and exit normally.
    """
    from multiprocessing import util

    recorder = SpanRecorder()
    recorder.install()
    state = {"dumping": False}

    def flush() -> None:
        if state["dumping"]:
            return
        state["dumping"] = True
        try:
            recorder.dump(directory)
        except OSError:
            pass

    def on_sigterm(signum, frame):
        if state["dumping"]:
            return  # already exiting: let the dump finish
        flush()
        os._exit(128 + signum)

    atexit.register(flush)
    util.Finalize(None, flush, exitpriority=100)
    signal.signal(signal.SIGTERM, on_sigterm)
    return recorder


def load_span_files(directory: str) -> Dict[int, List[list]]:
    """Spans of every child process that wrote a file, by pid."""
    out: Dict[int, List[list]] = {}
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("spans-") and name.endswith(".json")):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            payload = json.load(handle)
        out[int(payload["pid"])] = payload["spans"]
    return out


def self_times(spans: List[list]) -> List[int]:
    """Self time in ns of each span: duration minus its children's."""
    covered = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - covered[i] for i, span in enumerate(spans)]


def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _in(window: Tuple[int, int], span: list) -> bool:
    return window[0] <= span[1] <= window[1]


def layer_metrics(
    processes: Dict[int, List[list]],
    parent_pid: int,
    window: Tuple[int, int],
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Per-layer metrics over the spans of every process that started
    inside ``window`` (``perf_counter_ns`` bounds of the traced phase).

    Counts and seconds are per request (one :data:`REQUEST` span each,
    in ``parent_pid``, the benchmark's process).  ``trace.unattributed_s``
    is request latency minus the benchmark process's self time on that
    request.  Returns ``(metrics, table)``: the flat metric dict and a
    per-span table (calls, self seconds, share of all self time) for the
    report.
    """
    calls: Dict[str, int] = {}
    self_ns: Dict[str, int] = {}
    sums: Dict[str, Dict[str, float]] = {}
    # per request: latency, and the benchmark process's self time spent
    # on it (a local campaign runs on its own thread, so this is not the
    # request span's self time)
    latency_ns: Dict[object, int] = {}
    attributed_ns: Dict[object, int] = {}
    dispatched: Dict[str, List[int]] = {}
    started: List[Tuple[str, int]] = []
    submitted: Dict[str, int] = {}
    leased: Dict[str, int] = {}
    for pid, spans in processes.items():
        own = self_times(spans)
        for span, self_span in zip(spans, own):
            if not _in(window, span):
                continue
            name, start, end, _parent, rid, _tid, attrs = span
            if name == REQUEST:
                latency_ns[rid] = end - start
                continue
            if pid == parent_pid:
                attributed_ns[rid] = attributed_ns.get(rid, 0) + self_span
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + self_span
            if not attrs:
                continue
            bucket = sums.setdefault(name, {})
            for key, value in attrs.items():
                if isinstance(value, (int, float)):
                    bucket[key] = bucket.get(key, 0) + value
            if name == "engine.dispatch":
                dispatched.setdefault(attrs["key"], []).append(end)
            elif name == "engine.run_job" and pid != parent_pid:
                started.append((attrs["key"], start))
            elif name == "service.submit":
                submitted[attrs["ticket"]] = end
            elif name == "service.lease":
                ticket = attrs["ticket"]
                leased[ticket] = min(leased.get(ticket, end), end)
    # pool submit -> worker entry, matched by job key to the latest
    # dispatch of that key before the job started
    engine_waits = []
    for key, start in started:
        before = [t for t in dispatched.get(key, ()) if t <= start]
        if before:
            engine_waits.append((start - max(before)) / 1e9)
    service_waits = [
        (leased[t] - submitted[t]) / 1e9 for t in submitted if t in leased
    ]

    n = max(1, len(latency_ns))
    unattributed_ns = sum(
        latency - attributed_ns.get(rid, 0) for rid, latency in latency_ns.items()
    )
    total_ns = sum(self_ns.values()) + unattributed_ns
    metrics: Dict[str, float] = {}
    for name in span_names():
        metrics[f"{name}.calls"] = calls.get(name, 0) / n
        metrics[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9 / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def attr(name: str, key: str) -> float:
        return sums.get(name, {}).get(key, 0)

    run_s = self_ns.get("symbolic.run", 0) / 1e9
    metrics["symbolic.steps_per_s"] = ratio(attr("symbolic.run", "steps"), run_s)
    metrics["search.flip_yield"] = ratio(
        attr("search.solve_flip", "generated"), calls.get("search.solve_flip", 0)
    )
    metrics["search.flips_deferred"] = attr("search.run", "deferred") / n
    metrics["search.flips_abandoned"] = attr("search.run", "abandoned") / n
    checks = calls.get("solver.validity", 0)
    metrics["solver.validity.valid_ratio"] = ratio(attr("solver.validity", "valid"), checks)
    metrics["solver.validity.candidates_per_check"] = ratio(
        attr("solver.validity", "candidates"), checks
    )
    metrics["solver.validity.unknown"] = attr("solver.validity", "unknown") / n
    metrics["solver.smt.sat_ratio"] = ratio(
        attr("solver.smt", "sat"), calls.get("solver.smt", 0)
    )
    for name in ("solver.cache", "solver.diskcache", "store.load"):
        metrics[f"{name}.hit_ratio"] = ratio(attr(name, "hit"), calls.get(name, 0))
    metrics["engine.retries"] = attr("engine.runner", "retries") / n
    metrics["engine.queue_wait_p50_s"] = _p50(engine_waits)
    metrics["service.queue_wait_p50_s"] = _p50(service_waits)
    for layer in LAYERS:
        layer_ns = sum(v for k, v in self_ns.items() if layer_of(k) == layer)
        metrics[f"{layer}.share"] = ratio(layer_ns, total_ns)
    metrics["trace.unattributed_s"] = unattributed_ns / 1e9 / n

    table = {
        name: {
            "calls": calls.get(name, 0) / n,
            "self_s": self_ns.get(name, 0) / 1e9 / n,
            "share": ratio(self_ns.get(name, 0), total_ns),
        }
        for name in sorted(calls)
    }
    table[REQUEST] = {
        "calls": 1.0,
        "self_s": unattributed_ns / 1e9 / n,
        "share": ratio(unattributed_ns, total_ns),
    }
    return metrics, table


def chrome_trace(
    processes: Dict[int, List[list]], window: Tuple[int, int]
) -> Dict[str, object]:
    """Chrome trace-event JSON (``chrome://tracing``, Perfetto) of the
    spans that started inside ``window``."""
    events = []
    for pid, spans in processes.items():
        for span in spans:
            if not _in(window, span):
                continue
            name, start, end, _parent, rid, tid, attrs = span
            args = {"rid": rid}
            if attrs:
                args.update(attrs)
            events.append({
                "name": name,
                "cat": layer_of(name),
                "ph": "X",
                "ts": start / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": tid,
                "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_names() -> List[str]:
    """Every span name a traced run can report, sorted."""
    return sorted({target[0] for target in TARGETS})
