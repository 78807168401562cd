"""Tests for supervised campaigns (repro.engine.supervisor).

Covers the recovery ladder end to end: cooperative per-job deadlines,
deterministic bounded retry with an attempt ledger that survives
kill→resume, poison-job quarantine, pool rebuilds, the heartbeat
watchdog, and graceful shutdown — plus the supporting satellites
(interrupt mapping in ``repro run``, traceback tails on failed jobs,
corrupt disk-cache entry removal).

The load-bearing invariant throughout: supervision is answer-preserving.
Every recovered campaign's digest must be byte-identical to the
fault-free run at every ``--workers`` value.
"""

import json
import os
import signal
import subprocess
import sys
import time
from collections import deque

import pytest

from repro import api
from repro.engine import CampaignCheckpoint, SupervisorConfig
from repro.engine.runner import (
    JOB_RESULT_FORMAT,
    JobResult,
    ProcessPoolRunner,
    _trace_tail,
    run_job,
)
from repro.engine.planner import BatchPlanner, CampaignSpec, SearchJob
from repro.errors import DeadlineExceeded, ReproError, SearchInterrupted
from repro.interrupt import (
    clear_interrupt,
    interrupt_requested,
    request_interrupt,
    trap_signals,
)
from repro.search import SearchConfig


def _spec(max_runs=20, n_programs=2, config=None):
    """A small campaign of self-contained programs (no natives)."""
    programs = [
        {
            "name": "p1",
            "source": (
                "int main(int x) { if (x == 7) { error(\"boom\"); } "
                "return 0; }"
            ),
            "natives": "none",
        },
        {
            "name": "p2",
            "source": "int main(int y) { if (y > 3) { return 1; } return 0; }",
            "natives": "none",
        },
        {
            "name": "p3",
            "source": (
                "int main(int z) { int i; int acc; acc = 0; "
                "for (i = 0; i < 8; i = i + 1) { "
                "if (z == i * 3) { acc = acc + 1; } } return acc; }"
            ),
            "natives": "none",
        },
    ][:n_programs]
    return CampaignSpec(
        programs=programs,
        strategies=["higher_order"],
        max_runs=max_runs,
        config=dict(config or {}),
    )


def _job(spec=None):
    return BatchPlanner().expand(spec or _spec(n_programs=1))[0]


# -- deadlines ---------------------------------------------------------------


class TestDeadline:
    def test_config_rejects_negative_deadline(self):
        with pytest.raises(ReproError):
            SearchConfig(job_deadline=-1.0).validate()

    def test_deadline_reclaims_injected_hang(self):
        job = _job(_spec(n_programs=1, config={"job_deadline": 0.5}))
        start = time.monotonic()
        result = run_job(job, hang=True)
        elapsed = time.monotonic() - start
        assert result.deadline_exceeded
        assert result.ok  # partial suite salvaged, not an error
        assert result.interrupted
        assert 0.3 < elapsed < 5.0

    def test_no_deadline_means_no_flag(self):
        result = run_job(_job())
        assert not result.deadline_exceeded
        assert result.ok

    def test_deadline_exceeded_is_a_search_interrupt(self):
        # the CLI's exit-3 mapping and the checkpoint salvage path both
        # key off SearchInterrupted, so the subclassing is load-bearing
        assert issubclass(DeadlineExceeded, SearchInterrupted)


# -- error traces (satellite) ------------------------------------------------


class TestTraceTail:
    def test_keeps_last_frames_and_marks_elision(self):
        def f0():
            raise ValueError("bottom")

        def f1():
            f0()

        def f2():
            f1()

        def f3():
            f2()

        def f4():
            f3()

        def f5():
            f4()

        def f6():
            f5()

        try:
            f6()
        except ValueError as exc:
            tail = _trace_tail(exc)
        assert tail.endswith("ValueError: bottom")
        assert "frames elided" in tail
        assert "in f0" in tail and "in f4" in tail  # last 5 frames kept
        assert "in f6" not in tail  # outer frames elided

    def test_short_traces_are_untouched(self):
        try:
            raise KeyError("x")
        except KeyError as exc:
            tail = _trace_tail(exc)
        assert "frames elided" not in tail
        assert tail.endswith("KeyError: 'x'")

    def test_failed_job_carries_trace(self):
        broken = SearchJob(
            key="broken//main//higher_order",
            program_name="broken",
            source="int main(int x) { return x; }",
            entry="main",
            strategy="higher_order",
            natives="no_such_registry",
            seed={"x": 0},
        )
        result = run_job(broken)
        assert not result.ok
        assert "no_such_registry" in result.error
        assert result.error_trace  # diagnosis without re-running
        assert result.error_trace.splitlines()[-1] == result.error


# -- the attempt ledger ------------------------------------------------------


class TestAttemptLedger:
    def test_record_and_reload(self, tmp_path):
        ckpt = CampaignCheckpoint(str(tmp_path))
        partial = JobResult(key="a//main//higher_order//dfs", runs=3)
        ckpt.record_attempt(
            "a//main//higher_order//dfs", 1, "deadline",
            error="deadline exceeded after 3 runs", partial=partial,
        )
        ckpt.record(JobResult(key="b//main//higher_order//dfs"))
        fresh = CampaignCheckpoint(str(tmp_path))
        assert fresh.attempts("a//main//higher_order//dfs") == 1
        assert fresh.attempts("b//main//higher_order//dfs") == 0
        last = fresh.last_attempt("a//main//higher_order//dfs")
        assert last is not None and last["outcome"] == "deadline"
        assert last["partial"]["runs"] == 3
        assert fresh.completed("b//main//higher_order//dfs") is not None
        assert fresh.completed("a//main//higher_order//dfs") is None

    def test_attempt_count_keeps_maximum(self, tmp_path):
        ckpt = CampaignCheckpoint(str(tmp_path))
        ckpt.record_attempt("k", 1, "deadline")
        ckpt.record_attempt("k", 2, "stalled")
        assert CampaignCheckpoint(str(tmp_path)).attempts("k") == 2

    def test_stale_result_format_is_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        stale = JobResult(key="old//main//higher_order//dfs").to_payload()
        stale["format"] = JOB_RESULT_FORMAT - 1
        path.write_text(json.dumps(stale) + "\n", encoding="utf-8")
        ckpt = CampaignCheckpoint(str(tmp_path))
        assert ckpt.completed("old//main//higher_order//dfs") is None

    def test_append_after_torn_tail_starts_a_fresh_line(self, tmp_path):
        # a kill mid-write leaves a last line without its newline; the
        # next record must not be glued onto it and lost on reload
        ckpt = CampaignCheckpoint(str(tmp_path))
        ckpt.record_attempt("a//x", 1, "deadline")
        with open(ckpt.path, "a", encoding="utf-8") as handle:
            handle.write('{"attempt_of": "b//y", "att')
        CampaignCheckpoint(str(tmp_path)).record_attempt("c//z", 1, "pool")
        reloaded = CampaignCheckpoint(str(tmp_path))
        assert reloaded.failed_attempts() == {"a//x": 1, "c//z": 1}
        reloaded.record(JobResult(key="d//main//higher_order//dfs"))
        again = CampaignCheckpoint(str(tmp_path))
        assert again.completed("d//main//higher_order//dfs") is not None


# -- retry: answer-preserving recovery ---------------------------------------


class TestRetry:
    def test_hang_retry_digest_identical_across_workers(self):
        spec = _spec()
        clean = api.Client(workers=1).submit(spec).wait()
        for workers in (1, 2):
            chaotic = api.Client(
                workers=workers,
                fault_plan="hang:at=1",
                job_deadline=2.0,
                max_attempts=2,
            ).submit(spec).wait()
            assert chaotic.campaign_digest == clean.campaign_digest
            assert chaotic.retried_jobs == 1
            assert not chaotic.quarantined_jobs

    def test_hang_campaign_bounded_by_jobs_times_deadline(self):
        spec = _spec()
        deadline = 2.0
        start = time.monotonic()
        report = api.Client(
            workers=1,
            fault_plan="hang:at=1",
            job_deadline=deadline,
            max_attempts=2,
        ).submit(spec).wait()
        elapsed = time.monotonic() - start
        assert elapsed < len(report.jobs) * deadline + 10.0
        assert not report.quarantined_jobs

    def test_pool_break_recovers_with_identical_digest(self):
        spec = _spec()
        clean = api.Client(workers=1).submit(spec).wait()
        for workers in (1, 2):
            chaotic = api.Client(
                workers=workers,
                fault_plan="pool:at=2",
                max_attempts=2,
            ).submit(spec).wait()
            assert chaotic.campaign_digest == clean.campaign_digest
            assert chaotic.retried_jobs == 1

    def test_retried_job_reports_attempts(self):
        report = api.Client(
            workers=1,
            fault_plan="hang:at=1",
            job_deadline=1.0,
            max_attempts=2,
        ).submit(_spec()).wait()
        retried = [j for j in report.jobs if j.attempts > 1]
        assert len(retried) == 1
        assert retried[0].attempts == 2
        assert retried[0].ok

    def test_resumed_report_keeps_checkpointed_retries(self, tmp_path):
        # regression: the local report read retries off the supervisor's
        # per-session tally, so a resume — which re-runs nothing —
        # reported none while its checkpointed results carry one
        spec = _spec()
        ckpt_dir = str(tmp_path / "ckpt")
        client = api.Client(
            workers=1, fault_plan="hang:at=1", job_deadline=1.0, max_attempts=2
        )
        first = client.submit(spec, checkpoint=ckpt_dir).wait()
        resumed = client.submit(spec, checkpoint=ckpt_dir).wait()
        assert first.retried_jobs == 1
        assert resumed.resumed_jobs == len(first.jobs)
        assert resumed.campaign_digest == first.campaign_digest
        assert resumed.retried_jobs == first.retried_jobs

    def test_batch_and_served_reports_agree(self, tmp_path):
        from repro.service import CampaignService, ServiceClient

        spec = _spec()
        batch = api.Client(
            workers=1, fault_plan="hang:at=1", job_deadline=1.0, max_attempts=2
        ).submit(spec).wait()
        state_dir = str(tmp_path / "svc")
        handle = ServiceClient(state_dir).submit(spec, job_deadline=1.0)
        CampaignService(
            state_dir,
            workers=1,
            fault_plan="hang:at=1",
            max_attempts=2,
            idle_exit=True,
        ).serve()
        served = handle.wait(timeout=60)
        for field in (
            "campaign_digest",
            "retried_jobs",
            "killed_workers",
            "resumed_jobs",
            "quarantined_jobs",
        ):
            assert getattr(served, field) == getattr(batch, field), field
        assert batch.retried_jobs == 1

    def test_supervisor_config_validation(self):
        with pytest.raises(ReproError):
            SupervisorConfig(max_attempts=0).validate()
        with pytest.raises(ReproError):
            SupervisorConfig(stall_timeout=-1).validate()
        assert SupervisorConfig().validate().max_attempts == 2


# -- the ladder's fixed constants --------------------------------------------


class TestRecoveryConstants:
    """The backoff, grace, rebuild and drain values are module constants
    (no longer :class:`SupervisorConfig` fields); each still drives its
    rung of the ladder."""

    def _supervisor(self):
        from repro.engine.supervisor import CampaignSupervisor

        return CampaignSupervisor(ProcessPoolRunner(workers=2))

    def test_backoff_sleeps_retry_backoff_per_earlier_attempt(
        self, monkeypatch
    ):
        from types import SimpleNamespace

        from repro.engine import supervisor as module

        slept = []
        monkeypatch.setattr(module, "time", SimpleNamespace(sleep=slept.append))
        supervisor = self._supervisor()
        supervisor._backoff(1)  # a first attempt never waits
        supervisor._backoff(2)
        supervisor._backoff(3)
        assert slept == [module.RETRY_BACKOFF, 2 * module.RETRY_BACKOFF]

    def test_time_limit_is_twice_deadline_plus_grace(self):
        from repro.engine.supervisor import DEADLINE_GRACE, _JobState

        state = _JobState(
            _job(_spec(n_programs=1, config={"job_deadline": 1.5})),
            False, False, False, spent=0,
        )
        assert state.deadline == 1.5
        assert self._supervisor()._time_limit(state) == 3.0 + DEADLINE_GRACE

    def test_pool_rebuilt_up_to_budget_then_serial(self):
        from repro.engine.supervisor import MAX_POOL_REBUILDS, _JobState

        supervisor = self._supervisor()
        jobs = BatchPlanner().expand(_spec())
        states = [_JobState(job, False, False, False, spent=0) for job in jobs]
        queue = deque()
        for rebuild, state in enumerate(states[:MAX_POOL_REBUILDS], 1):
            supervisor._rebuild_pool("test", queue, {object(): state})
            assert supervisor.pool_rebuilds == rebuild
            assert not supervisor._serial_only
        supervisor._rebuild_pool("test", queue, {object(): states[-1]})
        # budget spent: no further rebuild, the rest runs in-process
        assert supervisor.pool_rebuilds == MAX_POOL_REBUILDS
        assert supervisor._serial_only
        # every in-flight job was requeued, none charged an attempt
        assert len(queue) == MAX_POOL_REBUILDS + 1
        assert all(state.attempts == 0 for state in queue)

    def test_drain_gives_up_after_drain_timeout(self, monkeypatch):
        from concurrent.futures import Future

        from repro.engine import supervisor as module

        monkeypatch.setattr(module, "DRAIN_TIMEOUT", 0.3)
        state = module._JobState(_job(), False, False, False, spent=0)
        inflight = {Future(): state}  # never completes
        started = time.monotonic()
        self._supervisor()._drain(inflight)
        elapsed = time.monotonic() - started
        assert not inflight
        assert 0.3 <= elapsed < 5.0
        assert state.result is None


# -- quarantine --------------------------------------------------------------


class TestQuarantine:
    def test_exhausted_attempts_quarantine_not_crash(self):
        report = api.Client(
            workers=1,
            fault_plan="hang:at=1",
            job_deadline=0.5,
            max_attempts=1,
        ).submit(_spec()).wait()
        assert len(report.quarantined_jobs) == 1
        poisoned = [j for j in report.jobs if j.quarantined]
        assert len(poisoned) == 1
        assert not poisoned[0].ok
        assert "quarantined after 1 attempts" in poisoned[0].error
        assert poisoned[0] in report.failed_jobs
        # the rest of the campaign completed normally
        assert len(report.ok_jobs) == len(report.jobs) - 1
        assert "quarantined=1" in report.summary()
        payload = report.to_payload()
        assert payload["totals"]["quarantined_jobs"] == report.quarantined_jobs

    def test_resume_quarantines_spent_attempts_without_retrying(self, tmp_path):
        spec = _spec()
        jobs = BatchPlanner().expand(spec)
        ckpt_dir = str(tmp_path / "ckpt")
        ckpt = CampaignCheckpoint(ckpt_dir)
        # as if a previous run burned the whole budget and was killed
        ckpt.record_attempt(
            jobs[0].key, 2, "stalled", error="no heartbeat for 1s"
        )
        report = api.Client(workers=1, max_attempts=2).submit(
            spec,
            checkpoint=ckpt_dir,
        ).wait()
        assert report.quarantined_jobs == [jobs[0].key]
        poisoned = [j for j in report.jobs if j.quarantined]
        assert "stalled" in poisoned[0].error
        # spent attempts were honored, not re-fired
        assert CampaignCheckpoint(ckpt_dir).attempts(jobs[0].key) == 2

    def test_resumed_report_keeps_checkpointed_quarantine(self, tmp_path):
        # regression: the local report read quarantines off the
        # supervisor's per-session tally, so a resume — which re-runs
        # nothing — reported none while the job stayed quarantined
        spec = _spec()
        ckpt_dir = str(tmp_path / "ckpt")
        client = api.Client(
            workers=1, fault_plan="hang:at=1", job_deadline=0.5, max_attempts=1
        )
        first = client.submit(spec, checkpoint=ckpt_dir).wait()
        resumed = client.submit(spec, checkpoint=ckpt_dir).wait()
        assert resumed.resumed_jobs == len(first.jobs)
        assert resumed.campaign_digest == first.campaign_digest
        assert first.quarantined_jobs == [first.jobs[0].key]
        assert resumed.quarantined_jobs == first.quarantined_jobs
        assert "quarantined=1" in resumed.summary()


# -- pool breakage: innocent bystanders --------------------------------------


class TestPoolBreakBlame:
    def test_real_pool_break_charges_no_job(self):
        # which in-flight job poisoned a genuinely broken pool is
        # unknowable — the future that surfaces BrokenProcessPool first
        # is arbitrary, so charging *it* an attempt could walk a healthy
        # job into quarantine while the real culprit retries for free
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine.supervisor import CampaignSupervisor, _JobState

        supervisor = CampaignSupervisor(ProcessPoolRunner(workers=2))
        jobs = BatchPlanner().expand(_spec())
        first = _JobState(jobs[0], False, False, False, spent=0)
        second = _JobState(jobs[1], False, False, False, spent=0)

        class _BrokenFuture:
            def result(self):
                raise BrokenProcessPool("pool died")

        queue = deque()
        inflight = {object(): second}
        assert supervisor._collect(first, _BrokenFuture(), queue, inflight)
        assert first.attempts == 0 and second.attempts == 0
        assert list(queue) == [first, second]  # both requeued for free
        assert not inflight
        assert supervisor.retries == 0
        assert supervisor.pool_rebuilds == 1  # bounded by rebuilds instead


# -- the pool's workers ------------------------------------------------------


def _no_children_within(seconds):
    import multiprocessing

    deadline = time.monotonic() + seconds
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class TestPoolWorkers:
    def test_jobs_run_in_workers_and_leave_no_child(self):
        spec = CampaignSpec.paper_suite(max_runs=10)
        serial = api.Client(workers=1).submit(spec).wait()
        pooled = api.Client(workers=2).submit(spec).wait()
        assert pooled.campaign_digest == serial.campaign_digest
        # every job ran in a pool worker, none in the parent
        assert all(j.worker_pid not in (0, os.getpid()) for j in pooled.jobs)
        assert _no_children_within(5.0)


# -- the watchdog's clocks ---------------------------------------------------


class _FakeFuture:
    """A pool future the test starts by hand; never finishes."""

    def __init__(self):
        self.started = False

    def running(self):
        return self.started

    def done(self):
        return False

    def cancel(self):
        return False


class _FakeExecutor:
    def __init__(self, future):
        self.future = future

    def submit(self, *args):
        return self.future

    def shutdown(self, **kwargs):
        pass


class _SilentReader:
    """A shard tail that never sees a heartbeat."""

    def poll(self):
        return []


class TestWatchdogClock:
    def _dispatched(self, telemetry):
        from repro.engine.supervisor import CampaignSupervisor, _JobState

        supervisor = CampaignSupervisor(
            ProcessPoolRunner(workers=2), SupervisorConfig(stall_timeout=0.05)
        )
        state = _JobState(
            _job(), False, False, False, spent=0, telemetry=telemetry
        )
        future = _FakeFuture()
        supervisor._executor = _FakeExecutor(future)
        queue, inflight = deque(), {}
        supervisor._dispatch(state, queue, inflight)
        assert inflight == {future: state}
        return supervisor, state, future, queue, inflight

    def test_queue_time_is_not_silence(self):
        # regression: a batch submits every job at once, and each job's
        # silence clock used to start at submit time — jobs queued behind
        # busy workers were declared stalled before they ever ran
        supervisor, state, future, queue, inflight = self._dispatched("tel")
        time.sleep(0.1)  # queued for twice the stall timeout
        supervisor._watch(inflight, queue, _SilentReader())
        assert inflight and not state.stalled
        future.started = True
        supervisor._watch(inflight, queue, _SilentReader())  # clock starts
        assert inflight and not state.stalled
        time.sleep(0.1)  # now running, and silent past the timeout
        supervisor._watch(inflight, queue, _SilentReader())
        assert state.stalled
        assert not inflight and list(queue) == [state]

    def test_job_without_telemetry_never_stalls(self):
        supervisor, state, future, queue, inflight = self._dispatched(None)
        future.started = True
        supervisor._watch(inflight, queue, _SilentReader())
        time.sleep(0.1)
        supervisor._watch(inflight, queue, _SilentReader())
        assert inflight and not state.stalled


# -- heartbeat watchdog ------------------------------------------------------


class TestWatchdog:
    def test_stall_timeout_without_telemetry_rejected(self):
        # without shards to tail the watchdog would silently never arm;
        # the flag the operator asked for must not be inert
        with pytest.raises(ReproError, match="telemetry"):
            api.Client(workers=2, stall_timeout=1.0).submit(
                _spec(n_programs=1),
            ).wait()

    def test_stall_timeout_zero_without_telemetry_is_fine(self):
        # an explicit 0 means "watchdog off" — nothing to reject
        report = api.Client(workers=1, stall_timeout=0.0).submit(
            _spec(n_programs=1),
        ).wait()
        assert report.jobs

    def test_stall_watchdog_reclaims_wedged_worker(self, tmp_path):
        spec = _spec()
        clean = api.Client(workers=1).submit(spec).wait()
        report = api.Client(
            workers=2,
            fault_plan="hang:at=1",  # no deadline: only the watchdog helps
            stall_timeout=1.5,
            max_attempts=2,
            telemetry=str(tmp_path / "telemetry"),
        ).submit(spec).wait()
        assert report.campaign_digest == clean.campaign_digest
        assert report.stalled_jobs == 1
        assert report.pool_rebuilds >= 1
        assert not report.quarantined_jobs
        stalled = [j for j in report.jobs if j.stalled]
        assert len(stalled) == 1 and stalled[0].ok


# -- graceful shutdown and crash resume --------------------------------------


REPRO = [sys.executable, "-m", "repro"]


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _write_spec(tmp_path, max_runs=20):
    spec_path = tmp_path / "spec.json"
    spec = _spec(max_runs=max_runs)
    spec_path.write_text(
        json.dumps(
            {
                "programs": spec.programs,
                "strategies": spec.strategies,
                "max_runs": spec.max_runs,
            }
        ),
        encoding="utf-8",
    )
    return str(spec_path)


def _wait_for_result_line(jobs_path, timeout=60.0):
    """Block until jobs.jsonl holds at least one finished-job line."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(jobs_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    if '"format"' in line:
                        return
        except OSError:
            pass
        time.sleep(0.05)
    raise AssertionError(f"no finished job appeared in {jobs_path}")


class TestGracefulShutdown:
    def test_interrupt_during_inprocess_dispatch_raises(self, monkeypatch):
        # regression: in the pooled path, an interrupt landing while a
        # job ran in the parent (worker-proc containment / downgraded
        # pool) returned its shutdown artifact without settling; once
        # the queue drained with nothing in flight the loop exited
        # before the interrupt check, so the campaign returned normally
        # (exit 0) with the remaining jobs silently dropped
        from repro.engine import supervisor as supervisor_mod

        def wedge_then_interrupt(job, *args, **kwargs):
            request_interrupt("SIGTERM")
            return JobResult(key=job.key, interrupted=True)

        monkeypatch.setattr(supervisor_mod, "run_job", wedge_then_interrupt)
        # worker-proc on every job forces the in-process dispatch path
        runner = ProcessPoolRunner(
            workers=2, fault_spec="worker-proc:every=1"
        )
        jobs = BatchPlanner().expand(_spec())
        assert len(jobs) > 1  # pooled path, with jobs left to drop
        clear_interrupt()
        try:
            with pytest.raises(SearchInterrupted):
                supervisor_mod.CampaignSupervisor(runner).run(jobs)
        finally:
            clear_interrupt()

    def test_interrupt_flag_stops_campaign_between_jobs(self, tmp_path):
        ckpt_dir = str(tmp_path / "ckpt")
        clear_interrupt()
        request_interrupt("SIGTERM")
        try:
            with pytest.raises(SearchInterrupted) as excinfo:
                api.Client(workers=1).submit(
                    _spec(),
                    checkpoint=ckpt_dir,
                ).wait()
        finally:
            clear_interrupt()
        assert "SIGTERM" in str(excinfo.value)
        assert excinfo.value.checkpoint_dir == os.path.abspath(ckpt_dir)
        assert excinfo.value.resume_hint is not None
        assert "--checkpoint" in excinfo.value.resume_hint

    def test_trap_signals_maps_sigterm_to_flag(self):
        clear_interrupt()
        with trap_signals():
            os.kill(os.getpid(), signal.SIGTERM)
            deadline = time.monotonic() + 5.0
            while not interrupt_requested() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert interrupt_requested() == "SIGTERM"
        assert interrupt_requested() is None  # cleared on exit

    def test_sigterm_campaign_exits_3_and_resume_matches(self, tmp_path):
        spec_path = _write_spec(tmp_path)
        ckpt_dir = str(tmp_path / "ckpt")
        clean = api.Client(workers=1).submit(
            CampaignSpec.load(spec_path),
        ).wait()
        # second job wedges on an injected hang with a long deadline, so
        # the campaign is alive when SIGTERM lands
        proc = subprocess.Popen(
            REPRO
            + [
                "campaign",
                spec_path,
                "--checkpoint",
                ckpt_dir,
                "--fault-plan",
                "hang:at=2",
                "--job-deadline",
                "60",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_env(),
            text=True,
        )
        try:
            _wait_for_result_line(os.path.join(ckpt_dir, "jobs.jsonl"))
            time.sleep(0.4)  # let the hung job reach its wedge
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 3, (stdout, stderr)
        assert "interrupted" in stderr
        assert "resume with:" in stderr
        assert "--checkpoint" in stderr
        # resume (the hang was transient) completes with the clean digest
        resumed = api.Client(workers=1).submit(
            CampaignSpec.load(spec_path),
            checkpoint=ckpt_dir,
        ).wait()
        assert resumed.campaign_digest == clean.campaign_digest
        assert resumed.resumed_jobs >= 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parent_sigkill_resume_digest_identical(self, tmp_path, workers):
        spec_path = _write_spec(tmp_path)
        ckpt_dir = str(tmp_path / f"ckpt-{workers}")
        clean = api.Client(workers=1).submit(
            CampaignSpec.load(spec_path),
        ).wait()
        proc = subprocess.Popen(
            REPRO
            + [
                "campaign",
                spec_path,
                "--checkpoint",
                ckpt_dir,
                "--workers",
                str(workers),
                "--fault-plan",
                "hang:at=2",
                "--job-deadline",
                "60",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=_env(),
            # its own process group, so the pool workers the kill orphans
            # can be reaped once the test is done with them
            start_new_session=True,
        )
        try:
            try:
                _wait_for_result_line(os.path.join(ckpt_dir, "jobs.jsonl"))
                proc.send_signal(signal.SIGKILL)  # no cleanup of any kind
                proc.wait(timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            # resume without the fault: remaining jobs run, finished jobs
            # are skipped, and the digest matches an uninterrupted campaign
            resumed = api.Client(workers=workers, max_attempts=2).submit(
                CampaignSpec.load(spec_path),
                checkpoint=ckpt_dir,
            ).wait()
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # no orphan outlived the parent
        assert resumed.campaign_digest == clean.campaign_digest
        # no double counting: at most one result line per key, and no
        # job burned more attempts than the budget allows
        keys = {}
        attempts = {}
        with open(os.path.join(ckpt_dir, "jobs.jsonl"), encoding="utf-8") as f:
            for line in f:
                payload = json.loads(line)
                if "attempt_of" in payload:
                    key = payload["attempt_of"]
                    attempts[key] = attempts.get(key, 0) + 1
                else:
                    keys[payload["key"]] = keys.get(payload["key"], 0) + 1
        assert all(count == 1 for count in keys.values()), keys
        assert all(count <= 2 for count in attempts.values()), attempts

    def test_resume_continues_attempt_count(self, tmp_path):
        # a killed run left one spent attempt in the ledger; the resumed
        # run starts at attempt 2 and must NOT re-fire attempt 1
        spec = _spec()
        jobs = BatchPlanner().expand(spec)
        ckpt_dir = str(tmp_path / "ckpt")
        CampaignCheckpoint(ckpt_dir).record_attempt(
            jobs[0].key, 1, "deadline", error="deadline exceeded after 2 runs"
        )
        report = api.Client(workers=1, max_attempts=2).submit(
            spec,
            checkpoint=ckpt_dir,
        ).wait()
        done = {j.key: j for j in report.jobs}
        assert done[jobs[0].key].ok
        assert done[jobs[0].key].attempts == 2  # continued, not restarted
        assert CampaignCheckpoint(ckpt_dir).attempts(jobs[0].key) == 1


# -- `repro run` interrupt mapping (satellite) -------------------------------


class TestRunInterrupt:
    def test_sigterm_run_exits_3_with_resume_hint(self, tmp_path):
        program = tmp_path / "slow.c"
        # path space far beyond what fits in the signal-delivery window
        program.write_text(
            "int main(int a, int b) {\n"
            "  int i; int acc; acc = 0;\n"
            "  for (i = 0; i < 500; i = i + 1) {\n"
            "    if (a == i) { acc = acc + 1; }\n"
            "    if (b == i * 2) { acc = acc + 2; }\n"
            "  }\n"
            "  return acc;\n"
            "}\n",
            encoding="utf-8",
        )
        ckpt_dir = str(tmp_path / "ckpt")
        proc = subprocess.Popen(
            REPRO
            + [
                "run",
                str(program),
                "--max-runs",
                "100000",
                "--checkpoint",
                ckpt_dir,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_env(),
            text=True,
        )
        # give the search a moment to start, then interrupt it
        try:
            time.sleep(2.0)
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 3, (stdout, stderr)
        assert "interrupted" in stderr
        assert "resume with:" in stderr

    def test_run_job_deadline_flag_exits_3(self, tmp_path):
        program = tmp_path / "wide.c"
        program.write_text(
            "int main(int a, int b, int c, int d, int e) {\n"
            "  int acc; acc = 0;\n"
            "  if (a > 0) { acc = acc + 1; }\n"
            "  if (b > a) { acc = acc + 1; }\n"
            "  if (c > b) { acc = acc + 1; }\n"
            "  if (d > c) { acc = acc + 1; }\n"
            "  if (e > d) { acc = acc + 1; }\n"
            "  return acc;\n"
            "}\n",
            encoding="utf-8",
        )
        proc = subprocess.run(
            REPRO
            + [
                "run",
                str(program),
                "--max-runs",
                "100000",
                "--job-deadline",
                "1.0",
            ],
            capture_output=True,
            env=_env(),
            text=True,
            timeout=120,
        )
        # either the deadline fired (exit 3) or the tiny search finished
        # first (exit 0); on this wide program the deadline should win,
        # but never crash
        assert proc.returncode in (0, 3), (proc.stdout, proc.stderr)

    def test_interrupt_flag_raises_inside_generate_tests(self):
        clear_interrupt()
        request_interrupt("SIGINT")
        try:
            with pytest.raises(SearchInterrupted):
                api.generate_tests(
                    "int main(int x) { if (x > 0) { return 1; } return 0; }",
                )
        finally:
            clear_interrupt()


# -- corrupt disk-cache removal (satellite) ----------------------------------


class TestCorruptCacheRemoval:
    def test_corrupt_entry_deleted_on_first_detection(self, tmp_path):
        from repro.solver.cache import CachedResult
        from repro.solver.diskcache import DiskCache

        cache = DiskCache(str(tmp_path))
        key = ("check", ("var", 0))
        cache.store(key, CachedResult(sat=False, iterations=1))
        path = cache.path_for(key)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all")
        fresh = DiskCache(str(tmp_path))
        assert fresh.lookup(key) is None
        assert fresh.skipped == 1
        assert not os.path.exists(path)  # one failed parse, ever
        # the second lookup is a clean miss, not another corrupt skip
        assert fresh.lookup(key) is None
        assert fresh.skipped == 1

    def test_shape_invalid_entry_counts_one_skip_when_quarantine_fails(
        self, tmp_path, monkeypatch
    ):
        import json

        from repro.solver.diskcache import DISKCACHE_FORMAT, DiskCache
        from repro.store import ContentStore

        cache = DiskCache(str(tmp_path))
        key = ("check", ("var", 0))
        path = cache.path_for(key)
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": DISKCACHE_FORMAT, "sat": True}, handle)
        monkeypatch.setattr(
            ContentStore, "quarantine", lambda self, namespace, path: False
        )
        assert cache.lookup(key) is None
        assert (cache.hits, cache.misses, cache.skipped) == (0, 1, 1)
        assert os.path.exists(path)  # the failed quarantine left it in place


# -- CLI flags ---------------------------------------------------------------


class TestCliSurface:
    def test_campaign_parser_accepts_supervision_flags(self):
        from repro.cli.main import build_parser

        args = build_parser().parse_args(
            [
                "campaign",
                "paper",
                "--job-deadline",
                "10",
                "--max-attempts",
                "3",
                "--stall-timeout",
                "5",
            ]
        )
        assert args.job_deadline == 10.0
        assert args.max_attempts == 3
        assert args.stall_timeout == 5.0

    def test_run_parser_accepts_job_deadline(self):
        from repro.cli.main import build_parser

        args = build_parser().parse_args(
            ["run", "prog.c", "--job-deadline", "2.5"]
        )
        assert args.job_deadline == 2.5
