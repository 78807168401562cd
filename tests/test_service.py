"""Tests for the campaign service (repro.service) and the Client API.

The load-bearing acceptance criterion: two concurrent campaigns
sharing one ``repro serve`` fleet must complete with campaign digests
byte-identical to standalone runs — including after SIGKILLing the
server mid-campaign and restarting it (no attempt double-spend, no
duplicated result lines).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import api
from repro.engine.planner import BatchPlanner, CampaignSpec
from repro.engine.runner import CampaignCheckpoint, JobResult
from repro.errors import ReproError, SearchInterrupted
from repro.service import (
    CampaignService,
    ServiceClient,
    ServiceScheduler,
    ServiceState,
    is_service_dir,
)
from repro.service.state import submission_ticket


def _spec(max_runs=20, n_programs=2, prefix=""):
    """A small campaign of self-contained programs (no natives).

    ``prefix`` renames the programs; job keys embed the program name, so
    distinct prefixes give campaigns non-overlapping key spaces.
    """
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
    if prefix:
        programs = [dict(p, name=prefix + p["name"]) for p in programs]
    return CampaignSpec(
        programs=programs,
        strategies=["higher_order"],
        max_runs=max_runs,
    )


def _serve_until_idle(state_dir, **kwargs):
    kwargs.setdefault("workers", 1)
    service = CampaignService(state_dir, idle_exit=True, **kwargs)
    return service.serve()


# -- durable state -----------------------------------------------------------


class TestServiceState:
    def test_submit_is_content_addressed_and_dedups(self, tmp_path):
        state = ServiceState(str(tmp_path / "state"))
        payload = _spec().as_payload()
        rec1, created1 = state.submit(payload, priority=1, tenant="a")
        rec2, created2 = state.submit(payload, priority=9, tenant="a")
        assert created1 and not created2
        # priority is excluded from the ticket: same work, same campaign
        assert rec1.ticket == rec2.ticket
        assert rec2.priority == 1  # the original record wins
        other, created3 = state.submit(payload, tenant="b")
        assert created3 and other.ticket != rec1.ticket

    def test_records_survive_reload_in_seq_order(self, tmp_path):
        state = ServiceState(str(tmp_path / "state"))
        state.submit(_spec(max_runs=10).as_payload())
        state.submit(_spec(max_runs=20).as_payload())
        reloaded = ServiceState(str(tmp_path / "state"))
        records = reloaded.records()
        assert [r.seq for r in records] == [1, 2]
        assert all(r.status == "queued" for r in records)

    def test_resolve_prefix(self, tmp_path):
        state = ServiceState(str(tmp_path / "state"))
        record, _ = state.submit(_spec().as_payload())
        assert state.resolve(record.ticket[:8]) == record.ticket
        with pytest.raises(ReproError):
            state.resolve("ffff")

    def test_cancel_marker(self, tmp_path):
        state = ServiceState(str(tmp_path / "state"))
        record, _ = state.submit(_spec().as_payload())
        assert not state.cancel_requested(record.ticket)
        assert state.request_cancel(record.ticket)
        assert state.cancel_requested(record.ticket)
        assert not state.request_cancel("no-such-ticket")

    def test_is_service_dir(self, tmp_path):
        assert not is_service_dir(str(tmp_path))
        ServiceState(str(tmp_path / "state"))
        assert is_service_dir(str(tmp_path / "state"))

    def test_ticket_ignores_priority_but_not_options(self):
        payload = _spec().as_payload()
        base = submission_ticket(payload, {}, "t")
        assert submission_ticket(payload, {}, "t") == base
        assert submission_ticket(payload, {"scheduler": "coverage"}, "t") != base
        assert submission_ticket(payload, {}, "u") != base


# -- the lease policy --------------------------------------------------------


def _scheduler(tmp_path, **kwargs):
    state = ServiceState(str(tmp_path / "state"))
    return state, ServiceScheduler(state, idle_exit=True, **kwargs)


class TestSchedulerPolicy:
    def test_priority_wins_the_next_lease(self, tmp_path):
        state, sched = _scheduler(tmp_path)
        low, _ = state.submit(_spec(max_runs=10).as_payload(), priority=0)
        high, _ = state.submit(_spec(max_runs=20).as_payload(), priority=5)
        lease = sched.lease()
        assert lease is not None
        assert sched._leased_keys[lease.job.key] == high.ticket

    def test_fair_share_alternates_tenants(self, tmp_path):
        state, sched = _scheduler(tmp_path)
        a, _ = state.submit(_spec(prefix="a_").as_payload(), tenant="a")
        b, _ = state.submit(_spec(prefix="b_").as_payload(), tenant="b")
        owners = []
        for _i in range(4):
            lease = sched.lease()
            assert lease is not None
            owners.append(sched._leased_keys[lease.job.key])
        # seq breaks the first tie; after that the tenant with fewer
        # in-flight leases wins, so leases alternate a, b, a, b
        assert owners == [a.ticket, b.ticket, a.ticket, b.ticket]

    def test_quota_throttles_tenant(self, tmp_path):
        state, sched = _scheduler(tmp_path, default_quota=1)
        a, _ = state.submit(_spec(prefix="a_").as_payload(), tenant="a")
        b, _ = state.submit(_spec(prefix="b_").as_payload(), tenant="b")
        first = sched.lease()
        second = sched.lease()
        assert {
            sched._leased_keys[first.job.key],
            sched._leased_keys[second.job.key],
        } == {a.ticket, b.ticket}
        # both tenants are at quota 1: nothing more to lease, yet
        # the queue is still outstanding
        assert sched.lease() is None
        assert sched.outstanding()

    def test_same_key_never_leased_twice_concurrently(self, tmp_path):
        state, sched = _scheduler(tmp_path)
        payload = _spec(max_runs=10, n_programs=1).as_payload()
        a, _ = state.submit(payload, tenant="a")
        b, _ = state.submit(payload, tenant="b")
        first = sched.lease()
        assert sched._leased_keys[first.job.key] == a.ticket
        # b's only job has the same key; it must wait for a's lease
        assert sched.lease() is None
        sched.completed(JobResult(key=first.job.key, ok=True))
        second = sched.lease()
        assert second.job.key == first.job.key
        assert sched._leased_keys[second.job.key] == b.ticket

    def test_fleet_size_throttles_leases(self, tmp_path):
        state, sched = _scheduler(tmp_path, workers=1)
        state.submit(_spec(max_runs=10).as_payload())
        first = sched.lease()
        assert first is not None
        # the one fleet slot is taken: the next job waits for it
        assert sched.lease() is None and sched.outstanding()
        sched.completed(JobResult(key=first.job.key, ok=True))
        second = sched.lease()
        assert second is not None and second.job.key != first.job.key

    def test_released_job_is_leasable_again(self, tmp_path):
        state, sched = _scheduler(tmp_path)
        state.submit(_spec(max_runs=10, n_programs=1).as_payload())
        lease = sched.lease()
        assert sched.lease() is None
        sched.released(lease.job)
        again = sched.lease()
        assert again is not None and again.job.key == lease.job.key

    def test_unplannable_submission_fails_without_crashing(self, tmp_path):
        state, sched = _scheduler(tmp_path)
        state.submit({"programs": [{"name": "bad", "source": "int ("}]})
        good, _ = state.submit(_spec(max_runs=10).as_payload())
        lease = sched.lease()
        assert sched._leased_keys[lease.job.key] == good.ticket
        bad = [r for r in state.records() if r.ticket != good.ticket][0]
        assert bad.status == "failed"
        assert bad.error

    @pytest.mark.parametrize("config", [{"bogus": 2}, {"max_runs": 0}])
    def test_bad_config_fails_the_submission_not_its_jobs(
        self, tmp_path, config
    ):
        state, sched = _scheduler(tmp_path)
        bad, _ = state.submit(CampaignSpec.paper_suite(config=config).as_payload())
        assert sched.lease() is None
        record = [r for r in state.records() if r.ticket == bad.ticket][0]
        assert record.status == "failed"
        assert "campaign config" in record.error


# -- end to end: shared fleet, byte-identical digests ------------------------


class TestServiceEndToEnd:
    def test_two_campaigns_one_fleet_digest_identical(self, tmp_path):
        spec_a = _spec(max_runs=10)
        spec_b = _spec(max_runs=25, n_programs=3, prefix="b_")
        baseline_a = api.Client().submit(spec_a).wait()
        baseline_b = api.Client().submit(spec_b).wait()
        client = ServiceClient(str(tmp_path / "state"))
        ha = client.submit(spec_a, priority=1, tenant="alice")
        hb = client.submit(spec_b, priority=0, tenant="bob")
        settled = _serve_until_idle(str(tmp_path / "state"), workers=2)
        assert settled == len(baseline_a.jobs) + len(baseline_b.jobs)
        assert ha.result().campaign_digest == baseline_a.campaign_digest
        assert hb.result().campaign_digest == baseline_b.campaign_digest
        assert ha.status() == hb.status() == "done"

    def test_results_survive_server_exit_and_restart(self, tmp_path):
        client = ServiceClient(str(tmp_path / "state"))
        handle = client.submit(_spec(max_runs=10))
        _serve_until_idle(str(tmp_path / "state"))
        digest = handle.result().campaign_digest
        # a fresh server over the same state dir has nothing to do and
        # the finished campaign stays fetchable
        assert _serve_until_idle(str(tmp_path / "state")) == 0
        fresh = ServiceClient(str(tmp_path / "state"))
        assert fresh.handle(handle.ticket[:10]).result().campaign_digest == digest

    def test_legacy_record_options_still_activate(self, tmp_path):
        """A submission persisted before ``jobs``/``exec_backend`` were
        removed (killed mid-campaign, so still "running") activates on a
        restarted server and reproduces the standalone paper digest."""
        state_dir = str(tmp_path / "state")
        state = ServiceState(state_dir)
        record, _ = state.submit(
            CampaignSpec.paper_suite().as_payload(),
            options={"jobs": 2, "exec_backend": "tree"},
        )
        record.status = "running"
        state.update(record)
        standalone = api.Client().submit("paper").wait()
        assert _serve_until_idle(state_dir) == len(standalone.jobs)
        handle = ServiceClient(state_dir).handle(record.ticket)
        assert handle.status() == "done"
        assert handle.result().campaign_digest == standalone.campaign_digest

    def test_cancel_before_serve_finalizes_cancelled(self, tmp_path):
        client = ServiceClient(str(tmp_path / "state"))
        handle = client.submit(_spec(max_runs=10))
        assert handle.cancel()
        _serve_until_idle(str(tmp_path / "state"))
        assert handle.status() == "cancelled"
        with pytest.raises(SearchInterrupted):
            handle.wait(timeout=5)

    def test_stream_events_after_the_fact(self, tmp_path):
        client = ServiceClient(str(tmp_path / "state"))
        handle = client.submit(_spec(max_runs=10))
        _serve_until_idle(str(tmp_path / "state"))
        kinds = {e.get("kind") for e in handle.stream_events(timeout=10)}
        assert "job_finished" in kinds
        assert all("job" in e for e in handle.stream_events(timeout=5))

    def test_service_fault_site_interrupts_then_recovers(self, tmp_path):
        spec = _spec(max_runs=10)
        baseline = api.Client().submit(spec).wait()
        client = ServiceClient(str(tmp_path / "state"))
        handle = client.submit(spec)
        # the service site kills the server mid-lease: after the grant,
        # before dispatch — the lease is not durable, so a restarted
        # server re-leases the job
        with pytest.raises(SearchInterrupted):
            _serve_until_idle(str(tmp_path / "state"), fault_plan="service:at=2")
        assert handle.status() == "running"  # durable record, not lost
        _serve_until_idle(str(tmp_path / "state"))
        assert handle.result().campaign_digest == baseline.campaign_digest

    def test_restart_continues_the_dispatch_fault_plan(self, tmp_path):
        # the pool break fires at the first lease; the service site stops
        # the server at the second.  The restarted server restores the
        # saved counters, so the break does not fire again: one retried
        # job, as in an uninterrupted run
        spec = _spec(max_runs=10)
        state_dir = str(tmp_path / "state")
        uninterrupted = str(tmp_path / "once")
        ServiceClient(uninterrupted).submit(spec)
        _serve_until_idle(uninterrupted, fault_plan="pool:at=1")
        handle = ServiceClient(state_dir).submit(spec)
        with pytest.raises(SearchInterrupted):
            _serve_until_idle(state_dir, fault_plan="pool:at=1;service:at=2")
        saved = ServiceState(state_dir).load_fault_state()
        assert saved is not None and saved["plan"]["fired"] == {"pool": 1}
        _serve_until_idle(state_dir, fault_plan="pool:at=1")
        report = handle.result()
        once = ServiceClient(uninterrupted).submit(spec).result()
        assert report.campaign_digest == once.campaign_digest
        assert [j.attempts for j in report.jobs] == [j.attempts for j in once.jobs]
        assert sum(j.attempts > 1 for j in report.jobs) == 1


# -- per-job deadlines on a served fleet --------------------------------------


class TestServedJobDeadline:
    def test_submission_deadline_reclaims_inprocess_hang(self, tmp_path):
        # the job's own deadline (`submit --job-deadline`) is what the
        # supervisor checks: at one worker the injected hang runs
        # in-process and the search reclaims itself at the deadline
        spec = _spec(max_runs=10)
        standalone = api.Client().submit(spec).wait()
        state_dir = str(tmp_path / "state")
        handle = ServiceClient(state_dir).submit(spec, job_deadline=0.5)
        _serve_until_idle(state_dir, workers=1, fault_plan="hang:at=1")
        report = handle.result()
        assert report.campaign_digest == standalone.campaign_digest
        assert not report.quarantined_jobs
        retried = [j.key for j in report.jobs if j.attempts > 1]
        assert len(retried) == 1
        ledger = CampaignCheckpoint(
            ServiceState(state_dir).campaign_dir(handle.ticket)
        ).last_attempt(retried[0])
        assert ledger is not None and ledger["outcome"] == "deadline"

    def test_serve_rejects_job_deadline(self, tmp_path):
        from repro.cli.main import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["serve", "--state-dir", str(tmp_path), "--job-deadline", "10"]
            )
        assert excinfo.value.code == 2


# -- the Client / CampaignHandle object model --------------------------------


class TestClientApi:
    def test_local_submit_wait_result_contract(self, tmp_path):
        client = api.Client(workers=1)
        handle = client.submit(_spec(max_runs=10))
        assert isinstance(handle, api.CampaignHandle)
        assert len(handle.ticket) == 64
        report = handle.wait(timeout=120)
        assert handle.done() and handle.status() == "done"
        assert handle.result().campaign_digest == report.campaign_digest

    def test_local_ticket_matches_service_ticket(self, tmp_path):
        # content-addressing is backend-independent: the same submission
        # gets the same ticket locally and against a state dir
        spec = _spec(max_runs=10)
        local = api.Client().submit(spec)
        local.wait(timeout=120)
        remote = ServiceClient(str(tmp_path / "state")).submit(spec)
        assert local.ticket == remote.ticket

    def test_local_result_before_done_raises(self):
        client = api.Client(workers=1)
        handle = client.submit(_spec(max_runs=25, n_programs=3))
        try:
            with pytest.raises(ReproError):
                # the campaign just started on its thread; a result this
                # early means wait() semantics leaked into result()
                handle.result()
        finally:
            handle.wait(timeout=120)

    def test_local_invalid_spec_raises_synchronously(self):
        with pytest.raises(ReproError):
            api.Client().submit({"programs": [{"name": "bad", "source": "int ("}]})

    def test_local_stall_timeout_requires_telemetry(self):
        with pytest.raises(ReproError, match="telemetry"):
            api.Client(stall_timeout=5.0).submit(_spec(max_runs=10))

    def test_service_mode_rejects_local_only_options(self, tmp_path):
        client = api.Client(state_dir=str(tmp_path / "state"))
        with pytest.raises(ReproError, match="local-only"):
            client.submit(_spec(), checkpoint=str(tmp_path / "ckpt"))
        with pytest.raises(ReproError, match="local-only"):
            client.submit(_spec(), progress=lambda r: None)

    def test_local_handle_rejects_reattach(self):
        with pytest.raises(ReproError):
            api.Client().handle("f" * 64)

    @pytest.mark.parametrize("config", [{"bogus": 2}, {"max_runs": 0}])
    def test_local_bad_config_raises_synchronously(self, config):
        spec = CampaignSpec.paper_suite(config=config)
        with pytest.raises(ReproError, match="campaign config"):
            api.Client(workers=1).submit(spec)

    def test_client_checkpoint_resume_skips_finished_jobs(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        first = api.Client().submit(_spec(max_runs=10), checkpoint=ckpt).wait()
        second = api.Client().submit(_spec(max_runs=10), checkpoint=ckpt).wait()
        assert second.resumed_jobs == len(first.jobs)
        assert second.campaign_digest == first.campaign_digest


# -- kill the server, restart, digests must not budge ------------------------


REPRO = [sys.executable, "-m", "repro"]


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _write_spec(tmp_path, name, **kwargs):
    spec = _spec(**kwargs)
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "programs": spec.programs,
                "strategies": spec.strategies,
                "max_runs": spec.max_runs,
            }
        ),
        encoding="utf-8",
    )
    return str(path)


def _wait_for_result_line(jobs_path, timeout=60.0):
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


class TestServeKillRecovery:
    def test_sigkill_mid_campaign_restart_completes_both(self, tmp_path):
        spec_a = _write_spec(tmp_path, "a.json", max_runs=20, n_programs=3)
        spec_b = _write_spec(
            tmp_path, "b.json", max_runs=35, n_programs=2, prefix="b_"
        )
        clean_a = api.Client().submit(spec_a).wait()
        clean_b = api.Client().submit(spec_b).wait()
        state_dir = str(tmp_path / "state")
        tickets = []
        for spec_path, priority in ((spec_a, 1), (spec_b, 0)):
            out = subprocess.run(
                REPRO
                + [
                    "submit",
                    "--state-dir",
                    state_dir,
                    spec_path,
                    "--priority",
                    str(priority),
                ],
                capture_output=True,
                text=True,
                env=_env(),
                timeout=60,
            )
            assert out.returncode == 0, out.stderr
            tickets.append(out.stdout.split("ticket", 1)[1].split()[0])
        state = ServiceState(state_dir)
        proc = subprocess.Popen(
            REPRO
            + ["serve", "--state-dir", state_dir, "--workers", "1", "--quiet"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=_env(),
        )
        try:
            # spec_a has priority 1, so the server starts there; kill it
            # as soon as one job has landed in a's checkpoint
            _wait_for_result_line(
                os.path.join(state.campaign_dir(tickets[0]), "jobs.jsonl")
            )
            proc.send_signal(signal.SIGKILL)  # no cleanup of any kind
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # restart over the same state dir: in-flight campaigns resume
        # from their attempt ledgers, queued ones get served
        restarted = subprocess.run(
            REPRO
            + [
                "serve",
                "--state-dir",
                state_dir,
                "--workers",
                "1",
                "--idle-exit",
                "--quiet",
            ],
            capture_output=True,
            text=True,
            env=_env(),
            timeout=300,
        )
        assert restarted.returncode == 0, restarted.stderr
        client = ServiceClient(state_dir)
        result_a = client.handle(tickets[0]).result()
        result_b = client.handle(tickets[1]).result()
        assert result_a.campaign_digest == clean_a.campaign_digest
        assert result_b.campaign_digest == clean_b.campaign_digest
        # no double-spend: at most one result line per key, and no job
        # burned more attempts than the default budget allows
        for ticket in tickets:
            keys = {}
            attempts = {}
            jobs_path = os.path.join(state.campaign_dir(ticket), "jobs.jsonl")
            with open(jobs_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    payload = json.loads(line)
                    if "attempt_of" in payload:
                        key = payload["attempt_of"]
                        attempts[key] = attempts.get(key, 0) + 1
                    else:
                        keys[payload["key"]] = keys.get(payload["key"], 0) + 1
            assert all(count == 1 for count in keys.values()), keys
            assert all(count <= 2 for count in attempts.values()), attempts


# -- CLI surface -------------------------------------------------------------


class TestServeCliSurface:
    def test_serve_help_flags(self, capsys):
        from repro.cli.main import main

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        helptext = capsys.readouterr().out
        for flag in (
            "--state-dir",
            "--workers",
            "--idle-exit",
            "--tenant-quota",
            "--store-dir",
            "--max-attempts",
            "--stall-timeout",
            "--fault-plan",
        ):
            assert flag in helptext, f"serve --help lost {flag}"
        # --store-dir is the only spelling of the persistent solver cache
        assert "--cache-dir" not in helptext
        # the deadline belongs to the submission (`submit --job-deadline`)
        assert "--job-deadline" not in helptext

    def test_submit_serve_status_results_cancel_roundtrip(
        self, tmp_path, capsys
    ):
        from repro.cli.main import main

        spec_path = _write_spec(tmp_path, "spec.json", max_runs=10)
        state_dir = str(tmp_path / "state")
        assert main(["submit", "--state-dir", state_dir, spec_path]) == 0
        ticket = capsys.readouterr().out.split("ticket", 1)[1].split()[0]
        assert main(["status", "--state-dir", state_dir]) == 0
        assert "queued" in capsys.readouterr().out
        assert (
            main(
                [
                    "serve",
                    "--state-dir",
                    state_dir,
                    "--idle-exit",
                    "--quiet",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["results", "--state-dir", state_dir, ticket[:12]]) == 0
        out = capsys.readouterr().out
        assert "campaign digest:" in out
        assert main(["cancel", "--state-dir", state_dir, ticket[:12]]) == 0
        assert "already terminal" in capsys.readouterr().out

    def test_stats_renders_service_view(self, tmp_path, capsys):
        from repro.cli.main import main

        state_dir = str(tmp_path / "state")
        ServiceClient(state_dir).submit(_spec(max_runs=10), tenant="ci")
        _serve_until_idle(state_dir)
        assert main(["stats", state_dir]) == 0
        out = capsys.readouterr().out
        assert "[service]" in out
        assert "tenant" in out and "ci" in out
