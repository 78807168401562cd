"""The batch engine: multi-process campaigns over many search jobs.

Python threads cannot beat serial wall time on CPU-bound solver work, so
one search runs serially; campaigns over many programs are
embarrassingly parallel *across* searches, so this package distributes
whole search jobs over worker **processes** — the standard recipe for
scaling concolic testing to program suites, and the only parallel axis.

Three stages, composable or driven together by
:class:`repro.api.Client` / ``repro campaign``:

- :class:`~repro.engine.planner.BatchPlanner` expands a declarative
  :class:`~repro.engine.planner.CampaignSpec` (TOML/JSON file, the
  built-in paper suite, or a literal) into sorted, picklable
  :class:`~repro.engine.planner.SearchJob` units;
- :class:`~repro.engine.runner.ProcessPoolRunner` executes them on a
  spawn-safe process pool (``workers=1`` runs in-process), every
  dispatch supervised by a
  :class:`~repro.engine.supervisor.CampaignSupervisor` — per-job
  deadlines, a heartbeat watchdog, bounded deterministic retry,
  poison-job quarantine, and graceful shutdown — while worker deaths
  (injected via the ``worker-proc`` fault site or real) are contained
  by recomputing the job in the parent;
- :class:`~repro.engine.merger.ResultMerger` folds the per-job results
  into one :class:`~repro.engine.merger.CampaignReport` whose campaign
  digest is byte-identical at every worker count.

:class:`~repro.engine.merger.Campaign` ties the stages into the one
lifecycle batch and served campaigns share: plan, resume from the
checkpoint, settle each finished job, report.

Jobs share a persistent :class:`~repro.solver.diskcache.DiskCache` —
the ``solver/`` namespace of the ``--store-dir`` content store — read and
written across processes and across runs; hits are answer-preserving,
so warmth changes wall time, never suites.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".merger": ["Campaign", "CampaignReport", "ResultMerger"],
        ".planner": ["BatchPlanner", "CampaignSpec", "SearchJob"],
        ".runner": [
            "CampaignCheckpoint", "JobResult", "ProcessPoolRunner", "run_job",
        ],
        ".supervisor": ["CampaignSupervisor", "SupervisorConfig"],
    },
)

__all__ = [
    "BatchPlanner",
    "Campaign",
    "CampaignCheckpoint",
    "CampaignReport",
    "CampaignSpec",
    "CampaignSupervisor",
    "JobResult",
    "ProcessPoolRunner",
    "ResultMerger",
    "SearchJob",
    "SupervisorConfig",
    "run_job",
]
