"""Command-line interface: test a MiniC program from the shell.

Every subcommand is a thin wrapper over the :mod:`repro.api` facade
(:func:`repro.api.generate_tests`, :class:`repro.api.Client`,
:func:`repro.api.replay`), so library and shell users hit identical code
paths.  One module per subcommand:

- :mod:`repro.cli.run_cmd` — directed search with one engine;
- :mod:`repro.cli.stats_cmd` — search with a full observability report;
- :mod:`repro.cli.bench_cmd` — timed search with perf counters + digest;
- :mod:`repro.cli.campaign_cmd` — batch engine across worker processes;
- :mod:`repro.cli.fuzz_cmd` — blackbox random fuzzing baseline;
- :mod:`repro.cli.modes_cmd` — compare all four engines;
- :mod:`repro.cli.replay_cmd` — replay a saved test corpus;

with shared option helpers in :mod:`repro.cli.common` and the parser
assembly in :mod:`repro.cli.main`.

Usage::

    python -m repro run program.minic --entry main --seed x=1,y=2
    python -m repro run program.minic --mode unsound --max-runs 50
    python -m repro run program.minic --trace events.jsonl --profile
    python -m repro run program.minic --scheduler coverage  # guided frontier
    python -m repro run program.minic --checkpoint ck/    # interrupt-safe search
    python -m repro run program.minic --resume ck/        # continue after a kill
    python -m repro run program.minic --fault-plan 'solver:rate=0.2,seed=7'
    python -m repro fuzz program.minic --runs 500 --range -100:100
    python -m repro modes program.minic --seed x=1,y=2   # compare engines
    python -m repro stats program.minic --seed x=1,y=2   # observability report
    python -m repro bench program.minic                   # perf + suite digest
    python -m repro campaign paper --workers 4            # batch engine
    python -m repro campaign paper --scheduler generational
    python -m repro campaign suite.toml --cache-dir .repro-cache

Observability flags (``run`` and ``stats``):

- ``--trace FILE`` streams a JSONL journal of session events
  (``test_generated``, ``branch_flipped``, ``solver_query``,
  ``sample_recorded``, ``divergence_detected``, …; schema in
  docs/OBSERVABILITY.md) to ``FILE``;
- ``--profile`` prints the span profile (where wall time went) and the
  metrics registry (solver query counts, conflicts, concretizations)
  after the search;
- ``stats`` is ``run`` with both always on, rendered as one report.

Native (unknown) functions available to CLI-tested programs are the hash
zoo of :mod:`repro.apps.hashes` (``hash``, ``djb2``, ``fnv1a``, ``sdbm``,
``crc32``, ``flex_hash``, ``cipher``) — the same functions the paper's
experiments use.
"""

from __future__ import annotations

from .main import build_parser, main

__all__ = ["main", "build_parser"]
