"""Command-line interface: test a MiniC program from the shell.

Every subcommand is a thin wrapper over the :mod:`repro.api` facade
(:func:`repro.api.generate_tests`, :class:`repro.api.Client`,
:func:`repro.api.replay`), so library and shell users hit identical code
paths.  One job, one command — one module per subcommand:

- :mod:`repro.cli.run_cmd` — one directed search (suite digest, and
  with ``--profile`` or an export flag, where the time went);
- :mod:`repro.cli.stats_cmd` — campaign/service rollups of a directory
  (``stats``, with ``--follow`` to watch one live);
- :mod:`repro.cli.campaign_cmd` — batch engine across worker processes;
- :mod:`repro.cli.serve_cmd` — the campaign service and its clients;
- :mod:`repro.cli.store_cmd` — content-store maintenance;
- :mod:`repro.cli.fuzz_cmd` — blackbox random fuzzing baseline;
- :mod:`repro.cli.modes_cmd` — compare all four engines;
- :mod:`repro.cli.replay_cmd` — replay a saved test corpus;

with shared option helpers in :mod:`repro.cli.common` and the parser
assembly in :mod:`repro.cli.main`.

Usage::

    python -m repro run program.minic --entry main --seed x=1,y=2
    python -m repro run program.minic --mode unsound --max-runs 50
    python -m repro run program.minic --trace events.jsonl --profile
    python -m repro run program.minic --prom-out m.prom --trace-out t.json
    python -m repro run program.minic --scheduler coverage  # guided frontier
    python -m repro run program.minic --checkpoint ck/    # interrupt-safe search
    python -m repro run program.minic --resume ck/        # continue after a kill
    python -m repro run program.minic --fault-plan 'solver:rate=0.2,seed=7'
    python -m repro run program.minic --store-dir .repro-store  # warm solver
    python -m repro fuzz program.minic --runs 500 --range -100:100
    python -m repro modes program.minic --seed x=1,y=2   # compare engines
    python -m repro campaign paper --workers 4            # batch engine
    python -m repro campaign paper --scheduler generational
    python -m repro campaign suite.toml --store-dir .repro-store
    python -m repro stats ck/                             # campaign rollup

Observability flags of ``run``:

- every run prints its ``suite digest:`` line, the determinism gate;
- ``--trace FILE`` streams a JSONL journal of session events
  (``test_generated``, ``branch_flipped``, ``solver_query``,
  ``sample_recorded``, ``divergence_detected``, …; schema in
  docs/OBSERVABILITY.md) to ``FILE``;
- ``--profile`` prints the wall-time split, the span profile (where wall
  time went) and the metrics registry (solver query counts, conflicts,
  concretizations) after the search;
- ``--trace-out``/``--metrics-out``/``--prom-out`` export a Chrome
  trace, a metrics JSON snapshot and Prometheus text (``stats DIR``
  takes the same three for a campaign).

Native (unknown) functions available to CLI-tested programs are the hash
zoo of :mod:`repro.apps.hashes` (``hash``, ``djb2``, ``fnv1a``, ``sdbm``,
``crc32``, ``flex_hash``, ``cipher``) — the same functions the paper's
experiments use.
"""

from __future__ import annotations

from .main import build_parser, main

__all__ = ["main", "build_parser"]
