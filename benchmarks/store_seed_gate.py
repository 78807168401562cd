#!/usr/bin/env python
"""CI gate: the shared content-addressed store is answer-neutral, warm,
and its cross-campaign corpus seeding actually transfers coverage.

The store (PR 10) persists three artifact kinds — solver verdicts,
generated corpora, crash buckets — under one root.  It earns its keep
only if three claims hold, and this gate measures all of them:

- **answer neutrality** — the paper campaign's digest is byte-identical
  with the store off, cold, warm, and at ``--workers 1`` and ``2``; a
  warm run must also report disk-cache hits and no disk-cache misses
  (the store is actually *used*, not just harmless, and it holds every
  verdict the campaign needs).
- **eviction safety** — after ``gc`` under a zero-byte budget evicts
  every entry, the campaign still reproduces the same digest.  Store
  entries are pure functions of their digests; losing one may cost a
  recomputation, never a different answer.
- **seed transfer** — the paper's ``foo`` example (§3.2): unsound
  concretization *provably never* reaches the ``foo bug`` error on its
  own — it plateaus at partial path coverage no matter the run budget.
  Seeded from a higher-order campaign's stored corpus, the same unsound
  engine must reach full coverage and the error, within fewer runs than
  the cold engine's exhausted budget.

Usage::

    PYTHONPATH=src python benchmarks/store_seed_gate.py
    PYTHONPATH=src python benchmarks/store_seed_gate.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import api  # noqa: E402
from repro.apps.paper_programs import PAPER_EXAMPLES  # noqa: E402
from repro.engine.planner import SearchJob, resolve_strategy  # noqa: E402
from repro.engine.runner import run_job  # noqa: E402
from repro.store import ContentStore  # noqa: E402

#: run budget for the seed-transfer arm — generous: the cold unsound
#: engine plateaus far below it, the seeded one finishes well inside it
SEED_BUDGET = 20


def _campaign(store_dir=None, workers=1):
    client = api.Client(workers=workers, store_dir=store_dir)
    return client.submit("paper").wait()


def _foo_job(strategy: str) -> SearchJob:
    foo = PAPER_EXAMPLES["foo"]
    mode = resolve_strategy(strategy)
    return SearchJob(
        key=f"foo//{foo.entry}//{mode}//dfs",
        program_name="foo",
        source=foo.source,
        entry=foo.entry,
        strategy=mode,
        natives="paper",
        seed=dict(foo.initial_inputs),
        config={"max_runs": SEED_BUDGET, "scheduler": "dfs"},
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default=None, metavar="FILE")
    args = parser.parse_args()
    workdir = tempfile.mkdtemp(prefix="store-gate-")
    store_dir = os.path.join(workdir, "campaign-store")
    failures = []

    # -- answer neutrality: off / cold / warm / workers 2 -------------------
    reference = _campaign()
    cold = _campaign(store_dir=store_dir)
    warm = _campaign(store_dir=store_dir)
    warm2 = _campaign(store_dir=store_dir, workers=2)
    digests = {
        "no_store": reference.campaign_digest,
        "cold": cold.campaign_digest,
        "warm": warm.campaign_digest,
        "warm_workers2": warm2.campaign_digest,
    }
    for name, digest in digests.items():
        status = "OK" if digest == reference.campaign_digest else "DRIFT"
        print(f"{name}: {digest} [{status}]")
    if len(set(digests.values())) != 1:
        failures.append("the store changed the campaign digest")
    disk_hits = warm.cache_totals().get("disk_hits", 0)
    disk_misses = warm.cache_totals().get("disk_misses", 0)
    print(f"warm run: {disk_hits} disk-cache hits, {disk_misses} misses")
    if disk_hits <= 0:
        failures.append("warm run reported no disk-cache hits")
    if disk_misses != 0:
        failures.append(f"warm run missed {disk_misses} cached queries")
    corpus_hits = ContentStore(store_dir).stats()["hits"].get("corpus", 0)

    # -- eviction safety: gc to zero, digest must still reproduce -----------
    evicted = ContentStore(store_dir).gc(0)
    total_evicted = sum(evicted.values())
    print(f"gc(0): evicted {total_evicted} entries {dict(sorted(evicted.items()))}")
    if total_evicted <= 0:
        failures.append("gc under a zero budget evicted nothing")
    after_gc = _campaign(store_dir=store_dir)
    print(f"after eviction: {after_gc.campaign_digest}")
    if after_gc.campaign_digest != reference.campaign_digest:
        failures.append("eviction changed the campaign digest")

    # -- seed transfer: unsound cold plateaus short; seeded finds the bug ---
    seed_store = os.path.join(workdir, "seed-store")
    donor = run_job(_foo_job("higher_order"), store_dir=seed_store)
    cold_unsound = run_job(_foo_job("unsound"))
    seeded = run_job(
        _foo_job("unsound"), store_dir=seed_store, seed_from_store=True
    )
    cold_found = any("foo bug" in e for e in cold_unsound.errors)
    seeded_found = any("foo bug" in e for e in seeded.errors)
    print(
        f"donor (higher_order): runs={donor.runs} paths={donor.paths} "
        f"errors={len(donor.errors)}"
    )
    print(
        f"unsound cold:   runs={cold_unsound.runs} paths={cold_unsound.paths} "
        f"error={cold_found} (budget {SEED_BUDGET})"
    )
    print(
        f"unsound seeded: runs={seeded.runs} paths={seeded.paths} "
        f"error={seeded_found}"
    )
    if cold_found:
        failures.append(
            "unsound concretization found foo's bug cold — the paper's "
            "negative claim (and this gate's premise) no longer holds"
        )
    if not seeded_found:
        failures.append("seeding did not transfer the error-reaching input")
    if seeded.paths <= cold_unsound.paths:
        failures.append("seeding did not raise path coverage past the plateau")
    if seeded.runs >= SEED_BUDGET:
        failures.append(
            f"seeded run needed its whole budget ({seeded.runs} runs) — "
            "no 'plateau in fewer runs' win to claim"
        )

    payload = {
        "digests": digests,
        "disk_hits": disk_hits,
        "disk_misses": disk_misses,
        "corpus_hits": corpus_hits,
        "evicted": evicted,
        "digest_after_gc": after_gc.campaign_digest,
        "seed_budget": SEED_BUDGET,
        "unsound_cold": {
            "runs": cold_unsound.runs,
            "paths": cold_unsound.paths,
            "found_error": cold_found,
        },
        "unsound_seeded": {
            "runs": seeded.runs,
            "paths": seeded.paths,
            "found_error": seeded_found,
        },
        "failures": failures,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    shutil.rmtree(workdir, ignore_errors=True)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
