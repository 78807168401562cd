"""Checkpoint/resume for the directed search.

The directed search is a deterministic function of its seed and its
sequence of solver decisions, so a checkpoint is its decision log plus
what replay cannot recompute.  A checkpoint directory holds three files:

``meta.json``
    Session identity: entry point, concretization mode, backend name, seed
    input vector, the fault-plan spec (if any), and a format version.
``decisions.jsonl``
    **The source of truth for resume.**  One line per generation decision,
    in production order: which record/flip was attempted, which ladder rung
    answered it, the probe input vectors the multi-step driver ran, and the
    produced child inputs (or null).  Everything else a search does —
    executing programs, merging samples, updating coverage, scheduling the
    frontier — is a deterministic function of these decisions plus the
    seed, so resuming is *replay*: re-execute the cheap, deterministic
    program runs and skip the expensive solver calls entirely.
``state.json``
    ``{"fault_state": ...}``: the fault plan's per-site invocation
    counters (the search's only RNG-like state — rate rules are pure
    functions of those counters), rewritten every ``checkpoint_every``
    runs, so an injected fault sequence continues rather than repeats
    across a resume.

Every write is guarded: an ``OSError`` (real or injected at the
``checkpoint`` fault site) disables the writer, counts
``search.checkpoint.errors``, and the search keeps going without
persistence — checkpointing must never take the session down.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, TextIO

from ..atomic import publish_atomic
from ..errors import ReproError
from ..faults import current_fault_plan

__all__ = ["CheckpointWriter", "ReplayCursor", "FORMAT_VERSION"]

FORMAT_VERSION = 1


def _emit_write_error(path: str, exc: OSError) -> None:
    """Count and journal a checkpoint write failure (once per writer)."""
    from ..obs.journal import current_journal
    from ..obs.metrics import default_registry

    registry = default_registry()
    if registry.enabled:
        registry.counter("search.checkpoint.errors").inc()
    current_journal().emit(
        "checkpoint_error", path=path, error=str(exc)
    )


class CheckpointWriter:
    """Persists search progress into a checkpoint directory.

    ``resume=True`` re-opens an existing directory's decision log in append
    mode (after the replayed prefix has been verified) instead of starting
    a fresh one.
    """

    def __init__(
        self,
        directory: str,
        meta: Optional[Dict[str, object]] = None,
        resume: bool = False,
    ) -> None:
        self.directory = directory
        self.enabled = True
        self._decisions: Optional[TextIO] = None
        try:
            current_fault_plan().fire("checkpoint")
            os.makedirs(directory, exist_ok=True)
            if not resume:
                if meta is not None:
                    self._write_json("meta.json", dict(meta, version=FORMAT_VERSION))
                self._decisions = open(
                    self._path("decisions.jsonl"), "w", encoding="utf-8"
                )
            # on resume the decision log is opened by reset_decisions()
            # once the replayed prefix is known
        except OSError as exc:
            self._disable(exc)

    # -- paths -------------------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    # -- failure policy ----------------------------------------------------

    def _disable(self, exc: OSError) -> None:
        if self.enabled:
            self.enabled = False
            _emit_write_error(self.directory, exc)
        if self._decisions is not None:
            try:
                self._decisions.close()
            except OSError:
                pass
            self._decisions = None

    # -- decision log ------------------------------------------------------

    def append_decision(self, entry: Dict[str, object]) -> None:
        """Append one generation decision (flushed immediately)."""
        if not self.enabled or self._decisions is None:
            return
        try:
            current_fault_plan().fire("checkpoint")
            self._decisions.write(json.dumps(entry, default=str) + "\n")
            self._decisions.flush()
        except OSError as exc:
            self._disable(exc)

    def reset_decisions(self, consumed: Iterable[Dict[str, object]]) -> None:
        """Rewrite the decision log to exactly the replayed prefix.

        Called when a resume goes live: a full replay rewrites identical
        content; a replay that diverged truncates the stale tail so the
        log again matches what the search actually did.
        """
        if not self.enabled:
            return
        entries = list(consumed)
        try:
            current_fault_plan().fire("checkpoint")
            if self._decisions is not None:
                self._decisions.close()
            self._decisions = open(
                self._path("decisions.jsonl"), "w", encoding="utf-8"
            )
            for entry in entries:
                self._decisions.write(json.dumps(entry, default=str) + "\n")
            self._decisions.flush()
        except OSError as exc:
            self._disable(exc)

    # -- periodic state ----------------------------------------------------

    def flush_state(self, fault_state: Dict[str, object]) -> None:
        """Rewrite ``state.json`` with the fault plan's counters."""
        if not self.enabled:
            return
        try:
            current_fault_plan().fire("checkpoint")
            self._write_json("state.json", {"fault_state": fault_state})
        except OSError as exc:
            self._disable(exc)

    def _write_json(self, name: str, payload: Dict[str, object]) -> None:
        with publish_atomic(self._path(name)) as fh:
            json.dump(payload, fh, indent=2, default=str)
            fh.write("\n")

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._decisions is not None:
            try:
                self._decisions.close()
            except OSError:
                pass
            self._decisions = None


class ReplayCursor:
    """Sequential reader over a checkpoint's decision log.

    The resumed search asks :meth:`take` for the next decision each time it
    would otherwise call the solver; a match means the logged outcome is
    applied verbatim (probes re-executed, child re-executed) and the solver
    call is skipped.  A mismatch — the live expansion asked for a different
    (parent, flip) than the log recorded, which only happens if the program
    or the code changed under the checkpoint — ends the replay; the search
    goes live and the stale tail is discarded.
    """

    def __init__(
        self,
        directory: str,
        meta: Dict[str, object],
        decisions: List[Dict[str, object]],
        fault_state: Dict[str, object],
    ) -> None:
        self.directory = directory
        self.meta = meta
        self.fault_state = fault_state
        self._decisions = decisions
        self._pos = 0
        #: decisions actually matched by the live expansion order
        self.consumed: List[Dict[str, object]] = []
        #: True when the replay ended on a (parent, flip) mismatch
        self.diverged = False

    @classmethod
    def load(cls, directory: str) -> "ReplayCursor":
        meta_path = os.path.join(directory, "meta.json")
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ReproError(
                f"cannot resume from {directory!r}: {exc}"
            ) from exc
        decisions: List[Dict[str, object]] = []
        try:
            with open(
                os.path.join(directory, "decisions.jsonl"), "r", encoding="utf-8"
            ) as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        decisions.append(json.loads(line))
        except (OSError, ValueError):
            pass  # a missing/torn log means: replay nothing, start live
        fault_state: Dict[str, object] = {}
        try:
            with open(
                os.path.join(directory, "state.json"), "r", encoding="utf-8"
            ) as fh:
                fault_state = dict(json.load(fh).get("fault_state") or {})
        except (OSError, ValueError):
            pass
        return cls(directory, meta, decisions, fault_state)

    # -- consumption -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._decisions)

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._decisions)

    def take(self, parent: int, flip: int) -> Optional[Dict[str, object]]:
        """The logged decision for (parent, flip), or None.

        None either means the log is exhausted (clean handoff to live
        search) or the head does not match (divergence — ``diverged`` is
        set and the rest of the log is dropped).
        """
        if self.exhausted:
            return None
        head = self._decisions[self._pos]
        if int(head.get("parent", -1)) != parent or int(head.get("flip", -1)) != flip:
            self.diverged = True
            self._pos = len(self._decisions)
            return None
        self._pos += 1
        self.consumed.append(head)
        return head
