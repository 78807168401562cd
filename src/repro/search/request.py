"""Shared datatypes between the directed search and test-gen backends.

Kept dependency-free so both :mod:`repro.search.backends` and
:mod:`repro.core.hotg` can import them without cycles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from ..solver.terms import Term, TermManager
from ..symbolic.concolic import PathCondition

__all__ = ["GenerationRequest", "GeneratedTest", "TestGenBackend", "import_request"]


@dataclass
class GenerationRequest:
    """Everything a backend needs to derive a new test."""

    conditions: List[PathCondition]
    index: int
    input_vars: Dict[str, Term]
    #: previous run's concrete inputs — reused for unconstrained variables
    defaults: Dict[str, int]


@dataclass
class GeneratedTest:
    """A concrete input vector proposed by a backend."""

    inputs: Dict[str, int]
    #: number of intermediate program runs spent (multi-step generation)
    intermediate_runs: int = 0
    note: str = ""


class TestGenBackend(Protocol):
    """Protocol implemented by all test-generation backends.

    The search kernel solves every flip — full strength, and again under
    the escalated budget at the end of the search — through
    :meth:`generate`.  A built-in backend solves an :func:`import_request`
    copy on a private :class:`TermManager`, so its answer is a function of
    the request alone (and, for the higher-order backend, of the sample
    store), never of what the caller's manager interned before.  Solver
    term ids, SAT variable order and the models found depend on that, and
    so do the pinned suite digests.
    """

    def generate(self, request: GenerationRequest) -> Optional[GeneratedTest]:
        """Return inputs driving execution down the flipped branch, or None."""
        ...


def import_request(
    request: GenerationRequest,
    local: Optional[TermManager] = None,
    cache: Optional[Dict[Term, Term]] = None,
) -> Tuple[TermManager, GenerationRequest]:
    """Deep-copy ``request`` into ``local`` (a fresh :class:`TermManager`
    by default).

    Path-condition terms and input variables are imported (function symbols
    stay shared — they are immutable and identity-keyed everywhere), so
    term ids in the copy depend only on the request's structure, never on
    what the engine's manager interned before.  Subterms already in
    ``cache`` (mapping to terms of ``local``) are replaced, not imported.
    """
    local = local if local is not None else TermManager()
    cache = cache if cache is not None else {}
    conditions = [
        dataclasses.replace(pc, term=local.import_term(pc.term, cache))
        for pc in request.conditions
    ]
    input_vars = {
        name: local.import_term(var, cache)
        for name, var in request.input_vars.items()
    }
    return local, GenerationRequest(
        conditions=conditions,
        index=request.index,
        input_vars=input_vars,
        defaults=dict(request.defaults),
    )
