"""Test-generation backends: turn an alternate path constraint into inputs.

The directed search (:mod:`repro.search.directed`) is agnostic to *how* a
new input vector is derived from a path constraint; a backend encapsulates
that step.  Three backends reproduce the paper's three worlds:

- :class:`QuantifierFreeBackend` — the DART way: satisfiability of the
  quantifier-free ``ALT(pc)`` (used with the concretization modes, whose
  constraints are UF-free).
- :class:`ExistentialBackend` — models *static test generation* (paper §1
  and §4.2): everything, including unknown functions, is existentially
  quantified, so the solver may "invent" function behaviour and produce
  unusable tests.  Divergence statistics then quantify the §1 claim.
- ``HigherOrderBackend`` (in :mod:`repro.core.hotg`) — the paper's
  contribution: validity proofs over universally quantified UFs.

Each backend solves a private :func:`~repro.search.request.import_request`
copy of the request with a stateless :class:`~repro.solver.smt.Solver`
(the :class:`~repro.search.request.TestGenBackend` contract).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..solver.smt import Model, Solver
from ..solver.terms import TermManager
from ..core.post import alternate_constraint
from .request import GeneratedTest, GenerationRequest, TestGenBackend, import_request

__all__ = [
    "GenerationRequest",
    "GeneratedTest",
    "TestGenBackend",
    "QuantifierFreeBackend",
    "ExistentialBackend",
    "satisfy",
]

#: cap on extra solver calls spent retaining defaults per generation
MAX_RETENTION_CALLS = 8


def _inputs(model: Model, request: GenerationRequest) -> Dict[str, int]:
    """The model's input vector; inputs it leaves free keep their defaults."""
    return {
        name: model.ints.get(name, request.defaults.get(name, 0))
        for name in request.input_vars
    }


def _first_model(
    tm: TermManager, request: GenerationRequest
) -> Tuple[Solver, Optional[Model]]:
    """A solver holding ``ALT(pc)`` on ``tm``, and its first model (or None)."""
    solver = Solver(tm)
    solver.add(alternate_constraint(tm, request.conditions, request.index))
    result = solver.check()
    return solver, result.model if result.sat else None


def satisfy(tm: TermManager, request: GenerationRequest) -> Optional[GeneratedTest]:
    """DART's generation step for a request whose terms live on ``tm``.

    A model of the quantifier-free ``ALT(pc)``, then greedily pinned back
    to the previous inputs where the constraint allows it (at most
    :data:`MAX_RETENTION_CALLS` extra checks), so the generated test
    differs from its parent only where the flipped branch demands (paper
    §2: inputs are *variants* of the previous vector).
    """
    solver, model = _first_model(tm, request)
    if model is None:
        return None
    kept: list = []
    calls = 0
    for name, var in sorted(request.input_vars.items()):
        if name not in request.defaults:
            continue
        default = request.defaults[name]
        if model.ints.get(name, default) == default:
            continue  # already at the old value
        if calls >= MAX_RETENTION_CALLS:
            break
        pin = tm.mk_eq(var, tm.mk_int(default))
        calls += 1
        attempt = solver.check(*(kept + [pin]))
        if attempt.sat and attempt.model is not None:
            kept.append(pin)
            model = attempt.model
    return GeneratedTest(inputs=_inputs(model, request), note="satisfiability")


class QuantifierFreeBackend:
    """Classic DART test generation: solve the quantifier-free ``ALT(pc)``.

    Constraints produced by the concretization modes contain no UF symbols,
    so a plain satisfiability check suffices (:func:`satisfy`, on a private
    copy of the request).
    """

    name = "quantifier-free"

    def generate(self, request: GenerationRequest) -> Optional[GeneratedTest]:
        return satisfy(*import_request(request))


class ExistentialBackend:
    """Static test generation: satisfiability with *existential* UFs.

    This is the paper's §4.2 foil: "checking the satisfiability of the
    formula x = h(y) (where h, x and y are thus all implicitly quantified
    existentially) may return satisfying assignments that are unusable for
    test generation since the existential quantifier over h allows the
    constraint solver to invent some specific arbitrary function h".

    Our :class:`~repro.solver.smt.Solver` Ackermannizes UF applications, so
    it implements exactly that existential semantics.  The divergence rate
    of tests generated this way measures how unusable they are.
    """

    name = "existential (static)"

    def generate(self, request: GenerationRequest) -> Optional[GeneratedTest]:
        tm, local = import_request(request)
        _, model = _first_model(tm, local)
        if model is None:
            return None
        return GeneratedTest(
            inputs=_inputs(model, local), note="existential satisfiability"
        )
