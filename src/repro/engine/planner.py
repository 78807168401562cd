"""Campaign planning: expand a spec into independent, picklable search jobs.

A *campaign* is a batch of directed-search sessions — programs × entry
points × strategies — meant to run unattended across a worker pool
(:mod:`repro.engine.runner`) and fold into one report
(:mod:`repro.engine.merger`).  This module owns the two declarative
pieces:

- :class:`CampaignSpec` — what to test.  Loadable from a TOML or JSON
  file (see docs/API.md for the schema), buildable from the paper-example
  registry (:meth:`CampaignSpec.paper_suite`), or constructed directly.
- :class:`SearchJob` — one fully self-contained unit of work.  A job
  carries program *source text* (not parsed ASTs), the natives-registry
  *name* (not callables), and plain-dict config — everything a spawned
  worker process needs to rebuild its own :class:`~repro.solver.terms.TermManager`,
  interpreter, and search privately.  Jobs pickle cheaply and never share
  mutable state, which is what makes the pool embarrassingly parallel and
  the campaign digest independent of ``--workers``.

Job keys (``program//entry//strategy//scheduler``) are unique within a
campaign and define the canonical (sorted) order every report uses.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..errors import ReproError
from ..lang.parser import parse_program
from ..search.directed import SearchConfig
from ..search.scheduler import SCHEDULERS, scheduler_names
from ..symbolic.concolic import ConcretizationMode

__all__ = [
    "SearchJob",
    "CampaignSpec",
    "BatchPlanner",
    "NATIVES_NAMES",
    "resolve_spec",
]

#: natives registries a job may name (resolved in the worker process;
#: see repro.engine.runner.build_natives)
NATIVES_NAMES = ("paper", "hashes", "none")

#: accepted strategy spellings -> concretization-mode value
STRATEGY_ALIASES = {
    "hotg": ConcretizationMode.HIGHER_ORDER.value,
    "higher_order": ConcretizationMode.HIGHER_ORDER.value,
    "higher-order": ConcretizationMode.HIGHER_ORDER.value,
    "dart": ConcretizationMode.UNSOUND.value,
    "unsound": ConcretizationMode.UNSOUND.value,
    "sound": ConcretizationMode.SOUND.value,
    "delayed": ConcretizationMode.SOUND_DELAYED.value,
    "sound_delayed": ConcretizationMode.SOUND_DELAYED.value,
}


def resolve_strategy(name: str) -> str:
    """Map a strategy spelling onto its canonical mode value."""
    try:
        return STRATEGY_ALIASES[name.strip().lower()]
    except KeyError:
        raise ReproError(
            f"unknown strategy {name!r} "
            f"(known: {', '.join(sorted(set(STRATEGY_ALIASES)))})"
        )


@dataclass(frozen=True)
class SearchJob:
    """One self-contained search session, safe to ship to a worker process."""

    #: unique, sortable identity: ``program//entry//strategy//scheduler``
    key: str
    program_name: str
    #: MiniC source text (workers re-parse privately)
    source: str
    entry: str
    #: canonical ConcretizationMode value
    strategy: str
    #: natives registry name (one of NATIVES_NAMES)
    natives: str
    #: seed inputs, one per entry parameter
    seed: Dict[str, int] = field(default_factory=dict)
    #: extra SearchConfig options (validated by SearchConfig.from_options)
    config: Dict[str, object] = field(default_factory=dict)


@dataclass
class CampaignSpec:
    """Declarative description of a campaign.

    ``programs`` entries are dicts with keys:

    - ``name`` (required) — report label, unique within the spec;
    - ``source`` or ``file`` (exactly one) — MiniC text, or a path
      resolved relative to the spec file;
    - ``entry`` (optional) — entry function, default ``main`` then first;
    - ``natives`` (optional) — registry name, default ``hashes``;
    - ``seed`` (optional) — ``{param: int}`` seed inputs, default zeros.
    """

    programs: List[Dict[str, object]] = field(default_factory=list)
    strategies: List[str] = field(default_factory=lambda: ["higher_order"])
    #: frontier schedulers to run each program x strategy under (see
    #: :mod:`repro.search.scheduler`); every entry multiplies the job list
    schedulers: List[str] = field(default_factory=lambda: ["dfs"])
    max_runs: int = 60
    #: extra SearchConfig options applied to every job
    config: Dict[str, object] = field(default_factory=dict)

    # -- construction ------------------------------------------------------

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        with open(path, "rb") as handle:
            raw = handle.read()
        if path.endswith(".toml"):
            try:
                import tomllib
            except ImportError as exc:  # pragma: no cover - py<3.11
                raise ReproError(
                    "TOML campaign specs need Python >= 3.11 (tomllib); "
                    "use the JSON form instead"
                ) from exc
            try:
                data = tomllib.loads(raw.decode("utf-8"))
            except tomllib.TOMLDecodeError as exc:
                raise ReproError(f"bad TOML campaign spec {path!r}: {exc}")
        else:
            try:
                data = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ReproError(f"bad JSON campaign spec {path!r}: {exc}")
        if not isinstance(data, dict):
            raise ReproError(f"campaign spec {path!r} must be a table/object")
        spec = cls(
            programs=list(data.get("programs", [])),
            strategies=[str(s) for s in data.get("strategies", ["higher_order"])],
            schedulers=[str(s) for s in data.get("schedulers", ["dfs"])],
            max_runs=int(data.get("max_runs", 60)),
            config=dict(data.get("config", {})),
        )
        base = os.path.dirname(os.path.abspath(path))
        for prog in spec.programs:
            file_ref = prog.get("file")
            if file_ref is not None and "source" not in prog:
                file_path = os.path.join(base, str(file_ref))
                with open(file_path, "r", encoding="utf-8") as handle:
                    prog["source"] = handle.read()
                prog.setdefault("name", os.path.splitext(
                    os.path.basename(str(file_ref)))[0])
        return spec

    @classmethod
    def paper_suite(
        cls,
        strategies: Sequence[str] = ("higher_order",),
        max_runs: int = 40,
        config: Optional[Dict[str, object]] = None,
        schedulers: Sequence[str] = ("dfs",),
    ) -> "CampaignSpec":
        """The built-in suite: every paper example, with paper natives."""
        from ..apps.paper_programs import PAPER_EXAMPLES

        programs = [
            {
                "name": example.name,
                "source": example.source,
                "entry": example.entry,
                "natives": "paper",
                "seed": dict(example.initial_inputs),
            }
            for example in PAPER_EXAMPLES.values()
        ]
        return cls(
            programs=programs,
            strategies=list(strategies),
            schedulers=list(schedulers),
            max_runs=max_runs,
            config=dict(config or {}),
        )

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`as_payload` (or any dict in the
        same shape — the campaign-spec JSON schema)."""
        if not isinstance(payload, dict):
            raise ReproError("campaign spec payload must be an object")
        return cls(
            programs=[dict(p) for p in payload.get("programs", [])],
            strategies=[
                str(s) for s in payload.get("strategies", ["higher_order"])
            ],
            schedulers=[str(s) for s in payload.get("schedulers", ["dfs"])],
            max_runs=int(payload.get("max_runs", 60)),  # type: ignore[arg-type]
            config=dict(payload.get("config", {})),
        )

    # -- serialization / derivation ----------------------------------------

    def as_payload(self) -> Dict[str, object]:
        """JSON-able form of the spec (durable submission records)."""
        return {
            "programs": [dict(p) for p in self.programs],
            "strategies": list(self.strategies),
            "schedulers": list(self.schedulers),
            "max_runs": self.max_runs,
            "config": dict(self.config),
        }

    def with_overrides(
        self,
        scheduler: Optional[str] = None,
        job_deadline: Optional[float] = None,
    ) -> "CampaignSpec":
        """A copy with CLI-style overrides folded in; never mutates self.

        ``scheduler`` replaces the scheduler list wholesale;
        ``job_deadline`` lands in ``config`` where every job's
        SearchConfig picks it up (it is also what the supervisor's
        parent-side defensive timeout keys off).
        """
        if scheduler is None and job_deadline is None:
            return self
        overrides: Dict[str, object] = {}
        if job_deadline is not None:
            overrides["job_deadline"] = float(job_deadline)
        return CampaignSpec(
            programs=list(self.programs),
            strategies=list(self.strategies),
            schedulers=[scheduler] if scheduler is not None else list(
                self.schedulers
            ),
            max_runs=self.max_runs,
            config=dict(self.config, **overrides),
        )


def resolve_spec(
    spec: Union["CampaignSpec", Dict[str, object], str]
) -> CampaignSpec:
    """Resolve every accepted spec spelling into a :class:`CampaignSpec`.

    Accepts a spec object (returned as-is), a dict in the spec-file
    shape, the string ``"paper"`` for the built-in paper-example suite,
    or a path to a ``.toml``/``.json`` spec file.
    """
    if isinstance(spec, CampaignSpec):
        return spec
    if isinstance(spec, dict):
        return CampaignSpec.from_payload(spec)
    if spec == "paper":
        return CampaignSpec.paper_suite()
    return CampaignSpec.load(str(spec))


class BatchPlanner:
    """Expand a :class:`CampaignSpec` into the sorted list of jobs.

    Expansion parses every program once (in the planning process) to
    validate it early and to resolve the default entry point and seed
    vector; the parsed AST is *not* shipped — jobs carry source text.
    """

    def expand(self, spec: CampaignSpec) -> List[SearchJob]:
        if not spec.programs:
            raise ReproError("campaign spec has no programs")
        if not spec.strategies:
            raise ReproError("campaign spec has no strategies")
        strategies = [resolve_strategy(s) for s in spec.strategies]
        if len(set(strategies)) != len(strategies):
            raise ReproError(
                f"campaign strategies {spec.strategies!r} repeat a mode"
            )
        if not spec.schedulers:
            raise ReproError("campaign spec has no schedulers")
        schedulers = [str(s) for s in spec.schedulers]
        for name in schedulers:
            if name not in SCHEDULERS:
                raise ReproError(
                    f"unknown scheduler {name!r} "
                    f"(allowed: {', '.join(scheduler_names())})"
                )
        if len(set(schedulers)) != len(schedulers):
            raise ReproError(
                f"campaign schedulers {spec.schedulers!r} repeat an entry"
            )
        base_config = dict(spec.config)
        base_config.setdefault("max_runs", spec.max_runs)
        try:
            # every job's config is this plus its scheduler: a bad option
            # fails the whole submission here, not each job at run time
            SearchConfig.from_options(
                **dict(base_config, scheduler=schedulers[0])
            )
        except (ReproError, TypeError, ValueError) as exc:
            raise ReproError(f"campaign config: {exc}") from None
        jobs: List[SearchJob] = []
        seen_names: set = set()
        for prog in spec.programs:
            name = str(prog.get("name", "")) or "program"
            if name in seen_names:
                raise ReproError(f"duplicate program name {name!r} in campaign")
            seen_names.add(name)
            source = prog.get("source")
            if not isinstance(source, str) or not source.strip():
                raise ReproError(f"program {name!r} has no source/file")
            natives = str(prog.get("natives", "hashes"))
            if natives not in NATIVES_NAMES:
                raise ReproError(
                    f"program {name!r}: unknown natives registry {natives!r} "
                    f"(known: {', '.join(NATIVES_NAMES)})"
                )
            program = parse_program(source)
            entry = str(prog.get("entry") or "")
            if not entry:
                entry = "main" if "main" in program.functions else next(
                    iter(program.functions)
                )
            if entry not in program.functions:
                raise ReproError(
                    f"program {name!r} has no function {entry!r}"
                )
            given_seed = {
                str(k): int(v)  # type: ignore[call-overload]
                for k, v in dict(prog.get("seed", {})).items()
            }
            seed = {
                param: given_seed.get(param, 0)
                for param in program.function(entry).params
            }
            for strategy in strategies:
                for scheduler in schedulers:
                    config = dict(base_config)
                    config["scheduler"] = scheduler
                    jobs.append(
                        SearchJob(
                            key=f"{name}//{entry}//{strategy}//{scheduler}",
                            program_name=name,
                            source=source,
                            entry=entry,
                            strategy=strategy,
                            natives=natives,
                            seed=dict(seed),
                            config=config,
                        )
                    )
        jobs.sort(key=lambda job: job.key)
        return jobs
