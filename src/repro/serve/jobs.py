"""Job specs, content-addressed keys, and execution for :mod:`repro.serve`.

A *job* is one simulation ensemble: a (protocol, params, population,
scheduler, engine) point plus the run policy (repetitions, master seed, step
budget, analytics flag).  That is exactly a 1×1×1×1 sweep grid, and this
module leans on that equivalence instead of re-implementing validation or
seeding:

* :class:`JobSpec` validates by constructing the corresponding single-cell
  :class:`~repro.sweep.spec.SweepSpec` — every rejection rule of the sweep
  layer (unknown protocols/params/schedulers/engines, non-integral scalars,
  params that don't survive a JSON round trip) applies to served jobs for
  free, with the same error messages,
* the job's **content key** is the SHA-256 of the cell's canonical identity
  string (:attr:`~repro.sweep.spec.SweepCell.cell_id`) extended with the run
  policy — two requests that mean the same ensemble hash to the same key no
  matter how the JSON was spelled (key order, ``"Native"`` vs ``"native"``,
  defaults omitted vs written out), which is what makes the server's result
  cache content-addressed rather than merely request-addressed,
* the ensemble seed is :func:`~repro.sweep.spec.derive_cell_seed` over the
  cell's engine-free seed scope, and the per-repetition seeds are drawn from
  it exactly like the sweep runner draws them — so a served job, the
  equivalent sweep cell, and a direct
  :meth:`~repro.simulation.simulator.Simulator.run_many` with
  ``seed=ensemble_seed`` are all bit-identical.

:func:`run_job` is the blocking run half: it executes the job's cell on the
server's :class:`~repro.sweep.executor.CellExecutor` — the same thread-safe
executor, with the same protocol/input/predicate/simulator caches, that runs
sweep cells — and renders the cacheable JSON payload.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from ..simulation.batch import repetition_seeds
from ..simulation.statistics import accuracy_against_predicate, summarize_runs
from ..sweep.executor import CellExecutor
from ..sweep.spec import SweepCell, SweepSpec

__all__ = ["JobSpec", "run_job"]

#: The JSON fields a job submission may carry (mirrors the
#: :meth:`JobSpec.from_dict` contract; unknown fields are rejected so typos
#: fail loudly instead of silently running the default).
JOB_FIELDS = (
    "protocol",
    "params",
    "population",
    "scheduler",
    "engine",
    "repetitions",
    "master_seed",
    "max_steps",
    "stability_window",
    "analytics",
)


@dataclass(frozen=True)
class JobSpec:
    """One validated, normalized simulation-ensemble request.

    Construction normalizes (name case/whitespace, integral floats, default
    filling) and validates via the sweep layer; after ``__init__`` every
    field holds its canonical value, so equality, :attr:`key` and
    :meth:`to_dict` all operate on normal forms.  Invalid specs raise
    :class:`ValueError` with the sweep layer's messages.
    """

    protocol: str
    population: int
    params: Mapping[str, object] = field(default_factory=dict)
    scheduler: str = "uniform"
    engine: str = "auto"
    repetitions: int = 8
    master_seed: int = 0
    max_steps: int = 100000
    stability_window: int = 200
    analytics: bool = False

    def __post_init__(self) -> None:
        for name in ("protocol", "scheduler", "engine"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"job {name} must be a string, got {value!r}")
            object.__setattr__(self, name, value.strip().lower())
        if not isinstance(self.params, Mapping):
            raise ValueError(
                f"job params must be a mapping, got {type(self.params).__name__}"
            )
        spec = SweepSpec(
            protocols=[(self.protocol, dict(self.params))],
            populations=[self.population],
            schedulers=[self.scheduler],
            engines=[self.engine],
            repetitions=self.repetitions,
            master_seed=self.master_seed,
            max_steps=self.max_steps,
            stability_window=self.stability_window,
            analytics=self.analytics,
        )
        # Read the normalized scalars back out of the validated spec, so a
        # job submitted with e.g. ``population: 25.0`` is field-identical
        # (and therefore key-identical) to one submitted with ``25``.
        _, params = spec.protocols[0]
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "population", spec.populations[0])
        object.__setattr__(self, "repetitions", spec.repetitions)
        object.__setattr__(self, "master_seed", spec.master_seed)
        object.__setattr__(self, "max_steps", spec.max_steps)
        object.__setattr__(self, "stability_window", spec.stability_window)
        object.__setattr__(self, "analytics", spec.analytics)
        object.__setattr__(self, "_spec", spec)
        object.__setattr__(self, "_cell", spec.cells()[0])

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def sweep_spec(self) -> SweepSpec:
        """The equivalent single-cell sweep spec (the validation carrier)."""
        return self._spec  # type: ignore[attr-defined]

    @property
    def cell(self) -> SweepCell:
        """The job as a sweep cell — the canonical-identity anchor."""
        return self._cell  # type: ignore[attr-defined]

    @property
    def identity(self) -> str:
        """The canonical identity string the content key hashes.

        The cell identity (protocol, canonical params JSON, population,
        scheduler, engine) extended with every run-policy field.  Anything
        that can change the served payload is in here; anything that cannot
        (submission order, JSON spelling, client identity) is not.
        """
        cell = self.cell
        return (
            f"{cell.cell_id};repetitions={self.repetitions};"
            f"master_seed={self.master_seed};max_steps={self.max_steps};"
            f"stability_window={self.stability_window};"
            f"analytics={str(self.analytics).lower()}"
        )

    @property
    def key(self) -> str:
        """The content-address of this job: ``sha256(identity)`` hex.

        Doubles as the job id in the HTTP API, so polling URLs are stable
        across resubmissions and across server restarts.
        """
        return hashlib.sha256(self.identity.encode("utf-8")).hexdigest()

    @property
    def ensemble_seed(self) -> int:
        """The 64-bit master seed of the ensemble (the sweep cell seed).

        Derived from the engine-free seed scope, so jobs differing only in
        engine run the same seeds — and must report identical statistics,
        the same cross-engine agreement check sweeps get.
        """
        return self.sweep_spec.cell_seed(self.cell)

    def repetition_seeds(self) -> List[int]:
        """The per-repetition seeds, exactly as the sweep runner draws them."""
        return repetition_seeds(self.ensemble_seed, self.repetitions)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The normalized spec as a JSON-ready mapping (round-trips)."""
        return {
            "protocol": self.protocol,
            "params": dict(self.params),
            "population": self.population,
            "scheduler": self.scheduler,
            "engine": self.engine,
            "repetitions": self.repetitions,
            "master_seed": self.master_seed,
            "max_steps": self.max_steps,
            "stability_window": self.stability_window,
            "analytics": self.analytics,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobSpec":
        """Build a spec from a submission payload, rejecting unknown fields."""
        if not isinstance(data, Mapping):
            raise ValueError(
                f"a job submission must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - set(JOB_FIELDS)
        if unknown:
            raise ValueError(f"unknown job fields: {sorted(unknown, key=str)}")
        if "protocol" not in data or "population" not in data:
            raise ValueError("a job needs 'protocol' and 'population'")
        return cls(**{str(key): value for key, value in data.items()})


def run_job(executor: CellExecutor, job: JobSpec) -> Dict[str, Any]:
    """Execute ``job`` on ``executor`` and render its cacheable JSON payload.

    Blocking; raises whatever the batch layer raises (typed worker
    crash/timeout errors included) — the server records those as a failed
    job and stays up.
    """
    cell = job.cell
    seeds = job.repetition_seeds()
    results = executor.run(
        cell, seeds, job.max_steps, job.stability_window, job.analytics
    )
    statistics = summarize_runs(results)
    predicate = executor.predicate(cell)
    return {
        "job": job.key,
        "spec": job.to_dict(),
        "ensemble_seed": job.ensemble_seed,
        "statistics": {
            "runs": statistics.runs,
            "converged": statistics.converged,
            "convergence_rate": statistics.convergence_rate,
            "mean_steps": statistics.mean_steps,
            "median_steps": statistics.median_steps,
            "max_steps": statistics.max_steps,
            "min_steps": statistics.min_steps,
            "mean_consensus_step": statistics.mean_consensus_step,
        },
        "runs": [
            {
                "seed": seed,
                "steps": result.steps,
                "consensus": result.consensus,
                "consensus_step": result.consensus_step,
                "converged": result.converged,
                "terminated": result.terminated,
                "interactions_sampled": result.interactions_sampled,
            }
            for seed, result in zip(seeds, results)
        ],
        "accuracy": (
            accuracy_against_predicate(results, predicate, executor.inputs(cell))
            if predicate is not None
            else None
        ),
        "analytics": (
            [dict(result.analytics or {}) for result in results]
            if job.analytics
            else None
        ),
    }
