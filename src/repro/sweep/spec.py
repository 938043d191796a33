"""Declarative sweep specifications and their deterministic cell grids.

A :class:`SweepSpec` names the axes of an experiment grid — protocol builders
with parameters, population sizes, scheduler kinds, simulation engines — plus
the scalar run policy (repetitions per cell, master seed, step budget).  It
expands to a list of :class:`SweepCell` values in a **deterministic keyfield
order**: the cartesian product nests protocol → population → scheduler →
engine, each axis in the order the spec lists its values.  The expansion is a
pure function of the spec, so two processes (or two machines) expanding the
same spec agree cell for cell — the property the resumable runner and the
result stores build on.

Seed policy
-----------
Every cell owns a 64-bit seed derived as ``sha256(master_seed | cell id)``,
independent of the cell's position in the grid and of which cells ran before
it.  The runner feeds that seed to
:func:`~repro.simulation.batch.repetition_seeds`, the per-repetition
derivation ``Simulator.run_many`` uses too, so a cell's ensemble is
bit-identical whether it runs serially, over a process pool, first, last, or
alone — adding an axis value later changes no other cell's results.

Protocol axis
-------------
Protocols are named entries in a registry (:func:`register_sweep_protocol`)
mapping a name plus a JSON-scalar parameter mapping to a built
:class:`~repro.core.protocol.Protocol` and a population-sized input
configuration.  The built-ins cover the repo's named workloads:

========== =========================== ==========================================
name       parameters (defaults)        inputs at population ``n``
========== =========================== ==========================================
majority   ``a_fraction`` (2/3)         ``round(n * a_fraction)`` agents ``A``,
                                        the rest ``B``
modulo     ``modulus`` (3),             ``n`` agents in the initial state
           ``remainder`` (1)
succinct   ``threshold`` (8)            ``n`` agents in the initial state
flock      ``threshold`` (5)            ``n`` agents in the initial state
========== =========================== ==========================================
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.configuration import Configuration
from ..core.predicates import Predicate
from ..core.protocol import Protocol
from ..protocols.flock_of_birds import flock_of_birds_predicate, flock_of_birds_protocol
from ..protocols.majority import STATE_A, STATE_B, majority_predicate, majority_protocol
from ..protocols.modulo import modulo_predicate, modulo_protocol
from ..protocols.succinct import (
    succinct_leaderless_predicate,
    succinct_leaderless_protocol,
)
from ..simulation.scheduler import Scheduler, TransitionScheduler, UniformScheduler
from ..simulation.simulator import _ENGINES

__all__ = [
    "KEYFIELDS",
    "SCHEDULERS",
    "SweepCell",
    "SweepSpec",
    "available_sweep_protocols",
    "build_inputs_for",
    "build_predicate_for",
    "build_protocol_and_inputs",
    "canonical_params",
    "derive_cell_seed",
    "register_sweep_protocol",
]

#: The keyfields identifying a cell, in canonical order.  ``params`` is the
#: canonical JSON rendering of the protocol parameters, so the tuple of
#: keyfield values is a complete, hashable cell identity.
KEYFIELDS = ("protocol", "params", "population", "scheduler", "engine")

#: Scheduler kinds a spec may name, mapped to their constructors.
SCHEDULERS: Dict[str, Callable[[], Scheduler]] = {
    "uniform": UniformScheduler,
    "transition": TransitionScheduler,
}


# ----------------------------------------------------------------------
# The protocol-builder registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SweepProtocolEntry:
    name: str
    builder: Callable[[int, Mapping[str, object]], Tuple[Protocol, Configuration]]
    allowed_params: frozenset
    build_inputs: Optional[
        Callable[[Protocol, int, Mapping[str, object]], Configuration]
    ] = None
    build_predicate: Optional[
        Callable[[int, Mapping[str, object]], Predicate]
    ] = None


_PROTOCOL_BUILDERS: Dict[str, _SweepProtocolEntry] = {}


def register_sweep_protocol(
    name: str,
    builder: Callable[[int, Mapping[str, object]], Tuple[Protocol, Configuration]],
    allowed_params: Sequence[str] = (),
    build_inputs: Optional[
        Callable[[Protocol, int, Mapping[str, object]], Configuration]
    ] = None,
    build_predicate: Optional[
        Callable[[int, Mapping[str, object]], Predicate]
    ] = None,
) -> None:
    """Register a named protocol builder for use as a sweep-axis value.

    ``builder(population, params)`` must return a ``(protocol, inputs)`` pair
    for the given population size; ``params`` is the (possibly empty) mapping
    from the spec, restricted to ``allowed_params`` keys with JSON-scalar
    values so cell identities stay serializable.  Builders must be
    deterministic: the same ``(population, params)`` must yield the same
    protocol (same transition order) every time, or golden trajectories and
    resumed sweeps would silently diverge.

    ``build_inputs(protocol, population, params)``, when supplied, sizes the
    inputs for a new population against an *already built* protocol, letting
    the sweep runner reuse one protocol (and its compiled caches) across the
    whole population axis instead of rebuilding it per population.  Only
    meaningful when the protocol itself does not depend on the population —
    true of all the built-ins.

    ``build_predicate(population, params)``, when supplied, returns the
    :class:`~repro.core.predicates.Predicate` the protocol stably computes
    for the given parameters.  The sweep runner then scores every cell's
    ensemble against it (the ``accuracy`` column); protocols without a
    registered predicate simply leave the column empty.
    """
    if name in _PROTOCOL_BUILDERS:
        raise ValueError(f"sweep protocol {name!r} is already registered")
    _PROTOCOL_BUILDERS[name] = _SweepProtocolEntry(
        name=name,
        builder=builder,
        allowed_params=frozenset(allowed_params),
        build_inputs=build_inputs,
        build_predicate=build_predicate,
    )


def available_sweep_protocols() -> Tuple[str, ...]:
    """The registered protocol names, sorted."""
    return tuple(sorted(_PROTOCOL_BUILDERS))


def build_protocol_and_inputs(
    name: str, population: int, params: Optional[Mapping[str, object]] = None
) -> Tuple[Protocol, Configuration]:
    """Build a registered protocol and its inputs for one population size."""
    params = dict(params or {})
    entry = _PROTOCOL_BUILDERS.get(name)
    if entry is None:
        raise ValueError(
            f"unknown sweep protocol {name!r} "
            f"(available: {', '.join(available_sweep_protocols())})"
        )
    unknown = set(params) - entry.allowed_params
    if unknown:
        raise ValueError(
            f"sweep protocol {name!r} does not accept parameters "
            f"{sorted(unknown, key=str)} (allowed: {sorted(entry.allowed_params, key=str)})"
        )
    if population < 1:
        raise ValueError(f"population must be at least 1, got {population}")
    return entry.builder(population, params)


def build_inputs_for(
    name: str,
    protocol: Protocol,
    population: int,
    params: Optional[Mapping[str, object]] = None,
) -> Configuration:
    """Size a registered protocol's inputs for one population.

    Uses the entry's dedicated inputs hook when it has one (reusing the
    given, already-built protocol); otherwise falls back to running the full
    builder and keeping only its inputs — configurations compare by state
    value, so they apply to the cached protocol either way.
    """
    params = dict(params or {})
    entry = _PROTOCOL_BUILDERS.get(name)
    if entry is None:
        raise ValueError(f"unknown sweep protocol {name!r}")
    if entry.build_inputs is not None:
        return entry.build_inputs(protocol, population, params)
    _, inputs = build_protocol_and_inputs(name, population, params)
    return inputs


def build_predicate_for(
    name: str, population: int, params: Optional[Mapping[str, object]] = None
) -> Optional[Predicate]:
    """The predicate a registered protocol stably computes, or ``None``.

    ``None`` means the entry registered no predicate (accuracy columns stay
    empty for it); an unknown protocol name raises.
    """
    params = dict(params or {})
    entry = _PROTOCOL_BUILDERS.get(name)
    if entry is None:
        raise ValueError(f"unknown sweep protocol {name!r}")
    if entry.build_predicate is None:
        return None
    return entry.build_predicate(population, params)


def _register_builtin(name, make_protocol, make_inputs, allowed_params,
                      make_predicate=None):
    """Register a built-in from a protocol factory and an inputs sizer."""

    def builder(population, params):
        protocol = make_protocol(params)
        return protocol, make_inputs(protocol, population, params)

    register_sweep_protocol(
        name, builder, allowed_params=allowed_params, build_inputs=make_inputs,
        build_predicate=make_predicate,
    )


def _majority_inputs(protocol, population, params):
    fraction = params.get("a_fraction", 2 / 3)
    if not 0 <= float(fraction) <= 1:
        raise ValueError(f"a_fraction must be within [0, 1], got {fraction}")
    a_count = min(population, round(population * float(fraction)))
    return Configuration({STATE_A: a_count, STATE_B: population - a_count})


def _counting_inputs(protocol, population, params):
    return protocol.counting_input(population)


_register_builtin(
    "majority",
    lambda params: majority_protocol(),
    _majority_inputs,
    allowed_params=("a_fraction",),
    make_predicate=lambda population, params: majority_predicate(),
)
_register_builtin(
    "modulo",
    lambda params: modulo_protocol(
        int(params.get("modulus", 3)), int(params.get("remainder", 1))
    ),
    _counting_inputs,
    allowed_params=("modulus", "remainder"),
    make_predicate=lambda population, params: modulo_predicate(
        int(params.get("modulus", 3)), int(params.get("remainder", 1))
    ),
)
_register_builtin(
    "succinct",
    lambda params: succinct_leaderless_protocol(int(params.get("threshold", 8))),
    _counting_inputs,
    allowed_params=("threshold",),
    make_predicate=lambda population, params: succinct_leaderless_predicate(
        int(params.get("threshold", 8))
    ),
)
_register_builtin(
    "flock",
    lambda params: flock_of_birds_protocol(int(params.get("threshold", 5))),
    _counting_inputs,
    allowed_params=("threshold",),
    make_predicate=lambda population, params: flock_of_birds_predicate(
        int(params.get("threshold", 5))
    ),
)


def canonical_params(params: Mapping[str, object]) -> str:
    """The canonical JSON rendering of a parameter mapping (the cell key).

    Sorted keys, no whitespace — byte-stable across processes and Python
    versions, so it is safe to hash.  Shared by the sweep cell identity and
    the ``repro.serve`` content-addressed job cache; any consumer that wants
    "same parameters → same key" must render through this function rather
    than ``str(dict)``.
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def derive_cell_seed(master_seed: int, scope: str) -> int:
    """The canonical 64-bit seed for an identity scope: ``sha256(master_seed | scope)``.

    This is *the* seed-derivation discipline of the project: the sweep layer
    feeds it a cell's :attr:`SweepCell.seed_scope`, and the serve layer feeds
    it the identical scope for a submitted job, so a served ensemble and the
    equivalent sweep cell draw exactly the same repetition seeds.  Position
    independence (hash of identity, not position in a stream) is what makes
    content-addressed caching sound: the seed depends only on what is being
    simulated, never on when or where.
    """
    digest = hashlib.sha256(f"{master_seed}|{scope}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _integral(name: str, value: object) -> int:
    """Validate a spec scalar as an exact integer (JSON floats welcome).

    Hand-written spec files make ``"4"`` or ``2.5`` easy mistakes; both must
    fail spec validation with a clear :class:`ValueError` rather than
    surface later as a confusing ``TypeError`` or eight identical error
    rows.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """One point of the grid: a (protocol, params, population, scheduler,
    engine) combination with a canonical identity string."""

    protocol: str
    params: Mapping[str, object]
    population: int
    scheduler: str
    engine: str

    @functools.cached_property
    def params_json(self) -> str:
        """The canonical params JSON, rendered once per cell (every cache
        key and identity string of the cell contains it)."""
        return canonical_params(self.params)

    @property
    def cell_id(self) -> str:
        """The canonical identity: keyfields joined as ``key=value`` pairs.

        Stable across processes and Python versions (the params render
        through canonical JSON), so it keys the result store and salts the
        cell seed.
        """
        return f"{self.seed_scope};engine={self.engine}"

    @property
    def seed_scope(self) -> str:
        """The engine-free identity that salts the cell seed.

        The engine axis changes *how* a cell simulates, never *what* it
        simulates, and all engines are bit-identical for a fixed seed — so
        engine rows of the same grid point deliberately share their seed:
        their statistics must come out equal, which turns every sweep table
        with an engine axis into a cross-engine regression check.
        """
        return (
            f"protocol={self.protocol};params={self.params_json};"
            f"population={self.population};scheduler={self.scheduler}"
        )

    def keyfields(self) -> Dict[str, object]:
        """The keyfield columns of this cell, in :data:`KEYFIELDS` order."""
        return {
            "protocol": self.protocol,
            "params": self.params_json,
            "population": self.population,
            "scheduler": self.scheduler,
            "engine": self.engine,
        }

    def build(self) -> Tuple[Protocol, Configuration]:
        """Build the cell's protocol and population-sized inputs."""
        return build_protocol_and_inputs(self.protocol, self.population, self.params)

    def build_predicate(self) -> Optional[Predicate]:
        """The predicate the cell's protocol stably computes, if registered."""
        return build_predicate_for(self.protocol, self.population, self.params)

    def make_scheduler(self) -> Scheduler:
        """A fresh scheduler instance of the cell's kind."""
        return SCHEDULERS[self.scheduler]()


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------
ProtocolAxisValue = Union[str, Tuple[str, Mapping[str, object]]]


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid over (protocol × population × scheduler × engine).

    Parameters
    ----------
    protocols:
        Axis values: registered protocol names, either bare (``"majority"``)
        or with parameters (``("succinct", {"threshold": 8})``).
    populations:
        Population sizes (positive ints).
    schedulers:
        Scheduler kinds, from :data:`SCHEDULERS` (default: uniform only).
    engines:
        Simulation engines, as for
        :class:`~repro.simulation.simulator.Simulator` (default: auto only).
    repetitions:
        Independent runs per cell (at least 1).
    master_seed:
        Root of the per-cell seed derivation (see module docstring).
    max_steps, stability_window:
        The per-run budget, shared by every cell.
    analytics:
        When true, every cell's ensemble additionally extracts trajectory
        analytics **in the workers** (via the batch layer's ``analytics=``
        knob) and the store persists the derived columns — convergence-time
        quantiles and the top fired transitions — alongside the convergence
        statistics.  Predicate accuracy is scored regardless of this flag.
        Analytics never change which simulations run or how they are seeded,
        so flipping the flag cannot alter any statistic column.

    Instances are validated on construction and immutable; :meth:`cells`
    expands the grid deterministically, and :meth:`to_json` /
    :meth:`from_json` round-trip the spec for the CLI.
    """

    protocols: Sequence[ProtocolAxisValue]
    populations: Sequence[int]
    schedulers: Sequence[str] = ("uniform",)
    engines: Sequence[str] = ("auto",)
    repetitions: int = 8
    master_seed: int = 0
    max_steps: int = 100000
    stability_window: int = 200
    analytics: bool = False

    def __post_init__(self):
        protocols: List[Tuple[str, Dict[str, object]]] = []
        for value in self.protocols:
            if isinstance(value, str):
                name, params = value, {}
            else:
                name, params = value
                params = dict(params)
            if name not in _PROTOCOL_BUILDERS:
                raise ValueError(
                    f"unknown sweep protocol {name!r} "
                    f"(available: {', '.join(available_sweep_protocols())})"
                )
            unknown = set(params) - _PROTOCOL_BUILDERS[name].allowed_params
            if unknown:
                raise ValueError(
                    f"sweep protocol {name!r} does not accept parameters "
                    f"{sorted(unknown, key=str)}"
                )
            try:
                rendered = canonical_params(params)
            except (TypeError, ValueError) as error:
                raise ValueError(
                    f"parameters of sweep protocol {name!r} must be "
                    f"JSON-serializable: {error}"
                ) from None
            if json.loads(rendered) != params:
                raise ValueError(
                    f"parameters of sweep protocol {name!r} must survive a JSON "
                    "round trip (use plain ints/floats/strings/bools)"
                )
            protocols.append((name, params))
        if not protocols:
            raise ValueError("the sweep needs at least one protocol")
        object.__setattr__(self, "protocols", tuple(protocols))

        populations = tuple(
            _integral("population", p) for p in self.populations
        )
        if not populations:
            raise ValueError("the sweep needs at least one population size")
        if any(p < 1 for p in populations):
            raise ValueError(f"populations must be positive, got {populations}")
        object.__setattr__(self, "populations", populations)

        schedulers = tuple(self.schedulers)
        if not schedulers:
            raise ValueError("the sweep needs at least one scheduler kind")
        for kind in schedulers:
            if kind not in SCHEDULERS:
                raise ValueError(
                    f"unknown scheduler kind {kind!r} "
                    f"(expected one of {tuple(sorted(SCHEDULERS))})"
                )
        object.__setattr__(self, "schedulers", schedulers)

        engines = tuple(self.engines)
        if not engines:
            raise ValueError("the sweep needs at least one engine")
        for engine in engines:
            if engine not in _ENGINES:
                raise ValueError(
                    f"unknown engine {engine!r} (expected one of {_ENGINES})"
                )
        object.__setattr__(self, "engines", engines)

        for axis_name, axis in (
            ("protocols", [f"{n}|{canonical_params(p)}" for n, p in protocols]),
            ("populations", populations),
            ("schedulers", schedulers),
            ("engines", engines),
        ):
            if len(set(axis)) != len(axis):
                raise ValueError(f"duplicate values on the {axis_name} axis: {axis}")

        if not isinstance(self.analytics, bool):
            raise ValueError(
                f"analytics must be a boolean, got {self.analytics!r}"
            )
        for scalar in ("repetitions", "master_seed", "max_steps", "stability_window"):
            object.__setattr__(self, scalar, _integral(scalar, getattr(self, scalar)))
        if self.repetitions < 1:
            raise ValueError(
                f"repetitions must be at least 1, got {self.repetitions}"
            )
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")
        if self.stability_window < 1:
            raise ValueError(
                f"stability_window must be at least 1, got {self.stability_window}"
            )

    # ------------------------------------------------------------------
    # Expansion and seeds
    # ------------------------------------------------------------------
    def cells(self) -> List[SweepCell]:
        """Expand the grid, in deterministic keyfield order.

        The product nests protocol → population → scheduler → engine, each
        axis in spec order: the engine axis varies fastest.  The expansion
        depends only on the spec, never on prior runs.
        """
        return [
            SweepCell(
                protocol=name,
                params=params,
                population=population,
                scheduler=scheduler,
                engine=engine,
            )
            for (name, params), population, scheduler, engine in itertools.product(
                self.protocols, self.populations, self.schedulers, self.engines
            )
        ]

    def cell_seed(self, cell: SweepCell) -> int:
        """The cell's 64-bit master seed: ``sha256(master_seed | seed scope)``.

        Position-independent (unlike drawing seeds from one shared stream in
        grid order), so extending an axis or resuming a half-finished sweep
        cannot shift any other cell's ensemble.  The scope excludes the
        engine keyfield (see :attr:`SweepCell.seed_scope`): engine rows of
        one grid point re-run the same ensemble, and must therefore report
        identical statistics — a built-in cross-engine agreement check.
        Delegates to :func:`derive_cell_seed` (shared with ``repro.serve``).
        """
        return derive_cell_seed(self.master_seed, cell.seed_scope)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "protocols": [
                {"name": name, "params": dict(params)}
                for name, params in self.protocols
            ],
            "populations": list(self.populations),
            "schedulers": list(self.schedulers),
            "engines": list(self.engines),
            "repetitions": self.repetitions,
            "master_seed": self.master_seed,
            "max_steps": self.max_steps,
            "stability_window": self.stability_window,
            "analytics": self.analytics,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        known = {
            "protocols", "populations", "schedulers", "engines",
            "repetitions", "master_seed", "max_steps", "stability_window",
            "analytics",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown sweep spec fields: {sorted(unknown, key=str)}")
        if "protocols" not in data or "populations" not in data:
            raise ValueError("a sweep spec needs 'protocols' and 'populations'")
        protocols: List[ProtocolAxisValue] = []
        for value in data["protocols"]:
            if isinstance(value, str):
                protocols.append(value)
            elif isinstance(value, Mapping):
                extra = set(value) - {"name", "params"}
                if extra or "name" not in value:
                    raise ValueError(
                        "protocol axis entries must be a name or "
                        f"{{'name', 'params'}} mappings, got {value!r}"
                    )
                protocols.append((value["name"], dict(value.get("params") or {})))
            else:
                protocols.append(tuple(value))
        kwargs = {key: data[key] for key in known & set(data) if key != "protocols"}
        return cls(protocols=protocols, **kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"sweep spec is not valid JSON: {error}") from None
        if not isinstance(data, Mapping):
            raise ValueError("a sweep spec must be a JSON object")
        return cls.from_dict(data)

    def __len__(self) -> int:
        return (
            len(self.protocols) * len(self.populations)
            * len(self.schedulers) * len(self.engines)
        )
