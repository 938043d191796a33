"""Random-scheduler simulation of protocols.

The verification layer explores every execution exhaustively, which is only
feasible for small populations.  The simulator samples executions under a
scheduler instead, which scales to thousands of agents and is the substrate of
the convergence-time experiments and the larger examples.

A run proceeds step by step until one of:

* the current configuration reaches a **consensus** that does not change for
  ``stability_window`` further steps (heuristic convergence detection),
* no transition is enabled (a genuinely terminal configuration),
* the step budget is exhausted.

The result records the trajectory summary, the final configuration, the
consensus value (if any) and how many steps were needed to reach it.

Three engines implement these semantics:

* the **compiled engine** (``engine="compiled"``, the default for small nets
  under the built-in schedulers) maps states to dense indices once per net
  and runs a generated loop that mutates a single counts array in place,
  reweighs transitions incrementally and checks consensus in O(1) via
  maintained output counters (:mod:`repro.simulation.compiled`),
* the **NumPy engine** (``engine="numpy"``, the default for large nets when
  NumPy is installed) keeps the same dense mapping but maintains the counts
  and scheduler weights as ``int64`` vectors updated with array kernels, so
  its per-step cost is flat in the transition count instead of linear like
  the compiled dispatch chain (:mod:`repro.simulation.vectorized`),
* the **ensemble engine** (``engine="ensemble"``) batches *repetitions*: a
  lock-step ``(reps, states)`` matrix advanced with one kernel launch per
  global step, per-row transition picks through a two-level blocked weight
  structure, and rows retiring in place at convergence
  (:mod:`repro.simulation.ensemble`).  Single runs under this engine use the
  per-run NumPy stepper; ``run_many`` and the batch layer route whole seed
  lists through the lock-step path — every row bit-identical to a per-run
  engine run with the same derived seed,
* the **reference engine** (``engine="reference"``) is the original sparse
  implementation: one immutable :class:`~repro.core.configuration.Configuration`
  per step, full consensus rescans, full weight recomputation.

All engines consume the random stream identically, so for a fixed
``(protocol, inputs, seed)`` they produce the same trajectory step for step.
``engine="auto"`` (the default) picks the NumPy engine when the net has at
least :data:`AUTO_VECTORIZE_THRESHOLD` transitions and NumPy is installed,
the compiled engine for smaller nets (or when NumPy is missing), and falls
back to the reference engine otherwise (custom schedulers, configurations
mentioning states outside the compiled universe); it never picks the
ensemble engine on its own.  Engine precedence is: an explicit ``engine=``
argument always wins (``REPRO_FORCE_ENGINE`` then warns once that it is
being ignored), the ``REPRO_FORCE_ENGINE`` environment variable overrides
the ``engine="auto"`` choice — the knob the CI uses to drive the whole suite
through one engine — and the transition-count heuristic decides otherwise.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..config import forced_engine, monotonic_time, notice_explicit_engine
from ..core.configuration import Configuration
from ..obs import profile as _obs_profile
from ..obs import trace as _obs_trace
from ..core.protocol import OUTPUT_ONE, OUTPUT_ZERO, Protocol
from .compiled import OUT_ONE, OUT_UNDEFINED, OUT_ZERO, CompiledNet, StepperFn
from .scheduler import Scheduler, UniformScheduler
from .trajectory import DEFAULT_TRAJECTORY_CAPACITY, Trajectory
from .vectorized import numpy_available

__all__ = ["AUTO_VECTORIZE_THRESHOLD", "SimulationResult", "Simulator", "simulate"]

_ENGINES = ("auto", "compiled", "numpy", "ensemble", "reference")

#: Transition count at which ``engine="auto"`` switches from the compiled
#: engine to the NumPy engine.  Calibrated with benchmark E11
#: (``benchmarks/bench_e11_large_net_throughput.py``): on random width-2 nets
#: the steady-state crossover sits around ~200 transitions for densely
#: coupled nets and ~500 for sparse ones, the compiled engine's codegen cost
#: (absent entirely from the NumPy engine) pushes the end-to-end crossover
#: well below 100, and beyond a few thousand transitions the generated
#: dispatch chain cannot be compiled at all (CPython recursion guard).  256
#: splits the steady-state range while keeping every named protocol of the
#: paper on the compiled engine.
AUTO_VECTORIZE_THRESHOLD = 256

# The ``engine="auto"`` override (one of ``reference`` / ``compiled`` /
# ``numpy`` / ``auto``) is the ``REPRO_FORCE_ENGINE`` environment variable,
# read through the sanctioned :mod:`repro.config` helper.  Explicit
# ``engine=`` arguments are never overridden, so engine-equivalence tests
# keep testing what they name.  Worker processes inherit the environment, so
# a forced engine applies to process-backend ensembles too.


@dataclass
class SimulationResult:
    """Outcome of a single simulated execution."""

    initial: Configuration
    final: Configuration
    steps: int
    consensus: Optional[int]
    consensus_step: Optional[int]
    terminated: bool
    interactions_sampled: int
    #: Recorded path (``record_trajectory=True`` only), else ``None``.
    trajectory: Optional[Trajectory] = None
    #: Compact metric dict extracted in-place by the batch layer's
    #: ``analytics=`` knob (see :mod:`repro.analytics.metrics`), else ``None``.
    analytics: Optional[Dict[str, object]] = None

    @property
    def converged(self) -> bool:
        """True if the run ended in a consensus (stable or terminal)."""
        return self.consensus is not None

    def __repr__(self) -> str:
        return (
            f"SimulationResult(steps={self.steps}, consensus={self.consensus}, "
            f"consensus_step={self.consensus_step}, terminated={self.terminated})"
        )


class Simulator:
    """Simulate a protocol under a scheduler.

    Parameters
    ----------
    protocol:
        The protocol to simulate (must be Petri-net based).
    scheduler:
        The scheduling discipline; defaults to :class:`UniformScheduler`.
    seed:
        Seed of the internal random generator (for reproducible runs).
    engine:
        ``"auto"`` (default) picks a dense engine when the scheduler admits
        one — the NumPy engine for nets with at least
        :data:`AUTO_VECTORIZE_THRESHOLD` transitions (if NumPy is installed,
        silently skipped otherwise), the compiled engine below that —
        honouring the ``REPRO_FORCE_ENGINE`` environment override.
        ``"compiled"`` and ``"numpy"`` require that engine (raising
        ``ValueError`` for schedulers without a dense fast path, and
        ``ImportError`` for ``"numpy"`` without NumPy installed);
        ``"ensemble"`` requires NumPy the same way and additionally routes
        :meth:`run_many` / batch seed lists through the lock-step
        :class:`~repro.simulation.ensemble.VectorizedEnsemble` (single runs
        use the bit-identical per-run NumPy stepper);
        ``"reference"`` forces the sparse reference engine.

        An explicit ``engine=`` argument is never overridden by
        ``REPRO_FORCE_ENGINE`` — the override applies to ``engine="auto"``
        only, and :func:`repro.config.notice_explicit_engine` warns once
        when it is being ignored.
    """

    def __init__(
        self,
        protocol: Protocol,
        scheduler: Optional[Scheduler] = None,
        seed: Optional[int] = None,
        engine: str = "auto",
    ) -> None:
        if protocol.petri_net is None:
            raise ValueError("simulation requires a Petri-net based protocol")
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r} (expected one of {_ENGINES})")
        if engine != "auto":
            # One-time warning when REPRO_FORCE_ENGINE is set but ignored
            # (the override only applies to engine="auto").
            notice_explicit_engine(engine, _ENGINES)
        self.protocol = protocol
        self.net = protocol.petri_net
        self.scheduler = scheduler or UniformScheduler()
        self.rng = random.Random(seed)
        self.engine = engine

        self._compiled: Optional[CompiledNet] = None
        self._classes: Optional[Tuple[int, ...]] = None
        self._stepper: Optional[StepperFn] = None
        self._kind: Optional[str] = None
        self._choice: Optional[str] = None
        #: Cached lock-step engine (built on first ``run_many`` ensemble
        #: dispatch — its consensus-delta table is worth reusing).
        self._ensemble: Optional[Any] = None
        if engine != "reference":
            kind = self.scheduler.compiled_kind()
            if kind is None:
                if engine in ("compiled", "numpy", "ensemble"):
                    raise ValueError(
                        f"scheduler {type(self.scheduler).__name__} has no compiled fast "
                        "path; use engine='auto' or engine='reference'"
                    )
            else:
                choice = self._resolve_auto(engine)
                if choice in ("numpy", "ensemble"):
                    self._compiled = self.net.vectorized(extra_states=self.protocol.states)
                elif choice == "compiled":
                    self._compiled = self.net.compiled(extra_states=self.protocol.states)
                if self._compiled is not None:
                    self._classes = self._compiled.output_classes(self.protocol.output_table)
                    self._stepper = self._compiled.stepper(kind, self._classes)
                    self._kind = kind
                    self._choice = choice

    def _resolve_auto(self, engine: str) -> str:
        """The dense engine to build for a scheduler that admits one.

        Returns ``"compiled"``, ``"numpy"``, ``"ensemble"`` or
        ``"reference"`` (the last two only explicitly or via the environment
        override — the heuristic never picks them).  Explicit engines pass
        through; only ``engine="auto"`` consults ``REPRO_FORCE_ENGINE`` and
        the transition-count heuristic.
        """
        if engine != "auto":
            return engine
        forced = forced_engine(_ENGINES)
        if forced is not None:
            # Forcing "numpy" without NumPy installed raises (loudly, from
            # the VectorizedNet constructor) rather than silently testing a
            # different engine than the CI job asked for.
            return forced
        if numpy_available() and self.net.num_transitions >= AUTO_VECTORIZE_THRESHOLD:
            return "numpy"
        return "compiled"

    # ------------------------------------------------------------------
    # Single runs
    # ------------------------------------------------------------------
    def run(
        self,
        inputs: Configuration,
        max_steps: int = 100000,
        stability_window: int = 200,
        record_trajectory: bool = False,
        trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
    ) -> SimulationResult:
        """Simulate one execution from the initial configuration ``rho_L + inputs``.

        With ``record_trajectory=True`` the result carries a
        :class:`~repro.simulation.trajectory.Trajectory` of the last
        ``trajectory_capacity`` fired transition indices (a bounded ring
        buffer, so memory stays flat however long the run).
        """
        configuration = self.protocol.initial_configuration(inputs)
        return self.run_from(
            configuration,
            max_steps=max_steps,
            stability_window=stability_window,
            record_trajectory=record_trajectory,
            trajectory_capacity=trajectory_capacity,
        )

    def run_from(
        self,
        configuration: Configuration,
        max_steps: int = 100000,
        stability_window: int = 200,
        record_trajectory: bool = False,
        trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
    ) -> SimulationResult:
        """Simulate one execution from an arbitrary starting configuration."""
        profiler = _obs_profile.active_profiler()
        observing = profiler is not None or _obs_trace.tracing_active()
        t0 = monotonic_time() if observing else 0.0
        result = self._dispatch(
            configuration, max_steps, stability_window, self.rng,
            record_trajectory, trajectory_capacity,
        )
        if observing:
            self._observe_run(profiler, t0, result)
        return result

    def _observe_run(
        self, profiler: Any, t0: float, result: SimulationResult, **attrs: Any
    ) -> None:
        """Record a run that started at ``t0``: one profiler record, one span.

        Instrumentation observes result objects and clocks, never the RNG
        stream, so an observed run is bit-identical to an unobserved one.
        """
        elapsed = monotonic_time() - t0
        engine_name = self._choice or "reference"
        if profiler is not None:
            profiler.record(engine_name, result.steps, elapsed)
        _obs_trace.span_event(
            "run", "run", t0, elapsed,
            engine=engine_name, steps=result.steps,
            consensus=result.consensus, terminated=result.terminated, **attrs,
        )

    def _dispatch(
        self,
        configuration: Configuration,
        max_steps: int,
        stability_window: int,
        rng: random.Random,
        record_trajectory: bool = False,
        trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
    ) -> SimulationResult:
        """Route a run to the compiled engine when possible."""
        if record_trajectory and trajectory_capacity < 1:
            raise ValueError("trajectory_capacity must be at least 1")
        if self._stepper is not None:
            counts = self._compiled.counts_of(configuration)
            if counts is not None:
                return self._run_compiled(
                    configuration, counts, max_steps, stability_window, rng,
                    record_trajectory, trajectory_capacity,
                )
            if self.engine in ("compiled", "numpy", "ensemble"):
                raise ValueError(
                    "configuration mentions states outside the compiled universe; "
                    "use engine='auto' or engine='reference'"
                )
        return self._run_reference(
            configuration, max_steps, stability_window, rng,
            record_trajectory, trajectory_capacity,
        )

    # ------------------------------------------------------------------
    # Compiled engine
    # ------------------------------------------------------------------
    def _initial_output_counters(self, counts: List[int]) -> Tuple[int, int, int]:
        """The ``(one, zero, undef)`` output-class counters of dense counts."""
        classes = self._classes
        one = zero = undef = 0
        for index, count in enumerate(counts):
            if count:
                kind = classes[index]
                if kind == OUT_ONE:
                    one += count
                elif kind == OUT_ZERO:
                    zero += count
                elif kind == OUT_UNDEFINED:
                    undef += count
        return one, zero, undef

    def _run_compiled(
        self,
        initial: Configuration,
        counts: List[int],
        max_steps: int,
        stability_window: int,
        rng: random.Random,
        record_trajectory: bool = False,
        trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
    ) -> SimulationResult:
        classes = self._classes
        one, zero, undef = self._initial_output_counters(counts)
        trajectory = None
        if record_trajectory:
            # The run fires at most max_steps transitions, so the physical
            # buffer never needs to exceed that — a huge trajectory_capacity
            # on a short run should not allocate gigabytes.  The reported
            # capacity stays as requested: with total_fired <= max_steps the
            # surviving suffix is the same either way.
            physical = max(1, min(trajectory_capacity, max_steps))
            ring = [0] * physical
            stepper = self._compiled.stepper(self._kind, classes, record=True)
            steps, value, since, terminated = stepper(
                counts, rng, max_steps, stability_window, one, zero, undef,
                ring, physical,
            )
            trajectory = Trajectory.from_ring(
                ring, steps, physical, reported_capacity=trajectory_capacity
            )
        else:
            steps, value, since, terminated = self._stepper(
                counts, rng, max_steps, stability_window, one, zero, undef
            )
        return SimulationResult(
            initial=initial,
            final=self._compiled.configuration_of(counts),
            steps=steps,
            consensus=value if value >= 0 else None,
            consensus_step=since if since >= 0 else None,
            terminated=terminated,
            interactions_sampled=steps,
            trajectory=trajectory,
        )

    # ------------------------------------------------------------------
    # Sparse reference engine
    # ------------------------------------------------------------------
    def _run_reference(
        self,
        configuration: Configuration,
        max_steps: int,
        stability_window: int,
        rng: random.Random,
        record_trajectory: bool = False,
        trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
    ) -> SimulationResult:
        initial = configuration
        current = configuration
        consensus_value = self._consensus(current)
        consensus_since: Optional[int] = 0 if consensus_value is not None else None
        interactions = 0
        # Recording: a deque bounded to the ring capacity keeps the *last*
        # ``trajectory_capacity`` fired indices, matching the compiled engine's
        # ring-buffer semantics exactly.
        ring: Optional[deque] = None
        index_of_transition = None
        if record_trajectory:
            ring = deque(maxlen=trajectory_capacity)
            index_of_transition = {t: i for i, t in enumerate(self.net.transitions)}

        def trajectory() -> Optional[Trajectory]:
            if ring is None:
                return None
            return Trajectory(
                transition_indices=tuple(ring),
                total_fired=interactions,
                capacity=trajectory_capacity,
            )

        for step in range(1, max_steps + 1):
            transition = self.scheduler.choose(self.net, current, rng)
            if transition is None:
                # Terminal configuration: the consensus (if any) is definitive.
                return SimulationResult(
                    initial=initial,
                    final=current,
                    steps=step - 1,
                    consensus=consensus_value,
                    consensus_step=consensus_since,
                    terminated=True,
                    interactions_sampled=interactions,
                    trajectory=trajectory(),
                )
            current = transition.fire(current)
            interactions += 1
            if ring is not None:
                ring.append(index_of_transition[transition])
            value = self._consensus(current)
            if value is None or value != consensus_value:
                consensus_value = value
                consensus_since = step if value is not None else None
            if (
                consensus_value is not None
                and consensus_since is not None
                and step - consensus_since >= stability_window
            ):
                return SimulationResult(
                    initial=initial,
                    final=current,
                    steps=step,
                    consensus=consensus_value,
                    consensus_step=consensus_since,
                    terminated=False,
                    interactions_sampled=interactions,
                    trajectory=trajectory(),
                )

        return SimulationResult(
            initial=initial,
            final=current,
            steps=max_steps,
            consensus=consensus_value,
            consensus_step=consensus_since,
            terminated=False,
            interactions_sampled=interactions,
            trajectory=trajectory(),
        )

    def _consensus(self, configuration: Configuration) -> Optional[int]:
        """The consensus value of a configuration, or None if outputs disagree."""
        if self.protocol.has_consensus(configuration, OUTPUT_ONE):
            return OUTPUT_ONE
        if self.protocol.has_consensus(configuration, OUTPUT_ZERO):
            return OUTPUT_ZERO
        return None

    # ------------------------------------------------------------------
    # Repeated runs
    # ------------------------------------------------------------------
    def _run_seeds(
        self,
        configuration: Configuration,
        seeds: List[int],
        max_steps: int,
        stability_window: int,
        record_trajectory: bool = False,
        trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
        analytics: Any = None,
    ) -> List[SimulationResult]:
        """Run one repetition per seed from ``configuration``, in seed order.

        The building block of both batch backends (the serial loop here, and
        each worker's share under ``backend="process"``): on the compiled path
        the whole sequence reuses a single dense counts buffer instead of
        reallocating one per repetition.

        ``analytics`` optionally supplies an extraction spec (any object with
        an ``extract(result, protocol)`` method, canonically
        :class:`~repro.analytics.metrics.AnalyticsSpec`).  Each run is then
        recorded internally with a capacity large enough for the complete
        path, its compact metric dict is attached as ``result.analytics``,
        and the bulky trajectory ring is **dropped again** unless the caller
        asked for trajectories too — this is what lets worker processes
        return metrics instead of 65536-entry rings.  The surviving result
        fields (and any requested trajectory) are bit-identical to a run
        without analytics.
        """
        record = record_trajectory
        capacity = trajectory_capacity
        if analytics is not None:
            # Record internally with room for the complete path: a run fires
            # at most max_steps transitions, so max_steps guarantees no ring
            # overwrites (the compiled engine clamps its physical buffer the
            # same way, so a short run never over-allocates).
            record = True
            capacity = max(
                1, max_steps, trajectory_capacity if record_trajectory else 0
            )
        buffer: Optional[List[int]] = None
        if self._stepper is not None:
            buffer = self._compiled.counts_of(configuration)
        if self._choice == "ensemble" and buffer is not None and seeds:
            # Lock-step path: one VectorizedEnsemble run for the whole seed
            # list.  Configurations outside the compiled universe fall
            # through to the per-seed loop below, which either raises (for
            # the explicit engine) or dispatches to the reference engine
            # (auto mode with a forced override) — the same split as the
            # per-run engines.
            return self._run_seeds_ensemble(
                configuration, buffer, seeds, max_steps, stability_window,
                record, capacity, record_trajectory, trajectory_capacity,
                analytics,
            )
        # Tracing or profiling adds two clock reads, one profiler record and
        # one span per run; disabled, it costs two branches per run (bench
        # E15 asserts the disabled cost is <=2%).
        profiler = _obs_profile.active_profiler()
        observing = profiler is not None or _obs_trace.tracing_active()
        results: List[SimulationResult] = []
        for seed in seeds:
            run_rng = random.Random(seed)
            t0 = monotonic_time() if observing else 0.0
            if buffer is not None:
                counts = self._compiled.counts_of(configuration, out=buffer)
                result = self._run_compiled(
                    configuration, counts, max_steps, stability_window, run_rng,
                    record, capacity,
                )
            else:
                result = self._dispatch(
                    configuration, max_steps, stability_window, run_rng,
                    record, capacity,
                )
            if observing:
                self._observe_run(profiler, t0, result, seed=int(seed))
            if analytics is not None:
                result.analytics = analytics.extract(result, self.protocol)
                self._restore_trajectory(
                    result, record_trajectory, trajectory_capacity
                )
            results.append(result)
        return results

    def _run_seeds_ensemble(
        self,
        configuration: Configuration,
        counts: List[int],
        seeds: List[int],
        max_steps: int,
        stability_window: int,
        record: bool,
        capacity: int,
        record_trajectory: bool,
        trajectory_capacity: int,
        analytics: Any,
    ) -> List[SimulationResult]:
        """Run one repetition per seed through the lock-step ensemble engine.

        ``record``/``capacity`` are the effective recording parameters (the
        analytics path records internally at full capacity, exactly like the
        serial loop), ``record_trajectory``/``trajectory_capacity`` the
        caller's — trajectories are restored to the requested shape after
        metric extraction.  Row ``i`` of the ensemble is bit-identical to a
        per-run engine run seeded with ``seeds[i]``.
        """
        from .ensemble import VectorizedEnsemble
        from .vectorized import require_numpy

        np = require_numpy()
        ensemble = self._ensemble
        if ensemble is None:
            ensemble = VectorizedEnsemble(self._compiled, self._kind, self._classes)
            self._ensemble = ensemble
        one, zero, undef = self._initial_output_counters(counts)
        ring = None
        physical = 0
        if record:
            # Same physical clamp as the per-run recording path: a run fires
            # at most max_steps transitions.
            physical = max(1, min(capacity, max_steps))
            ring = np.zeros((len(seeds), physical), dtype=np.int64)
        profiler = _obs_profile.active_profiler()
        observing = profiler is not None or _obs_trace.tracing_active()
        t0 = monotonic_time() if observing else 0.0
        steps, values, since, terminated, finals = ensemble.run(
            counts, seeds, max_steps, stability_window, one, zero, undef,
            ring, physical,
        )
        # Rows advance in lock step, so per-row wall time is not separable;
        # the observed cost is attributed evenly across rows (timing fields
        # are stripped from the canonical rendering anyway).
        per_row = (
            (monotonic_time() - t0) / max(1, len(seeds)) if observing else 0.0
        )
        results: List[SimulationResult] = []
        for i in range(len(seeds)):
            fired_steps = int(steps[i])
            value = int(values[i])
            value_since = int(since[i])
            trajectory = None
            if ring is not None:
                trajectory = Trajectory.from_ring(
                    ring[i].tolist(), fired_steps, physical,
                    reported_capacity=capacity,
                )
            result = SimulationResult(
                initial=configuration,
                final=self._compiled.configuration_of(finals[i].tolist()),
                steps=fired_steps,
                consensus=value if value >= 0 else None,
                consensus_step=value_since if value_since >= 0 else None,
                terminated=bool(terminated[i]),
                interactions_sampled=fired_steps,
                trajectory=trajectory,
            )
            if observing:
                if profiler is not None:
                    profiler.record("ensemble", fired_steps, per_row)
                _obs_trace.span_event(
                    "run", "run", t0, per_row,
                    seed=int(seeds[i]), engine="ensemble", steps=fired_steps,
                    consensus=result.consensus, terminated=result.terminated,
                )
            if analytics is not None:
                result.analytics = analytics.extract(result, self.protocol)
                self._restore_trajectory(
                    result, record_trajectory, trajectory_capacity
                )
            results.append(result)
        return results

    @staticmethod
    def _restore_trajectory(
        result: SimulationResult, record_trajectory: bool, trajectory_capacity: int
    ) -> None:
        """Undo the internal full-capacity recording of an analytics run.

        Leaves ``result.trajectory`` exactly as a plain run with the caller's
        ``record_trajectory``/``trajectory_capacity`` would have: ``None``
        when recording was not requested, else the last
        ``trajectory_capacity`` firings under the requested capacity — so
        enabling analytics can never change the non-analytics fields.
        """
        if not record_trajectory:
            result.trajectory = None
            return
        trajectory = result.trajectory
        if trajectory is None or trajectory.capacity == trajectory_capacity:
            return
        indices = trajectory.transition_indices
        if len(indices) > trajectory_capacity:
            indices = indices[len(indices) - trajectory_capacity:]
        result.trajectory = Trajectory(
            transition_indices=indices,
            total_fired=trajectory.total_fired,
            capacity=trajectory_capacity,
        )

    def run_many(
        self,
        inputs: Configuration,
        repetitions: int,
        max_steps: int = 100000,
        stability_window: int = 200,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        record_trajectory: bool = False,
        trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
        analytics: Any = None,
    ) -> List[SimulationResult]:
        """Simulate several independent executions from the same input.

        Each repetition runs under its own generator seeded from the
        simulator's master generator, so a batch is reproducible from the
        simulator seed while the repetitions stay independent — and the two
        engines agree run-for-run.

        ``backend="serial"`` (default) runs the repetitions in this process,
        reusing a single dense counts buffer on the compiled path;
        ``backend="process"`` fans them out over ``max_workers`` worker
        processes (see :mod:`repro.simulation.batch`).  The per-repetition
        seeds are drawn from the master generator *before* scheduling, and the
        results come back in repetition order, so the two backends return
        bit-identical result lists for the same simulator seed.

        ``analytics`` optionally attaches a compact metric dict per result
        (see :mod:`repro.analytics.metrics`); under ``backend="process"`` the
        extraction runs inside the workers and only the metrics cross the
        pool.
        """
        from .batch import run_ensemble

        if repetitions < 0:
            raise ValueError(f"repetitions must be non-negative, got {repetitions}")
        # A failed batch must not advance the master generator — whether the
        # failure is early validation or a late one (unpicklable payload,
        # malformed worker-count override) — or a corrected retry would
        # silently produce a different ensemble than a fresh simulator with
        # this seed.  Snapshot the stream and restore it on any error.
        rng_state = self.rng.getstate()
        seeds = [self.rng.getrandbits(64) for _ in range(repetitions)]
        try:
            return run_ensemble(
                self.protocol,
                inputs,
                seeds,
                scheduler=self.scheduler,
                engine=self.engine,
                max_steps=max_steps,
                stability_window=stability_window,
                backend=backend,
                max_workers=max_workers,
                chunk_size=chunk_size,
                record_trajectory=record_trajectory,
                trajectory_capacity=trajectory_capacity,
                analytics=analytics,
                _serial_simulator=self,
            )
        except Exception:
            self.rng.setstate(rng_state)
            raise


def simulate(
    protocol: Protocol,
    inputs: Configuration,
    seed: Optional[int] = None,
    max_steps: int = 100000,
    stability_window: int = 200,
    scheduler: Optional[Scheduler] = None,
    engine: str = "auto",
    record_trajectory: bool = False,
    trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    simulator = Simulator(protocol, scheduler=scheduler, seed=seed, engine=engine)
    return simulator.run(
        inputs,
        max_steps=max_steps,
        stability_window=stability_window,
        record_trajectory=record_trajectory,
        trajectory_capacity=trajectory_capacity,
    )
