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

* the **native engine** (``engine="native"``) runs one C loop over the
  compiled engine's dense tables, for both schedulers: weights kept in
  blocks with maintained block sums (``O(sqrt |T|)`` per pick), CPython's
  MT19937 reproduced in C, and a whole seed list per call with every
  generator seeded inside C (:mod:`repro.simulation.native`).  It is built
  with the host C compiler on first use into a per-user cache, and a run
  whose counts or weights overflow 64 bits is redone on the compiled engine,
* the **compiled engine** (``engine="compiled"``) maps states to dense
  indices once per net and runs a generated Python loop that mutates a
  single counts array in place, reweighs transitions incrementally and
  checks consensus in O(1) via maintained output counters
  (:mod:`repro.simulation.compiled`); it runs wherever Python does,
* the **reference engine** (``engine="reference"``) is the original sparse
  implementation: one immutable :class:`~repro.core.configuration.Configuration`
  per step, full consensus rescans, full weight recomputation.

All engines consume the random stream identically, so for a fixed
``(protocol, inputs, seed)`` they produce the same trajectory step for step
and leave the generator in the same state.  ``engine="auto"`` (the default)
picks the native engine whenever its library loads and the compiled engine
otherwise, and falls back to the reference engine for custom schedulers and
configurations mentioning states outside the compiled universe.  An explicit
``engine=`` argument names the engine to run; nothing in the environment
overrides either choice.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..config import monotonic_time
from ..core.configuration import Configuration
from ..obs import trace as _obs_trace
from ..core.protocol import OUTPUT_ONE, OUTPUT_ZERO, Protocol
from .compiled import OUT_ONE, OUT_UNDEFINED, OUT_ZERO, CompiledNet
from .native import available as native_available
from .scheduler import Scheduler, UniformScheduler
from .trajectory import DEFAULT_TRAJECTORY_CAPACITY, Trajectory

__all__ = ["SimulationResult", "Simulator", "simulate"]

_ENGINES = ("auto", "native", "compiled", "reference")

#: An engine's raw outcome of one run: ``(steps, consensus_value,
#: consensus_since, terminated, final, engine)``, ``-1`` standing for
#: ``None`` and ``engine`` naming the engine that ran it.
Outcome = Tuple[int, int, int, bool, Configuration, str]


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


def _recording_capacity(
    record_trajectory: bool,
    trajectory_capacity: int,
    max_steps: int,
    analytics: Any = None,
) -> int:
    """The ``maxlen`` of the deque a run records into; ``0`` records nothing.

    Analytics needs the complete path, and a run fires at most ``max_steps``
    transitions.  A deque grows with the steps actually fired, so a large
    capacity or budget costs nothing until a run uses it.  Every run path
    comes here first, so this is where a negative step budget (which each
    engine would run differently) or a recording capacity below 1 is
    refused.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if record_trajectory and trajectory_capacity < 1:
        raise ValueError("trajectory_capacity must be at least 1")
    capacity = trajectory_capacity if record_trajectory else 0
    if analytics is not None:
        capacity = max(1, max_steps, capacity)
    return capacity


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
        one — the native engine when its library loads, silently the
        compiled engine otherwise.  ``"native"`` and ``"compiled"`` require
        that engine, raising ``ValueError`` for schedulers without a dense
        fast path, and ``"native"`` raising
        :class:`~repro.simulation.native.NativeUnavailable` (which names the
        missing compiler or the unusable cache) when its library cannot be
        built or loaded.  ``"reference"`` forces the sparse reference engine.
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
        self.protocol = protocol
        self.net = protocol.petri_net
        self.scheduler = scheduler or UniformScheduler()
        self.rng = random.Random(seed)
        self.engine = engine

        self._compiled: Optional[CompiledNet] = None
        self._classes: Optional[Tuple[int, ...]] = None
        self._stepper: Optional[Any] = None
        self._kind: Optional[str] = None
        #: The engine that runs a configuration inside the compiled universe.
        self._choice = "reference"
        if engine != "reference":
            kind = self.scheduler.compiled_kind()
            if kind is None:
                if engine in ("native", "compiled"):
                    raise ValueError(
                        f"scheduler {type(self.scheduler).__name__} has no compiled fast "
                        "path; use engine='auto' or engine='reference'"
                    )
            else:
                self._choice = engine
                if engine == "auto":
                    self._choice = "native" if native_available() else "compiled"
                self._compiled = self.net.compiled(extra_states=self.protocol.states)
                self._classes = self._compiled.output_classes(self.protocol.output_table)
                if self._choice == "native":
                    self._stepper = self._compiled.native_stepper(kind, self._classes)
                else:
                    self._stepper = self._compiled.stepper(kind, self._classes)
                self._kind = kind

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
        ``trajectory_capacity`` fired transition indices (a bounded deque:
        memory is proportional to min(steps fired, capacity)).
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
        capacity = _recording_capacity(record_trajectory, trajectory_capacity, max_steps)
        ring = deque(maxlen=capacity) if capacity else None
        observing = _obs_trace.tracing_active()
        t0 = monotonic_time() if observing else 0.0
        outcome = self._dispatch(configuration, max_steps, stability_window, self.rng, ring)
        timing = (t0, monotonic_time() - t0) if observing else None
        return self._finish(configuration, outcome, ring, timing)

    def _dispatch(
        self,
        configuration: Configuration,
        max_steps: int,
        stability_window: int,
        rng: random.Random,
        ring: Optional[Deque[int]] = None,
        counts: Optional[List[int]] = None,
    ) -> Outcome:
        """Run one execution on the dense engine when the configuration fits
        its universe, else on the reference engine; the outcome names the
        engine that ran it.

        ``ring`` is the deque to record into (``None`` records nothing) and
        ``counts`` an optional dense buffer to reuse across runs.
        """
        if self._stepper is not None:
            counts = self._compiled.counts_of(configuration, out=counts)
            if counts is not None:
                stepper = self._stepper
                args: Tuple[Any, ...] = (
                    counts, rng, max_steps, stability_window,
                    *self._initial_output_counters(counts),
                )
                if ring is not None:
                    args += (ring,)
                    if self._choice == "compiled":
                        stepper = self._compiled.stepper(self._kind, self._classes, record=True)
                steps, value, since, terminated = stepper(*args)
                final = self._compiled.configuration_of(counts)
                return steps, value, since, terminated, final, self._choice
            if self.engine in ("native", "compiled"):
                raise ValueError(
                    "configuration mentions states outside the compiled universe; "
                    "use engine='auto' or engine='reference'"
                )
        return self._run_reference(configuration, max_steps, stability_window, rng, ring)

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

    def _finish(
        self,
        initial: Configuration,
        outcome: Outcome,
        ring: Optional[Deque[int]],
        timing: Optional[Tuple[float, float]],
        analytics: Any = None,
        record_trajectory: bool = False,
        trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
        **attrs: Any,
    ) -> SimulationResult:
        """Turn one engine outcome into a :class:`SimulationResult`.

        ``outcome`` is an engine's raw ``(steps, consensus_value,
        consensus_since, terminated, final, engine)`` with ``-1`` as the
        ``None`` sentinel, and ``ring`` the deque the run recorded into.
        ``timing`` is ``(t0, elapsed)`` for a traced run, which gets one
        ``run`` span tagged with the engine that ran it and ``attrs``;
        instrumentation reads results and clocks, never the RNG stream, so an
        observed run is bit-identical to an unobserved one.  With
        ``analytics`` the metric dict is extracted from the complete
        recording, then the trajectory is cut back to what the caller asked
        for, so enabling analytics never changes the other fields.
        """
        steps, value, since, terminated, final, engine = outcome
        result = SimulationResult(
            initial=initial,
            final=final,
            steps=steps,
            consensus=value if value >= 0 else None,
            consensus_step=since if since >= 0 else None,
            terminated=terminated,
            interactions_sampled=steps,
            trajectory=(
                None if ring is None else Trajectory(tuple(ring), steps, ring.maxlen)
            ),
        )
        if timing is not None:
            t0, elapsed = timing
            _obs_trace.span_event(
                "run", "run", t0, elapsed,
                engine=engine, steps=steps,
                consensus=result.consensus, terminated=terminated, **attrs,
            )
        if analytics is not None:
            result.analytics = analytics.extract(result, self.protocol)
            if not record_trajectory:
                result.trajectory = None
            elif ring is not None and ring.maxlen != trajectory_capacity:
                kept = result.trajectory.transition_indices[-trajectory_capacity:]
                result.trajectory = Trajectory(kept, steps, trajectory_capacity)
        return result

    # ------------------------------------------------------------------
    # Sparse reference engine
    # ------------------------------------------------------------------
    def _run_reference(
        self,
        configuration: Configuration,
        max_steps: int,
        stability_window: int,
        rng: random.Random,
        ring: Optional[Deque[int]] = None,
    ) -> Outcome:
        current = configuration
        consensus_value = self._consensus(current)
        consensus_since: Optional[int] = 0 if consensus_value is not None else None
        index_of_transition = (
            None if ring is None else {t: i for i, t in enumerate(self.net.transitions)}
        )
        steps = max_steps
        terminated = False
        for step in range(1, max_steps + 1):
            transition = self.scheduler.choose(self.net, current, rng)
            if transition is None:
                # Terminal configuration: the consensus (if any) is definitive.
                steps = step - 1
                terminated = True
                break
            current = transition.fire(current)
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
                steps = step
                break
        return (
            steps,
            -1 if consensus_value is None else consensus_value,
            -1 if consensus_since is None else consensus_since,
            terminated,
            current,
            "reference",
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
        each worker's share under ``backend="process"``): on the native
        engine the seed list runs as one
        :meth:`~repro.simulation.native.NativeStepper.run_seeds` call that
        seeds every generator inside C; otherwise one loop runs the seeds in
        turn, reusing a single dense counts buffer on the compiled engine.

        ``analytics`` optionally supplies an extraction spec (any object with
        an ``extract(result, protocol)`` method, canonically
        :class:`~repro.analytics.metrics.AnalyticsSpec`).  Each run is then
        recorded internally with a capacity large enough for the complete
        path, its compact metric dict is attached as ``result.analytics``,
        and the trajectory is **dropped again** unless the caller asked for
        trajectories too — this is what lets worker processes return metrics
        instead of paths.  The surviving result fields (and any requested
        trajectory) are bit-identical to a run without analytics.
        """
        capacity = _recording_capacity(
            record_trajectory, trajectory_capacity, max_steps, analytics
        )
        # Tracing adds two clock reads and one span per run; disabled, it
        # costs two branches per run (bench E15 asserts the disabled cost is
        # <=2%).
        observing = _obs_trace.tracing_active()
        counts: Optional[List[int]] = None
        if self._stepper is not None:
            counts = self._compiled.counts_of(configuration)
        finish = partial(
            self._finish, configuration, analytics=analytics,
            record_trajectory=record_trajectory,
            trajectory_capacity=trajectory_capacity,
        )
        if self._choice == "native" and counts is not None:
            rings = [deque(maxlen=capacity) for _ in seeds] if capacity else None
            t0 = monotonic_time() if observing else 0.0
            outcomes = self._stepper.run_seeds(
                counts, seeds, max_steps, stability_window,
                *self._initial_output_counters(counts), rings,
            )
            # One call runs every seed, so per-run wall time is not
            # separable: the runs' spans tile the call's interval evenly, in
            # seed order.
            share = (monotonic_time() - t0) / max(len(seeds), 1) if observing else 0.0
            return [
                finish(
                    (
                        steps, value, since, terminated,
                        self._compiled.configuration_of(final), "native",
                    ),
                    ring, (t0 + index * share, share) if observing else None,
                    seed=int(seed),
                )
                for index, ((steps, value, since, terminated, final), ring, seed)
                in enumerate(zip(outcomes, rings or repeat(None), seeds))
            ]
        results: List[SimulationResult] = []
        for seed in seeds:
            ring = deque(maxlen=capacity) if capacity else None
            t0 = monotonic_time() if observing else 0.0
            outcome = self._dispatch(
                configuration, max_steps, stability_window, random.Random(seed),
                ring, counts,
            )
            timing = (t0, monotonic_time() - t0) if observing else None
            results.append(finish(outcome, ring, timing, seed=int(seed)))
        return results

    def run_many(
        self,
        inputs: Configuration,
        repetitions: int,
        max_steps: int = 100000,
        stability_window: int = 200,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        record_trajectory: bool = False,
        trajectory_capacity: int = DEFAULT_TRAJECTORY_CAPACITY,
        analytics: Any = None,
    ) -> List[SimulationResult]:
        """Simulate several independent executions from the same input.

        Each repetition runs under its own generator seeded from the
        simulator's master generator, so a batch is reproducible from the
        simulator seed while the repetitions stay independent — and the
        engines agree run-for-run.

        ``backend="serial"`` (default) runs the repetitions on this simulator,
        reusing its steppers (one native call for the whole seed list);
        ``backend="process"`` fans them out over an ephemeral pool of
        ``max_workers`` worker processes (see :mod:`repro.simulation.batch`).
        The per-repetition seeds are drawn from the master generator *before*
        scheduling (a fresh simulator draws
        :func:`~repro.simulation.batch.repetition_seeds` of its seed), and
        the results come back in repetition order, so the two backends return
        bit-identical result lists for the same simulator seed.

        ``analytics`` optionally attaches a compact metric dict per result
        (see :mod:`repro.analytics.metrics`); under ``backend="process"`` the
        extraction runs inside the workers and only the metrics cross the
        pool.
        """
        from .batch import _run_ensemble

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
            return _run_ensemble(
                self, inputs, seeds, max_steps, stability_window, backend,
                max_workers, record_trajectory, trajectory_capacity, analytics,
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
