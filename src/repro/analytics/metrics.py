"""Per-run metric extraction from simulation results and recorded paths.

A :class:`~repro.simulation.simulator.SimulationResult` summarizes a run; its
recorded :class:`~repro.simulation.trajectory.Trajectory` carries the *path*.
This module turns the pair into a **compact metric dict** — the quantities the
paper's convergence experiments actually consume:

* ``time_to_stable_consensus`` — the step after which the final consensus
  never changed again (the result's ``consensus_step``),
* ``time_to_first_consensus`` — the first step at which *any* consensus held,
  recovered by replaying the recorded firing sequence over the protocol's
  output classes (a consensus can appear, dissolve, and re-form; the summary
  alone cannot distinguish the first appearance from the last),
* ``histogram`` — how often each transition fired, indexed by the net's
  transition order (the same order trajectories record),
* ``curve`` — the consensus fraction over time, sampled at configurable
  checkpoint steps: the fraction of output-carrying agents whose individual
  output already equals the run's final consensus,
* ``correct`` — whether the consensus matches an expected predicate value.

The replay never re-simulates: it only folds each fired transition's
precomputed effect on the three output-class counters (1-output / 0-output /
``*``-output agents), which costs a few integer additions per step — far less
than the simulation step that produced it — and stops early once every
requested quantity is known.  Extraction is a pure function of
``(protocol, result)``, so the three engines and both batch backends produce
**identical metric dicts** for identical trajectories; the golden-metric
tests pin this.

:class:`AnalyticsSpec` packages the extraction configuration.  It is a small
frozen dataclass of scalars, picklable by design: the batch layer ships it to
worker processes so extraction runs **in the worker** and only the metric
dict crosses the pool (see the ``analytics=`` knob of
:meth:`~repro.simulation.batch.WorkerPool.run_seeds`).
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.configuration import Configuration
from ..core.protocol import Protocol
from ..simulation.compiled import OUT_ONE, OUT_UNDEFINED, OUT_ZERO, CompiledNet
from ..simulation.simulator import SimulationResult

__all__ = ["AnalyticsSpec", "extract_run_metrics", "firing_histogram"]


#: Per-protocol replay tables, built once per protocol object and shared by
#: every extraction (worker processes hold one protocol per spec, so each
#: worker pays the O(|P| + |T|) table construction once per spec).
_REPLAY_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _replay_tables(protocol: Protocol):
    """``(compiled, classes, consensus_deltas, max_delta)`` for a protocol, cached.

    The tables are the dense engines' own (:mod:`repro.simulation.compiled`),
    so the replay reproduces their consensus decisions exactly: ``compiled``
    is the protocol's compiled net, ``classes`` the output class of each
    dense state, and ``consensus_deltas[t]`` the ``(d_one, d_zero,
    d_undefined)`` effect of firing transition ``t`` on the three
    output-class counters.
    """
    tables = _REPLAY_TABLES.get(protocol)
    if tables is not None:
        return tables
    net = protocol.petri_net
    if net is None:
        raise ValueError("analytics extraction requires a Petri-net based protocol")
    compiled = net.compiled(extra_states=protocol.states)
    classes = compiled.output_classes(protocol.output_table)
    deltas = compiled.consensus_deltas(classes)
    # The largest per-step movement of any single counter: the block-skip
    # replay uses it to bound how long a consensus stays provably out of
    # reach (zero when no transition moves agents across output classes).
    max_delta = max(
        (max(abs(d_one), abs(d_zero), abs(d_undef))
         for d_one, d_zero, d_undef in deltas),
        default=0,
    )
    tables = (compiled, classes, deltas, max_delta)
    _REPLAY_TABLES[protocol] = tables
    return tables


def _initial_counters(
    configuration: Configuration, compiled: CompiledNet, classes: Tuple[int, ...]
) -> Tuple[int, int, int]:
    """The ``(one, zero, undef)`` counters of a configuration.

    States outside the output table, or outside the compiled universe, count
    for no class: they never influence the consensus, mirroring
    :meth:`Protocol.configuration_output`.
    """
    counters = [0] * 4  # indexed by the OUT_* output classes
    index_of = compiled.index_of
    for state, count in configuration.items():
        index = index_of.get(state)
        if index is not None:
            counters[classes[index]] += count
    return counters[OUT_ONE], counters[OUT_ZERO], counters[OUT_UNDEFINED]


def _consensus_of(one: int, zero: int, undef: int) -> Optional[int]:
    """The consensus value of counter state, matching the engines exactly."""
    if undef:
        return None
    if one == 0:
        return 0
    if zero == 0:
        return 1
    return None


def _histogram_from_counter(
    counter: Counter, num_transitions: int
) -> Tuple[int, ...]:
    if num_transitions < 1:
        raise ValueError(
            f"num_transitions must be at least 1, got {num_transitions} "
            "(a net without transitions has no firings to count)"
        )
    counts = [0] * num_transitions
    for index, fired in counter.items():
        if not 0 <= index < num_transitions:
            raise ValueError(
                f"trajectory records transition index {index}, outside the "
                f"net's 0..{num_transitions - 1} range"
            )
        counts[index] = fired
    return tuple(counts)


def firing_histogram(trajectory, num_transitions: int) -> Tuple[int, ...]:
    """How often each transition index fired, over the recorded suffix.

    Indexed by the net's transition order (the order trajectories record).
    An empty trajectory yields an all-zero histogram; for a *truncated* one
    the counts cover only the surviving suffix (the caller can check
    :attr:`~repro.simulation.trajectory.Trajectory.is_complete`).
    """
    return _histogram_from_counter(
        Counter(trajectory.transition_indices), num_transitions
    )


@dataclass(frozen=True)
class AnalyticsSpec:
    """What to extract from each run, and against which expectation.

    Every run yields its per-transition firing histogram and, by counter
    replay, its ``time_to_first_consensus`` (``time_to_stable_consensus`` is
    free — the result already carries it).

    Parameters
    ----------
    curve_checkpoints:
        Steps at which to sample the consensus-fraction curve (sorted unique
        non-negative ints; empty disables the curve).  Checkpoints beyond the
        run's length report the final fraction — the configuration stops
        changing when the run does.
    expected_output:
        The predicate value the consensus *should* reach (0 or 1); enables
        the per-run ``correct`` flag.  ``None`` leaves it unset.

    Instances are immutable, hashable and picklable; the batch layer ships
    them to worker processes unchanged.
    """

    curve_checkpoints: Tuple[int, ...] = ()
    expected_output: Optional[int] = None

    def __post_init__(self):
        checkpoints = tuple(self.curve_checkpoints)
        for checkpoint in checkpoints:
            if not isinstance(checkpoint, int) or isinstance(checkpoint, bool):
                raise ValueError(
                    f"curve checkpoints must be integers, got {checkpoint!r}"
                )
            if checkpoint < 0:
                raise ValueError(
                    f"curve checkpoints must be non-negative, got {checkpoint}"
                )
        if len(set(checkpoints)) != len(checkpoints):
            raise ValueError(f"duplicate curve checkpoints: {checkpoints}")
        if tuple(sorted(checkpoints)) != checkpoints:
            raise ValueError(
                f"curve checkpoints must be sorted ascending: {checkpoints}"
            )
        object.__setattr__(self, "curve_checkpoints", checkpoints)
        if self.expected_output not in (None, 0, 1):
            raise ValueError(
                f"expected_output must be 0, 1 or None, got {self.expected_output!r}"
            )

    def extract(
        self, result: SimulationResult, protocol: Protocol
    ) -> Dict[str, object]:
        """The metric dict of one run (see :func:`extract_run_metrics`)."""
        return extract_run_metrics(result, protocol, self)


def extract_run_metrics(
    result: SimulationResult,
    protocol: Protocol,
    spec: Optional[AnalyticsSpec] = None,
) -> Dict[str, object]:
    """Extract a compact metric dict from one simulation result.

    The result must carry a recorded trajectory: the histogram, the
    first-consensus time and the curve are read from the path.  Returned
    keys are always present, with ``None`` marking quantities that were not
    asked for or are unrecoverable:

    ========================== ==============================================
    key                        value
    ========================== ==============================================
    ``steps``                  the run's step count
    ``consensus``              the final consensus (0 / 1 / None)
    ``time_to_stable_consensus`` step the final consensus was reached (None
                               for unconverged runs)
    ``time_to_first_consensus``  first step *any* consensus held (0 when the
                               initial configuration already agrees; None
                               when no consensus ever appeared or the
                               trajectory is truncated)
    ``correct``                consensus == expected (None without an
                               expectation)
    ``trajectory_complete``    whether the full path survived the recording
    ``histogram``              per-transition firing counts (tuple)
    ``curve``                  ``((checkpoint, fraction), ...)`` consensus
                               fractions, or None (disabled / truncated /
                               unconverged run)
    ========================== ==============================================

    A truncated trajectory (the bounded deque dropped early firings) cannot
    be replayed from the initial configuration: consensus times and curve
    degrade to ``None`` and the histogram covers the surviving suffix only,
    with ``trajectory_complete`` flagging the loss.
    """
    if spec is None:
        spec = AnalyticsSpec()
    trajectory = result.trajectory
    if trajectory is None:
        raise ValueError(
            "result carries no recorded trajectory; run with "
            "record_trajectory=True (or hand the spec to the batch layer's "
            "analytics= knob, which records internally)"
        )
    complete = trajectory.is_complete
    first: Optional[int] = None
    curve: Optional[Tuple[Tuple[int, float], ...]] = None
    if complete:
        wants_curve = bool(spec.curve_checkpoints) and result.consensus is not None
        first, curve, histogram = _replay_consensus(result, protocol, spec, wants_curve)
    else:
        histogram = firing_histogram(trajectory, protocol.petri_net.num_transitions)
    return {
        "steps": result.steps,
        "consensus": result.consensus,
        "time_to_stable_consensus": result.consensus_step,
        "time_to_first_consensus": first,
        "correct": (
            None
            if spec.expected_output is None
            else result.consensus == spec.expected_output
        ),
        "trajectory_complete": complete,
        "histogram": histogram,
        "curve": curve,
    }


#: Exact-scan chunk used by the block-skip replay when a consensus is within
#: reach of the counters; bulk skips shorter than this scan instead.
_SCAN_CHUNK = 32


def _replay_consensus(
    result: SimulationResult,
    protocol: Protocol,
    spec: AnalyticsSpec,
    wants_curve: bool,
) -> Tuple[
    Optional[int],
    Optional[Tuple[Tuple[int, float], ...]],
    Tuple[int, ...],
]:
    """Replay the output-class counters along the trajectory.

    Returns ``(first_consensus_step, curve, histogram)``, the histogram as a
    by-product: the replay counts block occurrences anyway, so folding the
    histogram in here makes it free.

    Without a curve the replay runs in **block-skip** mode: while
    ``undef > 0`` no consensus can exist until ``undef`` reaches zero, and
    with ``undef == 0`` none can exist until ``one`` or ``zero`` does — and
    one step moves each counter by at most ``max_delta``.  Whole stretches of
    ``(counter - 1) // max_delta`` steps are therefore provably
    consensus-free and are folded in C speed via a :class:`collections.Counter`
    over the block (which also feeds the histogram); only the stretches where
    a consensus is arithmetically within reach are scanned step by step.  The
    loop stops at the first consensus, with the histogram finished by one
    bulk count over the remaining suffix — this is what keeps in-worker
    extraction a small fraction of the simulation cost (benchmark E13 bounds
    it).  With curve checkpoints the exact per-step loop runs instead
    (curves need counter values at precise steps); curves are a
    small-ensemble analysis tool, not part of the sweep hot path.
    """
    compiled, classes, deltas, max_delta = _replay_tables(protocol)
    one, zero, undef = _initial_counters(result.initial, compiled, classes)
    fired = result.trajectory.transition_indices
    num_transitions = compiled.num_transitions
    first: Optional[int] = 0 if _consensus_of(one, zero, undef) is not None else None

    if wants_curve:
        return _replay_exact(
            spec, deltas, fired, num_transitions, one, zero, undef, first,
            result.consensus,
        )

    counter: Counter = Counter()
    position = 0
    # max_delta == 0 means no transition moves agents across output classes:
    # the initial consensus state is the run's consensus state forever, so
    # the scan is skipped entirely (the histogram still counts the full
    # sequence via the suffix bulk-count below).
    while max_delta > 0 and first is None and position < len(fired):
        guard = undef if undef else (one if one < zero else zero)
        skip = (guard - 1) // max_delta
        remaining = len(fired) - position
        if skip > remaining:
            skip = remaining
        if skip >= _SCAN_CHUNK:
            # Consensus provably impossible for `skip` steps: fold the whole
            # block at C speed.
            block = Counter(fired[position:position + skip])
            for index, count in block.items():
                d_one, d_zero, d_undef = deltas[index]
                one += d_one * count
                zero += d_zero * count
                undef += d_undef * count
            counter.update(block)
            position += skip
        else:
            # A consensus is within arithmetic reach: scan step by step.
            end = min(position + _SCAN_CHUNK, len(fired))
            while position < end:
                index = fired[position]
                counter[index] += 1
                position += 1
                d_one, d_zero, d_undef = deltas[index]
                if d_one or d_zero or d_undef:
                    one += d_one
                    zero += d_zero
                    undef += d_undef
                    if _consensus_of(one, zero, undef) is not None:
                        first = position
                        break

    counter.update(fired[position:])  # bulk-count the unscanned suffix
    return first, None, _histogram_from_counter(counter, num_transitions)


def _replay_exact(
    spec: AnalyticsSpec,
    deltas,
    fired,
    num_transitions: int,
    one: int,
    zero: int,
    undef: int,
    first: Optional[int],
    final_consensus: Optional[int],
) -> Tuple[
    Optional[int],
    Optional[Tuple[Tuple[int, float], ...]],
    Tuple[int, ...],
]:
    """The per-step replay variant, sampling curve checkpoints exactly."""
    samples = []
    checkpoints = spec.curve_checkpoints
    pending = 0  # index of the next unsampled checkpoint
    if one + zero + undef == 0:
        raise ValueError(
            "cannot sample a consensus-fraction curve: no agent occupies an "
            "output-carrying state (the protocol's output table does not "
            "cover the initial configuration)"
        )

    def fraction() -> float:
        population = one + zero + undef
        if population == 0:
            raise ValueError(
                "cannot sample a consensus-fraction curve: the configuration "
                "lost every output-carrying agent mid-run"
            )
        agreeing = one if final_consensus == 1 else zero
        return agreeing / population

    while pending < len(checkpoints) and checkpoints[pending] == 0:
        samples.append((0, fraction()))
        pending += 1

    histogram = [0] * num_transitions
    for step, index in enumerate(fired, start=1):
        histogram[index] += 1
        d_one, d_zero, d_undef = deltas[index]
        if d_one or d_zero or d_undef:
            one += d_one
            zero += d_zero
            undef += d_undef
            if first is None and _consensus_of(one, zero, undef) is not None:
                first = step
        while pending < len(checkpoints) and checkpoints[pending] == step:
            samples.append((step, fraction()))
            pending += 1

    # Checkpoints beyond the run's length sample the final, unchanging
    # configuration.
    for checkpoint in checkpoints[pending:]:
        samples.append((checkpoint, fraction()))
    return first, tuple(samples), tuple(histogram)
