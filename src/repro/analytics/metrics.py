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
``*``-output agents).  One loop does it, in whole blocks wherever no
consensus can form and step by step only where one is within reach; blocks
stop at each curve checkpoint, and the loop stops once every requested
quantity is known.  A recording holds the whole run, so every quantity is
always recoverable.  Extraction is a pure function of
``(protocol, result)``, so the three engines, in-process or on a worker
pool, produce **identical metric dicts** for identical trajectories; the
golden-metric tests pin this.

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
from typing import Dict, List, Optional, Tuple

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
    """How often each transition index fired over the recorded run.

    Indexed by the net's transition order (the order trajectories record).
    An empty trajectory yields an all-zero histogram.
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
    asked for or do not exist:

    ========================== ==============================================
    key                        value
    ========================== ==============================================
    ``steps``                  the run's step count
    ``consensus``              the final consensus (0 / 1 / None)
    ``time_to_stable_consensus`` step the final consensus was reached (None
                               for unconverged runs)
    ``time_to_first_consensus``  first step *any* consensus held (0 when the
                               initial configuration already agrees; None
                               when no consensus ever appeared)
    ``correct``                consensus == expected (None without an
                               expectation)
    ``trajectory_complete``    always True: a recording holds the whole run
    ``histogram``              per-transition firing counts (tuple)
    ``curve``                  ``((checkpoint, fraction), ...)`` consensus
                               fractions, or None (disabled / unconverged
                               run)
    ========================== ==============================================
    """
    if spec is None:
        spec = AnalyticsSpec()
    if result.trajectory is None:
        raise ValueError(
            "result carries no recorded trajectory; run with "
            "record_trajectory=True (or hand the spec to the batch layer's "
            "analytics= knob, which records internally)"
        )
    checkpoints = spec.curve_checkpoints if result.consensus is not None else ()
    first, curve, histogram = _replay(result, protocol, checkpoints)
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
        "trajectory_complete": True,
        "histogram": histogram,
        "curve": curve,
    }


#: Exact-scan chunk used by the block-skip replay when a consensus is within
#: reach of the counters; bulk skips shorter than this scan instead.
_SCAN_CHUNK = 32


def _fraction(one: int, zero: int, undef: int, final_consensus: Optional[int]) -> float:
    """The share of output-carrying agents whose output is the final consensus."""
    population = one + zero + undef
    if population == 0:
        raise ValueError(
            "cannot sample a consensus-fraction curve: the configuration "
            "lost every output-carrying agent mid-run"
        )
    return (one if final_consensus == 1 else zero) / population


def _replay(
    result: SimulationResult,
    protocol: Protocol,
    checkpoints: Tuple[int, ...],
) -> Tuple[
    Optional[int],
    Optional[Tuple[Tuple[int, float], ...]],
    Tuple[int, ...],
]:
    """Replay the output-class counters along the trajectory.

    Returns ``(first_consensus_step, curve, histogram)``, the curve sampled
    at ``checkpoints`` (``None`` without checkpoints) and the histogram as a
    by-product: the replay counts block occurrences anyway, so folding the
    histogram in here makes it free.

    The replay runs in **block-skip** mode: while ``undef > 0`` no consensus
    can exist until ``undef`` reaches zero, and with ``undef == 0`` none can
    exist until ``one`` or ``zero`` does — and one step moves each counter
    by at most ``max_delta``.  Whole stretches of ``(counter - 1) //
    max_delta`` steps are therefore provably consensus-free and are folded
    in C speed via a :class:`collections.Counter` over the block (which also
    feeds the histogram); only the stretches where a consensus is
    arithmetically within reach are scanned step by step.  Once the first
    consensus is known, the rest of the path folds in whole blocks.  Blocks
    and scans stop at each curve checkpoint, where the folded counters are
    exact, so the curve is sampled there.  The loop stops once the first
    consensus is known and no checkpoint is left inside the run, with the
    histogram finished by one bulk count over the remaining suffix — this
    is what keeps in-worker extraction a small fraction of the simulation
    cost (benchmark E13 bounds it).
    """
    compiled, classes, deltas, max_delta = _replay_tables(protocol)
    one, zero, undef = _initial_counters(result.initial, compiled, classes)
    if checkpoints and one + zero + undef == 0:
        raise ValueError(
            "cannot sample a consensus-fraction curve: no agent occupies an "
            "output-carrying state (the protocol's output table does not "
            "cover the initial configuration)"
        )
    fired = result.trajectory.transition_indices
    length = len(fired)
    final_consensus = result.consensus
    first: Optional[int] = 0 if _consensus_of(one, zero, undef) is not None else None
    samples: List[Tuple[int, float]] = []
    pending = 0  # index of the next unsampled checkpoint
    counter: Counter = Counter()
    position = 0
    while True:
        while pending < len(checkpoints) and checkpoints[pending] == position:
            samples.append((position, _fraction(one, zero, undef, final_consensus)))
            pending += 1
        # max_delta == 0 means no transition moves agents across output
        # classes: the initial consensus state is the run's consensus state
        # forever, so there is no first consensus to search for.
        searching = first is None and max_delta > 0
        if position == length or not (searching or pending < len(checkpoints)):
            break
        stop = length
        if pending < len(checkpoints) and checkpoints[pending] < stop:
            stop = checkpoints[pending]
        skip = stop - position
        if searching:
            guard = undef if undef else (one if one < zero else zero)
            if (guard - 1) // max_delta < skip:
                skip = (guard - 1) // max_delta
        if not searching or skip >= _SCAN_CHUNK:
            # No consensus to find, or one provably impossible for `skip`
            # steps: fold the whole block at C speed.
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
            end = min(position + _SCAN_CHUNK, stop)
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
    # Checkpoints beyond the run's length sample the final, unchanging
    # configuration.
    for checkpoint in checkpoints[pending:]:
        samples.append((checkpoint, _fraction(one, zero, undef, final_consensus)))
    curve = tuple(samples) if checkpoints else None
    return first, curve, _histogram_from_counter(counter, compiled.num_transitions)
