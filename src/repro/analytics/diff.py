"""Trajectory diffing: pinpoint the first divergent firing between two runs.

The engine-equivalence guarantee ("all three engines consume the random
stream identically") and the golden-trajectory pins both reduce to comparing
*fired transition sequences*.  When they disagree, the first divergent index
is the debugging signal: everything before it is shared history, the firing
at it is where the RNG discipline (or the scheduler) split.  This module
turns two recorded trajectories into exactly that:

* :func:`diff_trajectories` / :func:`diff_results` — compare two recorded
  paths and locate the first index where they fire different transitions
  (engine-vs-engine diffs should come back identical; a
  scheduler-vs-scheduler diff typically splits within a few steps),
* :func:`describe_diff` — render the verdict as human-readable text, naming
  the divergent transitions when the net is supplied.

A recording holds the whole run from its first step, so index ``i`` of one
recording is step ``i + 1`` of its run, as it is in the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.petrinet import PetriNet
from ..simulation.simulator import SimulationResult
from ..simulation.trajectory import Trajectory

__all__ = ["TrajectoryDiff", "diff_results", "diff_trajectories", "describe_diff"]


@dataclass(frozen=True)
class TrajectoryDiff:
    """The comparison of two fired-transition sequences."""

    #: 0-based index of the first position firing different transitions, or
    #: ``None`` when one sequence is a prefix of the other (or they are equal).
    first_divergence: Optional[int]
    #: Length of the shared prefix (== ``first_divergence`` when divergent,
    #: else the shorter sequence's length).
    common_prefix: int
    #: The two sequence lengths.
    length_a: int
    length_b: int
    #: The transition indices fired at the divergence point (both None when
    #: no divergence was found — equal sequences or a pure length difference).
    fired_a: Optional[int] = None
    fired_b: Optional[int] = None

    @property
    def identical(self) -> bool:
        """True when the two runs fired the same word, step for step."""
        return self.first_divergence is None and self.length_a == self.length_b

    def __repr__(self) -> str:
        verdict = (
            "identical"
            if self.identical
            else f"first_divergence={self.first_divergence}"
        )
        return (
            f"TrajectoryDiff({verdict}, lengths=({self.length_a}, "
            f"{self.length_b}))"
        )


def diff_trajectories(a: Trajectory, b: Trajectory) -> TrajectoryDiff:
    """Locate the first divergent fired index between two recorded paths."""
    fired_a = a.transition_indices
    fired_b = b.transition_indices
    shared = min(len(fired_a), len(fired_b))
    for index in range(shared):
        if fired_a[index] != fired_b[index]:
            return TrajectoryDiff(
                first_divergence=index,
                common_prefix=index,
                length_a=len(fired_a),
                length_b=len(fired_b),
                fired_a=fired_a[index],
                fired_b=fired_b[index],
            )
    return TrajectoryDiff(
        first_divergence=None,
        common_prefix=shared,
        length_a=len(fired_a),
        length_b=len(fired_b),
    )


def diff_results(a: SimulationResult, b: SimulationResult) -> TrajectoryDiff:
    """Diff two simulation results' recorded trajectories."""
    for label, result in (("first", a), ("second", b)):
        if result.trajectory is None:
            raise ValueError(
                f"the {label} result carries no recorded trajectory; "
                "run with record_trajectory=True"
            )
    return diff_trajectories(a.trajectory, b.trajectory)


def describe_diff(
    diff: TrajectoryDiff,
    net: Optional[PetriNet] = None,
    label_a: str = "a",
    label_b: str = "b",
) -> str:
    """Render a diff verdict as text, naming transitions when a net is given."""

    def name(index: int) -> str:
        if net is not None:
            return f"{net.transitions[index].name} (#{index})"
        return f"#{index}"

    lines: List[str] = []
    if diff.identical:
        lines.append(
            f"trajectories are identical ({diff.length_a} fired transitions)"
        )
    elif diff.first_divergence is None:
        shorter, longer = (
            (label_a, label_b)
            if diff.length_a < diff.length_b
            else (label_b, label_a)
        )
        lines.append(
            f"no divergent firing, but {shorter} ended after "
            f"{diff.common_prefix} steps while {longer} continued to "
            f"{max(diff.length_a, diff.length_b)}"
        )
    else:
        lines.append(
            f"first divergence at step {diff.first_divergence + 1} "
            f"(after {diff.common_prefix} shared firings):"
        )
        lines.append(f"  {label_a} fired {name(diff.fired_a)}")
        lines.append(f"  {label_b} fired {name(diff.fired_b)}")
    return "\n".join(lines)
