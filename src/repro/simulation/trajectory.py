"""Opt-in trajectory recording for simulation runs.

Simulation results normally summarize a run (final configuration, consensus,
step counts).  Convergence experiments sometimes need the *path* as well:
which transitions fired, in which order.  Re-running the ensemble on the
sparse reference engine just to observe paths would forfeit the compiled
engine's speedup, so every engine can instead append the fired transition
indices to a **bounded deque** (``collections.deque(maxlen=capacity)``)
while it runs:

* recording is opt-in (``record_trajectory=True`` on the run methods) and
  costs one deque append per interaction,
* the deque keeps the **last** ``trajectory_capacity`` fired transition
  indices; earlier ones are dropped (and counted in
  :attr:`Trajectory.dropped`), and it grows only with the steps actually
  fired, so memory is proportional to min(steps fired, capacity) whatever
  the step budget,
* the recorded indices refer to :attr:`PetriNet.transitions
  <repro.core.petrinet.PetriNet.transitions>` order — the same order the
  compiled engine numbers transitions — so a complete trajectory can be
  replayed on the net and must land on the run's final configuration
  (the test suite asserts this on every engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..core.configuration import Configuration
from ..core.petrinet import PetriNet
from ..core.transition import Transition

__all__ = ["DEFAULT_TRAJECTORY_CAPACITY", "Trajectory"]

#: Default recording capacity: large enough for typical convergence runs to be
#: complete, small enough that a 64-repetition ensemble stays in the megabytes.
DEFAULT_TRAJECTORY_CAPACITY = 65536


@dataclass(frozen=True)
class Trajectory:
    """The (suffix of the) sequence of transitions fired during one run.

    ``transition_indices`` are indices into the net's transition tuple, in
    firing order.  When the run fired more than ``capacity`` transitions the
    sequence is truncated to the **last** ``capacity`` of them and
    :attr:`dropped` reports how many earlier firings were dropped.
    """

    transition_indices: Tuple[int, ...]
    total_fired: int
    capacity: int

    @property
    def dropped(self) -> int:
        """How many early firings the bounded recording dropped."""
        return self.total_fired - len(self.transition_indices)

    @property
    def is_complete(self) -> bool:
        """True if every fired transition survived (nothing dropped)."""
        return self.dropped == 0

    def transitions(self, net: PetriNet) -> List[Transition]:
        """Resolve the recorded indices against ``net``'s transition order."""
        transitions = net.transitions
        return [transitions[index] for index in self.transition_indices]

    def replay(self, net: PetriNet, initial: Configuration) -> Configuration:
        """Fire the recorded word from ``initial`` and return the result.

        Only valid for complete trajectories: a truncated one lost its prefix,
        so the surviving suffix is generally not firable from ``initial``.
        """
        if not self.is_complete:
            raise ValueError(
                f"cannot replay a truncated trajectory ({self.dropped} of "
                f"{self.total_fired} firings were dropped); "
                "record with a larger trajectory_capacity"
            )
        return net.fire_word(initial, self.transitions(net))

    def __len__(self) -> int:
        return len(self.transition_indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.transition_indices)

    def __repr__(self) -> str:
        return (
            f"Trajectory(recorded={len(self.transition_indices)}, "
            f"total_fired={self.total_fired}, dropped={self.dropped})"
        )
