"""Opt-in trajectory recording for simulation runs.

Simulation results normally summarize a run (final configuration, consensus,
step counts).  Convergence experiments sometimes need the *path* as well:
which transitions fired, in which order.  Re-running the ensemble on the
sparse reference engine just to observe paths would forfeit the compiled
engine's speedup, so every engine can instead append the fired transition
indices to a :class:`collections.deque` while it runs:

* recording is opt-in (``record_trajectory=True`` on the run methods) and
  costs one deque append per interaction,
* the deque holds **every** fired transition index; it grows only with the
  steps actually fired, so memory is proportional to the steps fired,
  which the run's ``max_steps`` bounds,
* the recorded indices refer to :attr:`PetriNet.transitions
  <repro.core.petrinet.PetriNet.transitions>` order — the same order the
  compiled engine numbers transitions — so a trajectory replays on the net
  to the run's final configuration (the test suite asserts this on every
  engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..core.configuration import Configuration
from ..core.petrinet import PetriNet
from ..core.transition import Transition

__all__ = ["Trajectory"]


@dataclass(frozen=True)
class Trajectory:
    """The sequence of transitions fired during one run.

    ``transition_indices`` are indices into the net's transition tuple, in
    firing order, from the run's first step to its last.
    """

    transition_indices: Tuple[int, ...]

    def transitions(self, net: PetriNet) -> List[Transition]:
        """Resolve the recorded indices against ``net``'s transition order."""
        transitions = net.transitions
        return [transitions[index] for index in self.transition_indices]

    def replay(self, net: PetriNet, initial: Configuration) -> Configuration:
        """Fire the recorded word from ``initial`` and return the result."""
        return net.fire_word(initial, self.transitions(net))

    def __len__(self) -> int:
        return len(self.transition_indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.transition_indices)

    def __repr__(self) -> str:
        return f"Trajectory(recorded={len(self.transition_indices)})"
