"""Schedulers for protocol simulation.

A scheduler picks, at every step, the transition to fire from the currently
enabled ones.  The stable-computation semantics of the paper quantifies over
*all* fair executions; simulation samples executions instead, and the
schedulers here provide the two standard sampling disciplines:

* :class:`UniformScheduler` — picks uniformly among enabled transition
  *instances*, i.e. each transition is weighted by the number of distinct
  agent groups that could perform it (the usual random-pairing model of the
  population-protocol literature, generalized to arbitrary widths),
* :class:`TransitionScheduler` — picks uniformly among enabled transitions,
  regardless of how many agent groups enable them (useful to stress rare
  interactions).

Both honour a ``random.Random`` instance supplied by the caller so runs are
reproducible.
"""

from __future__ import annotations

import abc
import random
from math import comb
from typing import List, Optional, Sequence, Tuple

from ..core.configuration import Configuration
from ..core.petrinet import PetriNet
from ..core.transition import Transition

__all__ = ["Scheduler", "UniformScheduler", "TransitionScheduler"]


class Scheduler(abc.ABC):
    """Strategy interface: choose the next transition to fire."""

    @abc.abstractmethod
    def choose(
        self, net: PetriNet, configuration: Configuration, rng: random.Random
    ) -> Optional[Transition]:
        """Return an enabled transition to fire, or ``None`` if none is enabled."""

    def compiled_kind(self) -> Optional[str]:
        """The compiled-engine discipline this scheduler admits, or ``None``.

        The dense simulation engines (:mod:`repro.simulation.compiled`,
        :mod:`repro.simulation.native`) run one loop for both built-in
        disciplines, which differ only in the per-transition weight the loop
        draws from: a binomial product for ``"uniform"``, 0/1 enabledness for
        ``"transition"``.  The built-in schedulers return their discipline
        here.  Custom schedulers return ``None`` and are run through the
        sparse reference engine.  A subclass that overrides :meth:`choose` with
        different semantics must override this to return ``None`` as well,
        otherwise the compiled engine would silently ignore its ``choose``.
        """
        return None


class TransitionScheduler(Scheduler):
    """Choose uniformly among the enabled transitions."""

    def choose(
        self, net: PetriNet, configuration: Configuration, rng: random.Random
    ) -> Optional[Transition]:
        enabled = net.enabled_transitions(configuration)
        if not enabled:
            return None
        return rng.choice(enabled)

    def compiled_kind(self) -> Optional[str]:
        if type(self).choose is not TransitionScheduler.choose:
            return None
        return "transition"


class UniformScheduler(Scheduler):
    """Choose transitions weighted by the number of agent groups enabling them.

    For a transition with precondition ``pre``, the weight in configuration
    ``rho`` is ``prod_p C(rho(p), pre(p))`` — the number of ways to pick the
    interacting agents.  This reproduces the classical uniform random-pairing
    dynamics for width-2 protocols and generalizes it to arbitrary widths.

    :meth:`choose` below is the sparse reference implementation, which
    recomputes every weight from scratch.  Under the compiled engine the same
    discipline runs *incrementally*: after firing transition ``t`` only the
    weights of transitions whose pre-sets intersect the states ``t`` changed
    are recomputed, and a running total is maintained
    (see :mod:`repro.simulation.compiled`).  Both paths draw exactly one
    ``randrange(total)`` per step, so their trajectories coincide seed-for-seed.
    """

    def choose(
        self, net: PetriNet, configuration: Configuration, rng: random.Random
    ) -> Optional[Transition]:
        weighted: List[Tuple[Transition, int]] = []
        total = 0
        for transition in net.transitions:
            weight = self._weight(transition, configuration)
            if weight > 0:
                weighted.append((transition, weight))
                total += weight
        if total == 0:
            return None
        pick = rng.randrange(total)
        cumulative = 0
        for transition, weight in weighted:
            cumulative += weight
            if pick < cumulative:
                return transition
        # Unreachable, but keeps the type-checker and defensive readers happy.
        return weighted[-1][0]

    def compiled_kind(self) -> Optional[str]:
        if (
            type(self).choose is not UniformScheduler.choose
            or type(self)._weight is not UniformScheduler._weight
        ):
            return None
        return "uniform"

    @staticmethod
    def _weight(transition: Transition, configuration: Configuration) -> int:
        weight = 1
        for state, needed in transition.pre.items():
            available = configuration[state]
            if available < needed:
                return 0
            weight *= comb(available, needed)
        return weight
