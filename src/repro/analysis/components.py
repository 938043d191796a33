"""T-components and bottom configurations (paper, Section 6).

The *T-component* of a configuration ``rho`` is the set of configurations
``beta`` with ``rho -->* beta -->* rho`` (its mutual-reachability class).  A
configuration is *T-bottom* when its forward closure is finite and every
configuration in it can come back; its component is then the whole closure.
Both are answered by one forward and one backward breadth-first search
(:func:`~repro.core.petrinet.breadth_first`), with no strongly connected
component decomposition of the reachability graph.

Theorem 6.1 states that from any configuration one can reach, with short
words, a configuration ``alpha`` and then a configuration ``beta`` that agree
on a set ``Q`` of places, strictly grow outside ``Q``, and such that
``alpha|_Q`` is ``T|_Q``-bottom with a small component.  This is the
springboard of the Section 8 pumping argument.

This module provides:

* :func:`component_of` — the component, from the forward closure and a
  backward search from ``rho`` kept inside it,
* :func:`bottom_component` — the bottom test, which returns the component
  when ``rho`` is bottom and ``None`` otherwise.  Its forward search stops
  at the first configuration strictly above ``rho`` (``rho`` then pumps, so
  it is not bottom whatever the budget); otherwise a closure larger than the
  budget raises :class:`~repro.core.petrinet.ExplorationLimitError`, as
  :func:`component_of` does.  The early stop only catches a closure that
  pumps from ``rho`` itself: from ``a`` with ``a -> b`` and ``b -> b + c``
  the budget is still spent,
* :class:`BottomWitness` and :func:`find_bottom_witness` — a constructive
  search for the tuple ``(sigma, w, Q, alpha, beta)`` of Theorem 6.1 on
  laptop-scale instances (exhaustive over subsets ``Q``, bounded BFS
  elsewhere),
* :func:`theorem_6_1_bound` — the explicit bound ``b`` of the theorem, so that
  benchmark E6 can compare the measured witness sizes against it.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.configuration import Configuration, State
from ..core.petrinet import ExplorationLimitError, PetriNet, breadth_first, check_budget, word_to
from ..core.transition import Transition

__all__ = [
    "component_of",
    "bottom_component",
    "BottomWitness",
    "find_bottom_witness",
    "theorem_6_1_bound",
    "theorem_6_1_bound_log2",
    "lemma_6_2_word_bound",
]


def component_of(
    net: PetriNet, configuration: Configuration, max_nodes: Optional[int] = None
) -> Set[Configuration]:
    """The T-component of ``configuration``: all ``beta`` with ``rho -->* beta -->* rho``.

    Computed by forward exploration (:meth:`PetriNet.reachable_set`) followed
    by a backward search from ``rho`` that keeps to the forward closure.  For
    nets whose forward closure is infinite a ``max_nodes`` budget must be
    supplied; a closure of more than ``max_nodes`` configurations raises
    :class:`~repro.core.petrinet.ExplorationLimitError`.
    """
    closure = net.reachable_set([configuration], max_nodes=max_nodes)
    return _returning(net, configuration, closure)


def bottom_component(
    net: PetriNet, configuration: Configuration, max_nodes: Optional[int] = None
) -> Optional[Set[Configuration]]:
    """The T-component of ``configuration`` if it is T-bottom, else ``None``.

    A configuration strictly above ``rho`` in the forward search means that
    ``rho`` pumps (by monotonicity its closure is infinite), so the answer is
    ``None`` whatever the budget.  Otherwise a closure of more than
    ``max_nodes`` configurations raises
    :class:`~repro.core.petrinet.ExplorationLimitError`, so the caller can
    tell a spent budget from a "not bottom".
    """
    _, closure, above = breadth_first(
        [configuration], net.successors, configuration.__lt__, max_nodes
    )
    if above is not None:
        return None
    check_budget(closure, 1, max_nodes)
    component = _returning(net, configuration, set(closure))
    return component if len(component) == len(closure) else None


def _returning(
    net: PetriNet, configuration: Configuration, closure: Set[Configuration]
) -> Set[Configuration]:
    """The members of ``configuration``'s forward ``closure`` that reach it back.

    A backward search from ``configuration`` over the reversed net, kept to
    ``closure``: every configuration the closure's members reach is in the
    closure, so no return path leaves it.
    """
    reverse = net.reverse()

    def predecessors(node: Configuration) -> List[Tuple[Transition, Configuration]]:
        return [step for step in reverse.successors(node) if step[1] in closure]

    _, returning, _ = breadth_first([configuration], predecessors)
    return set(returning)


class BottomWitness:
    """The tuple produced by Theorem 6.1.

    Attributes
    ----------
    sigma:
        The word reaching ``alpha`` from the initial configuration.
    pump:
        The word ``w`` leading from ``alpha`` to ``beta``.
    places:
        The set ``Q``.
    alpha, beta:
        The two configurations; they agree on ``Q`` and ``beta`` is strictly
        larger outside ``Q``.
    component:
        The ``T|_Q``-component of ``alpha|_Q``.
    """

    def __init__(
        self,
        sigma: Sequence[Transition],
        pump: Sequence[Transition],
        places: FrozenSet[State],
        alpha: Configuration,
        beta: Configuration,
        component: Set[Configuration],
    ):
        self.sigma = list(sigma)
        self.pump = list(pump)
        self.places = places
        self.alpha = alpha
        self.beta = beta
        self.component = component

    @property
    def component_size(self) -> int:
        """The cardinal of the ``T|_Q``-component of ``alpha|_Q``."""
        return len(self.component)

    def check(self, net: PetriNet, origin: Configuration) -> bool:
        """Re-verify every clause of Theorem 6.1 on this witness (used by tests)."""
        try:
            alpha = net.fire_word(origin, self.sigma)
            beta = net.fire_word(alpha, self.pump)
        except ValueError:
            return False
        if alpha != self.alpha or beta != self.beta:
            return False
        if not alpha.agrees_on(beta, self.places):
            return False
        outside = set(net.states) - set(self.places)
        if not all(alpha[state] < beta[state] for state in outside):
            return False
        restricted = net.restrict(self.places)
        component = bottom_component(restricted, alpha.restrict(self.places), max_nodes=100000)
        return component == self.component

    def __repr__(self) -> str:
        return (
            f"BottomWitness(|sigma|={len(self.sigma)}, |w|={len(self.pump)}, "
            f"Q={sorted(map(str, self.places))}, component={self.component_size})"
        )


def find_bottom_witness(
    net: PetriNet,
    origin: Configuration,
    max_nodes: int = 20000,
    max_component_nodes: int = 5000,
) -> Optional[BottomWitness]:
    """Search for a Theorem 6.1 witness ``(sigma, w, Q, alpha, beta)``.

    The theorem guarantees existence with sizes bounded by the (astronomical)
    constant ``b``; this function performs the search on laptop-scale
    instances instead of following the proof's worst-case iteration:

    1. explore the reachability graph from ``origin`` breadth-first (bounded
       by ``max_nodes``),
    2. for every reachable ``alpha`` (in BFS order, so ``sigma`` is short) and
       every subset ``Q`` of places (largest first, so the pump condition is
       as weak as possible), test that ``alpha|_Q`` is ``T|_Q``-bottom with
       :func:`bottom_component` (one call per pair, budget
       ``max_component_nodes``; a spent budget counts as "not bottom") and
       search a pump word ``w`` to a ``beta`` agreeing on ``Q`` and strictly
       larger outside.

    Returns ``None`` when the budget is exhausted without a witness (which,
    by the theorem, means the budget was too small — not that no witness
    exists).
    """
    parents, order, _ = breadth_first([origin], net.successors, max_nodes=max_nodes)
    states = sorted(net.states, key=str)
    restrictions = [
        (places, net.restrict(places))
        for size in range(len(states), -1, -1)
        for places in map(frozenset, itertools.combinations(states, size))
    ]

    # The first ``max_nodes`` discovered configurations (the search stops one
    # past the budget), and always the origin.
    for alpha in order[: max(max_nodes, 1)]:
        sigma = word_to(parents, alpha)
        for places, restricted in restrictions:
            try:
                component = bottom_component(
                    restricted, alpha.restrict(places), max_nodes=max_component_nodes
                )
            except ExplorationLimitError:
                continue
            if component is None:
                continue
            pump = _find_pump(net, alpha, places, max_nodes=max_nodes)
            if pump is None:
                continue
            beta = net.fire_word(alpha, pump)
            return BottomWitness(sigma, pump, places, alpha, beta, component)
    return None


def _find_pump(
    net: PetriNet,
    alpha: Configuration,
    places: FrozenSet[State],
    max_nodes: int,
) -> Optional[List[Transition]]:
    """A word from ``alpha`` to some ``beta`` equal on ``places`` and strictly larger outside."""
    outside = set(net.states) - set(places)
    if not outside:
        return []

    def is_target(candidate: Configuration) -> bool:
        if not candidate.agrees_on(alpha, places):
            return False
        return all(candidate[state] > alpha[state] for state in outside)

    parents, _, beta = breadth_first([alpha], net.successors, is_target, max_nodes)
    return None if beta is None else word_to(parents, beta)


# ----------------------------------------------------------------------
# The explicit bounds of Section 6
# ----------------------------------------------------------------------
def theorem_6_1_bound(net: PetriNet, configuration: Configuration) -> int:
    """The constant ``b`` of Theorem 6.1 (exact value).

    ``b = (4 + 4 ||T||_inf + 2 ||rho||_inf)^{d^d (1 + (2 + d^d)^{d+1})}`` with
    ``d = |P|``.  The theorem guarantees a witness whose word lengths,
    component size and (scaled) configuration norms are all at most ``b``.

    .. warning::
       The exact value is astronomically large: already for ``d = 5`` it has
       on the order of ``10^24`` digits and cannot be materialized.  Use
       :func:`theorem_6_1_bound_log2` for anything beyond ``d = 3``.
    """
    d = net.num_states
    if d == 0:
        return 1
    base = 4 + 4 * net.max_value + 2 * configuration.max_value
    exponent = (d ** d) * (1 + (2 + d ** d) ** (d + 1))
    return base ** exponent


def theorem_6_1_bound_log2(net: PetriNet, configuration: Configuration) -> float:
    """``log2`` of the Theorem 6.1 constant ``b`` (usable for every ``d``)."""
    import math

    d = net.num_states
    if d == 0:
        return 0.0
    base = 4 + 4 * net.max_value + 2 * configuration.max_value
    exponent = (d ** d) * (1 + (2 + d ** d) ** (d + 1))
    return exponent * math.log2(base)


def lemma_6_2_word_bound(
    net: PetriNet,
    configuration: Configuration,
    component_size: int,
    remaining_places: int,
) -> int:
    """The Lemma 6.2 bound on ``|sigma|``: ``(1 + d (1 + s ||T||_inf + ||rho||_inf)^{d^d}) s``.

    ``s`` is the cardinal of the current ``T|_Q``-component and ``d`` the
    number of places outside ``Q``.
    """
    d = remaining_places
    s = component_size
    if d == 0:
        return s
    inner = 1 + s * net.max_value + configuration.max_value
    return (1 + d * inner ** (d ** d)) * s
