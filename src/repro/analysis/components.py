"""T-components and bottom configurations (paper, Section 6).

The *T-component* of a configuration ``rho`` is the set of configurations
``beta`` with ``rho -->* beta -->* rho`` (its mutual-reachability class).  A
configuration is *T-bottom* when its component is finite and every reachable
configuration can come back — i.e. its component is a terminal strongly
connected component of the reachability graph.

Theorem 6.1 states that from any configuration one can reach, with short
words, a configuration ``alpha`` and then a configuration ``beta`` that agree
on a set ``Q`` of places, strictly grow outside ``Q``, and such that
``alpha|_Q`` is ``T|_Q``-bottom with a small component.  This is the
springboard of the Section 8 pumping argument.

This module provides:

* :func:`component_of` / :func:`is_bottom` — exact component computation and
  bottom test by bounded exploration,
* :class:`BottomWitness` and :func:`find_bottom_witness` — a constructive
  search for the tuple ``(sigma, w, Q, alpha, beta)`` of Theorem 6.1 on
  laptop-scale instances (exhaustive over subsets ``Q``, bounded BFS
  elsewhere),
* :func:`theorem_6_1_bound` — the explicit bound ``b`` of the theorem, so that
  benchmark E6 can compare the measured witness sizes against it.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, List, Optional, Sequence, Set

from ..core.configuration import Configuration, State
from ..core.petrinet import ExplorationLimitError, PetriNet, breadth_first, word_to
from ..core.transition import Transition
from .reachability import condensation_is_bottom, strongly_connected_components

__all__ = [
    "component_of",
    "is_bottom",
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

    Computed by forward exploration followed by a membership filter (``beta``
    must reach ``rho`` back).  For nets whose forward closure is infinite a
    ``max_nodes`` budget must be supplied; exceeding it raises
    :class:`~repro.core.petrinet.ExplorationLimitError`.
    """
    graph = net.reachability_graph([configuration], max_nodes=max_nodes)
    components = strongly_connected_components(graph)
    for component in components:
        if configuration in component:
            return component
    return {configuration}


def is_bottom(
    net: PetriNet, configuration: Configuration, max_nodes: Optional[int] = None
) -> bool:
    """True if ``configuration`` is T-bottom.

    The component must be finite and every reachable configuration must be
    able to return — equivalently, the forward closure equals the component.
    With a ``max_nodes`` budget, a ``False`` answer may be caused by budget
    exhaustion (an :class:`ExplorationLimitError` is raised in that case so
    the caller can tell the difference).
    """
    graph = net.reachability_graph([configuration], max_nodes=max_nodes)
    for component in strongly_connected_components(graph):
        if configuration in component:
            return len(component) == len(graph.nodes) and condensation_is_bottom(
                graph, component
            )
    return False


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
        return is_bottom(restricted, alpha.restrict(self.places), max_nodes=100000)

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
       as weak as possible), test that ``alpha|_Q`` is ``T|_Q``-bottom with a
       finite component and search a pump word ``w`` to a ``beta`` agreeing on
       ``Q`` and strictly larger outside.

    Returns ``None`` when the budget is exhausted without a witness (which,
    by the theorem, means the budget was too small — not that no witness
    exists).
    """
    parents, order, _ = breadth_first([origin], net.successors, max_nodes=max_nodes)
    states = sorted(net.states, key=str)

    subsets: List[FrozenSet[State]] = []
    for size in range(len(states), -1, -1):
        for combination in itertools.combinations(states, size):
            subsets.append(frozenset(combination))

    # The first ``max_nodes`` discovered configurations (the search stops one
    # past the budget), and always the origin.
    for alpha in order[: max(max_nodes, 1)]:
        sigma = word_to(parents, alpha)
        for places in subsets:
            restricted = net.restrict(places)
            alpha_q = alpha.restrict(places)
            try:
                if not is_bottom(restricted, alpha_q, max_nodes=max_component_nodes):
                    continue
                component = component_of(restricted, alpha_q, max_nodes=max_component_nodes)
            except ExplorationLimitError:
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
