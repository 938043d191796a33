"""Stabilized configurations and their small-value characterization (Section 5).

A configuration ``rho`` is *(T, F)-stabilized* when every configuration
reachable from it populates only states of ``F``.  Lemma 5.1 identifies these
configurations with the 0-output-stable configurations of a protocol (taking
``F = gamma^{-1}({0})``).  Lemma 5.4 — the key tool of Section 5 — shows that
a stabilized configuration is characterized by its *small values*: if ``rho``
is stabilized and ``R`` is the set of states where ``rho`` is below the
Rackoff threshold ``h``, then **every** configuration ``alpha`` with
``alpha|_R <= rho|_R`` is stabilized too.

This module implements:

* :func:`unstabilized_basis` — the configurations that are *not* stabilized
  form an upward-closed set: the union, over the forbidden states ``p``, of
  the configurations from which the unit configuration ``p`` is coverable.
  Its minimal basis is the union of the cached per-state
  :func:`~repro.analysis.coverability.coverability_basis` results, reduced
  to its minimal elements and cached on the net per set of forbidden states,
* :func:`is_stabilized` — the exact test: a configuration is stabilized iff
  no element of that basis is below it, so after the first call per
  ``(net, F)`` it costs a few vector comparisons,
* :func:`violating_state` — a forbidden state reachable with positive count,
  with a witness word,
* :class:`StabilizationCertificate` — the Lemma 5.4 certificate (the
  restriction ``rho|_R``) and its ``implies_stabilized`` test,
* :func:`lift_restricted_word` — Lemma 5.2: lifting a run of ``T|_Q`` to a run
  of ``T`` when the states outside ``Q`` hold enough agents.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.configuration import Configuration, State
from ..core.petrinet import PetriNet
from ..core.transition import Transition
from .coverability import (
    _minimal_elements,
    backward_coverability,
    coverability_basis,
    rackoff_stabilization_threshold,
)

__all__ = [
    "unstabilized_basis",
    "is_stabilized",
    "violating_state",
    "StabilizationCertificate",
    "stabilization_certificate",
    "lift_restricted_word",
]


def unstabilized_basis(
    net: PetriNet, allowed_states: Iterable[State]
) -> Tuple[Configuration, ...]:
    """The minimal basis of the configurations that are not ``(T, F)``-stabilized.

    A configuration is not stabilized iff it can cover the unit
    configuration of some state of ``net`` outside ``allowed_states``, so the
    basis is the minimal elements of the union of the per-state
    :func:`~repro.analysis.coverability.coverability_basis` results.  It is
    cached on the net per set of forbidden states, and its order follows the
    ``str`` order of those states, never set iteration order.
    """
    forbidden = net.states - frozenset(allowed_states)
    basis = net._union_basis_cache.get(forbidden)
    if basis is None:
        union = [
            element
            for state in sorted(forbidden, key=str)
            for element in coverability_basis(net, Configuration.unit(state))
        ]
        basis = tuple(_minimal_elements(union))
        net._union_basis_cache[forbidden] = basis
    return basis


def is_stabilized(
    net: PetriNet,
    configuration: Configuration,
    allowed_states: Iterable[State],
) -> bool:
    """Decide whether ``configuration`` is ``(T, F)``-stabilized.

    ``configuration`` is stabilized iff for every state ``p`` outside
    ``allowed_states``, the unit configuration ``p`` is **not** coverable from
    it, i.e. iff no element of :func:`unstabilized_basis` is below it.
    Backward coverability makes this an exact, always-terminating test.
    """
    return not any(
        element <= configuration for element in unstabilized_basis(net, allowed_states)
    )


def violating_state(
    net: PetriNet,
    configuration: Configuration,
    allowed_states: Iterable[State],
    max_nodes: Optional[int] = None,
) -> Optional[Tuple[State, List[Transition]]]:
    """A forbidden state reachable with positive count, with a covering witness.

    Returns ``None`` when the configuration is stabilized; otherwise the
    first coverable forbidden state in ``str`` order.  The witness word
    is a shortest covering word found by forward search (so the instance
    should be small or conservative); its length can be compared against the
    Rackoff bound of Lemma 5.3.
    """
    for state in sorted(net.states - frozenset(allowed_states), key=str):
        target = Configuration.unit(state)
        if not backward_coverability(net, configuration, target):
            continue
        witness = net.find_covering_path(configuration, target, max_nodes=max_nodes)
        if witness is None:
            # Coverable but the forward search budget was too small; report
            # the state with an empty witness rather than hiding the violation.
            return state, []
        return state, witness
    return None


class StabilizationCertificate:
    """The Lemma 5.4 certificate attached to a stabilized configuration.

    Attributes
    ----------
    net, allowed_states:
        The Petri net ``T`` and the set ``F``.
    configuration:
        The stabilized configuration ``rho`` the certificate was built from.
    threshold:
        The value ``h`` used (must satisfy ``h >= ||T||_inf (1+||T||_inf)^{|P|^|P|}``).
    small_states:
        The set ``R = {p : rho(p) < h}``.

    The main operation is :meth:`implies_stabilized`: any configuration that
    is below ``rho`` on ``R`` is guaranteed stabilized — no exploration
    needed.  This is exactly how Section 8 transfers stability from ``mu`` to
    ``mu + eta``.
    """

    def __init__(
        self,
        net: PetriNet,
        configuration: Configuration,
        allowed_states: FrozenSet[State],
        threshold: int,
    ):
        self.net = net
        self.configuration = configuration
        self.allowed_states = allowed_states
        self.threshold = threshold
        self.small_states: FrozenSet[State] = frozenset(
            state for state in net.states if configuration[state] < threshold
        )

    def implies_stabilized(self, candidate: Configuration) -> bool:
        """True if Lemma 5.4 certifies that ``candidate`` is stabilized.

        The test is simply ``candidate|_R <= rho|_R``; states outside ``R``
        (where ``rho`` already holds at least ``h`` agents) are unconstrained.
        """
        return all(
            candidate[state] <= self.configuration[state] for state in self.small_states
        )

    def __repr__(self) -> str:
        # The Rackoff threshold is doubly exponential; print its bit length
        # rather than the (possibly enormous) value itself.
        return (
            f"StabilizationCertificate(threshold~2^{self.threshold.bit_length() - 1}, "
            f"small_states={sorted(map(str, self.small_states))})"
        )


def stabilization_certificate(
    net: PetriNet,
    configuration: Configuration,
    allowed_states: Iterable[State],
    threshold: Optional[int] = None,
    check: bool = True,
) -> StabilizationCertificate:
    """Build the Lemma 5.4 certificate for a stabilized configuration.

    Parameters
    ----------
    net, configuration, allowed_states:
        The Petri net ``T``, the configuration ``rho`` and the set ``F``.
    threshold:
        The value ``h``; defaults to the Rackoff threshold
        ``||T||_inf (1 + ||T||_inf)^{|P|^|P|}`` of Lemma 5.4.  Any larger value
        is also sound (it only enlarges ``R``... note: a *larger* ``h`` makes
        ``R`` larger hence the certificate weaker but still sound).
    check:
        When True (default), verify that ``configuration`` is indeed
        stabilized before issuing the certificate.

    Raises
    ------
    ValueError
        If ``check`` is True and the configuration is not stabilized, or if a
        threshold below the Rackoff threshold is supplied.
    """
    allowed = frozenset(allowed_states)
    minimum = rackoff_stabilization_threshold(net)
    if threshold is None:
        threshold = minimum
    elif threshold < minimum:
        raise ValueError(
            f"threshold {threshold} is below the Rackoff threshold {minimum}; "
            "Lemma 5.4 would not apply"
        )
    if check and not is_stabilized(net, configuration, allowed):
        raise ValueError("cannot certify a configuration that is not stabilized")
    return StabilizationCertificate(net, configuration, allowed, threshold)


def lift_restricted_word(
    net: PetriNet,
    configuration: Configuration,
    word: Sequence[Transition],
    restricted_states: Iterable[State],
) -> Configuration:
    """Lemma 5.2: lift a run of ``T|_Q`` to a run of ``T``.

    If ``configuration|_Q --word|_Q--> rho`` and ``configuration(p) >=
    |word| * ||T||_inf`` for every ``p`` outside ``Q``, then the *unrestricted*
    word is firable from ``configuration`` and the result ``beta`` satisfies
    ``beta|_Q = rho`` and ``beta(p) >= configuration(p) - |word| ||T||_inf``
    outside ``Q``.

    The function checks the hypothesis, fires the unrestricted word and
    returns the resulting configuration.

    Raises
    ------
    ValueError
        If the quantitative hypothesis of the lemma does not hold (in which
        case firing could fail) or if, despite the hypothesis, some step is
        not enabled (which would indicate a bug and is asserted against).
    """
    restricted = set(restricted_states)
    required = len(word) * net.max_value
    for state in net.states:
        if state in restricted:
            continue
        if configuration[state] < required:
            raise ValueError(
                f"Lemma 5.2 hypothesis fails: state {state!r} holds "
                f"{configuration[state]} < {required} agents"
            )
    current = configuration
    for transition in word:
        successor = transition.fire_if_enabled(current)
        if successor is None:
            raise ValueError(
                "Lemma 5.2 lifting failed: a transition of the word is not enabled; "
                "the restricted run does not match the word"
            )
        current = successor
    return current
