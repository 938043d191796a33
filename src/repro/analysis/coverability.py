"""Coverability of Petri nets: Rackoff's bound, backward coverability, Karp–Miller.

Lemma 5.3 of the paper is Rackoff's 1978 theorem: if a configuration ``rho``
is ``T``-coverable from ``alpha``, then it is coverable by a word of length at
most ``(||rho||_inf + ||T||_inf)^{|P|^|P|}``.  The stabilization analysis of
Section 5 only uses the *bound*; this module additionally implements two
classical decision procedures so that the bound can be compared against actual
shortest covering words (benchmark E4):

* :func:`coverability_basis` — the Abdulla-style backward fixpoint on
  upward-closed sets: the finite minimal basis of the configurations from
  which a target is coverable.  It depends only on ``(net, target)``, so it
  is computed once and cached on the net instance;
  :func:`backward_coverability` (alias :func:`is_coverable`) is then a
  membership test, ``some basis element <= source``,
* :func:`shortest_covering_word` — explicit forward BFS returning a shortest
  witness (exponential, used on small instances only),
* :class:`KarpMillerTree` — the classical coverability tree with
  omega-acceleration, deciding coverability and boundedness.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.configuration import Configuration, State
from ..core.petrinet import PetriNet
from ..core.transition import Transition

__all__ = [
    "rackoff_bound",
    "rackoff_stabilization_threshold",
    "coverability_basis",
    "is_coverable",
    "backward_coverability",
    "shortest_covering_word",
    "KarpMillerTree",
    "OMEGA",
]

#: Symbolic "unbounded" marking value used by the Karp–Miller construction.
OMEGA = float("inf")


# ----------------------------------------------------------------------
# Rackoff's bound (Lemma 5.3)
# ----------------------------------------------------------------------
def rackoff_bound(target: Configuration, net: PetriNet, num_states: Optional[int] = None) -> int:
    """The Rackoff bound of Lemma 5.3 on the length of a covering word.

    ``(||target||_inf + ||T||_inf)^{|P|^|P|}`` — doubly exponential in the
    number of places.  Python integers are unbounded so the exact value is
    returned; callers interested only in comparisons should beware that it is
    astronomically large beyond a handful of places.
    """
    d = num_states if num_states is not None else net.num_states
    base = target.max_value + net.max_value
    if base <= 0:
        return 0
    return base ** (d ** d)


def rackoff_stabilization_threshold(net: PetriNet, num_states: Optional[int] = None) -> int:
    """The threshold ``h >= ||T||_inf (1 + ||T||_inf)^{|P|^|P|}`` of Lemma 5.4."""
    d = num_states if num_states is not None else net.num_states
    norm = net.max_value
    return norm * (1 + norm) ** (d ** d)


# ----------------------------------------------------------------------
# Backward coverability (exact decision procedure)
# ----------------------------------------------------------------------
def _minimal_elements(configurations: Iterable[Configuration]) -> List[Configuration]:
    """The minimal elements of a set of configurations w.r.t. the componentwise order."""
    minimal: List[Configuration] = []
    for candidate in sorted(configurations, key=lambda c: (c.size, c.max_value)):
        if not any(existing <= candidate for existing in minimal):
            minimal.append(candidate)
    return minimal


def _predecessor_basis(target: Configuration, transition: Transition) -> Configuration:
    """The minimal configuration from which firing ``transition`` covers ``target``.

    Firing ``t = (pre, post)`` from ``x`` yields ``x - pre + post >= target``
    iff ``x >= pre + (target - post)_+`` componentwise; the right-hand side is
    the returned basis element.
    """
    needed = target.saturating_sub(transition.post)
    return transition.pre + needed


def _backward_fixpoint(
    net: PetriNet, target: Configuration, max_iterations: Optional[int]
) -> Tuple[Configuration, ...]:
    """The minimal basis of the configurations from which ``target`` is coverable.

    Start from the upward closure of ``target`` and repeatedly add minimal
    predecessors until stabilization (guaranteed by Dickson's lemma).  Each
    round expands only the elements the previous round added: the
    predecessor map is monotone and upward closures only grow, so the
    predecessors of older elements are already covered.
    """
    basis: List[Configuration] = [target]
    frontier: List[Configuration] = [target]
    iterations = 0
    while True:
        iterations += 1
        if max_iterations is not None and iterations > max_iterations:
            raise RuntimeError(f"backward coverability exceeded {max_iterations} iterations")
        new_elements: List[Configuration] = []
        for element in frontier:
            for transition in net.transitions:
                predecessor = _predecessor_basis(element, transition)
                if not any(existing <= predecessor for existing in basis):
                    if not any(existing <= predecessor for existing in new_elements):
                        new_elements.append(predecessor)
        if not new_elements:
            return tuple(basis)
        basis = _minimal_elements(basis + new_elements)
        frontier = [element for element in new_elements if element in basis]


def coverability_basis(
    net: PetriNet, target: Configuration, max_iterations: Optional[int] = None
) -> Tuple[Configuration, ...]:
    """The minimal basis of the configurations from which ``target`` is coverable.

    That set is upward closed, so ``source`` can cover ``target`` iff some
    element of the returned basis is ``<= source``.  The basis depends only
    on ``(net, target)``: it is computed once and cached on the net instance
    (dropped when the net is pickled).  ``max_iterations`` bounds the
    fixpoint rounds of a cold computation and raises :class:`RuntimeError`
    when exceeded; a partial basis is never cached.
    """
    basis = net._basis_cache.get(target)
    if basis is None:
        basis = _backward_fixpoint(net, target, max_iterations)
        net._basis_cache[target] = basis
    return basis


def backward_coverability(
    net: PetriNet,
    source: Configuration,
    target: Configuration,
    max_iterations: Optional[int] = None,
) -> bool:
    """Decide whether ``target`` is coverable from ``source`` (exact, always terminates).

    A membership test of ``source`` in the upward closure of
    :func:`coverability_basis` (see there for ``max_iterations``).
    """
    return any(
        element <= source for element in coverability_basis(net, target, max_iterations)
    )


def is_coverable(net: PetriNet, source: Configuration, target: Configuration) -> bool:
    """Convenience alias for :func:`backward_coverability`."""
    return backward_coverability(net, source, target)


def shortest_covering_word(
    net: PetriNet,
    source: Configuration,
    target: Configuration,
    max_nodes: Optional[int] = None,
) -> Optional[List[Transition]]:
    """A shortest word ``sigma`` with ``source --sigma--> beta >= target``.

    Explicit forward BFS — exact but exponential; meant for the small
    instances of benchmark E4 where the result is compared against
    :func:`rackoff_bound`.  Returns ``None`` when no covering word is found
    within the optional node budget (for unbounded nets a budget should be
    supplied unless coverability was established beforehand).
    """
    return net.find_covering_path(source, target, max_nodes=max_nodes)


# ----------------------------------------------------------------------
# Karp–Miller coverability tree
# ----------------------------------------------------------------------
class _OmegaConfiguration:
    """A marking with possibly-omega entries (internal to the Karp–Miller tree)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Dict[State, float]):
        self.entries = {state: value for state, value in entries.items() if value != 0}

    @staticmethod
    def from_configuration(configuration: Configuration) -> "_OmegaConfiguration":
        return _OmegaConfiguration({state: count for state, count in configuration.items()})

    def __getitem__(self, state: State) -> float:
        return self.entries.get(state, 0)

    def covers(self, configuration: Configuration) -> bool:
        return all(self[state] >= count for state, count in configuration.items())

    def dominates(self, other: "_OmegaConfiguration") -> bool:
        keys = set(self.entries) | set(other.entries)
        return all(self[state] >= other[state] for state in keys)

    def fire(self, transition: Transition) -> Optional["_OmegaConfiguration"]:
        if not all(self[state] >= count for state, count in transition.pre.items()):
            return None
        entries = dict(self.entries)
        for state, count in transition.pre.items():
            value = entries.get(state, 0)
            entries[state] = value if value == OMEGA else value - count
        for state, count in transition.post.items():
            value = entries.get(state, 0)
            entries[state] = value if value == OMEGA else value + count
        return _OmegaConfiguration(entries)

    def accelerate(self, ancestor: "_OmegaConfiguration") -> "_OmegaConfiguration":
        """Replace by omega every entry strictly larger than in the ancestor."""
        entries = dict(self.entries)
        keys = set(entries) | set(ancestor.entries)
        # Order-insensitive: states absent from `entries` have count 0, never
        # exceed the ancestor, and are never written, so the loop only
        # overwrites existing keys and dict insertion order is unchanged.
        # qa: allow[DET201]
        for state in keys:
            if self[state] > ancestor[state]:
                entries[state] = OMEGA
        return _OmegaConfiguration(entries)

    def key(self) -> FrozenSet:
        return frozenset(self.entries.items())

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{state}: {'w' if value == OMEGA else int(value)}"
            for state, value in sorted(self.entries.items(), key=lambda item: str(item[0]))
        )
        return f"OmegaConfiguration({{{inner}}})"


class KarpMillerTree:
    """The Karp–Miller coverability tree of a Petri net from an initial configuration.

    Provides :meth:`covers` (coverability test) and :meth:`is_bounded`
    (boundedness of the reachability set).  The tree is built eagerly at
    construction time; the number of nodes can be large, so a ``max_nodes``
    budget is accepted.
    """

    def __init__(
        self, net: PetriNet, root: Configuration, max_nodes: Optional[int] = None
    ):
        self.net = net
        self.root = root
        self.nodes: List[_OmegaConfiguration] = []
        self._build(max_nodes)

    def _build(self, max_nodes: Optional[int]) -> None:
        root = _OmegaConfiguration.from_configuration(self.root)
        # Each work item carries its branch (ancestor chain) for acceleration.
        work: deque = deque([(root, [root])])
        seen: Set[FrozenSet] = set()
        while work:
            current, ancestors = work.popleft()
            key = current.key()
            if key in seen:
                continue
            seen.add(key)
            self.nodes.append(current)
            if max_nodes is not None and len(self.nodes) > max_nodes:
                raise RuntimeError(f"Karp-Miller tree exceeded {max_nodes} nodes")
            for transition in self.net.transitions:
                successor = current.fire(transition)
                if successor is None:
                    continue
                for ancestor in ancestors:
                    if successor.dominates(ancestor):
                        successor = successor.accelerate(ancestor)
                work.append((successor, ancestors + [successor]))

    def covers(self, target: Configuration) -> bool:
        """True if some reachable (generalized) marking covers ``target``."""
        return any(node.covers(target) for node in self.nodes)

    def is_bounded(self) -> bool:
        """True if the reachability set from the root is finite (no omega anywhere)."""
        return all(
            all(value != OMEGA for value in node.entries.values()) for node in self.nodes
        )

    def place_is_bounded(self, state: State) -> bool:
        """True if the count of ``state`` stays bounded along every execution."""
        return all(node[state] != OMEGA for node in self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)
