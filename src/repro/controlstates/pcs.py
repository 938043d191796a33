"""Petri nets with control-states (paper, Section 7).

A *P-Petri net with control-states* is a triple ``(S, T, E)`` where ``S`` is a
non-empty finite set of control-states, ``T`` is a ``P``-Petri net, and
``E subseteq S x T x S`` is a set of edges.  A path is a word of edges whose
control-states chain up; a cycle is a path from a control-state to itself.

In the lower-bound proof the control-states are the configurations of the
``T|_Q``-component of a bottom configuration (Section 8), and the edges are
the transitions connecting them; this module keeps the structure generic.

The module also provides strong-connectivity checks (Tarjan) and the
construction used in Section 8 that builds ``(S, T, E)`` from a Petri net and
a finite component of mutually-reachable configurations.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..analysis.reachability import tarjan_components
from ..core.configuration import Configuration, State
from ..core.petrinet import PetriNet
from ..core.transition import Transition

ControlState = Hashable

__all__ = ["Edge", "ControlStatePetriNet", "component_control_net"]


class Edge:
    """An edge ``(s, t, s')`` of a Petri net with control-states."""

    __slots__ = ("source", "transition", "target", "_hash")

    def __init__(self, source: ControlState, transition: Transition, target: ControlState):
        self.source = source
        self.transition = transition
        self.target = target
        self._hash: Optional[int] = None

    def displacement(self) -> Dict[State, int]:
        """``Delta(e) = Delta(t)``: the displacement of the underlying transition."""
        return self.transition.displacement()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return (
            self.source == other.source
            and self.transition == other.transition
            and self.target == other.target
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.source, self.transition, self.target))
        return self._hash

    def __repr__(self) -> str:
        label = self.transition.name or f"{self.transition.pre.pretty()}->{self.transition.post.pretty()}"
        return f"Edge({self.source!r} --[{label}]--> {self.target!r})"


class ControlStatePetriNet:
    """A Petri net with control-states ``(S, T, E)``.

    Parameters
    ----------
    control_states:
        The non-empty finite set ``S``.
    net:
        The underlying Petri net ``T``.
    edges:
        The edges ``E subseteq S x T x S``; every edge's transition must
        belong to ``T`` and its endpoints to ``S``.
    """

    def __init__(
        self,
        control_states: Iterable[ControlState],
        net: PetriNet,
        edges: Iterable[Edge],
    ):
        self.control_states: FrozenSet[ControlState] = frozenset(control_states)
        if not self.control_states:
            raise ValueError("a Petri net with control-states needs at least one control-state")
        self.net = net
        transition_set = set(net.transitions)
        edge_list: List[Edge] = []
        seen: Set[Edge] = set()
        for edge in edges:
            if edge.source not in self.control_states or edge.target not in self.control_states:
                raise ValueError(f"edge endpoints not in S: {edge!r}")
            if edge.transition not in transition_set:
                raise ValueError(f"edge transition not in T: {edge!r}")
            if edge not in seen:
                seen.add(edge)
                edge_list.append(edge)
        self.edges: Tuple[Edge, ...] = tuple(edge_list)
        self._outgoing: Dict[ControlState, List[Edge]] = {s: [] for s in self.control_states}
        for edge in self.edges:
            self._outgoing[edge.source].append(edge)

    # ------------------------------------------------------------------
    # Measures used by the bounds
    # ------------------------------------------------------------------
    @property
    def num_control_states(self) -> int:
        """``|S|``."""
        return len(self.control_states)

    @property
    def num_edges(self) -> int:
        """``|E|``."""
        return len(self.edges)

    def outgoing(self, control_state: ControlState) -> Sequence[Edge]:
        """The edges leaving a control-state."""
        return self._outgoing.get(control_state, ())

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __repr__(self) -> str:
        return (
            f"ControlStatePetriNet(|S|={self.num_control_states}, "
            f"|T|={self.net.num_transitions}, |E|={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # Paths and connectivity
    # ------------------------------------------------------------------
    def is_path(self, edges: Sequence[Edge]) -> bool:
        """True if consecutive edges chain up (``target`` of one is ``source`` of the next)."""
        for previous, current in zip(edges, edges[1:]):
            if previous.target != current.source:
                return False
        return all(edge in set(self.edges) for edge in edges)

    def find_path(
        self, source: ControlState, target: ControlState
    ) -> Optional[List[Edge]]:
        """A shortest path of edges from ``source`` to ``target`` (None if none)."""
        if source == target:
            return []
        parents: Dict[ControlState, Tuple[ControlState, Edge]] = {}
        visited = {source}
        frontier = [source]
        while frontier:
            next_frontier = []
            for current in frontier:
                for edge in self.outgoing(current):
                    if edge.target in visited:
                        continue
                    visited.add(edge.target)
                    parents[edge.target] = (current, edge)
                    if edge.target == target:
                        return self._rebuild(parents, source, target)
                    next_frontier.append(edge.target)
            frontier = next_frontier
        return None

    def _rebuild(
        self,
        parents: Dict[ControlState, Tuple[ControlState, Edge]],
        source: ControlState,
        target: ControlState,
    ) -> List[Edge]:
        path: List[Edge] = []
        current = target
        while current != source:
            previous, edge = parents[current]
            path.append(edge)
            current = previous
        path.reverse()
        return path

    def is_strongly_connected(self) -> bool:
        """True if every control-state reaches every other through edges.

        Control-states with no incident edges make the net non-strongly
        connected unless ``|S| = 1``.
        """
        states = list(self.control_states)
        if len(states) <= 1:
            return True
        root = states[0]
        if len(self._reachable_from(root)) != len(states):
            return False
        reverse_adjacency: Dict[ControlState, List[ControlState]] = {s: [] for s in states}
        for edge in self.edges:
            reverse_adjacency[edge.target].append(edge.source)
        reached = {root}
        frontier = [root]
        while frontier:
            current = frontier.pop()
            for predecessor in reverse_adjacency[current]:
                if predecessor not in reached:
                    reached.add(predecessor)
                    frontier.append(predecessor)
        return len(reached) == len(states)

    def _reachable_from(self, root: ControlState) -> Set[ControlState]:
        reached = {root}
        frontier = [root]
        while frontier:
            current = frontier.pop()
            for edge in self.outgoing(current):
                if edge.target not in reached:
                    reached.add(edge.target)
                    frontier.append(edge.target)
        return reached

    def strongly_connected_components(self) -> List[Set[ControlState]]:
        """Tarjan's algorithm: the strongly connected components of ``(S, E)``."""
        return tarjan_components(
            self.control_states, lambda state: (edge.target for edge in self.outgoing(state))
        )


def component_control_net(
    net: PetriNet,
    component: Iterable[Configuration],
    restriction: Optional[Iterable[State]] = None,
) -> ControlStatePetriNet:
    """Build the control-state net of Section 8 from a component of configurations.

    ``S`` is the given set of configurations (typically the ``T|_Q``-component
    of a bottom configuration), ``T`` is the given Petri net, and
    ``E = {(s, t, s') : s --t|_Q--> s'}`` where ``Q`` is ``restriction`` (the
    whole universe when omitted).
    """
    component_set = set(component)
    if restriction is None:
        restricted_net = net
        restrict_states: Optional[Set[State]] = None
    else:
        restrict_states = set(restriction)
        restricted_net = net
    edges: List[Edge] = []
    # Canonical source order: iterating the raw set would make the edge list
    # (and anything downstream that enumerates it) depend on hash order.
    for source in sorted(component_set, key=str):
        for transition in net.transitions:
            effective = (
                transition if restrict_states is None else transition.restrict(restrict_states)
            )
            target = effective.fire_if_enabled(source)
            if target is not None and target in component_set:
                edges.append(Edge(source, transition, target))
    return ControlStatePetriNet(component_set, restricted_net, edges)
