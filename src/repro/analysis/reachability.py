"""Explicit-state reachability utilities.

Helper routines shared by the stability, component and verification analyses:
enumeration of configurations of bounded size, strongly connected components
of reachability graphs, and shortest-distance computations.  Everything here
operates on the explicit :class:`~repro.core.petrinet.ReachabilityGraph`
produced by forward exploration — which is finite for conservative nets and
for explorations truncated by a node budget.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from ..core.configuration import Configuration, State
from ..core.petrinet import ReachabilityGraph, breadth_first

__all__ = [
    "enumerate_configurations",
    "enumerate_configurations_up_to",
    "shortest_distances",
    "strongly_connected_components",
    "tarjan_components",
    "condensation_is_bottom",
]

Node = TypeVar("Node", bound=Hashable)


def enumerate_configurations(states: Sequence[State], total: int) -> Iterator[Configuration]:
    """Enumerate every configuration over ``states`` with exactly ``total`` agents."""
    states = list(states)
    if not states:
        if total == 0:
            yield Configuration.zero()
        return

    def recurse(index: int, remaining: int, current: Dict[State, int]) -> Iterator[Configuration]:
        if index == len(states) - 1:
            if remaining:
                current[states[index]] = remaining
            yield Configuration(current)
            current.pop(states[index], None)
            return
        for count in range(remaining + 1):
            if count:
                current[states[index]] = count
            yield from recurse(index + 1, remaining - count, current)
            current.pop(states[index], None)

    yield from recurse(0, total, {})


def enumerate_configurations_up_to(
    states: Sequence[State], max_total: int
) -> Iterator[Configuration]:
    """Enumerate every configuration over ``states`` with at most ``max_total`` agents."""
    for total in range(max_total + 1):
        yield from enumerate_configurations(states, total)


def shortest_distances(
    graph: ReachabilityGraph, root: Configuration
) -> Dict[Configuration, int]:
    """BFS distances (in transition firings) from ``root`` within the graph."""
    if root not in graph.nodes:
        return {}
    parents, order, _ = breadth_first([root], graph.successors)
    distances: Dict[Configuration, int] = {}
    for node in order:
        step = parents[node]
        distances[node] = 0 if step is None else distances[step[0]] + 1
    return distances


def tarjan_components(
    nodes: Iterable[Node], successors: Callable[[Node], Iterable[Node]]
) -> List[Set[Node]]:
    """Tarjan's algorithm over ``nodes`` and a successor function, iterative
    so deep graphs do not hit the recursion limit.

    Roots are taken in the order of ``nodes`` and successors in the order
    ``successors`` yields them.  The returned components are in reverse
    topological order of the condensation (every edge of the condensation
    goes from a later component to an earlier one in the list), which is the
    order Tarjan naturally emits.
    """
    counter = 0
    stack: List[Node] = []
    lowlink: Dict[Node, int] = {}
    index: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    components: List[Set[Node]] = []

    def visit(node: Node) -> None:
        nonlocal counter
        index[node] = lowlink[node] = counter
        counter += 1
        stack.append(node)
        on_stack.add(node)

    for root in nodes:
        if root in index:
            continue
        visit(root)
        work: List[Tuple[Node, Iterator[Node]]] = [(root, iter(successors(root)))]
        while work:
            current, successor_iterator = work[-1]
            advanced = False
            for successor in successor_iterator:
                if successor not in index:
                    visit(successor)
                    work.append((successor, iter(successors(successor))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[current] = min(lowlink[current], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])
            if lowlink[current] == index[current]:
                component: Set[Node] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == current:
                        break
                components.append(component)
    return components


def strongly_connected_components(
    graph: ReachabilityGraph,
) -> List[Set[Configuration]]:
    """Tarjan's algorithm on a reachability graph (:func:`tarjan_components`
    over its nodes and edge targets, in the same order)."""
    return tarjan_components(
        graph.nodes, lambda node: (target for _, target in graph.successors(node))
    )


def condensation_is_bottom(
    graph: ReachabilityGraph, component: Set[Configuration]
) -> bool:
    """True if the strongly connected ``component`` has no edge leaving it.

    A configuration is *T-bottom* (paper, Section 6) exactly when its
    T-component is finite and is a bottom component of the condensation of the
    reachability graph — i.e. every reachable configuration can come back.
    """
    for node in component:
        for _, target in graph.successors(node):
            if target not in component:
                return False
    return True
