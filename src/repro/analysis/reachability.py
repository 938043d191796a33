"""Explicit-state reachability utilities.

Enumeration of configurations of bounded size, and shortest distances over
the explicit :class:`~repro.core.petrinet.ReachabilityGraph` produced by
forward exploration (finite for conservative nets and for explorations
truncated by a node budget).  There are no strongly connected component
helpers: T-components and the bottom test of Section 6 are a forward and a
backward :func:`~repro.core.petrinet.breadth_first` search
(:mod:`repro.analysis.components`).
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence

from ..core.configuration import Configuration, State
from ..core.petrinet import ReachabilityGraph, breadth_first

__all__ = [
    "enumerate_configurations",
    "enumerate_configurations_up_to",
    "shortest_distances",
]


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
