"""Output-stable configurations and stable computation (paper, Section 2).

For a protocol with output function ``gamma``, the paper defines the sets of
*output-stable* configurations:

* ``S_0`` — configurations from which every reachable configuration has
  ``gamma(beta) subseteq {0}`` (the zero configuration counts as output 0),
* ``S_1`` — configurations from which every reachable configuration has
  ``gamma(beta) == {1}`` (so in particular the zero configuration is never
  1-output stable).

A protocol *stably computes* a predicate ``phi`` if for every input ``rho`` and
every configuration ``alpha`` reachable from the initial configuration
``rho_L + rho|_P``, some configuration of ``S_{phi(rho)}`` is reachable from
``alpha``.

This module computes these notions **exactly** on finite reachability graphs
(conservative protocols, or bounded exploration for non-conservative ones):

* :class:`DenseReachabilityGraph` explores the graph from one root with
  configurations as tuples of ints over the net's compiled integer tables and
  propagates output stability on integer node ids.  It is the workhorse of
  :func:`is_output_stable`, :func:`stable_consensus_value` and the
  verification layer (:mod:`repro.analysis.verification`),
* :func:`output_stable_nodes` and :func:`always_eventually_stable` evaluate
  the same conditions on a sparse
  :class:`~repro.core.petrinet.ReachabilityGraph`; they stay as public API
  and as the oracle the dense explorer is tested against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .configuration import Configuration
from .petrinet import ExplorationLimitError, ReachabilityGraph, breadth_first
from .protocol import OUTPUT_ONE, OUTPUT_ZERO, Protocol
from .transition import Transition

__all__ = [
    "DenseReachabilityGraph",
    "is_output_stable",
    "output_stable_nodes",
    "always_eventually_stable",
    "stable_consensus_value",
]


class DenseReachabilityGraph:
    """The reachability graph of a protocol's net from one root, on integers.

    Configurations are tuples of counts in the state order of
    ``net.compiled(...)`` over the protocol's states, and transitions fire
    through that compiled net's ``pre_lists`` and ``delta_lists``.  Nodes are
    numbered in breadth-first discovery order (the root is node 0), the order
    of :meth:`~repro.core.petrinet.PetriNet.reachability_graph`, and
    ``successors[i]`` lists the ids that one enabled transition leads to from
    node ``i`` (``predecessors`` is the reverse).  The graph has the same
    nodes as the sparse one and raises
    :class:`~repro.core.petrinet.ExplorationLimitError` on exactly the same
    ``max_nodes`` budgets.

    Raises :class:`ValueError` for protocols that are not Petri-net based.
    """

    def __init__(
        self, protocol: Protocol, root: Configuration, max_nodes: Optional[int] = None
    ) -> None:
        from ..simulation.compiled import OUT_ONE, OUT_UNDEFINED, OUT_ZERO

        net = protocol.petri_net
        if net is None:
            raise ValueError("exact stability analysis requires a Petri-net based protocol")
        compiled = net.compiled(protocol.states | root.support)
        classes = compiled.output_classes(protocol.output_table)
        # State indices per output class; states outside the output table
        # never influence the consensus.
        self._ones = [i for i, kind in enumerate(classes) if kind == OUT_ONE]
        self._zeros = [i for i, kind in enumerate(classes) if kind == OUT_ZERO]
        self._undefined = [i for i, kind in enumerate(classes) if kind == OUT_UNDEFINED]

        start = tuple(compiled.counts_of(root))
        moves = list(zip(compiled.pre_lists, compiled.delta_lists))
        ids: Dict[Tuple[int, ...], int] = {start: 0}
        nodes: List[Tuple[int, ...]] = [start]
        successors: List[List[int]] = []
        # Iterating a list that grows while it is walked is a FIFO queue.
        for current in nodes:
            targets: List[int] = []
            for pre, delta in moves:
                for index, needed in pre:
                    if current[index] < needed:
                        break
                else:
                    counts = list(current)
                    for index, diff in delta:
                        counts[index] += diff
                    target = tuple(counts)
                    node = ids.get(target)
                    if node is None:
                        node = len(nodes)
                        if max_nodes is not None and node >= max_nodes:
                            raise ExplorationLimitError(
                                f"exploration exceeded {max_nodes} configurations"
                            )
                        ids[target] = node
                        nodes.append(target)
                    targets.append(node)
            successors.append(targets)
        predecessors: List[List[int]] = [[] for _ in nodes]
        for source, targets in enumerate(successors):
            for node in targets:
                predecessors[node].append(source)
        self.nodes: List[Tuple[int, ...]] = nodes
        self.successors: List[List[int]] = successors
        self.predecessors: List[List[int]] = predecessors

    def __len__(self) -> int:
        return len(self.nodes)

    def consensus(self, value: int) -> List[bool]:
        """Per node, whether it has consensus ``value``
        (:meth:`~repro.core.protocol.Protocol.has_consensus`)."""
        if value == OUTPUT_ONE:
            blocking, witnesses = self._zeros + self._undefined, self._ones
        elif value == OUTPUT_ZERO:
            blocking, witnesses = self._ones + self._undefined, None
        else:
            raise ValueError("consensus value must be 0 or 1")
        return [
            not any(map(node.__getitem__, blocking))
            and (witnesses is None or any(map(node.__getitem__, witnesses)))
            for node in self.nodes
        ]

    def _reaching(self, seeds: List[int]) -> List[bool]:
        """Per node, whether it can reach a node of ``seeds`` (seeds included)."""
        predecessors = self.predecessors
        reached = [False] * len(self.nodes)
        for seed in seeds:
            reached[seed] = True
        stack = list(seeds)
        while stack:
            for source in predecessors[stack.pop()]:
                if not reached[source]:
                    reached[source] = True
                    stack.append(source)
        return reached

    def always_eventually_stable(self, value: int) -> bool:
        """Whether every node can still reach a ``value``-output-stable node.

        A node is ``value``-output stable iff it cannot reach a node without
        consensus ``value``.  Every node is reachable from the root, so this
        is the stable-computation condition of :func:`always_eventually_stable`.
        """
        unstable = self._reaching([i for i, ok in enumerate(self.consensus(value)) if not ok])
        return all(self._reaching([i for i, bad in enumerate(unstable) if not bad]))

    def stable_value(self) -> Optional[int]:
        """The output stably computed from the root, or ``None`` (see
        :func:`stable_consensus_value`)."""
        for value in (OUTPUT_ONE, OUTPUT_ZERO):
            if self.always_eventually_stable(value):
                return value
        return None


def is_output_stable(
    protocol: Protocol,
    configuration: Configuration,
    value: int,
    max_nodes: Optional[int] = None,
) -> bool:
    """Decide whether ``configuration`` belongs to ``S_value``.

    The protocol's preorder must be a Petri-net reachability relation (the
    forward closure is explored explicitly).  For conservative protocols the
    exploration always terminates; otherwise pass ``max_nodes``.
    """
    return all(DenseReachabilityGraph(protocol, configuration, max_nodes).consensus(value))


def output_stable_nodes(
    graph: ReachabilityGraph, protocol: Protocol, value: int
) -> Set[Configuration]:
    """The nodes of a forward-closed graph that are ``value``-output stable.

    ``graph`` must be forward-closed (every successor of a node is a node),
    which holds for graphs returned by
    :meth:`~repro.core.petrinet.PetriNet.reachability_graph` without pruning.

    A node is ``value``-output stable iff every node reachable from it (within
    the graph) has consensus ``value``.  This is computed by a reverse
    propagation of "bad" nodes: a node is *not* stable iff it reaches a node
    without consensus ``value``.
    """
    bad_seeds = {node for node in graph.nodes if not protocol.has_consensus(node, value)}
    unstable = _backward_reachable(graph, bad_seeds)
    return set(graph.nodes) - unstable


def _backward_reachable(
    graph: ReachabilityGraph, targets: Set[Configuration]
) -> Set[Configuration]:
    """All graph nodes that can reach a node of ``targets`` (including ``targets``)."""
    predecessors: Dict[Configuration, List[Tuple[Transition, Configuration]]] = {
        node: [] for node in graph.nodes
    }
    for source in graph.nodes:
        for transition, target in graph.successors(source):
            predecessors[target].append((transition, source))
    reached, _, _ = breadth_first(targets, lambda node: predecessors.get(node, []))
    return set(reached)


def always_eventually_stable(
    graph: ReachabilityGraph,
    protocol: Protocol,
    root: Configuration,
    value: int,
) -> bool:
    """Check the stable-computation condition from ``root`` for output ``value``.

    Returns True iff **every** node reachable from ``root`` (within the
    forward-closed ``graph``) can still reach a ``value``-output-stable node.
    This is exactly the paper's requirement for input configurations whose
    predicate value is ``value``.
    """
    stable = output_stable_nodes(graph, protocol, value)
    can_reach_stable = _backward_reachable(graph, stable)
    reachable_from_root = _forward_reachable(graph, root)
    return reachable_from_root <= can_reach_stable


def _forward_reachable(graph: ReachabilityGraph, root: Configuration) -> Set[Configuration]:
    """All graph nodes reachable from ``root`` within the graph."""
    if root not in graph.nodes:
        return set()
    reached, _, _ = breadth_first([root], graph.successors)
    return set(reached)


def stable_consensus_value(
    protocol: Protocol,
    inputs: Configuration,
    max_nodes: Optional[int] = None,
) -> Optional[int]:
    """The value stably computed by the protocol on a given input, if any.

    Explores the reachability graph from ``rho_L + inputs|_P`` and returns

    * 0 if the stable-computation condition holds for output 0,
    * 1 if it holds for output 1,
    * None if it holds for neither (the protocol is not well-specified on this
      input) — note it cannot hold for both on the same input because a
      configuration cannot be simultaneously 0- and 1-output stable unless the
      graph is empty.
    """
    root = protocol.initial_configuration(inputs)
    return DenseReachabilityGraph(protocol, root, max_nodes).stable_value()
