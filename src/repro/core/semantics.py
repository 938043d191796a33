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

* :class:`DenseReachabilityGraph` explores the graph from one root with each
  configuration packed into one int (a bit field per state, over the net's
  compiled integer tables), fires a transition with one addition and
  propagates output stability on integer node ids, in the native library
  whenever it loads and a configuration fits one 64-bit word.  It is the
  workhorse of :func:`is_output_stable`, :func:`stable_consensus_value` and
  the verification layer (:mod:`repro.analysis.verification`),
* :func:`output_stable_nodes` and :func:`always_eventually_stable` evaluate
  the same conditions on a sparse
  :class:`~repro.core.petrinet.ReachabilityGraph`; they stay as public API
  and as the oracle the dense explorer is tested against.
"""

from __future__ import annotations

from array import array
from types import ModuleType
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from .configuration import Configuration
from .petrinet import ExplorationLimitError, ReachabilityGraph, breadth_first
from .protocol import OUTPUT_ONE, OUTPUT_ZERO, Protocol
from .transition import Transition

if TYPE_CHECKING:
    from ..simulation.compiled import CompiledNet

#: One width's packing (see :meth:`_PackedTables.at`).
_Packing = Tuple[int, List[Tuple[int, int]], Tuple[int, int, int], Optional[array]]
#: The low 64 bits: a negative delta's two's complement.
_WORD = (1 << 64) - 1
#: :mod:`repro.simulation.native` once :func:`_native` imported it.
_glue: Optional[ModuleType] = None

__all__ = [
    "DenseReachabilityGraph",
    "is_output_stable",
    "output_stable_nodes",
    "always_eventually_stable",
    "stable_consensus_value",
]


class DenseReachabilityGraph:
    """The reachability graph of a protocol's net from one root, on integers.

    Each configuration is one int.  State ``i`` of ``net.compiled(...)``
    over the protocol's states owns the bit field of ``width`` bits at shift
    ``i * width``: its count, and above it one guard bit that a configuration
    keeps clear.  The count bits hold the largest of the population, any pre
    count and any one-step gain.  Firing a transition adds its delta code.
    A transition is enabled iff ``(code + key) & guards == guards``, where
    ``key`` holds ``guard - pre_i`` in field ``i``: a field below its pre
    count borrows its own guard bit, and nothing carries into the next field.
    A count that outgrows its field sets its guard bit, and the search
    restarts on fields twice as wide; counts of a conservative net never
    exceed the population, so only other nets restart.  Consensus tests are
    ANDs with the fields of each output class.

    Nodes are numbered in breadth-first discovery order (the root is node
    0), the order of
    :meth:`~repro.core.petrinet.PetriNet.reachability_graph`, and
    ``predecessors[i]`` lists the ids from which one enabled transition leads
    to node ``i``, by source id and then by transition order.  Transitions
    whose pre-set equals their post-set only add self-loops, which change
    neither reachability nor stability, and are skipped.  The graph has the
    same nodes as the sparse one (``nodes`` decodes them to tuples of counts)
    and raises :class:`~repro.core.petrinet.ExplorationLimitError` on exactly
    the same ``max_nodes`` budgets.

    The search and the backward search of :meth:`always_eventually_stable`
    run in the native library (:func:`repro.simulation.native.explore`)
    whenever it loads and a code fits one 64-bit word (states x width <=
    64), and in Python otherwise: on hosts without ``cc``, and from a width
    restart past 64 bits on.  Both give the same graph; on the native path
    the predecessor lists are kept as CSR arrays and ``predecessors``
    decodes them on first access.

    Raises :class:`ValueError` for protocols that are not Petri-net based.
    """

    def __init__(
        self, protocol: Protocol, root: Configuration, max_nodes: Optional[int] = None
    ) -> None:
        net = protocol.petri_net
        if net is None:
            raise ValueError("exact stability analysis requires a Petri-net based protocol")
        compiled = net.compiled(protocol.states | root.support)
        key = (compiled, compiled.output_classes(protocol.output_table))
        tables = net._dense_cache.get(key)
        if tables is None:
            tables = net._dense_cache[key] = _PackedTables(*key)
        # The universe holds the root's support, so ``counts_of`` answers a list.
        counts = compiled.counts_of(root) or []
        width = max(sum(counts), tables.largest).bit_length() + 1
        native = _native()
        self._predecessors: Optional[List[List[int]]] = None
        # The native path's predecessor lists: (offsets, source ids).
        self._csr: Optional[Tuple[array, array]] = None
        while True:
            guards, steps, masks, words = tables.at(width)
            code = _pack(enumerate(counts), width)
            if native is not None and words is not None:
                found = native.explore(words, code, max_nodes)
                if found is not None:
                    self._codes, offsets, sources = found
                    self._csr = (offsets, sources)
                    break
            else:
                explored = _explore(code, steps, guards, max_nodes)
                if explored is not None:
                    self._codes, self._predecessors = explored
                    break
            width *= 2
        self._width = width
        self._num_states = len(counts)
        self._masks = masks

    @property
    def predecessors(self) -> List[List[int]]:
        """Per node, the ids from which one enabled transition leads to it
        (decoded from the CSR arrays on first access on the native path)."""
        if self._predecessors is None:
            assert self._csr is not None
            offsets, sources = self._csr
            self._predecessors = [
                sources[offsets[i] : offsets[i + 1]].tolist() for i in range(len(self._codes))
            ]
        return self._predecessors

    @property
    def nodes(self) -> List[Tuple[int, ...]]:
        """The configurations by node id, as counts in the compiled state order."""
        field = (1 << (self._width - 1)) - 1
        shifts = range(0, self._num_states * self._width, self._width)
        return [tuple(code >> shift & field for shift in shifts) for code in self._codes]

    def __len__(self) -> int:
        return len(self._codes)

    def consensus(self, value: int) -> List[bool]:
        """Per node, whether it has consensus ``value``
        (:meth:`~repro.core.protocol.Protocol.has_consensus`)."""
        ones, zeros, undefined = self._masks
        if value == OUTPUT_ONE:
            blocking = zeros | undefined
            return [not code & blocking and code & ones != 0 for code in self._codes]
        if value == OUTPUT_ZERO:
            blocking = ones | undefined
            return [not code & blocking for code in self._codes]
        raise ValueError("consensus value must be 0 or 1")

    def _reaching(self, seeds: List[int]) -> List[bool]:
        """Per node, whether it can reach a node of ``seeds`` (seeds included)."""
        predecessors = self.predecessors
        reached = [False] * len(self._codes)
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
        native = None if self._csr is None else _native()
        # Any other value reaches consensus(), which refuses it.
        if native is not None and value in (OUTPUT_ONE, OUTPUT_ZERO):
            return native.eventually_stable(self._codes, *self._csr, self._masks, value)
        unstable = self._reaching([i for i, ok in enumerate(self.consensus(value)) if not ok])
        return all(self._reaching([i for i, bad in enumerate(unstable) if not bad]))

    def stable_value(self) -> Optional[int]:
        """The output stably computed from the root, or ``None`` (see
        :func:`stable_consensus_value`)."""
        for value in (OUTPUT_ONE, OUTPUT_ZERO):
            if self.always_eventually_stable(value):
                return value
        return None


class _PackedTables:
    """The packing tables of one compiled net and output classes, per field
    width: the transitions that change a configuration, the largest pre
    count or one-step gain, and for each width the guard word, every
    transition's ``(key, delta)`` codes, the fields of each output class
    and, when a code fits 64 bits, the native explorer's step words.
    They depend on nothing else, so the net keeps them (``_dense_cache``)
    for every root :class:`DenseReachabilityGraph` explores."""

    def __init__(self, compiled: "CompiledNet", classes: Tuple[int, ...]) -> None:
        self._moves = [
            (pre, delta) for pre, delta in zip(compiled.pre_lists, compiled.delta_lists) if delta
        ]
        self.largest = max(
            [0] + [count for pre, delta in self._moves for _, count in pre + delta]
        )
        self._classes = classes
        self._by_width: Dict[int, _Packing] = {}

    def at(self, width: int) -> _Packing:
        """``(guards, steps, (ones, zeros, undefined), words)`` on fields of
        ``width`` bits.  ``words`` is ``None`` when a code needs more than
        64 bits, else the unsigned 64-bit array of
        :func:`repro.simulation.native.explore`: the guard word, then each
        step's key and delta, a negative delta in two's complement."""
        tables = self._by_width.get(width)
        if tables is None:
            from ..simulation.compiled import OUT_ONE, OUT_UNDEFINED, OUT_ZERO

            states = range(len(self._classes))
            guards = _pack([(i, 1 << (width - 1)) for i in states], width)
            steps = [
                (guards - _pack(pre, width), _pack(delta, width)) for pre, delta in self._moves
            ]
            # The fields of each output class; states outside the output
            # table never influence the consensus.
            field = (1 << (width - 1)) - 1
            ones, zeros, undefined = (
                _pack([(i, field) for i in states if self._classes[i] == wanted], width)
                for wanted in (OUT_ONE, OUT_ZERO, OUT_UNDEFINED)
            )
            words = None
            if len(states) * width <= 64:
                words = array("Q", [guards])
                words.extend(part & _WORD for step in steps for part in step)
            tables = (guards, steps, (ones, zeros, undefined), words)
            self._by_width[width] = tables
        return tables


def _native() -> Optional[ModuleType]:
    """:mod:`repro.simulation.native` when its library, which holds the
    explorer, loads here, else ``None``.  That package imports this one, so
    the module is imported on first use and kept: an import statement per
    graph would cost more than a small graph's search."""
    global _glue
    if _glue is None:
        from ..simulation import native

        _glue = native
    return _glue if _glue.available() else None


def _pack(counts: Iterable[Tuple[int, int]], width: int) -> int:
    """The code of ``(state index, count)`` pairs on fields of ``width`` bits;
    a negative count subtracts from its field."""
    code = 0
    for index, count in counts:
        code += count << (index * width)
    return code


def _explore(
    root: int, steps: List[Tuple[int, int]], guards: int, max_nodes: Optional[int]
) -> Optional[Tuple[List[int], List[List[int]]]]:
    """Breadth-first search from ``root`` over ``(key, delta)`` steps: the
    codes in discovery order and each node's predecessor ids, or ``None``
    once a count outgrows its field."""
    ids: Dict[int, int] = {root: 0}
    codes: List[int] = [root]
    predecessors: List[List[int]] = [[]]
    known = ids.get
    # Iterating a list that grows while it is walked is a FIFO queue.
    for source, code in enumerate(codes):
        for key, delta in steps:
            if (code + key) & guards == guards:
                target = code + delta
                node = known(target)
                if node is None:
                    if target & guards:
                        return None
                    node = len(codes)
                    if max_nodes is not None and node >= max_nodes:
                        raise ExplorationLimitError(
                            f"exploration exceeded {max_nodes} configurations"
                        )
                    ids[target] = node
                    codes.append(target)
                    predecessors.append([source])
                else:
                    predecessors[node].append(source)
    return codes, predecessors


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
