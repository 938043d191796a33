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

* :func:`stable_values` gives the stable value and graph size from the
  initial configurations of many inputs.  It searches them in one native
  call (:func:`repro.simulation.native.verify`) whenever the library loads
  and a configuration fits one 64-bit word, and with
  :class:`DenseReachabilityGraph` otherwise.  :func:`stable_consensus_value`
  and the verification layer (:mod:`repro.analysis.verification`) run on it,
* :class:`DenseReachabilityGraph` is the Python explorer: the graph from one
  root with each configuration packed into one int (a bit field per state,
  over the net's compiled integer tables), a transition fired with one
  addition and output stability propagated on integer node ids.
  :func:`is_output_stable` runs on it,
* :func:`output_stable_nodes` and :func:`always_eventually_stable` evaluate
  the same conditions on a sparse
  :class:`~repro.core.petrinet.ReachabilityGraph`; they stay as public API
  and as the oracle the dense explorers are tested against.
"""

from __future__ import annotations

from array import array
from types import ModuleType
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .configuration import Configuration
from .petrinet import ExplorationLimitError, PetriNet, ReachabilityGraph, breadth_first
from .protocol import OUTPUT_ONE, OUTPUT_ZERO, Protocol
from .transition import Transition

if TYPE_CHECKING:
    from ..simulation.compiled import CompiledNet

#: One width's packing (see :meth:`_PackedTables.at`).
_Packing = Tuple[int, List[Tuple[int, int]], Tuple[int, int, int], Optional[array]]
#: The low 64 bits: a negative delta's two's complement.
_WORD = (1 << 64) - 1
#: The message of the ValueError for a protocol without a Petri net.
_NOT_A_NET = "exact stability analysis requires a Petri-net based protocol"

__all__ = [
    "DenseReachabilityGraph",
    "is_output_stable",
    "output_stable_nodes",
    "always_eventually_stable",
    "stable_consensus_value",
    "stable_values",
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

    This is the Python explorer: :func:`stable_values` builds one for each
    input the native batch cannot search (no ``cc``, or codes past 64
    bits), and the native batch explores the same graph in C.

    Raises :class:`ValueError` for protocols that are not Petri-net based.
    """

    def __init__(
        self,
        protocol: Protocol,
        root: Configuration,
        max_nodes: Optional[int] = None,
        *,
        _width: int = 0,
    ) -> None:
        # ``_width``: start on fields at least this wide.  ``stable_values``
        # passes the first width its native batches did not run, so a root
        # they widened is not searched again on fields it already outgrew.
        net = protocol.petri_net
        if net is None:
            raise ValueError(_NOT_A_NET)
        compiled = net.compiled(protocol.states | root.support)
        tables = _PackedTables.of(net, compiled, protocol)
        # The universe holds the root's support, so ``counts_of`` answers a list.
        counts = compiled.counts_of(root) or []
        width = max(max(sum(counts), tables.largest).bit_length() + 1, _width)
        while True:
            guards, steps, masks, _ = tables.at(width)
            explored = _explore(_pack(enumerate(counts), width), steps, guards, max_nodes)
            if explored is not None:
                self._codes, self.predecessors = explored
                break
            width *= 2
        self._width = width
        self._num_states = len(counts)
        self._masks = masks

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
    and, when a code fits 64 bits, the native batch's step words.  They
    depend on nothing else, so the net keeps them (``_dense_cache``) for
    every root :func:`stable_values` or :class:`DenseReachabilityGraph`
    explores."""

    def __init__(self, compiled: "CompiledNet", classes: Tuple[int, ...]) -> None:
        self._moves = [
            (pre, delta) for pre, delta in zip(compiled.pre_lists, compiled.delta_lists) if delta
        ]
        self.largest = max(
            [0] + [count for pre, delta in self._moves for _, count in pre + delta]
        )
        self._classes = classes
        self._by_width: Dict[int, _Packing] = {}

    @staticmethod
    def of(net: PetriNet, compiled: "CompiledNet", protocol: Protocol) -> "_PackedTables":
        """The tables of ``net``'s ``compiled`` form under the protocol's
        output classes, from the net's cache."""
        key = (compiled, compiled.output_classes(protocol.output_table))
        tables = net._dense_cache.get(key)
        if tables is None:
            tables = net._dense_cache[key] = _PackedTables(*key)
        return tables

    def at(self, width: int) -> _Packing:
        """``(guards, steps, (ones, zeros, undefined), words)`` on fields of
        ``width`` bits.  ``words`` is ``None`` when a code needs more than
        64 bits, else the unsigned 64-bit array of
        :func:`repro.simulation.native.verify`: the guard word, then each
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
    batch explorer, loads here, else ``None``.  That package imports this
    one, so the import waits for the first call."""
    from ..simulation import native

    return native if native.available() else None


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

    Explores the reachability graph from ``rho_L + inputs|_P``
    (:func:`stable_values` on this one input) and returns

    * 0 if the stable-computation condition holds for output 0,
    * 1 if it holds for output 1,
    * None if it holds for neither (the protocol is not well-specified on this
      input) — note it cannot hold for both on the same input because a
      configuration cannot be simultaneously 0- and 1-output stable unless the
      graph is empty.
    """
    return stable_values(protocol, [inputs], max_nodes)[0][0]


def stable_values(
    protocol: Protocol, inputs: Sequence[Configuration], max_nodes: Optional[int] = None
) -> List[Tuple[Optional[int], int]]:
    """Per input and in order, ``(stable value, explored)`` from the input's
    initial configuration ``rho_L + inputs|_P``, as
    :class:`DenseReachabilityGraph` gives them
    (:meth:`~DenseReachabilityGraph.stable_value` and ``len``).

    Where the native library loads, every root is packed on the fields of
    the widest one, from the input's counts plus the leaders' code, and one
    :func:`repro.simulation.native.verify` call searches them all.  The
    roots whose counts outgrow those fields are searched again on fields
    twice as wide, as long as a code fits 64 bits.  A
    :class:`DenseReachabilityGraph` explores every root left: all of them
    without the library, and those whose codes need more than 64 bits, on
    fields wider than any batch ran them on.

    Raises :class:`ValueError` for a protocol that is not Petri-net based
    and for an input with non-initial states, and
    :class:`~repro.core.petrinet.ExplorationLimitError` when an input's
    graph exceeds ``max_nodes``, as one graph per input would.
    """
    net = protocol.petri_net
    if net is None:
        raise ValueError(_NOT_A_NET)
    compiled = net.compiled(protocol.states)
    tables = _PackedTables.of(net, compiled, protocol)
    index_of, states, initial = compiled.index_of, protocol.states, protocol.initial_states
    rows: List[List[Tuple[int, int]]] = []
    for configuration in inputs:
        if not configuration.support <= initial:
            # Raises the ValueError that names the non-initial states.
            protocol.initial_configuration(configuration)
        rows.append(
            [(index_of[state], count) for state, count in configuration.items() if state in states]
        )
    leaders = [(index_of[state], count) for state, count in protocol.leaders.items()]
    agents = protocol.leaders.size + max([0] + [sum(count for _, count in row) for row in rows])
    width = max(agents, tables.largest).bit_length() + 1
    found: Dict[int, Tuple[Optional[int], int]] = {}
    left = list(range(len(rows)))
    # The roots left after a batch outgrew every width it ran, so Python
    # starts them on the next one.
    start = 0
    native = _native()
    while native is not None and left:
        _, _, masks, words = tables.at(width)
        if words is None:
            break
        base = _pack(leaders, width)
        roots = array("Q", [base + _pack(rows[i], width) for i in left])
        out = native.verify(words, masks, roots, max_nodes)
        # A root whose counts outgrew the fields explored 0 nodes.
        for i, explored, value in zip(left, out[::2], out[1::2]):
            if explored:
                found[i] = (None if value < 0 else value, explored)
        left = [i for i in left if i not in found]
        width *= 2
        start = width
    for i in left:
        root = protocol.initial_configuration(inputs[i])
        graph = DenseReachabilityGraph(protocol, root, max_nodes, _width=start)
        found[i] = (graph.stable_value(), len(graph))
    return [found[i] for i in range(len(rows))]
