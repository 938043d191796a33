"""Petri nets as finite sets of transitions.

A *P-Petri net* (paper, Section 3) is a finite set ``T`` of ``P``-transitions.
Its reachability relation ``--T*-->`` relates ``alpha`` to ``beta`` whenever
some word of transitions of ``T`` leads from ``alpha`` to ``beta``.  The paper
shows that additive preorders of finite interaction-width are exactly the
Petri-net reachability relations, which is why everything in this library is
ultimately expressed on Petri nets.

This module provides the :class:`PetriNet` container together with the firing
and exploration primitives used by the analysis layer:

* enabledness and successor computation,
* firing of words (:meth:`PetriNet.fire_word`),
* bounded forward exploration of the reachability set
  (:meth:`PetriNet.reachable_set`, :meth:`PetriNet.reachability_graph`),
* witness search for reachability between two configurations,
* restriction ``T|_Q`` (paper, Section 5),
* :func:`breadth_first` and :func:`word_to`, the one search and word rebuild
  behind every shortest witness word of the library (covering words,
  Theorem 6.1's ``sigma`` and ``w``, control-state return paths).
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from .configuration import Configuration, State
from .transition import Transition

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..simulation.compiled import CompiledNet
    from .semantics import _PackedTables

__all__ = [
    "PetriNet",
    "ReachabilityGraph",
    "ExplorationLimitError",
    "breadth_first",
    "check_budget",
    "word_to",
]

Node = TypeVar("Node", bound=Hashable)
Label = TypeVar("Label")


class ExplorationLimitError(RuntimeError):
    """Raised when an explicit-state exploration exceeds its node budget."""


def breadth_first(
    roots: Iterable[Node],
    successors: Callable[[Node], Iterable[Tuple[Label, Node]]],
    is_goal: Optional[Callable[[Node], bool]] = None,
    max_nodes: Optional[int] = None,
) -> Tuple[Dict[Node, Optional[Tuple[Node, Label]]], List[Node], Optional[Node]]:
    """Breadth-first search from ``roots`` over ``(label, node)`` successor pairs.

    Nodes are discovered first-in, first-out: the roots in order (duplicates
    once), then each node's successors in the order ``successors`` yields
    them.  This is the order in which :meth:`PetriNet.reachability_graph`
    discovers nodes, and the first path found to a node is a shortest one.

    Returns ``(parents, order, goal)``:

    * ``parents`` maps every discovered node to ``(previous, label)``, the
      edge that discovered it, or to ``None`` for a root (see :func:`word_to`);
    * ``order`` lists the discovered nodes in discovery order;
    * ``goal`` is the first discovered node satisfying ``is_goal``, where the
      search stops, or ``None``.  Roots are never goal-tested.

    With ``max_nodes`` the search stops once more than ``max_nodes`` nodes
    have been discovered, after goal-testing the node that crossed the
    budget, so ``goal is None and len(order) > max_nodes`` says the budget
    ran out.
    """
    parents: Dict[Node, Optional[Tuple[Node, Label]]] = {}
    order: List[Node] = []
    for root in roots:
        if root not in parents:
            parents[root] = None
            order.append(root)
    # Iterating a list that grows while it is walked is a FIFO queue.
    for current in order:
        for label, node in successors(current):
            if node in parents:
                continue
            parents[node] = (current, label)
            order.append(node)
            if is_goal is not None and is_goal(node):
                return parents, order, node
            if max_nodes is not None and len(order) > max_nodes:
                return parents, order, None
    return parents, order, None


def check_budget(order: Sequence[Hashable], roots: int, max_nodes: Optional[int]) -> None:
    """Raise :class:`ExplorationLimitError` if a :func:`breadth_first` search
    that met no goal was cut off by its ``max_nodes`` budget.

    ``order`` is the search's discovery order and ``roots`` its number of
    distinct roots.  The search is cut off iff it discovered more than
    ``max(max_nodes, roots)`` configurations: the roots never spend the
    budget, so roots without successors are a complete search at any budget.
    """
    if max_nodes is not None and len(order) > max(max_nodes, roots):
        raise ExplorationLimitError(f"exploration exceeded {max_nodes} configurations")


def word_to(parents: Dict[Node, Optional[Tuple[Node, Label]]], node: Node) -> List[Label]:
    """The labels on the path of :func:`breadth_first`'s ``parents`` from a
    root to ``node`` (``[]`` for a root)."""
    word: List[Label] = []
    step = parents[node]
    while step is not None:
        node, label = step
        word.append(label)
        step = parents[node]
    word.reverse()
    return word


class ReachabilityGraph:
    """The explicit reachability graph of a Petri net from a set of roots.

    Nodes are configurations; edges are labelled by the transition fired.
    The graph is built by :meth:`PetriNet.reachability_graph` and consumed by
    the stability / component analysis of Sections 5 and 6.
    """

    def __init__(self) -> None:
        self.nodes: Set[Configuration] = set()
        self.edges: Dict[Configuration, List[Tuple[Transition, Configuration]]] = {}
        self.roots: List[Configuration] = []

    def add_node(self, configuration: Configuration) -> bool:
        """Add a node; return True if it was new."""
        if configuration in self.nodes:
            return False
        self.nodes.add(configuration)
        self.edges[configuration] = []
        return True

    def add_edge(
        self, source: Configuration, transition: Transition, target: Configuration
    ) -> None:
        """Record that ``source --transition--> target``."""
        self.add_node(source)
        self.add_node(target)
        self.edges[source].append((transition, target))

    def successors(self, configuration: Configuration) -> List[Tuple[Transition, Configuration]]:
        """Outgoing labelled edges of ``configuration`` (empty if unknown)."""
        return self.edges.get(configuration, [])

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, configuration: Configuration) -> bool:
        return configuration in self.nodes

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self.nodes)


class PetriNet:
    """A finite set of transitions over a common universe of states.

    Parameters
    ----------
    transitions:
        The transitions of the net.  Duplicates (equal pre/post pairs) are
        kept only once.
    states:
        Optional explicit universe of states ``P``.  States mentioned by
        transitions are always included; passing ``states`` lets callers add
        isolated states that no transition touches (the paper's bounds depend
        on ``|P|``, so the universe matters).
    name:
        Optional label for pretty-printing.
    """

    def __init__(
        self,
        transitions: Iterable[Transition] = (),
        states: Iterable[State] = (),
        name: Optional[str] = None,
    ) -> None:
        unique: List[Transition] = []
        seen: Set[Transition] = set()
        for transition in transitions:
            if transition not in seen:
                seen.add(transition)
                unique.append(transition)
        self._transitions: Tuple[Transition, ...] = tuple(unique)
        self._transition_set: FrozenSet[Transition] = frozenset(unique)
        universe: Set[State] = set(states)
        for transition in self._transitions:
            universe |= transition.states
        self._states: FrozenSet[State] = frozenset(universe)
        self.name = name
        self._compiled_cache: Dict[FrozenSet[State], "CompiledNet"] = {}
        # Minimal coverability bases (repro.analysis.coverability): per target
        # configuration, and their unions per set of forbidden states.  They
        # depend only on the net, so they live exactly as long as it does.
        self._basis_cache: Dict[Configuration, Tuple[Configuration, ...]] = {}
        self._union_basis_cache: Dict[FrozenSet[State], Tuple[Configuration, ...]] = {}
        # The packing tables of repro.core.semantics (stable_values and
        # DenseReachabilityGraph), per (compiled net, output classes).
        self._dense_cache: Dict[Tuple["CompiledNet", Tuple[int, ...]], "_PackedTables"] = {}

    # ------------------------------------------------------------------
    # Basic accessors and measures
    # ------------------------------------------------------------------
    @property
    def transitions(self) -> Tuple[Transition, ...]:
        """The transitions of the net, in insertion order."""
        return self._transitions

    @property
    def states(self) -> FrozenSet[State]:
        """The universe of states ``P``."""
        return self._states

    @property
    def num_states(self) -> int:
        """``|P|``."""
        return len(self._states)

    @property
    def num_transitions(self) -> int:
        """``|T|``."""
        return len(self._transitions)

    @property
    def width(self) -> int:
        """``max_t |t|``: an upper bound on the interaction-width of ``--T*-->``."""
        if not self._transitions:
            return 0
        return max(transition.width for transition in self._transitions)

    @property
    def max_value(self) -> int:
        """``||T||_inf``: the largest multiplicity in any pre/post configuration."""
        if not self._transitions:
            return 0
        return max(transition.max_value for transition in self._transitions)

    def is_conservative(self) -> bool:
        """True if every transition preserves the number of agents."""
        return all(transition.is_conservative() for transition in self._transitions)

    def __len__(self) -> int:
        return len(self._transitions)

    def __iter__(self) -> Iterator[Transition]:
        return iter(self._transitions)

    def __contains__(self, transition: Transition) -> bool:
        return transition in self._transition_set

    def __repr__(self) -> str:
        label = self.name or "PetriNet"
        return f"{label}(|P|={self.num_states}, |T|={self.num_transitions}, width={self.width})"

    def __getstate__(self) -> Dict[str, object]:
        """Drop the compiled-net, coverability-basis and packing-table
        caches, so pickled nets stay the size of their transitions.  The
        compiled cache holds :class:`~repro.simulation.compiled.CompiledNet`
        tables, which pickle (their own ``__getstate__`` drops their
        steppers) but are cheap to rebuild.  Unpickled nets (e.g. in batch
        worker processes) recompute on first use and re-cache locally."""
        state = self.__dict__.copy()
        state["_compiled_cache"] = {}
        state["_basis_cache"] = {}
        state["_union_basis_cache"] = {}
        state["_dense_cache"] = {}
        return state

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compiled(self, extra_states: Iterable[State] = ()) -> "CompiledNet":
        """The dense array-backed representation of this net (see
        :mod:`repro.simulation.compiled`).

        ``extra_states`` enlarges the state universe beyond :attr:`states`
        (protocols may carry isolated states the net never touches).  The
        result is cached per distinct universe, so repeated simulations of the
        same net share one compiled representation.
        """
        key = frozenset(extra_states) - self._states
        cached = self._compiled_cache.get(key)
        if cached is None:
            from ..simulation.compiled import CompiledNet

            cached = CompiledNet(self, extra_states=key)
            self._compiled_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def restrict(self, states: Iterable[State]) -> "PetriNet":
        """``T|_Q``: project every transition on the states of ``Q``."""
        wanted = set(states)
        restricted = [transition.restrict(wanted) for transition in self._transitions]
        name = None if self.name is None else f"{self.name}|Q"
        return PetriNet(restricted, states=wanted & set(self._states), name=name)

    def with_transitions(self, extra: Iterable[Transition]) -> "PetriNet":
        """Return a new net with ``extra`` transitions appended."""
        return PetriNet(
            list(self._transitions) + list(extra), states=self._states, name=self.name
        )

    def reverse(self) -> "PetriNet":
        """The net in which every transition is reversed (used by backward analyses)."""
        name = None if self.name is None else f"~{self.name}"
        return PetriNet(
            [transition.reverse() for transition in self._transitions],
            states=self._states,
            name=name,
        )

    # ------------------------------------------------------------------
    # Firing semantics
    # ------------------------------------------------------------------
    def enabled_transitions(self, configuration: Configuration) -> List[Transition]:
        """All transitions enabled in ``configuration``."""
        return [t for t in self._transitions if t.is_enabled(configuration)]

    def successors(self, configuration: Configuration) -> List[Tuple[Transition, Configuration]]:
        """All one-step successors of ``configuration`` with the transition fired."""
        result: List[Tuple[Transition, Configuration]] = []
        for transition in self._transitions:
            target = transition.fire_if_enabled(configuration)
            if target is not None:
                result.append((transition, target))
        return result

    def successor_set(self, configuration: Configuration) -> Set[Configuration]:
        """The set of one-step successors of ``configuration``."""
        return {target for _, target in self.successors(configuration)}

    def fire_word(
        self, configuration: Configuration, word: Sequence[Transition]
    ) -> Configuration:
        """Fire a word of transitions; raises ValueError if any step is disabled."""
        current = configuration
        for transition in word:
            current = transition.fire(current)
        return current

    def can_fire_word(self, configuration: Configuration, word: Sequence[Transition]) -> bool:
        """Return True if the whole word is firable from ``configuration``."""
        current = configuration
        for transition in word:
            next_configuration = transition.fire_if_enabled(current)
            if next_configuration is None:
                return False
            current = next_configuration
        return True

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------
    def reachable_set(
        self,
        roots: Iterable[Configuration],
        max_nodes: Optional[int] = None,
        prune: Optional[Callable[[Configuration], bool]] = None,
    ) -> Set[Configuration]:
        """Forward-explore the configurations reachable from ``roots``.

        Parameters
        ----------
        roots:
            Initial configurations.
        max_nodes:
            Abort with :class:`ExplorationLimitError` if more than this many
            distinct configurations are discovered (see :func:`check_budget`;
            the roots never spend it).  ``None`` means no limit — only safe
            for conservative nets (finite reachability sets).
        prune:
            Optional predicate; configurations for which it returns True are
            kept in the result but not expanded further.
        """
        distinct = list(dict.fromkeys(roots))

        def expand(node: Configuration) -> List[Tuple[Transition, Configuration]]:
            return [] if prune is not None and prune(node) else self.successors(node)

        _, order, _ = breadth_first(distinct, expand, max_nodes=max_nodes)
        check_budget(order, len(distinct), max_nodes)
        return set(order)

    def reachability_graph(
        self,
        roots: Iterable[Configuration],
        max_nodes: Optional[int] = None,
        prune: Optional[Callable[[Configuration], bool]] = None,
    ) -> ReachabilityGraph:
        """Build the explicit reachability graph from ``roots`` (breadth-first)."""
        graph = ReachabilityGraph()
        frontier: deque = deque()
        for root in roots:
            if graph.add_node(root):
                graph.roots.append(root)
                frontier.append(root)
        while frontier:
            current = frontier.popleft()
            if prune is not None and prune(current):
                continue
            for transition, target in self.successors(current):
                is_new = target not in graph.nodes
                graph.add_edge(current, transition, target)
                if is_new:
                    if max_nodes is not None and len(graph) > max_nodes:
                        raise ExplorationLimitError(
                            f"exploration exceeded {max_nodes} configurations"
                        )
                    frontier.append(target)
        return graph

    def is_reachable(
        self,
        source: Configuration,
        target: Configuration,
        max_nodes: Optional[int] = None,
    ) -> bool:
        """Decide ``source --T*--> target`` by explicit forward exploration.

        Terminates in general only for conservative nets or when ``max_nodes``
        is given.  A budget that runs out before ``target`` is met raises
        :class:`ExplorationLimitError`: a truncated search proves nothing,
        not even on a conservative net.
        """
        if source == target:
            return True
        _, order, goal = breadth_first(
            [source], self.successors, lambda node: node == target, max_nodes
        )
        if goal is None:
            check_budget(order, 1, max_nodes)
        return goal is not None

    def find_path(
        self,
        source: Configuration,
        target: Configuration,
        max_nodes: Optional[int] = None,
    ) -> Optional[List[Transition]]:
        """Return a shortest witness word ``sigma`` with ``source --sigma--> target``.

        Returns ``None`` if the target is not found within the exploration
        budget.
        """
        if source == target:
            return []
        parents, _, goal = breadth_first(
            [source], self.successors, lambda node: node == target, max_nodes
        )
        return None if goal is None else word_to(parents, goal)

    def find_covering_path(
        self,
        source: Configuration,
        target: Configuration,
        max_nodes: Optional[int] = None,
    ) -> Optional[List[Transition]]:
        """Return a word reaching some ``beta >= target`` from ``source`` (coverability witness)."""
        if source.covers(target):
            return []
        parents, _, goal = breadth_first(
            [source], self.successors, lambda node: node.covers(target), max_nodes
        )
        return None if goal is None else word_to(parents, goal)

    # ------------------------------------------------------------------
    # Pretty printing
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line human-readable description of the net."""
        lines = [repr(self)]
        for transition in self._transitions:
            label = transition.name or ""
            lines.append(f"  {transition.pre.pretty()} -> {transition.post.pretty()}  {label}".rstrip())
        return "\n".join(lines)

