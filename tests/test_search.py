"""Tests for the one breadth-first search of the paper core and the
witness searches built on it: ``breadth_first`` / ``word_to``
(repro.core.petrinet), ``PetriNet.find_path`` / ``find_covering_path`` /
``is_reachable``, ``ControlStatePetriNet.find_path`` and
``find_bottom_witness``."""

import random

import pytest

from repro.analysis import find_bottom_witness, shortest_distances
from repro.controlstates import ControlStatePetriNet, Edge
from repro.core import (
    Configuration,
    ExplorationLimitError,
    PetriNet,
    PetriNetPreorder,
    Transition,
    breadth_first,
    from_counts,
    unit,
    word_to,
)

#: A small labelled digraph: node -> [(label, successor), ...].
GRAPH = {
    0: [("a", 1), ("b", 2)],
    1: [("c", 3), ("d", 0)],
    2: [("e", 3), ("f", 4)],
    3: [("g", 5)],
    4: [("h", 1)],
    5: [],
}


def graph_successors(node):
    return GRAPH[node]


class TestBreadthFirst:
    def test_discovery_is_breadth_first(self):
        parents, order, goal = breadth_first([0], graph_successors)
        assert order == [0, 1, 2, 3, 4, 5]
        assert goal is None
        assert parents == {
            0: None,
            1: (0, "a"),
            2: (0, "b"),
            3: (1, "c"),
            4: (2, "f"),
            5: (3, "g"),
        }

    def test_duplicate_roots_are_discovered_once(self):
        parents, order, _ = breadth_first([4, 2, 4], graph_successors)
        assert order == [4, 2, 1, 3, 0, 5]
        assert parents[4] is None and parents[2] is None

    def test_goal_stops_the_search(self):
        seen = []

        def successors(node):
            seen.append(node)
            return GRAPH[node]

        parents, order, goal = breadth_first([0], successors, lambda node: node == 3)
        assert goal == 3
        assert order == [0, 1, 2, 3]
        assert seen == [0, 1]
        assert word_to(parents, goal) == ["a", "c"]

    def test_roots_are_not_goal_tested(self):
        _, order, goal = breadth_first([0], graph_successors, lambda node: node in (0, 2))
        assert goal == 2
        assert order == [0, 1, 2]

    def test_budget_stops_after_one_discovery_past_it(self):
        for max_nodes in range(1, 6):
            _, order, goal = breadth_first([0], graph_successors, max_nodes=max_nodes)
            assert goal is None
            assert order == [0, 1, 2, 3, 4, 5][: max_nodes + 1]

    def test_node_crossing_the_budget_is_goal_tested_first(self):
        _, order, goal = breadth_first([0], graph_successors, lambda node: node == 3, max_nodes=3)
        assert goal == 3 and len(order) == 4
        _, order, goal = breadth_first([0], graph_successors, lambda node: node == 4, max_nodes=3)
        assert goal is None and len(order) == 4

    def test_a_search_that_ends_within_the_budget_discovers_everything(self):
        _, order, _ = breadth_first([0], graph_successors, max_nodes=6)
        assert len(order) == 6

    def test_word_of_a_root_is_empty(self):
        parents, _, _ = breadth_first([3, 0], graph_successors)
        assert word_to(parents, 3) == []
        assert word_to(parents, 0) == []
        assert word_to(parents, 5) == ["g"]

    def test_every_word_replays_from_its_root_to_its_node(self):
        labels = {(node, label): target for node, edges in GRAPH.items() for label, target in edges}
        parents, order, _ = breadth_first([0], graph_successors)
        for node in order:
            current = 0
            for label in word_to(parents, node):
                current = labels[(current, label)]
            assert current == node

    def test_words_are_shortest_firing_sequences_of_a_net(self):
        net = PetriNet(
            [
                Transition({"a": 2}, {"b": 1, "c": 1}, name="split"),
                Transition({"b": 1}, {"a": 1}, name="back"),
                Transition({"b": 1, "c": 1}, {"a": 2}, name="join"),
            ]
        )
        source = from_counts(a=5)
        parents, order, _ = breadth_first([source], net.successors)
        distances = shortest_distances(net.reachability_graph([source]), source)
        assert set(order) == set(distances)
        for node in order:
            word = word_to(parents, node)
            assert net.fire_word(source, word) == node
            assert len(word) == distances[node]


@pytest.fixture
def chain_net():
    """s0 -> s1 -> ... -> s9: conservative, ten reachable configurations."""
    return PetriNet(
        [Transition(unit(f"s{i}"), unit(f"s{i + 1}"), name=f"t{i}") for i in range(9)]
    )


class TestSpentBudget:
    def test_is_reachable_raises_when_the_budget_runs_out(self, chain_net):
        with pytest.raises(ExplorationLimitError):
            chain_net.is_reachable(unit("s0"), unit("s9"), max_nodes=5)

    def test_relates_raises_when_the_budget_runs_out(self, chain_net):
        with pytest.raises(ExplorationLimitError):
            PetriNetPreorder(chain_net, max_nodes=5).relates(unit("s0"), unit("s9"))

    @pytest.mark.parametrize("max_nodes", [9, 10, None])
    def test_a_budget_that_reaches_the_target_answers_true(self, chain_net, max_nodes):
        assert chain_net.is_reachable(unit("s0"), unit("s9"), max_nodes=max_nodes)
        assert PetriNetPreorder(chain_net, max_nodes=max_nodes).relates(unit("s0"), unit("s9"))

    @pytest.mark.parametrize("max_nodes", [0, 5])
    def test_a_search_finished_within_the_budget_answers_false(self, chain_net, max_nodes):
        # s9 has no successor: the root alone never spends the budget.
        assert not chain_net.is_reachable(unit("s9"), unit("s0"), max_nodes=max_nodes)

    def test_witness_searches_keep_returning_none(self, chain_net):
        assert chain_net.find_path(unit("s0"), unit("s9"), max_nodes=5) is None
        assert chain_net.find_covering_path(unit("s0"), unit("s9"), max_nodes=5) is None
        assert PetriNetPreorder(chain_net, max_nodes=5).witness(unit("s0"), unit("s9")) is None


# ----------------------------------------------------------------------
# Shortest words on seeded random nets
# ----------------------------------------------------------------------
#: Spawning nets are explored up to this many firings: no transition adds
#: more than two agents, so every configuration within that distance of the
#: source has at most ``|source| + 2 * DEPTH`` agents.
DEPTH = 4


def _random_multiset(rng, states, min_size, max_size):
    counts = {}
    for _ in range(rng.randint(min_size, max_size)):
        state = rng.choice(states)
        counts[state] = counts.get(state, 0) + 1
    return Configuration(counts)


def _random_net(rng, conservative):
    states = [f"s{i}" for i in range(rng.randint(2, 5))]
    transitions = []
    for t in range(rng.randint(2, 7)):
        pre = _random_multiset(rng, states, 1, 2)
        if conservative:
            post = _random_multiset(rng, states, pre.size, pre.size)
        else:
            post = _random_multiset(rng, states, 0, 3)
        transitions.append(Transition(pre, post, name=f"t{t}"))
    return PetriNet(transitions, states=states), states


def _net_cases(count):
    rng = random.Random(2022)
    for index in range(count):
        conservative = index % 2 == 0
        net, states = _random_net(rng, conservative)
        source = _random_multiset(rng, states, 1, 4)
        targets = [_random_multiset(rng, states, 1, 3) for _ in range(4)]
        yield index, conservative, net, source, targets


class TestShortestWitnessesOnRandomNets:
    """The words of ``find_path`` and ``find_covering_path`` fire from the
    source, reach or cover the target, and are as short as the least
    ``shortest_distances`` value of a reaching or covering configuration."""

    @pytest.mark.parametrize("index, conservative, net, source, targets", list(_net_cases(60)))
    def test_words_are_shortest(self, index, conservative, net, source, targets):
        # Pruning keeps every configuration within DEPTH firings (and all of
        # a conservative net's closure), so their distances are exact.
        limit = source.size + 2 * DEPTH
        graph = net.reachability_graph([source], prune=lambda c: c.size > limit)
        assert net.reachable_set([source], prune=lambda c: c.size > limit) == set(graph)
        distances = shortest_distances(graph, source)
        exact = {
            node: distance
            for node, distance in distances.items()
            if conservative or distance <= DEPTH
        }
        budget = len(graph)
        rng = random.Random(index)
        reach_targets = rng.sample(sorted(exact, key=str), min(4, len(exact)))
        for target in reach_targets:
            word = net.find_path(source, target, max_nodes=budget)
            assert word is not None
            assert net.fire_word(source, word) == target
            assert len(word) == exact[target]
        for target in targets + reach_targets:
            covering = [distance for node, distance in exact.items() if node.covers(target)]
            word = net.find_covering_path(source, target, max_nodes=budget)
            if covering:
                assert word is not None
                assert net.fire_word(source, word).covers(target)
                assert len(word) == min(covering)
            elif conservative:
                assert word is None
            if conservative:
                assert (net.find_path(source, target) is None) == (target not in exact)


def _control_cases(count):
    rng = random.Random(7)
    transition = Transition({"a": 1}, {"a": 1}, name="t")
    net = PetriNet([transition])
    for index in range(count):
        states = list(range(rng.randint(1, 7)))
        edges = [
            Edge(rng.choice(states), transition, rng.choice(states))
            for _ in range(rng.randint(0, 3 * len(states)))
        ]
        yield index, ControlStatePetriNet(states, net, edges)


def _edge_distances(control, source):
    """Bellman-Ford with unit weights: an oracle independent of the BFS."""
    distance = {source: 0}
    for _ in range(control.num_control_states):
        for edge in control.edges:
            if edge.source in distance:
                candidate = distance[edge.source] + 1
                if candidate < distance.get(edge.target, candidate + 1):
                    distance[edge.target] = candidate
    return distance


class TestShortestControlStatePaths:
    @pytest.mark.parametrize("index, control", list(_control_cases(40)))
    def test_find_path_is_a_shortest_edge_path(self, index, control):
        states = sorted(control.control_states)
        for source in states:
            distance = _edge_distances(control, source)
            for target in states:
                path = control.find_path(source, target)
                if target not in distance:
                    assert path is None
                    continue
                assert path is not None
                assert len(path) == distance[target]
                assert control.is_path(path)
                if path:
                    assert path[0].source == source and path[-1].target == target


class TestBottomWitnessUnderTruncation:
    """A spawning net (``t0`` adds an ``s0``), so every budget truncates the
    exploration.  The witness is ``alpha = 3 s0``, the fourth configuration
    discovered, and its pump search needs a budget of 6.  Values pinned from
    the search before it ran on :func:`breadth_first`."""

    ORIGIN = from_counts(s0=1, s1=1)

    @pytest.fixture
    def net(self):
        return PetriNet(
            [
                Transition({"s2": 1}, {"s0": 1, "s2": 1}, name="t0"),
                Transition({"s1": 1, "s2": 1}, {"s0": 3}, name="t1"),
                Transition({"s0": 2}, {"s2": 1}, name="t2"),
                Transition({"s0": 1}, {"s2": 1}, name="t3"),
            ]
        )

    @pytest.mark.parametrize("max_nodes", [6, 40])
    def test_witness_is_pinned(self, net, max_nodes):
        with pytest.raises(ExplorationLimitError):
            net.reachability_graph([self.ORIGIN], max_nodes=max_nodes)
        witness = find_bottom_witness(net, self.ORIGIN, max_nodes=max_nodes, max_component_nodes=200)
        assert witness is not None
        assert [t.name for t in witness.sigma] == ["t3", "t1"]
        assert [t.name for t in witness.pump] == ["t3", "t0", "t0"]
        assert witness.places == frozenset({"s1"})
        assert witness.alpha == from_counts(s0=3)
        assert witness.beta == from_counts(s0=4, s2=1)
        assert witness.component_size == 1

    def test_each_restriction_is_built_once(self, net, monkeypatch):
        restrict = PetriNet.restrict
        calls = []

        def counting_restrict(self, states):
            calls.append(frozenset(states))
            return restrict(self, states)

        monkeypatch.setattr(PetriNet, "restrict", counting_restrict)
        witness = find_bottom_witness(net, self.ORIGIN, max_nodes=40, max_component_nodes=200)
        assert witness.alpha == from_counts(s0=3)
        assert len(calls) == len(set(calls)) == 2 ** net.num_states

    def test_budget_too_small_for_the_pump_finds_none(self, net):
        assert find_bottom_witness(net, self.ORIGIN, max_nodes=5, max_component_nodes=200) is None

    def test_the_origin_is_walked_even_at_a_zero_budget(self):
        net = PetriNet([Transition({"a": 1}, {"a": 1, "b": 1}, name="spawn")])
        witness = find_bottom_witness(net, from_counts(a=1), max_nodes=0)
        assert witness is not None
        assert witness.sigma == [] and [t.name for t in witness.pump] == ["spawn"]
