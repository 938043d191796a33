"""Unit tests for repro.core.petrinet."""

import pytest

from repro.core import (
    Configuration,
    ExplorationLimitError,
    PetriNet,
    Transition,
    from_counts,
    pairwise,
    unit,
)


@pytest.fixture
def doubling_net():
    """i + i -> p + p, p + p -> i + i (conservative, strongly reversible)."""
    return PetriNet(
        [
            pairwise(("i", "i"), ("p", "p"), name="fwd"),
            pairwise(("p", "p"), ("i", "i"), name="bwd"),
        ]
    )


@pytest.fixture
def spawn_net():
    """a -> a + b (non-conservative: unbounded)."""
    return PetriNet([Transition({"a": 1}, {"a": 1, "b": 1}, name="spawn")])


class TestStructure:
    def test_states_collected_from_transitions(self, doubling_net):
        assert doubling_net.states == frozenset({"i", "p"})

    def test_explicit_isolated_states_kept(self):
        net = PetriNet([pairwise(("a", "a"), ("b", "b"))], states=["c"])
        assert "c" in net.states
        assert net.num_states == 3

    def test_duplicate_transitions_removed(self):
        t = pairwise(("a", "a"), ("b", "b"))
        net = PetriNet([t, pairwise(("a", "a"), ("b", "b"))])
        assert net.num_transitions == 1

    def test_width_and_max_value(self):
        net = PetriNet([Transition({"a": 3}, {"b": 1})])
        assert net.width == 3
        assert net.max_value == 3

    def test_empty_net(self):
        net = PetriNet()
        assert net.width == 0
        assert net.max_value == 0
        assert net.num_transitions == 0

    def test_is_conservative(self, doubling_net, spawn_net):
        assert doubling_net.is_conservative()
        assert not spawn_net.is_conservative()

    def test_membership_uses_structural_equality(self, doubling_net):
        # __contains__ answers from the cached frozenset, so an equal but
        # distinct Transition object must still be found.
        assert pairwise(("i", "i"), ("p", "p")) in doubling_net
        assert pairwise(("i", "p"), ("p", "i")) not in doubling_net

    def test_restrict_projects_transitions(self, doubling_net):
        restricted = doubling_net.restrict(["i"])
        assert restricted.states == frozenset({"i"})
        assert all(t.states <= {"i"} for t in restricted.transitions)

    def test_reverse_swaps_pre_and_post(self, spawn_net):
        reversed_net = spawn_net.reverse()
        (transition,) = reversed_net.transitions
        assert transition.pre == from_counts(a=1, b=1)
        assert transition.post == from_counts(a=1)

    def test_with_transitions_appends(self, doubling_net):
        extended = doubling_net.with_transitions([pairwise(("i", "p"), ("p", "p"))])
        assert extended.num_transitions == 3
        assert doubling_net.num_transitions == 2


class TestFiring:
    def test_enabled_transitions(self, doubling_net):
        enabled = doubling_net.enabled_transitions(from_counts(i=2))
        assert [t.name for t in enabled] == ["fwd"]

    def test_successors(self, doubling_net):
        successors = doubling_net.successor_set(from_counts(i=2, p=2))
        assert successors == {from_counts(i=4), from_counts(p=4)}

    def test_fire_word(self, doubling_net):
        word = [doubling_net.transitions[0], doubling_net.transitions[1]]
        assert doubling_net.fire_word(from_counts(i=2), word) == from_counts(i=2)

    def test_fire_word_raises_on_disabled_step(self, doubling_net):
        with pytest.raises(ValueError):
            doubling_net.fire_word(from_counts(i=1), [doubling_net.transitions[0]])

    def test_can_fire_word(self, doubling_net):
        fwd = doubling_net.transitions[0]
        assert doubling_net.can_fire_word(from_counts(i=2), [fwd])
        assert not doubling_net.can_fire_word(from_counts(i=1), [fwd])


class TestExploration:
    def test_reachable_set_conservative(self, doubling_net):
        reachable = doubling_net.reachable_set([from_counts(i=3)])
        assert reachable == {from_counts(i=3), from_counts(i=1, p=2)}

    def test_reachability_graph_has_edges(self, doubling_net):
        graph = doubling_net.reachability_graph([from_counts(i=2)])
        assert from_counts(i=2) in graph
        assert len(graph.successors(from_counts(i=2))) == 1

    def test_exploration_limit_raises(self, spawn_net):
        with pytest.raises(ExplorationLimitError):
            spawn_net.reachable_set([from_counts(a=1)], max_nodes=10)

    def test_roots_without_successors_do_not_spend_the_budget(self, doubling_net):
        roots = [from_counts(i=1), from_counts(p=1)]
        assert doubling_net.reachable_set(roots, max_nodes=1) == set(roots)

    def test_prune_stops_expansion(self, spawn_net):
        reachable = spawn_net.reachable_set(
            [from_counts(a=1)], max_nodes=100, prune=lambda c: c["b"] >= 3
        )
        assert max(c["b"] for c in reachable) == 3

    def test_find_path_returns_shortest_witness(self, doubling_net):
        path = doubling_net.find_path(from_counts(i=4), from_counts(p=4))
        assert path is not None
        assert len(path) == 2
        assert doubling_net.fire_word(from_counts(i=4), path) == from_counts(p=4)

    def test_find_path_identity(self, doubling_net):
        assert doubling_net.find_path(from_counts(i=2), from_counts(i=2)) == []

    def test_find_path_unreachable(self, doubling_net):
        assert doubling_net.find_path(from_counts(i=1), from_counts(p=1)) is None

    def test_is_reachable(self, doubling_net):
        assert doubling_net.is_reachable(from_counts(i=2), from_counts(p=2))
        assert not doubling_net.is_reachable(from_counts(i=1), from_counts(p=1))

    def test_find_covering_path(self, spawn_net):
        path = spawn_net.find_covering_path(from_counts(a=1), from_counts(b=3), max_nodes=100)
        assert path is not None
        assert len(path) == 3

    def test_find_covering_path_already_covering(self, spawn_net):
        assert spawn_net.find_covering_path(from_counts(a=1, b=5), from_counts(b=3)) == []

    def test_reachability_respects_additivity(self, doubling_net):
        # alpha ->* beta implies alpha + rho ->* beta + rho.
        padding = from_counts(i=1, p=3)
        assert doubling_net.is_reachable(from_counts(i=2) + padding, from_counts(p=2) + padding)


class TestDescribe:
    def test_describe_mentions_every_transition(self, doubling_net):
        text = doubling_net.describe()
        assert "fwd" in text and "bwd" in text
