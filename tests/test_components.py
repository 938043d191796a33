"""Unit tests for repro.analysis.components (Section 6) and reachability helpers."""

import random

import pytest

from repro.analysis import (
    bottom_component,
    component_of,
    enumerate_configurations,
    enumerate_configurations_up_to,
    find_bottom_witness,
    lemma_6_2_word_bound,
    shortest_distances,
    theorem_6_1_bound,
)
from repro.analysis.components import theorem_6_1_bound_log2
from repro.core import (
    Configuration,
    ExplorationLimitError,
    PetriNet,
    Transition,
    from_counts,
    pairwise,
)
from repro.protocols.example_4_2 import STATE_I, STATE_I_BAR, example_4_2_petri_net


@pytest.fixture
def swap_net():
    return PetriNet(
        [
            pairwise(("i", "i"), ("p", "p"), name="fwd"),
            pairwise(("p", "p"), ("i", "i"), name="bwd"),
        ]
    )


@pytest.fixture
def one_way_net():
    return PetriNet([pairwise(("i", "i"), ("p", "p"), name="fwd")])


class TestEnumeration:
    def test_enumerate_exact_size(self):
        configurations = list(enumerate_configurations(["a", "b"], 2))
        assert len(configurations) == 3  # (2,0), (1,1), (0,2)
        assert all(c.size == 2 for c in configurations)

    def test_enumerate_up_to(self):
        configurations = list(enumerate_configurations_up_to(["a", "b"], 2))
        assert len(configurations) == 6  # sizes 0,1,2 -> 1+2+3

    def test_enumerate_no_states(self):
        assert list(enumerate_configurations([], 0)) == [from_counts()]
        assert list(enumerate_configurations([], 3)) == []


class TestGraphHelpers:
    def test_shortest_distances(self, swap_net):
        graph = swap_net.reachability_graph([from_counts(i=4)])
        distances = shortest_distances(graph, from_counts(i=4))
        assert distances[from_counts(i=4)] == 0
        assert distances[from_counts(p=4)] == 2

    def test_shortest_distances_missing_root(self, swap_net):
        graph = swap_net.reachability_graph([from_counts(i=2)])
        assert shortest_distances(graph, from_counts(i=100)) == {}


class TestComponents:
    def test_component_of_reversible_net(self, swap_net):
        component = component_of(swap_net, from_counts(i=2))
        assert component == {from_counts(i=2), from_counts(p=2)}

    def test_component_of_irreversible_net(self, one_way_net):
        assert component_of(one_way_net, from_counts(i=2)) == {from_counts(i=2)}

    def test_is_bottom_for_reversible_net(self, swap_net):
        assert bottom_component(swap_net, from_counts(i=2)) == {from_counts(i=2), from_counts(p=2)}

    def test_is_not_bottom_when_an_escape_exists(self, one_way_net):
        assert bottom_component(one_way_net, from_counts(i=2)) is None
        # The sink configuration is bottom.
        assert bottom_component(one_way_net, from_counts(p=2)) == {from_counts(p=2)}

    def test_deadlock_is_bottom(self, one_way_net):
        assert bottom_component(one_way_net, from_counts(i=1)) == {from_counts(i=1)}
        # The root alone never spends a budget, as in component_of.
        assert bottom_component(one_way_net, from_counts(i=1), max_nodes=0) == {from_counts(i=1)}
        assert component_of(one_way_net, from_counts(i=1), max_nodes=0) == {from_counts(i=1)}

    def test_a_configuration_that_pumps_is_not_bottom_within_the_budget(self):
        # a -> a + b reaches a + b > a at once: the closure is infinite, and
        # the bottom test says so before the budget runs out, while the
        # component still needs the whole closure.
        net = PetriNet([Transition({"a": 1}, {"a": 1, "b": 1}, name="spawn")])
        assert bottom_component(net, from_counts(a=1), max_nodes=50) is None
        with pytest.raises(ExplorationLimitError):
            component_of(net, from_counts(a=1), max_nodes=50)

    def test_a_closure_that_drifts_away_still_spends_the_budget(self):
        # a -> b, b -> b + c: infinite, but nothing reachable is above a.
        net = PetriNet(
            [Transition({"a": 1}, {"b": 1}, name="t"), Transition({"b": 1}, {"b": 1, "c": 1}, name="u")]
        )
        with pytest.raises(ExplorationLimitError):
            bottom_component(net, from_counts(a=1), max_nodes=20)


def _random_multiset(rng, states, min_size, max_size):
    counts = {}
    for _ in range(rng.randint(min_size, max_size)):
        state = rng.choice(states)
        counts[state] = counts.get(state, 0) + 1
    return Configuration(counts)


class TestComponentsOnRandomConservativeNets:
    """On conservative nets (finite closures, nothing reachable above
    ``rho``) both searches match the definitions, checked with
    ``reachable_set`` and ``is_reachable``; a budget below the closure's size
    raises and one equal to it does not."""

    def test_component_and_bottom_test_match_the_definitions(self):
        rng = random.Random(6)
        outcomes = set()
        for case in range(80):
            states = [f"s{i}" for i in range(rng.randint(2, 4))]
            transitions = []
            for t in range(rng.randint(2, 6)):
                pre = _random_multiset(rng, states, 1, 2)
                post = _random_multiset(rng, states, pre.size, pre.size)
                transitions.append(Transition(pre, post, name=f"t{t}"))
            net = PetriNet(transitions, states=states)
            rho = _random_multiset(rng, states, 1, 4)

            closure = net.reachable_set([rho])
            returning = {beta for beta in closure if net.is_reachable(beta, rho)}
            expected = returning if returning == closure else None
            assert component_of(net, rho) == returning, case
            assert bottom_component(net, rho) == expected, case
            assert component_of(net, rho, max_nodes=len(closure)) == returning, case
            assert bottom_component(net, rho, max_nodes=len(closure)) == expected, case
            if len(closure) > 1:
                for search in (component_of, bottom_component):
                    with pytest.raises(ExplorationLimitError):
                        search(net, rho, max_nodes=len(closure) - 1)
            outcomes.add((expected is None, len(returning) > 1, len(closure) > 1))
        # Both answers, one-element and larger components, trivial and larger closures.
        assert outcomes >= {(True, False, True), (True, True, True), (False, False, False), (False, True, True)}


class TestBottomWitness:
    def test_witness_on_reversible_net(self, swap_net):
        witness = find_bottom_witness(swap_net, from_counts(i=2), max_nodes=1000)
        assert witness is not None
        assert witness.check(swap_net, from_counts(i=2))

    def test_witness_on_irreversible_net(self, one_way_net):
        witness = find_bottom_witness(one_way_net, from_counts(i=3), max_nodes=1000)
        assert witness is not None
        assert witness.check(one_way_net, from_counts(i=3))

    def test_witness_on_growing_net(self):
        # a -> a + b: the bottom part is Q = {a} (the component of a alone),
        # and b can be pumped.
        net = PetriNet([Transition({"a": 1}, {"a": 1, "b": 1}, name="spawn")])
        witness = find_bottom_witness(net, from_counts(a=1), max_nodes=200)
        assert witness is not None
        assert witness.alpha.agrees_on(witness.beta, witness.places)
        outside = set(net.states) - set(witness.places)
        for state in outside:
            assert witness.alpha[state] < witness.beta[state]

    def test_check_compares_the_component(self, swap_net):
        witness = find_bottom_witness(swap_net, from_counts(i=2), max_nodes=1000)
        assert witness.check(swap_net, from_counts(i=2))
        witness.component = set()
        assert not witness.check(swap_net, from_counts(i=2))

    @pytest.mark.parametrize("leaders", [1, 2, 3])
    def test_example_4_2_restricted_as_in_experiment_e6(self, leaders):
        base = example_4_2_petri_net()
        net = base.restrict([state for state in base.states if state != STATE_I])
        origin = Configuration({STATE_I_BAR: leaders})
        witness = find_bottom_witness(net, origin)
        assert witness is not None
        assert len(witness.sigma) == leaders
        assert len(witness.pump) == 0
        assert len(witness.places) == 5
        assert witness.component_size == 1
        assert witness.check(net, origin)

    def test_witness_sizes_below_theorem_bound(self, swap_net):
        witness = find_bottom_witness(swap_net, from_counts(i=2), max_nodes=1000)
        bound = theorem_6_1_bound(swap_net, from_counts(i=2))
        assert len(witness.sigma) <= bound
        assert len(witness.pump) <= bound
        assert witness.component_size <= bound


class TestBounds:
    def test_theorem_bound_positive_and_monotone(self, swap_net):
        small = theorem_6_1_bound(swap_net, from_counts(i=1))
        large = theorem_6_1_bound(swap_net, from_counts(i=5))
        assert 1 <= small <= large

    def test_log_bound_matches_exact_bound_for_small_nets(self, swap_net):
        import math

        exact = theorem_6_1_bound(swap_net, from_counts(i=1))
        approx = theorem_6_1_bound_log2(swap_net, from_counts(i=1))
        assert math.isclose(math.log2(exact), approx, rel_tol=1e-9)

    def test_empty_net_bound(self):
        assert theorem_6_1_bound(PetriNet(), from_counts()) == 1
        assert theorem_6_1_bound_log2(PetriNet(), from_counts()) == 0.0

    def test_lemma_6_2_word_bound(self, swap_net):
        bound = lemma_6_2_word_bound(swap_net, from_counts(i=2), component_size=2, remaining_places=1)
        assert bound >= 1
        assert lemma_6_2_word_bound(swap_net, from_counts(i=2), 3, 0) == 3
