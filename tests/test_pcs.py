"""Unit tests for repro.controlstates.pcs."""

import pytest

from repro.controlstates import ControlStatePetriNet, Edge, component_control_net
from repro.core import PetriNet, Transition, from_counts, pairwise


@pytest.fixture
def ring_net():
    """A three-state token ring as a Petri net plus its control-state view."""
    transitions = [
        Transition({"r0": 1}, {"r1": 1}, name="t01"),
        Transition({"r1": 1}, {"r2": 1}, name="t12"),
        Transition({"r2": 1}, {"r0": 1}, name="t20"),
    ]
    net = PetriNet(transitions)
    configurations = [from_counts(r0=1), from_counts(r1=1), from_counts(r2=1)]
    control = component_control_net(net, configurations)
    return net, control


class TestEdge:
    def test_displacement_comes_from_transition(self):
        transition = Transition({"a": 1}, {"b": 1})
        edge = Edge("s", transition, "s'")
        assert edge.displacement() == {"a": -1, "b": 1}

    def test_equality_and_hash(self):
        transition = Transition({"a": 1}, {"b": 1})
        assert Edge("s", transition, "t") == Edge("s", transition, "t")
        assert hash(Edge("s", transition, "t")) == hash(Edge("s", transition, "t"))
        assert Edge("s", transition, "t") != Edge("s", transition, "u")


class TestControlStatePetriNet:
    def test_requires_a_control_state(self):
        with pytest.raises(ValueError):
            ControlStatePetriNet([], PetriNet(), [])

    def test_edge_endpoints_must_be_control_states(self):
        transition = Transition({"a": 1}, {"b": 1})
        net = PetriNet([transition])
        with pytest.raises(ValueError):
            ControlStatePetriNet(["s"], net, [Edge("s", transition, "unknown")])

    def test_edge_transition_must_belong_to_net(self):
        transition = Transition({"a": 1}, {"b": 1})
        other = Transition({"x": 1}, {"y": 1})
        net = PetriNet([transition])
        with pytest.raises(ValueError):
            ControlStatePetriNet(["s"], net, [Edge("s", other, "s")])

    def test_measures(self, ring_net):
        _, control = ring_net
        assert control.num_control_states == 3
        assert control.num_edges == 3

    def test_outgoing(self, ring_net):
        _, control = ring_net
        (edge,) = control.outgoing(from_counts(r0=1))
        assert edge.target == from_counts(r1=1)

    def test_find_path(self, ring_net):
        _, control = ring_net
        path = control.find_path(from_counts(r0=1), from_counts(r2=1))
        assert path is not None
        assert len(path) == 2
        assert control.is_path(path)

    def test_chained_path_with_an_edge_outside_the_net_is_not_a_path(self, ring_net):
        net, control = ring_net
        first = control.outgoing(from_counts(r0=1))[0]
        # t01 does not lead r1 to r2, so this edge is not in E.
        stray = Edge(from_counts(r1=1), net.transitions[0], from_counts(r2=1))
        assert control.is_path([first, stray]) is False

    def test_edges_that_do_not_chain_are_not_a_path(self, ring_net):
        _, control = ring_net
        first, second, third = control.edges
        assert control.is_path([first, second, third])
        assert control.is_path([first, third]) is False

    def test_find_path_to_self_is_empty(self, ring_net):
        _, control = ring_net
        assert control.find_path(from_counts(r0=1), from_counts(r0=1)) == []

    def test_strong_connectivity_of_ring(self, ring_net):
        _, control = ring_net
        assert control.is_strongly_connected()

    def test_chain_is_not_strongly_connected(self):
        transitions = [Transition({"a": 1}, {"b": 1}, name="t")]
        net = PetriNet(transitions)
        control = component_control_net(net, [from_counts(a=1), from_counts(b=1)])
        assert not control.is_strongly_connected()

    def test_single_control_state_is_strongly_connected(self):
        net = PetriNet([Transition({"a": 1}, {"a": 1})])
        control = component_control_net(net, [from_counts(a=1)])
        assert control.is_strongly_connected()



class TestComponentControlNet:
    def test_edges_follow_restricted_firing(self):
        net = PetriNet(
            [
                pairwise(("i", "i"), ("p", "p"), name="fwd"),
                pairwise(("p", "p"), ("i", "i"), name="bwd"),
            ]
        )
        component = [from_counts(i=2), from_counts(p=2)]
        control = component_control_net(net, component)
        assert control.num_edges == 2
        assert control.is_strongly_connected()

    def test_restriction_argument(self):
        net = PetriNet([pairwise(("i", "x"), ("p", "x"), name="t")])
        # Restricted to {i, p}, the transition no longer needs the x agent.
        component = [from_counts(i=1), from_counts(p=1)]
        control = component_control_net(net, component, restriction=["i", "p"])
        assert control.num_edges == 1

    def test_edges_leaving_the_component_are_dropped(self):
        net = PetriNet([pairwise(("i", "i"), ("p", "p"), name="t")])
        control = component_control_net(net, [from_counts(i=2)])
        assert control.num_edges == 0
