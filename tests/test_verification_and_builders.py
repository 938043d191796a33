"""Unit tests for repro.analysis.verification and repro.protocols.builders."""

import pytest

from repro.analysis import check_protocol, find_counterexample, verify_input
from repro.core import (
    OUTPUT_ONE,
    OUTPUT_UNDEFINED,
    OUTPUT_ZERO,
    Configuration,
    counting,
    from_counts,
)
from repro.protocols import (
    ProtocolBuilder,
    flock_of_birds_predicate,
    flock_of_birds_protocol,
    majority_predicate,
    majority_protocol,
)


class TestProtocolBuilder:
    def test_build_minimal_protocol(self):
        builder = ProtocolBuilder(name="two-meet")
        builder.add_rule(("i", "i"), ("p", "p"))
        builder.add_rule(("p", "i"), ("p", "p"))
        builder.set_initial_states(["i"])
        builder.set_output("i", OUTPUT_ZERO)
        builder.set_output("p", OUTPUT_ONE)
        protocol = builder.build()
        assert protocol.num_states == 2
        assert protocol.width == 2
        report = check_protocol(protocol, counting("i", 2), max_agents=4)
        assert report.all_correct

    def test_missing_initial_states_rejected(self):
        builder = ProtocolBuilder()
        builder.add_rule(("a", "a"), ("b", "b"))
        builder.set_default_output(OUTPUT_ZERO)
        with pytest.raises(ValueError):
            builder.build()

    def test_missing_outputs_rejected(self):
        builder = ProtocolBuilder()
        builder.add_rule(("a", "a"), ("b", "b"))
        builder.set_initial_states(["a"])
        builder.set_output("a", OUTPUT_ZERO)
        with pytest.raises(ValueError):
            builder.build()

    def test_default_output_fills_gaps(self):
        builder = ProtocolBuilder()
        builder.add_rule(("a", "a"), ("b", "b"))
        builder.set_initial_states(["a"])
        builder.set_output("b", OUTPUT_ONE)
        builder.set_default_output(OUTPUT_ZERO)
        protocol = builder.build()
        assert protocol.output["a"] == OUTPUT_ZERO
        assert protocol.output["b"] == OUTPUT_ONE

    def test_leaders_and_wide_transitions(self):
        builder = ProtocolBuilder(name="wide")
        builder.add_transition({"i": 3}, {"p": 3}, name="triple")
        builder.set_leaders({"L": 2})
        builder.set_initial_states(["i"])
        builder.set_outputs({"i": OUTPUT_ZERO, "p": OUTPUT_ONE, "L": OUTPUT_UNDEFINED})
        protocol = builder.build()
        assert protocol.width == 3
        assert protocol.num_leaders == 2
        assert protocol.num_states == 3

    def test_add_state_and_states(self):
        builder = ProtocolBuilder()
        builder.add_state("x", OUTPUT_ZERO)
        builder.add_states(["y", "z"])
        builder.add_rule(("x", "x"), ("y", "z"))
        builder.set_initial_states(["x"])
        builder.set_default_output(OUTPUT_ZERO)
        protocol = builder.build()
        assert protocol.num_states == 3


class TestVerification:
    def test_verify_input_reports_exploration_size(self):
        protocol = flock_of_birds_protocol(2)
        verdict = verify_input(protocol, from_counts(**{}), expected=0)
        assert verdict.correct
        assert verdict.explored >= 1

    def test_verify_input_detects_wrong_expectation(self):
        protocol = flock_of_birds_protocol(2)
        verdict = verify_input(protocol, protocol.counting_input(3), expected=0)
        assert not verdict.correct
        assert verdict.computed == 1

    def test_check_protocol_with_explicit_inputs(self):
        protocol = flock_of_birds_protocol(3)
        inputs = [protocol.counting_input(k) for k in (1, 3, 5)]
        report = check_protocol(
            protocol, flock_of_birds_predicate(3), max_agents=0, inputs=inputs
        )
        assert report.num_inputs == 3
        assert report.all_correct

    def test_report_summary_mentions_failures(self):
        protocol = flock_of_birds_protocol(2)
        # Deliberately check against the wrong predicate to exercise failures.
        report = check_protocol(protocol, counting(1, 3), max_agents=3)
        assert report.num_failures > 0
        assert "FAIL" in report.summary()
        assert len(report.failures()) == report.num_failures

    def test_find_counterexample_returns_first_failure(self):
        protocol = flock_of_birds_protocol(2)
        counterexample = find_counterexample(protocol, counting(1, 3), max_agents=4)
        assert counterexample is not None
        assert not counterexample.correct

    def test_find_counterexample_none_for_correct_protocol(self):
        protocol = flock_of_birds_protocol(2)
        assert (
            find_counterexample(protocol, flock_of_birds_predicate(2), max_agents=4) is None
        )

    def test_check_protocol_refuses_a_negative_agent_bound(self):
        # It used to check no input at all and report a pass.
        with pytest.raises(ValueError, match="max_agents"):
            check_protocol(majority_protocol(), majority_predicate(), max_agents=-1)

    def test_find_counterexample_refuses_a_negative_agent_bound(self):
        with pytest.raises(ValueError, match="max_agents"):
            find_counterexample(majority_protocol(), majority_predicate(), max_agents=-1)

    def test_verification_requires_petri_net_protocol(self):
        from repro.core import Protocol, RelationPreorder, zero

        protocol = Protocol(
            states=["i"],
            preorder=RelationPreorder(lambda a, b: a == b),
            leaders=zero(),
            initial_states=["i"],
            output={"i": OUTPUT_ZERO},
        )
        with pytest.raises(ValueError):
            verify_input(protocol, from_counts(i=1), expected=0)
