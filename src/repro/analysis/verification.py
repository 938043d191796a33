"""Verification of protocols on bounded populations.

Deciding whether a protocol stably computes a predicate for *all* inputs is
the well-specification problem, which is Ackermann-complete in general (see
the paper's introduction).  The experiments only need exactness on bounded
populations: this module exhaustively checks the stable-computation condition
of Section 2 for every input configuration up to a given number of agents,
using the explicit reachability graph of
:class:`repro.core.semantics.DenseReachabilityGraph`, which packs each
configuration into one int and propagates output stability on node ids.
:func:`check_protocol` hands all its inputs to
:func:`repro.core.semantics.stable_values`, which searches them in one
native call when the library loads.

The main entry points are:

* :func:`check_protocol` — verify a protocol against a predicate for all
  inputs of size at most ``max_agents``; returns a detailed report,
* :func:`find_counterexample` — stop at the first violated input,
* :class:`VerificationReport` / :class:`InputVerdict` — structured results
  consumed by the tests and the E8 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..core.configuration import Configuration
from ..core.predicates import Predicate
from ..core.protocol import Protocol
from ..core.semantics import DenseReachabilityGraph, stable_values
from .reachability import enumerate_configurations_up_to

__all__ = [
    "InputVerdict",
    "VerificationReport",
    "verify_input",
    "check_protocol",
    "find_counterexample",
]


@dataclass
class InputVerdict:
    """The outcome of checking a single input configuration.

    Attributes
    ----------
    inputs:
        The input configuration ``rho in N^I``.
    expected:
        The predicate value ``phi(rho)``.
    computed:
        The value the protocol stably computes on this input, or ``None`` if
        it does not stabilize to a consensus (ill-specified input).
    correct:
        ``computed == expected``.
    explored:
        The number of configurations explored for this input.
    """

    inputs: Configuration
    expected: int
    computed: Optional[int]
    correct: bool
    explored: int

    def __repr__(self) -> str:
        status = "ok" if self.correct else "FAIL"
        return (
            f"InputVerdict({self.inputs.pretty()}: expected={self.expected}, "
            f"computed={self.computed}, {status})"
        )


@dataclass
class VerificationReport:
    """Aggregate result of :func:`check_protocol`."""

    protocol_name: str
    max_agents: int
    verdicts: List[InputVerdict] = field(default_factory=list)

    @property
    def num_inputs(self) -> int:
        """The number of input configurations checked."""
        return len(self.verdicts)

    @property
    def num_failures(self) -> int:
        """The number of inputs on which the protocol is wrong or ill-specified."""
        return sum(1 for verdict in self.verdicts if not verdict.correct)

    @property
    def all_correct(self) -> bool:
        """True if the protocol stably computes the predicate on every checked input."""
        return self.num_failures == 0

    @property
    def total_explored(self) -> int:
        """Total number of configurations explored over all inputs."""
        return sum(verdict.explored for verdict in self.verdicts)

    def failures(self) -> List[InputVerdict]:
        """The verdicts of the failing inputs."""
        return [verdict for verdict in self.verdicts if not verdict.correct]

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "PASS" if self.all_correct else "FAIL"
        return (
            f"[{status}] {self.protocol_name}: {self.num_inputs} inputs up to "
            f"{self.max_agents} agents, {self.num_failures} failures, "
            f"{self.total_explored} configurations explored"
        )


def verify_input(
    protocol: Protocol,
    inputs: Configuration,
    expected: int,
    max_nodes: Optional[int] = None,
) -> InputVerdict:
    """Check the stable-computation condition for a single input configuration.

    The protocol must be Petri-net based.  The reachability graph from the
    initial configuration ``rho_L + inputs|_P`` is built explicitly, one int
    per configuration with a bit field per state
    (:class:`~repro.core.semantics.DenseReachabilityGraph`), and the paper's
    condition — from every reachable configuration, a
    ``phi(rho)``-output-stable configuration remains reachable — is evaluated
    exactly on that graph.
    """
    root = protocol.initial_configuration(inputs)
    graph = DenseReachabilityGraph(protocol, root, max_nodes)
    computed = graph.stable_value()
    return InputVerdict(
        inputs=inputs,
        expected=expected,
        computed=computed,
        correct=(computed == expected),
        explored=len(graph),
    )


def check_protocol(
    protocol: Protocol,
    predicate: Predicate,
    max_agents: int,
    max_nodes: Optional[int] = None,
    inputs: Optional[Iterable[Configuration]] = None,
) -> VerificationReport:
    """Verify that ``protocol`` stably computes ``predicate`` on bounded inputs.

    Parameters
    ----------
    protocol:
        The protocol under test (must be Petri-net based).
    predicate:
        The predicate it is supposed to stably compute.
    max_agents:
        Check every input configuration with at most this many agents
        (ignored when ``inputs`` is supplied).
    max_nodes:
        Optional per-input exploration budget.
    inputs:
        Optional explicit iterable of input configurations to check instead
        of the exhaustive enumeration; it is read once.

    Where the native library loads, every input's initial configuration is
    searched in one call (:func:`~repro.core.semantics.stable_values`) and
    only the inputs whose counts outgrow that batch's bit fields go through
    :func:`verify_input`.  Without the library, or when the largest input's
    configurations need more than 64 bits, each input goes through
    :func:`verify_input`.  Either way the verdicts are the same.  Raises
    :class:`ValueError` for a negative ``max_agents``.
    """
    _check_max_agents(max_agents)
    report = VerificationReport(
        protocol_name=protocol.name or repr(protocol), max_agents=max_agents
    )
    if inputs is None:
        inputs = enumerate_configurations_up_to(
            sorted(protocol.initial_states, key=str), max_agents
        )
    configurations = list(inputs)
    found = stable_values(protocol, configurations, max_nodes) or [None] * len(configurations)
    for configuration, outcome in zip(configurations, found):
        expected = predicate.evaluate(configuration)
        if outcome is None:
            verdict = verify_input(protocol, configuration, expected, max_nodes=max_nodes)
        else:
            computed, explored = outcome
            verdict = InputVerdict(
                configuration, expected, computed, computed == expected, explored
            )
        report.verdicts.append(verdict)
    return report


def find_counterexample(
    protocol: Protocol,
    predicate: Predicate,
    max_agents: int,
    max_nodes: Optional[int] = None,
) -> Optional[InputVerdict]:
    """Return the first failing input, or ``None`` if every bounded input passes.

    Raises :class:`ValueError` for a negative ``max_agents``.
    """
    _check_max_agents(max_agents)
    initial_states = sorted(protocol.initial_states, key=str)
    for configuration in enumerate_configurations_up_to(initial_states, max_agents):
        expected = predicate.evaluate(configuration)
        verdict = verify_input(protocol, configuration, expected, max_nodes=max_nodes)
        if not verdict.correct:
            return verdict
    return None


def _check_max_agents(max_agents: int) -> None:
    """Refuse a negative agent bound, which would check no input at all."""
    if max_agents < 0:
        raise ValueError(f"max_agents must be at least 0, got {max_agents}")
