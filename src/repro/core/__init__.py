"""Core model of the paper: configurations, Petri nets, protocols, predicates.

This subpackage implements Sections 2–4 of Leroux, *State Complexity of
Protocols With Leaders* (PODC 2022): configurations as multisets of states,
transitions and Petri nets, additive preorders, population protocols with
leaders, counting predicates, and the output-stability / stable-computation
semantics.
"""

from .configuration import Configuration, State, from_counts, from_sequence, unit, zero
from .petrinet import ExplorationLimitError, PetriNet, ReachabilityGraph, breadth_first, word_to
from .predicates import (
    AndPredicate,
    ConstantPredicate,
    CountingPredicate,
    ModuloPredicate,
    NotPredicate,
    OrPredicate,
    Predicate,
    ThresholdPredicate,
    counting,
)
from .preorder import AdditivePreorder, PetriNetPreorder, RelationPreorder
from .protocol import OUTPUT_ONE, OUTPUT_UNDEFINED, OUTPUT_ZERO, Output, Protocol
from .semantics import (
    DenseReachabilityGraph,
    always_eventually_stable,
    is_output_stable,
    output_stable_nodes,
    stable_consensus_value,
)
from .transition import Transition, displacement_of_word, pairwise, word_width

__all__ = [
    "Configuration",
    "State",
    "unit",
    "zero",
    "from_counts",
    "from_sequence",
    "Transition",
    "pairwise",
    "displacement_of_word",
    "word_width",
    "PetriNet",
    "ReachabilityGraph",
    "ExplorationLimitError",
    "breadth_first",
    "word_to",
    "AdditivePreorder",
    "PetriNetPreorder",
    "RelationPreorder",
    "Protocol",
    "Output",
    "OUTPUT_ZERO",
    "OUTPUT_ONE",
    "OUTPUT_UNDEFINED",
    "Predicate",
    "CountingPredicate",
    "ThresholdPredicate",
    "ModuloPredicate",
    "NotPredicate",
    "AndPredicate",
    "OrPredicate",
    "ConstantPredicate",
    "counting",
    "DenseReachabilityGraph",
    "is_output_stable",
    "output_stable_nodes",
    "always_eventually_stable",
    "stable_consensus_value",
]
