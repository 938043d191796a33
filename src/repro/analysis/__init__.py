"""Analysis layer: coverability, stability, bottom configurations, verification, bounds.

Implements Sections 5, 6 and 8 of the paper plus the comparison bounds:
Rackoff's coverability bound and decision procedures, the small-value
characterization of stabilized configurations, bottom-configuration search,
exhaustive protocol verification on bounded populations, the Theorem 4.3 /
Corollary 4.4 state-complexity bounds, and the Ackermann hierarchy used by the
Czerner–Esparza comparison.

Two representations keep the exact checks cheap:

* coverability and stabilization queries are membership tests against
  minimal bases of upward-closed sets.  :func:`coverability_basis` runs the
  backward fixpoint once per ``(net, target)`` and :func:`unstabilized_basis`
  takes the union once per set of forbidden states; both are cached on the
  :class:`~repro.core.petrinet.PetriNet` instance and dropped when it is
  pickled;
* :func:`verify_input` / :func:`check_protocol` explore reachability graphs
  with each configuration packed into one int over the net's compiled
  tables and propagate output stability on integer node ids
  (:class:`~repro.core.semantics.DenseReachabilityGraph`).
"""

from .ackermann import (
    ackermann,
    ackermann_level,
    czerner_esparza_lower_bound,
    inverse_ackermann,
)
from .components import (
    BottomWitness,
    bottom_component,
    component_of,
    find_bottom_witness,
    lemma_6_2_word_bound,
    theorem_6_1_bound,
)
from .coverability import (
    OMEGA,
    KarpMillerTree,
    backward_coverability,
    coverability_basis,
    is_coverable,
    rackoff_bound,
    rackoff_stabilization_threshold,
    shortest_covering_word,
)
from .reachability import (
    enumerate_configurations,
    enumerate_configurations_up_to,
    shortest_distances,
)
from .stability import (
    StabilizationCertificate,
    is_stabilized,
    lift_restricted_word,
    stabilization_certificate,
    unstabilized_basis,
    violating_state,
)
from .state_complexity import (
    Section8Constants,
    bej_leaderless_upper_bound,
    bej_upper_bound_with_leaders,
    corollary_4_4_lower_bound,
    max_threshold_for_states,
    max_threshold_for_states_log2_log2,
    min_states_for_threshold,
    section_8_constants,
    section_8_constants_log2,
    theorem_4_3_admits_threshold,
    theorem_4_3_bound,
    theorem_4_3_bound_for_protocol,
    theorem_4_3_holds_for_protocol,
    theorem_4_3_log2_log2_bound,
)
from .verification import (
    InputVerdict,
    VerificationReport,
    check_protocol,
    find_counterexample,
    verify_input,
)

__all__ = [
    "rackoff_bound",
    "rackoff_stabilization_threshold",
    "coverability_basis",
    "backward_coverability",
    "is_coverable",
    "shortest_covering_word",
    "KarpMillerTree",
    "OMEGA",
    "enumerate_configurations",
    "enumerate_configurations_up_to",
    "shortest_distances",
    "unstabilized_basis",
    "is_stabilized",
    "violating_state",
    "StabilizationCertificate",
    "stabilization_certificate",
    "lift_restricted_word",
    "component_of",
    "bottom_component",
    "BottomWitness",
    "find_bottom_witness",
    "theorem_6_1_bound",
    "lemma_6_2_word_bound",
    "theorem_4_3_bound",
    "theorem_4_3_log2_log2_bound",
    "theorem_4_3_admits_threshold",
    "theorem_4_3_bound_for_protocol",
    "theorem_4_3_holds_for_protocol",
    "max_threshold_for_states",
    "max_threshold_for_states_log2_log2",
    "min_states_for_threshold",
    "corollary_4_4_lower_bound",
    "bej_upper_bound_with_leaders",
    "bej_leaderless_upper_bound",
    "Section8Constants",
    "section_8_constants",
    "section_8_constants_log2",
    "ackermann",
    "ackermann_level",
    "inverse_ackermann",
    "czerner_esparza_lower_bound",
    "InputVerdict",
    "VerificationReport",
    "verify_input",
    "check_protocol",
    "find_counterexample",
]
