"""Succinct protocols for counting predicates (the Blondin–Esparza–Jaax baselines).

The paper's lower bound is measured against the upper bounds of Blondin,
Esparza & Jaax (STACS 2018):

* **leaderless, O(log n) states** — reproduced here by
  :func:`succinct_leaderless_protocol`, a binary-representation protocol:
  agents carry values that are powers of two (consolidated by doubling), a
  "collector" chain absorbs the binary digits of ``n`` from the most
  significant one down, and an accepting state is produced exactly when value
  at least ``n`` has been assembled.  The construction below is a
  correct-by-construction variant of the BEJ protocol (a deliberate
  substitution): it adds the reverse of every value-conserving rule, which
  keeps the state count at ``O(log n)`` while making the completeness argument
  (and the exhaustive verification in the test suite) straightforward.

* **with leaders, O(log log n) states for infinitely many n** — the BEJ
  construction relies on leader-driven multiplication gadgets; it is
  represented here by its *state-count model*
  (:func:`bej_with_leaders_state_count`, :func:`bej_family_threshold`) which is
  what the comparison experiments (E1, E3) consume, together with the paper's
  own Example 4.2 as the concrete with-leaders protocol.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..core.configuration import Configuration
from ..core.predicates import CountingPredicate
from ..core.protocol import OUTPUT_ONE, OUTPUT_ZERO, Protocol
from .builders import ProtocolBuilder

__all__ = [
    "ZERO_STATE",
    "ACCEPT_STATE",
    "value_state",
    "collector_state",
    "succinct_initial_state",
    "succinct_leaderless_protocol",
    "succinct_leaderless_predicate",
    "succinct_leaderless_state_count",
    "bej_family_threshold",
    "bej_with_leaders_state_count",
]

ZERO_STATE = "zero"
ACCEPT_STATE = "F"


def value_state(value: int) -> Tuple[str, int]:
    """The state of an agent carrying the power-of-two ``value``."""
    return ("v", value)


def collector_state(value: int) -> Tuple[str, int]:
    """The state of the collector holding the partial sum ``value`` of ``n``'s digits."""
    return ("c", value)


def succinct_initial_state() -> Tuple[str, int]:
    """The initial state: an agent carrying value 1."""
    return value_state(1)


def succinct_leaderless_predicate(threshold: int) -> CountingPredicate:
    """The counting predicate the succinct protocol stably computes."""
    return CountingPredicate(succinct_initial_state(), threshold)


def _collector_values(threshold: int) -> List[int]:
    """The proper partial sums of ``threshold``'s binary digits (top-down).

    Excludes the leading power of two (already a value state) and the final
    sum ``threshold`` itself (the accepting state).
    """
    k = threshold.bit_length() - 1
    values: List[int] = []
    current = 1 << k
    for j in range(k - 1, -1, -1):
        if (threshold >> j) & 1:
            current += 1 << j
            if current < threshold:
                values.append(current)
    return values


def succinct_leaderless_state_count(threshold: int) -> int:
    """The number of states of :func:`succinct_leaderless_protocol` (O(log n))."""
    if threshold == 1:
        return 2
    k = threshold.bit_length() - 1
    if threshold == (1 << k):
        # powers 1..2^{k-1}, the zero state and the accepting state.
        return k + 2
    # powers 1..2^k, the proper collectors, the zero state and the accepting state.
    return (k + 1) + len(_collector_values(threshold)) + 2


def succinct_leaderless_protocol(threshold: int, name: Optional[str] = None) -> Protocol:
    """A leaderless, width-2, ``O(log n)``-state protocol for ``x >= threshold``.

    Construction (value of a configuration = sum of the numeric values carried
    by its agents; every rule except acceptance and output propagation
    conserves it):

    * doubling and its reverse:  ``(2^j, 2^j) <-> (2^{j+1}, zero)`` for
      ``j < k`` where ``k = floor(log2 threshold)``,
    * digit absorption and its reverse along the binary representation of
      ``threshold`` (a collector that has assembled the leading digits absorbs
      the next one),
    * acceptance: the last absorption (total exactly ``threshold``) and the
      overflow rule ``(2^k, 2^k) -> (F, zero)`` (total ``2^{k+1} > threshold``),
    * output propagation ``(F, y) -> (F, F)``.

    The accepting state is produced only when the assembled value reaches
    ``threshold``; conversely, from any configuration of total value at least
    ``threshold``, the reversibility of the value-conserving rules lets the
    agents re-distribute their values and assemble ``threshold`` exactly.
    """
    if threshold < 1:
        raise ValueError("the threshold must be at least 1")
    name = name or f"succinct-leaderless(n={threshold})"
    builder = ProtocolBuilder(name=name)
    initial = succinct_initial_state()
    builder.set_initial_states([initial])

    if threshold == 1:
        # x >= 1: a single agent can accept on its own (width-1 transition).
        builder.add_transition({initial: 1}, {ACCEPT_STATE: 1}, name="accept_single")
        builder.add_rule((ACCEPT_STATE, initial), (ACCEPT_STATE, ACCEPT_STATE), name="prop_v1")
        builder.set_output(initial, OUTPUT_ZERO)
        builder.set_output(ACCEPT_STATE, OUTPUT_ONE)
        return builder.build()

    k = threshold.bit_length() - 1
    is_power_of_two = threshold == (1 << k)
    # For a power-of-two threshold, the top power *is* the threshold: doubling
    # two halves accepts directly, and no collector chain is needed.
    top_power_exponent = k - 1 if is_power_of_two else k
    powers = [1 << j for j in range(top_power_exponent + 1)]
    collectors = [] if is_power_of_two else _collector_values(threshold)

    # Doubling rules and their reverses.
    for j in range(top_power_exponent):
        small = value_state(1 << j)
        big = value_state(1 << (j + 1))
        builder.add_rule((small, small), (big, ZERO_STATE), name=f"double_{1 << j}")
        builder.add_rule((big, ZERO_STATE), (small, small), name=f"split_{1 << (j + 1)}")

    if is_power_of_two:
        # Two agents carrying threshold/2 assemble the threshold exactly.
        half = value_state(1 << (k - 1))
        builder.add_rule((half, half), (ACCEPT_STATE, ZERO_STATE), name="accept_double_top")
    else:
        # Digit-absorption chain along the binary representation of the threshold.
        current_value = 1 << k
        current_state = value_state(current_value)
        for j in range(k - 1, -1, -1):
            if not (threshold >> j) & 1:
                continue
            digit_state = value_state(1 << j)
            next_value = current_value + (1 << j)
            if next_value == threshold:
                builder.add_rule(
                    (current_state, digit_state), (ACCEPT_STATE, ZERO_STATE),
                    name=f"accept_absorb_{next_value}",
                )
            else:
                next_state = collector_state(next_value)
                builder.add_rule(
                    (current_state, digit_state), (next_state, ZERO_STATE),
                    name=f"absorb_{next_value}",
                )
                builder.add_rule(
                    (next_state, ZERO_STATE), (current_state, digit_state),
                    name=f"release_{next_value}",
                )
                current_state = next_state
                current_value = next_value

        # Overflow acceptance: two top tokens exceed the threshold.
        top = value_state(1 << k)
        builder.add_rule((top, top), (ACCEPT_STATE, ZERO_STATE), name="accept_overflow")

    # Output propagation.
    all_states = (
        [value_state(p) for p in powers]
        + [collector_state(c) for c in collectors]
        + [ZERO_STATE]
    )
    for state in all_states:
        builder.add_rule((ACCEPT_STATE, state), (ACCEPT_STATE, ACCEPT_STATE), name=f"prop_{state}")

    for state in all_states:
        builder.set_output(state, OUTPUT_ZERO)
    builder.set_output(ACCEPT_STATE, OUTPUT_ONE)
    return builder.build()


# ----------------------------------------------------------------------
# The with-leaders O(log log n) family (analytic model)
# ----------------------------------------------------------------------
def bej_family_threshold(level: int) -> int:
    """The ``level``-th member of the succinct family: ``n = 2^(2^level)``."""
    if level < 0:
        raise ValueError("the family level must be non-negative")
    return 2 ** (2 ** level)


def bej_with_leaders_state_count(threshold: int, constant: int = 4) -> int:
    """The state count of the BEJ with-leaders protocol for family thresholds.

    For ``n = 2^(2^m)`` the construction uses ``Theta(m) = Theta(log log n)``
    states; the default multiplicative constant 4 reflects the handful of
    bookkeeping states per squaring level.  This analytic model is the
    documented substitution for the full construction (see module docstring).
    """
    if threshold < 4:
        return constant
    return constant * max(int(math.ceil(math.log2(math.log2(threshold)))), 1)
