"""NumPy-vectorized simulation engine for large nets.

The compiled engine (:mod:`repro.simulation.compiled`) unrolls one
straight-line dispatch branch per transition, which is unbeatable for the
small nets of the named protocols but degrades linearly in ``|T|``: every
step walks an ``if``/``elif`` chain of Python comparisons, so beyond a few
hundred transitions the generated code spends most of its time dispatching —
exactly the regime of the paper's succinct-counting constructions, whose
state and transition counts grow with the counted threshold.  Worse, merely
*generating* the stepper for a few thousand transitions means compiling
hundreds of thousands of source lines.

:class:`VectorizedNet` keeps the compiled engine's dense mapping (it is a
:class:`~repro.simulation.compiled.CompiledNet` subclass) but replaces code
generation with array kernels:

* the configuration lives in a dense ``int64`` counts vector,
* the uniform scheduler maintains a full ``int64`` weights vector; transition
  selection is one ``cumsum`` + ``searchsorted`` instead of an unrolled
  branch chain,
* after firing transition ``t`` only the weights of ``affected[t]`` are
  recomputed, through a precomputed flattened CSR *update plan* (the
  pre-entries of every affected transition concatenated, with segment
  boundaries for ``np.multiply.reduceat``) — the same incremental-scheduling
  idea as the compiled engine, vectorized,
* the transition scheduler maintains an enabledness vector the same way
  (``np.bitwise_and.reduceat`` over the update plan).

The engine consumes the random stream with the exact discipline of the
reference and compiled engines — one ``rng.randrange(total)`` per uniform
step, one ``rng.choice(enabled)`` per transition-scheduler step, in the same
transition order — so for a fixed ``(protocol, inputs, seed)`` all three
engines produce bit-identical trajectories; the test suite asserts this
three ways.  Consensus stays O(1) via the same maintained output-class
counters, and ``record_trajectory=True`` appends to the same bounded deque
(memory proportional to min(steps fired, capacity)).

Counts and scheduler weights are held in ``int64``.  Runs whose populations
could make the scheduler-weight total overflow int64 are rejected up front
with :class:`OverflowError` by a conservative static guard (roughly:
population below ``((2**63 - 1) / |T|) ** (1 / max_pre_multiplicity_sum)``,
e.g. ~6e7 agents for a width-2 net with 1000 transitions) — far beyond any
practical simulation, but the compiled engine (arbitrary-precision Python
integers) remains available for such extremes.

NumPy is an optional dependency (the ``sim`` extra).  This module imports
without it; constructing a :class:`VectorizedNet` (or asking for
``engine="numpy"``) raises a clear :class:`ImportError`, and
``engine="auto"`` simply skips the vectorized path.
"""

from __future__ import annotations

from math import factorial
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import random

from ..core.configuration import State
from ..core.petrinet import PetriNet
from .compiled import CompiledNet, Stepper, StepperFn, check_kind

try:  # pragma: no cover - exercised through both CI jobs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

__all__ = ["KernelStepper", "VectorizedNet", "numpy_available", "require_numpy"]

_NUMPY_HINT = (
    "the NumPy simulation engine (engine='numpy') requires numpy, which is "
    "not installed; install the optional 'sim' extra "
    "(pip install 'repro-leroux-podc22[sim]') or use engine='auto' / "
    "engine='compiled'"
)


def numpy_available() -> bool:
    """True if NumPy is importable (the vectorized engine can be used)."""
    return _np is not None


def require_numpy() -> Any:
    """Return the numpy module or raise a clear ImportError."""
    if _np is None:
        raise ImportError(_NUMPY_HINT)
    return _np


class KernelStepper:
    """A kernel-backed stepper: array programs instead of generated source.

    The NumPy engine's counterpart of
    :class:`~repro.simulation.compiled.GeneratedStepper`, satisfying the same
    :class:`~repro.simulation.compiled.Stepper` protocol: :meth:`source`
    returns ``None`` (there is no emitted code to audit — the codegen auditor
    checks the kernel *plan structures* instead) and :attr:`qa_meta` names
    the kernel implementation so audits can tell the variants apart.
    """

    def __init__(self, fn: StepperFn, qa_meta: Dict[str, object]) -> None:
        self._fn = fn
        self.qa_meta = qa_meta

    def __call__(self, *args: Any, **kwargs: Any) -> Tuple[int, int, int, bool]:
        return self._fn(*args, **kwargs)

    def source(self) -> Optional[str]:
        """Kernel-backed steppers have no generated source (audit the plans)."""
        return None

    def __repr__(self) -> str:
        return f"KernelStepper({self.qa_meta.get('label', '?')})"


class VectorizedNet(CompiledNet):
    """A Petri net compiled to dense indices plus NumPy kernel structures.

    Shares the dense state indexing, ``pre``/``delta`` tuples,
    incremental-scheduling ``affected`` map, output classification and
    consensus-delta machinery of :class:`CompiledNet`, and adds:

    * global CSR views of the preconditions (``_pre_states`` / ``_pre_mults``
      / segment starts) for the full weight/enabledness computation at run
      start,
    * one *update plan* per transition: the flattened pre-entries of every
      transition in ``affected[t]``, so a firing recomputes exactly those
      weights with a handful of array operations.

    Instances pickle cleanly (the plans are plain arrays; cached stepper
    closures are dropped exactly like the compiled steppers), so batch worker
    processes rebuild nothing but the closures.
    """

    def __init__(self, net: PetriNet, extra_states: Iterable[State] = ()) -> None:
        np = require_numpy()
        super().__init__(net, extra_states=extra_states)

        num_transitions = self.num_transitions
        pre_states = []
        pre_mults = []
        pre_starts = []
        for pre in self.pre_lists:
            pre_starts.append(len(pre_states))
            for index, needed in pre:
                pre_states.append(index)
                pre_mults.append(needed)
        self._max_mult = max(pre_mults, default=1)
        if pre_states:
            # One sentinel entry terminates the global CSR: transitions with
            # an empty pre-set have start == len(entries), which reduceat
            # would reject (and clamping a trailing empty segment's start
            # would split the previous transition's segment).  The sentinel
            # makes every start a valid index; it joins the last non-empty
            # segment, where it is harmless (the weight kernel forces its
            # term to the multiplicative identity, the enabledness kernel's
            # ``counts >= 0`` is always true), and the results of empty
            # segments are overwritten through ``_empty_pre`` regardless.
            pre_states.append(0)
            pre_mults.append(0)
        self._pre_states = np.array(pre_states, dtype=np.intp)
        self._pre_mults = np.array(pre_mults, dtype=np.int64)
        self._pre_divisors = np.array(
            [factorial(needed) for needed in pre_mults], dtype=np.int64
        )
        self._pre_starts = np.array(pre_starts, dtype=np.intp)
        self._empty_pre = np.array(
            [not pre for pre in self.pre_lists], dtype=bool
        )
        # Static int64-overflow guard inputs (see the uniform stepper): a
        # transition's weight is a product of at most ``_max_weight_factors``
        # state counts (the falling-factorial length, sum of pre
        # multiplicities), and a step can raise a single state count by at
        # most ``_max_positive_delta``.
        self._max_weight_factors = max(
            (sum(needed for _, needed in pre) for pre in self.pre_lists),
            default=1,
        ) or 1
        self._max_positive_delta = max(
            (diff for delta in self.delta_lists for _, diff in delta if diff > 0),
            default=0,
        )
        self._conservative = net.is_conservative()

        # Update plans: for each transition t, the flattened pre-entries of
        # affected[t].  Every affected transition has a non-empty pre-set (a
        # transition with no preconditions reads no state, so no firing can
        # change its weight), hence every reduceat segment is non-empty.
        plans = []
        for t in range(num_transitions):
            delta = self.delta_lists[t]
            delta_idx = np.array([index for index, _ in delta], dtype=np.intp)
            delta_val = np.array([diff for _, diff in delta], dtype=np.int64)
            affected = self.affected[t]
            ent_states = []
            ent_mults = []
            seg_starts = []
            for u in affected:
                seg_starts.append(len(ent_states))
                for index, needed in self.pre_lists[u]:
                    ent_states.append(index)
                    ent_mults.append(needed)
            plan_max_mult = max(ent_mults, default=1)
            # Fast-path classification: width-2 population protocols have
            # two unit-multiplicity pre-entries per transition, for which the
            # segmented product collapses to one strided multiply.
            seg_sizes = [
                (seg_starts[i + 1] if i + 1 < len(seg_starts) else len(ent_states))
                - seg_starts[i]
                for i in range(len(seg_starts))
            ]
            if plan_max_mult == 1 and seg_sizes and all(size == 2 for size in seg_sizes):
                seg_mode = 2
            elif plan_max_mult == 1 and all(size == 1 for size in seg_sizes):
                seg_mode = 1
            else:
                seg_mode = 0
            plans.append(
                (
                    delta_idx,
                    delta_val,
                    np.array(affected, dtype=np.intp),
                    np.array(ent_states, dtype=np.intp),
                    np.array(ent_mults, dtype=np.int64),
                    np.array(
                        [factorial(needed) for needed in ent_mults],
                        dtype=np.int64,
                    ),
                    np.array(seg_starts, dtype=np.intp),
                    plan_max_mult,
                    seg_mode,
                )
            )
        self._plans = plans
        # Lock-step ensemble tables (repro.simulation.ensemble), built lazily
        # on first ensemble run and dropped on pickling like the steppers.
        self._ensemble_tables: Optional[Any] = None

    def ensemble_tables(self) -> Any:
        """The cached :class:`~repro.simulation.ensemble.EnsembleTables`."""
        if self._ensemble_tables is None:
            from .ensemble import EnsembleTables

            self._ensemble_tables = EnsembleTables(self)
        return self._ensemble_tables

    def __getstate__(self) -> Dict[str, object]:
        """Additionally drop the ensemble tables: they are derived arrays,
        cheap to rebuild and bulky to ship to batch workers."""
        state = super().__getstate__()
        state["_ensemble_tables"] = None
        return state

    def __repr__(self) -> str:
        return f"VectorizedNet(|P|={self.num_states}, |T|={self.num_transitions})"

    # ------------------------------------------------------------------
    # Vector kernels
    # ------------------------------------------------------------------
    def _binomials(self, values: Any, mults: Any, divisors: Any, max_mult: int) -> Any:
        """Elementwise ``C(values, mults)``, exact in int64.

        ``C(c, k) = c (c-1) ... (c-k+1) / k!``; the falling factorial passes
        through zero whenever ``0 <= c < k``, so disabled entries come out 0
        without a branch.
        """
        if max_mult == 1:
            return values
        terms = values.copy()
        for j in range(1, max_mult):
            mask = mults > j
            terms[mask] *= values[mask] - j
        terms //= divisors
        return terms

    def full_weights(self, counts_array: Any) -> Any:
        """The uniform-scheduler weight of every transition, as int64."""
        np = _np
        if self.num_transitions == 0:
            return np.zeros(0, dtype=np.int64)
        if self._pre_states.size == 0:
            return np.ones(self.num_transitions, dtype=np.int64)
        terms = self._binomials(
            counts_array[self._pre_states],
            self._pre_mults,
            self._pre_divisors,
            self._max_mult,
        )
        terms[-1] = 1  # the CSR sentinel: multiplicative identity
        weights = np.multiply.reduceat(terms, self._pre_starts)
        weights[self._empty_pre] = 1
        return weights

    def check_weight_overflow(self, counts: Sequence[int], max_steps: int) -> None:
        """Static int64-overflow guard shared by the uniform-kind engines.

        A transition's weight is a product of at most ``_max_weight_factors``
        state counts, every state count stays below ``count_bound`` for the
        whole run (counts can only grow by ``_max_positive_delta`` per step),
        so every weight stays below ``count_bound ** factors`` and the weight
        total below ``num_transitions * count_bound ** factors``.  Requiring
        ``count_bound < 2 ** limit_bits`` with ``limit_bits * factors +
        bit_length(num_transitions) <= 63`` therefore keeps every partial sum
        of the int64 weight vectors exact — int64 arithmetic would otherwise
        wrap silently rather than raise.  The bound must be computed in
        Python integers, before any int64 conversion: an int64 sum of an
        astronomical population would itself wrap and bypass the guard.
        Raises :class:`OverflowError` for populations/step budgets beyond the
        guard; both the per-run uniform stepper and the lock-step ensemble
        engine (:mod:`repro.simulation.ensemble`) call this up front, so the
        two reject exactly the same runs.
        """
        num_transitions = self.num_transitions
        factors = self._max_weight_factors
        limit_bits = max(
            0, (63 - max(1, num_transitions).bit_length()) // factors
        )
        if self._conservative:
            # Conservative nets keep the population invariant, so the total
            # is a lifetime bound on every state count.
            count_bound = sum(counts)
        else:
            count_bound = max(counts, default=0)
            count_bound += max_steps * self._max_positive_delta
        if count_bound > 0 and (count_bound >> limit_bits) > 0:
            raise OverflowError(
                "population or step budget too large for the int64 NumPy "
                f"engine (state counts may reach {count_bound} over "
                f"{max_steps} steps, risking scheduler-weight overflow "
                f"on {num_transitions} transitions); use "
                "engine='compiled', which computes weights in "
                "arbitrary-precision Python integers"
            )

    def full_enabled(self, counts_array: Any) -> Any:
        """The enabledness of every transition, as a bool vector."""
        np = _np
        if self.num_transitions == 0:
            return np.zeros(0, dtype=bool)
        if self._pre_states.size == 0:
            return np.ones(self.num_transitions, dtype=bool)
        # The trailing CSR sentinel has multiplicity 0, so its ``>=`` term is
        # always true and cannot disable the segment it joins.
        ok = counts_array[self._pre_states] >= self._pre_mults
        enabled = np.bitwise_and.reduceat(ok, self._pre_starts)
        enabled[self._empty_pre] = True
        return enabled

    # ------------------------------------------------------------------
    # Steppers
    # ------------------------------------------------------------------
    def stepper(self, kind: str, classes: Tuple[int, ...], record: bool = False) -> Stepper:
        """A :class:`KernelStepper` with the exact signature and semantics of
        the compiled steppers (see :meth:`CompiledNet.stepper`), implemented
        with NumPy kernels instead of generated code, and dropped on pickling
        the same way.  Unlike the compiled engine there is no separate
        recording variant — the kernels branch on ``ring is None`` at runtime
        — so the cache key ignores ``record`` and both spellings share one
        stepper.
        """
        check_kind(kind)
        key = (kind, tuple(classes), False)
        stepper = self._steppers.get(key)
        if stepper is None:
            if kind == "uniform":
                fn = self._make_uniform_stepper(key[1])
            else:
                fn = self._make_transition_stepper(key[1])
            label = f"{self.net.name or 'net'}/{kind}"
            stepper = KernelStepper(
                fn,
                {
                    "label": label,
                    "kind": kind,
                    "record": None,  # one kernel serves both variants
                    "num_transitions": self.num_transitions,
                    "implementation": "numpy-kernels",
                },
            )
            self._steppers[key] = stepper
        return stepper

    def _make_uniform_stepper(self, classes: Tuple[int, ...]) -> StepperFn:
        np = _np
        plans = self._plans
        consensus_deltas = self.consensus_deltas(classes)
        num_transitions = self.num_transitions

        def stepper(
            counts: List[int],
            rng: random.Random,
            max_steps: int,
            stability_window: int,
            one: int,
            zero: int,
            undef: int,
            ring: Optional[Deque[int]] = None,
        ) -> Tuple[int, int, int, bool]:
            # Static int64-overflow guard, shared with the ensemble engine.
            self.check_weight_overflow(counts, max_steps)
            arr = np.array(counts, dtype=np.int64)
            weights = self.full_weights(arr)
            randrange = rng.randrange
            if undef == 0:
                consensus_value = 0 if one == 0 else (1 if zero == 0 else -1)
            else:
                consensus_value = -1
            consensus_since = 0 if consensus_value >= 0 else -1
            step = 0
            terminated = False
            while step < max_steps:
                if num_transitions:
                    cumulative = weights.cumsum()
                    total = int(cumulative[-1])
                else:
                    total = 0
                if total <= 0:
                    terminated = True
                    break
                pick = randrange(total)
                step += 1
                # First index whose cumulative weight exceeds pick: identical
                # to the reference scheduler's scan (zero-weight transitions
                # contribute nothing, so they can never be selected).
                t = int(cumulative.searchsorted(pick, side="right"))
                if ring is not None:
                    ring.append(t)
                (
                    delta_idx, delta_val, affected,
                    ent_states, ent_mults, ent_divisors, seg_starts,
                    plan_max_mult, seg_mode,
                ) = plans[t]
                if delta_idx.size:
                    arr[delta_idx] += delta_val
                if affected.size:
                    values = arr[ent_states]
                    if seg_mode == 2:
                        weights[affected] = values[0::2] * values[1::2]
                    elif seg_mode == 1:
                        weights[affected] = values
                    else:
                        terms = self._binomials(
                            values, ent_mults, ent_divisors, plan_max_mult
                        )
                        weights[affected] = np.multiply.reduceat(terms, seg_starts)
                d_one, d_zero, d_undef = consensus_deltas[t]
                if d_one or d_zero or d_undef:
                    one += d_one
                    zero += d_zero
                    undef += d_undef
                    if undef == 0:
                        value = 0 if one == 0 else (1 if zero == 0 else -1)
                    else:
                        value = -1
                    if value != consensus_value:
                        consensus_value = value
                        consensus_since = step if value >= 0 else -1
                if consensus_value >= 0 and step - consensus_since >= stability_window:
                    break
            counts[:] = arr.tolist()
            return step, consensus_value, consensus_since, terminated

        return stepper

    def _make_transition_stepper(self, classes: Tuple[int, ...]) -> StepperFn:
        np = _np
        plans = self._plans
        consensus_deltas = self.consensus_deltas(classes)

        def stepper(
            counts: List[int],
            rng: random.Random,
            max_steps: int,
            stability_window: int,
            one: int,
            zero: int,
            undef: int,
            ring: Optional[Deque[int]] = None,
        ) -> Tuple[int, int, int, bool]:
            arr = np.array(counts, dtype=np.int64)
            enabled = self.full_enabled(arr)
            choice = rng.choice
            flatnonzero = np.flatnonzero
            if undef == 0:
                consensus_value = 0 if one == 0 else (1 if zero == 0 else -1)
            else:
                consensus_value = -1
            consensus_since = 0 if consensus_value >= 0 else -1
            step = 0
            terminated = False
            while step < max_steps:
                indices = flatnonzero(enabled)
                if indices.size == 0:
                    terminated = True
                    break
                # rng.choice draws one _randbelow(len(enabled)) exactly like
                # the reference scheduler's choice over the enabled list.
                t = int(choice(indices))
                step += 1
                if ring is not None:
                    ring.append(t)
                (
                    delta_idx, delta_val, affected,
                    ent_states, ent_mults, _ent_divisors, seg_starts,
                    _plan_max_mult, _seg_mode,
                ) = plans[t]
                if delta_idx.size:
                    arr[delta_idx] += delta_val
                if affected.size:
                    ok = arr[ent_states] >= ent_mults
                    enabled[affected] = np.bitwise_and.reduceat(ok, seg_starts)
                d_one, d_zero, d_undef = consensus_deltas[t]
                if d_one or d_zero or d_undef:
                    one += d_one
                    zero += d_zero
                    undef += d_undef
                    if undef == 0:
                        value = 0 if one == 0 else (1 if zero == 0 else -1)
                    else:
                        value = -1
                    if value != consensus_value:
                        consensus_value = value
                        consensus_since = step if value >= 0 else -1
                if consensus_value >= 0 and step - consensus_since >= stability_window:
                    break
            counts[:] = arr.tolist()
            return step, consensus_value, consensus_since, terminated

        return stepper
