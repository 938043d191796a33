"""Compiled dense array-backed simulation engine.

The sparse reference engine (:class:`~repro.simulation.simulator.Simulator`
with ``engine="reference"``) allocates a fresh immutable
:class:`~repro.core.configuration.Configuration` per interaction, rescans the
whole support twice per step for consensus detection, and recomputes every
transition weight from scratch.  That is the right semantics-first baseline,
but it caps throughput at roughly a hundred thousand interactions per second.

This module compiles a Petri net once into a dense representation and then
*generates a specialized stepper function* for it:

* :class:`CompiledNet` maps states to dense integer indices and represents
  each transition as ``(index, count)`` precondition tuples plus
  ``(index, delta)`` displacement tuples, so a run mutates a single counts
  array in place instead of allocating configurations,
* :meth:`CompiledNet.stepper` emits straight-line Python source for the whole
  simulation loop — transition dispatch, in-place firing, *incremental*
  scheduler weights (after firing ``t`` only the weights of transitions whose
  pre-sets intersect the states ``t`` changed are recomputed, and a running
  total is maintained), and O(1) consensus checks via maintained counters of
  agents in 0-output / 1-output / ``*``-output states — and ``exec``-compiles
  it into a function operating on local integer variables.

Both scheduler disciplines run the same loop, as in the native engine: every
step draws ``pick = randrange(total)`` over per-transition weights and fires
the transition whose cumulative weight first exceeds ``pick``.  The
discipline only chooses the weight: the binomial product of the uniform
scheduler, or 0/1 enabledness for the transition scheduler.  The reference
schedulers draw one ``randrange(total)`` and one ``choice(enabled)`` per
step, and both consume a single ``_randbelow`` of the same bound (for the
transition scheduler ``total`` is the number of enabled transitions, and the
``pick``-th enabled one in index order is ``enabled[pick]``).  So for a fixed
``(protocol, inputs, seed)`` the compiled and reference engines produce
identical trajectories step for step; the test suite asserts this.

The dense mapping built here (state indexing, ``pre``/``delta`` tuples, the
``affected`` incremental-scheduling map, output classes and consensus deltas)
is also the input of the native engine: :meth:`CompiledNet.native_stepper`
flattens it into the tables of one C loop (:mod:`repro.simulation.native`),
which ``engine="auto"`` prefers whenever its library loads.  The generated
steppers here need no compiler, and they are the native engine's fallback
for runs whose counts or weights overflow 64 bits.
"""

from __future__ import annotations

from math import comb
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    TYPE_CHECKING,
    Tuple,
)

from ..core.configuration import Configuration, State
from ..core.petrinet import PetriNet
from ..core.protocol import OUTPUT_ONE, OUTPUT_ZERO, Output

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .native import NativeStepper

__all__ = [
    "OUT_ZERO",
    "OUT_ONE",
    "OUT_UNDEFINED",
    "OUT_IGNORED",
    "CompiledNet",
    "check_kind",
]

#: Dense output classes used by the consensus counters of the compiled engine.
OUT_ZERO = 0
OUT_ONE = 1
OUT_UNDEFINED = 2
#: States absent from the output table; they never influence the consensus
#: (mirroring :meth:`repro.core.protocol.Protocol.configuration_output`).
OUT_IGNORED = 3

#: Scheduler disciplines the dense engines know how to specialize (shared by
#: the generated-code steppers here and the native loop of
#: :mod:`repro.simulation.native`).
_KINDS = ("uniform", "transition")

#: The call signature shared by every stepper: ``(steps, consensus_value,
#: consensus_since, terminated)`` from a mutated counts array (see
#: :meth:`CompiledNet.stepper` for the parameter contract).
StepperFn = Callable[..., Tuple[int, int, int, bool]]


def check_kind(kind: str) -> None:
    """Reject scheduler disciplines the dense engines don't implement."""
    if kind not in _KINDS:
        raise ValueError(
            f"unknown compiled scheduler kind: {kind!r} (expected one of {_KINDS})"
        )


class CompiledNet:
    """A Petri net compiled to dense integer indices.

    Parameters
    ----------
    net:
        The Petri net to compile.
    extra_states:
        Additional states to include in the dense universe (e.g. protocol
        states no transition touches).  Prefer :meth:`PetriNet.compiled`,
        which caches instances per universe.
    """

    def __init__(self, net: PetriNet, extra_states: Iterable[State] = ()) -> None:
        self.net = net
        universe = set(net.states) | set(extra_states)
        self.states: Tuple[State, ...] = tuple(sorted(universe, key=str))
        if len({str(state) for state in self.states}) != len(self.states):
            # The dense index order is ``sorted(..., key=str)``; states whose
            # renderings collide would be ordered by hash-dependent tie-break,
            # silently permuting indices between runs — the exact hazard the
            # cross-engine determinism contract forbids.
            raise ValueError(
                "states must have distinct string renderings for a stable "
                "dense index order"
            )
        self.index_of: Dict[State, int] = {state: i for i, state in enumerate(self.states)}

        pre_lists: List[Tuple[Tuple[int, int], ...]] = []
        delta_lists: List[Tuple[Tuple[int, int], ...]] = []
        for transition in net.transitions:
            pre = tuple(
                sorted((self.index_of[state], count) for state, count in transition.pre.items())
            )
            delta: Dict[int, int] = {}
            for state, count in transition.post.items():
                index = self.index_of[state]
                delta[index] = delta.get(index, 0) + count
            for state, count in transition.pre.items():
                index = self.index_of[state]
                delta[index] = delta.get(index, 0) - count
            pre_lists.append(pre)
            delta_lists.append(tuple(sorted((i, d) for i, d in delta.items() if d)))
        self.pre_lists: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(pre_lists)
        self.delta_lists: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(delta_lists)

        # touchers[i]: transitions whose precondition mentions state index i.
        touchers: List[List[int]] = [[] for _ in self.states]
        for t, pre in enumerate(self.pre_lists):
            for index, _ in pre:
                touchers[index].append(t)
        # affected[t]: transitions whose weight can change when t fires, i.e.
        # those whose pre-set intersects the states t displaces.  This is the
        # incremental-scheduling map: firing t only reweighs affected[t].
        affected: List[Tuple[int, ...]] = []
        for delta in self.delta_lists:
            hit = set()
            for index, _ in delta:
                hit.update(touchers[index])
            # qa: allow[DET202] -- dense int transition indices, totally ordered
            affected.append(tuple(sorted(hit)))
        self.affected: Tuple[Tuple[int, ...], ...] = tuple(affected)

        self._steppers: Dict[Tuple[str, Tuple[int, ...], bool], StepperFn] = {}
        self._native: Dict[Tuple[str, Tuple[int, ...]], "NativeStepper"] = {}

    def __getstate__(self) -> Dict[str, object]:
        """Drop the generated and native steppers: ``exec``-compiled functions
        and ctypes handles cannot be pickled, and worker processes rebuild
        them on first use anyway."""
        state = self.__dict__.copy()
        state["_steppers"] = {}
        state["_native"] = {}
        return state

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """The size of the dense state universe."""
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        """The number of compiled transitions (same as the net's)."""
        return len(self.pre_lists)

    def __repr__(self) -> str:
        return f"CompiledNet(|P|={self.num_states}, |T|={self.num_transitions})"

    # ------------------------------------------------------------------
    # Conversions between sparse configurations and dense count arrays
    # ------------------------------------------------------------------
    def counts_of(
        self, configuration: Configuration, out: Optional[List[int]] = None
    ) -> Optional[List[int]]:
        """The dense counts array of ``configuration``.

        Returns ``None`` if the configuration mentions a state outside the
        compiled universe (callers then fall back to the sparse engine).
        When ``out`` is given it is zeroed and reused instead of allocating.
        """
        if out is None:
            counts = [0] * len(self.states)
        else:
            counts = out
            for i in range(len(counts)):
                counts[i] = 0
        index_of = self.index_of
        for state, count in configuration.items():
            index = index_of.get(state)
            if index is None:
                return None
            counts[index] = count
        return counts

    def configuration_of(self, counts: List[int]) -> Configuration:
        """The sparse configuration represented by a dense counts array."""
        clean = {state: count for state, count in zip(self.states, counts) if count}
        return Configuration._from_clean(clean, sum(counts))

    # ------------------------------------------------------------------
    # Output classification (consensus counters)
    # ------------------------------------------------------------------
    def output_classes(self, output_table: "MappingLike") -> Tuple[int, ...]:
        """Classify every dense state index by its output.

        Returns one of :data:`OUT_ZERO` / :data:`OUT_ONE` /
        :data:`OUT_UNDEFINED` / :data:`OUT_IGNORED` per state, in index order.
        """
        classes = []
        for state in self.states:
            if state not in output_table:
                classes.append(OUT_IGNORED)
                continue
            value = output_table[state]
            if value == OUTPUT_ONE:
                classes.append(OUT_ONE)
            elif value == OUTPUT_ZERO:
                classes.append(OUT_ZERO)
            else:
                classes.append(OUT_UNDEFINED)
        return tuple(classes)

    def consensus_deltas(self, classes: Tuple[int, ...]) -> Tuple[Tuple[int, int, int], ...]:
        """Per transition, the ``(d_one, d_zero, d_undefined)`` counter deltas."""
        deltas = []
        for delta in self.delta_lists:
            d_one = d_zero = d_undefined = 0
            for index, diff in delta:
                kind = classes[index]
                if kind == OUT_ONE:
                    d_one += diff
                elif kind == OUT_ZERO:
                    d_zero += diff
                elif kind == OUT_UNDEFINED:
                    d_undefined += diff
            deltas.append((d_one, d_zero, d_undefined))
        return tuple(deltas)

    # ------------------------------------------------------------------
    # Stepper generation
    # ------------------------------------------------------------------
    def stepper(self, kind: str, classes: Tuple[int, ...], record: bool = False) -> StepperFn:
        """The generated simulation loop for a scheduler ``kind`` and output classes.

        Returns the ``exec``-compiled function (its code's filename names the
        net and variant, ``<compiled stepper: ...>``), whose call signature
        is::

            stepper(counts, rng, max_steps, stability_window, one, zero, undef)
                -> (steps, consensus_value, consensus_since, terminated)

        where ``counts`` is mutated in place, ``one``/``zero``/``undef`` are
        the initial consensus counters, and ``consensus_value`` /
        ``consensus_since`` use ``-1`` as the ``None`` sentinel.

        With ``record=True`` the signature gains one trailing parameter
        ``ring``, a :class:`collections.deque` to which the loop appends the
        fired transition index of every step, so recording memory is
        proportional to the steps fired.  Recording is a separate generated
        variant so the non-recording fast path pays nothing for the
        feature.  Steppers are cached per
        ``(kind, classes, record)``.
        """
        key = (kind, tuple(classes), bool(record))
        stepper = self._steppers.get(key)
        if stepper is None:
            stepper = _generate_stepper(self, kind, key[1], record=key[2])
            self._steppers[key] = stepper
        return stepper

    def native_stepper(self, kind: str, classes: Tuple[int, ...]) -> "NativeStepper":
        """The native loop over this net (:mod:`repro.simulation.native`),
        cached per ``(kind, classes)``.

        Raises :class:`~repro.simulation.native.NativeUnavailable` when the
        native library cannot be built or loaded in this process.
        """
        key = (kind, tuple(classes))
        stepper = self._native.get(key)
        if stepper is None:
            from .native import NativeStepper

            stepper = self._native[key] = NativeStepper(self, kind, key[1])
        return stepper

    def stepper_source(self, kind: str, classes: Tuple[int, ...], record: bool = False) -> str:
        """The generated Python source of the specialized stepper.

        This is the entry point of the codegen auditor
        (:mod:`repro.qa.codegen_audit`).  It emits the text that
        :meth:`stepper` compiles, without compiling it and without consulting
        the stepper cache, so auditing never perturbs the functions actually
        used for simulation and the auditor's own compile is the only one.
        """
        return _stepper_source(self, kind, tuple(classes), record=record)


# Type alias only used in docstrings/signatures above; kept loose on purpose
# (accepts dicts and MappingProxy views alike).
MappingLike = Dict[State, Output]


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
def _weight_term(index: int, needed: int) -> str:
    """Source of ``C(counts[index], needed)``; evaluates to 0 when disabled."""
    if needed == 1:
        return f"c{index}"
    if needed == 2:
        return f"c{index} * (c{index} - 1) // 2"
    return f"comb(c{index}, {needed})"


def _weight_expr(kind: str, pre: Tuple[Tuple[int, int], ...]) -> str:
    """Source of a transition's scheduler weight: ``prod_p C(counts[p],
    pre[p])`` for the uniform kind, 0/1 enabledness for the transition kind."""
    if not pre:
        return "1"
    if kind == "uniform":
        return " * ".join(f"({_weight_term(index, needed)})" for index, needed in pre)
    test = " and ".join(f"c{index} >= {needed}" for index, needed in pre)
    return f"(1 if {test} else 0)"


def _consensus_value_lines(has_undef: bool) -> List[str]:
    """Lines recomputing ``value`` from the counters and folding it into
    ``consensus_value`` / ``consensus_since`` (reference-engine semantics)."""
    if has_undef:
        lines = [
            "if undef == 0:",
            "    value = 0 if one == 0 else (1 if zero == 0 else -1)",
            "else:",
            "    value = -1",
        ]
    else:
        lines = ["value = 0 if one == 0 else (1 if zero == 0 else -1)"]
    lines += [
        "if value != consensus_value:",
        "    consensus_value = value",
        "    consensus_since = step if value >= 0 else -1",
    ]
    return lines


def _fire_statements(
    net: CompiledNet,
    t: int,
    consensus_deltas: Tuple[Tuple[int, int, int], ...],
    kind: str,
    has_undef: bool,
    record: bool = False,
) -> List[str]:
    """The straight-line statements executed when transition ``t`` fires.

    Lines carry their own relative indentation; the emitter adds the base
    prefix of the dispatch branch.
    """
    statements: List[str] = []
    for index, diff in net.delta_lists[t]:
        statements.append(f"c{index} += {diff}" if diff > 0 else f"c{index} -= {-diff}")
    counters_changed = any(consensus_deltas[t])
    for name, diff in zip(("one", "zero", "undef"), consensus_deltas[t]):
        if diff:
            statements.append(f"{name} += {diff}" if diff > 0 else f"{name} -= {-diff}")
    # Incremental reweighing, the same for both kinds: only the transitions
    # whose pre-sets intersect the states t displaced.  The running total is
    # kept either by diffing the changed weights (cheap when few are
    # affected) or by re-summing all weight locals (cheaper once most are
    # affected).
    affected = net.affected[t]
    if affected:
        num_transitions = net.num_transitions
        diff_form = num_transitions > 2 * len(affected) + 3
        parts = []
        for k, u in enumerate(affected):
            if diff_form:
                statements.append(f"_o{k} = w{u}")
            statements.append(f"w{u} = {_weight_expr(kind, net.pre_lists[u])}")
            if diff_form:
                parts.append(f"w{u} - _o{k}")
        if diff_form:
            statements.append("total += " + " + ".join(parts))
        else:
            statements.append(
                "total = " + " + ".join(f"w{u}" for u in range(num_transitions))
            )
    if counters_changed:
        # Only transitions that move agents across output classes can change
        # the consensus; the others inherit the invariant that
        # ``consensus_value`` already matches the counters.
        statements.extend(_consensus_value_lines(has_undef))
    if not statements:
        statements.append("pass")
    if record:
        # The dispatch only knows the fired index inside its arm.  Prepended
        # after the ``pass`` fallback so the recording variant is exactly the
        # fast variant plus appends (the codegen auditor checks this by
        # stripping them).
        statements.insert(0, f"append({t})")
    return statements


def _stepper_source(
    net: CompiledNet, kind: str, classes: Tuple[int, ...], record: bool = False
) -> str:
    """Emit the source of the specialized simulation loop for ``net``."""
    check_kind(kind)
    consensus_deltas = net.consensus_deltas(classes)
    # Nets without '*'-output states keep ``undef`` identically zero; the
    # generated consensus code drops the test entirely.
    has_undef = OUT_UNDEFINED in classes
    num_transitions = net.num_transitions
    read = {index for pre in net.pre_lists for index, _ in pre}
    # qa: allow[DET202] -- dense int state indices, totally ordered
    written = sorted({index for delta in net.delta_lists for index, _ in delta})
    touched = sorted(read | set(written))  # qa: allow[DET202] -- int indices
    extra_params = ", ring" if record else ""

    lines: List[str] = []
    emit = lines.append
    emit(
        "def __compiled_stepper(counts, rng, max_steps, stability_window, "
        f"one, zero, undef{extra_params}):"
    )
    for index in touched:
        emit(f"    c{index} = counts[{index}]")
    if record:
        emit("    append = ring.append")
    emit("    randrange = rng.randrange")
    for t in range(num_transitions):
        emit(f"    w{t} = {_weight_expr(kind, net.pre_lists[t])}")
    totals = " + ".join(f"w{t}" for t in range(num_transitions))
    emit(f"    total = {totals or '0'}")
    if has_undef:
        emit("    if undef == 0:")
        emit("        consensus_value = 0 if one == 0 else (1 if zero == 0 else -1)")
        emit("    else:")
        emit("        consensus_value = -1")
    else:
        emit("    consensus_value = 0 if one == 0 else (1 if zero == 0 else -1)")
    emit("    consensus_since = 0 if consensus_value >= 0 else -1")
    emit("    step = 0")
    emit("    terminated = False")
    emit("    while step < max_steps:")
    emit("        if total <= 0:")
    emit("            terminated = True")
    emit("            break")
    emit("        pick = randrange(total)")
    emit("        step += 1")
    if num_transitions == 1:
        for statement in _fire_statements(net, 0, consensus_deltas, kind, has_undef, record):
            emit(f"        {statement}")
    else:
        for t in range(num_transitions):
            if t == 0:
                emit("        if pick < (cum := w0):")
            elif t < num_transitions - 1:
                emit(f"        elif pick < (cum := cum + w{t}):")
            else:
                emit("        else:")
            for statement in _fire_statements(net, t, consensus_deltas, kind, has_undef, record):
                emit(f"            {statement}")
    emit("        if consensus_value >= 0 and step - consensus_since >= stability_window:")
    emit("            break")
    for index in written:
        emit(f"    counts[{index}] = c{index}")
    emit("    return step, consensus_value, consensus_since, terminated")
    return "\n".join(lines)


def _generate_stepper(
    net: CompiledNet, kind: str, classes: Tuple[int, ...], record: bool = False
) -> StepperFn:
    """Emit and compile the specialized simulation loop for ``net``."""
    source = _stepper_source(net, kind, classes, record)
    namespace: Dict[str, Any] = {"comb": comb}
    label = f"{net.net.name or 'net'}/{kind}" + ("/recording" if record else "")
    try:
        exec(compile(source, f"<compiled stepper: {label}>", "exec"), namespace)
    except RecursionError:
        # The unrolled dispatch is one elif per transition and the CPython
        # compiler recurses once per branch, so a few thousand transitions
        # overflow its recursion guard before the code even runs.
        raise RecursionError(
            f"net is too large for the compiled engine ({net.num_transitions} transitions "
            "overflow the CPython compiler while building the generated stepper); "
            "use engine='native' (or engine='auto', which selects it when a C "
            "compiler is available)"
        ) from None
    return namespace["__compiled_stepper"]
