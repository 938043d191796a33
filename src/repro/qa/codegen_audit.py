"""Codegen auditor: the generated steppers, fired against their net's tables.

:class:`~repro.simulation.compiled.CompiledNet` ``exec``-compiles a Python
simulation loop per ``(scheduler kind, output classes, recording)`` that
nothing human reviews per net.  This pass compiles each generated source and
checks the function against the ``CompiledNet`` tables it was generated
from instead of re-deriving the loop from its text, so only the generator
knows how the loop is written:

1. **closed namespace** — the code object's ``co_names`` hold only the global
   ``comb`` (pure, deterministic) and the hoisted ``randrange`` and ``append``;
2. **pure-local step loop** — the ``while`` block holds no ``name.attr``:
   method lookups like ``rng.randrange`` are hoisted out of the loop;
3. **counts round-trip** — the ``c<i>`` locals are exactly the touched state
   indices, and a run of zero steps writes back exactly the written ones;
4. **dispatch** — every arm is fired through a stand-in generator whose
   ``randrange`` returns chosen picks, from counts that enable every
   transition (distinct primes, so the uniform weights differ).  At the
   first and at the last pick of transition ``t`` one step must draw from the
   tables' weight total, move the counts by ``delta_lists[t]``, record
   ``[t]``, and end in consensus 0 and then 1 from two ``(one, zero, undef)``
   values that reach ``(0, 1, 0)`` and ``(1, 0, 0)`` only through
   ``consensus_deltas[t]``.  A second step, at the first and the last pick of
   each transition under the reweighed weights, must fire that transition;
5. **recording = fast + append statements** — the recording variant's source,
   minus its ``append = ring.append`` hoist, the ``append(<arm index>)``
   opening each dispatch arm and its ``ring`` parameter, is byte-identical to
   the fast variant: recording must never change *what* is simulated.

:func:`audit_stepper_source` audits one source (tests feed it corrupted
code), :func:`audit_compiled_net` every variant of one net, and ``python -m
repro.qa audit-codegen`` every registered sweep protocol.
"""

from __future__ import annotations

import re
from collections import ChainMap
from itertools import count, islice
from math import comb, isqrt, prod
from types import CodeType, FunctionType
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..simulation.compiled import OUT_IGNORED, CompiledNet, _KINDS

__all__ = ["audit_stepper_source", "audit_compiled_net", "DEFAULT_AUDIT_POPULATIONS"]

#: Populations the CLI audits every registered protocol at.  Two sizes on
#: purpose: protocol builders may change net structure with population (e.g.
#: threshold parameters), so a single size under-covers the generator.
DEFAULT_AUDIT_POPULATIONS = (25, 100)

#: The only names a generated stepper's code object may hold.
_ALLOWED_NAMES = frozenset({"comb", "randrange", "append"})

#: A ``while`` statement with every deeper-indented line after it, and a
#: ``name.attr`` in generated code (which holds no strings or comments).
_WHILE_BLOCK = re.compile(r"^( *)while\b.*(?:\n\1 .*)*", re.MULTILINE)
_ATTRIBUTE = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")

_BASE_PARAMS = ("counts", "rng", "max_steps", "stability_window", "one", "zero", "undef")
_RECORD_PARAMS = _BASE_PARAMS + ("ring",)


class _Picks:
    """A stand-in generator whose ``randrange`` returns chosen picks in turn
    and keeps the bounds it was called with."""

    def __init__(self, picks: Sequence[int]) -> None:
        self._picks = iter(picks)
        self.bounds: List[int] = []

    def randrange(self, bound: int) -> int:
        self.bounds.append(bound)
        return next(self._picks)


def _probe_counts(net: CompiledNet) -> List[int]:
    """Distinct primes above every pre-set multiplicity: every transition is
    enabled, no count empties in one firing, and single-agent pre-sets get
    distinct uniform weights."""
    floor = 1 + max((need for pre in net.pre_lists for _, need in pre), default=1)
    primes = (n for n in count(floor) if all(n % d for d in range(2, isqrt(n) + 1)))
    return list(islice(primes, net.num_states))


def _weights(net: CompiledNet, kind: str, counts: Sequence[int]) -> List[int]:
    """The scheduler weights the tables give at ``counts``."""
    if kind == "uniform":
        return [prod(comb(counts[i], need) for i, need in pre) for pre in net.pre_lists]
    return [int(all(counts[i] >= need for i, need in pre)) for pre in net.pre_lists]


def _end_picks(weights: Sequence[int], t: int) -> Tuple[int, ...]:
    """The first and the last pick that fire transition ``t``."""
    first = sum(weights[:t])
    return (first, first + weights[t] - 1) if weights[t] else ()


def _misfires(
    fn: FunctionType, net: CompiledNet, kind: str, classes: Sequence[int], record: bool
) -> List[str]:
    """The problems of the first firing of rule 4 that disagrees with the
    tables."""
    deltas = net.consensus_deltas(tuple(classes))
    base = _probe_counts(net)
    weights = _weights(net, kind, base)

    def moved(counts: List[int], t: int) -> List[int]:
        after = list(counts)
        for index, diff in net.delta_lists[t]:
            after[index] += diff
        return after

    def shift(counts: List[int]) -> Dict[int, int]:
        return {i: b - a for i, (a, b) in enumerate(zip(base, counts)) if a != b}

    def firings() -> Iterator[Tuple[Any, ...]]:
        total = sum(weights)
        for t in range(net.num_transitions):
            after = moved(base, t)
            for pick in _end_picks(weights, t):
                for due, goal in ((0, (0, 1, 0)), (1, (1, 0, 0))):
                    start = tuple(g - d for g, d in zip(goal, deltas[t]))
                    yield f"transition {t} at pick {pick}", [pick], [t], after, [total], start, due
        for t in range(net.num_transitions):
            after = moved(base, t)
            reweighed = _weights(net, kind, after)
            totals = [total, sum(reweighed)]
            for u in range(net.num_transitions):
                for pick in _end_picks(reweighed, u):
                    where = f"transition {u} at pick {pick} after transition {t}"
                    picks = [_end_picks(weights, t)[0], pick]
                    yield where, picks, [t, u], moved(after, u), totals, (0, 1, 0), None

    for where, picks, fired, want, totals, counters, due in firings():
        rng, final, ring = _Picks(picks), list(base), []
        steps, value, _, terminated = fn(
            final, rng, len(picks), len(picks) + 1, *counters, *([ring] if record else [])
        )
        problems = []
        if rng.bounds != totals:
            problems.append(f"drew randrange{tuple(rng.bounds)}, the tables' weight "
                            f"totals are {tuple(totals)}")
        if final != want:
            problems.append(f"counts moved by {shift(final)}, net says {shift(want)}")
        if (steps, terminated) != (len(picks), False):
            problems.append(f"stopped after {steps} steps, terminated={terminated}")
        if record and ring != fired:
            problems.append(f"recorded {ring}, expected {fired}")
        if due is not None and value != due:
            problems.append(f"consensus {value} from counters {counters}, the "
                            f"consensus deltas make it {due}")
        if problems:
            return [f"{where}: {problem}" for problem in problems]
    return []


def audit_stepper_source(
    source: str,
    net: CompiledNet,
    kind: str,
    classes: Sequence[int],
    record: bool = False,
) -> List[str]:
    """Audit one generated stepper source against its net's tables: the
    problems found, none if the source passes every check."""
    try:
        module = compile(source, "<audited stepper>", "exec")
    except SyntaxError as error:
        return [f"generated source does not parse: {error.msg} (line {error.lineno})"]
    functions = [const for const in module.co_consts if isinstance(const, CodeType)]
    if len(functions) != 1 or module.co_names != (functions[0].co_name,):
        return ["generated source is not a single function definition"]
    if kind not in _KINDS:
        return [f"unknown scheduler kind {kind!r}"]
    code = functions[0]
    problems: List[str] = []
    signature = (code.co_name, code.co_varnames[: code.co_argcount])
    if signature != ("__compiled_stepper", _RECORD_PARAMS if record else _BASE_PARAMS):
        problems.append(f"unexpected signature {signature}")

    # 1. Closed namespace.
    for name in sorted(set(code.co_names) - _ALLOWED_NAMES, key=str):
        problems.append(f"free name {name!r} is neither a local nor comb, randrange, append")

    # 2. Pure-local step loop.
    loop = _WHILE_BLOCK.search(source)
    for access in _ATTRIBUTE.findall(loop.group(0)) if loop else ():
        problems.append(f"attribute access {access} inside the step loop; hoist it out")

    # 3. Counts round-trip: the count locals, then the write-backs, which
    #    land in the ChainMap's first map.
    written = {index for delta in net.delta_lists for index, _ in delta}
    touched = written.union(*({index for index, _ in pre} for pre in net.pre_lists))
    loaded = {int(name[1:]) for name in code.co_varnames if re.fullmatch(r"c\d+", name)}
    if loaded != touched:
        problems.append(f"count locals {loaded}, expected the touched set {touched}")
    fn = FunctionType(code, {"comb": comb})
    base = _probe_counts(net)
    counts: ChainMap = ChainMap({}, dict(enumerate(base)))
    try:
        fn(counts, _Picks(()), 0, 1, 0, 1, 0, *([[]] if record else []))
        if counts.maps[0] != {index: base[index] for index in written}:
            problems.append(f"loop writes back {counts.maps[0]}, expected the "
                            f"written set {written} unchanged")
        # 4. Dispatch.
        problems += _misfires(fn, net, kind, classes, record)
    except Exception as error:
        problems.append(f"firing the stepper raised {type(error).__name__}: {error}")
    return problems


#: The statements the recording variant is allowed to add: the hoisted
#: ``append`` and one append of the fired index (the constant arm index).
_RECORDING_LINE = re.compile(r"append = ring\.append|append\(\d+\)")


def _strip_ring_statements(source: str) -> str:
    """The recording variant's source with every recording statement removed
    and the extra ``ring`` parameter dropped — what must equal the fast
    variant."""
    kept = (line for line in source.splitlines() if not _RECORDING_LINE.fullmatch(line.strip()))
    return "\n".join(kept).replace("undef, ring):", "undef):")


def audit_compiled_net(
    net: CompiledNet,
    classes: Optional[Sequence[int]] = None,
    kinds: Sequence[str] = _KINDS,
) -> List[str]:
    """Audit every stepper variant (kind x {fast, recording}) of one net.

    Returns problem descriptions prefixed with the variant that raised them;
    an empty list means the net's generated code passes every check.  With
    ``classes=None`` every state is consensus-ignored, which leaves the
    consensus counters unchecked; pass the protocol's output classes.
    """
    if classes is None:
        classes = (OUT_IGNORED,) * net.num_states
    classes = tuple(classes)
    problems: List[str] = []
    for kind in kinds:
        sources = {}
        for record, variant in ((False, "fast"), (True, "recording")):
            sources[record] = source = net.stepper_source(kind, classes, record=record)
            for problem in audit_stepper_source(source, net, kind, classes, record=record):
                problems.append(f"{kind}/{variant}: {problem}")
        if _strip_ring_statements(sources[True]) != sources[False]:
            problems.append(
                f"{kind}: recording variant differs from the fast variant by "
                "more than append statements"
            )
    return problems
