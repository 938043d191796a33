"""Codegen auditor: structural verification of the generated steppers.

:class:`~repro.simulation.compiled.CompiledNet` ``exec``-compiles a
specialized Python simulation loop per ``(scheduler kind, output classes,
recording)`` — straight-line code that nothing human reviews per net.  This
pass parses those generated sources back into an ``ast`` and verifies the
properties the cross-engine determinism contract rests on:

1. **closed namespace** — the function reads only its parameters, its own
   locals, and the single sanctioned global ``comb`` (pure, deterministic);
   any other free name means the generator leaked a dependency;
2. **pure-local step loop** — inside the per-step ``while`` body there is no
   attribute access and no global read other than ``comb``: method lookups
   like ``rng.randrange`` must be hoisted out of the loop, both for speed and
   so the loop's behavior is fixed at generation time;
3. **complete dispatch** — the cumulative ``pick < (cum := ...)``
   if/elif/else chain, the one dispatch shape of both scheduler kinds,
   covers every transition index exactly once, in index order, and the
   ``c<i> += d`` statements of each arm match the net's ``delta_lists`` entry
   for that transition (and the ``one``/``zero``/``undef`` counter updates
   match ``consensus_deltas``);
4. **counts round-trip** — the loop loads ``c<i>`` for exactly the generator's
   ``touched`` indices and writes back exactly its ``written`` indices;
5. **recording = fast + append statements** — the recording variant's
   source, minus its ``append = ring.append`` hoist, the ``append(<arm
   index>)`` that opens each dispatch arm and its extra ``ring`` parameter,
   is byte-identical to the fast variant: recording must never change
   *what* is simulated.

The entry points are :func:`audit_stepper_source` (one source string — used
by tests to prove the auditor rejects corrupted code) and
:func:`audit_compiled_net` (every variant of one net); the CLI subcommand
``python -m repro.qa audit-codegen`` runs the latter over every registered
sweep protocol at several populations.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..simulation.compiled import OUT_IGNORED, CompiledNet, _KINDS

__all__ = [
    "audit_stepper_source",
    "audit_compiled_net",
    "DEFAULT_AUDIT_POPULATIONS",
]

#: Populations the CLI audits every registered protocol at.  Two sizes on
#: purpose: protocol builders may change net structure with population (e.g.
#: threshold parameters), so a single size under-covers the generator.
DEFAULT_AUDIT_POPULATIONS = (25, 100)

#: The only global name generated code may read (pure and deterministic).
_ALLOWED_GLOBALS = frozenset({"comb"})

_BASE_PARAMS = ("counts", "rng", "max_steps", "stability_window", "one", "zero", "undef")
_RECORD_PARAMS = _BASE_PARAMS + ("ring",)


def _assigned_names(func: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            target = node.target
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
        elif isinstance(node, ast.NamedExpr):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _delta_of_arm(statements: Sequence[ast.stmt]) -> Tuple[Dict[int, int], Dict[str, int]]:
    """The ``c<i>`` displacements and counter updates an arm performs."""
    counts: Dict[int, int] = {}
    counters: Dict[str, int] = {}
    for statement in statements:
        if not isinstance(statement, ast.AugAssign) or not isinstance(
            statement.target, ast.Name
        ):
            continue
        if not isinstance(statement.value, ast.Constant) or not isinstance(
            statement.value.value, int
        ):
            continue
        magnitude = statement.value.value
        if isinstance(statement.op, ast.Add):
            diff = magnitude
        elif isinstance(statement.op, ast.Sub):
            diff = -magnitude
        else:
            continue
        name = statement.target.id
        if name.startswith("c") and name[1:].isdigit():
            index = int(name[1:])
            counts[index] = counts.get(index, 0) + diff
        elif name in ("one", "zero", "undef"):
            counters[name] = counters.get(name, 0) + diff
    return counts, counters


def _dispatch_arms(chain: ast.If) -> List[List[ast.stmt]]:
    """Flatten an if/elif/else chain into its arm bodies, in order."""
    arms: List[List[ast.stmt]] = []
    node: ast.stmt = chain
    while True:
        assert isinstance(node, ast.If)
        arms.append(node.body)
        orelse = node.orelse
        if len(orelse) == 1 and isinstance(orelse[0], ast.If):
            node = orelse[0]
            continue
        if orelse:
            arms.append(orelse)
        return arms


def _find_step_loop(func: ast.FunctionDef) -> Optional[ast.While]:
    for statement in func.body:
        if isinstance(statement, ast.While):
            return statement
    return None


def _check_arm_deltas(
    net: CompiledNet,
    consensus_deltas: Sequence[Tuple[int, int, int]],
    arms: Sequence[Sequence[ast.stmt]],
    problems: List[str],
) -> None:
    if len(arms) != net.num_transitions:
        problems.append(
            f"dispatch covers {len(arms)} arms for {net.num_transitions} transitions"
        )
        return
    counter_names = ("one", "zero", "undef")
    for t, arm in enumerate(arms):
        got_counts, got_counters = _delta_of_arm(arm)
        want_counts = {index: diff for index, diff in net.delta_lists[t]}
        if got_counts != want_counts:
            problems.append(
                f"transition {t}: arm displaces {got_counts}, net says {want_counts}"
            )
        want_counters = {
            name: diff
            for name, diff in zip(counter_names, consensus_deltas[t])
            if diff
        }
        if got_counters != want_counters:
            problems.append(
                f"transition {t}: arm moves counters {got_counters}, "
                f"consensus deltas say {want_counters}"
            )


def audit_stepper_source(
    source: str,
    net: CompiledNet,
    kind: str,
    classes: Sequence[int],
    record: bool = False,
) -> List[str]:
    """Structurally audit one generated stepper source against its net.

    Returns a list of problem descriptions; an empty list means the source
    passes every check.  Exposed separately from :func:`audit_compiled_net`
    so tests can feed deliberately corrupted sources and prove the auditor
    rejects them.
    """
    problems: List[str] = []
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [f"generated source does not parse: {error.msg} (line {error.lineno})"]

    if len(tree.body) != 1 or not isinstance(tree.body[0], ast.FunctionDef):
        return ["generated source is not a single function definition"]
    func = tree.body[0]
    if func.name != "__compiled_stepper":
        problems.append(f"unexpected function name {func.name!r}")

    expected_params = _RECORD_PARAMS if record else _BASE_PARAMS
    params = tuple(argument.arg for argument in func.args.args)
    if params != expected_params:
        problems.append(f"parameters are {params}, expected {expected_params}")

    # 1. Closed namespace: every loaded name is a parameter, a local, or comb.
    locals_and_params = _assigned_names(func) | set(params)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in locals_and_params and node.id not in _ALLOWED_GLOBALS:
                problems.append(
                    f"free name {node.id!r} (line {node.lineno}) is neither a "
                    "parameter, a local, nor a sanctioned global"
                )
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            problems.append(f"global/nonlocal declaration (line {node.lineno})")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            problems.append(f"import inside generated code (line {node.lineno})")

    loop = _find_step_loop(func)
    if loop is None:
        problems.append("no per-step while loop found")
        return problems

    # 2. Pure-local loop body: no attribute access, no global reads beyond
    #    comb.
    for node in ast.walk(loop):
        if isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else "?"
            problems.append(
                f"attribute access {owner}.{node.attr} inside the step loop "
                f"(line {node.lineno}); method lookups must be hoisted out"
            )
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in locals_and_params and node.id not in _ALLOWED_GLOBALS:
                # Already reported by the namespace check; keep loop-local
                # context anyway for corrupted single-line injections.
                problems.append(
                    f"global read {node.id!r} inside the step loop (line {node.lineno})"
                )

    # 3. Complete dispatch with per-arm deltas matching the net.
    consensus_deltas = net.consensus_deltas(tuple(classes))
    n = net.num_transitions
    if kind not in _KINDS:
        problems.append(f"unknown scheduler kind {kind!r}")
    elif n == 1:
        # Single transition: fire statements are inlined, no chain.
        _check_arm_deltas(net, consensus_deltas, [loop.body], problems)
    elif n > 1:
        chains = [s for s in loop.body if isinstance(s, ast.If) and _looks_like_dispatch(s)]
        if len(chains) != 1:
            problems.append(
                f"expected exactly one dispatch chain in the loop, found {len(chains)}"
            )
        else:
            _check_arm_deltas(net, consensus_deltas, _dispatch_arms(chains[0]), problems)

    # 4. Counts round-trip: c<i> loads and counts[i] write-backs.
    loaded: Set[int] = set()
    written_back: Set[int] = set()
    for statement in func.body:
        if (
            isinstance(statement, ast.Assign)
            and len(statement.targets) == 1
            and isinstance(statement.targets[0], ast.Name)
            and statement.targets[0].id.startswith("c")
            and statement.targets[0].id[1:].isdigit()
            and isinstance(statement.value, ast.Subscript)
            and isinstance(statement.value.value, ast.Name)
            and statement.value.value.id == "counts"
            and isinstance(statement.value.slice, ast.Constant)
        ):
            loaded.add(statement.value.slice.value)
        if (
            isinstance(statement, ast.Assign)
            and len(statement.targets) == 1
            and isinstance(statement.targets[0], ast.Subscript)
            and isinstance(statement.targets[0].value, ast.Name)
            and statement.targets[0].value.id == "counts"
            and isinstance(statement.targets[0].slice, ast.Constant)
        ):
            written_back.add(statement.targets[0].slice.value)
    read = {index for pre in net.pre_lists for index, _ in pre}
    written = {index for delta in net.delta_lists for index, _ in delta}
    touched = read | written
    if loaded != touched:
        problems.append(
            "loop loads count indices "
            # qa: allow[DET202] -- dense int state indices, totally ordered
            f"{sorted(loaded)}, expected the touched set {sorted(touched)}"
        )
    if written_back != written:
        problems.append(
            "loop writes back count indices "
            # qa: allow[DET202] -- dense int state indices, totally ordered
            f"{sorted(written_back)}, expected the written set {sorted(written)}"
        )
    return problems


def _looks_like_dispatch(node: ast.If) -> bool:
    """An If chain whose test involves ``pick``/``cum``."""
    return any(
        isinstance(leaf, ast.Name) and leaf.id in {"pick", "cum"}
        for leaf in ast.walk(node.test)
    )


#: The statements the recording variant is allowed to add: the hoisted
#: ``append`` and one append of the fired index (the constant arm index).
_RECORDING_LINE = re.compile(r"append = ring\.append|append\(\d+\)")


def _strip_ring_statements(source: str) -> str:
    """The recording variant's source with every recording statement removed
    and the extra ``ring`` parameter dropped — what must equal the fast
    variant."""
    lines = []
    for line in source.splitlines():
        if _RECORDING_LINE.fullmatch(line.strip()):
            continue
        lines.append(line.replace("undef, ring):", "undef):"))
    return "\n".join(lines)


def audit_compiled_net(
    net: CompiledNet,
    classes: Optional[Sequence[int]] = None,
    kinds: Sequence[str] = _KINDS,
) -> List[str]:
    """Audit every stepper variant (kind x {fast, recording}) of one net.

    Returns problem descriptions prefixed with the variant that raised them;
    an empty list means the net's generated code passes every check.  With
    ``classes=None`` all states are treated as consensus-ignored, which still
    exercises dispatch/delta/namespace checks; pass the protocol's real
    output classes for counter coverage.
    """
    if classes is None:
        classes = (OUT_IGNORED,) * net.num_states
    classes = tuple(classes)
    problems: List[str] = []
    for kind in kinds:
        sources = {}
        for record in (False, True):
            source = net.stepper_source(kind, classes, record=record)
            sources[record] = source
            variant = f"{kind}/{'recording' if record else 'fast'}"
            for problem in audit_stepper_source(source, net, kind, classes, record=record):
                problems.append(f"{variant}: {problem}")
        if _strip_ring_statements(sources[True]) != sources[False]:
            problems.append(
                f"{kind}: recording variant differs from the fast variant by "
                "more than append statements"
            )
    return problems
