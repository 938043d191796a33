"""The native library: the simulation stepper and the exhaustive explorer.

``native.c`` (next to this file) holds one C loop for both schedulers and
the breadth-first search and backward search of
:class:`~repro.core.semantics.DenseReachabilityGraph`.  It is compiled with
the host C compiler ``cc`` the first time a process needs it, into the
per-user cache directory ``~/.cache/repro-native`` (created with mode 0700),
under a name keyed by the hash of the source, the flags and the platform.
Later processes, pool workers included, load the cached library.  A build is
written under a temporary name in that directory and renamed into place, so
concurrent first uses never load a half-written file.  Without a compiler,
or with a cache directory that cannot be used, :func:`available` is false:
``engine="auto"`` runs the compiled engine instead, ``engine="native"``
raises :class:`NativeUnavailable`, whose message names the cause, and the
dense graph explores in Python.

The C loop reproduces CPython's MT19937 (``random.Random(seed)`` seeding for
int seeds, ``getrandbits`` and ``_randbelow``), so it fires exactly the
transitions the compiled and reference engines fire.  :class:`NativeStepper`
keeps the call contract of a compiled stepper (counts mutated in place, the
generator's state carried in and out through ``getstate`` / ``setstate``) and
adds :meth:`NativeStepper.run_seeds`, which runs a whole seed list in one call
and seeds each generator inside C.  A run whose counts leave int64 or whose
weight total reaches 2**64 is redone on the compiled engine from the same
counts and generator state, so no result depends on the engine; on a net too
large for the compiled engine such a run raises :class:`OverflowError`.

The explorer works on configurations packed into one 64-bit word
(:func:`explore`, :func:`eventually_stable`); the dense graph explores in
Python when its codes need more bits.

Every buffer the C code touches is an :class:`array.array` allocated here for
the call: the C side allocates nothing, so ``tracemalloc`` sees all of the
memory, and concurrent calls share no mutable state.
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import random
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from array import array
from pathlib import Path
from typing import Any, Deque, List, Optional, Sequence, Tuple

from ..core.petrinet import ExplorationLimitError
from .compiled import CompiledNet, check_kind

__all__ = [
    "NativeStepper", "NativeUnavailable", "available", "eventually_stable", "explore",
    "library",
]

#: The C compiler that builds the library (GCC's command-line flags).
_COMPILER = "cc"
_FLAGS = ("-O2", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("native.c")

#: Fired transitions a recording call buffers before extending the deque.
_CHUNK = 4096
_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1

# Return codes and the control-array slots Python touches, as in native.c.
_DONE, _YIELD, _OVERFLOW = 0, 1, 2
_CONTROL_SLOTS = 19
_RUN, _PHASE, _REC_CAP, _REC_LEN, _REC_RUN = 6, 7, 16, 17, 18

#: One native run: ``(steps, consensus_value, consensus_since, terminated,
#: final_counts)`` with ``-1`` standing for ``None``.
RunOutcome = Tuple[int, int, int, bool, List[int]]

# Exploration statuses and the control slots Python touches, as in native.c.
_EXPLORED, _FULL, _WIDEN, _LIMIT = 0, 1, 2, 3
_X_NODES, _X_INDEXED, _X_EDGES, _X_NODE_CAP, _X_EDGE_CAP = 3, 4, 5, 6, 7
#: Nodes and edges an exploration first has room for.
_FIRST_NODES, _FIRST_EDGES = 64, 256
#: Node ids and edge offsets are int32.
_INT32_MAX = 2 ** 31 - 1

#: An explored graph: the codes in discovery order, and the predecessor
#: lists as CSR arrays (offsets, then source ids).
Explored = Tuple[array, array, array]


class NativeUnavailable(RuntimeError):
    """The native library cannot be built or loaded here; the message says why."""


_lock = threading.Lock()
_library: Optional[ctypes.CDLL] = None
_failure: Optional[str] = None


def library() -> ctypes.CDLL:
    """The native library of this process, built or loaded on first use.

    Raises :class:`NativeUnavailable` (every time, with the first failure's
    reason) when it cannot be built or loaded.
    """
    global _library, _failure
    # Set once and never cleared, so a loaded library needs no lock: a dense
    # graph asks for it several times.
    if _library is None:
        with _lock:
            if _library is None and _failure is None:
                try:
                    _library = _load()
                except NativeUnavailable as error:
                    _failure = str(error)
    if _library is None:
        raise NativeUnavailable(_failure)
    return _library


def available() -> bool:
    """True if the native library builds and loads in this process."""
    try:
        library()
    except NativeUnavailable:
        return False
    return True


def _load() -> ctypes.CDLL:
    source = _SOURCE.read_bytes()
    key = b"\0".join(
        [source, " ".join(_FLAGS).encode(), sysconfig.get_platform().encode()]
    )
    name = "stepper-" + hashlib.sha256(key).hexdigest()[:16]
    name += sysconfig.get_config_var("SHLIB_SUFFIX") or ".so"
    try:
        cache = Path.home() / ".cache" / "repro-native"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = cache.stat()
    except (OSError, RuntimeError) as error:
        raise NativeUnavailable(f"cannot use the native build cache: {error}") from error
    if info.st_mode & 0o022 or info.st_uid != os.getuid():
        raise NativeUnavailable(
            f"the native build cache {cache} must belong to this user and be "
            "writable by no one else"
        )
    target = cache / name
    if not target.exists():
        _build(source, target)
    try:
        lib = ctypes.CDLL(str(target))
    except OSError as error:
        raise NativeUnavailable(f"cannot load {target}: {error}") from error
    pointer = ctypes.c_void_p
    lib.repro_run.argtypes = [pointer] * 10
    lib.repro_run.restype = ctypes.c_int
    lib.repro_randbelow.argtypes = [
        pointer, pointer, ctypes.c_int64, pointer, ctypes.c_int64, pointer,
    ]
    lib.repro_randbelow.restype = None
    lib.repro_explore.argtypes = [pointer] * 7
    lib.repro_explore.restype = ctypes.c_int
    lib.repro_eventually_stable.argtypes = [
        pointer, ctypes.c_int64, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64,
        ctypes.c_int64, pointer, pointer, pointer,
    ]
    lib.repro_eventually_stable.restype = ctypes.c_int
    return lib


def _build(source: bytes, target: Path) -> None:
    """Compile ``source`` to ``target`` through a temporary file and a rename."""
    compiler = shutil.which(_COMPILER)
    if compiler is None:
        raise NativeUnavailable(
            f"no C compiler: {_COMPILER!r} is not on PATH (the native stepper "
            "is built with it on first use)"
        )
    partial = None
    try:
        fd, partial = tempfile.mkstemp(prefix=".build-", dir=target.parent)
        os.close(fd)
        built = subprocess.run(
            [compiler, *_FLAGS, "-o", partial, "-x", "c", "-"],
            input=source, capture_output=True,
        )
        if built.returncode:
            stderr = built.stderr.decode(errors="replace").strip()
            raise NativeUnavailable(
                f"{_COMPILER} could not build {_SOURCE.name}: {stderr[-400:]}"
            )
        os.replace(partial, target)
    except OSError as error:
        raise NativeUnavailable(
            f"cannot build the native stepper into {target.parent}: {error}"
        ) from error
    finally:
        if partial is not None and os.path.exists(partial):
            os.unlink(partial)


def _address(buffer: Optional[array]) -> Optional[int]:
    return None if buffer is None else buffer.buffer_info()[0]


def _clamp(value: int) -> int:
    return min(max(value, _INT64_MIN), _INT64_MAX)


class NativeStepper:
    """The native loop over one compiled net, scheduler kind and output classes.

    Holds the net's tables as one int64 array: a header (states,
    transitions, weight kind, block shift, block count, section offsets),
    then the pre-sets, displacements and ``affected`` lists of
    :class:`~repro.simulation.compiled.CompiledNet` as offset-indexed rows,
    then the consensus-counter deltas.  Weights sit in blocks of
    ``2**shift`` transitions, the smallest power of two whose square covers
    the transition count.  Obtain instances through
    :meth:`CompiledNet.native_stepper`, which caches them.
    """

    def __init__(self, net: CompiledNet, kind: str, classes: Tuple[int, ...]) -> None:
        check_kind(kind)
        self._run = library().repro_run
        self.net = net
        self.kind = kind
        self.classes = tuple(classes)
        transitions = net.num_transitions
        shift = 0
        while 1 << (2 * shift) < transitions:
            shift += 1
        blocks = (transitions + (1 << shift) - 1) >> shift
        self._work_size = net.num_states + transitions + blocks
        table = array(
            "q", [net.num_states, transitions, kind == "uniform", shift, blocks, 0, 0, 0, 0]
        )
        sections = (
            [[value for pair in pre for value in pair] for pre in net.pre_lists],
            [[value for pair in delta for value in pair] for delta in net.delta_lists],
            net.affected,
        )
        for slot, rows in enumerate(sections, start=5):
            table[slot] = len(table)
            position = len(table) + transitions + 1
            for row in rows:
                table.append(position)
                position += len(row)
            table.append(position)
            for row in rows:
                table.extend(row)
        table[8] = len(table)
        for deltas in net.consensus_deltas(self.classes):
            table.extend(deltas)
        self._table = table

    def __call__(
        self,
        counts: List[int],
        rng: random.Random,
        max_steps: int,
        stability_window: int,
        one: int,
        zero: int,
        undef: int,
        ring: Optional[Deque[int]] = None,
    ) -> Tuple[int, int, int, bool]:
        """Run one execution with the contract of
        :meth:`CompiledNet.stepper <repro.simulation.compiled.CompiledNet.stepper>`;
        ``ring``, if given, receives the fired transition indices."""
        state = rng.getstate()
        mt = array("I", state[1])
        counters = (one, zero, undef)
        (outcome,) = self._runs(
            counts, None, mt, max_steps, stability_window, counters,
            None if ring is None else [ring],
        )
        if outcome is None:
            outcome = self._redo(counts, rng, max_steps, stability_window, counters, ring)
        else:
            rng.setstate((state[0], tuple(mt), state[2]))
        steps, value, since, terminated, counts[:] = outcome
        return steps, value, since, terminated

    def run_seeds(
        self,
        counts: List[int],
        seeds: Sequence[int],
        max_steps: int,
        stability_window: int,
        one: int,
        zero: int,
        undef: int,
        rings: Optional[Sequence[Deque[int]]] = None,
    ) -> List[RunOutcome]:
        """One run per seed from ``counts``, each under the generator
        ``random.Random(seed)`` would be, in one native call.

        ``counts`` is left untouched; each outcome carries its final counts.
        ``rings``, if given, holds one deque per seed.
        """
        keys = array("I")
        starts = array("q", [0])
        for seed in seeds:
            magnitude = abs(operator.index(seed))
            keys.extend(
                (magnitude >> shift) & 0xFFFFFFFF
                for shift in range(0, max(magnitude.bit_length(), 1), 32)
            )
            starts.append(len(keys))
        counters = (one, zero, undef)
        outcomes = self._runs(
            counts, (keys, starts), array("I", bytes(4 * 625)), max_steps,
            stability_window, counters, rings,
        )
        return [
            self._redo(
                counts, random.Random(seed), max_steps, stability_window, counters,
                None if rings is None else rings[index],
            ) if outcome is None else outcome
            for index, (seed, outcome) in enumerate(zip(seeds, outcomes))
        ]

    def _redo(
        self,
        counts: List[int],
        rng: random.Random,
        max_steps: int,
        stability_window: int,
        counters: Tuple[int, int, int],
        ring: Optional[Deque[int]],
    ) -> RunOutcome:
        """The run on the compiled engine, for values beyond 64 bits.

        Raises :class:`OverflowError` when the net is too large for the
        compiled engine to generate its stepper.
        """
        final = list(counts)
        try:
            stepper = self.net.stepper(self.kind, self.classes, record=ring is not None)
        except RecursionError as error:
            raise OverflowError(
                "a count or weight of this run leaves 64 bits, which the native "
                "engine hands to the compiled engine, but this net "
                f"({self.net.num_transitions} transitions) is too large for it; "
                "use engine='reference'"
            ) from error
        extra = () if ring is None else (ring,)
        return stepper(final, rng, max_steps, stability_window, *counters, *extra) + (final,)

    def _runs(
        self,
        counts: List[int],
        seeding: Optional[Tuple[array, array]],
        mt: array,
        max_steps: int,
        stability_window: int,
        counters: Tuple[int, int, int],
        rings: Optional[Sequence[Deque[int]]],
    ) -> List[Any]:
        """Drive the C loop over every run; ``None`` marks a run that must be
        redone on the compiled engine (a value left int64 / uint64)."""
        runs = 1 if seeding is None else len(seeding[1]) - 1
        try:
            base = array("q", counts)
            control = array(
                "q",
                [_clamp(max_steps), _clamp(stability_window), *counters, runs]
                + [0] * (_CONTROL_SLOTS - 6),
            )
        except OverflowError:
            return [None] * runs
        states = len(base)
        chunk = max(1, min(max_steps, _CHUNK)) if rings is not None else 0
        control[_REC_CAP] = chunk
        work = array("q", bytes(8 * self._work_size))
        out = array("q", bytes(32 * runs))
        finals = array("q", bytes(8 * states * runs))
        rec = array("i", bytes(4 * chunk))
        keys, starts = seeding if seeding is not None else (None, None)
        arguments = [
            _address(buffer)
            for buffer in (self._table, control, work, mt, base, keys, starts, out, finals, rec)
        ]
        failed = set()
        while True:
            status = self._run(*arguments)
            if status == _DONE:
                break
            if status == _YIELD:
                rings[control[_REC_RUN]].extend(rec[: control[_REC_LEN]])
            else:
                failed.add(control[_RUN])
                if rings is not None:
                    rings[control[_RUN]].clear()
                control[_RUN] += 1
                control[_PHASE] = 0
            control[_REC_LEN] = 0
        return [
            None if index in failed else (
                out[4 * index], out[4 * index + 1], out[4 * index + 2],
                bool(out[4 * index + 3]),
                finals[index * states : (index + 1) * states].tolist(),
            )
            for index in range(runs)
        ]


def explore(steps: array, root: int, max_nodes: Optional[int]) -> Optional[Explored]:
    """Breadth-first search in C from the 64-bit code ``root``.

    ``steps`` (unsigned 64-bit) holds the guard word, then one ``(key,
    delta)`` pair per transition, a negative delta in two's complement (see
    :class:`~repro.core.semantics.DenseReachabilityGraph`).  Returns the
    codes in discovery order with the predecessor lists as CSR arrays, or
    ``None`` once a count outgrows its field.  Raises
    :class:`~repro.core.petrinet.ExplorationLimitError` when a node beyond
    the first ``max_nodes`` would be discovered.  Each buffer starts small
    and doubles whenever the next node's steps might not fit in it.
    """
    search = library().repro_explore
    count = (len(steps) - 1) // 2
    limit = _INT64_MAX if max_nodes is None else _clamp(max(max_nodes, 0))
    node_cap, edge_cap = _FIRST_NODES, _FIRST_EDGES
    control = array("q", [count, limit, 0, 1, 0, 0, node_cap, edge_cap])
    codes = array("Q", bytes(8 * node_cap))
    codes[0] = root
    table = array("i", bytes(8 * node_cap))
    starts = array("i", bytes(4 * (node_cap + 1)))
    targets = array("i", bytes(4 * edge_cap))
    sources = array("i", bytes(4 * edge_cap))
    while True:
        buffers = (steps, control, codes, table, starts, targets, sources)
        status = search(*[buffer.buffer_info()[0] for buffer in buffers])
        if status == _EXPLORED:
            break
        if status == _WIDEN:
            return None
        if status == _LIMIT:
            raise ExplorationLimitError(f"exploration exceeded {max_nodes} configurations")
        # _FULL: grow what the next node's steps might not fit, and resume.
        if control[_X_NODES] + count > node_cap:
            grown = _doubled(node_cap, control[_X_NODES] + count)
            codes.frombytes(bytes(8 * (grown - node_cap)))
            starts.frombytes(bytes(4 * (grown - node_cap)))
            # A fresh table: the search indexes every code again.
            table = array("i", bytes(8 * grown))
            control[_X_INDEXED] = 0
            control[_X_NODE_CAP] = node_cap = grown
        if control[_X_EDGES] + count > edge_cap:
            grown = _doubled(edge_cap, control[_X_EDGES] + count)
            targets.frombytes(bytes(4 * (grown - edge_cap)))
            sources.frombytes(bytes(4 * (grown - edge_cap)))
            control[_X_EDGE_CAP] = edge_cap = grown
    # The finished search left the predecessor offsets in the table.
    del codes[control[_X_NODES] :], table[control[_X_NODES] + 1 :]
    del sources[control[_X_EDGES] :]
    return codes, table, sources


def _doubled(capacity: int, needed: int) -> int:
    """``capacity`` doubled until it holds ``needed`` entries."""
    while capacity < needed:
        capacity *= 2
    if capacity > _INT32_MAX // 2:
        raise MemoryError("the graph has too many nodes or edges for 32-bit ids")
    return capacity


def eventually_stable(
    codes: array, offsets: array, sources: array, masks: Tuple[int, int, int], value: int
) -> bool:
    """Whether every node of an :func:`explore` graph can reach a
    ``value``-output-stable node; ``masks`` holds the fields of the states
    of each output class (ones, zeros, undefined)."""
    work = array("i", bytes(8 * len(codes)))
    return bool(
        library().repro_eventually_stable(
            codes.buffer_info()[0], len(codes), *masks, value,
            *[buffer.buffer_info()[0] for buffer in (offsets, sources, work)],
        )
    )
