"""The sweep result store: one sqlite table, claimed in batches of cells.

The live state of every sweep is one ``.sqlite`` file, py_experimenter
style: a row per grid cell carrying exactly :data:`~repro.sweep.store.COLUMNS`
plus claim bookkeeping.  A single-process :meth:`SweepRunner.run
<repro.sweep.runner.SweepRunner.run>` and any number of independent
:meth:`~repro.sweep.runner.SweepRunner.run_claims` runner processes — one
host or many sharing a filesystem — drive it the same way: repeatedly
*claim* a batch of open cells, execute them, and commit their results,
until the table drains.  Concurrency safety comes entirely from sqlite:

* the database runs in WAL mode with a busy timeout, so readers never block
  the single writer and contending writers queue instead of erroring;
* a whole grid registers in one transaction (:meth:`~SqliteResultStore.
  ensure_batch`), and every claim is one ``BEGIN IMMEDIATE`` transaction
  (:meth:`~SqliteResultStore.claim_batch`) — select the first eligible rows
  in grid order, mark each ``running`` with the claimant's owner id and a
  lease expiry, commit — so two runners can never claim the same cell.  An
  index on ``(status, position)`` serves each status's ``ORDER BY position
  LIMIT k`` branch, so a claim costs the same at any grid size;
* result commits are **owner-guarded**: ``UPDATE … WHERE cell=? AND
  owner=? AND status='running'`` with a rowcount check, so a runner whose
  lease was reclaimed (it stalled, its heartbeat was partitioned away)
  cannot overwrite the reclaimant's work — its late commit is refused and
  reported as lost.  A batch's results commit in one transaction
  (:meth:`~SqliteResultStore.finish_batch`).

The single-cell methods (:meth:`~SqliteResultStore.ensure`,
:meth:`~SqliteResultStore.claim_next`, :meth:`~SqliteResultStore.
finish_claim`) are the one-item case of the batched ones.

Durability: WAL runs with ``PRAGMA synchronous=NORMAL``
(https://www.sqlite.org/pragma.html#pragma_synchronous).  A killed process
loses no committed row, so a killed sweep leaves a consistent table behind
and resuming is just running again.  An OS crash or power loss can drop the
last commits; those cells rerun to identical rows, because every cell's
seeds derive from the master seed and the cell identity alone.

Liveness under crashes is lease-based: a claim holds ``lease_expires``
(wall-clock seconds), runners extend it via :meth:`~SqliteResultStore.
heartbeat` while the cell executes, and a ``running`` row whose lease has
expired is presumed orphaned by a dead runner and becomes claimable again.
Each reclaim increments ``retry_count``; a failing cell backs off
exponentially (``backoff_base * 2**(attempts-1)`` seconds between tries)
and is **parked** as a plain ``error`` row once ``max_retries`` is
exhausted, so one poisoned cell cannot livelock the fleet.

The claim bookkeeping (owner / lease / retry columns) lives **outside**
:data:`~repro.sweep.store.COLUMNS`, so ``rows()`` of a drained store is the
same whichever runners drained it, and ``python -m repro.sweep export``
renders it as byte-identical CSV / JSON lines
(:func:`~repro.sweep.store.export_rows`).

Wall-clock time is used *only* for leases and backoff — scheduling
bookkeeping, never a simulation input; tests inject a fake clock.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .faults import fault_point
from .spec import KEYFIELDS
from .store import (
    COLUMNS,
    EXPORT_SUFFIXES,
    STATUS_CREATED,
    STATUS_DONE,
    STATUS_ERROR,
    STATUS_RUNNING,
    StoreCorruptionError,
    _FLOAT_COLUMNS,
    _INT_COLUMNS,
    _RESULT_COLUMNS,
    _STATUSES,
    _done_values,
    normalize_error_message,
)

__all__ = [
    "BOOKKEEPING_COLUMNS",
    "Claim",
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_BUSY_TIMEOUT",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MAX_RETRIES",
    "SQLITE_SUFFIXES",
    "SqliteResultStore",
    "check_claim_policy",
    "open_store",
]

#: The file suffixes of a live store.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: Claim-lifecycle defaults.  A lease far longer than any sane cell runtime
#: (heartbeats extend it anyway); a handful of retries with seconds-scale
#: backoff before a cell is parked.
DEFAULT_LEASE_SECONDS = 60.0
DEFAULT_MAX_RETRIES = 3
DEFAULT_BACKOFF_BASE = 1.0
DEFAULT_BUSY_TIMEOUT = 30.0

#: The claim-bookkeeping columns sqlite adds *next to* the shared
#: :data:`~repro.sweep.store.COLUMNS` schema.  They are deliberately not
#: part of ``rows()`` output: done-row comparisons against single-process
#: stores exclude exactly this set.
BOOKKEEPING_COLUMNS = ("owner", "lease_expires", "retry_count", "next_attempt")

#: Seeds are unsigned 64-bit (sha256-derived) and can exceed sqlite's signed
#: INTEGER range, so the seed column is stored as TEXT and parsed back.
_TEXT_INT_COLUMNS = frozenset({"seed"})

_CLAIM_COLUMNS = (
    '"cell", "status", "retry_count", "seed", '
    + ", ".join(f'"{key}"' for key in KEYFIELDS)
    + ', "position"'
)

#: The claim scan: one ``ORDER BY position LIMIT k`` branch per eligible
#: status, each a search of the ``(status, position)`` index, merged in grid
#: order.  (One ``WHERE`` with three ``OR``-ed statuses cannot use the index
#: and scans the whole table on every claim.)
_CLAIM_SQL = " UNION ALL ".join(
    f"SELECT * FROM (SELECT {_CLAIM_COLUMNS} FROM cells WHERE {condition} "
    'ORDER BY "position" LIMIT ?)'
    for condition in (
        '"status" = ?',
        '"status" = ? AND "lease_expires" <= ?',
        '"status" = ? AND "next_attempt" <= ?',
    )
) + ' ORDER BY "position" LIMIT ?'


def _claim_parameters(now: float, limit: int) -> Tuple[object, ...]:
    """The parameters of :data:`_CLAIM_SQL` at time ``now``."""
    return (
        STATUS_CREATED, limit,
        STATUS_RUNNING, now, limit,
        STATUS_ERROR, now, limit,
        limit,
    )


def _wall_clock() -> float:
    """Lease/backoff timestamps (bookkeeping only, never a simulation input)."""
    return time.time()  # qa: allow[DET102] -- lease bookkeeping, not a simulation input


class _MonotonicFloor:
    """A clock wrapper that never runs backwards (per store, thread-safe).

    Lease and backoff arithmetic assumes timestamps only grow; a backwards
    wall-clock step (NTP correction, VM resume) read raw would instantly
    "expire" every live lease — two workers then hold the same cell — or
    push ``next_attempt`` into the apparent future, stalling retries.  The
    fix is the classic monotonic floor: remember the largest value ever
    returned and clamp every read to ``max(floor, raw())``.  Time simply
    stands still until the wall clock catches back up, which is exactly the
    conservative behavior leases want (they err toward *not yet expired*).

    Wraps injected test clocks too, so the regression tests drive a fake
    clock backwards and observe the clamp.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._floor = float("-inf")
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            now = float(self._clock())
            if now < self._floor:
                return self._floor
            self._floor = now
            return now


def _column_type(column: str) -> str:
    if column in _TEXT_INT_COLUMNS:
        return "TEXT"
    if column in _INT_COLUMNS:
        return "INTEGER"
    if column in _FLOAT_COLUMNS:
        return "REAL"
    return "TEXT"


def _to_db(column: str, value: object) -> object:
    if value is None:
        return None
    if column in _TEXT_INT_COLUMNS:
        return str(value)
    return value


def _from_db(column: str, value: object, context: str) -> object:
    if value is None:
        return None
    if column in _TEXT_INT_COLUMNS:
        try:
            return int(value)
        except (TypeError, ValueError):
            raise StoreCorruptionError(
                f"{context}: column {column!r} holds non-integer value {value!r}"
            ) from None
    return value


@dataclass(frozen=True)
class Claim:
    """A successfully claimed cell: who holds it, and for which attempt.

    ``attempt`` is the row's retry count at claim time: 0 on the first
    execution, 1 after one failure/reclaim, and so on — the claim loop
    reports it so chaos logs show which attempt finally committed.
    """

    cell: str
    owner: str
    attempt: int
    seed: int
    keyfields: Dict[str, object]


def check_claim_policy(
    lease_seconds: Optional[float] = None,
    max_retries: Optional[int] = None,
    backoff_base: Optional[float] = None,
) -> None:
    """Raise :class:`ValueError` for a claim policy the store refuses.

    A setting left at ``None`` is not checked.  :class:`SqliteResultStore`
    checks its policy here before it touches its file, and ``python -m
    repro.sweep workers`` checks its flags here before it starts a runner.
    """
    if lease_seconds is not None and lease_seconds <= 0:
        raise ValueError(f"lease_seconds must be positive, got {lease_seconds}")
    if max_retries is not None and max_retries < 0:
        raise ValueError(f"max_retries must be non-negative, got {max_retries}")
    if backoff_base is not None and backoff_base < 0:
        raise ValueError(f"backoff_base must be non-negative, got {backoff_base}")


def open_store(path: Union[str, Path]) -> "SqliteResultStore":
    """Open (or create) the live store at ``path``, checking its suffix.

    A live store is a ``.sqlite`` / ``.sqlite3`` / ``.db`` file.  CSV and
    JSON-lines paths are export formats and raise :class:`ValueError`
    pointing at ``python -m repro.sweep export``; so does any other suffix.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in SQLITE_SUFFIXES:
        return SqliteResultStore(path)
    if suffix in EXPORT_SUFFIXES:
        raise ValueError(
            f"{path.name!r} is an export format, not a live store; run the "
            "sweep against a .sqlite store and render it with "
            "'python -m repro.sweep export --store STORE.sqlite --to "
            f"{path.name}'"
        )
    raise ValueError(
        f"cannot open {path.name!r} as a store; use a "
        f"{'/'.join(SQLITE_SUFFIXES)} path"
    )


class SqliteResultStore:
    """The sweep result store (see the module docstring).

    Parameters
    ----------
    path:
        The database path (created if absent); ``":memory:"`` gives a
        private in-memory table for throwaway runs.
    lease_seconds / max_retries / backoff_base:
        Claim-lifecycle knobs; see :meth:`claim_next` and :meth:`fail_claim`.
    busy_timeout:
        Seconds a writer waits on a contended database before sqlite gives
        up (surfaced as ``sqlite3.OperationalError: database is locked``).
    clock:
        The wall-clock source for leases and backoff.  Tests inject a fake;
        production uses :func:`time.time` via the module helper.  Either
        way the store clamps reads with a per-store monotonic floor
        (:class:`_MonotonicFloor`): a backwards wall-clock step can never
        expire a live lease or stall backoff arithmetic.
    """

    def __init__(
        self,
        path: Union[str, Path],
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        busy_timeout: float = DEFAULT_BUSY_TIMEOUT,
        clock: Optional[Callable[[], float]] = None,
    ):
        check_claim_policy(lease_seconds, max_retries, backoff_base)
        self.path = Path(path)
        self.lease_seconds = float(lease_seconds)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        # The clamp wraps *any* clock source, injected fakes included: a
        # backwards step is absorbed per store (see _MonotonicFloor).
        self._clock: Callable[[], float] = _MonotonicFloor(
            clock if clock is not None else _wall_clock
        )
        # One connection, shared across the claim loop and the heartbeat
        # thread; the lock serializes them (sqlite connections are not
        # thread-safe, and cross-*process* safety comes from sqlite itself).
        self._lock = threading.RLock()
        # ``timeout`` installs sqlite's busy handler for the connection.
        self._connection = sqlite3.connect(
            str(self.path),
            timeout=busy_timeout,
            isolation_level=None,
            check_same_thread=False,
        )
        with self._lock:
            # The schema commits first, in the file's current journal mode
            # (sqlite's rollback journal, for a new file): created before
            # the switch to WAL, it leaves no WAL frames for the first close
            # to checkpoint.
            with self._transaction():
                self._create_schema()
            # Per connection: from here on commits reach the WAL without an
            # fsync, which survives a killed process but not an OS crash
            # (the module docstring says why that loses nothing a rerun
            # cannot restore).
            self._connection.execute("PRAGMA synchronous=NORMAL")
            self._enable_wal(busy_timeout)

    def _enable_wal(self, busy_timeout: float) -> None:
        """Switch the database to WAL, retrying through the first-open race.

        The journal-mode change needs a moment of exclusivity; sqlite's busy
        handler does not cover every lock transition involved, so two
        processes creating the same store can see a raw "database is locked"
        here.  WAL is persistent in the file header — once either opener
        wins, the other's retry is a no-op read.
        """
        deadline = time.monotonic() + busy_timeout
        while True:
            try:
                self._connection.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    # ------------------------------------------------------------------
    # Schema and connection plumbing
    # ------------------------------------------------------------------
    def _create_schema(self) -> None:
        result_columns = ", ".join(
            f'"{column}" {_column_type(column)}'
            for column in COLUMNS
            if column != "cell"
        )
        self._connection.execute(
            'CREATE TABLE IF NOT EXISTS cells ('
            '"cell" TEXT PRIMARY KEY, '
            '"position" INTEGER NOT NULL, '
            f"{result_columns}, "
            '"owner" TEXT, '
            '"lease_expires" REAL, '
            '"retry_count" INTEGER NOT NULL DEFAULT 0, '
            '"next_attempt" REAL)'
        )
        # Every claim branch is "rows of one status in grid order".
        self._connection.execute(
            'CREATE INDEX IF NOT EXISTS cells_by_status ON cells ("status", "position")'
        )

    def _transaction(self) -> "_ImmediateTransaction":
        return _ImmediateTransaction(self._connection, self._lock)

    def close(self) -> None:
        """Close the database connection (the store is unusable after)."""
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "SqliteResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def ensure(
        self, cell_id: str, keyfields: Mapping[str, object], seed: int
    ) -> bool:
        """Register one cell; the one-item case of :meth:`ensure_batch`.

        Returns True when the row was newly created.
        """
        return self.ensure_batch([(cell_id, keyfields, seed)]) == 1

    def ensure_batch(
        self, cells: Iterable[Tuple[str, Mapping[str, object], int]]
    ) -> int:
        """Register ``(cell_id, keyfields, seed)`` cells as ``created``, in order.

        The whole batch is one transaction, and new rows take the next grid
        positions in the order given.  Several launcher processes may race
        to register the same grid: ``INSERT OR IGNORE`` makes the race
        benign, and every existing row is *verified* to agree on keyfields
        and seed — a mismatch means a different spec or master seed wrote
        this store, and resuming would mix incompatible tables, so it raises
        :class:`StoreCorruptionError` and registers nothing.  Returns how
        many rows were newly created.
        """
        inserted = 0
        with self._transaction():
            base = self._next_position()
            for cell_id, keyfields, seed in cells:
                keys = list(keyfields)
                names = ", ".join(f'"{key}"' for key in keys)
                if self._connection.execute(
                    f'INSERT OR IGNORE INTO cells ("cell", "position", "seed", '
                    f'"status", {names}) VALUES (?, ?, ?, ?, '
                    + ", ".join("?" for _ in keys)
                    + ")",
                    [cell_id, base + inserted, _to_db("seed", seed), STATUS_CREATED]
                    + [_to_db(key, keyfields[key]) for key in keys],
                ).rowcount:
                    inserted += 1
                    continue
                stored = self._connection.execute(
                    f'SELECT "seed", {names} FROM cells WHERE "cell" = ?',
                    (cell_id,),
                ).fetchone()
                context = f"{self.path}: cell {cell_id!r}"
                for key, value in zip(keys, stored[1:]):
                    if _from_db(key, value, context) != keyfields[key]:
                        raise StoreCorruptionError(
                            f"store row for {cell_id!r} disagrees on {key!r} "
                            f"({value!r} != {keyfields[key]!r}); this store was "
                            "written by a different sweep spec"
                        )
                if _from_db("seed", stored[0], context) != seed:
                    raise StoreCorruptionError(
                        f"store row for {cell_id!r} carries seed {stored[0]!r}, "
                        f"expected {seed}; this store was written with a "
                        "different master seed"
                    )
        return inserted

    def import_rows(self, rows: "List[Mapping[str, object]]") -> None:
        """Adopt fully-formed rows verbatim, in order (store-to-store export).

        ``rows`` must be :data:`~repro.sweep.store.COLUMNS`-shaped mappings,
        as another store's :meth:`rows` returns them; existing rows with the
        same cell id are replaced in place, new ones take the next grid
        positions.
        """
        with self._transaction():
            base = self._next_position()
            for offset, row in enumerate(rows):
                cell_id = row.get("cell")
                if not cell_id:
                    raise ValueError("imported rows must carry a 'cell' id")
                if row.get("status") not in _STATUSES:
                    raise ValueError(
                        f"imported row for {cell_id!r} carries invalid status "
                        f"{row.get('status')!r}"
                    )
                self._connection.execute(
                    'INSERT OR REPLACE INTO cells ("cell", "position", '
                    + ", ".join(f'"{c}"' for c in COLUMNS if c != "cell")
                    + ") VALUES (?, "
                    "COALESCE((SELECT position FROM cells WHERE cell = ?), ?), "
                    + ", ".join("?" for c in COLUMNS if c != "cell")
                    + ")",
                    [cell_id, cell_id, base + offset]
                    + [_to_db(c, row.get(c)) for c in COLUMNS if c != "cell"],
                )

    def _next_position(self) -> int:
        """The first free grid position (read once per transaction)."""
        (position,) = self._connection.execute(
            "SELECT COALESCE(MAX(position) + 1, 0) FROM cells"
        ).fetchone()
        return int(position)

    # ------------------------------------------------------------------
    # Claim lifecycle
    # ------------------------------------------------------------------
    def claim_next(self, owner: str) -> Optional[Claim]:
        """Claim the next open cell for ``owner``, or ``None``.

        The one-item case of :meth:`claim_batch`.
        """
        claims = self.claim_batch(owner, 1)
        return claims[0] if claims else None

    def claim_batch(self, owner: str, limit: int) -> List[Claim]:
        """Atomically claim up to ``limit`` open cells for ``owner``.

        Eligible, in grid (registration) order:

        * ``created`` rows — never attempted;
        * ``running`` rows whose lease expired — orphaned by a dead or
          partitioned runner; reclaiming increments ``retry_count`` and, if
          that exhausts ``max_retries``, the row is *parked* as ``error``
          (with a lease-expiry message) instead of claimed;
        * ``error`` rows with a due ``next_attempt`` — failed earlier, now
          past their backoff; parked rows (``next_attempt`` NULL) stay put.

        The whole scan-and-mark runs in one ``BEGIN IMMEDIATE`` transaction,
        so concurrent claimants serialize and can never double-claim.  A
        parked row frees its place in the batch, so the scan re-queries
        after a park.  The ``before-claim-commit`` fault point fires once per
        batch; a drop rolls the whole batch back.  Returns the claims in
        grid order — empty only when no row is currently eligible (the grid
        may still hold live claims or backing-off rows — see
        :meth:`unresolved_count`).
        """
        if not owner:
            raise ValueError("claim owner id must be non-empty")
        if limit < 1:
            raise ValueError(f"claim limit must be at least 1, got {limit}")
        now = self._clock()
        claims: List[Claim] = []
        clears = ", ".join(f'"{column}" = NULL' for column in _RESULT_COLUMNS)
        with self._transaction() as txn:
            parked = True
            while parked and len(claims) < limit:
                parked = False
                wanted = limit - len(claims)
                for cell_id, status, retry_count, seed, *keyfields in (
                    self._connection.execute(
                        _CLAIM_SQL, _claim_parameters(now, wanted)
                    ).fetchall()
                ):
                    attempt = int(retry_count)
                    if status == STATUS_RUNNING:
                        # A stale lease: the previous owner is presumed dead.
                        attempt += 1
                        if attempt > self.max_retries:
                            self._park(
                                cell_id, attempt,
                                f"lease expired after {attempt} attempts; parked",
                            )
                            parked = True
                            continue
                    self._connection.execute(
                        f'UPDATE cells SET "status" = ?, {clears}, "owner" = ?, '
                        '"lease_expires" = ?, "retry_count" = ?, '
                        '"next_attempt" = NULL WHERE "cell" = ?',
                        (STATUS_RUNNING, owner, now + self.lease_seconds, attempt,
                         cell_id),
                    )
                    claims.append(Claim(
                        cell=cell_id,
                        owner=owner,
                        attempt=attempt,
                        seed=int(seed),  # stored as TEXT: see _TEXT_INT_COLUMNS
                        keyfields=dict(zip(KEYFIELDS, keyfields[:-1])),
                    ))
            if claims and not fault_point("before-claim-commit"):
                # A scripted drop: the whole transaction rolls back, parking
                # decisions included, exactly like a runner dying mid-claim.
                txn.rollback()
                return []
        return claims

    def heartbeat(self, claim: Claim) -> bool:
        """Extend a held claim's lease; returns whether the claim survives.

        ``False`` means the claim is gone — the lease expired and another
        runner reclaimed (or parked) the cell — and the holder should stop
        wasting cycles on it.  The ``heartbeat-loss`` fault point models a
        network partition: a ``drop`` rule silently suppresses the lease
        extension (this call lies ``True``) so the lease expires under a
        still-running cell.
        """
        if not fault_point("heartbeat-loss"):
            return True
        now = self._clock()
        with self._transaction():
            updated = self._connection.execute(
                'UPDATE cells SET "lease_expires" = ? WHERE "cell" = ? AND '
                '"owner" = ? AND "status" = ?',
                (now + self.lease_seconds, claim.cell, claim.owner, STATUS_RUNNING),
            ).rowcount
        return updated == 1

    def finish_claim(
        self,
        claim: Claim,
        statistics: object,
        accuracy: Optional[float] = None,
        consensus_quantiles: Optional[Tuple[Optional[float], ...]] = None,
        top_transitions: Optional[str] = None,
    ) -> bool:
        """Commit one claimed cell's results; the one-item case of
        :meth:`finish_batch`.  Returns whether the commit won."""
        extras = {
            "accuracy": accuracy,
            "consensus_quantiles": consensus_quantiles,
            "top_transitions": top_transitions,
        }
        return self.finish_batch([(claim, statistics, extras)])[0]

    def finish_batch(
        self, finished: Sequence[Tuple[Claim, object, Mapping[str, object]]]
    ) -> List[bool]:
        """Commit claimed cells' results in one transaction.

        Each item is ``(claim, statistics, extras)``: the claim, the cell's
        :class:`~repro.simulation.statistics.ConvergenceStatistics` and its
        optional ``accuracy`` / ``consensus_quantiles`` / ``top_transitions``
        columns.  Each update is owner-guarded: it only applies while its
        claim still holds the row.  Returns, per item, whether its commit
        won.  A ``False`` means the commit was *lost* — the lease expired
        and the cell was reclaimed (its new owner will produce the identical
        row, so nothing is damaged) — or a scripted ``before-result-write``
        drop suppressed that one write.  Either way the claim holder must
        not retry the write: the row is no longer theirs.  The fault point
        fires once per cell inside the open transaction, so a ``kill`` there
        loses every row of the batch.
        """
        updates = [
            (claim, _done_values(statistics, **extras))
            for claim, statistics, extras in finished
        ]
        committed: List[bool] = []
        if not updates:
            return committed
        with self._transaction():
            for claim, values in updates:
                if not fault_point("before-result-write"):
                    committed.append(False)
                    continue
                assignments = ", ".join(f'"{column}" = ?' for column in values)
                updated = self._connection.execute(
                    f'UPDATE cells SET {assignments}, "lease_expires" = NULL, '
                    '"next_attempt" = NULL '
                    'WHERE "cell" = ? AND "owner" = ? AND "status" = ?',
                    [_to_db(column, value) for column, value in values.items()]
                    + [claim.cell, claim.owner, STATUS_RUNNING],
                ).rowcount
                committed.append(updated == 1)
        return committed

    def fail_claim(self, claim: Claim, message: str) -> str:
        """Record a claimed cell's failure; returns the row's fate.

        ``"retry"``
            The failure is recorded (status ``error``) with ``next_attempt``
            set ``backoff_base * 2**attempts`` seconds out — the row becomes
            claimable again once the backoff elapses.
        ``"parked"``
            Retries are exhausted; the row is a terminal ``error`` row
            (``next_attempt`` NULL) that no claim loop retries.
        ``"lost"``
            The claim had already been reclaimed; nothing was written.
        """
        now = self._clock()
        with self._transaction():
            held = self._connection.execute(
                'SELECT "retry_count" FROM cells WHERE "cell" = ? AND '
                '"owner" = ? AND "status" = ?',
                (claim.cell, claim.owner, STATUS_RUNNING),
            ).fetchone()
            if held is None:
                return "lost"
            attempts = int(held[0]) + 1
            if attempts > self.max_retries:
                self._park(claim.cell, attempts, message)
                return "parked"
            clears = ", ".join(f'"{column}" = NULL' for column in _RESULT_COLUMNS)
            backoff = self.backoff_base * (2 ** (attempts - 1))
            self._connection.execute(
                f'UPDATE cells SET "status" = ?, {clears}, "error" = ?, '
                '"owner" = NULL, "lease_expires" = NULL, "retry_count" = ?, '
                '"next_attempt" = ? WHERE "cell" = ?',
                (
                    STATUS_ERROR,
                    normalize_error_message(message),
                    attempts,
                    now + backoff,
                    claim.cell,
                ),
            )
            return "retry"

    def release_claim(self, claim: Claim) -> bool:
        """Hand a held claim back untouched (graceful SIGTERM drain).

        The row returns to ``created``, immediately claimable by any other
        runner; a clean handback does not consume a retry (``retry_count``
        stays at the claim's attempt number).  Returns whether the claim
        was still held.
        """
        with self._transaction():
            updated = self._connection.execute(
                'UPDATE cells SET "status" = ?, "owner" = NULL, '
                '"lease_expires" = NULL, "retry_count" = ?, "next_attempt" = NULL '
                'WHERE "cell" = ? AND "owner" = ? AND "status" = ?',
                (
                    STATUS_CREATED,
                    claim.attempt,
                    claim.cell,
                    claim.owner,
                    STATUS_RUNNING,
                ),
            ).rowcount
        return updated == 1

    def _park_claim(self, claim: Claim, message: str) -> str:
        """Record a held claim's failure as a terminal ``error`` row now.

        The single-owner :meth:`~repro.sweep.runner.SweepRunner.run` policy:
        no backoff, no retry within the call.  Returns ``"parked"``, or
        ``"lost"`` if the claim was no longer held.
        """
        with self._transaction():
            held = self._connection.execute(
                'SELECT "retry_count" FROM cells WHERE "cell" = ? AND '
                '"owner" = ? AND "status" = ?',
                (claim.cell, claim.owner, STATUS_RUNNING),
            ).fetchone()
            if held is None:
                return "lost"
            self._park(claim.cell, int(held[0]), message)
            return "parked"

    def _reopen(self, retry_errors: bool) -> None:
        """Prepare a single-owner resume: no row is held by a live runner.

        Every ``running`` row is a stale claim of a killed run and goes back
        to ``created``.  ``error`` rows become claimable at once when
        ``retry_errors``, and terminal otherwise (so a retry pending from a
        claim loop's backoff is not taken up either).  Only bookkeeping and
        the stale rows' status change; result columns stay as they are.
        """
        now = self._clock()
        with self._transaction():
            self._connection.execute(
                'UPDATE cells SET "status" = ?, "owner" = NULL, '
                '"lease_expires" = NULL, "next_attempt" = NULL WHERE "status" = ?',
                (STATUS_CREATED, STATUS_RUNNING),
            )
            self._connection.execute(
                'UPDATE cells SET "next_attempt" = ? WHERE "status" = ?',
                (now if retry_errors else None, STATUS_ERROR),
            )

    def _park(self, cell_id: str, attempts: int, message: str) -> None:
        """Terminal error: record the failure with retries exhausted."""
        clears = ", ".join(f'"{column}" = NULL' for column in _RESULT_COLUMNS)
        self._connection.execute(
            f'UPDATE cells SET "status" = ?, {clears}, "error" = ?, '
            '"owner" = NULL, "lease_expires" = NULL, "retry_count" = ?, '
            '"next_attempt" = NULL WHERE "cell" = ?',
            (STATUS_ERROR, normalize_error_message(message), attempts, cell_id),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def unresolved_count(self) -> int:
        """Rows that still need work: not ``done`` and not parked.

        Zero means the grid is fully drained (every cell is ``done`` or a
        terminal ``error`` row) — the claim loop's exit condition when
        waiting out other runners' live claims and backoff windows.
        """
        with self._lock:
            (count,) = self._connection.execute(
                'SELECT COUNT(*) FROM cells WHERE "status" NOT IN (?, ?) OR '
                '("status" = ? AND "next_attempt" IS NOT NULL)',
                (STATUS_DONE, STATUS_ERROR, STATUS_ERROR),
            ).fetchone()
        return int(count)

    def bookkeeping(self, cell_id: str) -> Dict[str, object]:
        """The claim-bookkeeping columns of one row (tests and diagnostics)."""
        with self._lock:
            fetched = self._connection.execute(
                "SELECT "
                + ", ".join(f'"{c}"' for c in BOOKKEEPING_COLUMNS)
                + ' FROM cells WHERE "cell" = ?',
                (cell_id,),
            ).fetchone()
        if fetched is None:
            raise KeyError(f"unknown cell {cell_id!r}; call ensure() first")
        return dict(zip(BOOKKEEPING_COLUMNS, fetched))

    def finished_cells(self) -> List[Tuple[str, str]]:
        """``(cell, status)`` of every ``done`` or ``error`` row, in grid
        order: a search of the status index that decodes no result column."""
        with self._lock:
            return [
                (str(cell), str(status))
                for cell, status in self._connection.execute(
                    'SELECT "cell", "status" FROM cells WHERE "status" IN (?, ?) '
                    "ORDER BY position",
                    (STATUS_DONE, STATUS_ERROR),
                )
            ]

    def rows(self) -> List[Dict[str, object]]:
        """All rows as :data:`~repro.sweep.store.COLUMNS` dicts, in grid order."""
        with self._lock:
            fetched = self._connection.execute(
                "SELECT " + ", ".join(f'"{c}"' for c in COLUMNS)
                + " FROM cells ORDER BY position"
            ).fetchall()
        rows = []
        for record in fetched:
            row = self._decode(record)
            if row["status"] not in _STATUSES:
                raise StoreCorruptionError(
                    f"{self.path}: row for {row['cell']!r} carries invalid "
                    f"status {row['status']!r}"
                )
            rows.append(row)
        return rows

    def get(self, cell_id: str) -> Optional[Dict[str, object]]:
        """The cell's row, or None if the store has no row for it."""
        with self._lock:
            return self._fetch_row(cell_id)

    def status(self, cell_id: str) -> Optional[str]:
        """The cell's status, or None if the store has no row for it."""
        row = self.get(cell_id)
        return None if row is None else row["status"]  # type: ignore[return-value]

    def status_counts(self) -> Dict[str, int]:
        """How many rows hold each status (absent statuses omitted)."""
        with self._lock:
            return dict(
                self._connection.execute(
                    'SELECT "status", COUNT(*) FROM cells GROUP BY "status"'
                ).fetchall()
            )

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM cells"
            ).fetchone()
        return int(count)

    def __contains__(self, cell_id: str) -> bool:
        return self.get(cell_id) is not None

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{status}={count}"
            for status, count in sorted(self.status_counts().items())
        )
        return (
            f"{type(self).__name__}({self.path}, rows={len(self)}"
            f"{', ' + counts if counts else ''})"
        )

    def _fetch_row(self, cell_id: str) -> Optional[Dict[str, object]]:
        fetched = self._connection.execute(
            "SELECT " + ", ".join(f'"{c}"' for c in COLUMNS)
            + ' FROM cells WHERE "cell" = ?',
            (cell_id,),
        ).fetchone()
        return None if fetched is None else self._decode(fetched)

    def _decode(self, record: Tuple[object, ...]) -> Dict[str, object]:
        context = f"{self.path}: cell {record[0]!r}"
        return {
            column: _from_db(column, value, context)
            for column, value in zip(COLUMNS, record)
        }


class _ImmediateTransaction:
    """``BEGIN IMMEDIATE`` … ``COMMIT`` with rollback on exceptions.

    ``BEGIN IMMEDIATE`` takes the database write lock *up front*, so the
    read-check-update sequences above are serialized across processes — the
    sqlite-level mutual exclusion every claim guarantee rests on.
    """

    def __init__(self, connection: sqlite3.Connection, lock: threading.RLock):
        self._connection = connection
        self._lock = lock
        self._finished = False

    def __enter__(self) -> "_ImmediateTransaction":
        self._lock.acquire()
        try:
            self._connection.execute("BEGIN IMMEDIATE")
        except BaseException:
            self._lock.release()
            raise
        return self

    def rollback(self) -> None:
        if not self._finished:
            self._finished = True
            self._connection.execute("ROLLBACK")

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        try:
            if not self._finished:
                self._finished = True
                if exc_type is None:
                    self._connection.execute("COMMIT")
                else:
                    self._connection.execute("ROLLBACK")
        finally:
            self._lock.release()
