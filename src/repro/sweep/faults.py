"""Deterministic fault injection for the distributed sweep layer.

Chaos testing a claim-based store is only useful if the chaos is
**reproducible**: "kill a runner somewhere around the third cell" is not a
regression test.  This module therefore scripts faults ahead of time: a
:class:`FaultPlan` is a set of ``(point, hit, action)`` rules, and the claim
store / claim loop call :func:`fault_point` at a fixed set of named injection
points.  The Nth evaluation of a point in a process fires exactly the action
the plan scripted for hit N — nothing else, ever — so a chaos test states
precisely where in the claim lifecycle a runner dies, and does so on every
run.

Injection points (:data:`INJECTION_POINTS`)
-------------------------------------------
``before-claim-commit``
    Inside :meth:`~repro.sweep.dbstore.SqliteResultStore.claim_batch`, after
    the claim ``UPDATE`` of every cell of the batch but before the
    transaction commits (once per batch).  A fault here must leave the cells
    claimable (the transaction rolls back / is never committed), proving a
    runner dying mid-claim loses nothing.
``mid-cell``
    In the claim loop, once per cell of a claimed batch, before the batch's
    ensembles execute.  A ``raise`` fails that cell alone; a ``kill`` leaves
    the batch's cells as stale ``running`` rows whose leases must expire and
    be reclaimed.
``before-result-write``
    Inside :meth:`~repro.sweep.dbstore.SqliteResultStore.finish_batch`, once
    per cell, after the batch's ensembles completed but before that cell's
    ``done`` row is written, inside the batch's open transaction.  The most
    adversarial spot: the work is done, the commit is lost — a ``drop``
    loses that one cell's row, a ``kill`` every row of the batch, and the
    lost cells must be recomputed to identical rows.
``heartbeat-loss``
    Inside the heartbeat sender, once per held claim per beat.  The ``drop``
    action suppresses this and every later heartbeat (a sustained network
    partition), so the leases expire under still-running cells and another
    runner reclaims them; the original owner's late commits must then be
    refused.

Actions (:data:`ACTIONS`)
-------------------------
``raise``
    Raise :class:`InjectedFault` — exercises the exception paths (retry /
    backoff / park) without killing the process.
``kill``
    ``SIGKILL`` the current process — no cleanup handlers, exactly like a
    crashed host.
``drop``
    Silently skip the guarded operation.  Only meaningful at points guarding
    a suppressible side effect.  At ``heartbeat-loss`` the drop is **sticky**
    — this and every later heartbeat vanishes, a sustained partition; at the
    other points it suppresses exactly the scripted hit (a one-shot loss:
    the retried operation must then succeed, or recovery could never be
    proven).

Plans travel as text (``"mid-cell@1:kill;heartbeat-loss@2:drop"``) through
``python -m repro.sweep``'s ``--fault-plan`` flag or ``claim_worker``'s
``fault_plan`` argument, or are installed programmatically with
:func:`install_fault_plan`.  A process starts with the empty plan, so no
fault fires unless a caller installs one.

Faults only ever interrupt bookkeeping and control flow.  No injection
point sits inside a simulation, so an installed plan cannot change any
computed statistic — only whether, where, and on which attempt it commits.
That is what makes the kill-anywhere/resume-anywhere byte-identity tests
meaningful.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

__all__ = [
    "ACTIONS",
    "INJECTION_POINTS",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "fault_point",
    "install_fault_plan",
]

#: The named injection points, in claim-lifecycle order.
INJECTION_POINTS = (
    "before-claim-commit",
    "mid-cell",
    "before-result-write",
    "heartbeat-loss",
)

#: The scripted actions a rule may fire.
ACTIONS = ("raise", "kill", "drop")

#: Points where a ``drop`` is sticky (suppresses every later evaluation
#: too): losing heartbeats models a sustained partition, and a partition
#: does not heal after one missed beat.
_STICKY_DROP_POINTS = frozenset({"heartbeat-loss"})


class InjectedFault(RuntimeError):
    """The exception fired by a ``raise`` rule (carries point and hit)."""

    def __init__(self, point: str, hit: int):
        super().__init__(f"injected fault at {point} (hit {hit})")
        self.point = point
        self.hit = hit


@dataclass(frozen=True)
class FaultRule:
    """Fire ``action`` on the ``hit``-th evaluation of ``point`` (1-based)."""

    point: str
    hit: int
    action: str

    def __post_init__(self):
        if self.point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r} "
                f"(expected one of {INJECTION_POINTS})"
            )
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} (expected one of {ACTIONS})"
            )
        if not isinstance(self.hit, int) or isinstance(self.hit, bool) or self.hit < 1:
            raise ValueError(f"hit must be a positive integer, got {self.hit!r}")

    def render(self) -> str:
        return f"{self.point}@{self.hit}:{self.action}"


class FaultPlan:
    """An immutable set of :class:`FaultRule` values with a text round trip."""

    def __init__(self, rules: Iterable[FaultRule] = ()):
        rules = tuple(rules)
        seen: Set[Tuple[str, int]] = set()
        for rule in rules:
            key = (rule.point, rule.hit)
            if key in seen:
                raise ValueError(
                    f"duplicate fault rule for {rule.point}@{rule.hit}"
                )
            seen.add(key)
        self.rules: Tuple[FaultRule, ...] = rules
        self._by_key: Dict[Tuple[str, int], str] = {
            (rule.point, rule.hit): rule.action for rule in rules
        }

    @property
    def empty(self) -> bool:
        return not self.rules

    def action_for(self, point: str, hit: int) -> Optional[str]:
        """The scripted action for this evaluation, or ``None``."""
        return self._by_key.get((point, hit))

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the text rendering: ``point@hit:action`` joined by ``;``.

        Whitespace around separators is ignored; an empty string is the
        empty plan.  Malformed rules raise :class:`ValueError` naming the
        offending fragment — a typo'd chaos job must fail loudly, not run
        fault-free.
        """
        rules: List[FaultRule] = []
        for fragment in text.split(";"):
            fragment = fragment.strip()
            if not fragment:
                continue
            head, separator, action = fragment.rpartition(":")
            point, at, hit_text = head.partition("@")
            if not separator or not at:
                raise ValueError(
                    f"malformed fault rule {fragment!r} "
                    "(expected 'point@hit:action')"
                )
            try:
                hit = int(hit_text)
            except ValueError:
                raise ValueError(
                    f"malformed fault rule {fragment!r}: hit {hit_text!r} "
                    "is not an integer"
                ) from None
            rules.append(FaultRule(point.strip(), hit, action.strip()))
        return cls(rules)

    def render(self) -> str:
        """The text form accepted by :meth:`parse` (and ``--fault-plan``)."""
        return ";".join(rule.render() for rule in self.rules)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and self.rules == other.rules

    def __repr__(self) -> str:
        return f"FaultPlan({self.render()!r})" if self.rules else "FaultPlan()"


class _FaultState:
    """Per-process controller: the active plan plus evaluation counters."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.counts: Dict[str, int] = {point: 0 for point in INJECTION_POINTS}
        self.sticky_drops: Set[str] = set()


#: The installed plan and its hit counters; the empty plan until a caller
#: installs one.
_STATE = _FaultState(FaultPlan())


def install_fault_plan(plan: Union[FaultPlan, str, None]) -> None:
    """Install a plan programmatically (resetting all hit counters).

    ``None`` restores the empty plan — tests use this to restore isolation.
    """
    global _STATE
    if plan is None:
        plan = FaultPlan()
    elif isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _STATE = _FaultState(plan)


def _kill_self() -> None:  # pragma: no cover - the process dies here
    if hasattr(signal, "SIGKILL"):
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(137)


def fault_point(point: str) -> bool:
    """Evaluate an injection point; returns whether to proceed.

    ``True``: no fault (or none scripted for this hit) — perform the guarded
    operation.  ``False``: a ``drop`` rule fired — silently skip it (at
    ``heartbeat-loss`` the drop is sticky from then on).  A ``raise`` rule
    raises :class:`InjectedFault`; a ``kill`` rule does not return.
    """
    if point not in INJECTION_POINTS:
        raise ValueError(
            f"unknown injection point {point!r} (expected one of {INJECTION_POINTS})"
        )
    state = _STATE
    if point in state.sticky_drops:
        return False
    state.counts[point] += 1
    action = state.plan.action_for(point, state.counts[point])
    if action is None:
        return True
    if action == "raise":
        raise InjectedFault(point, state.counts[point])
    if action == "kill":  # pragma: no cover - the process dies here
        _kill_self()
    if point in _STICKY_DROP_POINTS:
        state.sticky_drops.add(point)
    return False
