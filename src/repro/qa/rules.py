"""The QA rule catalogue, findings and suppression pragmas.

Shared plumbing of the static-analysis passes (:mod:`repro.qa.determinism`,
:mod:`repro.qa.picklesafety`): every pass emits :class:`Finding` values whose
``rule`` field names an entry of :data:`RULES`.  Pragmas are the one way to
accept a finding: a finding on a line carrying ``# qa: allow[RULE-ID]`` (ids
comma-separated, optionally followed by ``-- justification``) is marked
suppressed at the source.  They are the per-site escape hatch for code that
is *provably* safe despite matching a rule (e.g. an un-keyed ``sorted`` over
a set of dense integer indices, which are totally ordered), and the
justification stays next to the code it excuses.

Severities order ``error > warning``; the CLI fails (exit 1) on any
unsuppressed finding, whatever its severity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = [
    "SEVERITIES",
    "RULES",
    "Rule",
    "Finding",
    "parse_pragmas",
    "apply_pragmas",
]

#: Severity levels, most severe first.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Rule:
    """One entry of the rule catalogue."""

    id: str
    severity: str
    summary: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r} (expected one of {SEVERITIES})"
            )


#: The rule catalogue.  Ids are stable — pragmas reference them — so
#: renumbering is a breaking change.
RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            "DET101",
            "error",
            "module-level random.* call: thread a seeded random.Random "
            "instance instead",
        ),
        Rule(
            "DET102",
            "error",
            "wall-clock / entropy source (time.time, datetime.now, "
            "os.urandom, uuid) in library code",
        ),
        Rule(
            "DET103",
            "error",
            "environment read outside the sanctioned config module "
            "(repro/config.py)",
        ),
        Rule(
            "DET201",
            "warning",
            "iteration over a set/frozenset flows into an ordering-sensitive "
            "sink (list/tuple/enumerate/append/index assignment)",
        ),
        Rule(
            "DET202",
            "warning",
            "un-keyed min/max/sorted over a set: add key= (or prove the "
            "elements totally ordered and pragma)",
        ),
        Rule(
            "PKL001",
            "error",
            "class stores generated functions/closures without a "
            "__getstate__ that drops them (breaks pickling to batch workers)",
        ),
    )
}


@dataclass(frozen=True)
class Finding:
    """One reported violation, anchored to a file and line."""

    rule: str
    path: str
    line: int
    message: str
    #: ``None`` = live, ``"pragma"`` = allowed by a pragma on its line (and
    #: so not gating).
    suppressed: Optional[str] = field(default=None, compare=False)

    @property
    def severity(self) -> str:
        rule = RULES.get(self.rule)
        return rule.severity if rule is not None else "error"

    def render(self) -> str:
        tag = f" [{self.suppressed}]" if self.suppressed else ""
        return f"{self.path}:{self.line}: {self.rule} {self.severity}: {self.message}{tag}"


# ----------------------------------------------------------------------
# Suppression pragmas
# ----------------------------------------------------------------------
#: ``# qa: allow[DET202]`` / ``# qa: allow[DET101, DET102] -- justification``
_PRAGMA_RE = re.compile(r"#\s*qa:\s*allow\[([A-Za-z0-9_,\s*]+)\]")


def parse_pragmas(source: str) -> Dict[int, frozenset]:
    """Map 1-based line numbers to the rule ids allowed on that line.

    The pragma must sit on the flagged line itself (trailing comment) or on
    its own line directly above — the latter for lines too long to carry a
    trailing comment.  The wildcard ``allow[*]`` suppresses every rule.
    """
    allowed: Dict[int, frozenset] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if not match:
            continue
        ids = frozenset(part.strip() for part in match.group(1).split(",") if part.strip())
        allowed[number] = allowed.get(number, frozenset()) | ids
        if text.lstrip().startswith("#"):
            # A standalone pragma comment covers the next line as well.
            allowed[number + 1] = allowed.get(number + 1, frozenset()) | ids
    return allowed


def apply_pragmas(findings: Iterable[Finding], pragmas: Dict[int, frozenset]) -> List[Finding]:
    """Mark findings allowed by a pragma on their line as suppressed."""
    result = []
    for finding in findings:
        ids = pragmas.get(finding.line, frozenset())
        if finding.rule in ids or "*" in ids:
            finding = Finding(
                rule=finding.rule,
                path=finding.path,
                line=finding.line,
                message=finding.message,
                suppressed="pragma",
            )
        result.append(finding)
    return result
