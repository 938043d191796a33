"""Static quality assurance for the reproduction: lint, audit, typed core.

The whole value of this codebase rests on one invariant: for a fixed
``(protocol, inputs, seed)`` the reference, compiled, and native engines
consume the random stream identically and produce bit-identical trajectories.
PRs 1–5 defend that invariant with example-based tests (golden trajectories,
cross-engine equality suites); this package defends it *statically*, so the
hazard classes that break it are flagged at review time instead of whenever a
golden file happens to disagree.

Architecture — three independent passes over different artifacts, sharing
one finding/suppression pipeline:

``rules``
    The rule catalogue (``DET1xx`` determinism errors, ``DET2xx`` ordering
    warnings, ``PKL001`` pickle safety), :class:`~repro.qa.rules.Finding`,
    and ``# qa: allow[rule-id]`` pragma parsing, the one way to accept a
    finding.  Everything a pass emits flows through here.

``determinism``
    An ``ast`` walker over the *library sources*: module-level ``random``
    calls, wall-clock/entropy reads, environment reads outside
    :mod:`repro.config`, set iteration feeding ordering-sensitive sinks,
    un-keyed ``sorted``/``min``/``max`` over sets.

``codegen_audit``
    A verifier of the *generated steppers* that
    :class:`~repro.simulation.compiled.CompiledNet` ``exec``-compiles,
    against the net tables they were generated from: closed namespaces,
    pure-local step loops and the counts round-trip are checked on the
    compiled function, and every dispatch arm, fired through a stand-in
    generator, must move the counts, the consensus counters, the recording
    and the next step's weights as the tables say.  The recording
    variant must be the fast variant plus deque appends.  Nothing human
    reviews the per-net generated code; this pass does.

``picklesafety``
    A shape-based scan for classes caching generated functions/closures on
    ``self`` without a ``__getstate__`` to drop them — the bug class that
    breaks shipping net specs to batch worker processes.

``cli`` / ``__main__``
    ``python -m repro.qa {lint,audit-codegen,check-pickle,typecheck,rules}``
    with the 0/1/2 exit-code convention of ``repro.analytics``, which is what
    the CI ``qa`` job gates on.  ``typecheck`` drives ``mypy`` (optional
    ``qa`` extra) over the annotated ``repro.core`` + ``repro.simulation``
    packages.

The passes are deliberately local tripwires, not a type system: they catch
the common hazard *shapes* cheaply and loudly, while the golden-trajectory
and cross-engine test suites remain the ground truth.
"""

from .rules import RULES, Finding, Rule

__all__ = ["RULES", "Finding", "Rule"]
