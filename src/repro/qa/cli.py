"""Command-line interface of the QA toolchain (``python -m repro.qa``).

Subcommands, mirroring the ``repro.analytics`` exit-code convention
(0 = clean, 1 = findings, 2 = usage error):

``lint <paths...>``
    Run the determinism linter (:mod:`repro.qa.determinism`) and the
    pickle-safety checker (:mod:`repro.qa.picklesafety`) over source trees.
    Every finding not allowed by a ``# qa: allow[...]`` pragma on its line
    counts; ``--fail-on {error,warning,info}`` sets the gating threshold
    (default ``warning``).

``audit-codegen``
    Generate the compiled steppers (fast + recording, both scheduler kinds)
    of every registered sweep protocol at several populations and audit them
    against their nets' tables (:mod:`repro.qa.codegen_audit`).

``check-pickle <paths...>``
    Run only the pickle-safety pass (the lint subcommand includes it; this
    exists so CI can gate the two hazard families separately).

``typecheck``
    Run ``mypy`` on the typed packages (``repro.core``, ``repro.simulation``)
    using the repo's ``pyproject.toml`` configuration.  ``mypy`` is an
    optional dependency (``pip install repro[qa]``); without it this exits 2
    with an instruction rather than a traceback.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import codegen_audit, determinism, picklesafety
from .rules import RULES, SEVERITIES, Finding, severity_at_least

__all__ = ["main"]


def _print_findings(findings: Sequence[Finding], show_suppressed: bool) -> None:
    for finding in findings:
        if finding.suppressed is not None and not show_suppressed:
            continue
        print(finding.render())


def _gate(findings: Sequence[Finding], threshold: str) -> int:
    live = [
        finding
        for finding in findings
        if finding.suppressed is None and severity_at_least(finding.severity, threshold)
    ]
    counts = {severity: 0 for severity in SEVERITIES}
    for finding in findings:
        if finding.suppressed is None:
            counts[finding.severity] += 1
    suppressed = sum(1 for finding in findings if finding.suppressed is not None)
    summary = ", ".join(f"{count} {severity}(s)" for severity, count in counts.items() if count)
    print(
        f"qa: {summary or 'no findings'}"
        + (f", {suppressed} suppressed" if suppressed else "")
    )
    return 1 if live else 0


def _collect_lint(paths: Sequence[str], pickle_too: bool) -> List[Finding]:
    findings: List[Finding] = []
    cwd = Path.cwd()
    for raw in paths:
        root = Path(raw)
        if not root.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        relative_to = cwd if not root.is_absolute() else None
        target = root if root.is_absolute() else (cwd / root)
        findings.extend(determinism.lint_path(target, relative_to=relative_to))
        if pickle_too:
            findings.extend(picklesafety.check_paths(target, relative_to=relative_to))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def _command_lint(arguments: argparse.Namespace) -> int:
    try:
        findings = _collect_lint(arguments.paths, pickle_too=not arguments.no_pickle)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_findings(findings, show_suppressed=arguments.show_suppressed)
    return _gate(findings, arguments.fail_on)


def _command_check_pickle(arguments: argparse.Namespace) -> int:
    cwd = Path.cwd()
    findings: List[Finding] = []
    for raw in arguments.paths:
        root = Path(raw)
        if not root.exists():
            print(f"error: no such file or directory: {raw}", file=sys.stderr)
            return 2
        relative_to = cwd if not root.is_absolute() else None
        target = root if root.is_absolute() else (cwd / root)
        findings.extend(picklesafety.check_paths(target, relative_to=relative_to))
    _print_findings(findings, show_suppressed=arguments.show_suppressed)
    return _gate(findings, "error")


def _command_audit_codegen(arguments: argparse.Namespace) -> int:
    # Imported lazily: the lint path must not require the simulation stack.
    from ..sweep.spec import available_sweep_protocols, build_protocol_and_inputs

    populations = arguments.population or list(codegen_audit.DEFAULT_AUDIT_POPULATIONS)
    names = arguments.protocol or list(available_sweep_protocols())
    failures = 0
    audited = 0
    for name in names:
        for population in populations:
            try:
                protocol, _inputs = build_protocol_and_inputs(name, population)
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            net = protocol.petri_net
            if net is None:
                print(f"{name}@{population}: skipped (no Petri net)")
                continue
            compiled = net.compiled(extra_states=protocol.states)
            classes = compiled.output_classes(protocol.output_table)
            problems = codegen_audit.audit_compiled_net(compiled, classes)
            audited += 1
            if problems:
                failures += 1
                print(f"{name}@{population}: FAIL")
                for problem in problems:
                    print(f"  {problem}")
            else:
                print(
                    f"{name}@{population}: ok "
                    f"(|P|={compiled.num_states}, |T|={compiled.num_transitions}, "
                    "kinds=uniform+transition, fast+recording)"
                )
    print(f"qa: audited {audited} protocol/population pairs, {failures} failing")
    return 1 if failures else 0


def _command_typecheck(arguments: argparse.Namespace) -> int:
    if importlib.util.find_spec("mypy") is None:
        print(
            "error: mypy is not installed; install the qa extra "
            "(pip install 'repro[qa]') to run the typed-core gate locally",
            file=sys.stderr,
        )
        return 2
    from mypy import api as mypy_api  # type: ignore[import-not-found]

    packages = arguments.package or ["repro.core", "repro.simulation"]
    argv = []
    for package in packages:
        argv.extend(["-p", package])
    stdout, stderr, status = mypy_api.run(argv)
    if stdout:
        print(stdout, end="")
    if stderr:
        print(stderr, end="", file=sys.stderr)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa",
        description="Static QA toolchain: determinism lint, codegen audit, "
        "pickle safety, typed-core gate.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    lint = subparsers.add_parser("lint", help="run the determinism + pickle-safety lint")
    lint.add_argument("paths", nargs="+", help="files or directories to lint")
    lint.add_argument(
        "--fail-on",
        choices=SEVERITIES,
        default="warning",
        help="minimum severity that fails the lint (default: warning)",
    )
    lint.add_argument(
        "--no-pickle",
        action="store_true",
        help="skip the pickle-safety pass (determinism rules only)",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print pragma-suppressed findings",
    )

    audit = subparsers.add_parser(
        "audit-codegen", help="audit the generated steppers against their nets' tables"
    )
    audit.add_argument(
        "--protocol",
        action="append",
        help="audit only this registered protocol (repeatable; default: all)",
    )
    audit.add_argument(
        "--population",
        action="append",
        type=int,
        help="audit at this population (repeatable; default: "
        f"{', '.join(map(str, codegen_audit.DEFAULT_AUDIT_POPULATIONS))})",
    )

    pickle_cmd = subparsers.add_parser(
        "check-pickle", help="run only the pickle-safety pass"
    )
    pickle_cmd.add_argument("paths", nargs="+", help="files or directories to scan")
    pickle_cmd.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print pragma-suppressed findings",
    )

    typecheck = subparsers.add_parser(
        "typecheck", help="run mypy on the typed packages (requires the qa extra)"
    )
    typecheck.add_argument(
        "--package",
        action="append",
        help="typecheck only this package (repeatable; default: "
        "repro.core, repro.simulation)",
    )

    rules_cmd = subparsers.add_parser("rules", help="print the rule catalogue")
    del rules_cmd

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        arguments = parser.parse_args(argv)
    except SystemExit as error:
        # argparse exits 2 on usage errors already; normalize other codes.
        return int(error.code or 0)
    if arguments.command == "lint":
        return _command_lint(arguments)
    if arguments.command == "audit-codegen":
        return _command_audit_codegen(arguments)
    if arguments.command == "check-pickle":
        return _command_check_pickle(arguments)
    if arguments.command == "typecheck":
        return _command_typecheck(arguments)
    if arguments.command == "rules":
        for rule in RULES.values():
            print(f"{rule.id}  {rule.severity:<8} {rule.summary}")
        return 0
    parser.error(f"unknown command {arguments.command!r}")
    return 2
