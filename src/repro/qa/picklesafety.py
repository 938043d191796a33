"""Pickle-safety checker: generated-function attributes need ``__getstate__``.

The batch layer ships net specs to worker processes by pickling them
(:mod:`repro.simulation.batch`).  Any class that caches ``exec``-compiled
steppers or locally-defined closures on ``self`` is unpicklable *unless* it
defines a ``__getstate__`` that drops those caches — the exact bug class that
was fixed by hand in ``PetriNet`` / ``CompiledNet`` and that every new engine
is one forgotten method away from reintroducing.

The scan is static and two-phase, per batch of files:

1. collect **generator factories**: functions (module-level or methods) that
   call ``exec``/``compile`` or return a nested ``def``/``lambda``.  A value
   produced by one of those is assumed to be an unpicklable function object;
2. for every class, find ``self.<attr> = ...`` assignments whose right-hand
   side is a lambda, a nested function name, a factory call, or a container
   literal/comprehension holding one — and require the class (or one of its
   in-batch base classes) to define ``__getstate__``.  Classes inheriting
   from an in-batch base that defines it are exempt.

Findings use rule ``PKL001`` (see :mod:`repro.qa.rules`).  Like the
determinism pass this is a local, shape-based tripwire — it will not catch a
factory imported from a third module, and does not try to prove the
``__getstate__`` actually drops the offending attribute (the round-trip
pickling tests cover that).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .determinism import iter_python_files
from .rules import Finding, apply_pragmas, parse_pragmas

__all__ = ["check_source", "check_paths"]


def _returns_nested_function(node: ast.AST) -> bool:
    """Does this function define a nested def/lambda and return it?"""
    nested: Set[str] = set()
    for child in ast.walk(node):
        if child is node:
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.add(child.name)
    if not nested:
        # It may still return a lambda directly.
        nested = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Return) and child.value is not None:
            value = child.value
            if isinstance(value, ast.Lambda):
                return True
            if isinstance(value, ast.Name) and value.id in nested:
                return True
    return False


def _calls_exec_or_compile(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
            if child.func.id in {"exec", "compile", "eval"}:
                return True
    return False


class _ClassInfo:
    def __init__(self, name: str, path: str, node: ast.ClassDef) -> None:
        self.name = name
        self.path = path
        self.node = node
        self.bases = [base.id for base in node.bases if isinstance(base, ast.Name)]
        self.has_getstate = any(
            isinstance(item, ast.FunctionDef) and item.name == "__getstate__"
            for item in node.body
        )
        #: (lineno, attr, why) for each hazardous self-assignment.
        self.hazards: List[Tuple[int, str, str]] = []


def _collect_factories(tree: ast.AST) -> Set[str]:
    """Names of functions/methods in this module that produce function objects."""
    factories: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _calls_exec_or_compile(node) or _returns_nested_function(node):
                factories.add(node.name)
    return factories


def _hazard_reason(
    value: ast.AST, factories: Set[str], local_defs: Set[str]
) -> Optional[str]:
    """Why ``self.x = <value>`` stores an unpicklable function, or ``None``."""
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.Name) and value.id in local_defs:
        return f"the nested function {value.id!r}"
    if isinstance(value, ast.Call):
        func = value.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in {"self", "cls"}:
                name = func.attr
        if name is not None and name in factories:
            return f"the result of generator factory {name}()"
    # Containers of hazards: ``{k: self._make(...)}`` / ``[lambda: ...]``.
    if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
        for element in value.elts:
            reason = _hazard_reason(element, factories, local_defs)
            if reason is not None:
                return reason
    if isinstance(value, ast.Dict):
        for element in value.values:
            if element is None:
                continue
            reason = _hazard_reason(element, factories, local_defs)
            if reason is not None:
                return reason
    if isinstance(value, (ast.DictComp,)):
        return _hazard_reason(value.value, factories, local_defs)
    if isinstance(value, (ast.ListComp, ast.SetComp)):
        return _hazard_reason(value.elt, factories, local_defs)
    return None


def _scan_class(info: _ClassInfo, factories: Set[str]) -> None:
    for method in info.node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local_defs = {
            child.name
            for child in ast.walk(method)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not method
        }
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    reason = _hazard_reason(node.value, factories, local_defs)
                    if reason is not None:
                        info.hazards.append((node.lineno, target.attr, reason))
            # ``self._steppers[key] = stepper`` — subscript store into a
            # function-holding cache attribute.
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and isinstance(target.value.value, ast.Name)
                    and target.value.value.id == "self"
                ):
                    reason = _hazard_reason(node.value, factories, local_defs)
                    if reason is not None:
                        info.hazards.append(
                            (node.lineno, target.value.attr, reason)
                        )


def check_source(source: str, path: str) -> List[Finding]:
    """Single-file scan (no cross-file base resolution); pragmas applied."""
    return _check_batch([(source, path)])


def _check_batch(modules: Sequence[Tuple[str, str]]) -> List[Finding]:
    classes: Dict[str, _ClassInfo] = {}
    per_file: Dict[str, List[_ClassInfo]] = {}
    pragma_maps: Dict[str, Dict[int, frozenset]] = {}
    source_lines: Dict[str, List[str]] = {}
    parse_errors: List[Finding] = []

    for source, path in modules:
        pragma_maps[path] = parse_pragmas(source)
        source_lines[path] = source.splitlines()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            parse_errors.append(
                Finding(
                    rule="PKL001",
                    path=path,
                    line=error.lineno or 1,
                    message=f"file does not parse: {error.msg}",
                )
            )
            continue
        factories = _collect_factories(tree)
        infos = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                info = _ClassInfo(node.name, path, node)
                _scan_class(info, factories)
                infos.append(info)
                # Last definition wins on name clashes; fine for a tripwire.
                classes[node.name] = info
        per_file[path] = infos

    def _inherits_getstate(info: _ClassInfo, seen: Set[str]) -> bool:
        if info.has_getstate:
            return True
        for base in info.bases:
            if base in seen:
                continue
            seen.add(base)
            base_info = classes.get(base)
            if base_info is not None and _inherits_getstate(base_info, seen):
                return True
        return False

    findings: List[Finding] = list(parse_errors)
    for path, infos in per_file.items():
        file_findings: List[Finding] = []
        for info in infos:
            if not info.hazards or _inherits_getstate(info, {info.name}):
                continue
            lines = source_lines[path]
            for lineno, attr, reason in info.hazards:
                text = lines[lineno - 1].strip() if 1 <= lineno <= len(lines) else ""
                file_findings.append(
                    Finding(
                        rule="PKL001",
                        path=path,
                        line=lineno,
                        message=(
                            f"{info.name}.{attr} stores {reason} but "
                            f"{info.name} defines no __getstate__ to drop it "
                            "before pickling to batch workers"
                        ),
                        source=text,
                    )
                )
        findings.extend(apply_pragmas(file_findings, pragma_maps[path]))
    return sorted(findings, key=lambda f: (f.path, f.line))


def check_paths(root: Path, relative_to: Optional[Path] = None) -> List[Finding]:
    """Scan a file or tree with cross-file base-class resolution."""
    modules: List[Tuple[str, str]] = []
    for file_path in iter_python_files(root):
        shown = file_path
        if relative_to is not None:
            try:
                shown = file_path.relative_to(relative_to)
            except ValueError:
                shown = file_path
        modules.append((file_path.read_text(encoding="utf-8"), shown.as_posix()))
    return _check_batch(modules)
