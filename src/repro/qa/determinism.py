"""Determinism linter: an ``ast`` walker over the library sources.

The cross-engine contract (reference / compiled / native produce bit-identical
trajectories) survives only if nothing in the hot paths depends on
*unspecified* ordering or out-of-band inputs.  This pass flags the hazard
classes that have historically broken that contract:

``DET101`` — **module-level random calls** (``random.random()``,
    ``random.shuffle(...)``, ...).  The module-level functions share hidden
    global state; all randomness must flow through an explicitly seeded
    ``random.Random`` threaded by the caller.

``DET102`` — **wall-clock / entropy reads** (``time.time``/``time_ns``,
    ``datetime.now``/``utcnow``/``today``, ``os.urandom``, ``uuid.uuid1``/
    ``uuid4``) anywhere in library code.  ``time.perf_counter`` /
    ``monotonic`` are exempt: they are legitimate for *measuring* a run and
    cannot leak into results that are pure functions of (inputs, seed).

``DET103`` — **environment reads** (``os.environ``, ``os.getenv``,
    ``os.environb``) outside the sanctioned config module
    (:mod:`repro.config`).  Scattered env reads are invisible simulation
    inputs; the funnel keeps them auditable (see that module's docstring).

``DET201`` — **set iteration feeding an ordering-sensitive sink**: a ``for``
    loop over a bare ``set``/``frozenset`` literal/call/comprehension (or a
    local the function assigned one to, or ``dict.keys()`` of no particular
    contract) whose body appends/extends/inserts into a sequence, assigns
    through a subscript, or yields — i.e. materializes the unordered
    iteration order into an ordered structure.  Loops that only aggregate
    order-insensitively (membership tests, ``+=`` into counters, building
    another set/dict) are not flagged.

``DET202`` — **un-keyed ``sorted``/``min``/``max`` over a set expression**.
    ``sorted(some_set)`` is only deterministic if the elements are totally
    ordered under ``<``; for mixed or rich-comparison types the result (or an
    exception) depends on hash iteration order.  Passing ``key=`` (or
    pragma-ing a site whose elements are provably totally ordered, e.g. dense
    ``int`` indices) settles it.

The walker is intentionally *local*: it tracks set-ness only through
straight-line assignments within one function body (``s = set(...); for x in
s: ...``), never across calls or attributes.  That misses aliases — fine: the
linter is a tripwire for the common hazard shapes, and the codegen auditor +
golden-trajectory tests backstop the rest.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Union

from .rules import Finding, apply_pragmas, parse_pragmas

__all__ = ["lint_source", "lint_path", "iter_python_files"]

#: Module whose env reads are sanctioned (DET103).  Compared by path suffix so
#: the rule holds regardless of the scan root.
SANCTIONED_ENV_MODULES = ("repro/config.py",)

#: time/datetime attributes that read the wall clock (DET102).
_WALLCLOCK_TIME_ATTRS = {"time", "time_ns", "localtime", "gmtime", "ctime"}
_WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}
_ENTROPY_UUID_ATTRS = {"uuid1", "uuid4"}

#: random-module functions whose call is DET101.  Everything callable on the
#: module is hazardous; the set exists only to skip non-call attributes like
#: ``random.Random`` (the fix, not the bug).
_RANDOM_MODULE_SAFE_ATTRS = {"Random", "SystemRandom"}


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _call_target(node: ast.Call) -> Optional[ast.Attribute]:
    return node.func if isinstance(node.func, ast.Attribute) else None


def _is_set_expr(node: ast.AST, set_locals: Set[str]) -> bool:
    """Syntactically set-typed: literal, comprehension, ``set()``/``frozenset()``
    call, binary op over sets (``a | b``, ``a - b``), ``dict.keys()``, or a
    local previously assigned one of those."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_locals
    if isinstance(node, ast.Call):
        if _is_name(node.func, "set") or _is_name(node.func, "frozenset"):
            return True
        target = _call_target(node)
        if target is not None and target.attr in {
            "keys",
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        }:
            # ``.keys()`` has no ordering contract when the receiver's type is
            # unknown here; set-algebra method results are plain sets.
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left, set_locals) or _is_set_expr(node.right, set_locals)
    return False


def _has_key_kwarg(node: ast.Call) -> bool:
    return any(keyword.arg == "key" for keyword in node.keywords)


class _OrderSensitiveSinkVisitor(ast.NodeVisitor):
    """Detect whether a loop body materializes iteration order."""

    _SINK_METHODS = {"append", "extend", "insert", "appendleft", "write", "writelines"}

    def __init__(self, loop_var_names: Set[str]) -> None:
        self.loop_vars = loop_var_names
        self.sensitive = False

    def visit_Call(self, node: ast.Call) -> None:
        target = _call_target(node)
        if target is not None and target.attr in self._SINK_METHODS:
            self.sensitive = True
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Store):
            self.sensitive = True
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        self.sensitive = True
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self.sensitive = True
        self.generic_visit(node)

    # Nested defs open a fresh scope; their sinks are not this loop's sinks.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass


def _loop_target_names(target: ast.AST) -> Set[str]:
    names = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        #: Stack of per-function sets of locals known to hold sets.
        self._set_locals: List[Set[str]] = [set()]

    # -- helpers -------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 1)
        self.findings.append(
            Finding(
                rule=rule,
                path=self.path,
                line=lineno,
                message=message,
            )
        )

    @property
    def _locals(self) -> Set[str]:
        return self._set_locals[-1]

    # -- scope management ----------------------------------------------
    def _visit_function(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        self._set_locals.append(set())
        self.generic_visit(node)
        self._set_locals.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if _is_set_expr(node.value, self._locals):
                self._locals.add(name)
            else:
                self._locals.discard(name)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            if _is_set_expr(node.value, self._locals):
                self._locals.add(node.target.id)
            else:
                self._locals.discard(node.target.id)
        self.generic_visit(node)

    # -- DET101 / DET102 / DET103 --------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        target = _call_target(node)
        if target is not None and isinstance(target.value, ast.Name):
            module, attr = target.value.id, target.attr
            if module == "random" and attr not in _RANDOM_MODULE_SAFE_ATTRS:
                self._emit(
                    "DET101",
                    node,
                    f"call to random.{attr}() uses the shared module-level RNG; "
                    "thread a seeded random.Random instance instead",
                )
            elif module == "time" and attr in _WALLCLOCK_TIME_ATTRS:
                self._emit("DET102", node, f"time.{attr}() reads the wall clock")
            elif module == "datetime" and attr in _WALLCLOCK_DATETIME_ATTRS:
                self._emit("DET102", node, f"datetime.{attr}() reads the wall clock")
            elif module == "os" and attr == "urandom":
                self._emit("DET102", node, "os.urandom() reads system entropy")
            elif module == "uuid" and attr in _ENTROPY_UUID_ATTRS:
                self._emit("DET102", node, f"uuid.{attr}() reads system entropy")
            elif module == "os" and attr in {"getenv", "getenvb"}:
                self._maybe_env_finding(node, f"os.{attr}()")
        # ``datetime.datetime.now()`` — attribute chain two deep.
        if (
            target is not None
            and isinstance(target.value, ast.Attribute)
            and isinstance(target.value.value, ast.Name)
            and target.value.value.id == "datetime"
            and target.value.attr in {"datetime", "date"}
            and target.attr in _WALLCLOCK_DATETIME_ATTRS
        ):
            self._emit(
                "DET102",
                node,
                f"datetime.{target.value.attr}.{target.attr}() reads the wall clock",
            )
        # DET202: un-keyed sorted/min/max over a set expression.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in {"sorted", "min", "max"}
            and node.args
            and _is_set_expr(node.args[0], self._locals)
            and not _has_key_kwarg(node)
        ):
            self._emit(
                "DET202",
                node,
                f"un-keyed {node.func.id}() over a set expression: pass key= "
                "or justify total ordering with a pragma",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in {"environ", "environb"}
        ):
            self._maybe_env_finding(node, f"os.{node.attr}")
        self.generic_visit(node)

    def _maybe_env_finding(self, node: ast.AST, what: str) -> None:
        posix = Path(self.path).as_posix()
        if any(posix.endswith(suffix) for suffix in SANCTIONED_ENV_MODULES):
            return
        self._emit(
            "DET103",
            node,
            f"{what} read outside the sanctioned config module; route it "
            "through repro.config",
        )

    # -- DET201 --------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter, self._locals):
            sink_visitor = _OrderSensitiveSinkVisitor(_loop_target_names(node.target))
            for statement in node.body:
                sink_visitor.visit(statement)
            if sink_visitor.sensitive:
                self._emit(
                    "DET201",
                    node,
                    "iterating an unordered set into an ordering-sensitive "
                    "sink; sort the set (with a key) before iterating",
                )
        self.generic_visit(node)


def lint_source(source: str, path: str) -> List[Finding]:
    """Lint one module's source text; returns findings with pragmas applied."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                rule="DET102",
                path=path,
                line=error.lineno or 1,
                message=f"file does not parse: {error.msg}",
            )
        ]
    visitor = _DeterminismVisitor(path)
    visitor.visit(tree)
    findings = sorted(visitor.findings, key=lambda f: (f.line, f.rule))
    return apply_pragmas(findings, parse_pragmas(source))


def iter_python_files(root: Path) -> Iterator[Path]:
    """Yield the ``.py`` files under ``root`` (or ``root`` itself), sorted."""
    if root.is_file():
        yield root
        return
    yield from sorted(root.rglob("*.py"), key=lambda p: p.as_posix())


def lint_path(root: Path, relative_to: Optional[Path] = None) -> List[Finding]:
    """Lint a file or directory tree; paths in findings are relative when
    ``relative_to`` is given (the baseline wants repo-relative paths)."""
    findings: List[Finding] = []
    for file_path in iter_python_files(root):
        shown = file_path
        if relative_to is not None:
            try:
                shown = file_path.relative_to(relative_to)
            except ValueError:
                shown = file_path
        findings.extend(
            lint_source(file_path.read_text(encoding="utf-8"), shown.as_posix())
        )
    return findings
