"""Experiment harness: tables, registry, and text rendering.

Every experiment (E1..E14, registered in
:mod:`repro.experiments.experiment_defs`) produces an
:class:`ExperimentTable`: a named list of rows with a fixed column set.  The
benchmark suite runs the experiment functions through pytest-benchmark and
prints their tables, and the examples print them too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = ["ExperimentTable", "ExperimentRegistry", "registry"]


@dataclass
class ExperimentTable:
    """A table of results produced by an experiment runner."""

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[Mapping[str, object]] = field(default_factory=list)
    notes: Optional[str] = None

    def add_row(self, **values: object) -> None:
        """Append a row; the keys must be exactly the declared column set.

        Unknown keys are rejected rather than silently dropped by
        :meth:`render` and :meth:`column` later on.
        """
        missing = set(self.columns) - set(values)
        if missing:
            raise ValueError(f"row is missing columns: {sorted(missing, key=str)}")
        unexpected = set(values) - set(self.columns)
        if unexpected:
            raise ValueError(f"row has unexpected columns: {sorted(unexpected, key=str)}")
        self.rows.append(values)

    def column(self, name: str) -> List[object]:
        """The values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(name)
        return [row[name] for row in self.rows]

    def render(self, float_format: str = "{:.3g}") -> str:
        """Render the table as aligned plain text (used by examples and benchmarks)."""
        header = list(self.columns)
        body: List[List[str]] = []
        for row in self.rows:
            rendered_row = []
            for name in header:
                value = row[name]
                if isinstance(value, float):
                    rendered_row.append(float_format.format(value))
                else:
                    rendered_row.append(str(value))
            body.append(rendered_row)
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"# {self.experiment_id}: {self.title}"]
        lines.append("  ".join(name.ljust(widths[i]) for i, name in enumerate(header)))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for rendered_row in body:
            lines.append("  ".join(rendered_row[i].ljust(widths[i]) for i in range(len(header))))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.rows)


class ExperimentRegistry:
    """A registry mapping experiment identifiers to their runner functions."""

    def __init__(self) -> None:
        self._runners: Dict[str, Callable[..., ExperimentTable]] = {}

    def register(
        self, experiment_id: str
    ) -> Callable[[Callable[..., ExperimentTable]], Callable[..., ExperimentTable]]:
        """Decorator registering a runner under an experiment identifier."""

        def decorator(function: Callable[..., ExperimentTable]) -> Callable[..., ExperimentTable]:
            if experiment_id in self._runners:
                raise ValueError(f"experiment {experiment_id} is already registered")
            self._runners[experiment_id] = function
            return function

        return decorator

    def run(self, experiment_id: str, **kwargs: object) -> ExperimentTable:
        """Run a registered experiment."""
        if experiment_id not in self._runners:
            raise KeyError(f"unknown experiment: {experiment_id}")
        return self._runners[experiment_id](**kwargs)

    def ids(self) -> List[str]:
        """The registered experiment identifiers, sorted."""
        return sorted(self._runners)

    def __contains__(self, experiment_id: str) -> bool:
        return experiment_id in self._runners


#: The global registry the experiment definitions register into.
registry = ExperimentRegistry()
