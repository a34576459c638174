"""Shared experiment infrastructure.

Every experiment returns an :class:`ExperimentResult` — a titled table
plus free-form notes — so the CLI, the benchmarks and the golden
fixtures all render the same rows the paper reports.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.utils.tables import Cell, format_table

#: Environment variable that switches sweeps to the paper's full scale.
FULL_SCALE_ENV = "REPRO_FULL_SCALE"


def full_scale_enabled() -> bool:
    """Whether full-scale (50 000-node) sweeps were requested."""
    return os.environ.get(FULL_SCALE_ENV, "").strip() in {"1", "true", "yes"}


@dataclass
class ExperimentResult:
    """One regenerated table/figure.

    Attributes
    ----------
    experiment_id:
        Registry key ("table2", "fig3", ...).
    title:
        Human-readable title matching the paper artefact.
    headers:
        Column names.
    rows:
        Table body; floats are rendered at the paper's precision.
    notes:
        Extra context: parameters used, expected shape, caveats.
    elapsed_seconds:
        Wall-clock cost of the run.
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[Cell]]
    notes: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def to_text(self, *, float_fmt: str = ".4f") -> str:
        """Render the result as the table + notes block."""
        parts = [format_table(self.headers, self.rows, float_fmt=float_fmt, title=self.title)]
        if self.notes:
            parts.append("")
            parts.extend(f"  note: {note}" for note in self.notes)
        if self.elapsed_seconds:
            parts.append(f"  elapsed: {self.elapsed_seconds:.2f}s")
        return "\n".join(parts)


class Stopwatch:
    """Tiny context manager for elapsed-time accounting."""

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        self.elapsed = 0.0
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._start
