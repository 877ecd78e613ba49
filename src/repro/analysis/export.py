"""CSV export of experiment series, for external plotting.

Benchmarks print ASCII tables; these helpers emit the same data as CSV
so the paper's figures can be redrawn with any plotting tool.  Every
writer returns the CSV text and optionally writes it to a path.
"""

from __future__ import annotations

import io
from typing import Mapping, Optional, Sequence, Tuple


def series_to_csv(
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    path: Optional[str] = None,
) -> str:
    """Write a rectangular series as CSV; returns the text."""
    width = len(columns)
    buf = io.StringIO()
    buf.write(",".join(str(c) for c in columns) + "\n")
    for row in rows:
        if len(row) != width:
            raise ValueError(
                f"row width {len(row)} != header width {width}: {row!r}"
            )
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def boxplot_to_csv(
    stats_by_group: Mapping[object, Mapping[str, float]],
    group_column: str = "group",
    path: Optional[str] = None,
) -> str:
    """Export per-group box-plot statistics (min/q1/median/q3/max)."""
    columns = [group_column, "min", "q1", "median", "q3", "max"]
    rows = [
        [
            group,
            s.get("min", float("nan")),
            s.get("q1", float("nan")),
            s.get("median", float("nan")),
            s.get("q3", float("nan")),
            s.get("max", float("nan")),
        ]
        for group, s in stats_by_group.items()
    ]
    return series_to_csv(columns, rows, path)


def scatter_to_csv(
    points: Sequence[Tuple[float, float]],
    x_label: str = "x",
    y_label: str = "y",
    path: Optional[str] = None,
) -> str:
    """Export an (x, y) scatter (Figs. 11, 12, 15 style)."""
    return series_to_csv([x_label, y_label], [list(p) for p in points], path)


def log_to_csv(log, path: Optional[str] = None) -> str:
    """Export a :class:`~repro.sim.records.SimulationLog` (Fig. 14's log
    file) — thin wrapper so exports live in one module."""
    text = log.to_csv()
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def sweep_to_csv(outcome, path: Optional[str] = None) -> str:
    """Export a :class:`~repro.experiments.runner.SweepOutcome`'s
    per-cell summary (one row per grid cell) — what ``mapa sweep
    --format csv`` prints.  Summary rows aggregate through the logs'
    column readers, so a summary-only export of a cached or zero-copy
    sweep never rehydrates per-job records."""
    from ..experiments.runner import SUMMARY_COLUMNS

    return series_to_csv(list(SUMMARY_COLUMNS), outcome.summary_rows(), path)
