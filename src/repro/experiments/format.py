"""Plain-text table rendering for the experiment harness.

Every ``table_*`` function in this package returns a list of row dicts;
:func:`render` turns them into the aligned text tables the benchmark
harness prints, mirroring the dissertation's table layouts.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def _fmt(value) -> str:
    if isinstance(value, float):
        # Up to 4 significant decimals without trailing zeros (delays are
        # pre-rounded to 3 decimals, percentages to 2).
        return f"{value:g}"
    if value is None:
        return "-"
    return str(value)


def failure_row(columns: Sequence[str], label: str) -> dict[str, object]:
    """A degraded row: the label in the first column, dashes elsewhere.

    Used by the table harnesses to keep a failed task's slot visible in
    the rendered table (``None`` cells render as ``-``); the failure
    reason itself goes into :func:`render`'s ``annotations``.
    """
    row: dict[str, object] = {col: None for col in columns}
    if columns:
        row[columns[0]] = label
    return row


def render(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Mapping[str, object]],
    note: str | None = None,
    annotations: Sequence[str] | None = None,
) -> str:
    """Render rows as an aligned text table.

    ``annotations`` are per-row footnotes (e.g. ``"s298/s344: FAILED:
    timeout"``) printed after the data rows and before
    the ``note:`` line, so a partially failed campaign still renders a
    complete, self-describing table.
    """
    cells = [[_fmt(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines = [title]
    lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    for annotation in annotations or ():
        lines.append(f"!! {annotation}")
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def seconds(value: float) -> str:
    """Render seconds as the dissertation's h:mm:ss style."""
    total = int(round(value))
    h, rem = divmod(total, 3600)
    m, s = divmod(rem, 60)
    return f"{h:d}:{m:02d}:{s:02d}"
