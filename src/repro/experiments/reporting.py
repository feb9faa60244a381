"""Plain-text rendering of the paper's rows and series.

Every figure generator in :mod:`repro.experiments.figures` returns a
structured result; the functions here turn those into aligned text
tables so the benchmark harness can print exactly the rows/series the
paper reports.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render an aligned text table.

    Args:
        headers: Column titles.
        rows: Row cells; everything is ``str()``-ed.

    Returns:
        The table as a newline-joined string.
    """
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match header width")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def pct(value: float, digits: int = 1) -> str:
    """Format a ratio as a signed percent change (1.16 -> ``+16.0%``)."""
    return f"{(value - 1.0) * 100:+.{digits}f}%"


def frac(value: float, digits: int = 1) -> str:
    """Format a fraction as percent (0.21 -> ``21.0%``)."""
    return f"{value * 100:.{digits}f}%"


def ghz(freq_hz: float | None) -> str:
    """Format a frequency in GHz (None -> ``--``)."""
    if freq_hz is None:
        return "--"
    return f"{freq_hz / 1e9:.2f}"


def seconds(value: float | None, digits: int = 2) -> str:
    """Format seconds (None -> ``timeout``)."""
    if value is None:
        return "timeout"
    return f"{value:.{digits}f}s"


def banner(title: str) -> str:
    """A section banner."""
    bar = "=" * max(8, len(title) + 4)
    return f"{bar}\n  {title}\n{bar}"
