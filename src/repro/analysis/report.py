"""Plain-text table rendering for benchmark output.

Every benchmark prints the rows/series the corresponding paper table or
figure reports; this module renders them uniformly so `pytest
benchmarks/ -s` output is readable and diff-able.
"""

from __future__ import annotations

from typing import Sequence


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Render an aligned ASCII table with a title banner."""
    cells = [[str(h) for h in headers]] + [
        [_fmt(value) for value in row] for row in rows
    ]
    widths = [
        max(len(row[col]) for row in cells) for col in range(len(headers))
    ]
    lines = [f"== {title} =="]
    for i, row in enumerate(cells):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def print_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> None:
    print()
    print(render_table(title, headers, rows))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def render_series(
    title: str,
    x_label: str,
    series: dict[str, list[tuple[object, object]]],
) -> str:
    """Render named (x, y) series as one table keyed by x."""
    xs: list[object] = []
    for points in series.values():
        for x, _y in points:
            if x not in xs:
                xs.append(x)
    headers = [x_label] + list(series)
    lookup = {
        name: {x: y for x, y in points} for name, points in series.items()
    }
    rows = [
        [x] + [lookup[name].get(x, "") for name in series] for x in xs
    ]
    return render_table(title, headers, rows)


def print_series(
    title: str,
    x_label: str,
    series: dict[str, list[tuple[object, object]]],
) -> None:
    print()
    print(render_series(title, x_label, series))
