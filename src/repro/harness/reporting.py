"""Paper-style plain-text tables and series.

The benchmarks print the same rows/series the paper's figures plot;
these helpers keep that output consistent and regression-diffable.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_table", "format_series"]


def _cell(x: object) -> str:
    return f"{float(x):.3f}" if isinstance(x, (float, np.floating)) else str(x)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 *, min_width: int = 10) -> str:
    """Fixed-width table with a header rule."""
    cells = [[_cell(x) for x in r] for r in rows]
    widths = [max([len(str(h)), min_width, *(len(r[c]) for r in cells)])
              for c, h in enumerate(headers)]
    out = ["  ".join(str(h).rjust(w) for h, w in zip(headers, widths)),
           "  ".join("-" * w for w in widths)]
    out += ["  ".join(x.rjust(w) for x, w in zip(r, widths)) for r in cells]
    return "\n".join(out)


def format_series(
    name: str,
    times: np.ndarray,
    series_by_label: dict[str, np.ndarray],
    *,
    time_label: str = "t(s)",
) -> str:
    """One column of timestamps plus one column per labelled series."""
    headers = [time_label] + list(series_by_label)
    rows = []
    for i, t in enumerate(np.asarray(times)):
        rows.append([f"{float(t):.0f}"] + [float(series_by_label[k][i]) for k in series_by_label])
    return f"== {name} ==\n" + format_table(headers, rows)
