"""Report tables and SVG plots with byte-deterministic rendering.

Values are stored at full precision and rounded only here, per column, so
the displayed tables match the published example layouts without losing
testability upstream.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .errors import DecisiveError

GLYPHS = {"good": "✓", "bad": "/", "none": "X"}
ASCII_GLYPHS = {"good": "ok", "bad": "bad", "none": "none"}


class Column(NamedTuple):
    header: str
    kind: str = "text"  # number | glyph | text
    digits: Optional[int] = None  # fixed digits at render time; a number column needs them
    unit: str = ""


class ReportTable:
    """A titled table that keeps its cells a column at a time: `cells[k]` holds column
    k's cells in row order."""

    __slots__ = ("title", "columns", "cells")

    def __init__(self, title: str, columns: list[Column]):
        self.title, self.columns = title, columns
        self.cells: list[list] = [[] for _ in columns]

    def add_row(self, *cells) -> None:
        for column, cell in zip(self.cells, cells, strict=True):
            column.append(cell)

    @property
    def rows(self) -> list[tuple]:
        """The cells a row at a time, read only."""
        return list(zip(*self.cells))


def render_table(table: ReportTable, fmt: str = "md", ascii_glyphs: bool = False) -> bytes:
    """Render one table as Markdown ("md") or CSV ("csv") to UTF-8 bytes; identical input
    gives identical bytes."""
    render = _render_md if fmt == "md" else _render_csv
    return render(table, ascii_glyphs).encode("utf-8")


def _header_text(col: Column) -> str:
    return f"{col.header} ({col.unit})" if col.unit else col.header


def _fixed(values: Sequence, digits: int) -> str:
    """Each of `values`, numbers or None, with `digits` fixed digits ("" for None), separated
    by NUL characters: one `%` over the whole column."""
    spec = f"%.{digits}f"
    if None in values:
        return "\0".join(["%s" if v is None else spec for v in values]) % tuple(
            "" if v is None else v for v in values)
    return "\0".join([spec] * len(values)) % tuple(values)


def _cell_texts(table: ReportTable, ascii_glyphs: bool) -> list[list[str]]:
    """Every column's formatted cells, "" for None: a number column is one `%` over the
    column, a glyph column one lookup and a text column one `str` per cell. A non-finite
    number raises as the first one in row order."""
    glyphs = {**(ASCII_GLYPHS if ascii_glyphs else GLYPHS), None: ""}
    texts, bad = [], []
    for k, (cells, column) in enumerate(zip(table.cells, table.columns)):
        if column.kind == "number":
            joined = _fixed(cells, column.digits)
            column_texts = joined.split("\0") if cells else []
            if "n" in joined:  # "inf" or "nan": a finite number's fixed digits hold no "n"
                bad.append((next(r for r, text in enumerate(column_texts) if "n" in text), k))
        elif column.kind == "glyph":
            column_texts = list(map(glyphs.__getitem__, cells))
        else:
            column_texts = ["" if cell is None else str(cell) for cell in cells]
        texts.append(column_texts)
    if bad:
        row, k = min(bad)
        raise DecisiveError(f"{table.title}: {_header_text(table.columns[k])} is "
                            f"{float(table.cells[k][row])!r}, not a finite number")
    return texts


def _escaped(texts: list[str], special: str, escape) -> list[str]:
    """`escape` of each text, when the column's text as a whole holds one of `special`."""
    joined = "".join(texts)
    return list(map(escape, texts)) if any(ch in joined for ch in special) else texts


#: the characters a Markdown cell escapes: a "|" would end the cell, a line break the row
_MD_SPECIAL = "|\n\r"


def _md_escape(text: str) -> str:
    text = text.replace("|", "\\|").replace("\r\n", "<br>")
    return text.replace("\r", "<br>").replace("\n", "<br>")


def _render_md(table: ReportTable, ascii_glyphs: bool) -> str:
    headers = [_md_escape(_header_text(c)) for c in table.columns]
    lines = [f"### {_md_escape(table.title)}", ""]
    lines.append("| " + " | ".join(headers) + " |")
    lines.append("| " + " | ".join("---" for _ in headers) + " |")
    columns = [_escaped(texts, _MD_SPECIAL, _md_escape)
               for texts in _cell_texts(table, ascii_glyphs)]
    rows = list(map(" | ".join, zip(*columns)))
    if rows:  # each row between "| " and " |"
        lines.append("| " + " |\n| ".join(rows) + " |")
    return "\n".join(lines) + "\n"


#: the characters that make a CSV cell quoted
_CSV_SPECIAL = ",\"\n\r"


def _csv_quote(text: str) -> str:
    if any(ch in text for ch in _CSV_SPECIAL):
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_csv(table: ReportTable, ascii_glyphs: bool) -> str:
    lines = [",".join(_csv_quote(_header_text(c)) for c in table.columns)]
    columns = [_escaped(texts, _CSV_SPECIAL, _csv_quote)
               for texts in _cell_texts(table, ascii_glyphs)]
    lines += map(",".join, zip(*columns))
    return "\n".join(lines) + "\n"


def _json_doc(table: ReportTable, ascii_glyphs: bool) -> dict:
    """A table as {"title", "rows"}: a number cell's text read back as a number, an empty
    one as null."""
    columns = [[float(text) if text else None for text in texts] if col.kind == "number"
               else texts for texts, col in zip(_cell_texts(table, ascii_glyphs), table.columns)]
    headers = [_header_text(c) for c in table.columns]
    return {"title": table.title, "rows": [dict(zip(headers, row)) for row in zip(*columns)]}


def render_tables(tables: Sequence[ReportTable], fmt: str = "md", ascii_glyphs: bool = False) -> bytes:
    """Render several tables: Markdown or CSV blocks separated by a blank line, or one
    JSON array of {"title", "rows"} objects."""
    if fmt == "json":
        import json

        docs = [_json_doc(t, ascii_glyphs) for t in tables]
        text = json.dumps(docs, indent=2, ensure_ascii=False, allow_nan=False)
        return (text + "\n").encode("utf-8")
    return b"\n".join(render_table(t, fmt, ascii_glyphs) for t in tables)


# --- SVG plots -------------------------------------------------------------------

def _fmt(value: float) -> str:
    """A plot coordinate; finite inputs whose difference or ratio passes the float range
    still give a non-finite one."""
    if not math.isfinite(value):
        raise DecisiveError(f"plot coordinate is {value!r}, not a finite number")
    return f"{value:.2f}"


def _finite(plot: str, points) -> None:
    """Fail at the first of `points`, (label, x, y), whose x or y is not finite."""
    for label, x, y in points:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DecisiveError(f"{plot}: {label} at ({x!r}, {y!r}) is not a finite point")


def _plot(w: int, h: int, axes, marks: Sequence[str], x_title: str, x_title_gap: int,
          y_title: str, overlay: Sequence[str] = ()) -> bytes:
    """A standalone SVG: white background, the x and y axes from `axes` = (x0, y0, x1, y1)
    with the origin at (x0, y0), `marks`, the axis titles centred on the plot, `overlay`."""
    x0, y0, x1, y1 = map(_fmt, axes)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>\n',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>\n',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>\n',
        *marks,
        f'<text x="{_fmt(w / 2)}" y="{_fmt(h - x_title_gap)}" font-size="12" '
        f'text-anchor="middle">{x_title}</text>\n',
        f'<text x="14" y="{_fmt(h / 2)}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {_fmt(h / 2)})">{y_title}</text>\n',
        *overlay,
        "</svg>\n",
    ]
    return "".join(parts).encode("utf-8")


def ncap_scatter_svg(points: Sequence[tuple[str, float, float]]) -> bytes:
    """Standalone SVG of one or more (label, autonomy level, component potential) points.

    Level is on x in [0, 4], potential on y.
    """
    # html.escape(quote=False) escapes &, < and > exactly as XML text needs;
    # imported here so other commands do not pay for it at start-up
    from html import escape

    _finite("ncap scatter", points)
    w, h, margin = 480, 360, 50.0
    x_max = 4.0
    y_max = max(4.0, math.ceil(max(p[2] for p in points)))

    def sx(x):
        return margin + (w - 2 * margin) * (x / x_max)

    def sy(y):
        return h - margin - (h - 2 * margin) * (y / y_max)

    ticks = 4
    marks = [f'<text x="{_fmt(sx(i))}" y="{_fmt(sy(0) + 18)}" font-size="11" '
             f'text-anchor="middle">{i}</text>\n' for i in range(int(x_max) + 1)]
    marks += [f'<text x="{_fmt(sx(0) - 8)}" y="{_fmt(sy(y) + 4)}" font-size="11" '
              f'text-anchor="end">{y:.1f}</text>\n'
              for y in (y_max * i / ticks for i in range(ticks + 1))]
    overlay = []
    for label, level, potential in sorted(points):
        overlay.append(
            f'<circle cx="{_fmt(sx(level))}" cy="{_fmt(sy(potential))}" r="4" fill="black"/>\n'
        )
        overlay.append(
            f'<text x="{_fmt(sx(level) + 7)}" y="{_fmt(sy(potential) - 6)}" '
            f'font-size="11">{escape(label, quote=False)}</text>\n'
        )
    return _plot(w, h, (sx(0), sy(0), sx(x_max), sy(y_max)), marks,
                 "autonomy level", 10, "component potential", overlay)


def deviation_svg(samples: Sequence[tuple[float, float]]) -> bytes:
    """Standalone SVG polyline of (t seconds, deviation meters) samples, at least one; each
    coordinate is divided by its axis range before it is scaled, so no deviation overflows."""
    _finite("deviation plot", (("sample", t, d) for t, d in samples))
    w, h, margin = 480, 240, 45.0
    t0 = samples[0][0]
    t1 = samples[-1][0]
    span = (t1 - t0) or 1.0
    d_max = max(d for _, d in samples) or 1.0

    def sx(t):
        return margin + (w - 2 * margin) * ((t - t0) / span)

    def sy(d):
        return h - margin - (h - 2 * margin) * (d / d_max)

    xs, ys = [sx(t) for t, _ in samples], [sy(d) for _, d in samples]
    texts = [_fixed(c, 2) for c in (xs, ys)]
    if any("n" in text for text in texts):  # an overflowing coordinate: "inf" or "nan"
        for x, y in zip(xs, ys):
            _fmt(x)
            _fmt(y)
    path = " ".join(map(",".join, zip(*(text.split("\0") for text in texts))))
    return _plot(w, h, (sx(t0), sy(0), sx(t1), sy(d_max)),
                 [f'<polyline points="{path}" fill="none" stroke="black"/>\n'],
                 "time (s)", 8, "deviation (m)")
