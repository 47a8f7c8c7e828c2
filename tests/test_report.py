import json
import math
import re
import xml.dom.minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decisive import report
from decisive.errors import DecisiveError
from decisive.report import (
    GLYPHS,
    Column,
    ReportTable,
    deviation_svg,
    ncap_scatter_svg,
    render_table,
    render_tables,
)


def sample_table(bravo_potential=2.2905):
    table = ReportTable(
        "Ranking",
        [
            Column("sUAS"),
            Column("potential", "number", 2),
            Column("link", "glyph"),
        ],
    )
    table.add_row("alpha", 2.4787, "good")
    table.add_row("bravo", bravo_potential, "none")
    return table


class TestRenderTable:
    def test_markdown(self):
        text = render_table(sample_table(), "md").decode("utf-8")
        assert "| alpha | 2.48 | ✓ |" in text
        assert "| bravo | 2.29 | X |" in text

    def test_ascii_glyphs(self):
        text = render_table(sample_table(), "md", ascii_glyphs=True).decode("utf-8")
        assert "| ok |" in text and "| none |" in text

    def test_csv(self):
        text = render_table(sample_table(), "csv").decode("utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "sUAS,potential,link"
        assert lines[1] == "alpha,2.48,✓"

    def test_json_round_trips(self):
        docs = json.loads(render_tables([sample_table(), sample_table()], "json"))
        assert [doc["title"] for doc in docs] == ["Ranking", "Ranking"]
        assert docs[0]["rows"][0]["potential"] == 2.48

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_every_format_rejects_a_non_finite_number(self, value, fmt):
        table = sample_table(bravo_potential=value)
        with pytest.raises(DecisiveError) as exc:
            render_tables([table], fmt)
        assert str(exc.value) == f"Ranking: potential is {value!r}, not a finite number"

    def test_json_empty_number_cell_is_null(self):
        table = sample_table(bravo_potential=None)
        docs = json.loads(render_tables([table], "json"))
        assert docs[0]["rows"][1] == {"sUAS": "bravo", "potential": None, "link": "X"}

    def test_deterministic(self):
        for fmt in ("md", "csv", "json"):
            assert render_tables([sample_table()], fmt) == render_tables([sample_table()], fmt)

    def test_empty_table_renders_headers(self):
        table = ReportTable("Empty", [Column("a"), Column("b")])
        text = render_table(table, "csv").decode("utf-8")
        assert text == "a,b\n"

    def test_csv_quoting(self):
        table = ReportTable("Q", [Column("text")])
        table.add_row('with, comma and "quote"')
        text = render_table(table, "csv").decode("utf-8")
        assert '"with, comma and ""quote"""' in text

    def test_markdown_escapes_pipes_and_line_breaks(self):
        table = ReportTable("T", [Column("id|name"), Column("n", "number", 0)])
        for i, text in enumerate(["a|b", "c\nd", "e\r\nf\rg", "plain"]):
            table.add_row(text, float(i))
        lines = render_table(table, "md").decode("utf-8").splitlines()
        assert lines[2:] == ["| id\\|name | n |", "| --- | --- |", "| a\\|b | 0 |",
                             "| c<br>d | 1 |", "| e<br>f<br>g | 2 |", "| plain | 3 |"]

    def test_markdown_title_is_one_heading_line(self):
        table = ReportTable("Map metrics: map\nloop|x\r\ny", [Column("a")])
        table.add_row("1")
        lines = render_table(table, "md").decode("utf-8").splitlines()
        assert lines[:3] == ["### Map metrics: map<br>loop\\|x<br>y", "", "| a |"]

    def test_multi_table_concatenation(self):
        blob = render_tables([sample_table(), sample_table()], "md").decode("utf-8")
        assert blob.count("### Ranking") == 2


def format_cell(cell, column, ascii_glyphs, title):
    """One cell's text on its own: a number through `float` and `format`."""
    if cell is None:
        return ""
    if column.kind == "glyph":
        return (report.ASCII_GLYPHS if ascii_glyphs else GLYPHS)[cell]
    if column.kind == "number":
        value = float(cell)
        if not math.isfinite(value):
            raise DecisiveError(f"{title}: {report._header_text(column)} is {value!r}, "
                                "not a finite number")
        return f"{value:.{column.digits}f}"
    return str(cell)


def per_cell_reference(table, fmt, ascii_glyphs):
    """`table` rendered one cell at a time in row order, or the first bad cell's error."""
    try:
        rows = [[format_cell(cell, col, ascii_glyphs, table.title) for cell, col in
                 zip(row, table.columns)] for row in table.rows]
    except DecisiveError as exc:
        return ("error", str(exc))
    headers = [report._header_text(c) for c in table.columns]
    if fmt == "md":
        def escape(text):
            return re.sub(r"\r\n|\r|\n", "<br>", text.replace("|", "\\|"))

        lines = [f"### {escape(table.title)}", "",
                 "| " + " | ".join(map(escape, headers)) + " |",
                 "| " + " | ".join("---" for _ in headers) + " |"]
        lines += ["| " + " | ".join(map(escape, cells)) + " |" for cells in rows]
    else:
        def quote(text):
            special = any(c in text for c in ',"\n\r')
            return '"' + text.replace('"', '""') + '"' if special else text

        lines = [",".join(map(quote, cells)) for cells in [headers] + rows]
    return ("ok", ("\n".join(lines) + "\n").encode("utf-8"))


SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 0.5, 2.675, 5e-324,
                                  -5e-324, 1e308, -1e308])
#: cells of each kind a table may hold
CELLS = {
    "none": st.none(),
    "float": st.one_of(SPECIAL_FLOATS, st.floats()),
    "int": st.integers(-10**6, 10**6),
    "bool": st.booleans(),
    "numpy float": st.one_of(SPECIAL_FLOATS, st.floats()).map(np.float64),
    "glyph key": st.sampled_from(sorted(GLYPHS)),
    "string": st.text(alphabet=st.sampled_from('ab ,"\n\r|✓'), max_size=4),
}


#: the kinds of cell the table builders put in each kind of column
COLUMN_CELLS = {"number": ["none", "float", "int", "bool", "numpy float"],
                "glyph": ["none", "glyph key"], "text": sorted(CELLS)}
#: cells any row of a column may hold, whatever its other cells
ODD_CELLS = {"number": [None, math.inf, -math.inf, math.nan], "glyph": [None],
             "text": [None, math.inf, math.nan]}


@st.composite
def tables(draw):
    """A table whose columns each hold a few kinds of cell, often one kind only, with an
    empty or non-finite cell at any row."""
    columns, kinds = [], []
    for k in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["number", "glyph", "text"]))
        digits = draw(st.integers(0, 4)) if kind == "number" else None
        columns.append(Column(f"c{k}", kind, digits, draw(st.sampled_from(["", "m"]))))
        kinds.append(draw(st.lists(st.sampled_from(COLUMN_CELLS[kind]), min_size=1, max_size=2)))
    size = draw(st.integers(0, 24))
    cells = [draw(st.lists(st.one_of([CELLS[kind] for kind in ks]), min_size=size,
                           max_size=size)) for ks in kinds]
    for column, column_cells in zip(columns, cells):
        if size:
            odd = st.tuples(st.integers(0, size - 1), st.sampled_from(ODD_CELLS[column.kind]))
            for row, cell in draw(st.lists(odd, max_size=2)):
                column_cells[row] = cell
    table = ReportTable("T", columns)
    for row in zip(*cells):
        table.add_row(*row)
    return table


class TestColumnsAgreeWithPerCellRendering:
    @settings(max_examples=400, deadline=None)
    @given(table=tables(), fmt=st.sampled_from(["md", "csv"]), ascii_glyphs=st.booleans())
    def test_any_table(self, table, fmt, ascii_glyphs):
        try:
            got = ("ok", render_table(table, fmt, ascii_glyphs))
        except DecisiveError as exc:
            got = ("error", str(exc))
        assert got == per_cell_reference(table, fmt, ascii_glyphs)

    def test_first_bad_cell_in_row_order(self):
        table = ReportTable("T", [Column("a", "number", 2), Column("b", "number", 1)])
        table.add_row(1.0, math.inf)  # the second column's bad cell comes first in row order
        table.add_row(math.nan, 2.0)
        with pytest.raises(DecisiveError, match=r"^T: b is inf, not a finite number$"):
            render_table(table, "md")

    def test_later_column_with_an_earlier_bad_row_is_named(self):
        table = ReportTable("T", [Column("a", "number", 0), Column("b", "number", 2)])
        table.add_row(1, 0.5)
        table.add_row(None, math.nan)  # the first bad cell: an earlier row than column a's
        table.add_row(math.inf, 1.5)
        with pytest.raises(DecisiveError, match=r"^T: b is nan, not a finite number$"):
            render_table(table, "md")


class TestPlotSvg:
    def test_scatter_two_points(self):
        svg = ncap_scatter_svg([("alpha", 3.0, 2.48), ("bravo", 1.0, 2.69)])
        xml.dom.minidom.parseString(svg)
        text = svg.decode("utf-8")
        assert text.count("<circle") == 2
        assert ">alpha</text>" in text and ">bravo</text>" in text

    def test_scatter_deterministic(self):
        points = [("alpha", 3.0, 2.48), ("bravo", 1.0, 2.69)]
        assert ncap_scatter_svg(points) == ncap_scatter_svg(points)

    def test_scatter_huge_potential_stays_on_the_canvas(self):
        svg = ncap_scatter_svg([("alpha", 3.0, 1e308)])
        xml.dom.minidom.parseString(svg)
        assert '<circle cx="335.00" cy="50.00" r="4" fill="black"/>' in svg.decode("utf-8")

    def test_deviation_polyline(self):
        samples = [(0.0, 0.0), (1.0, 0.1), (2.0, 0.05)]
        svg = deviation_svg(samples)
        xml.dom.minidom.parseString(svg)
        assert b"<polyline" in svg

    @pytest.mark.parametrize("plot, message", [
        (lambda: ncap_scatter_svg([("alpha", 3.0, 2.48), ("bravo", 1.0, math.inf)]),
         "ncap scatter: bravo at (1.0, inf) is not a finite point"),
        (lambda: ncap_scatter_svg([("alpha", math.nan, 2.48)]),
         "ncap scatter: alpha at (nan, 2.48) is not a finite point"),
        (lambda: deviation_svg([(0.0, 0.0), (1.0, math.nan)]),
         "deviation plot: sample at (1.0, nan) is not a finite point"),
        # finite inputs whose time span or deviation ratio overflows
        (lambda: deviation_svg([(-1e308, 0.0), (1e308, 0.1)]),
         "plot coordinate is nan, not a finite number"),
        # the first overflowing coordinate in sample order: the first sample's y is inf,
        # the second's x nan; then the second sample's x is nan, its y inf
        (lambda: deviation_svg([(-1e308, -1e308), (1e308, 1e-320)]),
         "plot coordinate is inf, not a finite number"),
        (lambda: deviation_svg([(-1e308, 0.0), (1e308, -1e308)]),
         "plot coordinate is nan, not a finite number"),
    ])
    def test_non_finite_input_or_coordinate_fails(self, plot, message):
        with pytest.raises(DecisiveError) as exc:
            plot()
        assert str(exc.value) == message


def per_sample_deviation_svg(samples):
    """`deviation_svg` with each polyline coordinate formatted on its own, in sample order."""
    report._finite("deviation plot", (("sample", t, d) for t, d in samples))
    w, h, margin = 480, 240, 45.0
    t0, t1 = samples[0][0], samples[-1][0]
    span = (t1 - t0) or 1.0
    d_max = max(d for _, d in samples) or 1.0

    def sx(t):
        return margin + (w - 2 * margin) * ((t - t0) / span)

    def sy(d):
        return h - margin - (h - 2 * margin) * (d / d_max)

    path = " ".join(f"{report._fmt(sx(t))},{report._fmt(sy(d))}" for t, d in samples)
    return report._plot(w, h, (sx(t0), sy(0), sx(t1), sy(d_max)),
                        [f'<polyline points="{path}" fill="none" stroke="black"/>\n'],
                        "time (s)", 8, "deviation (m)")


COORDINATES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, 0.005, 2.675]))


class TestDeviationPolylineAgreesWithPerSampleFormatting:
    @settings(max_examples=300, deadline=None)
    @given(samples=st.lists(st.tuples(COORDINATES, COORDINATES), min_size=1, max_size=30))
    def test_any_samples(self, samples):
        outcomes = []
        for render in (deviation_svg, per_sample_deviation_svg):
            try:
                outcomes.append(("ok", render(samples)))
            except DecisiveError as exc:
                outcomes.append(("error", str(exc)))
        assert outcomes[0] == outcomes[1]
