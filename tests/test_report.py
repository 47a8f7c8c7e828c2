import json
import xml.dom.minidom

import pytest

from decisive.errors import DecisiveError
from decisive.report import (
    Column,
    ReportTable,
    deviation_svg,
    ncap_scatter_svg,
    render_table,
    render_tables,
)


def sample_table():
    table = ReportTable(
        "Ranking",
        [
            Column("sUAS"),
            Column("potential", "number", 2),
            Column("link", "glyph"),
        ],
    )
    table.add_row("alpha", 2.4787, "good")
    table.add_row("bravo", 2.2905, "none")
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

    def test_json_checks_the_schema(self):
        table = sample_table()
        table.rows.append(["short"])
        with pytest.raises(DecisiveError, match="row 2 has 1 cells, expected 3"):
            render_tables([table], "json")

    def test_deterministic(self):
        for fmt in ("md", "csv", "json"):
            assert render_tables([sample_table()], fmt) == render_tables([sample_table()], fmt)

    def test_empty_table_renders_headers(self):
        table = ReportTable("Empty", [Column("a"), Column("b")])
        text = render_table(table, "csv").decode("utf-8")
        assert text == "a,b\n"

    def test_schema_mismatch_row_length(self):
        table = sample_table()
        table.rows.append(["short"])
        with pytest.raises(DecisiveError, match="row 2 has 1 cells, expected 3"):
            render_table(table, "md")

    def test_glyph_vocabulary_enforced(self):
        table = ReportTable("Glyphs", [Column("status", "glyph")])
        table.add_row("excellent")
        with pytest.raises(DecisiveError, match="glyph cell 'excellent' not in"):
            render_table(table, "md")

    def test_csv_quoting(self):
        table = ReportTable("Q", [Column("text")])
        table.add_row('with, comma and "quote"')
        text = render_table(table, "csv").decode("utf-8")
        assert '"with, comma and ""quote"""' in text

    def test_multi_table_concatenation(self):
        blob = render_tables([sample_table(), sample_table()], "md").decode("utf-8")
        assert blob.count("### Ranking") == 2


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

    def test_deviation_polyline(self):
        samples = [(0.0, 0.0), (1.0, 0.1), (2.0, 0.05)]
        svg = deviation_svg(samples)
        xml.dom.minidom.parseString(svg)
        assert b"<polyline" in svg

    def test_empty_data(self):
        with pytest.raises(DecisiveError, match="no systems to plot"):
            ncap_scatter_svg([])
        with pytest.raises(DecisiveError, match="no deviation samples"):
            deviation_svg([])
