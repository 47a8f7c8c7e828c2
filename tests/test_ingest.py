import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from decisive import ingest

from decisive.errors import (
    CyclicCascade,
    DataQualityWarning,
    DecisiveError,
    DanglingReference,
    MalformedTuple,
    MissingColumn,
    MissingDirection,
    NonMonotonicTime,
    NonNumericField,
    ParseError,
    SchemaVersionUnsupported,
    ScoreOutOfRange,
    UnknownCategory,
    UnknownInstrument,
    UnknownTerm,
)
from decisive.ingest import (
    parse_campaign,
    parse_criteria,
    parse_feature_sheet,
    parse_fiducial_observations,
    parse_fis_config,
    parse_sagat,
    parse_survey,
    parse_telemetry,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestTelemetry:
    def test_minimal_file(self, tmp_path):
        p = write(tmp_path / "t.csv", "t,x,y,z\n0,0,0,1\n0.1,0.5,0,1\n0.2,1,0,1\n")
        traj, report = parse_telemetry(p)
        assert len(traj) == 3
        assert traj.vel is None
        assert report.counts["samples"] == 3

    def test_non_monotonic_time_names_line(self, tmp_path):
        rows = ["t,x,y,z"] + [f"{0.1 * i},{i},0,1" for i in range(5)]
        rows[6:6] = []  # header is line 1; data rows are lines 2-6
        rows.append("0.1,9,0,1")  # line 7 goes backwards
        p = write(tmp_path / "t.csv", "\n".join(rows) + "\n")
        with pytest.raises(NonMonotonicTime) as exc:
            parse_telemetry(p)
        assert exc.value.location == 7

    def test_non_numeric_field(self, tmp_path):
        p = write(tmp_path / "t.csv", "t,x,y,z\n0,0,0,1\n0.1,oops,0,1\n")
        with pytest.raises(NonNumericField) as exc:
            parse_telemetry(p)
        assert exc.value.location == 3

    def test_missing_column(self, tmp_path):
        p = write(tmp_path / "t.csv", "t,x,y\n0,0,0\n1,1,1\n")
        with pytest.raises(MissingColumn):
            parse_telemetry(p)

    def test_partial_velocity_group_rejected(self, tmp_path):
        p = write(tmp_path / "t.csv", "t,x,y,z,vx\n0,0,0,1,0\n1,1,0,1,0\n")
        with pytest.raises(MissingColumn):
            parse_telemetry(p)

    def test_acceleration_columns_carried(self, tmp_path):
        p = write(
            tmp_path / "t.csv",
            "t,x,y,z,vx,vy,vz,ax,ay,az\n0,0,0,1,1,0,0,0.5,0,0\n1,1,0,1,1,0,0,0.5,0,0\n",
        )
        traj, _ = parse_telemetry(p)
        assert traj.acc is not None
        assert traj.acc[0][0] == 0.5

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        p = tmp_path / "t.csv"
        rows = ["t,x,y,z,vx,vy,vz"]
        t = np.sort(rng.uniform(0, 10, 25))
        values = []
        for i, ti in enumerate(t):
            vals = rng.normal(size=6)
            values.append([float(ti)] + [float(v) for v in vals])
            rows.append(",".join(repr(v) for v in values[-1]))
        write(p, "\n".join(rows) + "\n")
        traj, _ = parse_telemetry(p)
        values = np.array(values)
        assert np.array_equal(traj.t, values[:, 0])
        assert np.array_equal(traj.pos, values[:, 1:4])
        assert np.array_equal(traj.vel, values[:, 4:7])


SAMPLE = Path(__file__).resolve().parents[1] / "sample_campaign"


def _outcome(path):
    """parse_telemetry's result as plain data, or its error's class, text and location,
    with the messages of the warnings it issued on the way."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        try:
            traj, report = parse_telemetry(path)
        except DecisiveError as exc:
            return ("error", type(exc), str(exc), getattr(exc, "location", None),
                    [str(w.message) for w in record])
    arrays = [None if a is None else (a.shape, a.tobytes()) for a in
              (traj.t, traj.pos, traj.vel, traj.acc)]
    return ("ok", arrays, [str(w.message) for w in record], report.counts)


class TestTelemetryColumnsAgreeWithRowLoop:
    """The whole-column parse gives the row loop's arrays, or defers to its error."""

    HEADERS = {
        "pos": "t,x,y,z",
        "vel": "t,x,y,z,vx,vy,vz",
        "acc": "t,x,y,z,ax,ay,az",
        "vel+acc": "t,x,y,z,vx,vy,vz,ax,ay,az",
        "unknown": "mode,t,x,note,y,z,vx,vy,vz,extra",
    }

    def check(self, path, monkeypatch, fast: bool):
        """Compare with the row loop; `fast` says whether the column parse takes the file."""
        taken = []
        columns = ingest._telemetry_columns

        def spy(body, cols):
            table = columns(body, cols)
            taken.append(table is not None)
            return table

        monkeypatch.setattr(ingest, "_telemetry_columns", spy)
        got = _outcome(path)
        monkeypatch.setattr(ingest, "_telemetry_columns", lambda body, cols: None)
        assert got == _outcome(path)
        assert taken == [fast]
        return got

    @pytest.mark.parametrize("name", ["wf_alpha_1.csv", "oa_alpha_1.csv"])
    def test_sample_telemetry(self, name, monkeypatch):
        assert self.check(SAMPLE / name, monkeypatch, fast=True)[0] == "ok"

    @pytest.mark.parametrize("layout", sorted(HEADERS))
    def test_column_layouts(self, layout, tmp_path, monkeypatch):
        header = self.HEADERS[layout].split(",")
        rng = np.random.default_rng(5)
        rows = []
        for i in range(40):
            cells = {c: repr(float(v)) for c, v in zip(header, rng.normal(size=len(header)))}
            cells.update(t=repr(0.05 * i), mode="hover", note="n/a")
            rows.append(",".join(cells[c] for c in header))
        p = write(tmp_path / "t.csv", "\n".join([",".join(header)] + rows) + "\n")
        assert self.check(p, monkeypatch, fast=True)[0] == "ok"

    def test_number_spellings(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        formats = [lambda v: repr(float(v)), "{:.3e}".format, "{:.17g}".format, "{:+.6f}".format,
                   lambda v: f" {v:.4f}\t", lambda v: str(int(v * 100))]
        rows = ["t,x,y,z"]
        for i in range(300):
            cells = [formats[k % len(formats)](v)
                     for k, v in enumerate(rng.normal(scale=50, size=3), start=i)]
            rows.append(",".join([f"{i}.5"] + cells))
        p = write(tmp_path / "t.csv", "\n".join(rows) + "\n")
        assert self.check(p, monkeypatch, fast=True)[0] == "ok"

    def test_crlf_line_endings(self, tmp_path, monkeypatch):
        p = tmp_path / "t.csv"
        p.write_bytes(b"t,x,y,z\r\n0,0,0,1\r\n0.1,1,0,1\r\n\r\n0.2,2,0,1\r\n")
        assert self.check(p, monkeypatch, fast=True)[0] == "ok"

    @pytest.mark.parametrize("row", [
        '"0.15",1.5,0,1',  # a quoted number
        "0.15,1_000,0,1",  # an underscore digit separator
        ",,,",  # a row whose cells are all blank is skipped
        "   ",  # so is a whitespace-only line
    ])
    def test_row_loop_accepts_what_columns_reject(self, row, tmp_path, monkeypatch):
        p = write(tmp_path / "t.csv", f"t,x,y,z\n0,0,0,1\n0.1,1,0,1\n{row}\n0.2,2,0,1\n")
        assert self.check(p, monkeypatch, fast=False)[0] == "ok"

    def test_quoted_cell_in_unknown_column(self, tmp_path, monkeypatch):
        # csv keeps "a,b" as one cell; a plain comma split would read code, x, y as x, y, z
        p = write(tmp_path / "t.csv",
                  't,note,code,x,y,z\n0,"a,b",5,1,2,3\n0.1,"c,d",6,4,5,6\n0.2,e,7,7,8,9\n')
        got = self.check(p, monkeypatch, fast=False)
        with pytest.warns(DataQualityWarning, match="unknown column"):
            traj, _ = parse_telemetry(p)
        assert got[0] == "ok" and len(got[2]) == 2 and traj.pos[:, 0].tolist() == [1.0, 4.0, 7.0]

    @pytest.mark.parametrize("row, error, message", [
        ("#0.15,1,0,1", NonNumericField, "cannot parse '#0.15' as a number (at 4)"),
        ("0.15,1,0", MissingColumn, "row has 3 fields, needs 4 (at 4)"),
        ("0.15,nan,0,1", NonNumericField, "'nan' is not a finite number (at 4)"),
        ("0.15,1,-inf,1", NonNumericField, "'-inf' is not a finite number (at 4)"),
        ("0.1,1,0,1", NonMonotonicTime, "time 0.1 does not increase past 0.1 (at 4)"),
    ])
    def test_bad_row_keeps_row_loop_error(self, row, error, message, tmp_path, monkeypatch):
        p = write(tmp_path / "t.csv", f"t,x,y,z\n0,0,0,1\n0.1,1,0,1\n{row}\n0.2,2,0,1\n")
        got = self.check(p, monkeypatch, fast=False)
        assert got[1:3] == (error, message)

    def test_undecodable_byte_past_the_header(self, tmp_path, monkeypatch):
        rows = "".join(f"{0.01 * i:.2f},1,0,1\n" for i in range(2000))  # past one read chunk
        p = tmp_path / "t.csv"
        p.write_bytes(b"t,x,y,z\n" + rows.encode() + b"20.5,\xff,0,1\n")
        got = self.check(p, monkeypatch, fast=False)
        assert got[1] is ParseError and "can't decode byte 0xff" in got[2]

    @pytest.mark.parametrize("body", ["", "0,0,0,1\n", "\n\n"])
    def test_fewer_than_two_samples(self, body, tmp_path, monkeypatch):
        p = write(tmp_path / "t.csv", "t,x,y,z\n" + body)
        got = self.check(p, monkeypatch, fast=False)
        assert got[2].startswith("telemetry needs at least two samples")


def manifest_doc(**overrides):
    doc = {
        "schema_version": 1,
        "suas": [{"id": "alpha"}],
        "environments": [{"id": "lab", "lighting": "lighted"}],
        "tests": [{"test_id": "oa-wall", "kind": "collision", "environment": "lab"}],
        "trials": [],
    }
    doc.update(overrides)
    return doc


class TestCampaign:
    def test_empty_campaign_warns(self, tmp_path):
        p = write(tmp_path / "c.json", json.dumps(manifest_doc()))
        with pytest.warns(DataQualityWarning, match="no trials"):
            campaign, _ = parse_campaign(p)
        assert campaign.trials == ()

    def test_unknown_category(self, tmp_path):
        doc = manifest_doc(trials=[{
            "trial_id": "t1", "test_id": "oa-wall", "suas_id": "alpha",
            "outcome": "success", "oa_category": "OA-B5",
        }])
        p = write(tmp_path / "c.json", json.dumps(doc))
        with pytest.raises(UnknownCategory):
            parse_campaign(p)

    def test_dangling_test_reference(self, tmp_path):
        doc = manifest_doc(trials=[{
            "trial_id": "t9", "test_id": "nope", "suas_id": "alpha", "outcome": "success",
        }])
        p = write(tmp_path / "c.json", json.dumps(doc))
        with pytest.raises(DanglingReference) as exc:
            parse_campaign(p)
        assert "t9" in str(exc.value)

    def test_missing_telemetry_file(self, tmp_path):
        doc = manifest_doc(trials=[{
            "trial_id": "t1", "test_id": "oa-wall", "suas_id": "alpha",
            "outcome": "success", "telemetry": "gone.csv",
        }])
        p = write(tmp_path / "c.json", json.dumps(doc))
        with pytest.raises(DanglingReference):
            parse_campaign(p)

    def test_unsupported_schema(self, tmp_path):
        p = write(tmp_path / "c.json", json.dumps(manifest_doc(schema_version=99)))
        with pytest.raises(SchemaVersionUnsupported):
            parse_campaign(p)

    def test_five_flight_example(self, tmp_path):
        # two collision flights out of five
        trials = [
            {
                "trial_id": f"t{i}", "test_id": "oa-wall", "suas_id": "alpha",
                "outcome": "success", "collisions": 1 if i < 2 else 0,
            }
            for i in range(5)
        ]
        p = write(tmp_path / "c.json", json.dumps(manifest_doc(trials=trials)))
        campaign, report = parse_campaign(p)
        assert report.counts["trials"] == 5
        assert sum(1 for t in campaign.trials if t.collisions > 0) == 2


class TestSurvey:
    HEADER = "participant_id,instrument,item_id,score,manip_pass,condition\n"

    def test_score_out_of_range(self, tmp_path):
        p = write(tmp_path / "s.csv", self.HEADER + "p1,CTPA,i1,8,true,A\n")
        with pytest.raises(ScoreOutOfRange):
            parse_survey(p)

    def test_unknown_instrument(self, tmp_path):
        p = write(tmp_path / "s.csv", self.HEADER + "p1,NASA-TLX,i1,4,true,A\n")
        with pytest.raises(UnknownInstrument):
            parse_survey(p)

    def test_duplicate_last_wins_with_warning(self, tmp_path):
        p = write(
            tmp_path / "s.csv",
            self.HEADER + "p1,CTPA,i1,4,true,A\np1,CTPA,i1,6,true,A\n",
        )
        with pytest.warns(DataQualityWarning, match="duplicate"):
            dataset, _ = parse_survey(p)
        assert len(dataset.rows) == 1
        assert dataset.rows[0].score == 6

    def test_item_count_warning(self, tmp_path):
        lines = [f"p1,CTPA,i{i},4,true,A" for i in range(1, 10)]  # all 9 CTPA items
        lines += [f"p2,HCTM,i{i},4,true,A" for i in range(1, 4)]  # only 3 of 12
        p = write(tmp_path / "s.csv", self.HEADER + "\n".join(lines) + "\n")
        with pytest.warns(DataQualityWarning) as record:
            parse_survey(p)
        warned = [str(w.message) for w in record]
        assert any("p2" in msg and "12" in msg for msg in warned)
        assert not any("p1" in msg for msg in warned)


class TestSagat:
    def test_parse(self, tmp_path):
        p = write(
            tmp_path / "g.csv",
            "participant_id,question_id,se_id,sa_level,correct\n"
            "p1,q1,altitude,1,true\np1,q2,altitude,2,false\n",
        )
        responses, report = parse_sagat(p)
        assert len(responses) == 2
        assert responses[0].sa_level == 1

    def test_bad_level(self, tmp_path):
        p = write(
            tmp_path / "g.csv",
            "participant_id,question_id,se_id,sa_level,correct\np1,q1,alt,3,true\n",
        )
        with pytest.raises(ScoreOutOfRange):
            parse_sagat(p)


class TestFeatureSheet:
    def sheet(self, **overrides):
        doc = {
            "features": [
                {"name": "flight_time", "direction": "higher"},
                {"name": "charge_time", "direction": "lower"},
                {"name": "stream_resolution", "direction": "higher",
                 "ordinal_map": {"FHD": 3, "FHD30p": 2}},
            ],
            "systems": [
                {"id": "alpha", "values": {"flight_time": 15, "charge_time": 50,
                                           "stream_resolution": "FHD"},
                 "capabilities": {"perception": True, "modeling": True, "planning": True}},
                {"id": "bravo", "values": {"flight_time": 10, "charge_time": 90,
                                           "stream_resolution": "FHD30p"}},
            ],
        }
        doc.update(overrides)
        return doc

    def test_loads(self, tmp_path):
        p = write(tmp_path / "f.json", json.dumps(self.sheet()))
        sheet, report = parse_feature_sheet(p)
        assert report.counts == {"features": 3, "systems": 2}
        assert sheet.capabilities["alpha"].perception is True

    def test_missing_direction(self, tmp_path):
        doc = self.sheet(features=[{"name": "flight_time"}])
        p = write(tmp_path / "f.json", json.dumps(doc))
        with pytest.raises(MissingDirection):
            parse_feature_sheet(p)

    def test_na_parses_as_absent(self, tmp_path):
        doc = self.sheet()
        doc["systems"][0]["values"]["flight_time"] = "N/A"
        p = write(tmp_path / "f.json", json.dumps(doc))
        sheet, _ = parse_feature_sheet(p)
        assert sheet.table.values["alpha"]["flight_time"] == "N/A"


class TestFisConfig:
    def config(self):
        return {
            "name": "demo",
            "fis": {
                "mc": {
                    "inputs": {
                        "crashes": {"range": [0, 3],
                                    "terms": {"low": [0, 0, 1.25], "high": [0.5, 3, 3]}},
                    },
                    "outputs": {"bad": 0.0, "good": 1.0},
                    "rules": [
                        {"if": {"crashes": "low"}, "then": "good"},
                        {"if": {"crashes": "high"}, "then": "bad"},
                    ],
                },
            },
            "cascade": {},
        }

    def test_accepts_shoulder_tuple(self, tmp_path):
        p = write(tmp_path / "f.json", json.dumps(self.config()))
        config, report = parse_fis_config(p)
        assert config.fis["mc"].inputs["crashes"].terms["low"].a == 0.0

    def test_malformed_tuple(self, tmp_path):
        doc = self.config()
        doc["fis"]["mc"]["inputs"]["crashes"]["terms"]["low"] = [2, 1, 3]
        p = write(tmp_path / "f.json", json.dumps(doc))
        with pytest.raises(MalformedTuple):
            parse_fis_config(p)

    def test_truncated_tuple(self, tmp_path):
        doc = self.config()
        doc["fis"]["mc"]["inputs"]["crashes"]["terms"]["low"] = [0.7, 1]
        p = write(tmp_path / "f.json", json.dumps(doc))
        with pytest.raises(MalformedTuple):
            parse_fis_config(p)

    def test_unknown_term_in_rule(self, tmp_path):
        doc = self.config()
        doc["fis"]["mc"]["rules"][0]["if"]["crashes"] = "not medium"
        p = write(tmp_path / "f.json", json.dumps(doc))
        with pytest.raises(UnknownTerm):
            parse_fis_config(p)

    def test_cyclic_cascade(self, tmp_path):
        doc = self.config()
        doc["fis"]["combined"] = doc["fis"]["mc"]
        doc["cascade"] = {"combined": ["combined"]}
        p = write(tmp_path / "f.json", json.dumps(doc))
        with pytest.raises(CyclicCascade):
            parse_fis_config(p)

    def test_coverage_gap_warns(self, tmp_path):
        doc = self.config()
        doc["fis"]["mc"]["inputs"]["crashes"]["terms"] = {"low": [0, 0, 1.0]}
        doc["fis"]["mc"]["rules"] = [{"if": {"crashes": "low"}, "then": "good"}]
        p = write(tmp_path / "f.json", json.dumps(doc))
        with pytest.warns(DataQualityWarning, match="variable 'crashes' has membership gaps"):
            parse_fis_config(p)

    def test_shipped_ruleset_dimensions(self):
        from decisive.cli import DEFAULT_FIS

        config, _ = parse_fis_config(DEFAULT_FIS)
        assert len(config.fis["mc"].rules) == 10
        mc = config.fis["mc"].inputs
        assert mc["crashes"].aliases == {"many": "high"}
        assert {"crashes", "completion", "rollovers"} == set(mc)


class TestCriteria:
    def test_parse(self, tmp_path):
        p = write(
            tmp_path / "c.json",
            json.dumps({"hd_video_min": {"op": "min", "value": 120}}),
        )
        criteria, _ = parse_criteria(p)
        assert criteria[0].field == "hd_video_min"
        assert criteria[0].passes(150)


class TestFiducialObservations:
    def test_parse(self, tmp_path):
        p = write(
            tmp_path / "f.csv",
            "fiducial_id,half,x,y,mapped\nA,1,0.0,0.0,complete\nA,2,,,missing\nB,1,1.0,0.5,partial\n",
        )
        obs, report = parse_fiducial_observations(p)
        assert len(obs) == 3
        assert obs[1].map_xy is None
        assert report.counts["observations"] == 3

    def test_short_row_names_line(self, tmp_path):
        p = write(tmp_path / "f.csv",
                  "fiducial_id,half,x,y,mapped\nA,1,0.0,0.0,complete\nB,1,0.5\n")
        with pytest.raises(MissingColumn, match=r"row has 3 fields, needs 5 \(at 3\)"):
            parse_fiducial_observations(p)

    def test_missing_row_may_stop_before_position(self, tmp_path):
        p = write(tmp_path / "f.csv",
                  "fiducial_id,half,mapped,x,y\nA,2,missing\nB,1,complete\n")
        with pytest.raises(MissingColumn, match=r"row has 3 fields, needs 5 \(at 3\)"):
            parse_fiducial_observations(p)
        obs, _ = parse_fiducial_observations(write(tmp_path / "g.csv",
                                                    "fiducial_id,half,mapped,x,y\nA,2,missing\n"))
        assert obs[0].map_xy is None


class TestParserTotality:
    """Any byte stream yields a value+report or a structured error, never a crash."""

    PARSERS = [
        parse_telemetry,
        parse_campaign,
        parse_survey,
        parse_sagat,
        parse_feature_sheet,
        parse_fis_config,
        parse_criteria,
        parse_fiducial_observations,
    ]

    BLOBS = [
        b"",
        b"\x00\x01\x02",
        b"t,x\n1,2\n",
        b"[1, 2, 3]",
        b'{"schema_version": "soup"}',
        b"t,x,y,z\nnot,numbers,at,all\n",
        b'{"features": 17}',
        "participant_id,instrument,item_id,score,manip_pass,condition\np,CTPA,i,∞,true,A\n".encode(),
    ]

    @pytest.mark.parametrize("blob", BLOBS, ids=range(len(BLOBS)))
    def test_never_crashes(self, tmp_path, blob):
        from decisive.errors import DecisiveError

        target = tmp_path / "input"
        target.write_bytes(blob)
        for parser in self.PARSERS:
            try:
                parser(target)
            except DecisiveError:
                pass
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                pytest.fail(f"{parser.__name__} leaked {type(exc).__name__}: {exc}")
