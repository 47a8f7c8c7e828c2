import contextlib
import copy
import csv
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from decisive import ingest
from decisive.cli import main
from decisive.errors import DataQualityWarning, DecisiveError, ParseError
from decisive.core import APERTURE_TIERS, CR_CATEGORIES, ObstacleGeometry
from decisive.field import Criterion, NlosPosition
from decisive.ingest import (
    CampaignTest,
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
        with pytest.raises(ParseError, match="time 0.1 does not increase past 0.4") as exc:
            parse_telemetry(p)
        assert exc.value.location == 7

    def test_non_numeric_field(self, tmp_path):
        p = write(tmp_path / "t.csv", "t,x,y,z\n0,0,0,1\n0.1,oops,0,1\n")
        with pytest.raises(ParseError, match="cannot parse 'oops' as a number") as exc:
            parse_telemetry(p)
        assert exc.value.location == 3

    def test_row_error_names_file_and_line(self, tmp_path):
        p = write(tmp_path / "t.csv", "t,x,y,z\n0,0,0,1\n0.1,oops,0,1\n")
        with pytest.raises(ParseError) as exc:
            parse_telemetry(p)
        assert (exc.value.source, exc.value.location) == (str(p), 3)
        assert str(exc.value) == f"cannot parse 'oops' as a number (at {p}:3)"

    def test_missing_column(self, tmp_path):
        p = write(tmp_path / "t.csv", "t,x,y\n0,0,0\n1,1,1\n")
        with pytest.raises(ParseError, match=re.escape(f"missing column 'z' (at {p})")):
            parse_telemetry(p)

    def test_partial_velocity_group_rejected(self, tmp_path):
        p = write(tmp_path / "t.csv", "t,x,y,z,vx\n0,0,0,1,0\n1,1,0,1,0\n")
        with pytest.raises(ParseError, match=r"columns \('vx', 'vy', 'vz'\) must appear together"):
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

    def check(self, path, monkeypatch, fast: bool | None = None):
        """Compare with the row loop; `fast`, when given, says whether the column parse takes
        the file."""
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
        if fast is not None:
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

    @pytest.mark.parametrize("row, message", [
        ("#0.15,1,0,1", "cannot parse '#0.15' as a number"),
        ("0.15,1,0", "row has 3 fields, needs 4"),
        ("0.15,nan,0,1", "'nan' is not a finite number"),
        ("0.15,1,-inf,1", "'-inf' is not a finite number"),
        ("0.1,1,0,1", "time 0.1 does not increase past 0.1"),
    ])
    def test_bad_row_keeps_row_loop_error(self, row, message, tmp_path, monkeypatch):
        p = write(tmp_path / "t.csv", f"t,x,y,z\n0,0,0,1\n0.1,1,0,1\n{row}\n0.2,2,0,1\n")
        got = self.check(p, monkeypatch, fast=False)
        assert got[1:3] == (ParseError, f"{message} (at {p}:4)")

    def test_undecodable_byte_past_the_header(self, tmp_path, monkeypatch):
        rows = "".join(f"{0.01 * i:.2f},1,0,1\n" for i in range(2000))  # past one read chunk
        p = tmp_path / "t.csv"
        p.write_bytes(b"t,x,y,z\n" + rows.encode() + b"20.5,\xff,0,1\n")
        got = self.check(p, monkeypatch)
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
        "tests": [{"test_id": "oa-wall", "kind": "collision", "environment": "lab",
                   "obstacle": {"p0": [0, 0], "p1": [3, 0], "height": 2}}],
        "trials": [],
    }
    doc.update(overrides)
    return doc


class TestCampaign:
    def test_empty_campaign_warns(self, tmp_path):
        p = write(tmp_path / "c.json", json.dumps(manifest_doc()))
        with pytest.warns(DataQualityWarning, match="no trials"):
            campaign = parse_campaign(p)
        assert campaign.trials == ()

    def test_unknown_category(self, tmp_path):
        doc = manifest_doc(trials=[{
            "trial_id": "t1", "test_id": "oa-wall", "suas_id": "alpha",
            "outcome": "success", "oa_category": "OA-B5",
        }])
        p = write(tmp_path / "c.json", json.dumps(doc))
        with pytest.raises(ParseError) as exc:
            parse_campaign(p)
        assert str(exc.value) == (
            "trial t1: bad 'oa_category' field (expected one of \"OA-A1\", \"OA-B1\", \"OA-B2\", "
            f"\"OA-B3\", \"OA-B4\", \"OA-C1\", got \"OA-B5\") (at {p})")

    @pytest.mark.parametrize("key, value, vocabulary", [
        ("cr_category", "CR-Z9", CR_CATEGORIES), ("aperture_tier", "Z9", APERTURE_TIERS)])
    def test_unknown_cr_category_and_aperture_tier(self, tmp_path, key, value, vocabulary):
        doc = manifest_doc(trials=[{
            "trial_id": "t1", "test_id": "oa-wall", "suas_id": "alpha", key: value,
        }])
        p = write(tmp_path / "c.json", json.dumps(doc))
        with pytest.raises(ParseError) as exc:
            parse_campaign(p)
        choices = ", ".join(map(json.dumps, vocabulary))
        assert str(exc.value) == (f"trial t1: bad {key!r} field (expected one of {choices}, "
                                  f"got {json.dumps(value)}) (at {p})")

    def test_dangling_test_reference(self, tmp_path):
        doc = manifest_doc(trials=[{
            "trial_id": "t9", "test_id": "nope", "suas_id": "alpha", "outcome": "success",
        }])
        p = write(tmp_path / "c.json", json.dumps(doc))
        with pytest.raises(ParseError) as exc:
            parse_campaign(p)
        assert str(exc.value) == f"trial t9 references unknown test 'nope' (at {p})"

    def test_missing_telemetry_file(self, tmp_path):
        doc = manifest_doc(trials=[{
            "trial_id": "t1", "test_id": "oa-wall", "suas_id": "alpha",
            "outcome": "success", "telemetry": "gone.csv",
        }])
        p = write(tmp_path / "c.json", json.dumps(doc))
        with pytest.raises(ParseError, match="trial t1: telemetry file 'gone.csv' not found"):
            parse_campaign(p)

    @pytest.mark.parametrize("key, value, reason", [
        ("laps", "10", 'expected a number, got "10"'),
        ("laps", -1, "expected a non-negative integer, got -1"),
        ("laps", 2.5, "expected a non-negative integer, got 2.5"),
        ("t_collision_s", "x", 'expected a number, got "x"'),
        ("t_collision_s", [3], "expected a number, got [3]"),
        ("collisions", "x", 'expected a number, got "x"'),
        ("collisions", -1, "expected a non-negative integer, got -1"),
        ("rollovers", 1.5, "expected a non-negative integer, got 1.5"),
        ("duration_min", "8", 'expected a number, got "8"'),
        ("duration_min", True, "expected a number, got true"),
    ])
    def test_bad_trial_field_names_trial_and_manifest(self, tmp_path, key, value, reason):
        doc = manifest_doc(trials=[{"trial_id": "t1", "test_id": "oa-wall", "suas_id": "alpha",
                                    "outcome": "success", key: value}])
        p = write(tmp_path / "c.json", json.dumps(doc))
        with pytest.raises(ParseError) as exc:
            parse_campaign(p)
        assert str(exc.value) == f"trial t1: bad {key!r} field ({reason}) (at {p})"

    def test_trial_fields_are_typed(self, tmp_path):
        doc = manifest_doc(trials=[{"trial_id": "t1", "test_id": "oa-wall", "suas_id": "alpha",
                                    "outcome": "success", "laps": 20.0, "t_collision_s": 3,
                                    "collisions": 2.0, "rollovers": 1, "duration_min": 8}])
        campaign = parse_campaign(write(tmp_path / "c.json", json.dumps(doc)))
        trial = campaign.trials[0]
        assert (trial.laps, trial.t_collision_s, trial.collisions,
                trial.duration_min) == (20, 3.0, 2, 8.0)
        assert all(isinstance(n, int) for n in (trial.laps, trial.collisions))
        assert isinstance(trial.duration_min, float)

    def test_absent_trial_counts_default_to_zero(self, tmp_path):
        doc = manifest_doc(trials=[{"trial_id": "t1", "test_id": "oa-wall", "suas_id": "alpha",
                                    "outcome": "success", "collisions": None}])
        campaign = parse_campaign(write(tmp_path / "c.json", json.dumps(doc)))
        trial = campaign.trials[0]
        assert (trial.collisions, trial.duration_min) == (0, 0.0)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_number_names_the_file(self, tmp_path, constant):
        text = json.dumps(manifest_doc(trials=[{"trial_id": "t1", "test_id": "oa-wall",
                                                "suas_id": "alpha", "duration_min": 0.5}]))
        p = write(tmp_path / "c.json", text.replace("0.5", constant))
        with pytest.raises(ParseError) as exc:
            parse_campaign(p)
        assert str(exc.value) == f"invalid JSON: {constant} is not a number (at {p})"

    @pytest.mark.parametrize("version, message", [
        (99, "schema_version 99"),
        (True, "manifest: bad 'schema_version' field (expected a number, got true)"),
    ], ids=["99", "true"])
    def test_unsupported_schema(self, tmp_path, version, message):
        p = write(tmp_path / "c.json", json.dumps(manifest_doc(schema_version=version)))
        with pytest.raises(ParseError, match=re.escape(f"{message} (at {p})")):
            parse_campaign(p)

    @pytest.mark.parametrize("trial_id", [7, True, ["t1"], {"id": "t1"}])
    def test_trial_id_must_be_a_string(self, tmp_path, trial_id):
        doc = manifest_doc(trials=[{"trial_id": trial_id, "test_id": "oa-wall",
                                    "suas_id": "alpha"}])
        p = write(tmp_path / "c.json", json.dumps(doc))
        with pytest.raises(ParseError) as exc:
            parse_campaign(p)
        assert str(exc.value) == ("trial entry: bad 'trial_id' field "
                                  f"(expected a string, got {json.dumps(trial_id)}) (at {p})")

    def test_absent_or_null_trial_id_reads_as_unknown(self, tmp_path):
        trials = [{"test_id": "oa-wall", "suas_id": "alpha"},
                  {"trial_id": None, "test_id": "oa-wall", "suas_id": "alpha"}]
        campaign = parse_campaign(write(tmp_path / "c.json",
                                           json.dumps(manifest_doc(trials=trials))))
        assert [t.trial_id for t in campaign.trials] == ["?", "?"]

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
        campaign = parse_campaign(p)
        assert len(campaign.trials) == 5
        assert sum(1 for t in campaign.trials if t.collisions > 0) == 2


class TestCampaignTests:
    def test_sample_blocks_are_typed(self):
        campaign = parse_campaign(SAMPLE / "campaign.json")
        nav = campaign.tests["wall-follow-1m"]
        assert nav.path.vertices == ((0.0, 1.0, 1.0), (3.0, 1.0, 1.0)) and not nav.path.closed
        assert nav.waypoint == (3.0, 1.0, 0.0) and nav.length_m is None
        assert campaign.tests["aperture-doorway"].length_m == 7.8
        assert campaign.tests["oa-wall"].obstacle == ObstacleGeometry(
            "plane_segment", (0.0, 0.0), (3.0, 0.0), 2.0, "wall")
        field = campaign.tests["endurance-indoor"]
        assert field.nlos_positions[1] == NlosPosition(14.0, ((1, "drywall"),), "good", "possible")
        assert field.criteria == tuple(parse_criteria(SAMPLE / "criteria.json"))
        assert field.criteria[0] == Criterion("hd_video_min", "min", 120)
        assert field.responses["bravo"]["battery_type"] == "Li-ion"
        mapping = campaign.tests["map-loop"]
        assert [(g.fiducial_id, g.gt_xy) for g in mapping.fiducials][2] == ("C", (4.0, 3.0))
        observations = parse_fiducial_observations(SAMPLE / "fiducials.csv")
        assert mapping.observations == tuple(observations)
        assert mapping.observations[0].fiducial_id == "A"
        assert mapping.shape_classes["D"] == "shifted"
        assert mapping.dimensions == ((3.9, 3.05), (4.0, 3.0)) and mapping.fov == (11, 16)
        assert mapping.acuity_levels == (8.0, 8.0, 8.0, 20.0, 8.0, 8.0, 8.0, 8.0, 3.0)
        assert all(t.telemetry is None or t.telemetry.parent == SAMPLE for t in campaign.trials)

    def load(self, tmp_path, test):
        p = write(tmp_path / "c.json", json.dumps(manifest_doc(tests=[test])))
        with pytest.warns(DataQualityWarning, match="no trials"):
            return parse_campaign(p).tests[test["test_id"]]

    def test_absent_null_and_empty_blocks_stay_empty(self, tmp_path):
        test = {"test_id": "n", "kind": "nav", "path": None, "waypoint": [], "length_m": 0}
        assert self.load(tmp_path, test) == CampaignTest("n", "nav")

    def test_unknown_kind_keeps_no_blocks(self, tmp_path):
        test = {"test_id": "x", "kind": "thermal", "path": [1, 2], "fov": "wide"}
        assert self.load(tmp_path, test) == CampaignTest("x", "thermal")

    @pytest.mark.parametrize("test, message", [
        ({"kind": "collision"}, " missing 'obstacle'"),
        ({"kind": "nav", "waypoint": [1, "2"]}, ": bad 'waypoint' field (expected a number, got \"2\")"),
        ({"kind": "nav", "path": {"vertices": [[0, 0], [1, 1]]}},
         " path: bad 'vertices' field (expected 3 numbers, got 2)"),
        ({"kind": "mapping", "fiducials": [{"id": "A", "xy": [0, 0], "min_traversal": 5}]},
         " fiducials 0 missing 'min_turns'"),
        ({"kind": "mapping", "dimensions": {"reported": [1], "truth": [1, 2]}},
         " dimensions: 1 reported vs 2 truth values"),
        ({"kind": "field", "responses": {"alpha": "yes"}},
         " responses: bad 'alpha' field (expected an object, got \"yes\")"),
    ])
    def test_bad_block_names_test_and_manifest(self, tmp_path, test, message):
        p = write(tmp_path / "c.json", json.dumps(manifest_doc(tests=[{"test_id": "t1", **test}])))
        with pytest.raises(ParseError) as exc:
            parse_campaign(p)
        assert str(exc.value) == f"test t1{message} (at {p})"

    def test_side_file_is_parsed_at_load(self, tmp_path):
        criteria = write(tmp_path / "criteria.json", '{"hd_video_min": {"op": "near"}}')
        test = {"test_id": "f", "kind": "field", "criteria": "criteria.json"}
        p = write(tmp_path / "c.json", json.dumps(manifest_doc(tests=[test])))
        with pytest.raises(ParseError, match=re.escape(f"(at {criteria})")):
            parse_campaign(p)

    def test_missing_side_file_is_dangling(self, tmp_path):
        test = {"test_id": "m", "kind": "mapping", "observations": "gone.csv"}
        p = write(tmp_path / "c.json", json.dumps(manifest_doc(tests=[test])))
        with pytest.raises(ParseError, match="test m: observations file 'gone.csv' not found"):
            parse_campaign(p)


class TestSurvey:
    HEADER = "participant_id,instrument,item_id,score,manip_pass,condition\n"

    def test_score_out_of_range(self, tmp_path):
        p = write(tmp_path / "s.csv", self.HEADER + "p1,CTPA,i1,8,true,A\n")
        with pytest.raises(ParseError, match=re.escape(f"score '8' outside 1..7 (at {p}:2)")):
            parse_survey(p)

    def test_non_finite_score(self, tmp_path):
        p = write(tmp_path / "s.csv", self.HEADER + "p1,CTPA,i1,nan,true,A\n")
        with pytest.raises(ParseError, match=re.escape(f"'nan' is not a finite number (at {p}:2)")):
            parse_survey(p)

    def test_unknown_instrument(self, tmp_path):
        p = write(tmp_path / "s.csv", self.HEADER + "p1,NASA-TLX,i1,4,true,A\n")
        with pytest.raises(ParseError, match=re.escape(f"instrument 'NASA-TLX' (at {p}:2)")):
            parse_survey(p)

    def test_duplicate_last_wins_with_warning(self, tmp_path):
        p = write(
            tmp_path / "s.csv",
            self.HEADER + "p1,CTPA,i1,4,true,A\np1,CTPA,i1,6,true,A\n",
        )
        with pytest.warns(DataQualityWarning, match="duplicate"):
            survey, _ = parse_survey(p)
        assert survey.scores == [6]

    def test_item_count_warning(self, tmp_path):
        lines = [f"p1,CTPA,i{i},4,true,A" for i in range(1, 10)]  # all 9 CTPA items
        lines += [f"p2,HCTM,i{i},4,true,A" for i in range(1, 4)]  # only 3 of 12
        p = write(tmp_path / "s.csv", self.HEADER + "\n".join(lines) + "\n")
        with pytest.warns(DataQualityWarning) as record:
            parse_survey(p)
        warned = [str(w.message) for w in record]
        assert any("p2" in msg and "12" in msg for msg in warned)
        assert not any("p1" in msg for msg in warned)

    def test_first_bad_score_names_its_line(self, tmp_path):
        lines = [f"p1,CTPA,i{i},{'x' if i in (2, 8) else 4},true,A" for i in range(1, 10)]
        p = write(tmp_path / "s.csv", self.HEADER + "\n".join(lines) + "\n")  # x on lines 3, 9
        with pytest.raises(ParseError) as exc:
            parse_survey(p)
        assert str(exc.value) == f"cannot parse 'x' as a number (at {p}:3)"


def _survey_outcome(path):
    """parse_survey's columns, warnings and counts, or its error's class and text, as plain
    data."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        try:
            survey, report = parse_survey(path)
        except DecisiveError as exc:
            return ("error", type(exc), str(exc), [str(w.message) for w in record])
    # repr tells a score of 4 from 4.0 and a flag of True from 1
    return ("ok", repr(survey), [str(w.message) for w in record], report.counts)


#: ways a generated survey file may differ from a plain one: a file draws any set of them,
#: and each of its rows at most one of the row quirks in that set
FILE_QUIRKS = ("extra column", "reordered", "missing column", "no final newline")
ROW_QUIRKS = ("quoted cell", "crlf", "carriage return", "empty line", "blank cells", "padded",
              "duplicate", "short row", "long row", "bad cell")
BAD_CELLS = {"instrument": ["NASA", ""], "score": ["0", "8", "2.5", "nan", "x", ""],
             "manip_pass": ["maybe", ""]}


def survey_text(data) -> str:
    """A survey file whose header and rows carry the quirks `data` draws."""
    quirks = data.draw(st.sets(st.sampled_from(FILE_QUIRKS + ROW_QUIRKS)))
    columns = list(ingest.SURVEY_COLUMNS)
    if "extra column" in quirks:
        columns.insert(data.draw(st.integers(0, len(columns))), "note")
    if "reordered" in quirks:
        columns = data.draw(st.permutations(columns))
    if "missing column" in quirks:
        columns.remove(data.draw(st.sampled_from(list(ingest.SURVEY_COLUMNS))))
    lines = [",".join(columns) + "\n"]
    row_quirks = [q for q in ROW_QUIRKS if q in quirks]
    for k in range(data.draw(st.integers(0, 10))):
        quirk = data.draw(st.sampled_from(row_quirks + ["none", "none"]))
        cells = {
            "participant_id": data.draw(st.sampled_from(["p1", "p2"])),
            "instrument": data.draw(st.sampled_from(["CTPA", "HCTM"])),
            "item_id": f"i{k}",
            "score": data.draw(st.sampled_from(["1", "4", "7", "4.0", "+5", "6e0"])),
            "manip_pass": data.draw(st.sampled_from(["true", "false", "yes", "N", "1", "0"])),
            "condition": data.draw(st.sampled_from(["A", "B"])),
            "note": "ok",
        }
        if quirk == "duplicate":
            cells.update(participant_id="p1", instrument="CTPA", item_id="i0")
        elif quirk in ("quoted cell", "padded", "carriage return"):
            column = data.draw(st.sampled_from(columns))
            cells[column] = (f" {cells[column]}\t" if quirk == "padded"
                             else f"{cells[column]}\r" if quirk == "carriage return"
                             else '"a,b"' if column == "note" else f'"{cells[column]}"')
        elif quirk == "bad cell":
            column = data.draw(st.sampled_from(sorted(BAD_CELLS)))
            cells[column] = data.draw(st.sampled_from(BAD_CELLS[column]))
        row = [cells[c] for c in columns]
        if quirk == "short row":
            row = row[:data.draw(st.integers(1, len(row) - 1))]
        elif quirk == "long row":
            row += ["A"] * data.draw(st.integers(1, 3))
        text = ("" if quirk == "empty line" else ",".join([" "] * len(row))
                if quirk == "blank cells" else ",".join(row))
        lines.append(text + ("\r\n" if quirk == "crlf" else "\n"))
    text = "".join(lines)
    return text.rstrip("\r\n") if "no final newline" in quirks else text


@pytest.fixture(scope="module")
def survey_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("surveys")


def agrees_with_row_loop(outcome, fast: bool | None = None):
    """`outcome()` with the column reader as without it; `fast`, when given, says whether the
    column reader takes the file."""
    taken = []
    columns = ingest._csv_columns

    def spy(*args, **kwargs):
        table = columns(*args, **kwargs)
        taken.append(table is not None)
        return table

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_csv_columns", spy)
        got = outcome()
        patch.setattr(ingest, "_csv_columns", lambda *args, **kwargs: None)
        assert got == outcome()
    if fast is not None:
        assert taken == [fast]
    return got


class TestSurveyColumnsAgreeWithRowLoop:
    """The column reader gives the row loop's columns, or defers to its errors and warnings."""

    def check(self, path, fast: bool | None = None):
        return agrees_with_row_loop(lambda: _survey_outcome(path), fast)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_survey_text(self, survey_dir, data):
        path = survey_dir / "s.csv"
        path.write_bytes(survey_text(data).encode())
        self.check(path)

    def test_sample_survey(self):
        assert self.check(SAMPLE / "surveys.csv", fast=True)[0] == "ok"

    def test_extra_reordered_and_padded_columns(self, tmp_path):
        header = "note,condition,score,item_id,manip_pass,instrument,participant_id"
        rows = [f"n{i}, B ,{1 + i % 7}.0, i{i} , yes\t,HCTM , p{i % 3}" for i in range(36)]
        p = write(tmp_path / "s.csv", "\n".join([header] + rows))  # no final newline
        got = self.check(p, fast=True)
        assert got[0] == "ok" and got[3] == {"responses": 36}

    @pytest.mark.parametrize("row", [
        '"p3",CTPA,i3,4,true,A',  # a quoted cell
        "",  # an empty line
        " , , , , , ",  # a row whose cells are all blank is skipped
        "p3,CTPA,i3,4,true",  # a short row
        "p3,CTPA,i3,4,true,A,extra",  # a long row
        "p3,CTPA,i3,4,true\nA,p4,CTPA,i4,5,true,B",  # a short row, and a long one that evens it
        "p3,CTPA,i3\r4,true,A",  # a lone carriage return ends a csv row
        "p3,CTPA,i3,8,true,A",  # a score outside 1..7
        "p3,CTPA,i3,4,maybe,A",  # a flag that is not a boolean
        "p3,TLX,i3,4,true,A",  # an unknown instrument
    ])
    def test_row_loop_decides_what_columns_reject(self, row, tmp_path):
        p = write(tmp_path / "s.csv", TestSurvey.HEADER + f"p1,CTPA,i1,4,true,A\n{row}\n"
                  "p2,HCTM,i2,6,false,B\n")
        self.check(p, fast=False)

    def test_repeated_key_is_read_by_the_columns(self, tmp_path):
        p = write(tmp_path / "s.csv", TestSurvey.HEADER + "p1,CTPA,i1,4,true,A\n"
                  "p2,HCTM,i2,6,false,B\np1,CTPA,i1,5,true,A\np1,CTPA,i1,7,true,A\n")
        got = self.check(p, fast=True)
        assert "scores=[7, 6]," in got[1]  # the key keeps its first place, with its last score
        assert got[2][:2] == [f"duplicate response for ('p1', 'CTPA', 'i1'); keeping the later "
                              f"row (at {p}:{line})" for line in (4, 5)]

    def test_distinct_keys_that_join_alike_are_not_repeated(self, tmp_path):
        # both keys join to "p\0CTPA\0CTPA\0i1"
        p = write(tmp_path / "s.csv", TestSurvey.HEADER + "p\0CTPA,CTPA,i1,4,true,A\n"
                  "p,CTPA,CTPA\0i1,5,true,A\n")
        got = self.check(p, fast=True)
        assert got[0] == "ok" and "scores=[4, 5]," in got[1]
        assert not [w for w in got[2] if "duplicate" in w]

    @pytest.mark.parametrize("ending, fast", [(b"\r\n", True), (b"\r", False)])
    def test_carriage_returns(self, ending, fast, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(ending.join([b"participant_id,instrument,item_id,score,manip_pass,condition",
                                   b"p1,CTPA,i1,4,true,A", b"p2,HCTM,i2,6,no,B", b""]))
        assert self.check(p, fast=fast)[0] == "ok"

    def test_undecodable_byte_past_the_header(self, tmp_path):
        rows = "".join(f"p{i},CTPA,i1,4,true,A\n" for i in range(2000))  # past one read chunk
        p = tmp_path / "s.csv"
        p.write_bytes(TestSurvey.HEADER.encode() + rows.encode() + b"p\xff,CTPA,i2,4,true,A\n")
        got = self.check(p)
        assert got[1] is ParseError and "can't decode byte 0xff" in got[2]


def survey_rows(count: int) -> list[str]:
    """`count` well-formed survey lines: participant k answers the 9 CTPA and 12 HCTM items
    in turn, and every tenth participant fails the manipulation check."""
    lines = []
    for k in range(count):
        participant, item = divmod(k, 21)
        lines.append(f"p{participant:04d},{'CTPA' if item < 9 else 'HCTM'},i{item},{1 + k % 7},"
                     f"{'false' if participant % 10 == 3 else 'true'},{'AB'[participant % 2]}\n")
    return lines


def trust_outcome(path):
    """`trust`'s exit code, stdout and stderr on the survey at `path`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["trust", "--survey", str(path), "--condition-a", "A", "--condition-b", "B"])
    return code, out.getvalue(), err.getvalue()


class TestColumnReaderAcrossChunks:
    """Bodies of several chunks, each with one defect or repeated key placed in a later chunk:
    the column reader gives exactly the row loop's columns or defers to it, and `trust` says
    the same."""

    LINES = survey_rows(4 * ingest.CSV_CHUNK // 24)  # about 24 characters a line
    HEADER = TestSurvey.HEADER

    @classmethod
    def chunk_starts(cls) -> list[int]:
        """The index of the first row of each chunk of the defect-free body."""
        starts, rows = [], 0
        for cells in ingest._split_columns("".join(cls.LINES), 6):
            starts.append(rows)
            rows += len(cells[0])
        return starts

    DEFECTS = {  # the line that takes a row's place; where the row loop fails, its message
        "short row": ("p9999,CTPA,i0,4", "row has 4 fields, needs 6"),
        "bad cell": ("p9999,CTPA,i0,x,true,A", "cannot parse 'x' as a number"),
        "blank row": (" , , , , , ", None),
        "empty line": ("", None),
    }
    #: the rows a defect or repeated key is placed at
    WHERE = ["first of the third chunk", "last of the second chunk", "last of the body"]

    def later_row(self, where) -> int:
        starts = self.chunk_starts()
        row = {"first of the third chunk": starts[2], "last of the second chunk": starts[2] - 1,
               "last of the body": len(self.LINES) - 1}[where]
        assert row >= starts[1]  # the first chunk is whole and ends before the row
        return row

    def test_body_spans_several_chunks(self):
        assert len(self.chunk_starts()) >= 4

    def test_defect_free_body_takes_the_columns(self, tmp_path):
        p = write(tmp_path / "s.csv", self.HEADER + "".join(self.LINES))
        header, body, start = ingest._header_and_body(p)
        rows = [values for _, values in ingest._csv_rows(header, body, start,
                                                         ingest.SURVEY_COLUMNS)]
        columns = ingest._csv_columns(header, body, ingest.SURVEY_COLUMNS)
        assert columns == [list(column) for column in zip(*rows)]
        assert len(rows) == len(self.LINES)
        agrees_with_row_loop(lambda: trust_outcome(p), fast=True)

    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("defect", list(DEFECTS))
    def test_defect_in_a_later_chunk_defers_to_the_row_loop(self, tmp_path, defect, where):
        row = self.later_row(where)
        line, message = self.DEFECTS[defect]
        lines = list(self.LINES)
        lines[row] = line + "\n"
        p = write(tmp_path / "s.csv", self.HEADER + "".join(lines))
        header, body, _ = ingest._header_and_body(p)
        assert ingest._csv_columns(header, body, ingest.SURVEY_COLUMNS) is None
        code, out, err = agrees_with_row_loop(lambda: trust_outcome(p), fast=False)
        if message:
            assert (code, out, err) == (1, "", f"error: {message} (at {p}:{row + 2})\n")
        else:
            assert code == 0 and "error" not in err and "duplicate" not in err

    @pytest.mark.parametrize("where", WHERE)
    def test_field_past_the_csv_limit_in_a_later_chunk_defers_to_the_row_loop(self, tmp_path,
                                                                              where):
        row = self.later_row(where)
        lines = list(self.LINES)
        lines[row] = "p" * (csv.field_size_limit() + 1) + ",CTPA,i0,4,true,A\n"
        p = write(tmp_path / "s.csv", self.HEADER + "".join(lines))
        header, body, _ = ingest._header_and_body(p)
        assert ingest._csv_columns(header, body, ingest.SURVEY_COLUMNS) is None
        code, out, err = agrees_with_row_loop(lambda: trust_outcome(p), fast=False)
        assert (code, out, err) == (
            1, "", f"error: malformed input (field larger than field limit (131072)) (at {p})\n")

    @pytest.mark.parametrize("where", WHERE)
    def test_repeated_key_in_a_later_chunk_is_read_by_the_columns(self, tmp_path, where):
        row = self.later_row(where)
        lines = list(self.LINES)
        lines[row] = "p0000,CTPA,i0,7,true,A\n"  # the key of the first row
        p = write(tmp_path / "s.csv", self.HEADER + "".join(lines))
        code, out, err = agrees_with_row_loop(lambda: trust_outcome(p), fast=True)
        assert code == 0 and "error" not in err
        assert [line for line in err.splitlines() if "duplicate" in line] == [
            f"warning: duplicate response for ('p0000', 'CTPA', 'i0'); keeping the later row "
            f"(at {p}:{row + 2})"]

    def test_blank_scores_row_in_the_last_chunk_defers_to_the_row_loop(self, tmp_path):
        # every cell of a scores row may convert blank, so only the blank-row check sees it
        lines = [f"s{k % 50:02d},t{k // 50:04d},0,1,0.9\n" for k in range(ingest.CSV_CHUNK // 5)]
        lines[-1] = ",,,,\n"
        p = write(tmp_path / "s.csv", TestScores.HEADER + "".join(lines))
        assert len(p.read_text()) > 3 * ingest.CSV_CHUNK
        got = agrees_with_row_loop(lambda: _scores_outcome(p, SCORE_VARIABLES), fast=False)
        assert got[0] == "ok" and len(got[2]) == len(lines) - 1

    def test_blank_row_of_texts_first_seen_in_the_first_chunk_defers(self, tmp_path):
        # the blank row's texts were all converted in the first chunk, so the third chunk
        # reads them without converting anything
        lines = [f"s{k % 50:02d},t{k // 50:04d},0,1,0.9\n" for k in range(ingest.CSV_CHUNK // 5)]
        lines[1] = " ,t0000,,,\n"
        lines[2] = "s02, ,0,,\n"
        starts, rows = [], 0
        for cells in ingest._split_columns("".join(lines), 5):
            starts.append(rows)
            rows += len(cells[0])
        assert len(starts) >= 3 and starts[1] > 2
        lines[starts[2]] = " , ,,,\n"
        p = write(tmp_path / "s.csv", TestScores.HEADER + "".join(lines))
        header, body, _ = ingest._header_and_body(p)
        assert ingest._csv_columns(header, body, {
            "suas_id": ingest._text, "test_id": ingest._text,
            **dict.fromkeys(SCORE_VARIABLES, ingest._fis_input)}, SCORE_VARIABLES) is None
        got = agrees_with_row_loop(lambda: _scores_outcome(p, SCORE_VARIABLES), fast=False)
        assert got[0] == "ok" and len(got[2]) == len(lines) - 1

    def test_column_reader_peak_memory_stays_under_8x_the_body(self, tmp_path):
        p = write(tmp_path / "s.csv", self.HEADER + "".join(survey_rows((1 << 20) // 22)))
        header, body, _ = ingest._header_and_body(p)
        assert len(body) >= 1 << 20
        tracemalloc.start()
        try:
            columns = ingest._csv_columns(header, body, ingest.SURVEY_COLUMNS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert columns is not None
        assert peak < 8 * len(body)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), chunk=st.integers(1, 60))
    def test_any_survey_text_in_small_chunks(self, survey_dir, data, chunk):
        path = survey_dir / "s.csv"
        path.write_bytes(survey_text(data).encode())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "CSV_CHUNK", chunk)
            agrees_with_row_loop(lambda: _survey_outcome(path))


class TestScores:
    HEADER = "suas_id,test_id,crashes,rollovers,completion\n"

    def test_precomputed_and_fis_input_columns(self, tmp_path):
        p = write(tmp_path / "s.csv", "suas_id,test_id,score\na,t1,0.5\nb,t2,1\n")
        assert ingest.parse_scores(p, ["crashes"]) == (
            True, ["a", "b"], ["t1", "t2"], {"score": [0.5, 1.0]}, range(2, 4))
        p = write(tmp_path / "s.csv", self.HEADER + "a,t1,0,,1\n")
        table = ingest.parse_scores(p, ["crashes", "rollovers", "roll"])
        assert not table.precomputed
        assert repr(table.numbers) == "{'crashes': [0.0], 'rollovers': [nan], 'roll': [nan]}"

    def test_empty_precomputed_score_fails(self, tmp_path):
        p = write(tmp_path / "s.csv", "suas_id,test_id,score\na,t1,\na,t2,0.5\n")
        with pytest.raises(ParseError) as exc:
            ingest.parse_scores(p, [])
        assert str(exc.value) == f"cannot parse '' as a number (at {p}:2)"

    def test_first_bad_cell_names_its_line(self, tmp_path):
        rows = [f"a,t{i},{'x' if i in (3, 7) else 0},0,1" for i in range(9)]
        p = write(tmp_path / "s.csv", self.HEADER + "\n".join(rows) + "\n")  # x on lines 5, 9
        with pytest.raises(ParseError) as exc:
            ingest.parse_scores(p, ["crashes"])
        assert str(exc.value) == f"cannot parse 'x' as a number (at {p}:5)"


def _scores_outcome(path, variables):
    """parse_scores's columns and warnings, or its error's class and text, as plain data."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        try:
            table = ingest.parse_scores(path, variables)
        except DecisiveError as exc:
            return ("error", type(exc), str(exc), [str(w.message) for w in record])
    # repr tells -0.0 from 0.0, and nan equals nan
    return ("ok", table.precomputed, table.suas_ids, table.test_ids, repr(table.numbers),
            list(table.lines), [str(w.message) for w in record])


#: the FIS input variables a generated scores file is read for; "roll" is never a column
SCORE_VARIABLES = ["crashes", "rollovers", "completion", "roll"]
#: ways a generated scores file may differ from a plain one: a file draws any set of them,
#: and each of its rows at most one of the row quirks in that set
SCORE_FILE_QUIRKS = ("precomputed", "extra column", "repeated column", "reordered",
                     "missing variable", "padded header", "byte order mark", "no final newline")
SCORE_ROW_QUIRKS = ("quoted cell", "crlf", "carriage return", "empty line", "blank cells",
                    "whitespace cell", "non-finite", "bad cell", "blank id", "duplicate",
                    "short row", "long row")
#: number cells: an empty one is an absent FIS input, but fails as a precomputed score
SCORE_TEXTS = ["0", "1", "2", "0.5", "-0.0", "1e-3", " 3 ", "+1", "1_0", ""]
BAD_SCORE_CELLS = {"whitespace cell": [" ", "\t"],
                   "non-finite": ["nan", "inf", "-inf", "NaN", "1e999"],
                   "bad cell": ["x", "1.2.3", "--1"]}


def scores_text(data) -> str:
    """A scores file whose header and rows carry the quirks `data` draws."""
    quirks = data.draw(st.sets(st.sampled_from(SCORE_FILE_QUIRKS + SCORE_ROW_QUIRKS)))
    numbers = ["score"] if "precomputed" in quirks else SCORE_VARIABLES[:3]
    if "missing variable" in quirks:
        numbers.remove(data.draw(st.sampled_from(numbers)))
    columns = ["suas_id", "test_id"] + numbers
    if "extra column" in quirks:
        columns.insert(data.draw(st.integers(0, len(columns))), "note")
    if "repeated column" in quirks:
        columns.append(data.draw(st.sampled_from(columns)))
    if "reordered" in quirks:
        columns = data.draw(st.permutations(columns))
    lines = [(", " if "padded header" in quirks else ",").join(columns) + "\n"]
    row_quirks = [q for q in SCORE_ROW_QUIRKS if q in quirks]
    ids = ("suas_id", "test_id")
    numeric = [j for j, c in enumerate(columns) if c not in ids + ("note",)]
    previous = None
    for k in range(data.draw(st.integers(0, 8))):
        quirk = data.draw(st.sampled_from(row_quirks + ["none", "none"]))
        row = []
        for c in columns:  # each copy of a repeated column draws its own cell
            row.append(data.draw(st.sampled_from(["a", "b"])) if c == "suas_id"
                       else f"t{k}" if c == "test_id" else "ok" if c == "note"
                       else data.draw(st.sampled_from(SCORE_TEXTS)))
        if quirk == "duplicate" and previous:
            row = [p if c in ids else r for c, p, r in zip(columns, previous, row)]
        elif quirk == "blank id":
            row[columns.index("suas_id")] = data.draw(st.sampled_from(["", " "]))
        elif quirk in ("quoted cell", "carriage return"):
            j = data.draw(st.integers(0, len(row) - 1))
            row[j] = (f"{row[j]}\r" if quirk == "carriage return"
                      else '"a,b"' if columns[j] == "note" else f'"{row[j]}"')
        elif quirk in BAD_SCORE_CELLS and numeric:
            row[data.draw(st.sampled_from(numeric))] = data.draw(
                st.sampled_from(BAD_SCORE_CELLS[quirk]))
        previous = row
        if quirk == "short row":
            row = row[:data.draw(st.integers(1, len(row) - 1))]
        elif quirk == "long row":
            row = row + ["1"] * data.draw(st.integers(1, 3))
        elif quirk == "blank cells":
            row = [data.draw(st.sampled_from(["", " "]))] * len(row)
        text = "" if quirk == "empty line" else ",".join(row)
        lines.append(text + ("\r\n" if quirk == "crlf" else "\n"))
    text = "".join(lines)
    text = text.rstrip("\r\n") if "no final newline" in quirks else text
    return "\ufeff" + text if "byte order mark" in quirks else text


class TestScoresColumnsAgreeWithRowLoop:
    """The column reader gives the row loop's columns, or defers to its errors and warnings."""

    def check(self, path, fast: bool | None = None):
        return agrees_with_row_loop(lambda: _scores_outcome(path, SCORE_VARIABLES), fast)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_scores_text(self, scores_dir, data):
        path = scores_dir / "s.csv"
        path.write_bytes(scores_text(data).encode())
        self.check(path)

    def test_sample_scores(self):
        assert self.check(SAMPLE / "cfis_scores.csv", fast=True)[0] == "ok"

    def test_reordered_and_empty_columns(self, tmp_path):
        header = "completion,test_id,note,suas_id,crashes"
        rows = [f",t{i},n,s{i % 3}, {i % 3} " for i in range(30)]
        p = write(tmp_path / "s.csv", "\n".join([header] + rows))  # no final newline
        got = self.check(p, fast=True)
        assert got[4] == repr({"crashes": [float(i % 3) for i in range(30)],
                               "rollovers": [math.nan] * 30, "completion": [math.nan] * 30,
                               "roll": [math.nan] * 30})

    @pytest.mark.parametrize("header, column", [
        ("completion,test_id,crashes,suas_id,note,crashes", "crashes"),
        ("suas_id,test_id,score,suas_id", "suas_id"),
        ("suas_id,test_id,test_id,crashes", "test_id"),
    ])
    def test_repeated_needed_column_fails(self, tmp_path, header, column):
        p = write(tmp_path / "s.csv", header + "\n" + ",".join(["1"] * header.count(",")) + ",1\n")
        got = self.check(p)
        assert got[1:3] == (ParseError, f"column {column!r} appears more than once (at {p})")

    def test_repeated_unread_column_is_ignored(self, tmp_path):
        p = write(tmp_path / "s.csv", "suas_id,test_id,note,crashes,note\na,t1,x,1,y\n")
        assert self.check(p, fast=True)[4] == repr({"crashes": [1.0], "rollovers": [math.nan],
                                                   "completion": [math.nan], "roll": [math.nan]})

    @pytest.mark.parametrize("row", [
        '"c",t3,0,0,1',  # a quoted cell
        "",  # an empty line
        " , , , , ",  # a row whose cells are all blank is skipped
        ",,,,",
        "c,t3,0,0",  # a short row
        "c,t3,0,0,1,extra",  # a long row
        "c,t3,0\r0,1",  # a lone carriage return ends a csv row
        "c,t3,0, ,1",  # a blank number cell
        "c,t3,inf,0,1",  # a number that is not finite
        "c,t3,0,x,1",  # a cell that is not a number
    ])
    def test_row_loop_decides_what_columns_reject(self, row, tmp_path):
        p = write(tmp_path / "s.csv", TestScores.HEADER + f"a,t1,0,0,1\n{row}\nb,t2,1,0,0.5\n")
        self.check(p, fast=False)

    def test_repeated_pair_is_read_by_the_columns(self, tmp_path):
        p = write(tmp_path / "s.csv", TestScores.HEADER + "a,t1,0,0,1\nb,t2,1,0,0.5\n"
                  "a,t1,1,1,0.5\n")
        got = self.check(p, fast=True)
        assert got[2:4] == (["a", "b", "a"], ["t1", "t2", "t1"])  # both rows are kept
        assert got[6] == [f"duplicate score for a/t1; keeping the later row (at {p}:4)"]

    def test_distinct_pairs_that_join_alike_are_not_repeated(self, tmp_path):
        p = write(tmp_path / "s.csv", TestScores.HEADER + "a\0b,c,0,0,1\na,b\0c,1,0,0.5\n")
        got = self.check(p, fast=True)
        assert got[2:4] == (["a\0b", "a"], ["c", "b\0c"]) and got[6] == []

    def test_blank_suas_id_is_split(self, tmp_path):
        p = write(tmp_path / "s.csv", TestScores.HEADER + "a,t1,0,0,1\n ,t3,0,0,1\n")
        assert self.check(p, fast=True)[2] == ["a", " "]

    def test_empty_precomputed_score(self, tmp_path):
        p = write(tmp_path / "s.csv", "suas_id,test_id,score\na,t1,0.5\nb,t2,\n")
        assert self.check(p, fast=False)[2] == f"cannot parse '' as a number (at {p}:3)"

    @pytest.mark.parametrize("ending, fast", [(b"\r\n", True), (b"\r", False)])
    def test_carriage_returns(self, ending, fast, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(ending.join([b"suas_id,test_id,score", b"a,t1,0.5", b"b,t2,1", b""]))
        assert self.check(p, fast=fast)[0] == "ok"

    def test_byte_order_mark(self, tmp_path):
        text = (SAMPLE / "cfis_scores.csv").read_bytes()
        p = tmp_path / "s.csv"
        p.write_bytes(b"\xef\xbb\xbf" + text)
        assert self.check(p, fast=True) == self.check(SAMPLE / "cfis_scores.csv")


@pytest.fixture(scope="module")
def scores_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scores")


class TestSagat:
    def test_parse(self, tmp_path):
        p = write(
            tmp_path / "g.csv",
            "participant_id,question_id,se_id,sa_level,correct\n"
            "p1,q1,altitude,1,true\np1,q2,altitude,2,false\n",
        )
        sagat = parse_sagat(p)
        assert len(sagat.participants) == 2
        assert sagat.sa_levels[0] == 1

    def test_bad_level(self, tmp_path):
        p = write(
            tmp_path / "g.csv",
            "participant_id,question_id,se_id,sa_level,correct\np1,q1,alt,3,true\n",
        )
        with pytest.raises(ParseError, match=re.escape(f"sa_level '3' must be 1 or 2 (at {p}:2)")):
            parse_sagat(p)


def _sagat_outcome(path):
    """parse_sagat's responses, or its error's class and text, as plain data."""
    try:
        return ("ok", repr(parse_sagat(path)))  # repr tells a level of 1 from 1.0
    except DecisiveError as exc:
        return ("error", type(exc), str(exc))


#: ways a generated SAGAT file may differ from a plain one: a file draws any set of them,
#: and each of its rows at most one of the row quirks in that set
SAGAT_FILE_QUIRKS = ("extra column", "reordered", "missing column", "no final newline")
SAGAT_ROW_QUIRKS = ("quoted cell", "two-line cell", "crlf", "carriage return", "empty line",
                    "blank cells", "padded", "short row", "long row", "bad cell")
BAD_SAGAT_CELLS = {"sa_level": ["0", "3", "1.5", "nan", "x", ""], "correct": ["maybe", ""]}


def sagat_text(data) -> str:
    """A SAGAT file whose header and rows carry the quirks `data` draws."""
    quirks = data.draw(st.sets(st.sampled_from(SAGAT_FILE_QUIRKS + SAGAT_ROW_QUIRKS)))
    columns = list(ingest.SAGAT_COLUMNS)
    if "extra column" in quirks:
        columns.insert(data.draw(st.integers(0, len(columns))), "note")
    if "reordered" in quirks:
        columns = data.draw(st.permutations(columns))
    if "missing column" in quirks:
        columns.remove(data.draw(st.sampled_from(list(ingest.SAGAT_COLUMNS))))
    lines = [",".join(columns) + "\n"]
    row_quirks = [q for q in SAGAT_ROW_QUIRKS if q in quirks]
    for k in range(data.draw(st.integers(0, 10))):
        quirk = data.draw(st.sampled_from(row_quirks + ["none", "none"]))
        cells = {
            "participant_id": data.draw(st.sampled_from(["p1", "p2"])),
            "question_id": f"q{k}",
            "se_id": data.draw(st.sampled_from(["altitude", "heading"])),
            "sa_level": data.draw(st.sampled_from(["1", "2", "2.0", "+1", "1e0"])),
            "correct": data.draw(st.sampled_from(["true", "false", "yes", "N", "1", "0"])),
            "note": "ok",
        }
        if quirk in ("quoted cell", "two-line cell", "padded", "carriage return"):
            column = data.draw(st.sampled_from(columns))
            cells[column] = (f" {cells[column]}\t" if quirk == "padded"
                             else f"{cells[column]}\r" if quirk == "carriage return"
                             else f'"{cells[column]}\n"' if quirk == "two-line cell"
                             else '"a,b"' if column == "note" else f'"{cells[column]}"')
        elif quirk == "bad cell":
            column = data.draw(st.sampled_from(sorted(BAD_SAGAT_CELLS)))
            cells[column] = data.draw(st.sampled_from(BAD_SAGAT_CELLS[column]))
        row = [cells[c] for c in columns]
        if quirk == "short row":
            row = row[:data.draw(st.integers(1, len(row) - 1))]
        elif quirk == "long row":
            row += ["x"] * data.draw(st.integers(1, 3))
        text = ("" if quirk == "empty line" else ",".join([" "] * len(row))
                if quirk == "blank cells" else ",".join(row))
        lines.append(text + ("\r\n" if quirk == "crlf" else "\n"))
    text = "".join(lines)
    return text.rstrip("\r\n") if "no final newline" in quirks else text


@pytest.fixture(scope="module")
def sagat_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sagat")


class TestSagatColumnsAgreeWithRowLoop:
    """The column reader gives the row loop's responses, or defers to its errors."""

    def check(self, path, fast: bool | None = None):
        return agrees_with_row_loop(lambda: _sagat_outcome(path), fast)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_sagat_text(self, sagat_dir, data):
        path = sagat_dir / "g.csv"
        path.write_bytes(sagat_text(data).encode())
        self.check(path)

    def test_sample_sagat(self):
        assert self.check(SAMPLE / "sagat.csv", fast=True)[0] == "ok"


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
        sheet = parse_feature_sheet(p)
        assert len(sheet.table.features) == 3 and len(sheet.table.values) == 2
        assert sheet.capabilities["alpha"].perception is True

    def test_missing_direction(self, tmp_path):
        doc = self.sheet(features=[{"name": "flight_time"}])
        p = write(tmp_path / "f.json", json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape(
                f"feature 'flight_time' missing 'direction' (at {p})")):
            parse_feature_sheet(p)

    def test_na_parses_as_absent(self, tmp_path):
        doc = self.sheet()
        doc["systems"][0]["values"]["flight_time"] = "N/A"
        p = write(tmp_path / "f.json", json.dumps(doc))
        sheet = parse_feature_sheet(p)
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
                "combined": {
                    "inputs": {v: {"range": [0, 1], "terms": {"low": [0, 0, 1], "high": [0, 1, 1]}}
                               for v in ("mc", "ec")},
                    "outputs": {"bad": 0.0, "good": 1.0},
                    "rules": [
                        {"if": {"mc": "low"}, "then": "bad"},
                        {"if": {"mc": "high"}, "then": "good"},
                    ],
                },
            },
            "cascade": {"combined": ["mc"]},
        }

    def test_accepts_shoulder_tuple(self, tmp_path):
        p = write(tmp_path / "f.json", json.dumps(self.config()))
        config = parse_fis_config(p)
        assert config.fis["mc"].inputs["crashes"].terms["low"].a == 0.0

    def test_malformed_tuple(self, tmp_path):
        doc = self.config()
        doc["fis"]["mc"]["inputs"]["crashes"]["terms"]["low"] = [2, 1, 3]
        p = write(tmp_path / "f.json", json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape(
                f"mc.crashes terms: bad 'low' field (expected 3 ordered points in [0.0, 3.0], "
                f"got [2, 1, 3]) (at {p})")):
            parse_fis_config(p)

    def test_truncated_tuple(self, tmp_path):
        doc = self.config()
        doc["fis"]["mc"]["inputs"]["crashes"]["terms"]["low"] = [0.7, 1]
        p = write(tmp_path / "f.json", json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape(
                f"mc.crashes terms: bad 'low' field (expected 3 numbers, got 2) (at {p})")):
            parse_fis_config(p)

    def test_unknown_term_in_rule(self, tmp_path):
        doc = self.config()
        doc["fis"]["mc"]["rules"][0]["if"]["crashes"] = "not medium"
        p = write(tmp_path / "f.json", json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape(
                f"mc rule 0: unknown term 'not medium' of 'crashes' (at {p})")):
            parse_fis_config(p)

    def test_cyclic_cascade(self, tmp_path):
        doc = self.config()
        doc["fis"]["combined"] = doc["fis"]["mc"]
        doc["cascade"] = {"combined": ["combined"]}
        p = write(tmp_path / "f.json", json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape(
                f"cascade stage 'combined' takes combining stage 'combined' (at {p})")):
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

        config = parse_fis_config(DEFAULT_FIS)
        assert len(config.fis["mc"].rules) == 10
        mc = config.fis["mc"].inputs
        assert mc["crashes"].aliases == {"many": "high"}
        assert {"crashes", "completion", "rollovers"} == set(mc)


FIS_CONFIG = Path(ingest.__file__).parent / "configs" / "takeoff_land.json"
FIS_DOC = json.loads(FIS_CONFIG.read_text())
# one value of each JSON type
JSON_VALUES = {"null": None, "boolean": True, "number": 2, "string": "x", "array": [1],
               "object": {"x": 1}}


def json_type(value) -> str:
    kinds = {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string",
             list: "array", dict: "object"}
    return kinds[type(value)]


def entries(value, path=()):
    """(path, value) of every entry of every object and array in a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from entries(child, path + (key,))


SAMPLE = Path(__file__).resolve().parents[1] / "sample_campaign"


def sample(name):
    return json.loads((SAMPLE / name).read_text())


FEATURES = sample("features.json")
# every JSON input, by the name it takes in a copy of the sample campaign: the document,
# and the command that reads it there
JSON_INPUTS = {
    "campaign.json": (sample("campaign.json"), lambda d: ["report", d / "campaign.json"]),
    "criteria.json": (sample("criteria.json"),
                      lambda d: ["metrics", d / "campaign.json", "--test", "field"]),
    "features.json": (FEATURES, lambda d: ["ncap", "--features", d / "features.json",
                                           "--weights", "degree"]),
    "caps.json": ({s["id"]: s["capabilities"] for s in FEATURES["systems"]},
                  lambda d: ["ncap", "--features", d / "features.json", "--caps", d / "caps.json"]),
    "weights.json": ({f["name"]: f["degree"] for f in FEATURES["features"]},
                     lambda d: ["ncap", "--features", d / "features.json",
                                "--weights", d / "weights.json"]),
    "sa_weights.json": (sample("sa_weights.json"),
                        lambda d: ["sa", "--sagat", d / "sagat.csv", "--weights",
                                   d / "sa_weights.json"]),
    "path.json": ({"vertices": [[0, 1, 1], [3, 1, 1]], "closed": False},
                  lambda d: ["plot", "--kind", "deviation", "--telemetry", d / "wf_alpha_1.csv",
                             "--path", d / "path.json"]),
    "fis.json": (FIS_DOC, lambda d: ["cfis", "--fis", d / "fis.json",
                                     "--scores", d / "cfis_scores.csv"]),
}


def mutations(doc):
    """Each leaf of `doc` set to a value of every other JSON type, and each object key deleted."""
    return [
        (path, kind) for path, value in entries(doc) if not isinstance(value, (dict, list))
        for kind in JSON_VALUES if kind != json_type(value)
    ] + [(path, "delete") for path, _ in entries(doc) if isinstance(path[-1], str)]


def exempt(name, doc, path) -> bool:
    """Whether a number at `path` may take any type: a free-form checklist response, an
    `equals` criterion's value, or the FIS config's schema_version, which no one reads."""
    return ("responses" in path
            or name == "criteria.json" and doc[path[0]]["op"] == "equals"
            or name == "fis.json" and path == ("schema_version",))


@pytest.fixture(scope="module")
def sample_copies(tmp_path_factory):
    """One copy of the sample campaign per JSON input, so that each edits only its own."""
    root = tmp_path_factory.mktemp("json-inputs")
    return {name: shutil.copytree(SAMPLE, root / name.split(".")[0]) for name in JSON_INPUTS}


class TestJsonInputFuzz:
    @pytest.mark.parametrize("name", sorted(JSON_INPUTS))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_one_wrong_leaf_or_missing_key(self, sample_copies, name, data):
        original, argv = JSON_INPUTS[name]
        path, kind = data.draw(st.sampled_from(mutations(original)))
        doc = copy.deepcopy(original)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        retyped_number = kind in ("boolean", "string") and json_type(parent[path[-1]]) == "number"
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(JSON_VALUES[kind])
        target = write(sample_copies[name] / name, json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv(sample_copies[name])])
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        if retyped_number and not exempt(name, original, path):
            assert code == 1 and errors[-1].endswith(f"(at {target})")
        if code:
            assert code in (1, 2) and out.getvalue() == "" and errors


def manifest_block(doc, test_id, block):
    return next(t for t in doc["tests"] if t["test_id"] == test_id)[block]


POSITIVE = ((0, False), (-0.0, False), (5e-324, True))
NON_NEGATIVE = ((-5e-324, False), (0, True), (-0.0, True))
#: each bounded JSON number: (its sample input, the edit of that input's document that sets
#: it, its key, its parser, (value, accepted) at each side of its bound)
BOUNDS = {
    "obstacle height": ("campaign.json", lambda doc, v: manifest_block(doc, "oa-wall", "obstacle")
                        .update(height=v), "height", parse_campaign, POSITIVE),
    "nlos distance": ("campaign.json", lambda doc, v: manifest_block(
        doc, "endurance-indoor", "nlos_positions")[0].update(distance=v), "distance",
        parse_campaign, POSITIVE),
    "fiducial min_traversal": ("campaign.json", lambda doc, v: manifest_block(
        doc, "map-loop", "fiducials")[0].update(min_traversal=v), "min_traversal",
        parse_campaign, POSITIVE),
    "dimension truth": ("campaign.json", lambda doc, v: manifest_block(
        doc, "map-loop", "dimensions").update(reported=[1], truth=[v]), "truth",
        parse_campaign, POSITIVE),
    # a count: 5e-324 is not a whole number
    "fov total": ("campaign.json", lambda doc, v: manifest_block(doc, "map-loop", "fov").update(
        visible=0, total=v), "total", parse_campaign, ((0, False), (5e-324, False), (1, True))),
    "trial duration_min": ("campaign.json", lambda doc, v: doc["trials"][0].update(
        duration_min=v), "duration_min", parse_campaign, NON_NEGATIVE),
    "SEEV saliency": ("sa_weights.json", lambda doc, v: doc["params"]["altitude"].update(
        saliency=v), "saliency", ingest.parse_sa_weights, POSITIVE),
    "SEEV effort": ("sa_weights.json", lambda doc, v: doc["params"]["altitude"].update(
        effort=v), "effort", ingest.parse_sa_weights, POSITIVE),
    "SA weight": ("sa_weights.json", lambda doc, v: [doc.clear(), doc.update(
        weights={"altitude": v})], "altitude", ingest.parse_sa_weights, NON_NEGATIVE),
    "SA top-level weight": ("sa_weights.json", lambda doc, v: [doc.clear(), doc.update(
        altitude=v)], "altitude", ingest.parse_sa_weights, NON_NEGATIVE),
    "FIS output": ("fis.json", lambda doc, v: doc["fis"]["mc"]["outputs"].update(good=v), "good",
                   parse_fis_config, ((0.0, True), (1.0, True), (1.0000000000000002, False),
                                      (-5e-324, False))),
}


class TestBounds:
    """Each bounded number accepts and rejects the values at its bound that its parser did when
    it checked the bound after typing the number."""

    @pytest.mark.parametrize("name, value, accepted", [
        (name, value, accepted) for name, (*_, sides) in BOUNDS.items() for value, accepted in sides])
    def test_value_at_the_bound(self, tmp_path, name, value, accepted):
        input_name, edit, key, parse, _ = BOUNDS[name]
        doc = copy.deepcopy(JSON_INPUTS[input_name][0])
        edit(doc, value)
        directory = shutil.copytree(SAMPLE, tmp_path / "sample")
        target = write(directory / input_name, json.dumps(doc))
        if accepted:
            parse(target)
        else:
            with pytest.raises(ParseError, match=re.escape(f"bad {key!r} field (expected ")
                               + ".*" + re.escape(f", got {json.dumps(value)}) (at {target})")):
                parse(target)


#: every CSV input, by its name in a copy of the sample campaign: the columns that hold ids,
#: and the command that reads it in each output format
CSV_INPUTS = {
    "surveys.csv": ((0, 2, 5), lambda d: ["trust", "--survey", d / "surveys.csv",
                                          "--condition-a", "caged", "--condition-b", "exposed"]),
    "sagat.csv": ((0, 2), lambda d: ["sa", "--sagat", d / "sagat.csv",
                                     "--weights", d / "sa_weights.json"]),
    "cfis_scores.csv": ((0, 1), lambda d: ["cfis", "--scores", d / "cfis_scores.csv"]),
    "fiducials.csv": ((0, 4), lambda d: ["metrics", d / "campaign.json", "--test", "mapping"]),
    "wf_alpha_1.csv": ((0,), lambda d: ["metrics", d / "campaign.json", "--test", "nav"]),
}
CSV_EDITS = ("truncated row", "arbitrary bytes", "non-finite number", "markup in an id")
NON_FINITE = [b"nan", b"inf", b"-inf", b"NaN", b"1e999", b"Infinity"]


def one_csv_edit(data, blob: bytes, id_columns) -> bytes:
    """`blob` with one data row edited as `data` draws."""
    lines = blob.split(b"\n")  # the text after the final newline is empty
    k = data.draw(st.integers(1, len(lines) - 2))
    row, edit = lines[k], data.draw(st.sampled_from(CSV_EDITS))
    if edit == "truncated row":
        lines[k] = row[:data.draw(st.integers(0, len(row) - 1))]
    elif edit == "arbitrary bytes":
        at = data.draw(st.integers(0, len(row)))
        lines[k] = row[:at] + data.draw(st.binary(min_size=1, max_size=4)) + row[at:]
    else:
        cells = row.split(b",")
        if edit == "non-finite number":
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(st.sampled_from(NON_FINITE))
        else:
            cells[data.draw(st.sampled_from(id_columns))] = data.draw(
                st.text(alphabet='<&">a', min_size=1, max_size=6)).encode()
        lines[k] = b",".join(cells)
    return b"\n".join(lines)


def not_json(name):
    raise ValueError(f"{name} is not JSON")


#: the SVG attributes that hold one number
SVG_NUMBERS = ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy", "r", "width", "height")


def svg_numbers(element) -> list[str]:
    """The text of each number in `element`'s coordinate attributes, its polyline points and
    the arguments of its rotation."""
    numbers = [element.get(name) for name in SVG_NUMBERS if name in element.attrib]
    numbers += element.get("points", "").replace(",", " ").split()
    rotation = re.fullmatch(r"rotate\(([^)]*)\)", element.get("transform", ""))
    return numbers + (rotation.group(1).split() if rotation else [])


def well_formed(fmt: str, out: str) -> None:
    """Fail unless `out` parses as `fmt`: CSV tables whose rows have their header's width, a
    JSON array of titled tables with no NaN or Infinity, or an SVG document whose coordinates
    are finite numbers."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        tables = [list(group) for blank, group in itertools.groupby(rows, lambda r: not r)
                  if not blank]
        assert tables and all(len(r) == len(t[0]) for t in tables for r in t)
    elif fmt == "json":
        assert all(set(t) == {"title", "rows"} for t in json.loads(out, parse_constant=not_json))
    elif fmt == "svg":
        numbers = [n for element in ET.fromstring(out.encode()).iter() for n in svg_numbers(element)]
        assert numbers and all(math.isfinite(float(n)) for n in numbers)
    else:
        assert out.startswith("### ")


@pytest.fixture(scope="module")
def csv_copies(tmp_path_factory):
    """One copy of the sample campaign per CSV input, so that each edits only its own."""
    root = tmp_path_factory.mktemp("csv-inputs")
    copies = {name: shutil.copytree(SAMPLE, root / name.split(".")[0]) for name in CSV_INPUTS}
    write(copies["wf_alpha_1.csv"] / "path.json", json.dumps({"vertices": [[0, 1, 1], [3, 1, 1]]}))
    return copies


class TestCsvInputFuzz:
    """One edit of a sample CSV gives well-formed output, or one located error line."""

    @pytest.mark.parametrize("name", sorted(CSV_INPUTS))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_one_edited_row(self, csv_copies, name, data):
        id_columns, argv = CSV_INPUTS[name]
        directory = csv_copies[name]
        target = directory / name
        target.write_bytes(one_csv_edit(data, (SAMPLE / name).read_bytes(), id_columns))
        fmt = data.draw(st.sampled_from(["md", "csv", "json"]
                                        + (["svg"] if name.startswith("wf") else [])))
        if fmt == "svg":
            argv = ["plot", "--kind", "deviation", "--telemetry", target,
                    "--path", directory / "path.json"]
        else:
            argv = argv(directory) + ["--format", fmt]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert not errors
            well_formed(fmt, out.getvalue())
        else:
            assert code in (1, 2) and out.getvalue() == "" and len(errors) == 1


def edit_manifest(directory, edit) -> None:
    path = directory / "campaign.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def named_test(doc, test_id) -> dict:
    return next(t for t in doc["tests"] if t["test_id"] == test_id)


def copy_rows(path, k, id_column) -> None:
    """Each data row of the CSV at `path` `k` times, the copies' ids in `id_column` suffixed."""
    header, *rows = path.read_text().splitlines()
    out = [header]
    for i in range(k):
        for row in rows:
            cells = row.split(",")
            cells[id_column] += f"-{i}" if i else ""
            out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n")


def more_trials(directory, k) -> None:
    def edit(doc):
        doc["trials"] += [{**t, "trial_id": f"{t['trial_id']}-{i}"} for i in range(1, k)
                          for t in doc["trials"] if t["test_id"] == "endurance-indoor"]
    edit_manifest(directory, edit)


def more_vertices(directory, k) -> None:
    def edit(doc):
        path = named_test(doc, "wall-follow-1m")["path"]
        a, b = path["vertices"]
        path["vertices"] = [[u + (v - u) * j / k for u, v in zip(a, b)] for j in range(k + 1)]
    edit_manifest(directory, edit)


def more_nlos_positions(directory, k) -> None:
    """`k` copies of the NLOS positions, each copy 1 m further out."""
    def edit(doc):
        test = named_test(doc, "endurance-indoor")
        test["nlos_positions"] = [{**p, "label": f"{p['label']}-{i}", "distance": p["distance"] + i}
                                  for i in range(k) for p in test["nlos_positions"]]
    edit_manifest(directory, edit)


def more_criteria(directory, k) -> None:
    """`k` copies of each checklist criterion, each answered as the original is."""
    path = directory / "criteria.json"
    criteria = json.loads(path.read_text())
    path.write_text(json.dumps({f"{name}_{i}": c for i in range(k) for name, c in criteria.items()}))

    def edit(doc):
        responses = named_test(doc, "endurance-indoor")["responses"]
        for suas, answers in responses.items():
            responses[suas] = {f"{name}_{i}": a for i in range(k) for name, a in answers.items()}
    edit_manifest(directory, edit)


def more_fiducials(directory, k) -> None:
    """`k` copies of the mapping course side by side, 10 m (400 map px) apart."""
    def edit(doc):
        test = named_test(doc, "map-loop")
        test["fiducials"] = [{**f, "id": f"{f['id']}{i}", "xy": [f["xy"][0] + 10 * i, f["xy"][1]]}
                             for i in range(k) for f in test["fiducials"]]
    edit_manifest(directory, edit)
    path = directory / "fiducials.csv"
    header, *rows = path.read_text().splitlines()
    out = [header]
    for i in range(k):
        for row in rows:
            fid, half, x, y, mapped = row.split(",")
            x = x and f"{float(x) + 400 * i:f}"
            out.append(",".join([f"{fid}{i}", half, x, y, mapped]))
    path.write_text("\n".join(out) + "\n")


#: one count of the sample scaled up, and the command that reads it
SCALED = {
    "endurance trials x100": (lambda d: more_trials(d, 100),
                              lambda d: ["report", d / "campaign.json"]),
    "survey participants x100": (lambda d: copy_rows(d / "surveys.csv", 100, 0),
                                 CSV_INPUTS["surveys.csv"][1]),
    "score rows x100": (lambda d: copy_rows(d / "cfis_scores.csv", 100, 0),
                        CSV_INPUTS["cfis_scores.csv"][1]),
    "path vertices x10": (lambda d: more_vertices(d, 10),
                          lambda d: ["metrics", d / "campaign.json", "--test", "nav"]),
    "fiducials x10": (lambda d: more_fiducials(d, 10),
                      lambda d: ["metrics", d / "campaign.json", "--test", "mapping"]),
    "NLOS positions x100": (lambda d: more_nlos_positions(d, 100),
                            lambda d: ["metrics", d / "campaign.json", "--test", "field"]),
    "criteria x100": (lambda d: more_criteria(d, 100),
                      lambda d: ["metrics", d / "campaign.json", "--test", "field"]),
}


def run_probe(tmp_path, edit, argv):
    """(exit code, stdout, its error lines) of `argv` on an edited copy of the sample."""
    directory = shutil.copytree(SAMPLE, tmp_path / "sample")
    edit(directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv(directory)])
    lines = err.getvalue().splitlines()
    assert all(line.startswith(("warning: ", "error: ")) for line in lines), lines
    return code, out.getvalue(), [line for line in lines if line.startswith("error: ")]


@pytest.mark.parametrize("name", SCALED)
def test_scaled_input_gives_output_or_one_located_error(tmp_path, name):
    scale, argv = SCALED[name]
    code, out, errors = run_probe(tmp_path, scale, lambda d: argv(d) + ["--format", "csv"])
    if code == 0:
        assert not errors
        well_formed("csv", out)
    else:
        assert code in (1, 2) and out == "" and len(errors) == 1
        assert re.search(r"\(at [^)]+\)$", errors[0])


def set_cells(name, column, texts):
    """An edit of the sample copy's CSV `name`: data row k's cell in `column` set to texts[k]."""
    def edit(directory):
        lines = (directory / name).read_text().split("\n")
        for row, text in texts.items():
            cells = lines[row].split(",")
            cells[column] = text
            lines[row] = ",".join(cells)
        (directory / name).write_text("\n".join(lines))
    return edit


def with_path_file(edit):
    def both(directory):
        edit(directory)
        write(directory / "path.json", json.dumps({"vertices": [[0, 1, 1], [3, 1, 1]]}))
    return both


#: a path far on the negative x side, whose distance from a sample at x = +1.7e308 overflows
FAR_PATH = [[-1.7e308, 1, 1], [-1.6e308, 1, 1]]


def far_path(edit):
    """`edit`, then FAR_PATH as the manifest's wall-follow path and in a file path.json."""
    def both(directory):
        edit(directory)
        manifest = directory / "campaign.json"
        doc = json.loads(manifest.read_text())
        next(t for t in doc["tests"] if t["test_id"] == "wall-follow-1m")["path"] = {
            "vertices": FAR_PATH}
        manifest.write_text(json.dumps(doc))
        write(directory / "path.json", json.dumps({"vertices": FAR_PATH}))
    return both


def zero_acceleration(edit):
    """`edit`, then `ax,ay,az` columns of 0 added to oa_alpha_3.csv, so nothing is derived."""
    def both(directory):
        edit(directory)
        path = directory / "oa_alpha_3.csv"
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header + ",ax,ay,az"] + [row + ",0,0,0" for row in rows]))
    return both


HUGE_VX = set_cells("oa_alpha_3.csv", 4, {11: "1.7e308", 12: "-1.7e308", 13: "1.7e308"})


def metrics(test, fmt):
    return lambda d: ["metrics", d / "campaign.json", "--test", test, "--format", fmt]


def plot_deviation(d):
    return ["plot", "--kind", "deviation", "--telemetry", d / "wf_alpha_1.csv",
            "--path", d / "path.json"]


#: a finite value of the sample made huge, the command that reads it, its output format, and
#: where pinned, the exit code and a line of its stdout (exit 0) or its error line
MAGNITUDES = {
    **{f"collision vx 1.7e308, {fmt}": (HUGE_VX, metrics("collision", fmt), fmt, None)
       for fmt in ("md", "json")},
    # the deviation is finite, however large; the bravo row and the alpha mean show it
    **{f"nav x {x}, md": (set_cells("wf_alpha_1.csv", 1, {6: x}), metrics("nav", "md"), "md",
                          (0, "| wall-follow-1m | bravo | 2 | 0.040 0.049 | 0.045 | 0.007 |"))
       for x in ("1e200", "1.7e308")},
    **{f"nav x {x}, json": (set_cells("wf_alpha_1.csv", 1, {6: x}), metrics("nav", "json"),
                            "json", (0, f'        "mean AD (m)": {mean},'))
       for x, mean in (("1e200", "2.73224043715847e+197"),
                       ("1.7e308", "4.6448087431693986e+305"))},
    # every deviation is ~1.6e308, so the flights' deviations sum past the float range
    "nav, path at -1.6e308, md": (
        far_path(lambda d: None), metrics("nav", "md"), "md",
        (0, "| wall-follow-1m | bravo | 2 | {0} {0} | {0} | 0.000 |".format("%.3f" % 1.6e308))),
    "nav, path at -1.6e308, json": (far_path(lambda d: None), metrics("nav", "json"), "json",
                                    (0, '        "mean AD (m)": 1.6e+308,')),
    # the one distance from +1.7e308 to the path overflows
    **{f"nav x 1.7e308, path at -1.7e308, {fmt}": (
        far_path(set_cells("wf_alpha_1.csv", 1, {6: "1.7e308"})), metrics("nav", fmt), fmt,
        (2, "error: Path deviation: mean AD (m) is inf, not a finite number"))
       for fmt in ("md", "json")},
    "deviation plot x 1.7e308, path at -1.7e308": (
        far_path(set_cells("wf_alpha_1.csv", 1, {6: "1.7e308"})), plot_deviation, "svg",
        (2, "error: deviation plot: sample at (0.25, inf) is not a finite point")),
    **{f"deviation plot x {x}": (with_path_file(set_cells("wf_alpha_1.csv", 1, {6: x})),
                                 plot_deviation, "svg", None)
       for x in ("1e200", "1e306")},
    # the largest deviation is the y axis's top, whatever its size
    "deviation plot x 1.7e308": (
        with_path_file(set_cells("wf_alpha_1.csv", 1, {6: "1.7e308"})), plot_deviation, "svg",
        (0, '<line x1="45.00" y1="195.00" x2="45.00" y2="45.00" stroke="black"/>')),
    # each time is finite, but the time span is not
    "deviation plot t +-1.7e308": (
        with_path_file(set_cells("wf_alpha_1.csv", 0, {1: "-1.7e308", 122: "1.7e308"})),
        plot_deviation, "svg", None),
    # the speed overflows to inf, so TTC is 0 s: distance over at least 1e200 m/s, to 2 decimals
    "collision vx 1e200, acceleration given": (
        zero_acceleration(set_cells("oa_alpha_3.csv", 4, {11: "1e200"})),
        metrics("collision", "md"), "md",
        (0, "| oa-wall | alpha | t008 | 0 | 0.320 | 0.00 | 0.000 |  |")),
}


@pytest.mark.parametrize("name", MAGNITUDES)
def test_huge_value_gives_output_or_one_error(tmp_path, name):
    edit, argv, fmt, pinned = MAGNITUDES[name]
    code, out, errors = run_probe(tmp_path, edit, argv)
    if code == 0:
        assert not errors
        well_formed(fmt, out)
    else:
        assert (code, out, len(errors)) == (2, "", 1)
    if pinned is not None:
        assert pinned[0] == code and pinned[1] in (errors or out.splitlines())


def test_every_stderr_line_of_a_run_is_a_diagnostic(tmp_path):
    """numpy's overflow warning prints as a `warning:` line too; in a subprocess, because
    pytest records the warnings of a run in its own process."""
    directory = shutil.copytree(SAMPLE, tmp_path / "sample")
    far_path(set_cells("wf_alpha_1.csv", 1, {6: "1.7e308"}))(directory)
    argv = [str(a) for a in metrics("nav", "md")(directory)]
    done = subprocess.run([sys.executable, "-m", "decisive.cli", *argv], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SAMPLE.parent / "src")})
    lines = done.stderr.splitlines()
    assert (done.returncode, done.stdout) == (2, "")
    assert lines[-1] == "error: Path deviation: mean AD (m) is inf, not a finite number"
    assert all(line.startswith(("warning: ", "error: ")) for line in lines), lines


def test_overflowing_kinematics_names_the_trial(tmp_path):
    code, out, errors = run_probe(tmp_path, HUGE_VX, lambda d: [
        "metrics", d / "campaign.json", "--test", "collision"])
    assert (code, out, errors) == (
        2, "", ["error: trial t008: derived acceleration is not finite: telemetry values too large"])


class TestCriteria:
    def test_parse(self, tmp_path):
        p = write(
            tmp_path / "c.json",
            json.dumps({"hd_video_min": {"op": "min", "value": 120}}),
        )
        criteria = parse_criteria(p)
        assert criteria[0].field == "hd_video_min"
        assert criteria[0].passes(150)


class TestFiducialObservations:
    def test_parse(self, tmp_path):
        p = write(
            tmp_path / "f.csv",
            "fiducial_id,half,x,y,mapped\nA,1,0.0,0.0,complete\nA,2,,,missing\nB,1,1.0,0.5,partial\n",
        )
        obs = parse_fiducial_observations(p)
        assert len(obs) == 3
        assert obs[1].map_xy is None

    def test_short_row_names_line(self, tmp_path):
        p = write(tmp_path / "f.csv",
                  "fiducial_id,half,x,y,mapped\nA,1,0.0,0.0,complete\nB,1,0.5\n")
        with pytest.raises(ParseError, match=re.escape(f"row has 3 fields, needs 5 (at {p}:3)")):
            parse_fiducial_observations(p)

    @pytest.mark.parametrize("x", ["nan", "inf", "-Infinity"])
    def test_non_finite_position_names_line(self, tmp_path, x):
        p = write(tmp_path / "f.csv", f"fiducial_id,half,x,y,mapped\nA,1,{x},0.0,complete\n")
        with pytest.raises(ParseError, match=re.escape(f"{x!r} is not a finite number (at {p}:2)")):
            parse_fiducial_observations(p)

    def test_missing_row_may_stop_before_position(self, tmp_path):
        p = write(tmp_path / "f.csv",
                  "fiducial_id,half,mapped,x,y\nA,2,missing\nB,1,complete\n")
        with pytest.raises(ParseError, match=re.escape(f"cannot parse '' as a number (at {p}:3)")):
            parse_fiducial_observations(p)
        obs = parse_fiducial_observations(write(tmp_path / "g.csv",
                                                 "fiducial_id,half,mapped,x,y\nA,2,missing\n"))
        assert obs[0].map_xy is None

    def test_repeated_half_warns_and_keeps_the_later_row(self, tmp_path):
        p = write(tmp_path / "f.csv", "fiducial_id,half,x,y,mapped\nA,1,0,0,complete\n"
                                      "B,1,1,1,complete\nA,1,2,3,partial\n")
        with pytest.warns(DataQualityWarning) as record:
            obs = parse_fiducial_observations(p)
        assert [str(w.message) for w in record] == [
            f"duplicate observation for A half 1; keeping the later row (at {p}:4)"]
        assert [(o.fiducial_id, o.map_xy) for o in obs] == [("A", (2.0, 3.0)), ("B", (1.0, 1.0))]

    def test_id_outside_the_given_fiducials_warns_at_its_line(self, tmp_path):
        p = write(tmp_path / "f.csv", "fiducial_id,half,x,y,mapped\nA,1,0,0,complete\n"
                                      "b,1,,,missing\n")
        with pytest.warns(DataQualityWarning) as record:
            obs = parse_fiducial_observations(p, {"A", "B"})
        assert [str(w.message) for w in record] == [
            f"fiducial 'b' is not one of the test's fiducials (at {p}:3)"]
        assert len(obs) == 2


class TestRepeatedColumns:
    @pytest.mark.parametrize("parser, header, column", [
        (parse_survey, "participant_id,instrument,score,item_id,score,manip_pass,condition",
         "score"),
        (parse_sagat, "se_id,participant_id,question_id,se_id,sa_level,correct", "se_id"),
        (parse_telemetry, "t,x,y,z,t", "t"),
        (parse_fiducial_observations, "fiducial_id,half,x,y,mapped,x", "x"),
    ])
    def test_a_needed_column_given_twice_fails(self, tmp_path, parser, header, column):
        p = write(tmp_path / "r.csv", header + "\n")
        with pytest.raises(ParseError) as exc:
            parser(p)
        assert str(exc.value) == f"column {column!r} appears more than once (at {p})"


class TestParserTotality:
    """Any byte stream yields a value or a structured error, never a crash."""

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
