import csv
import io
import json
import shutil
import xml.dom.minidom
from pathlib import Path

import pytest

from decisive.cli import main
from decisive.core import apply_marker_offset
from decisive.ingest import parse_telemetry
from decisive.nav import ReferencePath, deviation_series
from decisive.report import plot_svg

REPO = Path(__file__).resolve().parents[1]
CAMPAIGN = REPO / "sample_campaign"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_good_manifest(self, capsys):
        code, _out, err = run(capsys, "validate", CAMPAIGN / "campaign.json")
        assert code == 0
        assert "OK" in err

    def test_dangling_trial_names_id(self, capsys, tmp_path):
        doc = json.loads((CAMPAIGN / "campaign.json").read_text())
        doc["trials"] = [{"trial_id": "ghost", "test_id": "no-such-test",
                          "suas_id": "alpha", "outcome": "success"}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _out, err = run(capsys, "validate", bad)
        assert code == 1
        assert "ghost" in err

    def test_missing_file(self, capsys):
        code, _out, err = run(capsys, "validate", "nope.json")
        assert code == 1

    def test_malformed_json_never_raises(self, capsys, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_bytes(b"\x00{]]")
        code, _out, _err = run(capsys, "validate", bad)
        assert code == 1

    def test_inconsistent_environment_is_input_error(self, capsys, tmp_path):
        doc = json.loads((CAMPAIGN / "campaign.json").read_text())
        doc["environments"][0]["lux"] = 3.0  # claims lighted, measures dim
        doc["trials"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _out, err = run(capsys, "validate", bad)
        assert code == 1
        assert "lux" in err

    def test_bad_usage_exits_one(self, capsys):
        code, _out, _err = run(capsys, "metrics", CAMPAIGN / "campaign.json",
                               "--test", "bogus")
        assert code == 1

    def test_seed_flag_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "--seed", "1", "validate", CAMPAIGN / "campaign.json")
        assert code == 1
        assert out == ""
        assert err.startswith("usage: decisive")


class TestMetrics:
    @pytest.mark.parametrize("category", ["nav", "collision", "field", "mapping"])
    def test_each_category(self, capsys, category):
        code, out, _err = run(capsys, "metrics", CAMPAIGN / "campaign.json",
                              "--test", category)
        assert code == 0
        assert "###" in out

    def test_csv_format(self, capsys):
        code, out, _err = run(capsys, "metrics", CAMPAIGN / "campaign.json",
                              "--test", "field", "--format", "csv")
        assert code == 0
        assert "Runtime" not in out.splitlines()[0]  # csv has no md titles

    def test_data_quality_warnings_use_the_warning_channel(self, capsys, tmp_path):
        campaign = shutil.copytree(CAMPAIGN, tmp_path / "campaign")
        manifest = campaign / "campaign.json"
        doc = json.loads(manifest.read_text())
        keep = {"wf_alpha_1.csv", "wf_bravo_1.csv"}
        doc["trials"] = [t for t in doc["trials"] if t["test_id"] != "wall-follow-1m"
                         or t["telemetry"] in keep]
        manifest.write_text(json.dumps(doc))
        code, out, err = run(capsys, "metrics", manifest, "--test", "nav")
        assert code == 0
        lines = err.splitlines()
        assert lines.count("warning: single flight: std reported as 0") == 2
        assert "DataQualityWarning" not in err
        assert "warnings.warn" not in err
        target = tmp_path / "nav.md"
        code, _, err_out = run(capsys, "metrics", manifest, "--test", "nav", "--out", target)
        assert code == 0
        assert err_out == err
        assert out == target.read_text()
        assert "| wall-follow-1m | alpha | 1 |" in out
        assert "| wall-follow-1m | bravo | 1 |" in out

    def test_short_fiducial_row_names_line(self, capsys, tmp_path):
        campaign = shutil.copytree(CAMPAIGN, tmp_path / "campaign")
        observations = campaign / "fiducials.csv"
        lines = observations.read_text().splitlines()
        lines.insert(2, "B,1,0.5")  # file line 3
        observations.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "metrics", campaign / "campaign.json", "--test", "mapping")
        assert code == 1
        assert out == ""
        assert "row has 3 fields, needs 5 (at 3)" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "nav.md"
        code, out, _err = run(capsys, "metrics", CAMPAIGN / "campaign.json",
                              "--test", "nav", "--out", target)
        assert code == 0
        assert out == ""  # data went to the file, not stdout
        assert target.read_text().startswith("### Path deviation")


class TestNcap:
    def test_uniform_weights_csv(self, capsys):
        code, out, _err = run(capsys, "ncap", "--features", CAMPAIGN / "features.json",
                              "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        by_id = {r["sUAS"]: r for r in rows}
        assert by_id["alpha"]["component potential"] == "2.48"
        assert by_id["alpha"]["relative distance"] == "0.00"
        assert by_id["bravo"]["relative distance"] == "2.01"

    def test_reingesting_csv_reproduces_rendered_values(self, capsys, tmp_path):
        target = tmp_path / "ncap.csv"
        run(capsys, "ncap", "--features", CAMPAIGN / "features.json",
            "--format", "csv", "--out", target)
        first = target.read_text()
        rows = list(csv.DictReader(io.StringIO(first)))
        # the rendered numbers parse back to the same 2-decimal values
        for row in rows:
            assert f"{float(row['component potential']):.2f}" == row["component potential"]

    def test_explicit_weight_file(self, capsys, tmp_path):
        weights = {name: 1.0 for name in (
            "flight_time", "charge_time", "stream_resolution", "fov", "max_range",
            "thermal_resolution", "weight", "max_speed", "sensors", "smart_behaviors")}
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(weights))
        code, out, _err = run(capsys, "ncap", "--features", CAMPAIGN / "features.json",
                              "--weights", wfile, "--format", "csv")
        assert code == 0
        assert "2.48" in out  # all-equal explicit weights match uniform

    def test_missing_capabilities_is_input_error(self, capsys, tmp_path):
        doc = json.loads((CAMPAIGN / "features.json").read_text())
        for system in doc["systems"]:
            system.pop("capabilities", None)
        sheet = tmp_path / "sheet.json"
        sheet.write_text(json.dumps(doc))
        code, _out, err = run(capsys, "ncap", "--features", sheet)
        assert code == 1
        assert "capability" in err


class TestCfis:
    def test_scores_pipeline(self, capsys):
        code, out, _err = run(capsys, "cfis", "--scores", CAMPAIGN / "cfis_scores.csv")
        assert code == 0
        assert "Predictive mission score" in out

    def test_precomputed_scores(self, capsys, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "suas_id,test_id,score\n"
            "charlie,corridors,0.84\ncharlie,apertures,1.0\n"
            "charlie,takeoff,1.0\ncharlie,landing,0.87\n"
        )
        code, out, _err = run(capsys, "cfis", "--scores", scores, "--format", "csv")
        assert code == 0
        assert "charlie,4,0.92" in out

    def test_uncovered_inputs_is_computation_error(self, capsys, tmp_path):
        scores = tmp_path / "scores.csv"
        # mixed difficulty bands: the sparse environment stage fires no rule
        scores.write_text(
            "suas_id,test_id,crashes,rollovers,completion,roll,pitch,"
            "lateral_obstruction,vertical_obstruction\n"
            "alpha,takeoff,0,0,1.0,10,0,1.2,0.6\n"
        )
        code, _out, err = run(capsys, "cfis", "--scores", scores)
        assert code == 2
        assert "no rule" in err


class TestSaTrust:
    def test_sa(self, capsys):
        code, out, _err = run(capsys, "sa", "--sagat", CAMPAIGN / "sagat.csv",
                              "--weights", CAMPAIGN / "sa_weights.json")
        assert code == 0
        assert "SAGAT correct rate" in out
        assert "Operator situation awareness" in out
        assert "OSA by mission" in out
        assert "| overall |" in out

    def test_sa_uniform_weights_without_file(self, capsys):
        code, out, _err = run(capsys, "sa", "--sagat", CAMPAIGN / "sagat.csv")
        assert code == 0
        assert "OSA by mission" not in out

    def test_trust_carries_both_test_columns(self, capsys):
        code, out, _err = run(capsys, "trust", "--survey", CAMPAIGN / "surveys.csv",
                              "--condition-a", "caged", "--condition-b", "exposed")
        assert code == 0
        header = next(line for line in out.splitlines() if line.startswith("| instrument"))
        assert "| t |" in header and "| U |" in header

    def test_trust(self, capsys):
        code, out, err = run(capsys, "trust", "--survey", CAMPAIGN / "surveys.csv",
                             "--condition-a", "caged", "--condition-b", "exposed")
        assert code == 0
        assert "Trust comparison" in out
        assert "manipulation check" in err  # e10 fails the check

    def test_short_survey_row_names_line(self, capsys, tmp_path):
        lines = (CAMPAIGN / "surveys.csv").read_text().splitlines()
        lines.insert(3, "c01,HCTM,hctm03,5")  # file line 4
        survey = tmp_path / "surveys.csv"
        survey.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "trust", "--survey", survey,
                             "--condition-a", "caged", "--condition-b", "exposed")
        assert code == 1
        assert out == ""
        assert "row has 4 fields, needs 6 (at 4)" in err

    def test_short_sagat_row_names_line(self, capsys, tmp_path):
        lines = (CAMPAIGN / "sagat.csv").read_text().splitlines()
        lines.insert(2, "p1,q001,landolt_red,1")  # file line 3
        sagat = tmp_path / "sagat.csv"
        sagat.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "sa", "--sagat", sagat)
        assert code == 1
        assert out == ""
        assert "row has 4 fields, needs 5 (at 3)" in err

    def test_trust_missing_condition(self, capsys):
        code, _out, _err = run(capsys, "trust", "--survey", CAMPAIGN / "surveys.csv",
                               "--condition-a", "caged", "--condition-b", "underwater")
        assert code == 2


class TestPlot:
    def test_ncap_scatter(self, capsys, tmp_path):
        target = tmp_path / "scatter.svg"
        code, _out, _err = run(capsys, "plot", "--kind", "ncap-scatter",
                               "--features", CAMPAIGN / "features.json", "--out", target)
        assert code == 0
        xml.dom.minidom.parse(str(target))

    def test_ncap_scatter_escapes_system_ids(self, capsys, tmp_path):
        doc = json.loads((CAMPAIGN / "features.json").read_text())
        doc["systems"][0]["id"] = "A&B <x>"
        features = tmp_path / "features.json"
        features.write_text(json.dumps(doc))
        target = tmp_path / "scatter.svg"
        code, _out, _err = run(capsys, "plot", "--kind", "ncap-scatter",
                               "--features", features, "--out", target)
        assert code == 0
        texts = xml.dom.minidom.parse(str(target)).getElementsByTagName("text")
        assert "A&B <x>" in [t.firstChild.data for t in texts]

    def test_deviation(self, capsys, tmp_path):
        path_file = tmp_path / "path.json"
        path_file.write_text(json.dumps({"vertices": [[0, 1, 1], [3, 1, 1]]}))
        target = tmp_path / "dev.svg"
        code, _out, _err = run(capsys, "plot", "--kind", "deviation",
                               "--telemetry", CAMPAIGN / "wf_alpha_1.csv",
                               "--path", path_file, "--out", target)
        assert code == 0
        xml.dom.minidom.parse(str(target))

    def test_deviation_points_are_the_kernel_series(self, capsys, tmp_path):
        path_file = tmp_path / "path.json"
        path_file.write_text(json.dumps({"vertices": [[0, 1, 1], [3, 1, 1], [3, 3, 1]],
                                         "closed": True}))
        target = tmp_path / "dev.svg"
        code, _out, _err = run(capsys, "plot", "--kind", "deviation",
                               "--telemetry", CAMPAIGN / "wf_alpha_1.csv",
                               "--path", path_file, "--out", target)
        assert code == 0
        traj = apply_marker_offset(parse_telemetry(CAMPAIGN / "wf_alpha_1.csv")[0])
        path = ReferencePath(((0, 1, 1), (3, 1, 1), (3, 3, 1)), closed=True)
        series = deviation_series(traj.pos, path)
        expected = plot_svg("deviation", list(zip(traj.t.tolist(), series.tolist())))

        def points(svg):
            return xml.dom.minidom.parseString(svg).getElementsByTagName(
                "polyline")[0].getAttribute("points").split()

        got = points(target.read_bytes())
        assert len(got) == len(traj)
        assert got == points(expected)

    @pytest.mark.parametrize("bad_row, message", [
        ("0.2,2,1", "row has 3 fields, needs 4"),
        ("0.2,nan,1,1", "'nan' is not a finite number"),
    ])
    def test_bad_telemetry_row_names_line(self, capsys, tmp_path, bad_row, message):
        telemetry = tmp_path / "tel.csv"
        telemetry.write_text(f"t,x,y,z\n0,0,1,1\n0.1,1,1,1\n{bad_row}\n0.3,3,1,1\n")
        path_file = tmp_path / "path.json"
        path_file.write_text(json.dumps({"vertices": [[0, 1, 1], [3, 1, 1]]}))
        code, out, err = run(capsys, "plot", "--kind", "deviation",
                             "--telemetry", telemetry, "--path", path_file)
        assert code == 1
        assert out == ""
        assert f"{message} (at 4)" in err

    def test_byte_identical_over_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for target in (a, b):
            run(capsys, "plot", "--kind", "ncap-scatter",
                "--features", CAMPAIGN / "features.json", "--out", target)
        assert a.read_bytes() == b.read_bytes()


class TestReport:
    def test_full_report(self, capsys):
        code, out, _err = run(capsys, "report", CAMPAIGN / "campaign.json")
        assert code == 0
        for title in ("Path deviation", "Obstacle avoidance", "Runtime endurance",
                      "Fiducial difficulty"):
            assert title in out

    def test_writes_nothing_outside_out_target(self, capsys, tmp_path):
        before = sorted(p.name for p in CAMPAIGN.iterdir())
        target = tmp_path / "report.md"
        run(capsys, "report", CAMPAIGN / "campaign.json", "--out", target)
        assert sorted(p.name for p in CAMPAIGN.iterdir()) == before
        assert target.exists()
