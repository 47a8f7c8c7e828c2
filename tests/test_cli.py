import csv
import io
import json
import shutil
import xml.dom.minidom
from pathlib import Path

import pytest

from decisive.cli import DEFAULT_FIS, main
from decisive.ingest import parse_telemetry
from decisive.nav import ReferencePath, deviation_series
from decisive.report import plot_svg

REPO = Path(__file__).resolve().parents[1]
CAMPAIGN = REPO / "sample_campaign"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text)
    return path


def campaign_copy(tmp_path):
    return shutil.copytree(CAMPAIGN, tmp_path / "campaign")


def path_file(tmp_path):
    return write(tmp_path / "path.json", json.dumps({"vertices": [[0, 1, 1], [3, 1, 1]]}))


TRUST = ["--condition-a", "caged", "--condition-b", "exposed"]


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

    def test_score_header_cells_are_stripped(self, capsys, tmp_path):
        scores = write(tmp_path / "scores.csv", "suas_id, test_id, score\ncharlie,takeoff,0.5\n")
        code, out, _err = run(capsys, "cfis", "--scores", scores, "--format", "csv")
        assert code == 0
        assert "charlie,1,0.50" in out

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
        traj, _ = parse_telemetry(CAMPAIGN / "wf_alpha_1.csv")
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


def unknown_column(tmp_path):
    telemetry = write(tmp_path / "tel.csv", "t,x,y,z,note\n0,0,1,1,a\n0.1,1,1,1,b\n")
    return (["plot", "--kind", "deviation", "--telemetry", telemetry,
             "--path", path_file(tmp_path)],
            f"warning: {telemetry}: ignoring unknown column 'note' (at 1)")


def duplicate_survey_row(tmp_path):
    lines = (CAMPAIGN / "surveys.csv").read_text().splitlines()
    survey = write(tmp_path / "s.csv", "\n".join(lines[:3] + lines[2:]) + "\n")  # line 4 repeats 3
    key = tuple(lines[2].split(",")[:3])
    return (["trust", "--survey", survey, *TRUST],
            f"warning: {survey}: duplicate response for {key}; keeping the later row (at 4)")


def item_count_mismatch(tmp_path):
    lines = (CAMPAIGN / "surveys.csv").read_text().splitlines()
    survey = write(tmp_path / "s.csv", "\n".join(lines[:2] + lines[3:]) + "\n")
    participant, instrument = lines[2].split(",")[:2]
    return (["trust", "--survey", survey, *TRUST],
            f"warning: {survey}: {participant}: {instrument} has 11 items, expected 12 "
            f"(at {survey})")


def membership_gap(tmp_path):
    doc = json.loads(DEFAULT_FIS.read_text())
    doc["fis"]["mc"]["inputs"]["crashes"]["terms"]["medium"] = [0.5, 1.5, 1.6]  # 1.6-1.75 uncovered
    config = write(tmp_path / "fis.json", json.dumps(doc))
    return (["cfis", "--fis", config, "--scores", CAMPAIGN / "cfis_scores.csv"],
            f"warning: {config}: variable 'crashes' has membership gaps (at mc)")


def single_flight(tmp_path):
    manifest = campaign_copy(tmp_path) / "campaign.json"
    doc = json.loads(manifest.read_text())
    doc["trials"] = [t for t in doc["trials"] if t["test_id"] != "wall-follow-1m"
                     or t["telemetry"] == "wf_alpha_1.csv"]
    manifest.write_text(json.dumps(doc))
    return (["metrics", manifest, "--test", "nav"], "warning: single flight: std reported as 0")


def removed_participant(tmp_path):
    return (["trust", "--survey", CAMPAIGN / "surveys.csv", *TRUST],
            "warning: removed participant (failed manipulation check): e10")


def iqr_note(tmp_path):
    return (["trust", "--survey", CAMPAIGN / "surveys.csv", *TRUST],
            "warning: CTPA ctpa1 [caged]: IQR rule removed 3/10 values (>10%); "
            "consider collecting more data")


def global_error_skipped(tmp_path):
    campaign = campaign_copy(tmp_path)
    observations = campaign / "fiducials.csv"
    lines = observations.read_text().splitlines()
    observations.write_text("\n".join(lines[:5]) + "\n")  # fiducials A and B only
    return (["metrics", campaign / "campaign.json", "--test", "mapping"],
            "warning: map-loop: global error skipped: need >= 3 matched fiducials, have 2")


class TestWarningLines:
    @pytest.mark.parametrize("case", [
        unknown_column, duplicate_survey_row, item_count_mismatch, membership_gap,
        single_flight, removed_participant, iqr_note, global_error_skipped,
    ], ids=lambda case: case.__name__)
    def test_each_kind_prints_one_exact_line(self, capsys, tmp_path, case):
        argv, line = case(tmp_path)
        code, _out, err = run(capsys, *argv)
        assert code == 0
        assert err.splitlines().count(line) == 1

    def test_warning_before_a_failure_precedes_the_error(self, capsys, tmp_path):
        telemetry = write(tmp_path / "tel.csv", "t,x,y,z,note\n0,0,1,1,a\n0.1,1,1\n")
        code, out, err = run(capsys, "plot", "--kind", "deviation", "--telemetry", telemetry,
                             "--path", path_file(tmp_path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"warning: {telemetry}: ignoring unknown column 'note' (at 1)",
            "error: row has 3 fields, needs 4 (at 3)",
        ]


def sa_params_list(tmp_path):
    weights = write(tmp_path / "w.json", json.dumps({"params": [1, 2]}))
    return ["sa", "--sagat", CAMPAIGN / "sagat.csv", "--weights", weights], weights


def ncap_caps_list(tmp_path):
    caps = write(tmp_path / "caps.json", "[1]")
    return ["ncap", "--features", CAMPAIGN / "features.json", "--caps", caps], caps


def ncap_caps_unknown_flag(tmp_path):
    caps = write(tmp_path / "caps.json", json.dumps({"alpha": {"teleport": True}}))
    return ["ncap", "--features", CAMPAIGN / "features.json", "--caps", caps], caps


def ncap_weight_not_a_number(tmp_path):
    names = [f["name"] for f in json.loads((CAMPAIGN / "features.json").read_text())["features"]]
    weights = write(tmp_path / "w.json", json.dumps({name: [1] for name in names}))
    return ["ncap", "--features", CAMPAIGN / "features.json", "--weights", weights], weights


def plot_path_list(tmp_path):
    path = write(tmp_path / "path.json", "[1, 2]")
    return (["plot", "--kind", "deviation", "--telemetry", CAMPAIGN / "wf_alpha_1.csv",
             "--path", path], path)


def plot_path_without_vertices(tmp_path):
    path = write(tmp_path / "path.json", json.dumps({"x": 1}))
    return (["plot", "--kind", "deviation", "--telemetry", CAMPAIGN / "wf_alpha_1.csv",
             "--path", path], path)


class TestMalformedSideFiles:
    @pytest.mark.parametrize("case", [
        sa_params_list, ncap_caps_list, ncap_caps_unknown_flag, ncap_weight_not_a_number,
        plot_path_list, plot_path_without_vertices,
    ], ids=lambda case: case.__name__)
    def test_input_error_names_the_file(self, capsys, tmp_path, case):
        argv, bad = case(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and f"(at {bad})" in err

    def test_non_numeric_score_names_the_line(self, capsys, tmp_path):
        scores = write(tmp_path / "scores.csv",
                       "suas_id,test_id,score\nalpha,t1,0.5\nalpha,t2,abc\n")
        code, out, err = run(capsys, "cfis", "--scores", scores)
        assert code == 1
        assert out == ""
        assert err == "error: cannot parse 'abc' as a number (at 3)\n"
