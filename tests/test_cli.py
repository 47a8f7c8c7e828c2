import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from decisive.cli import DEFAULT_FIS, main
from decisive.ingest import parse_telemetry
from decisive.nav import ReferencePath, deviation_series
from decisive.report import deviation_svg

REPO = Path(__file__).resolve().parents[1]
CAMPAIGN = REPO / "sample_campaign"
SRC = REPO / "src"


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


def with_bom(tmp_path, source):
    """A copy of `source` that starts with a UTF-8 byte-order mark."""
    target = tmp_path / source.name
    target.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    return target


class TestValidate:
    def test_good_manifest(self, capsys):
        manifest = CAMPAIGN / "campaign.json"
        assert run(capsys, "validate", manifest) == (
            0, "", f"{manifest}: OK (2 suas, 5 tests, 1 environments, 17 trials)\n")

    def test_empty_manifest_warns_and_counts_nothing(self, capsys, tmp_path):
        manifest = write(tmp_path / "c.json", json.dumps({"schema_version": 1}))
        assert run(capsys, "validate", manifest) == (0, "", (
            f"warning: no trials (at {manifest})\n"
            f"{manifest}: OK (0 suas, 0 tests, 0 environments, 0 trials)\n"))

    def test_dangling_trial_names_id(self, capsys, tmp_path):
        doc = json.loads((CAMPAIGN / "campaign.json").read_text())
        doc["trials"] = [{"trial_id": "ghost", "test_id": "no-such-test",
                          "suas_id": "alpha", "outcome": "success"}]
        bad = campaign_copy(tmp_path) / "bad.json"  # beside the files the tests reference
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

    @pytest.mark.parametrize("block, change, message", [
        ("trials", {"outcome": "maybe"}, "trial t001: bad 'outcome' field (expected one of "
         "\"success\", \"failure\", got \"maybe\")"),
        ("environments", {"lighting": "dim"}, "environment lab: bad 'lighting' field (expected "
         "one of \"lighted\", \"dark\", got \"dim\")"),
        ("environments", {"lux": 5}, "environment lab: lighted requires measured lux >= 100"),
        ("environments", {"lighting": "dark", "lux": 1}, "environment lab: dark requires "
         "measured lux < 1"),
        ("trials", {"duration_min": -1}, "trial t001: bad 'duration_min' field (expected a number >= 0, got -1)"),
    ], ids=["outcome", "lighting", "lux", "dark-lux", "duration"])
    def test_bad_entry_value_names_the_entry(self, capsys, tmp_path, block, change, message):
        manifest = campaign_copy(tmp_path) / "campaign.json"
        doc = json.loads(manifest.read_text())
        doc[block][0].update(change)
        manifest.write_text(json.dumps(doc))
        assert run(capsys, "validate", manifest) == (1, "", f"error: {message} (at {manifest})\n")

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
        assert f"row has 3 fields, needs 5 (at {observations}:3)" in err

    def test_non_finite_fiducial_names_file_and_line(self, capsys, tmp_path):
        campaign = shutil.copytree(CAMPAIGN, tmp_path / "campaign")
        observations = campaign / "fiducials.csv"
        header, first, *rest = observations.read_text().splitlines()
        fiducial_id, half, _x, *others = first.split(",")
        first = ",".join([fiducial_id, half, "nan", *others])
        observations.write_text("\n".join([header, first, *rest]) + "\n")
        code, out, err = run(capsys, "metrics", campaign / "campaign.json", "--test", "mapping")
        assert (code, out) == (1, "")
        assert err == f"error: 'nan' is not a finite number (at {observations}:2)\n"

    def test_twelve_hundred_more_field_trials_complete(self, capsys, tmp_path):
        manifest = campaign_copy(tmp_path) / "campaign.json"
        doc = json.loads(manifest.read_text())
        doc["trials"] += [{"trial_id": f"x{i}", "test_id": "endurance-indoor", "suas_id": "alpha",
                           "outcome": "failure" if i % 2 else "success"} for i in range(1200)]
        manifest.write_text(json.dumps(doc))
        for argv in (["metrics", manifest, "--test", "field"], ["report", manifest]):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert "| endurance-indoor | alpha | 601 | 600 | 50 | 0.000 | 0.000 |" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "nav.md"
        code, out, _err = run(capsys, "metrics", CAMPAIGN / "campaign.json",
                              "--test", "nav", "--out", target)
        assert code == 0
        assert out == ""  # data went to the file, not stdout
        assert target.read_text().startswith("### Path deviation")


ZULU_CAPS = {"zulu": {"perception": True, "modeling": True, "planning": False,
                     "execution": False}}


def caps_of_unknown_system(tmp_path, *argv):
    """`argv` with a `--caps` file that flags a system the sample feature sheet lacks."""
    caps = write(tmp_path / "caps.json", json.dumps(ZULU_CAPS))
    return ([*argv, "--features", CAMPAIGN / "features.json", "--caps", caps],
            f"warning: system 'zulu' is not one of the feature sheet's systems (at {caps})")


def ncap_caps_unknown_system(tmp_path):
    return caps_of_unknown_system(tmp_path, "ncap")


def scatter_caps_unknown_system(tmp_path):
    return caps_of_unknown_system(tmp_path, "plot", "--kind", "ncap-scatter")


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

    @pytest.mark.parametrize("case", [ncap_caps_unknown_system, scatter_caps_unknown_system])
    def test_caps_of_an_unknown_system_change_no_output(self, capsys, tmp_path, case):
        argv, line = case(tmp_path)
        assert run(capsys, *argv) == (0, run(capsys, *argv[:-2])[1], line + "\n")


class TestCfis:
    def test_scores_pipeline(self, capsys):
        code, out, _err = run(capsys, "cfis", "--scores", CAMPAIGN / "cfis_scores.csv")
        assert code == 0
        assert "Predictive mission score" in out

    def test_subnormal_ideal_score_prints_no_warning(self, capsys, tmp_path):
        # the ideal run scores about 2.2e-313, and a score divided by it would overflow
        config = edited(tmp_path, DEFAULT_FIS, lambda doc: doc["fis"]["combined"]["outputs"].update(
            very_good=2.2e-313, medium=2.2e-313), "fis.json")
        code, out, err = run(capsys, "cfis", "--fis", config, "--scores",
                             CAMPAIGN / "cfis_scores.csv")
        assert (code, err) == (0, "")
        assert "| alpha | takeoff-hard | 1.000 | 0.544 | 0.685 | 1.00 |" in out

    def test_range_near_the_float_limit_prints_no_warning(self, capsys, tmp_path):
        # the decisive points of [0, 1.7e308] are finite: a gap's point is a / 2 + b / 2
        config = edited(tmp_path, DEFAULT_FIS, lambda doc: doc["fis"]["mc"]["inputs"].update(
            crashes={"range": [0, 1.7e308], "aliases": {"many": "high"}, "terms": {
                "low": [0, 0, 1.5e308], "medium": [1e308, 1.6e308, 1.7e308],
                "high": [1.6e308, 1.7e308, 1.7e308]}}), "fis.json")
        code, _out, err = run(capsys, "cfis", "--fis", config, "--scores",
                              CAMPAIGN / "cfis_scores.csv")
        assert (code, err) == (0, "")

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

    def test_markdown_rows_keep_their_cells(self, capsys, tmp_path):
        scores = write(tmp_path / "scores.csv",
                       'suas_id,test_id,score\na|b,t1,0.5\n"c\nd",t2,0.7\n')
        code, out, _err = run(capsys, "cfis", "--scores", scores)
        assert code == 0
        table = out.splitlines()[2:]
        assert table[2:] == ["| a\\|b | 1 | 0.50 |", "| c<br>d | 1 | 0.70 |"]
        # every row has the header's cells, split at each "|" no backslash escapes
        assert {len(re.split(r"(?<!\\)\|", line)) for line in table} == {3 + 2}

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
        assert err == (
            'error: alpha/takeoff: ec: no rule fired for {"roll": 10.0, "pitch": 0.0, '
            f'"lateral_obstruction": 1.2, "vertical_obstruction": 0.6}} (at {scores}:2)\n')

    def test_no_rule_error_is_the_same_under_any_hash_seed(self, tmp_path):
        scores = write(tmp_path / "scores.csv",
                       "suas_id,test_id,roll,pitch,lateral_obstruction,vertical_obstruction\n"
                       "alpha,landing,5,5,2.4,1.2\nalpha,takeoff,10,0,1.2,0.6\n")
        runs = [subprocess.run([sys.executable, "-m", "decisive.cli", "cfis", "--scores", scores],
                               capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC),
                                                         "PYTHONHASHSEED": seed})
                for seed in ("1", "2")]
        assert [r.returncode for r in runs] == [2, 2]
        assert runs[0].stderr == runs[1].stderr
        assert runs[0].stderr.decode().startswith("error: alpha/takeoff: ec: no rule fired for ")

    def test_row_without_axis_inputs_names_the_line(self, capsys, tmp_path):
        scores = write(tmp_path / "scores.csv", "suas_id,test_id,crashes,roll\n"
                                                "alpha,t1,0,5\nbravo,t2,1,\n")
        code, out, err = run(capsys, "cfis", "--scores", scores)
        assert (code, out) == (1, "")
        assert err == f"error: alpha/t1: row matches no axis inputs (at {scores}:2)\n"

    def test_non_finite_score_cell_names_the_line(self, capsys, tmp_path):
        scores = write(tmp_path / "scores.csv", "suas_id,test_id,crashes,rollovers,completion\n"
                                                "alpha,t1,0,0,1\nalpha,t2,nan,0,1\n")
        code, out, err = run(capsys, "cfis", "--scores", scores)
        assert (code, out) == (1, "")
        assert err == f"error: 'nan' is not a finite number (at {scores}:3)\n"

    def test_repeated_precomputed_score_warns_and_the_later_row_counts(self, capsys, tmp_path):
        scores = write(tmp_path / "scores.csv", "suas_id,test_id,score\n"
                                                "alpha,t1,0.5\nalpha,t1,0.8\n")
        code, out, err = run(capsys, "cfis", "--scores", scores, "--format", "csv")
        assert code == 0
        assert err == ("warning: duplicate score for alpha/t1; keeping the later row "
                       f"(at {scores}:3)\n")
        assert out.splitlines()[-1] == "alpha,1,0.80"

    def test_repeated_fis_input_row_warns_and_the_later_row_counts(self, capsys, tmp_path):
        header, easy, hard = (CAMPAIGN / "cfis_scores.csv").read_text().splitlines()[:3]
        again = hard.replace("takeoff-hard", "takeoff-easy")
        scores = write(tmp_path / "scores.csv", f"{header}\n{easy}\n{again}\n")
        code, out, err = run(capsys, "cfis", "--scores", scores, "--format", "csv")
        assert code == 0
        assert err == ("warning: duplicate score for alpha/takeoff-easy; keeping the later row "
                       f"(at {scores}:3)\n")
        lines = out.splitlines()
        # the detail table lists both rows; the predictive score takes the later one
        assert lines[1:3] == ["alpha,takeoff-easy,0.000,1.000,0.500,1.00",
                              "alpha,takeoff-easy,1.000,0.544,0.772,0.77"]
        assert lines[-1] == "alpha,1,0.77"

    def test_scores_with_a_byte_order_mark(self, capsys, tmp_path):
        plain = CAMPAIGN / "cfis_scores.csv"
        marked = with_bom(tmp_path, plain)
        expected = run(capsys, "cfis", "--scores", plain)
        assert expected[0] == 0
        assert run(capsys, "cfis", "--scores", marked) == expected

    def test_carriage_return_in_a_cell_round_trips_through_csv(self, capsys, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_bytes(b'suas_id,test_id,score\n"a\rb",t1,0.5\n')
        code, out, err = run(capsys, "cfis", "--scores", scores, "--format", "csv")
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert rows == [["sUAS", "tests", "predictive score"], ["a\rb", "1", "0.50"]]

    def test_zero_predictive_score_names_suas_and_test(self, capsys, tmp_path):
        scores = write(tmp_path / "scores.csv", "suas_id,test_id,crashes,rollovers,completion\n"
                                                "alpha,t1,0,0,1\nalpha,t2,3,3,0\n")
        code, out, err = run(capsys, "cfis", "--scores", scores)
        assert (code, out) == (2, "")
        assert err == "error: alpha/t2=0.0 outside (0, 1]\n"


class TestSaTrust:
    def test_sa(self, capsys):
        code, out, _err = run(capsys, "sa", "--sagat", CAMPAIGN / "sagat.csv",
                              "--weights", CAMPAIGN / "sa_weights.json")
        assert code == 0
        assert "SAGAT correct rate" in out
        assert "Operator situation awareness" in out
        assert "OSA by mission" in out
        assert "| overall |" in out

    def test_sa_bare_weights_with_missions(self, capsys, tmp_path):
        weights = write(tmp_path / "w.json", json.dumps(
            {"landolt_red": 1, "altitude": 2, "missions": {"m": ["altitude"]}}))
        code, out, err = run(capsys, "sa", "--sagat", CAMPAIGN / "sagat.csv", "--weights", weights)
        assert code == 0, err
        assert "OSA by mission" in out
        assert "| m |" in out and "| overall |" in out

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

    def test_trust_survey_with_a_byte_order_mark(self, capsys, tmp_path):
        plain = CAMPAIGN / "surveys.csv"
        marked = with_bom(tmp_path, plain)
        code, out, err = run(capsys, "trust", "--survey", plain, *TRUST)
        assert code == 0
        assert run(capsys, "trust", "--survey", marked, *TRUST) == (
            code, out, err.replace(str(plain), str(marked)))

    def test_short_survey_row_names_line(self, capsys, tmp_path):
        lines = (CAMPAIGN / "surveys.csv").read_text().splitlines()
        lines.insert(3, "c01,HCTM,hctm03,5")  # file line 4
        survey = tmp_path / "surveys.csv"
        survey.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "trust", "--survey", survey,
                             "--condition-a", "caged", "--condition-b", "exposed")
        assert code == 1
        assert out == ""
        assert f"row has 4 fields, needs 6 (at {survey}:4)" in err

    def test_short_sagat_row_names_line(self, capsys, tmp_path):
        lines = (CAMPAIGN / "sagat.csv").read_text().splitlines()
        lines.insert(2, "p1,q001,landolt_red,1")  # file line 3
        sagat = tmp_path / "sagat.csv"
        sagat.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "sa", "--sagat", sagat)
        assert code == 1
        assert out == ""
        assert f"row has 4 fields, needs 5 (at {sagat}:3)" in err

    @pytest.mark.parametrize("fmt", ["md", "json"])
    def test_trust_constant_sides_leave_t_empty(self, capsys, tmp_path, fmt):
        # six 5s vs six 3s: no standard error, so no t, while the rank test separates them
        rows = [f"a{k},CTPA,i1,5,true,A" for k in range(6)] + [f"b{k},CTPA,i1,3,true,B"
                                                              for k in range(6)]
        survey = write(tmp_path / "s.csv", "participant_id,instrument,item_id,score,"
                                          "manip_pass,condition\n" + "\n".join(rows) + "\n")
        code, out, _err = run(capsys, "trust", "--survey", survey, "--condition-a", "A",
                              "--condition-b", "B", "--format", fmt)
        assert code == 0
        if fmt == "md":
            assert "| CTPA | i1 | 5.00 | 3.00 |  |  | 0.0 | 0.0022 |" in out.splitlines()
        else:
            (row,) = json.loads(out)[0]["rows"]
            assert (row["t"], row["t p"], row["U"], row["p"]) == (None, None, 0.0, 0.0022)

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
        expected = deviation_svg(list(zip(traj.t.tolist(), series.tolist())))

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
        assert f"{message} (at {telemetry}:4)" in err

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

    def test_json_report_matches_golden(self, capsys):
        code, out, _err = run(capsys, "report", CAMPAIGN / "campaign.json", "--format", "json")
        assert code == 0
        assert out == (REPO / "tests" / "golden" / "report.json").read_text(encoding="utf-8")

    def test_writes_nothing_outside_out_target(self, capsys, tmp_path):
        before = sorted(p.name for p in CAMPAIGN.iterdir())
        target = tmp_path / "report.md"
        run(capsys, "report", CAMPAIGN / "campaign.json", "--out", target)
        assert sorted(p.name for p in CAMPAIGN.iterdir()) == before
        assert target.exists()

    def test_null_trial_id_reads_as_unknown(self, capsys, tmp_path):
        manifest = with_entry(campaign_copy(tmp_path), "t006", "trial_id", None)
        code, out, err = run(capsys, "report", manifest)
        assert (code, err) == (0, "")
        assert "| oa-wall | alpha | ? | 1 | 0.000 | 0.00 | 0.388 | 0.950 |" in out


def unknown_column(tmp_path):
    telemetry = write(tmp_path / "tel.csv", "t,x,y,z,note\n0,0,1,1,a\n0.1,1,1,1,b\n")
    return (["plot", "--kind", "deviation", "--telemetry", telemetry,
             "--path", path_file(tmp_path)],
            f"warning: ignoring unknown column 'note' (at {telemetry}:1)")


def duplicate_survey_row(tmp_path):
    lines = (CAMPAIGN / "surveys.csv").read_text().splitlines()
    survey = write(tmp_path / "s.csv", "\n".join(lines[:3] + lines[2:]) + "\n")  # line 4 repeats 3
    key = tuple(lines[2].split(",")[:3])
    return (["trust", "--survey", survey, *TRUST],
            f"warning: duplicate response for {key}; keeping the later row (at {survey}:4)")


def duplicate_survey_row_after_two_line_header(tmp_path):
    header, *lines = (CAMPAIGN / "surveys.csv").read_text().splitlines()
    header = header.replace(",condition", ',"condition\n"')  # the header ends on line 2
    survey = write(tmp_path / "s.csv", "\n".join([header] + lines[:2] + lines[1:]) + "\n")
    key = tuple(lines[1].split(",")[:3])
    return (["trust", "--survey", survey, *TRUST],
            f"warning: duplicate response for {key}; keeping the later row (at {survey}:5)")


def duplicate_score_pair_after_two_line_cell(tmp_path):
    header, *lines = (CAMPAIGN / "cfis_scores.csv").read_text().splitlines()
    cells = lines[0].split(",")
    cells[2] = f'"{cells[2]}\n"'  # a crashes cell on lines 2 and 3
    scores = write(tmp_path / "s.csv", "\n".join([header, ",".join(cells), lines[3], lines[0]])
                   + "\n")
    return (["cfis", "--scores", scores],
            f"warning: duplicate score for {cells[0]}/{cells[1]}; keeping the later row "
            f"(at {scores}:5)")


def item_count_mismatch(tmp_path):
    lines = (CAMPAIGN / "surveys.csv").read_text().splitlines()
    survey = write(tmp_path / "s.csv", "\n".join(lines[:2] + lines[3:]) + "\n")
    participant, instrument = lines[2].split(",")[:2]
    return (["trust", "--survey", survey, *TRUST],
            f"warning: {participant}: {instrument} has 11 items, expected 12 (at {survey})")


def membership_gap(tmp_path):
    doc = json.loads(DEFAULT_FIS.read_text())
    doc["fis"]["mc"]["inputs"]["crashes"]["terms"]["medium"] = [0.5, 1.5, 1.6]  # 1.6-1.75 uncovered
    config = write(tmp_path / "fis.json", json.dumps(doc))
    return (["cfis", "--fis", config, "--scores", CAMPAIGN / "cfis_scores.csv"],
            f"warning: mc: variable 'crashes' has membership gaps (at {config})")


def feet_touching_at_one(tmp_path):
    """Crashes terms low and high whose feet touch at 1 on the range [0, 3], which no point of
    a uniform 1,001-point sweep hits; the scores have no row at 1 crash."""
    config = edited(tmp_path, DEFAULT_FIS, lambda doc: doc["fis"]["mc"]["inputs"]["crashes"].update(
        terms={"low": [0, 0, 1], "high": [1, 3, 3]}), "fis.json")
    header, *rows = (CAMPAIGN / "cfis_scores.csv").read_text().splitlines()
    scores = write(tmp_path / "s.csv", "\n".join([header, *rows[:2]]) + "\n")
    return (["cfis", "--fis", config, "--scores", scores],
            f"warning: mc: variable 'crashes' has membership gaps (at {config})")


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


def coincident_fiducials(tmp_path):
    campaign = campaign_copy(tmp_path)
    observations = campaign / "fiducials.csv"
    header, *rows = observations.read_text().splitlines()
    # every located fiducial half at map position (5, 5)
    rows = [row if row.endswith(",missing") else ",".join([*row.split(",")[:2], "5", "5",
                                                            row.split(",")[4]]) for row in rows]
    observations.write_text("\n".join([header, *rows]) + "\n")
    return (["metrics", campaign / "campaign.json", "--test", "mapping"],
            "warning: map-loop: global error skipped: all matched fiducials coincide on the map")


def edited_observation(tmp_path, row, text):
    """`metrics --test mapping` on a sample copy whose observation `row` (a CSV line) reads
    `text`, and that observation file."""
    campaign = campaign_copy(tmp_path)
    observations = campaign / "fiducials.csv"
    lines = observations.read_text().splitlines()
    observations.write_text("\n".join(text if line == row else line for line in lines) + "\n")
    return ["metrics", campaign / "campaign.json", "--test", "mapping"], observations


def repeated_fiducial_half(tmp_path):
    argv, observations = edited_observation(tmp_path, "A,2,0.000000,0.000000,complete",
                                            "A,1,0.000000,0.000000,complete")
    return argv, (f"warning: duplicate observation for A half 1; keeping the later row "
                  f"(at {observations}:3)")


def unknown_fiducial(tmp_path):
    argv, observations = edited_observation(tmp_path, "B,1,160.000000,0.000000,complete",
                                            "b,1,160.000000,0.000000,complete")
    return argv, f"warning: fiducial 'b' is not one of the test's fiducials (at {observations}:4)"


def edited_sa_weights(tmp_path, edit):
    """`sa` with the sample SAGAT answers and a copy of the sample weights that `edit` changes."""
    doc = json.loads((CAMPAIGN / "sa_weights.json").read_text())
    edit(doc)
    weights = write(tmp_path / "w.json", json.dumps(doc))
    return ["sa", "--sagat", CAMPAIGN / "sagat.csv", "--weights", weights], weights


def unknown_mission_element(tmp_path):
    argv, weights = edited_sa_weights(
        tmp_path, lambda doc: doc["missions"].update(bogus=["nonexistent"]))
    return argv, f"warning: mission 'bogus': element 'nonexistent' has no weight (at {weights})"


def misspelled_mission_element(tmp_path):
    argv, weights = edited_sa_weights(
        tmp_path, lambda doc: doc["missions"]["aviate"].append("altitud"))
    return argv, f"warning: mission 'aviate': element 'altitud' has no weight (at {weights})"


def misspelled_weight_key(doc):
    doc["params"]["altitud"] = doc["params"].pop("altitude")


def weight_without_answer(tmp_path):
    argv, _ = edited_sa_weights(tmp_path, misspelled_weight_key)
    return argv, "warning: SA element 'altitud' has a weight but no SAGAT answer"


def answer_without_weight(tmp_path):
    argv, _ = edited_sa_weights(tmp_path, misspelled_weight_key)
    return argv, "warning: SAGAT element 'altitude' has no weight; it is left out of OSA"


# inputs that give a warning, and exit 0: each case gives the argv and the warning line
WARNING_LINES = (unknown_column, duplicate_survey_row, duplicate_survey_row_after_two_line_header,
                 duplicate_score_pair_after_two_line_cell, item_count_mismatch, membership_gap,
                 feet_touching_at_one, single_flight, removed_participant, iqr_note,
                 global_error_skipped, coincident_fiducials, repeated_fiducial_half,
                 unknown_fiducial, unknown_mission_element, misspelled_mission_element,
                 weight_without_answer, answer_without_weight, ncap_caps_unknown_system,
                 scatter_caps_unknown_system)


class TestWarningLines:
    @pytest.mark.parametrize("case", WARNING_LINES, ids=lambda case: case.__name__)
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
            f"warning: ignoring unknown column 'note' (at {telemetry}:1)",
            f"error: row has 3 fields, needs 4 (at {telemetry}:3)",
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


def ncap_weight_nan(tmp_path):
    names = [f["name"] for f in json.loads((CAMPAIGN / "features.json").read_text())["features"]]
    weights = write(tmp_path / "w.json", "{" + ", ".join(f'"{n}": NaN' for n in names) + "}")
    return ["ncap", "--features", CAMPAIGN / "features.json", "--weights", weights], weights


def fis_config_infinity(tmp_path):
    text = DEFAULT_FIS.read_text().replace('"range": [0, 3]', '"range": [0, Infinity]', 1)
    config = write(tmp_path / "fis.json", text)
    return ["cfis", "--fis", config, "--scores", CAMPAIGN / "cfis_scores.csv"], config


def fis_rule_repeats_then(tmp_path):
    text = DEFAULT_FIS.read_text().replace('"then": "very_good"',
                                           '"then": "very_good", "then": "very_bad"', 1)
    config = write(tmp_path / "fis.json", text)
    return ["cfis", "--fis", config, "--scores", CAMPAIGN / "cfis_scores.csv"], config


def manifest_literal(trial_id, key, literal):
    """A case: `validate` on a sample copy whose trial `trial_id` has `key` written as `literal`."""
    def case(tmp_path):
        manifest = campaign_copy(tmp_path) / "campaign.json"
        doc = json.loads(manifest.read_text())
        trial(doc, trial_id)[key] = "__literal__"
        manifest.write_text(json.dumps(doc).replace('"__literal__"', literal))
        return ["validate", manifest], manifest
    return case


def edited(tmp_path, source, edit, name):
    """A copy of the JSON file `source`, changed in place by `edit`, written as `name`."""
    doc = json.loads(Path(source).read_text())
    edit(doc)
    return write(tmp_path / name, json.dumps(doc))


def sa_with(edit):
    def case(tmp_path):
        weights = edited(tmp_path, CAMPAIGN / "sa_weights.json", edit, "w.json")
        return ["sa", "--sagat", CAMPAIGN / "sagat.csv", "--weights", weights], weights
    return case


def cfis_with(edit):
    def case(tmp_path):
        config = edited(tmp_path, DEFAULT_FIS, edit, "fis.json")
        return ["cfis", "--fis", config, "--scores", CAMPAIGN / "cfis_scores.csv"], config
    return case


def ncap_with(edit, *options):
    def case(tmp_path):
        sheet = edited(tmp_path, CAMPAIGN / "features.json", edit, "sheet.json")
        return ["ncap", "--features", sheet, *options], sheet
    return case


def sample_with(name, edit, *argv):
    """A case: `argv` then the manifest of a sample campaign copy whose file `name` is edited."""
    def case(tmp_path):
        directory = campaign_copy(tmp_path)
        bad = edited(directory, directory / name, edit, name)
        return [argv[0], directory / "campaign.json", *argv[1:]], bad
    return case


def named(doc, test_id):
    return next(test for test in doc["tests"] if test["test_id"] == test_id)


def trial(doc, trial_id):
    return next(t for t in doc["trials"] if t["trial_id"] == trial_id)


def ncap_caps_perception_no(tmp_path):
    flags = {"perception": "no", "modeling": False, "planning": False, "execution": False}
    caps = write(tmp_path / "caps.json", json.dumps({"bravo": flags}))
    return ["ncap", "--features", CAMPAIGN / "features.json", "--caps", caps], caps


class TestMalformedSideFiles:
    def test_non_numeric_score_names_the_line(self, capsys, tmp_path):
        scores = write(tmp_path / "scores.csv",
                       "suas_id,test_id,score\nalpha,t1,0.5\nalpha,t2,abc\n")
        code, out, err = run(capsys, "cfis", "--scores", scores)
        assert code == 1
        assert out == ""
        assert err == f"error: cannot parse 'abc' as a number (at {scores}:3)\n"


def feature_names():
    return [f["name"] for f in json.loads((CAMPAIGN / "features.json").read_text())["features"]]


def ncap_partial_weights(tmp_path):
    weights = write(tmp_path / "w.json", json.dumps({"flight_time": 1, "charge_time": 1}))
    return ["ncap", "--features", CAMPAIGN / "features.json", "--weights", weights], weights


def set_term(term, points):
    return lambda doc: doc["fis"]["mc"]["inputs"]["crashes"]["terms"].update({term: points})


def file_case(name, text, argv, line=None):
    """A case: `argv(file)` on a file `name` holding `text`, wrong in that file, or at `line`."""
    def case(tmp_path):
        bad = write(tmp_path / name, text)
        return argv(bad), bad if line is None else f"{bad}:{line}"
    return case


def deviation_plot(telemetry):
    return ["plot", "--kind", "deviation", "--telemetry", telemetry,
            "--path", path_file(telemetry.parent)]


def deviation_path(path):
    return ["plot", "--kind", "deviation", "--telemetry", CAMPAIGN / "wf_alpha_1.csv",
            "--path", path]


def telemetry_text(text, line=None):
    return file_case("tel.csv", text, deviation_plot, line)


def survey_row(row):
    """A case: `trust` on a survey whose one row, line 2, is `row`."""
    return file_case("s.csv", "participant_id,instrument,item_id,score,manip_pass,condition\n"
                     + row + "\n", lambda survey: ["trust", "--survey", survey, *TRUST], 2)


def fiducials_text(text, line=None):
    """A case: `validate` on a sample copy whose fiducial observations are `text`, wrong in
    that file, or at `line`."""
    def case(tmp_path):
        directory = campaign_copy(tmp_path)
        bad = write(directory / "fiducials.csv", text)
        return ["validate", directory / "campaign.json"], bad if line is None else f"{bad}:{line}"
    return case


def manifest_with(edit):
    return sample_with("campaign.json", edit, "validate")


# inputs found wrong only once their file is read: (case, the error message before "(at FILE)")
LOAD_ERRORS = {
    "sa-zero-saliency": (sa_with(lambda doc: doc["params"]["altitude"].update(saliency=0)),
                         "altitude: bad 'saliency' field (expected a number > 0, got 0)"),
    "sa-zero-effort": (sa_with(lambda doc: doc["params"]["heading"].update(effort=0)),
                       "heading: bad 'effort' field (expected a number > 0, got 0)"),
    "sa-negative-expectancy": (sa_with(lambda doc: doc["params"]["heading"].update(
        expectancy=-1)), "heading: bad 'expectancy' field (expected a number > 0, got -1)"),
    "sa-zero-value": (sa_with(lambda doc: doc["params"]["battery"].update(value=0.0)),
                      "battery: bad 'value' field (expected a number > 0, got 0.0)"),
    "sa-no-elements": (sa_with(lambda doc: doc.update(params={})), "no situation elements"),
    "sa-negative-weight": (
        sa_with(lambda doc: [doc.pop("params"), doc.update(weights={"landolt_red": -2,
                                                                    "altitude": 1})]),
        "weight file weights: bad 'landolt_red' field (expected a number >= 0, got -2)"),
    "sa-negative-top-level-weight": (
        sa_with(lambda doc: [doc.pop("params"), doc.update(altitude=1, heading=-0.5)]),
        "weight file: bad 'heading' field (expected a number >= 0, got -0.5)"),
    "fis-two-point-term": (cfis_with(set_term("low", [0, 1])),
                           "mc.crashes terms: bad 'low' field (expected 3 numbers, got 2)"),
    # a term of zero width would have membership 1 at every input
    "fis-zero-width-term": (cfis_with(set_term("two", [2, 2, 2])),
                            "mc.crashes terms: bad 'two' field (expected the first point below "
                            "the last, got [2, 2, 2])"),
    "fis-unordered-term": (cfis_with(set_term("low", [1.25, 0, 0])),
                           "mc.crashes terms: bad 'low' field (expected 3 ordered points in "
                           "[0.0, 3.0], got [1.25, 0, 0])"),
    "fis-term-outside-range": (cfis_with(set_term("high", [1.75, 3, 4])),
                               "mc.crashes terms: bad 'high' field (expected 3 ordered points in "
                               "[0.0, 3.0], got [1.75, 3, 4])"),
    # a range's ends out of order, named by the range rather than its first term
    "fis-range-descending": (
        cfis_with(lambda doc: doc["fis"]["mc"]["inputs"]["crashes"].update(range=[5, 1])),
        "mc.crashes: bad 'range' field (expected [lo, hi] with lo <= hi, got [5, 1])"),
    # each end is a float, but the width between them is not
    "fis-range-wider-than-floats": (
        cfis_with(lambda doc: doc["fis"]["mc"]["inputs"]["crashes"].update(range=[-1e308, 1e308])),
        "mc.crashes: bad 'range' field (expected a width within the float range, "
        "got [-1e+308, 1e+308])"),
    "fis-unknown-term": (cfis_with(lambda doc: doc["fis"]["mc"]["rules"][0]["if"].update(
        crashes="few")), "mc rule 0: unknown term 'few' of 'crashes'"),
    "fis-cyclic-cascade": (cfis_with(lambda doc: doc["cascade"]["combined"].append("combined")),
                           "cascade stage 'combined' takes combining stage 'combined'"),
    "fis-no-combining-stage": (cfis_with(lambda doc: doc["cascade"].clear()),
                               "config must declare exactly one combining stage"),
    "fis-combining-stage-wires-no-axis": (
        cfis_with(lambda doc: doc["cascade"].update(combined=[])),
        "cascade stage 'combined' combines no axis"),
    "fis-three-input-combiner": (cfis_with(lambda doc: doc["fis"]["combined"]["inputs"].update(
        hi=doc["fis"]["combined"]["inputs"]["mc"])),
        "combined: a combining stage takes 2 inputs, not 3"),
    "fis-ideal-run-lacks-an-input": (
        cfis_with(lambda doc: doc["ideal_inputs"]["mc"].pop("crashes")),
        "ideal_inputs: mc: missing input 'crashes'"),
    "fis-ideal-run-names-no-axis": (cfis_with(lambda doc: doc["ideal_inputs"].update(combined={})),
                                    "ideal_inputs: 'combined' is not an axis system"),
    "ncap-weights-lack-features": (ncap_partial_weights, "weight file lacks features: "
                                   "stream_resolution, fov, max_range, thermal_resolution, "
                                   "weight, max_speed, sensors, smart_behaviors"),
    "ncap-no-degree": (
        ncap_with(lambda doc: doc["features"][1].pop("degree"), "--weights", "degree"),
        "no degree-of-autonomy for features: charge_time"),
    "ncap-no-capabilities": (
        ncap_with(lambda doc: [system.pop("capabilities") for system in doc["systems"]]),
        "no capability flags for: alpha, bravo"),
    "fis-variable-with-empty-terms": (
        cfis_with(lambda doc: doc["fis"]["mc"]["inputs"]["completion"].update(terms={})),
        "mc.completion has no terms"),
    "fis-variable-without-terms": (
        cfis_with(lambda doc: doc["fis"]["mc"]["inputs"]["completion"].pop("terms")),
        "mc.completion has no terms"),
    # a required key that is missing is named as such
    "fis-variable-without-range": (
        cfis_with(lambda doc: doc["fis"]["mc"]["inputs"]["completion"].pop("range")),
        "mc.completion missing 'range'"),
    "plot-path-without-vertices": (plot_path_without_vertices, "path file missing 'vertices'"),
    "sa-param-without-saliency": (sa_with(lambda doc: doc["params"]["altitude"].pop("saliency")),
                                  "altitude missing 'saliency'"),
    # a reference to another entry must be a string
    "fis-rule-then-array": (
        cfis_with(lambda doc: doc["fis"]["mc"]["rules"][0].update(then=["good"])),
        "mc rule 0: bad 'then' field (expected a string, got [\"good\"])"),
    # an FIS block given as an array names the system, variable or rule it is in
    "fis-inputs-array": (cfis_with(lambda doc: doc["fis"]["mc"].update(inputs=["crashes"])),
                         "mc: bad 'inputs' field (expected an object, got [\"crashes\"])"),
    "fis-terms-array": (
        cfis_with(lambda doc: doc["fis"]["mc"]["inputs"]["completion"].update(
            terms=[[0, 0.5, 1]])),
        "mc.completion: bad 'terms' field (expected an object, got [[0, 0.5, 1]])"),
    "fis-rule-if-array": (
        cfis_with(lambda doc: doc["fis"]["mc"]["rules"][0].update({"if": ["crashes"]})),
        "mc rule 0: bad 'if' field (expected an object, got [\"crashes\"])"),
    # an FIS system, input variable or rule given as an array names itself
    "fis-system-array": (cfis_with(lambda doc: doc["fis"].update(mc=[1])),
                         "mc: expected an object, got [1]"),
    "fis-variable-array": (
        cfis_with(lambda doc: doc["fis"]["mc"]["inputs"].update(completion=[0, 1])),
        "mc.completion: expected an object, got [0, 1]"),
    "fis-rule-array": (cfis_with(lambda doc: doc["fis"]["mc"]["rules"].__setitem__(0, ["crashes"])),
                       "mc rule 0: expected an object, got [\"crashes\"]"),
    # a rule without conditions would fire on every row at full strength
    "fis-rule-without-if": (cfis_with(lambda doc: doc["fis"]["mc"]["rules"][0].pop("if")),
                            "mc rule 0: no 'if' conditions"),
    "fis-rule-if-empty": (cfis_with(lambda doc: doc["fis"]["mc"]["rules"][0].update({"if": {}})),
                          "mc rule 0: no 'if' conditions"),
    "fis-rule-if-null": (cfis_with(lambda doc: doc["fis"]["mc"]["rules"][0].update({"if": None})),
                         "mc rule 0: no 'if' conditions"),
    "manifest-environment-array": (
        sample_with("campaign.json", lambda doc: doc["tests"][0].update(environment=["lab"]),
                    "validate"),
        "test wall-follow-1m: bad 'environment' field (expected a string, got [\"lab\"])"),
    # a manifest or feature sheet block of the wrong type, or an entry that is not an object
    "manifest-suas-number": (sample_with("campaign.json", lambda doc: doc.update(suas=5),
                                         "validate"),
                             "manifest: bad 'suas' field (expected an array, got 5)"),
    "manifest-suas-object": (
        sample_with("campaign.json", lambda doc: doc.update(suas={"a": 1}), "validate"),
        "manifest: bad 'suas' field (expected an array, got {\"a\": 1})"),
    "manifest-tests-string": (sample_with("campaign.json", lambda doc: doc.update(tests="x"),
                                          "validate"),
                              "manifest: bad 'tests' field (expected an array, got \"x\")"),
    "manifest-trial-number": (sample_with("campaign.json", lambda doc: doc.update(trials=[1]),
                                          "validate"),
                              "trial entry: expected an object, got 1"),
    "manifest-environment-entry-array": (
        sample_with("campaign.json", lambda doc: doc.update(environments=[[1]]), "validate"),
        "environment entry: expected an object, got [1]"),
    "manifest-suas-entry-string": (
        sample_with("campaign.json", lambda doc: doc.update(suas=["alpha"]), "validate"),
        "sUAS entry: expected an object, got \"alpha\""),
    "manifest-test-entry-array": (
        sample_with("campaign.json", lambda doc: doc["tests"].append([]), "validate"),
        "test entry: expected an object, got []"),
    "features-object": (
        ncap_with(lambda doc: doc.update(features={"fov": 1})),
        "feature sheet: bad 'features' field (expected an array, got {\"fov\": 1})"),
    "features-entry-string": (ncap_with(lambda doc: doc["features"].append("fov")),
                              "feature entry: expected an object, got \"fov\""),
    "features-systems-number": (ncap_with(lambda doc: doc.update(systems=3)),
                                "feature sheet: bad 'systems' field (expected an array, got 3)"),
    "features-system-entry-number": (ncap_with(lambda doc: doc["systems"].append(3)),
                                     "system entry: expected an object, got 3"),
    "features-system-values-array": (
        ncap_with(lambda doc: doc["systems"][0].update(values=[1])),
        "system alpha: bad 'values' field (expected an object, got [1])"),
    "features-empty": (ncap_with(lambda doc: doc.update(features=[])),
                       "feature sheet has no features"),
    # a JSON number a float cannot hold: an integer names its field, a float literal fails at load
    "manifest-integer-beyond-float": (
        manifest_with(lambda doc: trial(doc, "t001").update(laps=10**400)),
        "trial t001: bad 'laps' field (integer beyond the float range)"),
    "manifest-float-beyond-float": (manifest_literal("t011", "duration_min", "1e400"),
                                    "invalid JSON: 1e400 is beyond the float range"),
    # a manifest entry without its id, or naming an environment that is not defined
    "manifest-suas-without-id": (manifest_with(lambda doc: doc["suas"][0].pop("id")),
                                 "sUAS entry missing 'id'"),
    "manifest-environment-without-id": (
        manifest_with(lambda doc: doc["environments"][0].pop("id")),
        "environment entry missing 'id'"),
    # an entry's id must be a string, and its error names the entry
    "manifest-suas-id-number": (manifest_with(lambda doc: doc["suas"][0].update(id=5)),
                                "sUAS entry: bad 'id' field (expected a string, got 5)"),
    "manifest-test-id-number": (manifest_with(lambda doc: doc["tests"][0].update(test_id=5)),
                                "test entry: bad 'test_id' field (expected a string, got 5)"),
    "manifest-environment-id-array": (
        manifest_with(lambda doc: doc["environments"][0].update(id=[1])),
        "environment entry: bad 'id' field (expected a string, got [1])"),
    "manifest-environment-id-number": (
        manifest_with(lambda doc: doc["environments"][0].update(id=5)),
        "environment entry: bad 'id' field (expected a string, got 5)"),
    "manifest-unknown-environment": (
        manifest_with(lambda doc: doc["tests"][0].update(environment="yard")),
        "test wall-follow-1m references environment 'yard'"),
    # the FIS config's outputs, rules, aliases and cascade wiring
    "fis-output-above-one": (cfis_with(lambda doc: doc["fis"]["mc"]["outputs"].update(good=1.5)),
                             "mc outputs: bad 'good' field (expected a number in [0, 1], "
                             "got 1.5)"),
    "fis-no-rules": (cfis_with(lambda doc: doc["fis"]["mc"].update(rules=[])),
                     "mc: at least one rule required"),
    "fis-alias-to-unknown-term": (
        cfis_with(lambda doc: doc["fis"]["ec"]["inputs"]["roll"].update(aliases={"zz": "nope"})),
        "ec.roll: alias 'zz' names unknown term 'nope'"),
    "fis-cascade-target-undefined": (cfis_with(lambda doc: doc["cascade"].update(hi=["mc"])),
                                     "cascade target 'hi' not defined"),
    "fis-cascade-input-undefined": (cfis_with(lambda doc: doc["cascade"]["combined"].append("hi")),
                                    "cascade input 'hi' not defined"),
    # a mapping block whose values the map metrics cannot take
    **{f"map-{key}-{label}": (
        manifest_with(lambda doc, key=key, value=value: named(doc, "map-loop").update(
            {key: value})),
        f"test map-loop {key}{reason}")
       for key, label, value, reason in (
           ("shape_classes", "unknown-class", {"A": "round"}, ": bad 'A' field (expected one of "
            "\"complete\", \"incomplete\", \"shifted\", got \"round\")"),
           ("dimensions", "length-mismatch", {"reported": [1], "truth": [1, 2]},
            ": 1 reported vs 2 truth values"),
           ("dimensions", "empty", {"reported": [], "truth": []}, ": no dimensions"),
           ("dimensions", "zero-truth", {"reported": [1], "truth": [0]},
            ": bad 'truth' field (expected a number > 0, got 0)"),
           ("fov", "zero-total", {"visible": 0, "total": 0},
            ": bad 'total' field (expected a number > 0, got 0)"),
           ("fov", "visible-above-total", {"visible": 17, "total": 16},
            ": visible count 17 outside [0, 16]"),
           ("acuity_levels", "unknown-level", [8, 7], ": 7.0 mm is not an acuity level"))},
    # a telemetry file's header and rows
    "telemetry-empty": (telemetry_text(""), "file is empty"),
    "telemetry-without-z": (telemetry_text("t,x,y\n0,0,1\n"), "missing column 'z'"),
    "telemetry-t-twice": (telemetry_text("t,x,y,z,t\n0,0,1,1,0\n"),
                          "column 't' appears more than once"),
    "telemetry-vx-alone": (telemetry_text("t,x,y,z,vx\n0,0,1,1,0\n0.1,1,1,1,0\n"),
                           "columns ('vx', 'vy', 'vz') must appear together, found only ['vx']"),
    "telemetry-short-row": (telemetry_text("t,x,y,z\n0,0,1,1\n0.1,1,1\n", 3),
                            "row has 3 fields, needs 4"),
    "telemetry-word": (telemetry_text("t,x,y,z\n0,0,1,1\n0.1,abc,1,1\n", 3),
                       "cannot parse 'abc' as a number"),
    "telemetry-nan": (telemetry_text("t,x,y,z\n0,nan,1,1\n0.1,1,1,1\n", 2),
                      "'nan' is not a finite number"),
    "telemetry-time-goes-back": (telemetry_text("t,x,y,z\n0.1,0,1,1\n0,1,1,1\n", 3),
                                 "time 0.0 does not increase past 0.1"),
    "telemetry-one-sample": (telemetry_text("t,x,y,z\n0,0,1,1\n"),
                             "telemetry needs at least two samples"),
    # a reference path file
    "path-one-vertex": (file_case("path.json", '{"vertices": [[0, 1, 1]]}', deviation_path),
                        "path file: bad 'vertices' field (expected at least two vertices, "
                        "got 1)"),
    "path-repeated-vertex": (
        file_case("path.json", '{"vertices": [[0, 1, 1], [0, 1, 1]]}', deviation_path),
        "path file: bad 'vertices' field (expected consecutive vertices to differ)"),
    "path-planar-vertex": (file_case("path.json", '{"vertices": [[0, 1], [3, 1]]}', deviation_path),
                           "path file: bad 'vertices' field (expected 3 numbers, got 2)"),
    # a survey or SAGAT row
    "survey-instrument": (survey_row("p1,XYZ,i1,4,true,caged"), "instrument 'XYZ'"),
    "survey-score-9": (survey_row("p1,CTPA,i1,9,true,caged"), "score '9' outside 1..7"),
    "survey-manip-pass": (survey_row("p1,CTPA,i1,4,maybe,caged"),
                          "cannot parse 'maybe' as a boolean"),
    # a survey or SAGAT file with a header and no rows
    "sa-no-responses": (
        file_case("sagat.csv", "participant_id,question_id,se_id,sa_level,correct\n",
                  lambda sagat: ["sa", "--sagat", sagat]),
        "no data rows"),
    "trust-header-only": (
        file_case("s.csv", "participant_id,instrument,item_id,score,manip_pass,condition\n",
                  lambda survey: ["trust", "--survey", survey, *TRUST]),
        "no data rows"),
    "sagat-level-3": (
        file_case("sagat.csv", "participant_id,question_id,se_id,sa_level,correct\n"
                  "p1,q1,altitude,3,true\n", lambda sagat: ["sa", "--sagat", sagat], 2),
        "sa_level '3' must be 1 or 2"),
    # a row is named by the line it starts on, past a quoted cell or header that spans lines
    "sagat-level-3-after-two-line-cell": (
        file_case("sagat.csv", "participant_id,question_id,se_id,sa_level,correct\n"
                  'p1,"q\n1",altitude,1,true\np1,q2,altitude,3,true\n',
                  lambda sagat: ["sa", "--sagat", sagat], 4),
        "sa_level '3' must be 1 or 2"),
    "cfis-row-without-inputs-after-two-line-header": (
        file_case("s.csv", (CAMPAIGN / "cfis_scores.csv").read_text().splitlines()[0].replace(
            "test_id", '"test_id\n"') + "\nalpha,t1,,,,,,,\n",
            lambda scores: ["cfis", "--scores", scores], 3),
        "alpha/t1: row matches no axis inputs"),
    "sa-weights-not-json": (
        file_case("w.json", "{", lambda weights: ["sa", "--sagat", CAMPAIGN / "sagat.csv",
                                                   "--weights", weights]),
        "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 "
        "(char 1)"),
    # fiducial observations, a side file of the manifest
    # a mapped half's row that stops before x and y
    "fiducials-short-row": (fiducials_text("fiducial_id,half,mapped,x,y\nA,1,complete\n", 2),
                            "cannot parse '' as a number"),
    "fiducials-half-3": (fiducials_text("fiducial_id,half,x,y,mapped\nA,3,0,0,complete\n", 2),
                         "half '3' must be 1 or 2"),
    "fiducials-header-only": (fiducials_text("fiducial_id,half,x,y,mapped\n"), "no data rows"),
    "fiducials-state": (fiducials_text("fiducial_id,half,x,y,mapped\nA,1,0,0,blurry\n", 2),
                        "bad mapped state 'blurry'"),
    "criteria-unknown-op": (
        sample_with("criteria.json", lambda doc: doc["hd_video_min"].update(op="between"),
                    "validate"),
        "criterion 'hd_video_min': bad 'op' field (expected one of \"equals\", \"min\", "
        "\"max\", \"contains\", got \"between\")"),
    # a manifest's test blocks: a block that is an object, or an entry of one that is an array,
    # is named as `test <id> <block>` or `test <id> <block> <index>`
    **{f"manifest-{test_id}-{key}-{label}": (
        manifest_with(lambda doc, test_id=test_id, key=key, edit=edit: edit(
            named(doc, test_id)[key])),
        f"test {test_id}{reason}")
       for test_id, key, label, edit, reason in (
           ("wall-follow-1m", "waypoint", "four-numbers", lambda w: w.append(0),
            ": bad 'waypoint' field (expected 2 or 3 numbers, got 4)"),
           ("oa-wall", "obstacle", "kind", lambda o: o.update(kind="cylinder"),
            " obstacle: bad 'kind' field (expected one of \"plane_segment\", "
            "\"infinite_plane\", got \"cylinder\")"),
           ("oa-wall", "obstacle", "one-point", lambda o: o.update(p1=o["p0"]),
            " obstacle: segment endpoints must differ"),
           ("oa-wall", "obstacle", "one-point-plane",
            lambda o: o.update(kind="infinite_plane", p1=o["p0"]),
            " obstacle: segment endpoints must differ"),
           ("oa-wall", "obstacle", "flat", lambda o: o.update(height=0),
            " obstacle: bad 'height' field (expected a number > 0, got 0)"),
           ("oa-wall", "obstacle", "glass", lambda o: o.update(material="glass"),
            " obstacle: bad 'material' field (expected one of \"wall\", \"mesh\", "
            "\"chain_link\", \"door_closed\", \"door_45\", \"door_open\", got \"glass\")"),
           ("endurance-indoor", "nlos_positions", "at-zero", lambda p: p[0].update(distance=0),
            " nlos_positions 0: bad 'distance' field (expected a number > 0, got 0)"),
           ("endurance-indoor", "nlos_positions", "connect", lambda p: p[0].update(connect="ok"),
            " nlos_positions 0: bad 'connect' field (expected one of \"good\", \"bad\", "
            "\"none\", got \"ok\")"),
           ("endurance-indoor", "nlos_positions", "fly", lambda p: p[0].update(fly="maybe"),
            " nlos_positions 0: bad 'fly' field (expected one of \"possible\", "
            "\"not_possible\", got \"maybe\")"),
           # checked, though no table reads them
           ("endurance-indoor", "nlos_positions", "label-number", lambda p: p[0].update(label=5),
            " nlos_positions 0: bad 'label' field (expected a string, got 5)"),
           ("endurance-indoor", "nlos_positions", "latency-text",
            lambda p: p[0].update(latency_ms="slow"),
            " nlos_positions 0: bad 'latency_ms' field (expected a number, got \"slow\")"),
           ("map-loop", "fiducials", "no-traversal", lambda f: f[0].update(min_traversal=0),
            " fiducials 0: bad 'min_traversal' field (expected a number > 0, got 0)"))},
    # an obstruction is a [count, material] pair, in a position or an environment
    "manifest-nlos-obstruction-not-a-pair": (
        manifest_with(lambda doc: named(doc, "endurance-indoor")["nlos_positions"][0].update(
            obstructions=[[1]])),
        "test endurance-indoor nlos_positions 0: bad 'obstructions' field "
        "(expected a [count, material] pair, got [1])"),
    "manifest-environment-obstruction-not-a-pair": (
        manifest_with(lambda doc: doc["environments"][0].update(obstructions=[[2, "wall", 1]])),
        "environment lab: bad 'obstructions' field "
        "(expected a [count, material] pair, got [2, \"wall\", 1])"),
    "manifest-criteria-file-missing": (
        manifest_with(lambda doc: named(doc, "endurance-indoor").update(criteria="nope.json")),
        "test endurance-indoor: criteria file 'nope.json' not found"),
    # a manifest's version, environments, tests and trials
    "manifest-version-2": (manifest_with(lambda doc: doc.update(schema_version=2)),
                           "schema_version 2"),
    "manifest-lighting-dim": (manifest_with(lambda doc: doc["environments"][0].update(
        lighting="dim")), "environment lab: bad 'lighting' field (expected one of \"lighted\", "
        "\"dark\", got \"dim\")"),
    "manifest-lighted-at-5-lux": (manifest_with(lambda doc: doc["environments"][0].update(lux=5)),
                                  "environment lab: lighted requires measured lux >= 100"),
    "manifest-dark-at-5-lux": (manifest_with(lambda doc: doc["environments"][0].update(
        lighting="dark", lux=5)), "environment lab: dark requires measured lux < 1"),
    "manifest-test-without-id": (manifest_with(lambda doc: doc["tests"].append({"kind": "nav"})),
                                 "test entry missing 'test_id'"),
    # a later test of the same id would replace the earlier one
    "manifest-repeated-test-id": (
        manifest_with(lambda doc: doc["tests"].append({**named(doc, "wall-follow-1m"), "path": {
            "vertices": [[0, 0, 0], [100, 100, 0]]}})),
        "test_id 'wall-follow-1m' appears more than once"),
    "manifest-trial-unknown-test": (
        manifest_with(lambda doc: trial(doc, "t001").update(test_id="nope")),
        "trial t001 references unknown test 'nope'"),
    "manifest-trial-unknown-suas": (
        manifest_with(lambda doc: trial(doc, "t001").update(suas_id="zulu")),
        "trial t001 references unknown sUAS 'zulu'"),
    "manifest-trial-category": (
        manifest_with(lambda doc: trial(doc, "t006").update(oa_category="OA-Z9")),
        "trial t006: bad 'oa_category' field (expected one of \"OA-A1\", \"OA-B1\", \"OA-B2\", "
        "\"OA-B3\", \"OA-B4\", \"OA-C1\", got \"OA-Z9\")"),
    "manifest-trial-telemetry-missing": (
        manifest_with(lambda doc: trial(doc, "t001").update(telemetry="gone.csv")),
        "trial t001: telemetry file 'gone.csv' not found"),
    "manifest-trial-outcome": (
        manifest_with(lambda doc: trial(doc, "t001").update(outcome="maybe")),
        "trial t001: bad 'outcome' field (expected one of \"success\", \"failure\", "
        "got \"maybe\")"),
    "manifest-trial-negative-duration": (
        manifest_with(lambda doc: trial(doc, "t011").update(duration_min=-1)),
        "trial t011: bad 'duration_min' field (expected a number >= 0, got -1)"),
    # a feature sheet's features and systems
    "features-without-name": (ncap_with(lambda doc: doc["features"][0].pop("name")),
                              "feature entry missing 'name'"),
    "features-without-direction": (ncap_with(lambda doc: doc["features"][0].pop("direction")),
                                   "feature 'flight_time' missing 'direction'"),
    "features-direction-up": (ncap_with(lambda doc: doc["features"][0].update(direction="up")),
                              "feature 'flight_time': bad 'direction' field (expected one of "
                              "\"higher\", \"lower\", got \"up\")"),
    "features-system-without-id": (ncap_with(lambda doc: doc["systems"][0].pop("id")),
                                   "system entry missing 'id'"),
    # a capability flag that is not one of the four, in the sheet or a --caps file
    "features-unknown-capability": (
        ncap_with(lambda doc: doc["systems"][0]["capabilities"].update(flying=True)),
        "system alpha capabilities: unknown flag 'flying'"),
    "ncap-caps-unknown-flag": (
        file_case("caps.json", json.dumps({"bravo": {"perception": True, "flying": True}}),
                  lambda caps: ["ncap", "--features", CAMPAIGN / "features.json", "--caps", caps]),
        "system bravo capabilities: unknown flag 'flying'"),
    "ncap-no-systems": (ncap_with(lambda doc: doc.update(systems=[])),
                        "feature sheet has no systems"),
    # a value, or the value its ordinal token maps to, must be positive
    "ncap-zero-value": (ncap_with(lambda doc: doc["systems"][0]["values"].update(fov=0)),
                        "system alpha: bad 'fov' field (must be > 0, got 0)"),
    "ncap-token-maps-to-zero": (
        ncap_with(lambda doc: [doc["features"][2]["ordinal_map"].update(HD=0),
                               doc["systems"][0]["values"].update(stream_resolution="HD")]),
        "system alpha: bad 'stream_resolution' field (must be > 0, got \"HD\", which maps to 0)"),
    # a feature without an ordinal map has no floor to fill in when no system has it
    "ncap-absent-everywhere": (
        ncap_with(lambda doc: [system["values"].update(fov="N/A") for system in doc["systems"]]),
        "feature 'fov': absent for every system"),
    "ncap-zero-weights": (
        file_case("w.json", json.dumps(dict.fromkeys(feature_names(), 0)),
                  lambda weights: ["ncap", "--features", CAMPAIGN / "features.json",
                                   "--weights", weights]),
        "weights must not all be zero"),
    # an FIS rule naming what the system does not have
    "fis-rule-unknown-variable": (
        cfis_with(lambda doc: doc["fis"]["mc"]["rules"][0].update({"if": {"wind": "low"}})),
        "mc rule 0: unknown variable 'wind'"),
    "fis-rule-unknown-output": (
        cfis_with(lambda doc: doc["fis"]["mc"]["rules"][0].update(then="great")),
        "mc rule 0: unknown output 'great'"),
    # a scores row with no input of any axis
    "cfis-row-without-inputs": (
        file_case("s.csv", (CAMPAIGN / "cfis_scores.csv").read_text().splitlines()[0]
                  + "\nalpha,t1,,,,,,,\n", lambda scores: ["cfis", "--scores", scores], 2),
        "alpha/t1: row matches no axis inputs"),
    # a scores file of either kind with a header and no rows
    "cfis-inputs-header-only": (
        file_case("s.csv", (CAMPAIGN / "cfis_scores.csv").read_text().splitlines()[0] + "\n",
                  lambda scores: ["cfis", "--scores", scores]),
        "no data rows"),
    "cfis-scores-header-only": (
        file_case("s.csv", "suas_id,test_id,score\n", lambda scores: ["cfis", "--scores", scores]),
        "no data rows"),
    # a side file of the wrong JSON type, or with a non-finite literal
    "sa_params_list": (sa_params_list,
                       "weight file: bad 'params' field (expected an object, got [1, 2])"),
    "ncap_caps_list": (ncap_caps_list, "capability file: expected an object, got [1]"),
    "ncap_caps_unknown_flag": (ncap_caps_unknown_flag,
                               "system alpha capabilities: unknown flag 'teleport'"),
    "ncap_weight_not_a_number": (
        ncap_weight_not_a_number,
        "weight file: bad 'flight_time' field (expected a number, got [1])"),
    "plot_path_list": (plot_path_list, "path file: expected an object, got [1, 2]"),
    "ncap_weight_nan": (ncap_weight_nan, "invalid JSON: NaN is not a number"),
    "fis_config_infinity": (fis_config_infinity, "invalid JSON: Infinity is not a number"),
    "ncap_caps_perception_no": (
        ncap_caps_perception_no,
        "system bravo capabilities: bad 'perception' field (expected a boolean, got \"no\")"),
    "manifest_nan": (manifest_literal("t011", "duration_min", "NaN"),
                     "invalid JSON: NaN is not a number"),
    # a value of the wrong JSON type: each of these exits 0 with a wrong answer, or crashes, if
    # the loader converts it loosely
    "fis-ideal-input-true": (
        cfis_with(lambda doc: doc["ideal_inputs"]["mc"].update(completion=True)),
        "ideal_inputs mc: bad 'completion' field (expected a number, got true)"),
    "fis-range-false": (
        cfis_with(lambda doc: doc["fis"]["mc"]["inputs"]["crashes"].update(range=[False, 3])),
        "mc.crashes: bad 'range' field (expected a number, got false)"),
    **{f"criteria-min-array-{argv[0]}": (
        sample_with("criteria.json", lambda doc: doc["hd_video_min"].update(value=[1, 2]),
                    *argv),
        "criterion 'hd_video_min': bad 'value' field (expected a number, got [1, 2])")
       for argv in (["validate"], ["metrics", "--test", "field"])},
    "fov-visible-fraction": (
        manifest_with(lambda doc: named(doc, "map-loop")["fov"].update(visible=2.5)),
        "test map-loop fov: bad 'visible' field (expected a non-negative integer, got 2.5)"),
    "min-turns-fraction": (
        manifest_with(lambda doc: named(doc, "map-loop")["fiducials"][0].update(min_turns=1.5)),
        "test map-loop fiducials 0: bad 'min_turns' field "
        "(expected a non-negative integer, got 1.5)"),
    "degree-fraction": (
        ncap_with(lambda doc: doc["features"][0].update(degree=2.7), "--weights", "degree"),
        "feature 'flight_time': bad 'degree' field (expected a non-negative integer, got 2.7)"),
    "environment-indoor-string": (
        manifest_with(lambda doc: doc["environments"][0].update(indoor="no")),
        "environment lab: bad 'indoor' field (expected a boolean, got \"no\")"),
    "sa-mission-not-an-array": (
        sa_with(lambda doc: doc.update(missions={"m": True})),
        "weight file missions: bad 'm' field (expected an array, got true)"),
    # an entry of a map whose keys are data is named by its key, under an owner naming the map
    "fis-output-text": (cfis_with(lambda doc: doc["fis"]["mc"]["outputs"].update(good="x")),
                        "mc outputs: bad 'good' field (expected a number, got \"x\")"),
    "fis-alias-array": (
        cfis_with(lambda doc: doc["fis"]["mc"]["inputs"]["crashes"]["aliases"].update(many=[1])),
        "mc.crashes aliases: bad 'many' field (expected a string, got [1])"),
    "fis-rule-condition-number": (
        cfis_with(lambda doc: doc["fis"]["mc"]["rules"][0]["if"].update(crashes=5)),
        "mc rule 0 if: bad 'crashes' field (expected a string, got 5)"),
    "fis-cascade-text": (cfis_with(lambda doc: doc["cascade"].update(combined="mc")),
                         "cascade: bad 'combined' field (expected an array, got \"mc\")"),
    "sa-weight-text": (
        sa_with(lambda doc: [doc.pop("params"), doc.update(weights={"altitude": "x"})]),
        "weight file weights: bad 'altitude' field (expected a number, got \"x\")"),
    "features-ordinal-map-text": (
        ncap_with(lambda doc: doc["features"][2]["ordinal_map"].update(FHD="x")),
        "feature 'stream_resolution' ordinal_map: bad 'FHD' field (expected a number, "
        "got \"x\")"),
    # an alias named as a term would hide that term from every rule
    "fis-alias-is-a-term": (
        cfis_with(lambda doc: doc["fis"]["mc"]["inputs"]["crashes"]["aliases"].update(low="high")),
        "mc.crashes: alias 'low' is also a term"),
    # a JSON object that repeats a key, which json alone would read as its last value
    "fis-rule-repeats-then": (fis_rule_repeats_then,
                              "invalid JSON: key 'then' appears more than once"),
}


class TestLoadErrorsNameTheFile:
    @pytest.mark.parametrize("name", sorted(LOAD_ERRORS))
    def test_input_error_line(self, capsys, tmp_path, name):
        case, message = LOAD_ERRORS[name]
        argv, bad = case(tmp_path)
        assert run(capsys, *argv) == (1, "", f"error: {message} (at {bad})\n")

    def test_error_line_is_plain_on_a_terminal(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
        case, message = LOAD_ERRORS["sa-no-elements"]
        argv, bad = case(tmp_path)
        assert run(capsys, *argv) == (1, "", f"error: {message} (at {bad})\n")


def sample_edited(edit, *argv):
    """A case: `argv` then the manifest of a sample campaign copy that `edit` changes."""
    def case(tmp_path):
        directory = campaign_copy(tmp_path)
        edit(directory)
        return [argv[0], directory / "campaign.json", *argv[1:]]
    return case


def telemetry(name, *rows):
    """An edit that replaces the sample's telemetry file `name` with t,x,y,z,vx,vy,vz `rows`."""
    def edit(directory):
        lines = ["t,x,y,z,vx,vy,vz"] + [",".join(map(str, row)) for row in rows]
        write(directory / name, "\n".join(lines) + "\n")
    return edit


def argv_of(case):
    """A case giving only the argv of `case`, which also gives the file it makes wrong."""
    return lambda tmp_path: case(tmp_path)[0]


def zero_sa_weights(tmp_path):
    elements = ["landolt_red", "landolt_green", "altitude", "heading", "battery"]
    weights = write(tmp_path / "w.json", json.dumps({"weights": dict.fromkeys(elements, 0)}))
    return ["sa", "--sagat", CAMPAIGN / "sagat.csv", "--weights", weights]


def cfis_one_rule(tmp_path):
    """The shipped config with one mission rule, for many crashes, which the sample fires on no
    row."""
    config = edited(tmp_path, DEFAULT_FIS, lambda doc: doc["fis"]["mc"].update(
        rules=[{"if": {"crashes": "high"}, "then": "bad"}]), "fis.json")
    return ["cfis", "--fis", config, "--scores", CAMPAIGN / "cfis_scores.csv"]


def unwired_axis_row(tmp_path):
    """The shipped config plus an axis, `hi`, that the combining stage does not wire, and a
    scores row with only that axis's input."""
    scale = {"range": [0, 10], "terms": {"low": [0, 0, 10], "high": [0, 10, 10]}}
    hi = {"inputs": {"interventions": scale}, "outputs": {"ok": 1.0},
          "rules": [{"if": {"interventions": term}, "then": "ok"} for term in ("low", "high")]}
    config = edited(tmp_path, DEFAULT_FIS, lambda doc: doc["fis"].update(hi=hi), "fis.json")
    header = (CAMPAIGN / "cfis_scores.csv").read_text().splitlines()[0]
    scores = write(tmp_path / "s.csv", f"{header},interventions\nalpha,t1,,,,,,,,3\n")
    return ["cfis", "--fis", config, "--scores", scores]


def zero_score(tmp_path):
    scores = write(tmp_path / "s.csv", "suas_id,test_id,score\nalpha,t1,0\n")
    return ["cfis", "--scores", scores]


def item_in_one_condition(tmp_path):
    survey = write(tmp_path / "s.csv", "participant_id,instrument,item_id,score,manip_pass,"
                                       "condition\np1,CTPA,i1,4,true,A\np2,CTPA,i2,4,true,B\n")
    return ["trust", "--survey", survey, "--condition-a", "A", "--condition-b", "B"]


def zero_crashes_many_rollovers(tmp_path):
    """A row the shipped mission stage fires no rule on: at crashes = 0, low is 1 and "not low"
    0, and no rule takes low crashes with rollovers above 1.25 and completion below 0.7."""
    header = (CAMPAIGN / "cfis_scores.csv").read_text().splitlines()[0]
    scores = write(tmp_path / "s.csv", f"{header}\nalpha,t1,0,2,0.5,0,0,1.2,0.6\n")
    return ["cfis", "--scores", scores]


def tiny_weight_alone(tmp_path):
    """Every system weighs 5e-324 (lower is better), and the weight file puts all the weight
    on `weight`: the factor 5e-324 ** -1 is beyond the float range."""
    sheet = edited(tmp_path, CAMPAIGN / "features.json", lambda doc: [
        system["values"].update(weight=5e-324) for system in doc["systems"]], "sheet.json")
    weights = write(tmp_path / "w.json",
                    json.dumps({name: int(name == "weight") for name in feature_names()}))
    return ["ncap", "--features", sheet, "--weights", weights]


# runs that fail once their inputs load, and the two plot options a kind needs: (case giving
# the argv, exit code, the last line of stderr, the error, or a function of the run's directory
# giving it)
RUN_ERRORS = {
    "usage-missing-argument": (lambda tmp_path: ["metrics"], 1,
                               "error: the following arguments are required: manifest, --test"),
    "plot-scatter-without-features": (lambda tmp_path: ["plot", "--kind", "ncap-scatter"], 1,
                                      "error: --features is required for ncap-scatter"),
    "plot-deviation-without-path": (
        lambda tmp_path: ["plot", "--kind", "deviation", "--telemetry",
                          CAMPAIGN / "wf_alpha_1.csv"],
        1, "error: --telemetry and --path are required for deviation plots"),
    "collision-hover-only": (
        sample_edited(telemetry("oa_alpha_3.csv", *[(t / 10, 1.5, 1.5, 1, 0, 0, 0)
                                                    for t in range(5)]),
                      "metrics", "--test", "collision"),
        2, "error: trial t008: no sample moves faster than the stationary cutoff"),
    "collision-time-outside-telemetry": (
        argv_of(sample_with("campaign.json",
                            lambda doc: trial(doc, "t006").update(t_collision_s=10),
                            "metrics", "--test", "collision")),
        2, "error: trial t006: t_c=10.0 outside [0.0, 3.6]"),
    "collision-sampled-at-2-hz": (
        sample_edited(telemetry("oa_alpha_1.csv", *[(t / 2, 1.5, 1.5 - t / 4, 1, 0, -0.5, 0)
                                                    for t in range(8)]),
                      "metrics", "--test", "collision"),
        2, "error: trial t006: need >= 10 Hz sampling in the post-collision window"),
    "collision-two-samples": (
        sample_edited(telemetry("oa_alpha_1.csv", (0, 1.5, 1.5, 1, 0, -0.5, 0),
                                (3.5, 1.5, 0, 1, 0, -0.5, 0)),
                      "metrics", "--test", "collision"),
        2, "error: trial t006: differentiation needs at least 3 samples"),
    "sa-zero-weights": (zero_sa_weights, 2, "error: weights must sum to a positive value"),
    "cfis-no-rule-fired": (cfis_one_rule, 2, "error: alpha/takeoff-easy: mc: no rule fired for "
                           '{"crashes": 0.0, "completion": 1.0, "rollovers": 0.0} '
                           f"(at {CAMPAIGN / 'cfis_scores.csv'}:2)"),
    "cfis-row-with-only-an-unwired-axis": (
        unwired_axis_row, 1,
        lambda tmp_path: "error: alpha/t1: row matches no axis that 'combined' combines "
                         f"(at {tmp_path / 's.csv'}:2)"),
    "cfis-mc-zero-crashes-many-rollovers": (
        zero_crashes_many_rollovers, 2,
        lambda tmp_path: 'error: alpha/t1: mc: no rule fired for {"crashes": 0.0, '
                         f'"completion": 0.5, "rollovers": 2.0}} (at {tmp_path / "s.csv"}:2)'),
    "cfis-zero-score": (zero_score, 2, "error: alpha/t1=0.0 outside (0, 1]"),
    "ncap-potential-overflows": (tiny_weight_alone, 2, "error: alpha: component potential: "
                                 "feature weight: 5e-324 ** -1.0 overflows"),
    "trust-unknown-condition": (
        lambda tmp_path: ["trust", "--survey", CAMPAIGN / "surveys.csv",
                          "--condition-a", "caged", "--condition-b", "open"],
        2, "error: no valid rows for condition 'open'"),
    "trust-item-in-one-condition": (item_in_one_condition, 2, "error: CTPA i1: no scores for 'B'"),
    "trust-same-condition": (
        lambda tmp_path: ["trust", "--survey", CAMPAIGN / "surveys.csv",
                          "--condition-a", "caged", "--condition-b", "caged"],
        1, "error: --condition-a and --condition-b must differ (both are 'caged')"),
}


class TestRunErrors:
    @pytest.mark.parametrize("name", sorted(RUN_ERRORS))
    def test_exit_code_and_error_line(self, capsys, tmp_path, name):
        case, code, line = RUN_ERRORS[name]
        got_code, out, err = run(capsys, *case(tmp_path))
        line = line(tmp_path) if callable(line) else line
        assert (got_code, out, err.splitlines()[-1]) == (code, "", line)
        assert err.count("error:") == 1


def table_cases():
    """(name, a function of a fresh directory giving the argv run there) of each case in the
    tables of load errors, run errors and warning lines."""
    for name, (case, _) in LOAD_ERRORS.items():
        yield f"load error {name}", lambda d, case=case: case(d)[0]
    for name, (case, _, _) in RUN_ERRORS.items():
        yield f"run error {name}", case
    for case in WARNING_LINES:
        yield f"warning {case.__name__}", lambda d, case=case: case(d)[0]


def with_entry(directory, entry_id, key, value):
    """The sample campaign's manifest, written into `directory`, with one key of one test
    or trial replaced."""
    doc = json.loads((CAMPAIGN / "campaign.json").read_text())
    entries = doc["tests"] + doc["trials"]
    next(e for e in entries if e.get("trial_id", e["test_id"]) == entry_id)[key] = value
    manifest = directory / "campaign.json"
    manifest.write_text(json.dumps(doc))
    return manifest


class TestMalformedTestBlocks:
    @pytest.mark.parametrize("owner, kind, key, value", [
        ("test wall-follow-1m", "nav", "path", [1, 2]),
        ("test map-loop", "mapping", "shape_classes", ["a", "b"]),
        ("test oa-wall", "collision", "obstacle", {"p0": [0, 0]}),
        ("test endurance-indoor", "field", "nlos_positions", [{"label": "X"}]),
        ("test map-loop", "mapping", "fov", {"visible": 1}),
        ("test endurance-indoor", "field", "criteria", "nope.json"),
        ("test map-loop", "mapping", "observations", "gone.csv"),
        # well typed, but values the report's own metric rejects
        ("test map-loop", "mapping", "fov", {"visible": 17, "total": 16}),
        ("test map-loop", "mapping", "acuity_levels", [8, 9]),
        # trial fields the tables compute with
        ("trial t011", "field", "laps", "10"),
        ("trial t006", "collision", "t_collision_s", "x"),
    ], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
    def test_validate_fails_where_metrics_and_report_do(self, capsys, tmp_path,
                                                        owner, kind, key, value):
        manifest = with_entry(campaign_copy(tmp_path), owner.split()[1], key, value)
        results = [run(capsys, *argv) for argv in (
            ["validate", manifest], ["metrics", manifest, "--test", kind], ["report", manifest])]
        err = results[0][2]
        assert results == [(1, "", err)] * 3
        # the entry names itself, or the block names itself within it
        assert err.startswith((f"error: {owner}: ", f"error: {owner} {key}"))
        assert err.endswith(f"(at {manifest})\n")
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("test_id, kind, key, other", [
        ("endurance-indoor", "field", "criteria", "sagat.csv"),
        ("map-loop", "mapping", "observations", "features.json"),
    ])
    def test_malformed_side_file_fails_validate_too(self, capsys, tmp_path,
                                                    test_id, kind, key, other):
        directory = campaign_copy(tmp_path)
        manifest = with_entry(directory, test_id, key, other)
        results = [run(capsys, *argv) for argv in (
            ["validate", manifest], ["metrics", manifest, "--test", kind], ["report", manifest])]
        err = results[0][2]
        assert results == [(1, "", err)] * 3
        assert err.startswith("error: ") and err.endswith(f"(at {directory / other})\n")
        assert "Traceback" not in err

    def test_unknown_kind_is_ignored(self, capsys, tmp_path):
        directory = campaign_copy(tmp_path)
        doc = json.loads((directory / "campaign.json").read_text())
        doc["tests"].append({"test_id": "thermal", "kind": "thermal", "path": [1, 2]})
        manifest = directory / "campaign.json"
        manifest.write_text(json.dumps(doc))
        assert run(capsys, "validate", manifest)[0] == 0
        code, out, _err = run(capsys, "report", manifest)
        assert code == 0
        assert out == (REPO / "tests" / "golden" / "report.md").read_text()


# every block a test category reads, with the sample test that carries it
TEST_BLOCKS = (
    [("wall-follow-1m", "nav", key) for key in ("path", "waypoint", "length_m")]
    + [("oa-wall", "collision", "obstacle")]
    + [("endurance-indoor", "field", key) for key in ("nlos_positions", "criteria", "responses")]
    + [("map-loop", "mapping", key) for key in ("fiducials", "observations", "shape_classes",
                                                 "dimensions", "fov", "acuity_levels")]
)
# keys the blocks' objects use, so that a dict may hold some of them but not all
BLOCK_KEYS = ["vertices", "closed", "p0", "p1", "height", "label", "distance", "id", "xy",
              "reported", "truth", "visible", "total", "alpha"]
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 30),
                    st.floats(-5, 30, allow_nan=False), st.text(max_size=4))
WRONG_VALUES = st.one_of(
    st.lists(SCALARS, max_size=3),
    st.text(max_size=6),
    st.integers(-5, 30) | st.floats(-5, 30, allow_nan=False),
    st.none(),
    st.dictionaries(st.sampled_from(BLOCK_KEYS), SCALARS, max_size=2),
    st.sampled_from([[], {}]),
)


def call(*argv):
    """`main` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def scratch_campaign(tmp_path_factory):
    return shutil.copytree(CAMPAIGN, tmp_path_factory.mktemp("blocks") / "campaign")


class TestValidateAgreesWithMetrics:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(block=st.sampled_from(TEST_BLOCKS), value=WRONG_VALUES)
    def test_wrong_block_values(self, scratch_campaign, block, value):
        test_id, kind, key = block
        manifest = with_entry(scratch_campaign, test_id, key, value)
        validated = call("validate", manifest)
        code, out, err = call("metrics", manifest, "--test", kind)
        assert validated[0] == code
        assert "Traceback" not in validated[2] + err
        if code == 1:
            assert (out, err) == ("", validated[2])
            assert err.startswith((f"error: test {test_id}: ", f"error: test {test_id} {key}",
                                   f"error: test {test_id} missing {key!r}"))
            assert err.endswith(f"(at {manifest})\n")
        else:
            assert code == 0 and out.startswith("### ")
