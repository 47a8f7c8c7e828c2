"""Output checks for each workload, computed independently of the program.

Each check takes the generated workload, the index of the invocation and its
stdout, and returns a list of problems (empty when the output is correct).
Numbers are compared at the precision the program renders them.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np


def parse_md_tables(text: str) -> dict[str, list[list[str]]]:
    """{title: rows of cells} for every `### title` markdown table."""
    tables, title = {}, None
    for line in text.splitlines():
        if line.startswith("### "):
            title = line[4:]
            tables[title] = []
        elif line.startswith("| ") and title is not None:
            tables[title].append(line[2:-2].split(" | "))
    # drop each table's header and separator rows
    return {t: rows[2:] for t, rows in tables.items()}


def _close(text: str, value: float, digits: int) -> bool:
    return abs(float(text) - value) <= 0.5 * 10.0 ** -digits + 1e-9


def _count(problems, tables, title, expected):
    got = len(tables.get(title, []))
    if got != expected:
        problems.append(f"{title!r}: {got} rows, expected {expected}")


# --- campaign -----------------------------------------------------------------------

def _telemetry(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def deviation_series(pos: np.ndarray, vertices, closed: bool) -> np.ndarray:
    """Per-sample distance to the nearest clamped path segment."""
    verts = np.asarray(vertices, dtype=float)
    a, b = verts[:-1], verts[1:]
    if closed:
        a, b = np.vstack([a, verts[-1:]]), np.vstack([b, verts[:1]])
    ab = b - a
    s = np.einsum("nsk,sk->ns", pos[:, None, :] - a[None], ab) / np.einsum("sk,sk->s", ab, ab)
    nearest = a[None] + np.clip(s, 0.0, 1.0)[..., None] * ab[None]
    return np.linalg.norm(pos[:, None, :] - nearest, axis=2).min(axis=1)


def wall_distance(pos: np.ndarray, obstacle: dict) -> float:
    """Minimum body-center distance to a vertical plane segment."""
    p0, p1 = np.asarray(obstacle["p0"], float), np.asarray(obstacle["p1"], float)
    d = p1 - p0
    s = np.clip((pos[:, :2] - p0) @ d / (d @ d), 0.0, 1.0)
    plan = np.linalg.norm(pos[:, :2] - (p0 + s[:, None] * d), axis=1)
    z = pos[:, 2]
    vert = np.maximum(0.0, np.maximum(-z, z - obstacle["height"]))
    return float(np.hypot(plan, vert).min())


def check_report(wl, stdout: str) -> list[str]:
    problems = []
    tables = parse_md_tables(stdout)
    manifest = json.loads((wl.workdir / "campaign.json").read_text(encoding="utf-8"))
    tests = {t["test_id"]: t for t in manifest["tests"]}
    nav = tests["loop-nav"]
    wall = tests["wall-oa"]["obstacle"]
    trials = manifest["trials"]
    suas = sorted({t["suas_id"] for t in trials if t["test_id"] == "loop-nav"})

    _count(problems, tables, "Path deviation", len(suas))
    _count(problems, tables, "Waypoint accuracy", len(suas))
    for row in tables.get("Path deviation", []):
        flights = [t["telemetry"] for t in trials
                   if t["test_id"] == "loop-nav" and t["suas_id"] == row[1]]
        ads = [float(deviation_series(_telemetry(wl.workdir / f)[:, 1:4],
                                      nav["path"]["vertices"], nav["path"]["closed"]).mean())
               for f in flights]
        shown = row[3].split()
        if len(shown) != len(ads) or not all(_close(s, ad, 3) for s, ad in zip(shown, ads)):
            problems.append(f"per-flight AD for {row[1]}: {row[3]!r}, expected "
                            + " ".join(f"{ad:.6f}" for ad in ads))
        if not (_close(row[4], float(np.mean(ads)), 3)
                and _close(row[5], float(np.std(ads, ddof=1)), 3)):
            problems.append(f"mean/std AD for {row[1]}: {row[4]}/{row[5]}")

    oa = [t for t in trials if t["test_id"] == "wall-oa"]
    oa_suas = {t["suas_id"] for t in oa}
    severity = tables.get("Obstacle avoidance and severity", [])
    _count(problems, tables, "Obstacle avoidance and severity", len(oa) + len(oa_suas))
    by_trial = {row[2]: row for row in severity}
    for trial in oa:
        row = by_trial.get(trial["trial_id"])
        if row is None:
            problems.append(f"no severity row for {trial['trial_id']}")
            continue
        expected = 0.0 if trial["collisions"] else wall_distance(
            _telemetry(wl.workdir / trial["telemetry"])[:, 1:4], wall)
        if row[3] != str(trial["collisions"]) or not _close(row[4], expected, 3):
            problems.append(f"{trial['trial_id']}: collisions/min distance {row[3]}/{row[4]}, "
                            f"expected {trial['collisions']}/{expected:.6f}")
    for which in ("OA", "CR"):
        _count(problems, tables, f"{which} category distribution", 1)

    # field and mapping tests are copied from the sample campaign
    for test in wl.truth["copied_tests"]:
        test_id = test["test_id"]
        if test["kind"] == "field":
            mine = [t for t in wl.truth["copied_trials"] if t["test_id"] == test_id]
            criteria = json.loads((wl.workdir / test["criteria"]).read_text(encoding="utf-8"))
            _count(problems, tables, "Runtime endurance", sum(1 for t in mine if "laps" in t))
            _count(problems, tables, "Completion", len({t["suas_id"] for t in mine}))
            _count(problems, tables, "NLOS maximum performance", 2)
            _count(problems, tables, "Requirements met", len(criteria) * len(test["responses"]))
        else:
            _count(problems, tables, f"Fiducial difficulty: {test_id}", len(test["fiducials"]))
            expected = (2 * ("observations" in test) + ("shape_classes" in test)
                        + ("dimensions" in test) + ("fov" in test)
                        + 2 * ("acuity_levels" in test))
            _count(problems, tables, f"Map metrics: {test_id}", expected)
    return problems


def check_deviation_plot(wl, stdout: str) -> list[str]:
    try:
        svg = ET.fromstring(stdout)
    except ET.ParseError as exc:
        return [f"deviation plot is not well-formed XML: {exc}"]
    lines = [el for el in svg.iter() if el.tag.endswith("polyline")]
    if len(lines) != 1:
        return [f"deviation plot has {len(lines)} polylines, expected 1"]
    points = np.array([p.split(",") for p in lines[0].get("points").split()], dtype=float)
    data = _telemetry(wl.workdir / wl.truth["plotted"])
    manifest = json.loads((wl.workdir / "campaign.json").read_text(encoding="utf-8"))
    path = next(t["path"] for t in manifest["tests"] if t["test_id"] == "loop-nav")
    dev = deviation_series(data[:, 1:4], path["vertices"], path["closed"])
    if len(points) != len(dev):
        return [f"deviation plot has {len(points)} points, expected {len(dev)}"]
    # the plot maps [t0, t1] x [0, max deviation] onto the box inside its margin
    width, height = float(svg.get("width")), float(svg.get("height"))
    margin = points[0, 0]
    t = data[:, 0]
    x = margin + (width - 2 * margin) * (t - t[0]) / (t[-1] - t[0])
    y = height - margin - (height - 2 * margin) * dev / dev.max()
    worst = max(np.abs(points[:, 0] - x).max(), np.abs(points[:, 1] - y).max())
    if worst > 0.005 + 1e-6:
        return [f"deviation plot points are off by up to {worst:.4f} px"]
    return []


# --- surveys ------------------------------------------------------------------------

def expected_trust(rows, condition_a: str, condition_b: str) -> dict:
    """{(instrument, item): (mean_a, mean_b, U)} after the documented filters.

    Participants with a failed manipulation check are dropped; each side of an
    item with at least 4 scores is fenced at Q1 - 1.5 IQR and Q3 + 1.5 IQR,
    quartiles taken at positions (n+1)/4 and 3(n+1)/4.
    """
    failed = {r[0] for r in rows if r[4] != "true"}
    sides: dict = {}
    for pid, instrument, item, score, _manip, condition in rows:
        if pid not in failed and condition in (condition_a, condition_b):
            sides.setdefault((instrument, item), {}).setdefault(condition, []).append(float(score))
    out = {}
    for key, by_condition in sides.items():
        kept = []
        for label in (condition_a, condition_b):
            values = np.array(by_condition[label])
            if len(values) >= 4:
                q1, q3 = np.quantile(values, [0.25, 0.75], method="weibull")
                lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
                values = values[(values >= lo) & (values <= hi)]
            kept.append(np.sort(values))
        a, b = kept
        u_a = float(np.sum(np.searchsorted(b, a, "left") + np.searchsorted(b, a, "right")) / 2.0)
        out[key] = (float(a.mean()), float(b.mean()), min(u_a, len(a) * len(b) - u_a))
    return out


def check_trust(wl, stdout: str) -> list[str]:
    tables = parse_md_tables(stdout)
    rows = tables.get("Trust comparison: caged vs exposed", [])
    expected = expected_trust(wl.truth["rows"], "caged", "exposed")
    problems = []
    if len(rows) != len(expected):
        problems.append(f"trust table has {len(rows)} rows, expected {len(expected)}")
    for row in rows:
        want = expected.get((row[0], row[1]))
        if want is None:
            problems.append(f"unexpected item {row[0]} {row[1]}")
            continue
        mean_a, mean_b, u = want
        if not (_close(row[2], mean_a, 2) and _close(row[3], mean_b, 2) and _close(row[6], u, 1)):
            problems.append(f"{row[0]} {row[1]}: means {row[2]}/{row[3]} U {row[6]}, expected "
                            f"{mean_a:.4f}/{mean_b:.4f} U {u}")
        if not 0.0 <= float(row[7]) <= 1.0:
            problems.append(f"{row[0]} {row[1]}: p {row[7]} outside [0, 1]")
    return problems


# --- cfis scores --------------------------------------------------------------------

def check_cfis(wl, stdout: str) -> list[str]:
    tables = parse_md_tables(stdout)
    detail = tables.get("Contextual autonomy per test", [])
    inputs = wl.truth["rows"]
    problems = []
    if [(r[0], r[1]) for r in detail] != [(r[0], r[1]) for r in inputs]:
        return [f"per-test table has {len(detail)} rows not matching the {len(inputs)} input rows"]
    normalized: dict[str, list[float]] = {}
    for row in detail:
        value = float(row[-1])
        if not 0.0 < value <= 1.0:
            problems.append(f"{row[0]}/{row[1]}: normalized score {row[-1]} outside (0, 1]")
        normalized.setdefault(row[0], []).append(value)
    predictive = tables.get("Predictive mission score", [])
    if sorted(r[0] for r in predictive) != sorted(normalized):
        problems.append("predictive table does not list every sUAS once")
    for suas, tests, score in predictive:
        values = normalized.get(suas, [])
        if not values or min(values) <= 0.0:
            continue
        gm = math.exp(sum(math.log(v) for v in values) / len(values))
        # inputs are rounded to 0.005, which moves the geometric mean by at most this much
        tolerance = 0.005 + gm * sum(0.005 / v for v in values) / len(values) + 1e-9
        if int(tests) != len(values) or abs(float(score) - gm) > tolerance:
            problems.append(f"{suas}: predictive {score} over {tests} tests, expected "
                            f"{gm:.4f} over {len(values)}")
    return problems


CHECKS = {
    "campaign": (check_report, check_deviation_plot),
    "survey-exact": (check_trust,),
    "survey-large": (check_trust,),
    "scores": (check_cfis,),
}


def check(wl, index: int, stdout: str) -> list[str]:
    return CHECKS[wl.name][index](wl, stdout)
