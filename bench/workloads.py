"""Seeded benchmark inputs: each workload writes its files into a work directory.

A workload is the list of `decisive` invocations one pass runs, the files they
read, the number of items a pass processes, and the layers a traced pass must
reach. The same seed always gives the same files. Why each workload was chosen
is stated in BENCHMARK.json and bench/README.md. Nothing here writes under
`sample_campaign/`; the campaign workload only reads the sample's field and
mapping tests from it.

`scale` shrinks every input for the smoke test; the benchmark uses 1.0.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RATE_HZ = 20.0

#: Shipped FIS `ec` bands. Each test keeps all four environment inputs inside
#: one band, where that band's rule fires; mixed bands fire no rule (exit 2).
#: Values are (roll, pitch, lateral_obstruction, vertical_obstruction): the
#: band's peak and the largest jitter that keeps every membership positive
#: with margin.
EC_BANDS = {
    "easy": ((0.0, 0.0, 1.2, 0.6), (2.5, 2.5, 0.7, 0.3)),
    "medium": ((5.0, 5.0, 2.4, 1.2), (2.5, 2.5, 0.6, 0.3)),
    "hard": ((10.0, 10.0, 3.6, 1.8), (-2.5, -2.5, -0.6, -0.3)),
}

HCTM_ITEMS = [f"hctm{i:02d}" for i in range(1, 13)]
CTPA_ITEMS = [f"ctpa{i}" for i in range(1, 10)]
SURVEY_HEADER = ["participant_id", "instrument", "item_id", "score", "manip_pass", "condition"]


@dataclass
class Workload:
    """One generated workload, ready to run from `workdir`."""

    name: str
    workdir: Path
    invocations: list[list[str]]  # CLI arguments, one list per invocation
    items: int  # items one pass processes, the base of items_per_s
    item_kind: str
    layers: tuple[str, ...]  # layers a traced pass must reach
    truth: dict = field(default_factory=dict)  # generator-side facts for the oracles


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_telemetry(path: Path, t, pos, vel=None) -> None:
    cols = [t[:, None], pos] + ([vel] if vel is not None else [])
    header = "t,x,y,z" + (",vx,vy,vz" if vel is not None else "")
    np.savetxt(path, np.hstack(cols), fmt="%.6f", delimiter=",", header=header, comments="")


# --- campaign -----------------------------------------------------------------------

NAV_LOOP = [[0.0, 0.0, 1.0], [6.0, 0.0, 1.0], [6.0, 4.0, 1.0], [0.0, 4.0, 1.0]]
WALL = {"kind": "plane_segment", "p0": [0.0, 0.0], "p1": [6.0, 0.0], "height": 2.0,
        "material": "wall"}


def _loop_point(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point on the closed NAV_LOOP at arc length s, and the inward unit normal."""
    verts = np.array(NAV_LOOP)[:, :2]
    ends = np.roll(verts, -1, axis=0)
    lengths = np.linalg.norm(ends - verts, axis=1)
    s = np.mod(s, lengths.sum())
    seg = np.searchsorted(np.cumsum(lengths), s, side="right")
    start = np.concatenate(([0.0], np.cumsum(lengths)[:-1]))[seg]
    direction = (ends - verts)[seg] / lengths[seg, None]
    point = verts[seg] + direction * (s - start)[:, None]
    normal = np.column_stack([-direction[:, 1], direction[:, 0]])  # left of travel
    return point, normal


def _nav_flight(rng, n: int):
    """Laps of the loop at ~0.8 m/s with a slowly wandering lateral offset."""
    t = np.arange(n) / RATE_HZ
    speed = rng.uniform(0.6, 1.0)
    offset = rng.uniform(0.05, 0.25)
    wander = offset * np.sin(2 * np.pi * t / rng.uniform(20.0, 40.0) + rng.uniform(0, 6.3))
    point, normal = _loop_point(speed * t)
    xy = point + normal * (wander + rng.normal(0.0, 0.01, n))[:, None]
    z = 1.0 + rng.normal(0.0, 0.02, n)
    pos = np.column_stack([xy, z])
    vel = np.gradient(pos, t, axis=0)
    return t, pos, vel


def _collision_flight(rng, n: int, collides: bool):
    """Repeated approaches to the y = 0 wall; one approach crosses it if `collides`.

    Returns (t, pos, t_collision). Positions only: the CSV has no velocity
    columns, so the program derives kinematics.
    """
    t = np.arange(n) / RATE_HZ
    period = rng.uniform(15.0, 25.0)
    closest = rng.uniform(0.2, 0.5)
    far = closest + rng.uniform(1.0, 2.0)
    y = closest + (far - closest) * 0.5 * (1.0 + np.cos(2 * np.pi * t / period))
    t_collision = None
    if collides:
        i_dip = int(rng.uniform(0.3, 0.7) * n)
        dip = np.exp(-0.5 * ((t - t[i_dip]) / 1.5) ** 2)
        y = y - (y[i_dip] + 0.1) * dip
        t_collision = float(t[np.argmax(y < 0.0)])
    x = 3.0 + 2.5 * np.sin(2 * np.pi * t / (3.1 * period))
    z = 1.0 + rng.normal(0.0, 0.002, n)
    pos = np.column_stack([x + rng.normal(0.0, 0.002, n), y + rng.normal(0.0, 0.002, n), z])
    return t, pos, t_collision


def build_campaign(seed: int, workdir: Path, root: Path, scale: float = 1.0) -> Workload:
    rng = np.random.default_rng([seed, 1])
    n = max(100, int(5000 * scale))
    sample = json.loads((root / "sample_campaign" / "campaign.json").read_text(encoding="utf-8"))
    copied_tests = [t for t in sample["tests"] if t["kind"] in ("field", "mapping")]
    copied_ids = {t["test_id"] for t in copied_tests}
    for test in copied_tests:
        for key in ("criteria", "observations"):
            if key in test:
                name = test[key]
                (workdir / name).write_bytes((root / "sample_campaign" / name).read_bytes())

    tests = [
        {"test_id": "loop-nav", "kind": "nav", "environment": "lab",
         "path": {"vertices": NAV_LOOP, "closed": True}, "waypoint": [0.0, 0.0, 0.0]},
        {"test_id": "wall-oa", "kind": "collision", "environment": "lab", "obstacle": WALL},
    ] + copied_tests
    trials = []
    nav_files, oa_files, collided = [], [], {}
    for i in range(8):
        suas = ("alpha", "bravo")[i % 2]
        name = f"nav_{i}.csv"
        _write_telemetry(workdir / name, *_nav_flight(rng, n))
        nav_files.append(name)
        trials.append({"trial_id": f"n{i:02d}", "test_id": "loop-nav", "suas_id": suas,
                       "outcome": "success", "telemetry": name})
    for i in range(8):
        suas = ("alpha", "bravo")[i % 2]
        collides = i in (1, 4, 6)
        name = f"oa_{i}.csv"
        t, pos, t_c = _collision_flight(rng, n, collides)
        _write_telemetry(workdir / name, t, pos)
        oa_files.append(name)
        collided[name] = collides
        entry = {"trial_id": f"c{i:02d}", "test_id": "wall-oa", "suas_id": suas,
                 "outcome": "failure" if collides else "success",
                 "collisions": int(collides),
                 "oa_category": "OA-B2" if collides else "OA-A1",
                 "cr_category": "CR-B3" if collides else "CR-A1", "telemetry": name}
        if collides:
            entry["t_collision_s"] = t_c
        trials.append(entry)
    trials += [t for t in sample["trials"] if t["test_id"] in copied_ids]

    manifest = {
        "schema_version": 1,
        "suas": sample["suas"],
        "environments": sample["environments"],
        "tests": tests,
        "trials": trials,
    }
    (workdir / "campaign.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    (workdir / "loop.json").write_text(json.dumps({"vertices": NAV_LOOP, "closed": True}),
                                       encoding="utf-8")
    plotted = nav_files[0]
    return Workload(
        name="campaign",
        workdir=workdir,
        invocations=[
            ["report", "campaign.json"],
            ["plot", "--kind", "deviation", "--telemetry", plotted, "--path", "loop.json"],
        ],
        items=17 * n,
        item_kind="telemetry samples",
        layers=("cli", "ingest", "core", "nav", "collision", "field", "mapping", "stats",
                "report"),
        truth={"nav_files": nav_files, "oa_files": oa_files, "collided": collided,
               "plotted": plotted, "copied_tests": copied_tests,
               "copied_trials": [t for t in trials if t["test_id"] in copied_ids]},
    )


# --- surveys ------------------------------------------------------------------------

def _survey_rows(participants, items_scores):
    """participants: [(id, condition, manip_pass)]; items_scores(pid_index, item) -> score."""
    rows = []
    for p, (pid, condition, manip) in enumerate(participants):
        for instrument, items in (("HCTM", HCTM_ITEMS), ("CTPA", CTPA_ITEMS)):
            for item in items:
                rows.append([pid, instrument, item, items_scores(p, item),
                             "true" if manip else "false", condition])
    return rows


def build_survey_exact(seed: int, workdir: Path, root: Path, scale: float = 1.0) -> Workload:
    # Each valid group's scores per item are a shuffled fixed multiset whose
    # quartiles sit two points apart, so the 1.5 IQR fence removes nothing and
    # every seed runs the same C(20, 8) labelings per item.
    rng = random.Random(seed * 7919 + 2)
    n_a, n_b = (8, 12) if scale >= 1.0 else (4, 5)
    participants = ([(f"a{i:02d}", "caged", True) for i in range(n_a)]
                    + [(f"b{i:02d}", "exposed", True) for i in range(n_b)]
                    + [("x00", "exposed", False)])
    scores = {}
    for item in HCTM_ITEMS + CTPA_ITEMS:
        for label, n, base in (("a", n_a, rng.randint(3, 5)), ("b", n_b, rng.randint(2, 5))):
            third = -(-n // 3)
            multiset = [base] * third + [base + 2] * third
            multiset += [base + 1] * (n - len(multiset))
            rng.shuffle(multiset)
            scores[(label, item)] = multiset

    def score(p, item):
        pid = participants[p][0]
        if pid.startswith("x"):
            return rng.randint(1, 7)
        return scores[(pid[0], item)][int(pid[1:])]

    rows = _survey_rows(participants, score)
    _write_csv(workdir / "survey.csv", SURVEY_HEADER, rows)
    return _survey_workload("survey-exact", workdir, rows, ("cli", "ingest", "human_factors",
                                                            "stats", "report"))


def build_survey_large(seed: int, workdir: Path, root: Path, scale: float = 1.0) -> Workload:
    # Scores sit on two adjacent levels per item, so the quartiles are one
    # point apart and the fence removes the injected 1s and 7s.
    rng = random.Random(seed * 7919 + 3)
    n_a, n_b = (40, 2000) if scale >= 1.0 else (12, 40)
    fail_a, fail_b = max(1, n_a // 20), max(1, n_b // 100)
    participants = ([(f"a{i:04d}", "caged", i >= fail_a) for i in range(n_a)]
                    + [(f"b{i:04d}", "exposed", i >= fail_b) for i in range(n_b)])
    level = {(c, item): rng.randint(3, 4) + (1 if c == "a" else 0)
             for c in "ab" for item in HCTM_ITEMS + CTPA_ITEMS}

    def score(p, item):
        roll = rng.random()
        if roll < 0.02:
            return rng.choice((1, 7))
        return level[(participants[p][0][0], item)] + (roll < 0.51)

    rows = _survey_rows(participants, score)
    _write_csv(workdir / "survey.csv", SURVEY_HEADER, rows)
    return _survey_workload("survey-large", workdir, rows, ("cli", "ingest", "human_factors",
                                                            "stats", "report"))


def _survey_workload(name, workdir, rows, layers) -> Workload:
    return Workload(
        name=name,
        workdir=workdir,
        invocations=[["trust", "--survey", "survey.csv",
                      "--condition-a", "caged", "--condition-b", "exposed"]],
        items=len(rows),
        item_kind="survey rows",
        layers=layers,
        truth={"rows": rows},
    )


# --- cfis scores --------------------------------------------------------------------

SCORES_HEADER = ["suas_id", "test_id", "crashes", "rollovers", "completion",
                 "roll", "pitch", "lateral_obstruction", "vertical_obstruction"]


def build_scores(seed: int, workdir: Path, root: Path, scale: float = 1.0) -> Workload:
    rng = random.Random(seed * 7919 + 4)
    n_suas, n_tests = (50, 200) if scale >= 1.0 else (5, 8)
    bands = sorted(EC_BANDS)
    environments = []
    for k in range(n_tests):
        peak, jitter = EC_BANDS[bands[k % len(bands)]]
        environments.append([round(p + j * rng.random(), 3) for p, j in zip(peak, jitter)])
    rows = []
    for s in range(n_suas):
        for k in range(n_tests):
            rows.append([f"s{s:02d}", f"t{k:03d}", rng.randint(0, 2), rng.randint(0, 2),
                         round(rng.uniform(0.75, 1.0), 3), *environments[k]])
    _write_csv(workdir / "scores.csv", SCORES_HEADER, rows)
    return Workload(
        name="scores",
        workdir=workdir,
        invocations=[["cfis", "--scores", "scores.csv"]],
        items=len(rows),
        item_kind="score rows",
        layers=("cli", "ingest", "cfis", "report"),
        truth={"rows": rows},
    )


BUILDERS = {
    "campaign": build_campaign,
    "survey-exact": build_survey_exact,
    "survey-large": build_survey_large,
    "scores": build_scores,
}


def build(name: str, seed: int, workdir: Path, root: Path, scale: float = 1.0) -> Workload:
    """Generate workload `name` from `seed` into `workdir`, reading only `root`'s sample."""
    return BUILDERS[name](seed, workdir, root, scale)
