"""Report tables: parsed inputs in, the ReportTables each subcommand prints out.

The campaign builders read the typed tests of a parsed Campaign, load the
telemetry files its trials name as they need them, and leave out a table that
got no rows. The others take their subcommand's parsed
inputs. Tables come back in the order they are printed. Each builder imports
the domain modules it runs, so a subcommand loads only its own.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DataQualityWarning, DecisiveError, ParseError
from .ingest import (
    parse_capabilities,
    parse_feature_sheet,
    parse_feature_weights,
    parse_scores,
    parse_telemetry,
)
from .report import Column, ReportTable

if TYPE_CHECKING:
    from .core import Campaign

#: success-probability thresholds reported next to every completion rate
COMPLETION_P0 = (0.70, 0.85)


# --- campaign ----------------------------------------------------------------

def nav_tables(campaign: Campaign) -> list[ReportTable]:
    from . import nav as nav_mod
    from .core import APERTURE_TIERS, tests_of_kind
    from .stats import mean_std

    deviation = ReportTable("Path deviation", [
        Column("test"), Column("sUAS"), Column("flights", "number", 0),
        Column("per-flight AD", "text", unit="m"), Column("mean AD", "number", 3, "m"),
        Column("std AD", "number", 3, "m"),
    ])
    waypoints = ReportTable("Waypoint accuracy", [
        Column("test"), Column("sUAS"), Column("trials", "number", 0),
        Column("accuracy", "number", 3, "m"), Column("precision", "number", 3, "m"),
    ])
    tiers = ReportTable(
        "Aperture tiers",
        [Column("test"), Column("sUAS")] + [Column(t, "number", 0) for t in APERTURE_TIERS],
    )
    speed = ReportTable("Traversal speed", [
        Column("test"), Column("sUAS"), Column("length", "number", 1, "m"),
        Column("duration", "number", 1, "min"), Column("speed", "number", 3, "m/s"),
    ])

    for test in tests_of_kind(campaign, "nav"):
        test_id = test.test_id
        trials = campaign.trials_for_test(test_id)
        for suas_id in sorted({t.suas_id for t in trials}):
            mine = [t for t in trials if t.suas_id == suas_id]
            flights = [t for t in mine if t.telemetry]
            if test.path and flights:
                trajs = [(parse_telemetry(t.telemetry)[0], test.path) for t in flights]
                summary = nav_mod.deviation_summary(trajs)
                per_flight = " ".join(f"{ad:.3f}" for ad in summary.per_flight_ad)
                deviation.add_row(test_id, suas_id, len(flights), per_flight,
                                  summary.mean_ad, summary.std_ad)
                if test.waypoint:
                    errors = [nav_mod.waypoint_error(traj.pos[-1], test.waypoint)
                              for traj, _ in trajs]
                    acc, prec = mean_std(errors)
                    waypoints.add_row(test_id, suas_id, len(errors), acc, prec)
            tiered = [t for t in mine if t.aperture_tier]
            if tiered:
                counts = Counter(t.aperture_tier for t in tiered)
                tiers.add_row(test_id, suas_id, *[counts[tier] for tier in APERTURE_TIERS])
            if test.length_m:
                total = sum(t.duration_min for t in mine)
                if total > 0:
                    length = test.length_m * len(mine)
                    speed.add_row(test_id, suas_id, length, total,
                                  nav_mod.traversal_speed(length, total))
    return [t for t in (deviation, waypoints, tiers, speed) if t.rows]


def collision_tables(campaign: Campaign) -> list[ReportTable]:
    from . import collision as coll
    from .core import CR_CATEGORIES, OA_CATEGORIES, tests_of_kind

    tables = []
    numeric = ReportTable("Obstacle avoidance and severity", [
        Column("test"), Column("sUAS"), Column("flight"), Column("collisions", "number", 0),
        Column("min distance", "number", 3, "m"), Column("min TTC", "number", 2, "s"),
        Column("severity index", "number", 3), Column("max delta-v", "number", 3, "m/s"),
    ])
    for test in tests_of_kind(campaign, "collision"):
        test_id = test.test_id
        per_suas: dict[str, list] = {}
        for trial in sorted(campaign.trials_for_test(test_id), key=lambda t: t.trial_id):
            if not trial.telemetry:
                continue
            traj, _ = parse_telemetry(trial.telemetry)
            collided = trial.collisions > 0
            try:
                m = coll.flight_metrics(traj, test.obstacle, collided, trial.t_collision_s)
            except DecisiveError as exc:
                raise DecisiveError(f"trial {trial.trial_id}: {exc}") from None
            numeric.add_row(test_id, trial.suas_id, trial.trial_id, trial.collisions,
                            m.min_distance, m.min_ttc, m.severity, m.delta_v)
            per_suas.setdefault(trial.suas_id, []).append((collided, m))
        for suas_id, rows in sorted(per_suas.items()):
            flights = [m for _, m in rows]
            dvs = [m.delta_v for m in flights if m.delta_v is not None]
            numeric.add_row(test_id, suas_id, "count/average",
                            sum(1 for collided, _ in rows if collided),  # flights with a collision
                            coll.aggregate_flights([m.min_distance for m in flights]),
                            coll.aggregate_flights([m.min_ttc for m in flights]),
                            coll.aggregate_flights([m.severity for m in flights]),
                            coll.aggregate_flights(dvs) if dvs else None)
    if numeric.rows:
        tables.append(numeric)

    def obstacle_type(trial):
        obstacle = campaign.tests[trial.test_id].obstacle
        return obstacle.material if obstacle else trial.test_id

    for taxonomy, attr, vocab in (("OA", "oa_category", OA_CATEGORIES),
                                  ("CR", "cr_category", CR_CATEGORIES)):
        rows = [t for t in campaign.trials if getattr(t, attr) is not None]
        if not rows:
            continue
        table = ReportTable(
            f"{taxonomy} category distribution",
            [Column("obstacle")] + [Column(c, "number", 0, "%") for c in vocab],
        )
        dist = coll.category_distribution(rows, attr, vocab, obstacle_type)
        for group, percentages in dist.items():
            table.add_row(group, *[percentages[c] for c in vocab])
        tables.append(table)
    return tables


def field_tables(campaign: Campaign) -> list[ReportTable]:
    from . import field as field_mod
    from . import stats as stats_mod
    from .core import tests_of_kind

    endurance = ReportTable("Runtime endurance", [
        Column("test"), Column("sUAS"), Column("duration", "number", 0, "min"),
        Column("distance", "number", 0, "m"), Column("avg speed", "number", 2, "m/s"),
    ])
    completion = ReportTable("Completion", [
        Column("test"), Column("sUAS"), Column("successes", "number", 0),
        Column("failures", "number", 0), Column("completion", "number", 0, "%"),
    ] + [Column(f"conf p>={p0:.2f}", "number", 3) for p0 in COMPLETION_P0])
    nlos = ReportTable("NLOS maximum performance", [
        Column("test"), Column("mode"), Column("distance", "number", 0, "m"),
        Column("obstructions"),
    ])
    checklist = ReportTable("Requirements met", [
        Column("test"), Column("sUAS"), Column("field"), Column("met", "glyph"),
        Column("percentage", "number", 0, "%"),
    ])
    for test in tests_of_kind(campaign, "field"):
        test_id = test.test_id
        trials = campaign.trials_for_test(test_id)
        for suas_id in sorted({t.suas_id for t in trials}):
            mine = [t for t in trials if t.suas_id == suas_id]
            for trial in mine:
                if trial.laps is not None and trial.duration_min > 0:
                    distance, avg = field_mod.endurance_metrics(trial.laps, trial.duration_min)
                    endurance.add_row(test_id, suas_id, trial.duration_min, distance, avg)
            successes = sum(1 for t in mine if t.outcome == "success")
            failures = len(mine) - successes
            if mine:
                rate = stats_mod.completion_rate(successes, failures)
                confidences = [
                    stats_mod.completion_confidence(successes, failures, p0)
                    for p0 in COMPLETION_P0
                ]
                completion.add_row(test_id, suas_id, successes, failures,
                                   100.0 * rate, *confidences)
        if test.nlos_positions:
            static, flying = field_mod.nlos_max_performance(test.nlos_positions)
            for mode, best in (("static", static), ("flying", flying)):
                if best is None:
                    nlos.add_row(test_id, mode, 0, "")
                else:
                    obstructions = "; ".join(f"{c} {m}" for c, m in best.obstructions)
                    nlos.add_row(test_id, mode, best.distance, obstructions)
        if test.criteria and test.responses:
            for suas_id in sorted(test.responses):
                result = field_mod.requirements_met(test.responses[suas_id], test.criteria)
                for field_name in sorted(result.per_field):
                    met = "good" if result.per_field[field_name] else "none"
                    checklist.add_row(test_id, suas_id, field_name, met, result.percentage)
    return [t for t in (endurance, completion, nlos, checklist) if t.rows]


def mapping_tables(campaign: Campaign) -> list[ReportTable]:
    from . import mapping as mapping_mod
    from .core import tests_of_kind
    from .stats import mean_std

    tables = []
    for test in tests_of_kind(campaign, "mapping"):
        test_id, truth, obs = test.test_id, test.fiducials, test.observations
        if truth:
            difficulty = ReportTable(f"Fiducial difficulty: {test_id}", [
                Column("fiducial"), Column("min traversal", "number", 0, "m"),
                Column("min turns", "number", 0), Column("rating"),
            ])
            for g in truth:
                difficulty.add_row(
                    g.fiducial_id, g.min_traversal, g.min_turns,
                    mapping_mod.difficulty_rating(g.min_traversal, g.min_turns),
                )
            tables.append(difficulty)

        summary = ReportTable(f"Map metrics: {test_id}",
                              [Column("metric"), Column("value", "number", 1), Column("unit")])
        if obs and truth:
            summary.add_row("coverage", mapping_mod.fiducial_coverage(obs, truth), "%")
            try:
                summary.add_row("global error", mapping_mod.global_error(obs, truth), "cm")
            except DecisiveError as exc:
                warnings.warn(f"{test_id}: global error skipped: {exc}", DataQualityWarning)
        if test.shape_classes:
            classes = [test.shape_classes[k] for k in sorted(test.shape_classes)]
            summary.add_row("shape accuracy", mapping_mod.shape_accuracy_rate(classes), "%")
        if test.dimensions:
            summary.add_row(
                "dimensional accuracy", mapping_mod.dimensional_accuracy(*test.dimensions), "%"
            )
        if test.fov:
            summary.add_row("FOV coverage", mapping_mod.fov_coverage(*test.fov), "%")
        if test.acuity_levels:
            mean, std = mean_std(test.acuity_levels)
            summary.add_row("mean acuity", mean, "mm")
            summary.add_row("acuity std", std, "mm")
        if summary.rows:
            tables.append(summary)
    return tables


#: the campaign table builders by test category, in report order
CAMPAIGN_TABLES = {"nav": nav_tables, "collision": collision_tables, "field": field_tables,
                   "mapping": mapping_tables}


# --- ncap --------------------------------------------------------------------

def _load_weights(weights_arg: str, sheet, features: Path) -> dict[str, float]:
    """The normalized feature weights `--weights` names: uniform, degree or a weight file."""
    from . import ncap as ncap_mod

    names = [f.name for f in sheet.table.features]
    if weights_arg == "uniform":
        return ncap_mod.uniform_weights(names)
    if weights_arg == "degree":
        missing = [n for n in names if n not in sheet.degrees]
        if missing:
            raise ParseError(f"no degree-of-autonomy for features: {', '.join(missing)}",
                             str(features))
        return ncap_mod.degree_of_autonomy_weights(sheet.degrees)
    return ncap_mod.explicit_weights(parse_feature_weights(weights_arg, names))


def ncap_results(features: Path, weights_arg: str, caps: Path | None) -> list:
    """Ranked NcapResults for a feature sheet, a weight scheme and optional capability flags."""
    from . import ncap as ncap_mod

    sheet = parse_feature_sheet(features)
    weights = _load_weights(weights_arg, sheet, features)
    potentials = ncap_mod.component_potential(sheet.table, weights)

    caps_by_id = dict(sheet.capabilities)
    if caps:
        caps_by_id.update(parse_capabilities(caps, potentials))
    missing = [sid for sid in potentials if sid not in caps_by_id]
    if missing:
        raise ParseError(f"no capability flags for: {', '.join(sorted(missing))}", str(features))

    scores = {sid: (ncap_mod.autonomy_level(caps_by_id[sid]), potential)
              for sid, potential in potentials.items()}
    return ncap_mod.autonomy_distances(scores)


def ncap_tables(results) -> list[ReportTable]:
    table = ReportTable("Non-contextual autonomy ranking", [
        Column("sUAS"), Column("autonomy level", "number", 0),
        Column("component potential", "number", 2), Column("absolute distance", "number", 2),
        Column("relative distance", "number", 2), Column("rank", "number", 0),
    ])
    for r in results:
        table.add_row(r.suas_id, r.n_al, r.n_cp, r.absolute_distance, r.relative_distance, r.rank)
    return [table]


# --- cfis --------------------------------------------------------------------

def cfis_tables(config, scores_path: Path) -> list[ReportTable]:
    """Per-test contextual scores (unless the file holds precomputed ones) and predictive scores."""
    import numpy as np

    from . import cfis as cfis_mod

    axis_vars = {name: tuple(fis.inputs) for name, fis in config.fis.items()
                 if name not in config.cascade}
    variables = list(dict.fromkeys(v for names in axis_vars.values() for v in names))
    scores = parse_scores(scores_path, variables)

    tables = []
    if scores.precomputed:
        normalized = scores.numbers["score"]
    else:
        detail = ReportTable(
            "Contextual autonomy per test",
            [Column("sUAS"), Column("test")]
            + [Column(f"{axis} score", "number", 3) for axis in sorted(axis_vars)]
            + [Column("combined", "number", 3), Column("normalized", "number", 2)],
        )
        columns = {v: np.array(scores.numbers[v]) for v in variables}

        def where(row: int) -> tuple[str, str]:
            return (f"{scores.suas_ids[row]}/{scores.test_ids[row]}",
                    f"{scores_path}:{scores.lines[row]}")

        scored = cfis_mod.cascade_columns(config, columns, where)
        axes = []
        for name in sorted(axis_vars):
            values = scored.axes[name].tolist()
            if np.isnan(scored.axes[name]).any():  # a row that skips the axis: an empty cell
                values = [None if math.isnan(x) else x for x in values]
            axes.append(values)
        normalized = scored.normalized.tolist()
        detail.cells = [scores.suas_ids, scores.test_ids, *axes, scored.combined.tolist(),
                        normalized]
        tables.append(detail)

    per_suas: dict[str, dict[str, float]] = {}
    for suas_id, test_id, score in zip(scores.suas_ids, scores.test_ids, normalized):
        per_suas.setdefault(suas_id, {})[test_id] = score

    predictive = ReportTable(
        "Predictive mission score",
        [Column("sUAS"), Column("tests", "number", 0), Column("predictive score", "number", 2)],
    )
    for suas_id in sorted(per_suas):
        scores = per_suas[suas_id]
        try:
            score = cfis_mod.predictive_score(scores)
        except DecisiveError as exc:
            raise DecisiveError(f"{suas_id}/{exc}") from None
        predictive.add_row(suas_id, len(scores), score)
    tables.append(predictive)
    return tables


# --- sa ----------------------------------------------------------------------

def sa_tables(sagat, weights: dict[str, float] | None, missions: dict) -> list[ReportTable]:
    """SAGAT rates, OSA per participant, OSA by mission; no `weights` weighs every element 1.
    The mission table's "overall" row is the OSA table's mean and std; it takes the place of
    a mission of that name. A weighted element that no SAGAT answer names warns, and so does
    an answered element with no weight."""
    from . import human_factors as hf
    from .stats import mean_std

    rates = hf.sagat_correct_rates(sagat)
    vectors = hf.perception_vectors(sagat)
    if weights is None:
        weights = {se: 1.0 for se in rates}
    for se in weights:
        if se not in rates:
            warnings.warn(f"SA element {se!r} has a weight but no SAGAT answer",
                          DataQualityWarning)
    for se in rates:
        if se not in weights:
            warnings.warn(f"SAGAT element {se!r} has no weight; it is left out of OSA",
                          DataQualityWarning)

    rate_table = ReportTable(
        "SAGAT correct rate",
        [Column("element"), Column("asked", "number", 0), Column("correct rate", "number", 3)],
    )
    for se in sorted(rates):
        rate_table.add_row(se, *rates[se])

    osa_table = ReportTable(
        "Operator situation awareness",
        [Column("participant"), Column("OSA", "number", 3)],
    )
    by_participant = hf.osa_by_participant(weights, vectors, weights)
    participants = sorted(by_participant)
    scores = [by_participant[p] for p in participants]
    grid = {}
    if scores:
        grid["overall"] = mean, std = mean_std(scores)
        osa_table.cells = [participants + ["mean", "std"], scores + [mean, std]]

    tables = [rate_table, osa_table]
    for name, elements in missions.items():
        if name != "overall":
            mission_scores = hf.osa_by_participant(weights, vectors, elements)
            if mission_scores:
                grid[name] = mean_std(list(mission_scores.values()))
    if len(grid) > 1:  # more than the overall row
        mission_table = ReportTable(
            "OSA by mission",
            [Column("mission"), Column("mean", "number", 2), Column("std", "number", 2)],
        )
        for name in sorted(grid):
            mission_table.add_row(name, *grid[name])
        tables.append(mission_table)
    return tables


# --- trust -------------------------------------------------------------------

def trust_tables(survey, condition_a: str, condition_b: str) -> list[ReportTable]:
    from . import human_factors as hf

    result = hf.trust_pipeline(survey, condition_a, condition_b)
    table = ReportTable(f"Trust comparison: {condition_a} vs {condition_b}", [
        Column("instrument"), Column("item"), Column(f"mean {condition_a}", "number", 2),
        Column(f"mean {condition_b}", "number", 2), Column("t", "number", 2),
        Column("t p", "number", 4), Column("U", "number", 1), Column("p", "number", 4),
    ])
    for item in result.items:
        table.add_row(item.instrument, item.item_id, item.mean_a, item.mean_b,
                      item.t_statistic, item.t_p, item.test.u, item.test.p_two_sided)
    return [table]
