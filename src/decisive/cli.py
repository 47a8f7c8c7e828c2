"""Command-line surface.

Subcommands: validate, metrics, ncap, cfis, sa, trust, report, plot.
Data goes to stdout or --out; diagnostics go to stderr. Exit codes: 0 on
success, 1 for input or validation problems, 2 for computation failures.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

from . import cfis as cfis_mod
from . import collision as coll
from . import field as field_mod
from . import human_factors as hf
from . import mapping as mapping_mod
from . import nav as nav_mod
from . import ncap as ncap_mod
from . import stats as stats_mod
from .core import tests_of_kind
from .errors import DataQualityWarning, DecisiveError, ParseError
from .ingest import (
    ground_truth_from_test,
    nlos_positions_from_test,
    obstacle_from_test,
    parse_campaign,
    parse_capabilities,
    parse_criteria,
    parse_feature_sheet,
    parse_feature_weights,
    parse_fiducial_observations,
    parse_fis_config,
    parse_reference_path,
    parse_sa_weights,
    parse_sagat,
    parse_scores,
    parse_survey,
    parse_telemetry,
    reference_path_from_test,
)
from .report import Column, ReportTable, plot_svg, render_tables

DEFAULT_FIS = Path(__file__).parent / "configs" / "takeoff_land.json"

#: success-probability thresholds reported next to every completion rate
COMPLETION_P0 = (0.70, 0.85)


def _color_allowed() -> bool:
    return sys.stderr.isatty() and not os.environ.get("DECISIVE_NO_COLOR")


def _diag(message: str) -> None:
    prefix = "\x1b[31merror:\x1b[0m" if _color_allowed() else "error:"
    print(f"{prefix} {message}", file=sys.stderr)


def _data_quality_to_warn(showwarning):
    """A `warnings.showwarning` that prints each DataQualityWarning as a `warning:` line.

    This is the only place the CLI reports a non-fatal data issue.
    """

    def show(message, category, filename, lineno, file=None, line=None):
        if issubclass(category, DataQualityWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            showwarning(message, category, filename, lineno, file, line)

    return show


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        _diag(message)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="decisive", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", type=Path, help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("md", "csv", "json"), default="md")
        p.add_argument("--ascii-glyphs", action="store_true",
                       help="render status glyphs as ok/bad/none")

    p = sub.add_parser("validate", help="parse and cross-check a campaign manifest")
    p.add_argument("manifest", type=Path)

    p = sub.add_parser("metrics", help="compute metric tables for one test category")
    p.add_argument("manifest", type=Path)
    p.add_argument("--test", choices=("nav", "collision", "field", "mapping"), required=True)
    add_common(p)

    p = sub.add_parser("ncap", help="non-contextual autonomy ranking")
    p.add_argument("--features", type=Path, required=True, help="feature sheet JSON")
    p.add_argument("--weights", default="uniform",
                   help="'uniform', 'degree', or a JSON file of explicit weights")
    p.add_argument("--caps", type=Path,
                   help="capability flags JSON (overrides the sheet's capabilities)")
    add_common(p)

    p = sub.add_parser("cfis", help="contextual autonomy scoring")
    p.add_argument("--fis", type=Path, default=DEFAULT_FIS, help="FIS config JSON")
    p.add_argument("--scores", type=Path, required=True,
                   help="CSV of per-test inputs (suas_id,test_id,<variables...>) "
                        "or precomputed scores (suas_id,test_id,score)")
    add_common(p)

    p = sub.add_parser("sa", help="situation-awareness scoring from SAGAT responses")
    p.add_argument("--sagat", type=Path, required=True)
    p.add_argument("--weights", type=Path,
                   help="JSON attention weights; uniform over elements when omitted")
    add_common(p)

    p = sub.add_parser("trust", help="trust-survey comparison between two conditions")
    p.add_argument("--survey", type=Path, required=True)
    p.add_argument("--condition-a", required=True)
    p.add_argument("--condition-b", required=True)
    add_common(p)

    p = sub.add_parser("report", help="render every computable table for a campaign")
    p.add_argument("manifest", type=Path)
    add_common(p)

    p = sub.add_parser("plot", help="emit an SVG plot")
    p.add_argument("--kind", choices=("ncap-scatter", "deviation"), required=True)
    p.add_argument("--features", type=Path, help="feature sheet (ncap-scatter)")
    p.add_argument("--weights", default="uniform")
    p.add_argument("--caps", type=Path)
    p.add_argument("--telemetry", type=Path, help="telemetry CSV (deviation)")
    p.add_argument("--path", type=Path, help="reference path JSON (deviation)")
    p.add_argument("--out", type=Path)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    handlers = {
        "validate": cmd_validate,
        "metrics": cmd_metrics,
        "ncap": cmd_ncap,
        "cfis": cmd_cfis,
        "sa": cmd_sa,
        "trust": cmd_trust,
        "report": cmd_report,
        "plot": cmd_plot,
    }
    try:
        with warnings.catch_warnings():
            # every occurrence, not once per code location
            warnings.simplefilter("always", DataQualityWarning)
            warnings.showwarning = _data_quality_to_warn(warnings.showwarning)
            return handlers[args.command](args)
    except ParseError as exc:
        _diag(str(exc))
        return 1
    except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        _diag(f"invalid input: {exc}")
        return 1
    except DecisiveError as exc:
        _diag(str(exc))
        return 2


def _write_output(data: bytes, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        out.write_bytes(data)


def _emit_tables(tables, args) -> int:
    data = render_tables(tables, args.format, args.ascii_glyphs)
    _write_output(data, args.out)
    return 0


# --- validate -----------------------------------------------------------------

def cmd_validate(args) -> int:
    campaign, report = parse_campaign(args.manifest)
    counts = ", ".join(f"{v} {k}" for k, v in report.counts.items())
    print(f"{args.manifest}: OK ({counts})", file=sys.stderr)
    return 0


# --- metrics -----------------------------------------------------------------

def cmd_metrics(args) -> int:
    campaign, _ = parse_campaign(args.manifest)
    builders = {
        "nav": _nav_tables,
        "collision": _collision_tables,
        "field": _field_tables,
        "mapping": _mapping_tables,
    }
    tables = builders[args.test](campaign, args.manifest.parent)
    if not tables:
        _diag(f"no {args.test} tests in {args.manifest}")
        return 1
    return _emit_tables(tables, args)


def _nav_tables(campaign, base: Path) -> list[ReportTable]:
    tables = []
    deviation = ReportTable(
        "Path deviation",
        [
            Column("test"),
            Column("sUAS"),
            Column("flights", "number", 0),
            Column("per-flight AD", "text", unit="m"),
            Column("mean AD", "number", 3, "m"),
            Column("std AD", "number", 3, "m"),
        ],
    )
    waypoints = ReportTable(
        "Waypoint accuracy",
        [
            Column("test"),
            Column("sUAS"),
            Column("trials", "number", 0),
            Column("accuracy", "number", 3, "m"),
            Column("precision", "number", 3, "m"),
        ],
    )
    tiers = ReportTable(
        "Aperture tiers",
        [Column("test"), Column("sUAS")] + [Column(t, "number", 0) for t in ("A1", "A2", "A3", "B1")],
    )
    speed = ReportTable(
        "Traversal speed",
        [
            Column("test"),
            Column("sUAS"),
            Column("length", "number", 1, "m"),
            Column("duration", "number", 1, "min"),
            Column("speed", "number", 3, "m/s"),
        ],
    )

    for test in tests_of_kind(campaign, "nav"):
        test_id = test["test_id"]
        trials = campaign.trials_for_test(test_id)
        by_suas = sorted({t.suas_id for t in trials})
        path = reference_path_from_test(test) if test.get("path") else None
        for suas_id in by_suas:
            mine = [t for t in trials if t.suas_id == suas_id]
            flights = [t for t in mine if t.telemetry]
            if path and flights:
                trajs = [(parse_telemetry(base / t.telemetry)[0], path) for t in flights]
                summary = nav_mod.deviation_summary(trajs)
                per_flight = " ".join(f"{ad:.3f}" for ad in summary.per_flight_ad)
                deviation.add_row(test_id, suas_id, len(flights), per_flight,
                                  summary.mean_ad, summary.std_ad)
                if test.get("waypoint"):
                    errors = [
                        nav_mod.waypoint_error(traj.pos[-1], test["waypoint"])
                        for traj, _ in trajs
                    ]
                    acc, prec = nav_mod.waypoint_summary(errors)
                    waypoints.add_row(test_id, suas_id, len(errors), acc, prec)
            tiered = [t for t in mine if t.aperture_tier]
            if tiered:
                counts = {tier: 0 for tier in ("A1", "A2", "A3", "B1")}
                for t in tiered:
                    counts[t.aperture_tier] += 1
                tiers.add_row(test_id, suas_id, *counts.values())
            if test.get("length_m"):
                total = sum(t.duration for t in mine)
                if total > 0:
                    length = float(test["length_m"]) * len(mine)
                    speed.add_row(test_id, suas_id, length, total,
                                  nav_mod.traversal_speed(length, total))
    return [t for t in (deviation, waypoints, tiers, speed) if t.rows]


def _collision_tables(campaign, base: Path) -> list[ReportTable]:
    tables = []
    numeric = ReportTable(
        "Obstacle avoidance and severity",
        [
            Column("test"),
            Column("sUAS"),
            Column("flight"),
            Column("collisions", "number", 0),
            Column("min distance", "number", 3, "m"),
            Column("min TTC", "number", 2, "s"),
            Column("severity index", "number", 3),
            Column("max delta-v", "number", 3, "m/s"),
        ],
    )
    for test in tests_of_kind(campaign, "collision"):
        test_id = test["test_id"]
        obstacle = obstacle_from_test(test)
        trials = campaign.trials_for_test(test_id)
        per_suas: dict[str, list] = {}
        for trial in sorted(trials, key=lambda t: t.trial_id):
            if not trial.telemetry:
                continue
            traj, _ = parse_telemetry(base / trial.telemetry)
            collided = trial.collisions > 0
            m = coll.flight_metrics(traj, obstacle, collided, trial.t_collision)
            numeric.add_row(test_id, trial.suas_id, trial.trial_id, trial.collisions,
                            m.min_distance, m.min_ttc, m.severity, m.delta_v)
            per_suas.setdefault(trial.suas_id, []).append((collided, m))
        for suas_id, rows in sorted(per_suas.items()):
            flights = [m for _, m in rows]
            dvs = [m.delta_v for m in flights if m.delta_v is not None]
            numeric.add_row(
                test_id,
                suas_id,
                "count/average",
                sum(1 for collided, _ in rows if collided),  # flights with a collision
                coll.aggregate_flights([m.min_distance for m in flights]),
                coll.aggregate_flights([m.min_ttc for m in flights]),
                coll.aggregate_flights([m.severity for m in flights]),
                coll.aggregate_flights(dvs) if dvs else None,
            )
    if numeric.rows:
        tables.append(numeric)

    def obstacle_type(trial):
        test = campaign.tests.get(trial.test_id, {})
        return test.get("obstacle", {}).get("material", trial.test_id)

    for which, attr in (("oa", "oa_category"), ("cr", "cr_category")):
        rows = [t for t in campaign.trials if getattr(t, attr) is not None]
        if not rows:
            continue
        vocab = coll.OA_CATEGORIES if which == "oa" else coll.CR_CATEGORIES
        table = ReportTable(
            f"{which.upper()} category distribution",
            [Column("obstacle")] + [Column(c, "number", 0, "%") for c in vocab],
        )
        dist = coll.category_distribution(rows, which, group_by=obstacle_type)
        for group, percentages in dist.items():
            table.add_row(group, *[percentages[c] for c in vocab])
        tables.append(table)
    return tables


def _field_tables(campaign, base: Path) -> list[ReportTable]:
    tables = []
    endurance = ReportTable(
        "Runtime endurance",
        [
            Column("test"),
            Column("sUAS"),
            Column("duration", "number", 0, "min"),
            Column("distance", "number", 0, "m"),
            Column("avg speed", "number", 2, "m/s"),
        ],
    )
    completion = ReportTable(
        "Completion",
        [
            Column("test"),
            Column("sUAS"),
            Column("successes", "number", 0),
            Column("failures", "number", 0),
            Column("completion", "number", 0, "%"),
        ]
        + [Column(f"conf p>={p0:.2f}", "number", 3) for p0 in COMPLETION_P0],
    )
    nlos = ReportTable(
        "NLOS maximum performance",
        [
            Column("test"),
            Column("mode"),
            Column("distance", "number", 0, "m"),
            Column("obstructions"),
        ],
    )
    checklist = ReportTable(
        "Requirements met",
        [
            Column("test"),
            Column("sUAS"),
            Column("field"),
            Column("met", "glyph"),
            Column("percentage", "number", 0, "%"),
        ],
    )
    for test in tests_of_kind(campaign, "field"):
        test_id = test["test_id"]
        trials = campaign.trials_for_test(test_id)
        for suas_id in sorted({t.suas_id for t in trials}):
            mine = [t for t in trials if t.suas_id == suas_id]
            for trial in mine:
                if trial.laps is not None and trial.duration > 0:
                    distance, avg = field_mod.endurance_metrics(trial.laps, trial.duration)
                    endurance.add_row(test_id, suas_id, trial.duration, distance, avg)
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
        positions = nlos_positions_from_test(test)
        if positions:
            static, flying = field_mod.nlos_max_performance(positions)
            for mode, best in (("static", static), ("flying", flying)):
                if best is None:
                    nlos.add_row(test_id, mode, 0, "")
                else:
                    obstructions = "; ".join(f"{c} {m}" for c, m in best.obstructions)
                    nlos.add_row(test_id, mode, best.distance, obstructions)
        if test.get("criteria") and test.get("responses"):
            criteria, _ = parse_criteria(base / test["criteria"])
            for suas_id in sorted(test["responses"]):
                result = field_mod.requirements_met(test["responses"][suas_id], criteria)
                for field_name in sorted(result.per_field):
                    checklist.add_row(
                        test_id, suas_id, field_name,
                        "good" if result.per_field[field_name] else "none",
                        result.percentage,
                    )
    return [t for t in (endurance, completion, nlos, checklist) if t.rows]


def _mapping_tables(campaign, base: Path) -> list[ReportTable]:
    tables = []
    for test in tests_of_kind(campaign, "mapping"):
        test_id = test["test_id"]
        truth = ground_truth_from_test(test)
        if truth:
            difficulty = ReportTable(
                f"Fiducial difficulty: {test_id}",
                [
                    Column("fiducial"),
                    Column("min traversal", "number", 0, "m"),
                    Column("min turns", "number", 0),
                    Column("rating"),
                ],
            )
            for g in truth:
                difficulty.add_row(
                    g.fiducial_id, g.min_traversal, g.min_turns,
                    mapping_mod.difficulty_rating(g.min_traversal, g.min_turns),
                )
            tables.append(difficulty)

        summary = ReportTable(
            f"Map metrics: {test_id}",
            [Column("metric"), Column("value", "number", 1), Column("unit")],
        )
        if test.get("observations") and truth:
            obs, _ = parse_fiducial_observations(base / test["observations"])
            summary.add_row("coverage", mapping_mod.fiducial_coverage(obs, truth), "%")
            try:
                summary.add_row("global error", mapping_mod.global_error(obs, truth), "cm")
            except DecisiveError as exc:
                warnings.warn(f"{test_id}: global error skipped: {exc}", DataQualityWarning)
        if test.get("shape_classes"):
            classes = [test["shape_classes"][k] for k in sorted(test["shape_classes"])]
            summary.add_row("shape accuracy", mapping_mod.shape_accuracy_rate(classes), "%")
        if test.get("dimensions"):
            dims = test["dimensions"]
            summary.add_row(
                "dimensional accuracy",
                mapping_mod.dimensional_accuracy(dims["reported"], dims["truth"]),
                "%",
            )
        if test.get("fov"):
            summary.add_row(
                "FOV coverage",
                mapping_mod.fov_coverage(int(test["fov"]["visible"]), int(test["fov"]["total"])),
                "%",
            )
        if test.get("acuity_levels"):
            mean, std = mapping_mod.acuity_summary(test["acuity_levels"])
            summary.add_row("mean acuity", mean, "mm")
            summary.add_row("acuity std", std, "mm")
        if summary.rows:
            tables.append(summary)
    return tables


# --- ncap -----------------------------------------------------------------------

def _load_weight_scheme(weights_arg: str, sheet) -> ncap_mod.WeightScheme:
    names = [f.name for f in sheet.table.features]
    if weights_arg == "uniform":
        return ncap_mod.WeightScheme.uniform(names)
    if weights_arg == "degree":
        missing = [n for n in names if n not in sheet.degrees]
        if missing:
            raise ParseError(f"no degree-of-autonomy for features: {', '.join(missing)}")
        return ncap_mod.WeightScheme.degree_of_autonomy(sheet.degrees)
    return ncap_mod.WeightScheme.explicit(parse_feature_weights(weights_arg, names))


def _ncap_results(args):
    sheet, _ = parse_feature_sheet(args.features)
    scheme = _load_weight_scheme(args.weights, sheet)
    potentials = ncap_mod.component_potential(sheet.table, scheme)

    caps_by_id = dict(sheet.capabilities)
    if args.caps:
        caps_by_id.update(parse_capabilities(args.caps))
    missing = [sid for sid in potentials if sid not in caps_by_id]
    if missing:
        raise ParseError(f"no capability flags for: {', '.join(sorted(missing))}")

    scores = {
        sid: (ncap_mod.autonomy_level(caps_by_id[sid]), potential)
        for sid, potential in potentials.items()
    }
    return ncap_mod.autonomy_distances(scores)


def cmd_ncap(args) -> int:
    results = _ncap_results(args)
    table = ReportTable(
        "Non-contextual autonomy ranking",
        [
            Column("sUAS"),
            Column("autonomy level", "number", 0),
            Column("component potential", "number", 2),
            Column("absolute distance", "number", 2),
            Column("relative distance", "number", 2),
            Column("rank", "number", 0),
        ],
    )
    for r in results:
        table.add_row(r.suas_id, r.n_al, r.n_cp, r.absolute_distance, r.relative_distance, r.rank)
    return _emit_tables([table], args)


# --- cfis ----------------------------------------------------------------------

def cmd_cfis(args) -> int:
    config, _ = parse_fis_config(args.fis)
    axis_vars = {
        name: set(fis.inputs)
        for name, fis in config.fis.items()
        if name not in config.cascade
    }
    precomputed, rows = parse_scores(args.scores, set().union(*axis_vars.values()))

    tables = []
    per_suas: dict[str, dict[str, float]] = {}
    if precomputed:
        for suas_id, test_id, numbers in rows:
            per_suas.setdefault(suas_id, {})[test_id] = numbers["score"]
    else:
        detail = ReportTable(
            "Contextual autonomy per test",
            [Column("sUAS"), Column("test")]
            + [Column(f"{axis} score", "number", 3) for axis in sorted(axis_vars)]
            + [Column("combined", "number", 3), Column("normalized", "number", 2)],
        )
        for suas_id, test_id, numbers in rows:
            inputs = {
                axis: {v: numbers[v] for v in variables}
                for axis, variables in axis_vars.items()
                if variables <= numbers.keys()
            }
            if not inputs:
                raise ParseError(
                    f"row for {suas_id}/{test_id} matches no axis inputs", str(args.scores)
                )
            result = cfis_mod.cascade_eval(config, inputs)
            ideal = cfis_mod.ideal_combined(config, inputs)
            normalized = cfis_mod.normalized_test_score(result.combined, ideal)
            detail.add_row(
                suas_id,
                test_id,
                *[result.axis_scores.get(a) for a in sorted(axis_vars)],
                result.combined,
                normalized,
            )
            per_suas.setdefault(suas_id, {})[test_id] = normalized
        tables.append(detail)

    predictive = ReportTable(
        "Predictive mission score",
        [Column("sUAS"), Column("tests", "number", 0), Column("predictive score", "number", 2)],
    )
    for suas_id in sorted(per_suas):
        scores = per_suas[suas_id]
        predictive.add_row(suas_id, len(scores), cfis_mod.predictive_score(scores))
    tables.append(predictive)
    return _emit_tables(tables, args)


# --- sa ------------------------------------------------------------------------

def cmd_sa(args) -> int:
    responses, _ = parse_sagat(args.sagat)
    rates = hf.sagat_correct_rates(responses)
    vectors = hf.perception_vectors(responses)

    if args.weights:
        weights, missions = parse_sa_weights(args.weights)
    else:
        weights, missions = {se: 1.0 for se in rates}, {}

    rate_table = ReportTable(
        "SAGAT correct rate",
        [Column("element"), Column("asked", "number", 0), Column("correct rate", "number", 3)],
    )
    asked: dict[str, int] = {}
    for r in responses:
        asked[r.se_id] = asked.get(r.se_id, 0) + 1
    for se in sorted(rates):
        rate_table.add_row(se, asked[se], rates[se])

    osa_table = ReportTable(
        "Operator situation awareness",
        [Column("participant"), Column("OSA", "number", 3)],
    )
    scores = []
    for participant in sorted(vectors):
        perception = vectors[participant]
        applicable = {se: w for se, w in weights.items() if se in perception}
        if not applicable:
            continue
        value = hf.osa(applicable, {se: perception[se] for se in applicable})
        scores.append(value)
        osa_table.add_row(participant, value)
    if scores:
        mean, std = hf.osa_summary(scores)
        osa_table.add_row("mean", mean)
        osa_table.add_row("std", std)

    tables = [rate_table, osa_table]
    grid = hf.osa_by_mission(weights, vectors, missions)
    if len(grid) > 1:  # more than the overall row
        mission_table = ReportTable(
            "OSA by mission",
            [Column("mission"), Column("mean", "number", 2), Column("std", "number", 2)],
        )
        for name in sorted(grid):
            mean, std = grid[name]
            mission_table.add_row(name, mean, std)
        tables.append(mission_table)
    return _emit_tables(tables, args)


# --- trust --------------------------------------------------------------------

def cmd_trust(args) -> int:
    dataset, _ = parse_survey(args.survey)
    result = hf.trust_pipeline(dataset, args.condition_a, args.condition_b)

    table = ReportTable(
        f"Trust comparison: {args.condition_a} vs {args.condition_b}",
        [
            Column("instrument"),
            Column("item"),
            Column(f"mean {args.condition_a}", "number", 2),
            Column(f"mean {args.condition_b}", "number", 2),
            Column("t", "number", 2),
            Column("t p", "number", 4),
            Column("U", "number", 1),
            Column("p", "number", 4),
        ],
    )
    for item in result.items:
        table.add_row(item.instrument, item.item_id, item.mean_a, item.mean_b,
                      item.t_statistic, item.t_p, item.test.u, item.test.p_two_sided)
    return _emit_tables([table], args)


# --- report ---------------------------------------------------------------------

def cmd_report(args) -> int:
    campaign, _ = parse_campaign(args.manifest)
    base = args.manifest.parent
    tables = []
    for builder in (_nav_tables, _collision_tables, _field_tables, _mapping_tables):
        tables.extend(builder(campaign, base))
    if not tables:
        _diag("nothing to report")
        return 1
    return _emit_tables(tables, args)


# --- plot ----------------------------------------------------------------------

def cmd_plot(args) -> int:
    if args.kind == "ncap-scatter":
        if not args.features:
            raise ParseError("--features is required for ncap-scatter")
        results = _ncap_results(args)
        points = [(r.suas_id, float(r.n_al), r.n_cp) for r in results]
        data = plot_svg("ncap-scatter", points)
    else:
        if not (args.telemetry and args.path):
            raise ParseError("--telemetry and --path are required for deviation plots")
        traj, _ = parse_telemetry(args.telemetry)
        path = parse_reference_path(args.path)
        series = list(zip(traj.t.tolist(), nav_mod.deviation_series(traj.pos, path).tolist()))
        data = plot_svg("deviation", series)
    _write_output(data, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
