"""Command-line surface.

Subcommands: validate, metrics, ncap, cfis, sa, trust, report, plot.
Data goes to stdout or --out; diagnostics go to stderr. Exit codes: 0 on
success, 1 for input or validation problems, 2 for computation failures.
Each subcommand parses its inputs, has `tables` build what it prints, and
emits it. A subcommand imports the modules it runs when it runs, so `--help`
loads none of them.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

from .errors import DataQualityWarning, DecisiveError, ParseError

DEFAULT_FIS = Path(__file__).parent / "configs" / "takeoff_land.json"


def _diag(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _show_warning(message, *_) -> None:
    """A `warnings.showwarning` that prints any warning as one `warning:` line.

    This is the only place the CLI reports a non-fatal issue.
    """
    print(f"warning: {message}", file=sys.stderr)


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

    # OpenBLAS starts a thread per core when numpy is imported, and no subcommand does
    # BLAS-sized work; set before any numpy import, and a caller's own value stands
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    handlers = {"validate": cmd_validate, "metrics": cmd_metrics, "report": cmd_metrics,
                "ncap": cmd_ncap, "cfis": cmd_cfis, "sa": cmd_sa, "trust": cmd_trust,
                "plot": cmd_plot}
    try:
        with warnings.catch_warnings():
            # every occurrence, not once per code location
            warnings.simplefilter("always", DataQualityWarning)
            warnings.showwarning = _show_warning
            return handlers[args.command](args)
    except ParseError as exc:
        _diag(str(exc))
        return 1
    except OSError as exc:  # a file that cannot be opened or written
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


def _emit_tables(built, args) -> int:
    from .report import render_tables

    data = render_tables(built, args.format, args.ascii_glyphs)
    _write_output(data, args.out)
    return 0


# --- validate -----------------------------------------------------------------

def cmd_validate(args) -> int:
    from .ingest import parse_campaign

    campaign = parse_campaign(args.manifest)
    counts = ", ".join(f"{len(entries)} {block}"
                       for block, entries in zip(campaign._fields, campaign))
    print(f"{args.manifest}: OK ({counts})", file=sys.stderr)
    return 0


# --- metrics and report --------------------------------------------------------

def cmd_metrics(args) -> int:
    """`metrics` prints one test category's tables, `report` those of all four."""
    from . import tables
    from .ingest import parse_campaign

    campaign = parse_campaign(args.manifest)
    one = args.command == "metrics"
    kinds = [args.test] if one else tables.CAMPAIGN_TABLES
    built = [table for kind in kinds for table in tables.CAMPAIGN_TABLES[kind](campaign)]
    if not built:
        _diag(f"no {args.test} tests in {args.manifest}" if one else "nothing to report")
        return 1
    return _emit_tables(built, args)


# --- the other table subcommands -------------------------------------------------

def cmd_ncap(args) -> int:
    from . import tables

    results = tables.ncap_results(args.features, args.weights, args.caps)
    return _emit_tables(tables.ncap_tables(results), args)


def cmd_cfis(args) -> int:
    from . import tables
    from .ingest import parse_fis_config

    config = parse_fis_config(args.fis)
    return _emit_tables(tables.cfis_tables(config, args.scores), args)


def cmd_sa(args) -> int:
    from . import tables
    from .ingest import parse_sa_weights, parse_sagat

    sagat = parse_sagat(args.sagat)
    weights, missions = parse_sa_weights(args.weights) if args.weights else (None, {})
    return _emit_tables(tables.sa_tables(sagat, weights, missions), args)


def cmd_trust(args) -> int:
    from . import tables
    from .ingest import parse_survey

    if args.condition_a == args.condition_b:
        raise ParseError(f"--condition-a and --condition-b must differ (both are "
                         f"{args.condition_a!r})")
    dataset, _ = parse_survey(args.survey)
    return _emit_tables(tables.trust_tables(dataset, args.condition_a, args.condition_b), args)


# --- plot ----------------------------------------------------------------------

def cmd_plot(args) -> int:
    if args.kind == "ncap-scatter":
        from . import tables
        from .report import ncap_scatter_svg

        if not args.features:
            raise ParseError("--features is required for ncap-scatter")
        results = tables.ncap_results(args.features, args.weights, args.caps)
        points = [(r.suas_id, float(r.n_al), r.n_cp) for r in results]
        data = ncap_scatter_svg(points)
    else:
        from .ingest import parse_reference_path, parse_telemetry
        from .nav import deviation_series
        from .report import deviation_svg

        if not (args.telemetry and args.path):
            raise ParseError("--telemetry and --path are required for deviation plots")
        traj, _ = parse_telemetry(args.telemetry)
        path = parse_reference_path(args.path)
        series = list(zip(traj.t.tolist(), deviation_series(traj.pos, path).tolist()))
        data = deviation_svg(series)
    _write_output(data, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
