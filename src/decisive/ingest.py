"""Parsers for every on-disk input: telemetry, manifests, surveys, sheets, configs.

Every parser is total: a file either yields a value (for the data files, plus
a ParseReport of what was loaded) or a structured error naming the offending
location. Non-fatal issues are issued as DataQualityWarnings, each naming the
file and location, at the moment they are found. Formats are deliberately
plain: CSV with required headers for recorded data, JSON with an explicit
schema_version for manifests and configuration. UTF-8, '.' decimal separator,
',' delimiter.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cfis import Fis, FisConfig, LinguisticVariable, Rule, TriangularMf
from .core import (
    APERTURE_TIERS,
    CR_CATEGORIES,
    OA_CATEGORIES,
    Campaign,
    EnvironmentProfile,
    ObstacleGeometry,
    Trajectory,
    TrialRecord,
)
from .errors import (
    CyclicCascade,
    DataQualityWarning,
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
from .field import Criterion, NlosPosition
from .human_factors import (
    SagatResponse,
    SeParams,
    SurveyDataset,
    SurveyRow,
    attention_allocation,
)
from .mapping import FiducialGroundTruth, FiducialObservation
from .nav import ReferencePath
from .ncap import ABSENT, AutonomyCapabilities, Feature, FeatureTable

SUPPORTED_SCHEMA_VERSIONS = (1,)

CTPA_ITEM_COUNT = 9
HCTM_ITEM_COUNT = 12


@dataclass
class ParseReport:
    """What a parser loaded from `source`; `warn` issues a located DataQualityWarning."""

    source: str
    counts: dict[str, int] = field(default_factory=dict)

    def warn(self, location, message: str) -> None:
        warnings.warn(f"{self.source}: {message} (at {location})", DataQualityWarning)


def _total(fn):
    """Make a parser total: malformed shapes become structured errors."""

    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        from .errors import DecisiveError

        try:
            return fn(path, *args, **kwargs)
        except DecisiveError:
            raise
        except (TypeError, AttributeError, KeyError, ValueError, IndexError, csv.Error) as exc:
            raise ParseError(f"malformed input ({exc})", str(path))

    return wrapper


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", str(path))


def _header(reader, path) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn("file is empty", str(path))
    return [h.strip() for h in header]


def _read_rows(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """(header, [(1-based file line, row), ...]) for a CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _header(reader, path)
        rows = [
            (lineno, row)
            for lineno, row in enumerate(reader, start=2)
            if any(cell.strip() for cell in row)
        ]
    return header, rows


def _rows_of_width(rows, width: int):
    """The rows in order, raising at the first one with fewer than `width` fields."""
    for line, row in rows:
        if len(row) < width:
            raise MissingColumn(f"row has {len(row)} fields, needs {width}", line)
        yield line, row


def _number(text: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise NonNumericField(f"cannot parse {text!r} as a number", line)


def _boolean(text: str, line: int) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "y"):
        return True
    if lowered in ("0", "false", "no", "n"):
        return False
    raise NonNumericField(f"cannot parse {text!r} as a boolean", line)


# --- telemetry -----------------------------------------------------------------

REQUIRED_TELEMETRY = ("t", "x", "y", "z")
VEL_COLUMNS = ("vx", "vy", "vz")
ACC_COLUMNS = ("ax", "ay", "az")


@_total
def parse_telemetry(path) -> tuple[Trajectory, ParseReport]:
    """Load a telemetry trace: t,x,y,z with optional vx,vy,vz and ax,ay,az."""
    report = ParseReport(str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        header = _header(csv.reader(fh), path)
        try:
            body = fh.read()
        except UnicodeDecodeError:  # the row loop re-reads the file and reports it
            body = None
    for col in REQUIRED_TELEMETRY:
        if col not in header:
            raise MissingColumn(f"missing column {col!r}", str(path))
    for group in (VEL_COLUMNS, ACC_COLUMNS):
        present = [c for c in group if c in header]
        if present and len(present) != 3:
            raise MissingColumn(
                f"columns {group} must appear together, found only {present}", str(path)
            )
    known = set(REQUIRED_TELEMETRY) | set(VEL_COLUMNS) | set(ACC_COLUMNS)
    for col in header:
        if col not in known:
            report.warn(1, f"ignoring unknown column {col!r}")

    idx = {c: header.index(c) for c in header if c in known}
    has_vel = all(c in idx for c in VEL_COLUMNS)
    has_acc = all(c in idx for c in ACC_COLUMNS)

    fields = REQUIRED_TELEMETRY + (VEL_COLUMNS if has_vel else ()) + (ACC_COLUMNS if has_acc else ())
    cols = [idx[c] for c in fields]
    table = _telemetry_columns(body, cols)
    if table is None:
        table = _telemetry_rows(path, cols)

    def triple(first: int) -> np.ndarray:
        # a contiguous copy, so numpy reductions run as they would on a separate array
        return np.ascontiguousarray(table[:, first:first + 3])

    traj = Trajectory(
        t=np.ascontiguousarray(table[:, 0]),
        pos=triple(1),
        vel=triple(4) if has_vel else None,
        acc=triple(7 if has_vel else 4) if has_acc else None,
    )
    report.counts["samples"] = len(table)
    return traj, report


def _telemetry_columns(body: str | None, cols: list[int]) -> np.ndarray | None:
    """The `cols` of every data row in `body` converted at once, one table column each.

    None when the whole-column conversion cannot vouch for the text: no text,
    a quote anywhere (numpy would split quoted cells differently from csv), a
    cell numpy does not convert, a non-finite value, time that does not
    increase, or fewer than two rows. `_telemetry_rows` then decides, and is the
    only source of error messages and their line numbers.
    """
    if body is None or '"' in body or not body.strip():
        return None
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", usecols=cols, ndmin=2,
                           comments=None)
    except ValueError:
        return None
    if len(table) < 2 or not np.isfinite(table).all() or not (np.diff(table[:, 0]) > 0).all():
        return None
    return table


def _telemetry_rows(path, cols: list[int]) -> np.ndarray:
    """The same table as `_telemetry_columns`, row by row, raising at the first bad line."""
    _, rows = _read_rows(path)
    samples = []
    prev_t = None
    for line, row in _rows_of_width(rows, max(cols) + 1):
        values = [_number(row[i], line) for i in cols]
        if not all(map(math.isfinite, values)):
            text = next(row[i] for i, v in zip(cols, values) if not math.isfinite(v))
            raise NonNumericField(f"{text!r} is not a finite number", line)
        ti = values[0]
        if prev_t is not None and ti <= prev_t:
            raise NonMonotonicTime(f"time {ti} does not increase past {prev_t}", line)
        prev_t = ti
        samples.append(values)
    if len(samples) < 2:
        raise ParseError("telemetry needs at least two samples", str(path))
    return np.array(samples)


# --- campaign manifest ----------------------------------------------------------

@_total
def parse_campaign(path) -> tuple[Campaign, ParseReport]:
    """Load and cross-validate a campaign manifest."""
    path = Path(path)
    report = ParseReport(str(path))
    doc = _load_json(path)

    version = doc.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchemaVersionUnsupported(f"schema_version {version!r}", str(path))

    suas = {}
    for entry in doc.get("suas", []):
        if "id" not in entry:
            raise ParseError("sUAS entry missing 'id'", str(path))
        suas[entry["id"]] = entry

    environments = {}
    for entry in doc.get("environments", []):
        env_id = entry.get("id")
        if env_id is None:
            raise ParseError("environment entry missing 'id'", str(path))
        environments[env_id] = EnvironmentProfile(
            lighting=entry.get("lighting", "lighted"),
            dims=tuple(entry["dims"]) if "dims" in entry else None,
            surfaces=tuple(entry.get("surfaces", ())),
            obstructions=tuple((int(c), m) for c, m in entry.get("obstructions", ())),
            indoor=bool(entry.get("indoor", True)),
            lux=entry.get("lux"),
        )

    tests = {}
    for entry in doc.get("tests", []):
        test_id = entry.get("test_id")
        if test_id is None:
            raise ParseError("test entry missing 'test_id'", str(path))
        env_ref = entry.get("environment")
        if env_ref is not None and env_ref not in environments:
            raise DanglingReference(f"test {test_id} references environment {env_ref!r}")
        tests[test_id] = entry

    trials = []
    for entry in doc.get("trials", []):
        trial_id = entry.get("trial_id", "?")
        if entry.get("test_id") not in tests:
            raise DanglingReference(
                f"trial {trial_id} references unknown test {entry.get('test_id')!r}"
            )
        if entry.get("suas_id") not in suas:
            raise DanglingReference(
                f"trial {trial_id} references unknown sUAS {entry.get('suas_id')!r}"
            )
        for key, vocab in (
            ("oa_category", OA_CATEGORIES),
            ("cr_category", CR_CATEGORIES),
            ("aperture_tier", APERTURE_TIERS),
        ):
            value = entry.get(key)
            if value is not None and value not in vocab:
                raise UnknownCategory(f"trial {trial_id}: {key} {value!r}")
        telemetry = entry.get("telemetry")
        if telemetry is not None and not (path.parent / telemetry).exists():
            raise DanglingReference(f"trial {trial_id}: telemetry file {telemetry!r} not found")
        trials.append(
            TrialRecord(
                trial_id=trial_id,
                test_id=entry["test_id"],
                suas_id=entry["suas_id"],
                outcome=entry.get("outcome", "success"),
                collisions=int(entry.get("collisions", 0)),
                rollovers=int(entry.get("rollovers", 0)),
                oa_category=entry.get("oa_category"),
                cr_category=entry.get("cr_category"),
                aperture_tier=entry.get("aperture_tier"),
                t_collision=entry.get("t_collision_s"),
                duration=float(entry.get("duration_min", 0.0)),
                laps=entry.get("laps"),
                telemetry=telemetry,
                notes=entry.get("notes", ""),
            )
        )

    if not trials:
        report.warn(str(path), "no trials")
    report.counts.update(
        suas=len(suas), tests=len(tests), environments=len(environments), trials=len(trials)
    )
    return Campaign(suas=suas, tests=tests, environments=environments, trials=tuple(trials)), report


def _reference_path(spec) -> ReferencePath:
    return ReferencePath(tuple(tuple(v) for v in spec["vertices"]), bool(spec.get("closed", False)))


def reference_path_from_test(test: dict) -> ReferencePath:
    spec = test.get("path")
    if spec is None:
        raise ParseError(f"test {test.get('test_id')} has no path")
    return _reference_path(spec)


@_total
def parse_reference_path(path) -> ReferencePath:
    """A reference path file, shaped like a nav test's `path`: vertices + closed flag."""
    return _reference_path(_load_json(path))


def obstacle_from_test(test: dict) -> ObstacleGeometry:
    spec = test.get("obstacle")
    if spec is None:
        raise ParseError(f"test {test.get('test_id')} has no obstacle")
    return ObstacleGeometry(
        kind=spec.get("kind", "plane_segment"),
        p0=tuple(spec["p0"]),
        p1=tuple(spec["p1"]),
        height=float(spec["height"]),
        material=spec.get("material", "wall"),
    )


# --- surveys --------------------------------------------------------------------

SURVEY_COLUMNS = ("participant_id", "instrument", "item_id", "score", "manip_pass", "condition")


@_total
def parse_survey(path) -> tuple[SurveyDataset, ParseReport]:
    """Load Likert survey rows; duplicate (participant, instrument, item) keeps the last."""
    report = ParseReport(str(path))
    header, rows = _read_rows(path)
    for col in SURVEY_COLUMNS:
        if col not in header:
            raise MissingColumn(f"missing column {col!r}", str(path))
    idx = {c: header.index(c) for c in SURVEY_COLUMNS}

    by_key: dict[tuple[str, str, str], SurveyRow] = {}
    for line, row in _rows_of_width(rows, max(idx.values()) + 1):
        instrument = row[idx["instrument"]].strip()
        if instrument not in ("CTPA", "HCTM"):
            raise UnknownInstrument(f"instrument {instrument!r}", line)
        score = _number(row[idx["score"]], line)
        if not (score.is_integer() and 1 <= score <= 7):
            raise ScoreOutOfRange(f"score {row[idx['score']]!r} outside 1..7", line)
        entry = SurveyRow(
            participant_id=row[idx["participant_id"]].strip(),
            instrument=instrument,
            item_id=row[idx["item_id"]].strip(),
            score=int(score),
            manip_pass=_boolean(row[idx["manip_pass"]], line),
            condition=row[idx["condition"]].strip(),
        )
        key = (entry.participant_id, entry.instrument, entry.item_id)
        if key in by_key:
            report.warn(line, f"duplicate response for {key}; keeping the later row")
        by_key[key] = entry

    rows_out = tuple(by_key.values())
    expected = {"CTPA": CTPA_ITEM_COUNT, "HCTM": HCTM_ITEM_COUNT}
    seen: dict[tuple[str, str], set] = {}
    for r in rows_out:
        seen.setdefault((r.participant_id, r.instrument), set()).add(r.item_id)
    for (participant, instrument), items in sorted(seen.items()):
        if len(items) != expected[instrument]:
            report.warn(
                str(path),
                f"{participant}: {instrument} has {len(items)} items, expected {expected[instrument]}",
            )
    report.counts["responses"] = len(rows_out)
    return SurveyDataset(rows_out), report


SAGAT_COLUMNS = ("participant_id", "question_id", "se_id", "sa_level", "correct")


@_total
def parse_sagat(path) -> tuple[list[SagatResponse], ParseReport]:
    report = ParseReport(str(path))
    header, rows = _read_rows(path)
    for col in SAGAT_COLUMNS:
        if col not in header:
            raise MissingColumn(f"missing column {col!r}", str(path))
    idx = {c: header.index(c) for c in SAGAT_COLUMNS}
    out = []
    for line, row in _rows_of_width(rows, max(idx.values()) + 1):
        level = _number(row[idx["sa_level"]], line)
        if level not in (1.0, 2.0):
            raise ScoreOutOfRange(f"sa_level {row[idx['sa_level']]!r} must be 1 or 2", line)
        out.append(
            SagatResponse(
                participant=row[idx["participant_id"]].strip(),
                question_id=row[idx["question_id"]].strip(),
                se_id=row[idx["se_id"]].strip(),
                sa_level=int(level),
                correct=_boolean(row[idx["correct"]], line),
            )
        )
    report.counts["responses"] = len(out)
    return out, report


@_total
def parse_sa_weights(path) -> tuple[dict[str, float], dict]:
    """Attention weights per element, and the missions, of an `sa --weights` file.

    Weights come from SEEV `params`, an explicit `weights` map, or the top
    level itself; `missions` maps a mission name to the elements it covers.
    """
    doc = _load_json(path)
    missions = doc.get("missions", {})
    if "params" in doc:
        params = [
            SeParams(se, spec["saliency"], spec["effort"], spec["expectancy"], spec["value"])
            for se, spec in doc["params"].items()
        ]
        return attention_allocation(params), missions
    weights = doc["weights"] if "weights" in doc else doc
    return {se: float(w) for se, w in weights.items()}, missions


# --- feature sheets ---------------------------------------------------------------

@dataclass(frozen=True)
class FeatureSheet:
    """A feature table plus the per-system extras a sheet may carry."""

    table: FeatureTable
    capabilities: dict[str, AutonomyCapabilities]
    degrees: dict[str, int]


def _capabilities(flags: dict) -> AutonomyCapabilities:
    return AutonomyCapabilities(**{k: bool(v) for k, v in flags.items()})


@_total
def parse_feature_sheet(path) -> tuple[FeatureSheet, ParseReport]:
    report = ParseReport(str(path))
    doc = _load_json(path)

    direction_map = {"higher": "higher_better", "lower": "lower_better"}
    features = []
    degrees = {}
    for entry in doc.get("features", []):
        name = entry.get("name")
        if name is None:
            raise ParseError("feature missing 'name'", str(path))
        if "direction" not in entry:
            raise MissingDirection(f"feature {name!r} has no direction", str(path))
        direction = direction_map.get(entry["direction"])
        if direction is None:
            raise MissingDirection(
                f"feature {name!r}: direction must be 'higher' or 'lower'", str(path)
            )
        ordinal = entry.get("ordinal_map")
        features.append(
            Feature(
                name,
                direction,
                {k: float(v) for k, v in ordinal.items()} if ordinal else None,
            )
        )
        if "degree" in entry:
            degrees[name] = int(entry["degree"])

    values = {}
    capabilities = {}
    for system in doc.get("systems", []):
        sid = system.get("id")
        if sid is None:
            raise ParseError("system missing 'id'", str(path))
        values[sid] = {
            k: (ABSENT if v == ABSENT or v is None else v)
            for k, v in system.get("values", {}).items()
        }
        if "capabilities" in system:
            capabilities[sid] = _capabilities(system["capabilities"])

    table = FeatureTable(tuple(features), values)
    report.counts.update(features=len(features), systems=len(values))
    return FeatureSheet(table, capabilities, degrees), report


@_total
def parse_capabilities(path) -> dict[str, AutonomyCapabilities]:
    """A `--caps` file: {"<system id>": {"perception": true, ...}, ...}."""
    return {sid: _capabilities(flags) for sid, flags in _load_json(path).items()}


@_total
def parse_feature_weights(path, names) -> dict[str, float]:
    """An explicit weight file: {"<feature>": weight, ...} covering every name in `names`."""
    raw = _load_json(path)
    missing = [n for n in names if n not in raw]
    if missing:
        raise ParseError(f"weight file lacks features: {', '.join(missing)}")
    return {n: float(raw[n]) for n in names}


# --- FIS configuration ----------------------------------------------------------

@_total
def parse_fis_config(path) -> tuple[FisConfig, ParseReport]:
    report = ParseReport(str(path))
    doc = _load_json(path)

    systems = {}
    for fis_name, spec in doc.get("fis", {}).items():
        inputs = {}
        for var_name, var_spec in spec.get("inputs", {}).items():
            lo, hi = (float(v) for v in var_spec["range"])
            terms = {}
            for term, tup in var_spec.get("terms", {}).items():
                if len(tup) != 3:
                    raise MalformedTuple(
                        f"{fis_name}.{var_name}.{term}: need 3 points, got {tup}"
                    )
                a, b, c = (float(v) for v in tup)
                if not a <= b <= c:
                    raise MalformedTuple(f"{fis_name}.{var_name}.{term}: {tup} not ordered")
                if not (lo <= a and c <= hi):
                    raise MalformedTuple(
                        f"{fis_name}.{var_name}.{term}: {tup} outside range [{lo}, {hi}]"
                    )
                terms[term] = TriangularMf(a, b, c, lo, hi)
            aliases = dict(var_spec.get("aliases", {}))
            for alias, target in aliases.items():
                if target not in terms:
                    raise UnknownTerm(f"{fis_name}.{var_name}: alias {alias!r} -> {target!r}")
            var = LinguisticVariable(var_name, lo, hi, terms, aliases)
            if not var.covered():
                report.warn(fis_name, f"variable {var_name!r} has membership gaps")
            inputs[var_name] = var

        outputs = {k: float(v) for k, v in spec.get("outputs", {}).items()}
        for level, value in outputs.items():
            if not 0.0 <= value <= 1.0:
                raise ParseError(f"{fis_name}: output {level}={value} outside [0, 1]", str(path))

        rules = []
        for i, rule_spec in enumerate(spec.get("rules", [])):
            antecedents = []
            for var_name, term in rule_spec.get("if", {}).items():
                if var_name not in inputs:
                    raise UnknownTerm(f"{fis_name} rule {i}: unknown variable {var_name!r}")
                negated = term.startswith("not ")
                bare = term[4:] if negated else term
                if not inputs[var_name].has_term(bare):
                    raise UnknownTerm(f"{fis_name} rule {i}: unknown term {term!r}")
                antecedents.append((var_name, bare, negated))
            consequent = rule_spec.get("then")
            if consequent not in outputs:
                raise UnknownTerm(f"{fis_name} rule {i}: unknown output {consequent!r}")
            rules.append(Rule(tuple(antecedents), consequent))
        if not rules:
            raise ParseError(f"{fis_name}: at least one rule required", str(path))
        systems[fis_name] = Fis(fis_name, inputs, outputs, tuple(rules))

    cascade = {}
    stages = doc.get("cascade", {})
    for combined, axes in stages.items():
        if combined not in systems:
            raise UnknownTerm(f"cascade target {combined!r} not defined")
        for axis in axes:
            if axis not in systems:
                raise UnknownTerm(f"cascade input {axis!r} not defined")
            # the cascade runs one combining stage over axis systems only
            if axis in stages:
                raise CyclicCascade(f"cascade stage {combined!r} takes combining stage {axis!r}")
        cascade[combined] = tuple(axes)

    config = FisConfig(
        name=doc.get("name", Path(str(path)).stem),
        fis=systems,
        cascade=cascade,
        ideal_inputs={
            axis: {k: float(v) for k, v in vals.items()}
            for axis, vals in doc.get("ideal_inputs", {}).items()
        },
    )
    report.counts["fis"] = len(systems)
    return config, report


# --- cfis scores -----------------------------------------------------------------

@_total
def parse_scores(path, variables: set[str]) -> tuple[bool, list[tuple[str, str, dict[str, float]]]]:
    """A `cfis --scores` CSV: (precomputed, [(suas_id, test_id, numbers), ...]).

    A file whose columns are exactly suas_id,test_id,score holds precomputed
    scores, and each row's numbers are {"score": value}. Any other file holds
    FIS inputs, and each row's numbers are its non-empty `variables` cells.
    A repeated column reads its last copy.
    """
    header, rows = _read_rows(path)
    for col in ("suas_id", "test_id"):
        if col not in header:
            raise MissingColumn(f"scores file missing column {col!r}", str(path))
    precomputed = set(header) == {"suas_id", "test_id", "score"}
    ids = [i for i, c in enumerate(header) if c in ("suas_id", "test_id")]
    width = len(header) if precomputed else max(ids) + 1
    out = []
    for line, row in _rows_of_width(rows, width):
        cells = dict(zip(header, row))
        if precomputed:
            numbers = {"score": _number(cells["score"], line)}
        else:
            numbers = {v: _number(cells[v], line) for v in variables if cells.get(v, "") != ""}
        out.append((cells["suas_id"], cells["test_id"], numbers))
    return precomputed, out


# --- checklist criteria -----------------------------------------------------------

@_total
def parse_criteria(path) -> tuple[list[Criterion], ParseReport]:
    """Checklist criteria: {"field": {"op": "min", "value": 120}, ...}."""
    report = ParseReport(str(path))
    doc = _load_json(path)
    out = []
    for field_name, spec in doc.items():
        try:
            out.append(Criterion(field_name, spec["op"], spec["value"]))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"criterion {field_name!r}: {exc}", str(path))
    report.counts["criteria"] = len(out)
    return out, report


# --- fiducial observations -----------------------------------------------------

FIDUCIAL_COLUMNS = ("fiducial_id", "half", "x", "y", "mapped")


@_total
def parse_fiducial_observations(path) -> tuple[list[FiducialObservation], ParseReport]:
    report = ParseReport(str(path))
    header, rows = _read_rows(path)
    for col in FIDUCIAL_COLUMNS:
        if col not in header:
            raise MissingColumn(f"missing column {col!r}", str(path))
    idx = {c: header.index(c) for c in FIDUCIAL_COLUMNS}
    # a missing fiducial has no position, so its row may stop before x and y
    unmapped_width = max(idx["fiducial_id"], idx["half"], idx["mapped"]) + 1
    mapped_width = max(idx.values()) + 1
    out = []
    for line, row in _rows_of_width(rows, unmapped_width):
        mapped = row[idx["mapped"]].strip()
        if mapped == "missing":
            xy = None
        else:
            if len(row) < mapped_width:
                raise MissingColumn(f"row has {len(row)} fields, needs {mapped_width}", line)
            xy = (_number(row[idx["x"]], line), _number(row[idx["y"]], line))
        half = _number(row[idx["half"]], line)
        if half not in (1.0, 2.0):
            raise ScoreOutOfRange(f"half must be 1 or 2, got {row[idx['half']]!r}", line)
        try:
            out.append(
                FiducialObservation(row[idx["fiducial_id"]].strip(), int(half), xy, mapped)
            )
        except ValueError as exc:
            raise ParseError(str(exc), line)
    report.counts["observations"] = len(out)
    return out, report


def ground_truth_from_test(test: dict) -> list[FiducialGroundTruth]:
    out = []
    for entry in test.get("fiducials", []):
        out.append(
            FiducialGroundTruth(
                fiducial_id=entry["id"],
                gt_xy=tuple(entry["xy"]),
                min_traversal=float(entry["min_traversal"]),
                min_turns=int(entry["min_turns"]),
            )
        )
    return out


def nlos_positions_from_test(test: dict) -> list[NlosPosition]:
    out = []
    for entry in test.get("nlos_positions", []):
        out.append(
            NlosPosition(
                label=entry["label"],
                distance=float(entry["distance"]),
                obstructions=tuple((int(c), m) for c, m in entry.get("obstructions", ())),
                connect=entry.get("connect", "none"),
                fly=entry.get("fly", "not_possible"),
                latency_ms=entry.get("latency_ms"),
            )
        )
    return out
