"""Parsers for every on-disk input: telemetry, manifests, surveys, sheets, configs.

Every parser is total: a file yields its data (telemetry and surveys also a
ParseReport of their row count) or a ParseError naming the file and location.
Non-fatal issues are DataQualityWarnings, issued by `_warn` where found. A CSV
file is read once, as its header and the text after it; the header fails at a
needed column it lacks or repeats (`_columns`). One row loop, `_csv_rows`, reads
the data rows from that text and alone reports a bad one, naming the file line
the row starts on. The survey, SAGAT, fiducial and scores files read through
`_csv_table`, which first tries `_csv_columns`, and telemetry first tries one
numpy call; each defers to the row loop when it cannot vouch for the whole
text. A repeated response or score key is found once, on the columns read
(`_repeated_keys`). This module alone decides the type of a JSON value: every
object a parser reads, and every map whose keys are data, goes through
`_fields`, which types each key and names the object or map and the key, so a
wrong type fails at load, naming its file; `_load_json` fails at a repeated
key. A check on one JSON value is part of its kind (`_one_of`, `_number_in`),
so it fails as a wrong type does; a check that compares values is made here
too, once, in the function that reads them. The records built hold fields
only. UTF-8 (a byte-order mark is dropped), '.' decimal separator, ','
delimiter. A parser imports the domain types it builds when it runs, so a
subcommand loads only the modules of the files it reads.
"""

from __future__ import annotations

import collections
import csv
import functools
import io
import itertools
import json
import math
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import DataQualityWarning, ParseError, located

if TYPE_CHECKING:
    import numpy as np

    from .cfis import FisConfig
    from .core import Campaign, ObstacleGeometry, Trajectory
    from .field import Criterion, NlosPosition
    from .human_factors import SagatColumns, SurveyColumns
    from .mapping import FiducialGroundTruth, FiducialObservation
    from .nav import ReferencePath
    from .ncap import AutonomyCapabilities, FeatureTable

SUPPORTED_SCHEMA_VERSIONS = (1,)

CTPA_ITEM_COUNT = 9
HCTM_ITEM_COUNT = 12


class ParseReport(NamedTuple):
    """The rows `parse_telemetry` ("samples") or `parse_survey` ("responses") loaded; the
    benchmark's tracer reads these counts."""

    counts: dict[str, int]


def _warn(path, message: str, location=None) -> None:
    """Issue a DataQualityWarning about the file at `path`, found at `location` in it; it
    names its place as a ParseError does."""
    warnings.warn(located(message, path, location), DataQualityWarning)


def _total(fn):
    """Make a parser total: every failure reading `path` is a ParseError naming it.

    The parsers raise their errors with a line number or no location; this is
    the one place that names the file. An error that already names one came
    from the parser of another file, such as a manifest's side file, and
    passes as it is. Any other failure found while reading `path` is an input
    error here too.
    """

    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        try:
            return fn(path, *args, **kwargs)
        except ParseError as exc:
            error = exc
        except (TypeError, AttributeError, ValueError, KeyError, IndexError, csv.Error) as exc:
            error = ParseError(f"malformed input ({exc})")
        if error.source is None:
            error.source = str(path)
        raise error

    return wrapper


def _load_json(path):
    def non_finite(name):
        raise ParseError(f"invalid JSON: {name} is not a number")

    def unique(pairs):  # json would keep a repeated key's last value
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in collections.Counter(k for k, _ in pairs).items() if n > 1)
            raise ParseError(f"invalid JSON: key {key!r} appears more than once")
        return obj

    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise ParseError(f"invalid JSON: {text} is beyond the float range")
        return value

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=non_finite, parse_float=finite,
                             object_pairs_hook=unique)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}")


def _header_and_body(path) -> tuple[list[str], str, int]:
    """A CSV file's header, the text after it, and the file line that text starts on (a
    quoted header cell may span lines): the one read of the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("file is empty")
        return [h.strip() for h in header], fh.read(), reader.line_num + 1


#: about how many characters of a CSV body `_split_columns` splits at a time; each chunk
#: runs on to the end of its last line
CSV_CHUNK = 1 << 16


def _split_columns(body: str, width: int):
    """Each column's cell texts in `body`, the text after a CSV header of `width` columns,
    one chunk of whole lines at a time.

    Yields None, and stops, where splitting at newlines and commas cannot vouch
    for what csv would read: a quote anywhere, a carriage return that does
    not end a line with its newline, a line that is not exactly one row of
    `width` cells (an empty line or a short row), or a line longer than a csv
    field may be.
    """
    # csv ends a line at a lone "\r" too
    if '"' in body or body.count("\r") != body.count("\r\n"):
        yield None
        return
    start = 0
    while True:
        end = body.find("\n", start + CSV_CHUNK) + 1 or len(body)
        text = body[start:end].replace("\r\n", "\n").removesuffix("\n")
        lines = text.split("\n")
        if (set(map(str.count, lines, itertools.repeat(","))) - {width - 1}
                or max(map(len, lines)) > csv.field_size_limit()):
            yield None
            return
        cells = text.replace("\n", ",").split(",")
        yield [cells[i::width] for i in range(width)]
        if end == len(body):
            return
        start = end


def _columns(header: list[str], names, optional=()) -> dict[str, int]:
    """The index in `header` of each of `names`, failing at one it repeats or, unless the
    name is `optional`, lacks."""
    idx = {}
    for col in names:
        if header.count(col) > 1:
            raise ParseError(f"column {col!r} appears more than once")
        if col in header:
            idx[col] = header.index(col)
        elif col not in optional:
            raise ParseError(f"missing column {col!r}")
    return idx


def _csv_rows(header: list[str], body: str, start: int, converters: dict, optional=()):
    """(line, values) for each data row of `body`, the text after `header` from file line
    `start` on, raising at the first bad line; a row of blank cells is skipped.

    `values` holds each of `converters`' columns, its text converted with the
    line number. A column in `optional` reads "" where the header or a short
    row lacks it; a row that stops before another needed column fails. A row's
    line is the one it starts on, past any quoted cell that spans lines;
    newline="" keeps a lone carriage return ending a row, as when csv reads the
    file. All rows are split first, so a csv error anywhere comes before a bad row.
    """
    idx = _columns(header, converters, optional)
    width = max(i for name, i in idx.items() if name not in optional) + 1
    cells = [(idx.get(name, math.inf), convert) for name, convert in converters.items()]
    reader = csv.reader(io.StringIO(body, newline=""))
    rows, line = [], start
    for row in reader:
        rows.append((line, row))
        line = start + reader.line_num
    for line, row in rows:
        if not "".join(row).strip():
            continue
        if len(row) < width:
            raise ParseError(f"row has {len(row)} fields, needs {width}", line)
        yield line, [convert(row[i] if i < len(row) else "", line) for i, convert in cells]


class _Converted(dict):
    """One column's texts read so far, each mapped to its value: a text is converted the
    first time it is looked up, and a blank one is also kept in `blanks`."""

    __slots__ = ("convert", "blanks")

    def __missing__(self, text: str):
        value = self[text] = self.convert(text, None)
        if not text.strip():
            self.blanks.add(text)
        return value


def _csv_columns(header: list[str], body: str, converters: dict, optional=()) -> list[list] | None:
    """The columns `_csv_rows` would read from `body`, the text after `header`, a chunk at a time.

    Each cell is one dict lookup; each distinct text of a column is converted
    once, however many chunks it appears in. The header fails as in the row
    loop. None when the split cannot vouch for the text: a chunk
    `_split_columns` rejects, a row of blank cells (the row loop skips it) or
    a cell that does not convert.
    """
    idx = _columns(header, converters, optional)
    columns = [[] for _ in converters]
    known = [_Converted() for _ in converters]
    for once, convert in zip(known, converters.values()):
        once.convert, once.blanks = convert, set()
    for cells in _split_columns(body, len(header)):
        if cells is None:
            return None
        for name, column, once in zip(converters, columns, known):
            texts = cells[idx[name]] if name in idx else [""] * len(cells[0])
            try:
                column += map(once.__getitem__, texts)
            except ParseError:
                return None
        # a row of blank cells has one in every column, so look for such a row only once
        # every column has read a blank text, in this chunk or an earlier one
        if all(once.blanks for once in known) and any(
                not "".join(row).strip() for row in zip(*cells)):
            return None
    return columns


def _csv_table(header: list[str], body: str, start: int, converters: dict,
               optional=()) -> tuple[Sequence[int], list[list]]:
    """The file line of each data row of `body`, the text after `header` from file line
    `start` on, and each of `converters`' columns: `_csv_columns`' when it can read the
    whole text, else the row loop's, which alone reports a bad row. A text of no row fails."""
    columns = _csv_columns(header, body, converters, optional)
    if columns is not None:  # the split vouches only for text of at least one row
        return range(start, start + len(columns[0])), columns
    rows = [(line, *values)
            for line, values in _csv_rows(header, body, start, converters, optional)]
    if not rows:
        raise ParseError("no data rows")
    lines, *columns = map(list, zip(*rows))
    return lines, columns


def _repeated_keys(path, lines, key_columns: list[list], message) -> list[int] | None:
    """None when the rows' keys, read across `key_columns` of text, are distinct. Else each
    later row of a key warns `message(key)` at its line, and the result is the index of each
    key's last row, in the order of the keys' first rows."""
    # keys whose NUL-joined texts are distinct are distinct, and no key tuple is kept for the
    # garbage collector to track; distinct keys that join alike (a text holding NUL) take
    # the loop, which keeps every row
    if len(set(map("\0".join, zip(*key_columns)))) == len(lines):
        return None
    last = {}
    for index, (line, key) in enumerate(zip(lines, zip(*key_columns))):
        if key in last:
            _warn(path, message(key), line)
        last[key] = index  # a key keeps its first row's place
    return list(last.values())


def _number(text: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"cannot parse {text!r} as a number", line)
    if not math.isfinite(value):
        raise ParseError(f"{text!r} is not a finite number", line)
    return value


def _boolean(text: str, line: int) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "y"):
        return True
    if lowered in ("0", "false", "no", "n"):
        return False
    raise ParseError(f"cannot parse {text!r} as a boolean", line)


def _text(text: str, line) -> str:
    return text


def _stripped(text: str, line) -> str:
    return text.strip()


def _one_or_two(column: str):
    """The converter of a column whose cells are 1 or 2: a fiducial half, a SAGAT SA level."""
    def convert(text: str, line) -> int:
        value = _number(text, line)
        if value not in (1.0, 2.0):
            raise ParseError(f"{column} {text!r} must be 1 or 2", line)
        return int(value)
    return convert


# --- telemetry -----------------------------------------------------------------

REQUIRED_TELEMETRY = ("t", "x", "y", "z")
VEL_COLUMNS = ("vx", "vy", "vz")
ACC_COLUMNS = ("ax", "ay", "az")


@_total
def parse_telemetry(path) -> tuple[Trajectory, ParseReport]:
    """Load a telemetry trace: t,x,y,z with optional vx,vy,vz and ax,ay,az."""
    import numpy as np

    from .core import Trajectory

    header, body, start = _header_and_body(path)
    has_vel, has_acc = (all(c in header for c in group) for group in (VEL_COLUMNS, ACC_COLUMNS))
    fields = REQUIRED_TELEMETRY + (VEL_COLUMNS if has_vel else ()) + (ACC_COLUMNS if has_acc else ())
    cols = list(_columns(header, fields).values())
    for group in (VEL_COLUMNS, ACC_COLUMNS):
        present = [c for c in group if c in header]
        if present and len(present) != 3:
            raise ParseError(f"columns {group} must appear together, found only {present}")
    known = set(REQUIRED_TELEMETRY) | set(VEL_COLUMNS) | set(ACC_COLUMNS)
    for col in header:
        if col not in known:
            _warn(path, f"ignoring unknown column {col!r}", 1)

    table = _telemetry_columns(body, cols)
    if table is None:
        table = _telemetry_rows(header, body, start, fields)

    def triple(first: int) -> np.ndarray:
        # a contiguous copy, so numpy reductions run as they would on a separate array
        return np.ascontiguousarray(table[:, first:first + 3])

    traj = Trajectory(
        t=np.ascontiguousarray(table[:, 0]),
        pos=triple(1),
        vel=triple(4) if has_vel else None,
        acc=triple(7 if has_vel else 4) if has_acc else None,
    )
    return traj, ParseReport({"samples": len(table)})


def _telemetry_columns(body: str, cols: list[int]) -> np.ndarray | None:
    """The `cols` of every data row in `body` converted at once, one table column each.

    None when the whole-column conversion cannot vouch for the text: no text,
    a quote anywhere (numpy would split quoted cells differently from csv), a
    cell numpy does not convert, a non-finite value, time that does not
    increase, or fewer than two rows. `_telemetry_rows` then decides, and is the
    only source of error messages and their line numbers.
    """
    import numpy as np

    if '"' in body or not body.strip():
        return None
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", usecols=cols, ndmin=2,
                           comments=None)
    except ValueError:
        return None
    if len(table) < 2 or not np.isfinite(table).all() or not (np.diff(table[:, 0]) > 0).all():
        return None
    return table


def _telemetry_rows(header: list[str], body: str, start: int, fields) -> np.ndarray:
    """The same table as `_telemetry_columns`, row by row, raising at the first bad line."""
    import numpy as np

    samples = []
    for line, values in _csv_rows(header, body, start, dict.fromkeys(fields, _number)):
        if samples and values[0] <= samples[-1][0]:
            raise ParseError(f"time {values[0]} does not increase past {samples[-1][0]}", line)
        samples.append(values)
    if len(samples) < 2:
        raise ParseError("telemetry needs at least two samples")
    return np.array(samples)


# --- checklist criteria -----------------------------------------------------------

@_total
def parse_criteria(path) -> list[Criterion]:
    """Checklist criteria: {"field": {"op": "min", "value": 120}, ...}."""
    from .field import OPS, Criterion

    out = []
    for field_name, spec in _fields(_load_json(path), object, "criteria file").items():
        owner = f"criterion {field_name!r}"
        op = _fields(spec, {"op": _one_of(*OPS)}, owner, required=("op",))["op"]
        # an `equals` value may be of any type
        kind = {"min": float, "max": float, "contains": str}.get(op, object)
        out.append(Criterion(field_name, op,
                             _fields(spec, {"value": kind}, owner, required=("value",))["value"]))
    return out


# --- fiducial observations -----------------------------------------------------

@_total
def parse_fiducial_observations(path, fiducial_ids=None) -> list[FiducialObservation]:
    """Split-cylinder fiducial observations. A `missing` half has no position, so its row
    may stop before x and y, which are converted on the other rows only. A repeated
    (fiducial_id, half) warns, and its later row takes the earlier one's place; an id that
    is not in `fiducial_ids`, when given, warns at its line."""
    from .mapping import MAPPED_STATES, FiducialObservation

    def state(text: str, line) -> str:
        mapped = text.strip()
        if mapped not in MAPPED_STATES:
            raise ParseError(f"bad mapped state {mapped!r}", line)
        return mapped

    header, body, start = _header_and_body(path)
    converters = {"fiducial_id": _stripped, "half": _one_or_two("half"), "x": _text,
                  "y": _text, "mapped": state}
    _columns(header, converters)  # a short row may lack x and y, the header may not
    lines, columns = _csv_table(header, body, start, converters, optional=("x", "y"))
    kept = _repeated_keys(
        path, lines, [columns[0], list(map(str, columns[1]))],
        lambda key: f"duplicate observation for {key[0]} half {key[1]}; keeping the later row")
    if kept is not None:
        lines, columns = [lines[i] for i in kept], [[column[i] for i in kept] for column in columns]
    if fiducial_ids is not None:
        for line, fiducial_id in zip(lines, columns[0]):
            if fiducial_id not in fiducial_ids:
                _warn(path, f"fiducial {fiducial_id!r} is not one of the test's fiducials", line)
    return [FiducialObservation(fiducial_id, half, None if mapped == "missing" else
                                (_number(x, line), _number(y, line)), mapped)
            for line, fiducial_id, half, x, y, mapped in zip(lines, *columns)]


# --- campaign manifest ----------------------------------------------------------

class CampaignTest(NamedTuple):
    """One manifest test, its category's blocks converted; a block it lacks stays empty."""

    test_id: str
    kind: str | None
    path: ReferencePath | None = None
    waypoint: tuple[float, ...] | None = None
    length_m: float | None = None
    obstacle: ObstacleGeometry | None = None
    nlos_positions: tuple[NlosPosition, ...] = ()
    criteria: tuple[Criterion, ...] = ()
    responses: dict[str, dict] | None = None
    fiducials: tuple[FiducialGroundTruth, ...] = ()
    observations: tuple[FiducialObservation, ...] = ()
    shape_classes: dict[str, str] | None = None
    dimensions: tuple[tuple[float, ...], tuple[float, ...]] | None = None  # reported, truth
    fov: tuple[int, int] | None = None  # visible, total
    acuity_levels: tuple[float, ...] | None = None


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", float: "a number",
               bool: "a boolean", object: "any value"}


def _json(value, kind):
    """`value` if it is a JSON value of `kind`: dict, list, str, bool, float for any number,
    or object for any value."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number if kind is float else isinstance(value, kind)):
        raise TypeError(f"expected {_JSON_NAMES[kind]}, got {json.dumps(value)}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError("integer beyond the float range")


def _numbers(value, *sizes) -> tuple[float, ...]:
    """A JSON array of numbers; `sizes`, when given, are the lengths it may have."""
    numbers = tuple(_json(v, float) for v in _json(value, list))
    if sizes and len(numbers) not in sizes:
        raise ValueError(f"expected {' or '.join(map(str, sizes))} numbers, got {len(numbers)}")
    return numbers


def _count(value) -> int:
    """A JSON number that is a non-negative integer."""
    number = _json(value, float)
    if number < 0 or not number.is_integer():
        raise ValueError(f"expected a non-negative integer, got {json.dumps(value)}")
    return int(number)


def _strings(value) -> tuple[str, ...]:
    return tuple(_json(s, str) for s in _json(value, list))


def _one_of(*choices: str):
    """A `_fields` converter of a JSON string that must be one of `choices`."""
    def convert(value):
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(map(json.dumps, choices))}, "
                             f"got {json.dumps(value)}")
        return value
    return convert


def _number_in(low: float, high: float = math.inf, open_low: bool = False):
    """A `_fields` kind of a JSON number in [low, high], or in (low, high] when `open_low`."""
    bound = (f"{'>' if open_low else '>='} {low:g}" if high == math.inf
             else f"in {'(' if open_low else '['}{low:g}, {high:g}]")

    def convert(value):
        number = _json(value, float)
        if number < low or (open_low and number == low) or number > high:
            raise ValueError(f"expected a number {bound}, got {json.dumps(value)}")
        return number
    return convert


_positive = _number_in(0, open_low=True)


def _obstructions(value) -> tuple[tuple[int, str], ...]:
    """[[count, material], ...]: each a pair of a whole number and a string."""
    pairs = _json(value, list)
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise TypeError(f"expected a [count, material] pair, got {json.dumps(pair)}")
    return tuple((_count(count), _json(material, str)) for count, material in pairs)


def _vertices(value) -> tuple[tuple[float, ...], ...]:
    """A path's vertices: at least two points of 3 numbers, each unlike the one before."""
    vertices = tuple(_numbers(vertex, 3) for vertex in _json(value, list))
    if len(vertices) < 2:
        raise ValueError(f"expected at least two vertices, got {len(vertices)}")
    if any(a == b for a, b in zip(vertices, vertices[1:])):
        raise ValueError("expected consecutive vertices to differ")
    return vertices


def _reference_path(spec, owner: str) -> ReferencePath:
    from .nav import ReferencePath

    return ReferencePath(**_fields(spec, {"vertices": _vertices, "closed": bool}, owner,
                                   required=("vertices",)))


def _obstacle(spec, owner: str) -> ObstacleGeometry:
    from .core import OBSTACLE_MATERIALS, ObstacleGeometry

    point = lambda v: _numbers(v, 2)  # noqa: E731
    obstacle = ObstacleGeometry(**{"kind": "plane_segment", **_fields(spec, {
        "kind": _one_of("plane_segment", "infinite_plane"), "p0": point, "p1": point,
        "height": _positive, "material": _one_of(*OBSTACLE_MATERIALS)}, owner,
        required=("p0", "p1", "height"))})
    if obstacle.p0 == obstacle.p1:
        raise ParseError(f"{owner}: segment endpoints must differ")
    return obstacle


def _nlos_positions(value, owner: str) -> tuple[NlosPosition, ...]:
    from .field import NlosPosition

    # label and latency_ms are checked, not kept: the check always holds a label, so it
    # filters no entry out
    return tuple(NlosPosition(**_fields(entry, {
        "distance": _positive, "obstructions": _obstructions,
        "connect": _one_of("good", "bad", "none"), "fly": _one_of("possible", "not_possible"),
    }, name, required=("distance",)))
        for name, entry in ((f"{owner} {k}", entry) for k, entry in enumerate(_json(value, list)))
        if _fields(entry, {"label": str, "latency_ms": float}, name, required=("label",)))


#: the kind of each key of a fiducial, all required, in FiducialGroundTruth's order
_FIDUCIAL_FIELDS = {"id": str, "xy": lambda v: _numbers(v, 2), "min_traversal": _positive,
                    "min_turns": _count}


def _fiducials(value, owner: str) -> tuple[FiducialGroundTruth, ...]:
    from .mapping import FiducialGroundTruth

    return tuple(FiducialGroundTruth(*_fields(entry, _FIDUCIAL_FIELDS, f"{owner} {k}",
                                              required=tuple(_FIDUCIAL_FIELDS)).values())
                 for k, entry in enumerate(_json(value, list)))


def _shape_classes(value, owner: str) -> dict[str, str]:
    from .mapping import SHAPE_CLASSES

    return _fields(value, _one_of(*SHAPE_CLASSES), owner)


def _dimensions(value, owner: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    reported, truth = _fields(value, {"reported": _numbers,
                                      "truth": lambda v: tuple(map(_positive, _json(v, list)))},
                              owner, required=("reported", "truth")).values()
    if len(reported) != len(truth):
        raise ParseError(f"{owner}: {len(reported)} reported vs {len(truth)} truth values")
    if not truth:
        raise ParseError(f"{owner}: no dimensions")
    return reported, truth


def _fov(value, owner: str) -> tuple[int, int]:
    visible, total = _fields(value, {"visible": _count, "total": lambda v: _count(_positive(v))},
                             owner, required=("visible", "total")).values()
    if visible > total:
        raise ParseError(f"{owner}: visible count {visible} outside [0, {total}]")
    return visible, total


def _acuity_levels(value, owner: str) -> tuple[float, ...]:
    from .mapping import ACUITY_LEVELS_MM

    levels = _numbers(value)
    for level in levels:
        if not any(abs(level - known) < 1e-9 for known in ACUITY_LEVELS_MM):
            raise ParseError(f"{owner}: {level} mm is not an acuity level")
    return levels


#: each category's blocks, named as in the manifest and in CampaignTest, with their readers; a
#: reader takes the block and its owner, `test <id> <block>`, reads each object in it with
#: `_fields` and names an entry of an array by its index, `test <id> <block> <k>`
_TEST_BLOCKS = {
    "nav": {
        "path": _reference_path,
        "waypoint": lambda v, owner: _numbers(v, 2, 3),
        "length_m": lambda v, owner: _json(v, float),
    },
    "collision": {"obstacle": _obstacle},
    "field": {
        "nlos_positions": _nlos_positions,
        # a file beside the manifest, see _SIDE_FILES
        "criteria": lambda v, owner: _json(v, str),
        "responses": lambda v, owner: _fields(v, dict, owner),
    },
    "mapping": {
        "fiducials": _fiducials,
        "observations": lambda v, owner: _json(v, str),
        "shape_classes": _shape_classes,
        "dimensions": _dimensions,
        "fov": _fov,
        "acuity_levels": _acuity_levels,
    },
}

#: the blocks that name a file beside the manifest, each with the parser of that file given
#: the test's blocks; fiducial observations resolve against the test's fiducials
_SIDE_FILES = {"criteria": lambda path, blocks: parse_criteria(path),
               "observations": lambda path, blocks: parse_fiducial_observations(
                   path, {g.fiducial_id for g in blocks.get("fiducials", ())})}


def _campaign_test(entry: dict, test_id: str, kind: str | None, manifest: Path) -> CampaignTest:
    """A test entry as a CampaignTest; a test of an unknown kind keeps no blocks. Every block
    but a collision obstacle is optional, and an empty one is skipped as an absent one is."""
    owner = f"test {test_id}"
    readers = {key: functools.partial(read, owner=f"{owner} {key}")
               for key, read in _TEST_BLOCKS.get(kind, {}).items()}
    blocks = _fields({key: value for key, value in entry.items() if value or key == "obstacle"},
                     readers, owner, required=("obstacle",))
    for key in _SIDE_FILES.keys() & blocks.keys():
        blocks[key] = _side_file(test_id, key, blocks, manifest)
    return CampaignTest(test_id, kind, **blocks)


def _side_file(test_id: str, key: str, blocks: dict, manifest: Path) -> tuple:
    """The parsed contents of the file, beside the manifest, that a test's `key` block names.

    A malformed file fails with its parser's error, which names that file.
    """
    path = manifest.parent / blocks[key]
    if not path.is_file():
        raise ParseError(f"test {test_id}: {key} file {blocks[key]!r} not found")
    return tuple(_SIDE_FILES[key](path, blocks))


def _fields(value, kinds, owner: str, required=()) -> dict:
    """`value`, a JSON object, as the keys of `kinds` it holds, not null, each read as its
    kind: a `_json` kind or a converter. `kinds` maps a key to its kind, or is the kind of
    every key of a map whose keys are data, which `owner` then names. A `required` key must
    be there. An error names `owner`, and the key if one: `OWNER: bad 'KEY' field (REASON)`
    or `OWNER missing 'KEY'`."""
    try:
        value = _json(value, dict)
    except TypeError as exc:
        raise ParseError(f"{owner}: {exc}")
    out = {}
    for key, kind in (kinds if isinstance(kinds, dict) else dict.fromkeys(value, kinds)).items():
        if value.get(key) is None:
            if key in required:
                raise ParseError(f"{owner} missing {key!r}")
            continue
        try:
            out[key] = _json(value[key], kind) if kind in _JSON_NAMES else kind(value[key])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{owner}: bad {key!r} field ({exc})")
    return out


#: the kind of each environment field; only lighting and lux are read once typed
_ENVIRONMENT_FIELDS = {"lighting": _one_of("lighted", "dark"), "dims": lambda v: _numbers(v, 3),
                       "indoor": bool, "surfaces": _strings, "obstructions": _obstructions,
                       "lux": float}


@_total
def parse_campaign(path) -> Campaign:
    """Load and cross-validate a campaign manifest, converting every test block it reads."""
    from .core import APERTURE_TIERS, CR_CATEGORIES, OA_CATEGORIES, Campaign, TrialRecord

    path = Path(path)
    doc = _fields(_load_json(path), {"schema_version": _count, **dict.fromkeys(
        ("suas", "environments", "tests", "trials"), list)}, "manifest",
                  required=("schema_version",))
    version = doc.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise ParseError(f"schema_version {version!r}")

    suas = {_fields(entry, {"id": str}, "sUAS entry", required=("id",))["id"]
            for entry in doc.get("suas", [])}

    environments = set()
    for entry in doc.get("environments", []):
        env_id = _fields(entry, {"id": str}, "environment entry", required=("id",))["id"]
        name = f"environment {env_id}"
        environment = _fields(entry, _ENVIRONMENT_FIELDS, name)
        lighting, lux = environment.get("lighting", "lighted"), environment.get("lux")
        if lux is not None and lighting == "lighted" and lux < 100:
            raise ParseError(f"{name}: lighted requires measured lux >= 100")
        if lux is not None and lighting == "dark" and lux >= 1:
            raise ParseError(f"{name}: dark requires measured lux < 1")
        environments.add(env_id)

    tests = {}
    for entry in doc.get("tests", []):
        test_id = _fields(entry, {"test_id": str}, "test entry", required=("test_id",))["test_id"]
        if test_id in tests:  # a later entry would replace the test
            raise ParseError(f"test_id {test_id!r} appears more than once")
        typed = _fields(entry, {"environment": str, "kind": str}, f"test {test_id}")
        env_ref = typed.get("environment")
        if env_ref is not None and env_ref not in environments:
            raise ParseError(f"test {test_id} references environment {env_ref!r}")
        tests[test_id] = _campaign_test(entry, test_id, typed.get("kind"), path)

    # the kind of each key a TrialRecord keeps, named as its field
    trial_fields = {"test_id": str, "suas_id": str, "outcome": _one_of("success", "failure"),
                    "collisions": _count, "oa_category": _one_of(*OA_CATEGORIES),
                    "cr_category": _one_of(*CR_CATEGORIES),
                    "aperture_tier": _one_of(*APERTURE_TIERS), "t_collision_s": float,
                    "duration_min": _number_in(0), "laps": _count}
    trials = []
    for entry in doc.get("trials", []):
        trial_id = _fields(entry, {"trial_id": str}, "trial entry").get("trial_id", "?")
        owner = f"trial {trial_id}"
        typed = _fields(entry, trial_fields, owner, required=("test_id", "suas_id"))
        # rollovers is checked, not kept
        file = _fields(entry, {"telemetry": str, "rollovers": _count}, owner).get("telemetry")
        if typed["test_id"] not in tests:
            raise ParseError(f"trial {trial_id} references unknown test {typed['test_id']!r}")
        if typed["suas_id"] not in suas:
            raise ParseError(f"trial {trial_id} references unknown sUAS {typed['suas_id']!r}")
        telemetry = file and path.parent / file
        if telemetry and not telemetry.is_file():
            raise ParseError(f"trial {trial_id}: telemetry file {file!r} not found")
        trials.append(TrialRecord(trial_id, **typed, telemetry=telemetry))

    if not trials:
        _warn(path, "no trials")
    return Campaign(suas=suas, tests=tests, environments=environments, trials=tuple(trials))


@_total
def parse_reference_path(path) -> ReferencePath:
    """A reference path file, shaped like a nav test's `path`: vertices + closed flag."""
    return _reference_path(_load_json(path), "path file")


# --- surveys --------------------------------------------------------------------

def _instrument(text: str, line) -> str:
    instrument = text.strip()
    if instrument not in ("CTPA", "HCTM"):
        raise ParseError(f"instrument {instrument!r}", line)
    return instrument


def _score(text: str, line) -> int:
    score = _number(text, line)
    if not (score.is_integer() and 1 <= score <= 7):
        raise ParseError(f"score {text!r} outside 1..7", line)
    return int(score)


#: the survey's columns, in SurveyColumns' order, each with the converter of its text;
#: the first three are a response's key
SURVEY_COLUMNS = {"participant_id": _stripped, "instrument": _instrument, "item_id": _stripped,
                  "score": _score, "manip_pass": _boolean, "condition": _stripped}


@_total
def parse_survey(path) -> tuple[SurveyColumns, ParseReport]:
    """Load Likert survey rows; a repeated (participant, instrument, item) warns, and its
    later row takes the earlier one's place."""
    from .human_factors import SurveyColumns

    lines, columns = _csv_table(*_header_and_body(path), SURVEY_COLUMNS)
    kept = _repeated_keys(path, lines, columns[:3],
                          lambda key: f"duplicate response for {key}; keeping the later row")
    if kept is not None:
        columns = [[column[i] for i in kept] for column in columns]
    survey = SurveyColumns(*columns)

    expected = {"CTPA": CTPA_ITEM_COUNT, "HCTM": HCTM_ITEM_COUNT}
    # each (participant, instrument, item) is one row, so a pair's row count is its item count
    items = collections.Counter(zip(survey.participant_ids, survey.instruments))
    mismatched = [(key, count) for key, count in items.items() if count != expected[key[1]]]
    for (participant, instrument), count in sorted(mismatched):
        _warn(path,
              f"{participant}: {instrument} has {count} items, expected {expected[instrument]}")
    return survey, ParseReport({"responses": len(survey.participant_ids)})


#: the SAGAT columns, each with the converter of its text; all but question_id, which is
#: checked and not kept, in SagatColumns' order
SAGAT_COLUMNS = {"participant_id": _stripped, "question_id": _stripped, "se_id": _stripped,
                 "sa_level": _one_or_two("sa_level"), "correct": _boolean}


@_total
def parse_sagat(path) -> SagatColumns:
    from .human_factors import SagatColumns

    _, (participants, _, *columns) = _csv_table(*_header_and_body(path), SAGAT_COLUMNS)
    return SagatColumns(participants, *columns)


@_total
def parse_sa_weights(path) -> tuple[dict[str, float], dict]:
    """Attention weights per element, and the missions, of an `sa --weights` file.

    Weights come from SEEV `params`, an explicit `weights` map, or the top
    level itself; `missions` maps a mission name to the elements it covers, and an element
    that the file does not weigh warns.
    """
    from .human_factors import SeParams, attention_allocation

    doc = _load_json(path)
    typed = _fields(doc, dict.fromkeys(("missions", "params", "weights"), dict), "weight file")
    missions = _fields(typed.get("missions", {}), _strings, "weight file missions")
    if "params" in typed:
        seev = ("saliency", "effort", "expectancy", "value")
        params = [SeParams(se, *_fields(spec, dict.fromkeys(seev, _positive), se,
                                        required=seev).values())
                  for se, spec in _fields(typed["params"], object, "weight file params").items()]
        if not params:
            raise ParseError("no situation elements")
        weights = attention_allocation(params)
    else:
        weights = (_fields(typed["weights"], _number_in(0), "weight file weights")
                   if "weights" in typed
                   else _fields({k: v for k, v in doc.items() if k != "missions"}, _number_in(0),
                                "weight file"))
    for mission, elements in missions.items():
        for se in elements:
            if se not in weights:
                _warn(path, f"mission {mission!r}: element {se!r} has no weight")
    return weights, missions


# --- feature sheets ---------------------------------------------------------------

class FeatureSheet(NamedTuple):
    """A feature table plus the per-system extras a sheet may carry."""

    table: FeatureTable
    capabilities: dict[str, AutonomyCapabilities]
    degrees: dict[str, int]


def _capabilities(flags, sid: str) -> AutonomyCapabilities:
    """System `sid`'s capability flags; a flag that is not one of the four fails, as a
    misspelled one would lower the autonomy level."""
    from .ncap import AutonomyCapabilities

    owner = f"system {sid} capabilities"
    flags = _fields(flags, bool, owner)
    for flag in flags:
        if flag not in AutonomyCapabilities._fields:
            raise ParseError(f"{owner}: unknown flag {flag!r}")
    return AutonomyCapabilities(**flags)


#: the kind of each feature field
_FEATURE_FIELDS = {"direction": _one_of("higher", "lower"), "degree": _count,
                   "ordinal_map": dict}


def _feature_value(ordinal_map):
    """The kind of a system's value of a feature: "N/A", or a token of `ordinal_map` or a
    number, either standing for a number > 0."""
    from .ncap import ABSENT

    ordinal_map = ordinal_map or {}

    def convert(v):
        if v == ABSENT:
            return v
        token = isinstance(v, str) and v in ordinal_map
        number = ordinal_map[v] if token else _json(v, float)
        if not number > 0:
            raise ValueError(f"must be > 0, got {json.dumps(v)}"
                             + (f", which maps to {number:g}" if token else ""))
        return v if token else number
    return convert


@_total
def parse_feature_sheet(path) -> FeatureSheet:
    from .ncap import ABSENT, Feature, FeatureTable

    blocks = _fields(_load_json(path), {"features": list, "systems": list}, "feature sheet")
    if not blocks.get("features"):
        raise ParseError("feature sheet has no features")

    features = []
    degrees = {}
    for entry in blocks["features"]:
        name = _fields(entry, {"name": str}, "feature entry", required=("name",))["name"]
        owner = f"feature {name!r}"
        typed = _fields(entry, _FEATURE_FIELDS, owner, required=("direction",))
        ordinal_map = _fields(typed.get("ordinal_map", {}), float, f"{owner} ordinal_map")
        features.append(Feature(name, f"{typed['direction']}_better", ordinal_map or None))
        if "degree" in typed:
            degrees[name] = typed["degree"]

    value_fields = {f.name: _feature_value(f.ordinal_map) for f in features}
    values = {}
    capabilities = {}
    for system in blocks.get("systems", []):
        sid = _fields(system, {"id": str}, "system entry", required=("id",))["id"]
        typed = _fields(system, {"values": dict, "capabilities": object}, f"system {sid}")
        values[sid] = _fields(typed.get("values", {}), value_fields, f"system {sid}")
        if "capabilities" in typed:
            capabilities[sid] = _capabilities(typed["capabilities"], sid)
    if not values:
        raise ParseError("feature sheet has no systems")
    for f in features:  # an ordinal feature no system has takes the rank floor
        if not f.ordinal_map and all(row.get(f.name, ABSENT) == ABSENT for row in values.values()):
            raise ParseError(f"feature {f.name!r}: absent for every system")

    return FeatureSheet(FeatureTable(tuple(features), values), capabilities, degrees)


@_total
def parse_capabilities(path, system_ids) -> dict[str, AutonomyCapabilities]:
    """A `--caps` file: {"<system id>": {"perception": true, ...}, ...}; a system that is not
    one of `system_ids`, the feature sheet's, warns."""
    systems = _fields(_load_json(path), object, "capability file")
    for sid in systems:
        if sid not in system_ids:
            _warn(path, f"system {sid!r} is not one of the feature sheet's systems")
    return {sid: _capabilities(flags, sid) for sid, flags in systems.items()}


@_total
def parse_feature_weights(path, names) -> dict[str, float]:
    """An explicit weight file: {"<feature>": weight, ...} covering every name in `names`."""
    weights = _fields(_load_json(path), dict.fromkeys(names, float), "weight file")
    missing = [n for n in names if n not in weights]
    if missing:
        raise ParseError(f"weight file lacks features: {', '.join(missing)}")
    if not any(weights.values()):
        raise ParseError("weights must not all be zero")
    return weights


# --- FIS configuration ----------------------------------------------------------

def _range(value) -> tuple[float, float]:
    """An FIS variable's range: two numbers, the lower first, no wider than a float holds."""
    lo, hi = _numbers(value, 2)
    if lo > hi:
        raise ValueError(f"expected [lo, hi] with lo <= hi, got {json.dumps(value)}")
    if not math.isfinite(hi - lo):  # a sweep or a ramp over it would overflow
        raise ValueError(f"expected a width within the float range, got {json.dumps(value)}")
    return lo, hi


def _points(lo: float, hi: float):
    """The kind of an FIS term over the range [lo, hi]: three ordered points inside it, the
    first below the last (a term of zero width would have membership 1 at every input)."""
    def convert(value):
        points = _numbers(value, 3)
        if not lo <= points[0] <= points[1] <= points[2] <= hi:
            raise ValueError(f"expected 3 ordered points in [{lo}, {hi}], got {json.dumps(value)}")
        if not points[0] < points[2]:
            raise ValueError(f"expected the first point below the last, got {json.dumps(value)}")
        return points
    return convert


@_total
def parse_fis_config(path) -> FisConfig:
    from .cfis import Fis, FisConfig, LinguisticVariable, Rule, TriangularMf

    doc = _fields(_load_json(path), dict.fromkeys(("fis", "cascade", "ideal_inputs"), dict),
                  "FIS config")

    systems = {}
    for fis_name, spec in _fields(doc.get("fis", {}), object, "fis").items():
        spec = _fields(spec, {"inputs": dict, "outputs": dict, "rules": list}, fis_name)
        inputs = {}
        names = {}  # variable -> every name a rule may give a term, each -> the term
        for var_name, var_spec in _fields(spec.get("inputs", {}), object,
                                          f"{fis_name} inputs").items():
            owner = f"{fis_name}.{var_name}"
            var_spec = _fields(var_spec, {"range": _range, "terms": dict, "aliases": dict}, owner,
                               required=("range",))
            lo, hi = var_spec["range"]
            terms = {term: TriangularMf(*points) for term, points in _fields(
                var_spec.get("terms", {}), _points(lo, hi), f"{owner} terms").items()}
            if not terms:
                raise ParseError(f"{owner} has no terms")
            aliases = _fields(var_spec.get("aliases", {}), str, f"{owner} aliases")
            for alias, target in aliases.items():
                if alias in terms:  # the alias would hide the term from every rule
                    raise ParseError(f"{owner}: alias {alias!r} is also a term")
                if target not in terms:
                    raise ParseError(f"{owner}: alias {alias!r} names unknown term {target!r}")
            var = LinguisticVariable(lo, hi, terms)
            if not var.covered():
                _warn(path, f"{fis_name}: variable {var_name!r} has membership gaps")
            inputs[var_name] = var
            names[var_name] = dict(zip(terms, terms), **aliases)

        outputs = _fields(spec.get("outputs", {}), _number_in(0, 1), f"{fis_name} outputs")

        rules = []
        for i, rule_spec in enumerate(spec.get("rules", [])):
            owner = f"{fis_name} rule {i}"
            rule = _fields(rule_spec, {"if": dict, "then": str}, owner, required=("then",))
            conditions = _fields(rule.get("if", {}), str, f"{owner} if")
            if not conditions:  # a rule without conditions would fire on every row
                raise ParseError(f"{owner}: no 'if' conditions")
            antecedents = []
            for var_name, term in conditions.items():
                if var_name not in inputs:
                    raise ParseError(f"{owner}: unknown variable {var_name!r}")
                negated = term.startswith("not ")
                bare = term[4:] if negated else term
                if bare not in names[var_name]:
                    raise ParseError(f"{owner}: unknown term {term!r} of {var_name!r}")
                antecedents.append((var_name, names[var_name][bare], negated))
            if rule["then"] not in outputs:
                raise ParseError(f"{owner}: unknown output {rule['then']!r}")
            rules.append(Rule(tuple(antecedents), outputs[rule["then"]]))
        if not rules:
            raise ParseError(f"{fis_name}: at least one rule required")
        systems[fis_name] = Fis(fis_name, inputs, tuple(rules))

    cascade = _fields(doc.get("cascade", {}), _strings, "cascade")
    for combined, axes in cascade.items():
        if combined not in systems:
            raise ParseError(f"cascade target {combined!r} not defined")
        for axis in axes:
            if axis not in systems:
                raise ParseError(f"cascade input {axis!r} not defined")
            # the cascade runs one combining stage over axis systems only
            if axis in cascade:
                raise ParseError(f"cascade stage {combined!r} takes combining stage {axis!r}")
        if not axes:  # every row would fail
            raise ParseError(f"cascade stage {combined!r} combines no axis")
    if len(cascade) != 1:
        raise ParseError("config must declare exactly one combining stage")
    (combiner,) = cascade
    if len(systems[combiner].inputs) != 2:
        raise ParseError(f"{combiner}: a combining stage takes 2 inputs, "
                         f"not {len(systems[combiner].inputs)}")

    ideal_inputs = {}
    for axis, vals in _fields(doc.get("ideal_inputs", {}), object, "ideal_inputs").items():
        if axis not in systems or axis in cascade:
            raise ParseError(f"ideal_inputs: {axis!r} is not an axis system")
        vals = ideal_inputs[axis] = _fields(vals, float, f"ideal_inputs {axis}")
        for var_name in systems[axis].inputs:
            if var_name not in vals:
                raise ParseError(f"ideal_inputs: {axis}: missing input {var_name!r}")

    return FisConfig(fis=systems, cascade=cascade, ideal_inputs=ideal_inputs)


# --- cfis scores -----------------------------------------------------------------

class ScoreColumns(NamedTuple):
    """A `cfis --scores` file a column at a time.

    Row k is (suas_ids[k], test_ids[k]) from file line lines[k], and numbers[name][k]
    is its value of each number column: "score" when the file holds precomputed
    scores, else each FIS input variable, NaN for an empty or absent cell.
    """

    precomputed: bool
    suas_ids: list[str]
    test_ids: list[str]
    numbers: dict[str, list[float]]
    lines: Sequence[int]


@_total
def parse_scores(path, variables: list[str]) -> ScoreColumns:
    """A `cfis --scores` CSV, its rows in file order.

    A file whose columns are exactly suas_id,test_id,score holds precomputed
    scores, and an empty score fails. Any other file holds FIS inputs, one
    number column per name in `variables`, NaN for an empty or absent cell. A
    number that is not finite fails. A repeated (suas_id, test_id) pair warns;
    both rows are returned, and the later one is the pair's score.
    """
    header, body, start = _header_and_body(path)
    precomputed = set(header) == {"suas_id", "test_id", "score"}
    converters = {"suas_id": _text, "test_id": _text,
                  **({"score": _number} if precomputed else dict.fromkeys(variables, _fis_input))}
    optional = () if precomputed else variables
    lines, (suas_ids, test_ids, *numbers) = _csv_table(header, body, start, converters, optional)
    _repeated_keys(path, lines, [suas_ids, test_ids],
                   lambda key: f"duplicate score for {key[0]}/{key[1]}; keeping the later row")
    return ScoreColumns(precomputed, suas_ids, test_ids, dict(zip(list(converters)[2:], numbers)),
                        lines)


def _fis_input(text: str, line) -> float:
    """An FIS input cell: empty when the test did not measure that input."""
    return math.nan if text == "" else _number(text, line)
