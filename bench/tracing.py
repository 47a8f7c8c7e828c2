"""Traced in-process passes: a span for every call that enters a layer.

A layer is a module of the `decisive` package. Each public function of a layer
is wrapped, and the wrapper is put in place of the function wherever it is
bound in a loaded `decisive.*` namespace (matched by identity), so a function
re-exported or moved to another module is still traced. A call from a function
of the same layer opens no span. Spans are kept in memory and written when the
run ends; `aggregate` turns them into per-layer self times and call counts.

Run as a child process with PYTHONPATH set to the measured `src/`:

    python3 bench/tracing.py imports            # prints import times as JSON
    python3 bench/tracing.py run SPEC.json      # traced passes, see run_passes
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import importlib
import inspect
import io
import json
import pkgutil
import statistics
import sys
import time
import traceback

#: layers reported by name; every other module of the package is pooled as "other"
NAMED_LAYERS = ("cli", "ingest", "core", "nav", "collision", "stats", "human_factors",
                "cfis", "report")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counters read at layer boundaries, keyed by function name so they follow
# a function that moves. Each takes (args, kwargs, result, entered_layer).
COUNTERS = {
    "average_deviation": lambda a, k, r, entered: {"nav.samples": len(_arg(a, k, 0, "traj"))},
    "point_path_deviation": lambda a, k, r, entered: {"nav.samples": 1} if entered else {},
    "parse_telemetry": lambda a, k, r, entered: {"ingest.rows": r[1].counts["samples"]},
    "parse_survey": lambda a, k, r, entered: {"ingest.rows": r[1].counts["responses"]},
    "distance_to_obstacle": lambda a, k, r, entered: {"collision.distance_evals": 1},
    "derive_kinematics": lambda a, k, r, entered: {"collision.kinematics_derivations": 1},
    "mann_whitney": lambda a, k, r, entered: {"stats.rank_tests": 1,
                                              "stats.exact_tests": int(r.method == "exact")},
    "trust_pipeline": lambda a, k, r, entered: {"human_factors.items": len(r.items)},
    "cascade_eval": lambda a, k, r, entered: {"cfis.evals": 1},
    "normalized_test_score": lambda a, k, r, entered: {"cfis.rows": 1},
    "render_table": lambda a, k, r, entered: {"report.rows": len(_arg(a, k, 0, "table").rows),
                                              "report.bytes": len(r) if entered else 0},
    "render_tables": lambda a, k, r, entered: {"report.bytes": len(r)} if entered else {},
    "plot_svg": lambda a, k, r, entered: {"report.bytes": len(r)} if entered else {},
}


class Tracer:
    """Installs span-recording wrappers and holds the spans and counters."""

    def __init__(self):
        self.spans = []  # (pass_id, span_id, parent_id, name, start, end)
        self.stack = [("", -1)]  # (layer, span_id) of each open span
        self.counts = {}  # pass_id -> {counter: value}
        self.errors = []
        self.pass_id = 0
        self.next_id = 0
        self._patches = []

    def install(self, layers: dict) -> None:
        """Wrap every public function of each layer module, in every decisive namespace."""
        wrappers = {}
        for layer, module in layers.items():
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(fn)] = (fn, self._wrap(fn, layer, f"{layer}.{name}",
                                                       COUNTERS.get(name)))
        for module_name, module in list(sys.modules.items()):
            if module_name != "decisive" and not module_name.startswith("decisive."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _count(self, counter, name, args, kwargs, result, entered) -> None:
        try:
            increments = counter(args, kwargs, result, entered)
        except Exception as exc:  # a counter that no longer fits its function
            self.errors.append(f"counter for {name} failed: {exc!r}")
            return
        totals = self.counts.setdefault(self.pass_id, {})
        for key, value in increments.items():
            totals[key] = totals.get(key, 0) + value

    def _wrap(self, fn, layer, name, counter):
        stack, spans, clock, tracer = self.stack, self.spans, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if counter is not None:
                    tracer._count(counter, name, args, kwargs, result, False)
                return result
            tracer.next_id += 1
            span_id = tracer.next_id
            parent = stack[-1][1]
            stack.append((layer, span_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((tracer.pass_id, span_id, parent, name, start, end))
            if counter is not None:
                tracer._count(counter, name, args, kwargs, result, True)
            return result

        return traced


def load_layers() -> dict:
    """Import every module of the decisive package; the module name is the layer."""
    package = importlib.import_module("decisive")
    return {
        info.name: importlib.import_module(f"decisive.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if info.name != "__main__"
    }


def run_invocation(main, argv):
    """One CLI call in process: (exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_passes(spec: dict) -> dict:
    """Alternate untraced and traced passes for spec["seconds"], after one warm-up pass.

    spec keys: invocations, seconds, spans (path of the gzip JSON-lines span
    file), outputs (path prefix; each distinct stdout is written once, to the
    prefix plus its digest). Every invocation is listed in the returned
    "outcomes" as [index, exit code or None, stderr, stdout digest].
    """
    layers = load_layers()
    cli = layers["cli"]
    tracer = Tracer()
    outcomes, written = [], set()

    def one_pass(traced: bool) -> float:
        if traced:
            tracer.pass_id += 1
            tracer.install(layers)
        try:
            start = time.perf_counter()
            results = [run_invocation(cli.main, argv) for argv in spec["invocations"]]
            elapsed = time.perf_counter() - start
        finally:
            tracer.uninstall()
        for index, (code, out, err) in enumerate(results):
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            if digest not in written:
                with open(spec["outputs"] + digest, "w", encoding="utf-8") as fh:
                    fh.write(out)
                written.add(digest)
            outcomes.append([index, code, err, digest])
        return elapsed

    one_pass(False)  # warm-up: lazy imports and first-call caches
    untraced, traced = [], []
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        # alternate which side of a pair runs first, so drift falls on both
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for is_traced in order:
            (traced if is_traced else untraced).append(one_pass(is_traced))
        if time.perf_counter() >= deadline:
            break

    with gzip.open(spec["spans"], "wt", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "untraced_s": untraced,
        "traced_s": traced,
        "counts": {str(k): v for k, v in tracer.counts.items()},
        "passes": tracer.pass_id,
        "outcomes": outcomes,
        "errors": tracer.errors,
    }


def time_imports() -> dict:
    start = time.perf_counter()
    importlib.import_module("numpy")
    mid = time.perf_counter()
    load_layers()
    end = time.perf_counter()
    return {"import_numpy_s": mid - start, "import_decisive_s": end - mid}


# --- aggregation (runs in the benchmark process) -------------------------------------

def _layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return layer if layer in NAMED_LAYERS else "other"


def aggregate(spans_path, summary: dict) -> tuple[dict, set]:
    """Per-layer metrics (median over traced passes) and the set of modules entered.

    Self time is a span's duration minus the durations of its child spans.
    """
    durations, children = {}, {}
    rows, entered = [], set()
    with gzip.open(spans_path, "rt", encoding="utf-8") as fh:
        for line in fh:
            pass_id, span_id, parent, name, start, end = json.loads(line)
            durations[span_id] = end - start
            if parent != -1:
                children[parent] = children.get(parent, 0.0) + (end - start)
            rows.append((pass_id, span_id, name))
            entered.add(name.split(".", 1)[0])

    per_pass = {p: {} for p in range(1, summary["passes"] + 1)}
    for pass_id, span_id, name in rows:
        m = per_pass[pass_id]
        layer = _layer_of(name)
        self_time = durations[span_id] - children.get(span_id, 0.0)
        m[f"{layer}.self_s"] = m.get(f"{layer}.self_s", 0.0) + self_time
        m[f"{layer}.calls"] = m.get(f"{layer}.calls", 0) + 1
        if name == "stats.mann_whitney":
            m["stats.rank_test_s"] = m.get("stats.rank_test_s", 0.0) + durations[span_id]

    def ratio(num, den):
        return num / den if den else 0.0

    for pass_id, m in per_pass.items():
        m.update(summary["counts"].get(str(pass_id), {}))
        m["nav.samples_per_s"] = ratio(m.get("nav.samples", 0), m.get("nav.self_s", 0.0))
        m["ingest.rows_per_s"] = ratio(m.get("ingest.rows", 0), m.get("ingest.self_s", 0.0))
        m["cfis.rows_per_s"] = ratio(m.get("cfis.rows", 0), m.get("cfis.self_s", 0.0))
        m["stats.exact_share"] = ratio(m.get("stats.exact_tests", 0), m.get("stats.rank_tests", 0))

    keys = set().union(*per_pass.values()) if per_pass else set()
    metrics = {key: statistics.median(m.get(key, 0) for m in per_pass.values()) for key in keys}
    return metrics, entered


def main(argv) -> int:
    if argv[:1] == ["imports"]:
        print(json.dumps(time_imports()))
        return 0
    if argv[:1] == ["run"] and len(argv) == 2:
        with open(argv[1], encoding="utf-8") as fh:
            spec = json.load(fh)
        summary = run_passes(spec)
        with open(spec["summary"], "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
