"""Span tracing around the gainregion layers, and the traced CLI run.

``Tracer.install`` wraps each layer's public entry point (in the module that
defines it and in every module that imported it) so that each call records
a span: name, start, end and the span that was open when it started.  Spans
stay in memory until the run ends.  ``layer_metrics`` derives every
per-layer time from the spans, a layer's self time being its span's
duration minus the part of that interval its child spans cover.

Run as a script, this module executes one CLI command traced and writes
the spans and counts as JSON:

    python bench/spans.py OUT.json -- sweep-rates --scenario s.json ...
"""

from __future__ import annotations

import functools
import json
import sys
import time
import warnings
from collections import Counter, defaultdict

# (module, function) of each layer boundary, in gainregion.
LAYERS = (
    ("network", "load_scenario"),
    ("region", "sweep_boundary"),
    ("region", "boundary_strategy"),
    ("linalg", "eig_hermitian"),
    ("pareto", "sweep_utility_region"),
    ("pareto", "pareto_filter"),
    ("cli", "main"),
)


class Tracer:
    """Spans as [name, start, end, parent index] plus counts at layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.sweeps: list = []  # utility arrays returned by sweep_utility_region
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, time.perf_counter(), None, open_[-1] if open_ else -1])
            open_.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][2] = time.perf_counter()
                open_.pop()
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result) -> None:
        if name == "region.boundary_strategy":
            self.counts[f"class_{result.power_class.value}"] += 1
        elif name == "pareto.sweep_utility_region":
            self.counts["grid_points"] += len(result)
            self.sweeps.append(result.utilities)
        elif name == "pareto.pareto_filter":
            self.counts["filter_in"] += len(args[0])
            self.counts["front_rows"] += len(result)

    def install(self) -> list:
        """Patch every layer function in all loaded gainregion modules.

        Returns the (module, attribute, original) triples to restore.
        """
        import gainregion.cli  # noqa: F401  (loads every gainregion module)

        modules = [m for n, m in sys.modules.items() if n == "gainregion" or n.startswith("gainregion.")]
        patched = []
        for modname, attr in LAYERS:
            original = getattr(sys.modules[f"gainregion.{modname}"], attr)
            traced = self.wrap(f"{modname}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        patched.append((mod, key, original))
        return patched


def uninstall(patched) -> None:
    for mod, key, original in patched:
        setattr(mod, key, original)


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts, stress: str) -> dict:
    """Per-layer metrics (value, unit) from one traced run's spans and counts."""
    own = self_times(spans)
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = Counter()
    for (name, start, end, _), s in zip(spans, own):
        total[name] += end - start
        self_s[name] += s
        calls[name] += 1
    boundary_calls = calls["region.boundary_strategy"]
    boundary_s = total["region.boundary_strategy"]
    write_s = self_s["cli.main"]
    rows = counts.get("rows_written", 0)
    m = {
        "network.load_s": (total["network.load_scenario"], "s"),
        "region.boundary_s": (boundary_s, "s"),
        "region.boundary_calls": (boundary_calls, "count"),
        "region.boundary_us_per_call": (1e6 * boundary_s / boundary_calls if boundary_calls else 0.0, "us"),
        "region.sweep_boundary_self_s": (self_s["region.sweep_boundary"], "s"),
        "region.class_full": (counts.get("class_full", 0), "count"),
        "region.class_free": (counts.get("class_free", 0), "count"),
        "region.class_zero": (counts.get("class_zero", 0), "count"),
        "linalg.eigh_s": (total["linalg.eig_hermitian"], "s"),
        "linalg.eigh_calls": (calls["linalg.eig_hermitian"], "count"),
        "linalg.eigh_per_boundary": (
            calls["linalg.eig_hermitian"] / boundary_calls if boundary_calls else 0.0,
            "ratio",
        ),
        "linalg.degenerate_warnings": (counts.get("degenerate_warnings", 0), "count"),
        "pareto.sweep_self_s": (self_s["pareto.sweep_utility_region"], "s"),
        "pareto.grid_points": (counts.get("grid_points", 0), "count"),
        "pareto.filter_s": (total["pareto.pareto_filter"], "s"),
        "pareto.filter_in": (counts.get("filter_in", 0), "count"),
        "pareto.front_rows": (counts.get("front_rows", 0), "count"),
        "pareto.duplicate_rows": (counts.get("duplicate_rows", 0), "count"),
        "pareto.kept_ratio": (
            counts["front_rows"] / counts["filter_in"] if counts.get("filter_in") else 0.0,
            "ratio",
        ),
        "sweep.self_s": (self_s["region.sweep_boundary"] + self_s["pareto.sweep_utility_region"], "s"),
        "cli.write_s": (write_s, "s"),
        "cli.rows_written": (rows, "count"),
        "cli.bytes_written": (counts.get("bytes_written", 0), "count"),
        "cli.write_rows_per_s": (rows / write_s if write_s > 0 else 0.0, "1/s"),
        "trace.total_s": (total["cli.main"], "s"),
    }
    m["stress.layer_s"] = (m[stress][0], "s")
    m["stress.layer_share"] = (m[stress][0] / total["cli.main"] if total["cli.main"] else 0.0, "ratio")
    return m


def traced_main(argv: list[str]) -> dict:
    """Run ``gainregion.cli.main(argv)`` traced; return exit code, spans and counts."""
    import numpy as np

    from gainregion import cli
    from gainregion.linalg import DegenerateEigenspaceWarning

    tracer = Tracer()
    patched = tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(argv)
    finally:
        uninstall(patched)
    post_start = time.perf_counter()
    counts = tracer.counts
    counts["degenerate_warnings"] = sum(
        issubclass(w.category, DegenerateEigenspaceWarning) for w in caught
    )
    counts["duplicate_rows"] = sum(len(u) - len(np.unique(u, axis=0)) for u in tracer.sweeps)
    return {
        "rc": rc,
        "spans": tracer.spans,
        "counts": dict(counts),
        "post_start": post_start,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py OUT.json -- CLI_ARGS...", file=sys.stderr)
        return 2
    result = traced_main(argv[2:])
    post_start = result.pop("post_start")
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    # Time spent after cli.main returned, for the caller to take off the wall time.
    print(json.dumps({"post_s": time.perf_counter() - post_start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
