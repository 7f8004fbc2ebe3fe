#!/usr/bin/env python3
"""Benchmark of the gainregion CLI, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Set-up, not timed: ``gainregion
gen`` makes the workload's scenarios from seeds n * N + j (j < n, N the
seed given), the output checks build their references in process, and
``setup_s`` is timed as the median of several child processes that only
start Python, import ``gainregion.cli`` and load a scenario.  Then the CLI
command runs once per scenario, in rounds while another round fits in S
seconds, each run one child process with BLAS threads pinned to 1 and
tracing off.  Every output is checked; an output whose SHA-256 matches one
already checked needs no second check.  With ``--trace 1`` each scenario
then runs once more, traced (see spans.py), for the per-layer metrics.

Prints every metric with its unit and sample count, then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json, or its per-layer metrics with
``--trace 1``).  The full record, with the spans, goes to
``.bench_results/``.  Exits 1 when an output check fails and 2 when
set-up fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9
CHILD_LIMIT_S = 150.0
SETUP_CODE = "import sys, gainregion.cli as c; c.load_scenario(sys.argv[1])"

# Metrics of the last output line, as declared in BENCHMARK.json.  Layer
# times that are 0 on workloads without that layer (pareto.filter_s,
# pareto.sweep_self_s, region.sweep_boundary_self_s) are printed and kept
# in the result file only; stress.layer_s and sweep.self_s carry them.
END_TO_END = ("wall_s", "points_per_s", "setup_s", "peak_rss_mib")
PER_LAYER = (
    "network.load_s",
    "region.boundary_s",
    "region.boundary_calls",
    "region.boundary_us_per_call",
    "region.class_full",
    "region.class_free",
    "region.class_zero",
    "linalg.eigh_s",
    "linalg.eigh_calls",
    "linalg.eigh_per_boundary",
    "linalg.degenerate_warnings",
    "sweep.self_s",
    "pareto.grid_points",
    "pareto.filter_in",
    "pareto.front_rows",
    "pareto.duplicate_rows",
    "pareto.kept_ratio",
    "cli.write_s",
    "cli.rows_written",
    "cli.bytes_written",
    "cli.write_rows_per_s",
    "stress.layer_s",
    "stress.layer_share",
    "trace.total_s",
    "trace.overhead_s",
)


class SetupError(RuntimeError):
    """The benchmark could not prepare its inputs; no result is printed."""


@dataclass
class Sample:
    wall_s: float
    rc: int
    maxrss_mib: float
    log: Path


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], log: Path) -> Sample:
    """Run ``python args...`` from the root through launch.py, timed spawn to exit.

    The child's stdout and stderr go to ``log``.  The launcher runs in its
    own process group, so a stuck child is killed with it.
    """
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "launch.py"), str(log), str(CHILD_LIMIT_S), "--",
         sys.executable, *args],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_LIMIT_S + 20)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SetupError(f"launcher exited {proc.returncode}")
    r = json.loads(out)
    return Sample(r["wall_s"], r["rc"], r["maxrss_kib"] / 1024.0, log)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def environment(load_before) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "load_before": list(load_before),
        "load_after": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "src_loc": sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "gainregion").rglob("*.py"))),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@dataclass
class Input:
    """One generated scenario of a run, with its output reference and timings."""

    seed: int
    scenario: Path
    out: Path
    reference: object = None
    walls: list = field(default_factory=list)
    digest: str | None = None  # of its latest output


class Run:
    """One run of one workload on scenarios n * seed + j, j < n = workload.scenarios."""

    def __init__(self, workload, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.seconds = seconds
        self.work = work
        n = workload.scenarios
        self.inputs = [
            Input(n * seed + j, work / f"scenario{j}.json", work / f"out{j}.csv") for j in range(n)
        ]
        self.outputs: dict[str, dict] = {}  # digest -> problems, rows and bytes
        self.samples: list[Sample] = []
        self.failed = 0

    @staticmethod
    def cli(*args) -> list[str]:
        return ["-m", "gainregion.cli", *args]

    def set_up(self) -> None:
        from checks import reference_for

        from gainregion import cli

        for inp in self.inputs:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(self.workload.gen_args(inp.seed, inp.scenario))
            if rc != 0:
                raise SetupError(f"gainregion gen exited {rc} for seed {inp.seed}")
            inp.reference = reference_for(self.workload, inp.scenario)
        setup = []
        for i in range(SETUP_SAMPLES + 1):  # the first one warms the caches
            s = run_child(["-c", SETUP_CODE, str(self.inputs[0].scenario)], self.work / "setup.log")
            if s.rc != 0:
                raise SetupError(f"set-up child exited {s.rc}: {s.log.read_text()[-2000:]}")
            if i:
                setup.append(s.wall_s)
        self.setup_s = setup

    def check(self, inp: Input, path: Path) -> tuple[str, dict]:
        """Digest of an output and what its check found; a digest seen before is not re-checked."""
        digest = sha256(path)
        if digest not in self.outputs:
            try:
                problems = inp.reference.check(path)
            except (ValueError, IndexError) as exc:
                problems = [f"unreadable output: {exc}"]
            self.outputs[digest] = {
                "seed": inp.seed, "problems": problems,
                "rows": count_rows(path), "bytes": path.stat().st_size,
            }
        return digest, self.outputs[digest]

    def sample(self, inp: Input) -> None:
        inp.out.unlink(missing_ok=True)
        s = run_child(self.cli(*self.workload.cli_args(inp.scenario, inp.out)), self.work / "cli.log")
        self.samples.append(s)
        inp.walls.append(s.wall_s)
        if s.rc != 0:
            self.failed += 1
            print(f"scenario seed {inp.seed}: exit {s.rc}: {s.log.read_text()[-2000:]}", file=sys.stderr)
            return
        inp.digest, found = self.check(inp, inp.out)
        if found["problems"]:
            self.failed += 1

    def measure(self) -> None:
        """Rounds over all scenarios, while another round fits in the time given.

        A round's length is estimated from its CLI runs alone, since the
        first round also pays for checking each new output.
        """
        start = time.perf_counter()
        while True:
            first = len(self.samples)
            for inp in self.inputs:
                self.sample(inp)
            next_round = sum(s.wall_s for s in self.samples[first:])
            if time.perf_counter() - start + next_round > self.seconds:
                break

    def end_to_end(self) -> dict:
        medians = [statistics.median(inp.walls) for inp in self.inputs]
        wall = statistics.fmean(medians)
        points = self.inputs[0].reference.points
        n = len(self.samples)
        su1, su3 = quartiles(self.setup_s)
        spread = f"scenario medians {min(medians):.4f}..{max(medians):.4f}"
        return {
            "wall_s": (wall, "s", n, f"mean of {len(medians)} scenario medians; {spread}"),
            "points_per_s": (points / wall, "1/s", n, f"{points} points per run"),
            "setup_s": (statistics.median(self.setup_s), "s", len(self.setup_s),
                        f"median; q1 {su1:.4f} q3 {su3:.4f}"),
            "peak_rss_mib": (statistics.median(s.maxrss_mib for s in self.samples), "MiB", n, "median"),
        }

    def trace(self) -> dict:
        """A traced run of every scenario: per-layer metrics summed over them, and spans.

        ``trace.overhead_s`` sums, over the scenarios, the traced wall time
        less the scenario's untraced median.
        """
        from spans import layer_metrics

        spans, counts, problems, failed, overhead = [], Counter(), [], 0, 0.0
        spans_path = self.work / "spans.json"
        traced_out = self.work / "traced.csv"
        for inp in self.inputs:
            traced_out.unlink(missing_ok=True)
            spans_path.unlink(missing_ok=True)
            s = run_child(
                [str(BENCH_DIR / "spans.py"), str(spans_path), "--",
                 *self.workload.cli_args(inp.scenario, traced_out)],
                self.work / "trace.log",
            )
            record = json.loads(spans_path.read_text()) if s.rc == 0 else {"rc": s.rc}
            if record["rc"] != 0:
                failed += 1
                problems.append(f"scenario seed {inp.seed}: traced run failed: {s.log.read_text()[-2000:]}")
                continue
            digest, found = self.check(inp, traced_out)
            if digest != inp.digest:
                found = {**found, "problems": found["problems"] + [
                    f"scenario seed {inp.seed}: traced output bytes differ from untraced"]}
            if found["problems"]:
                failed += 1
                problems += found["problems"]
            post_s = json.loads(s.log.read_text().splitlines()[-1])["post_s"]
            overhead += s.wall_s - post_s - statistics.median(inp.walls)
            offset = len(spans)
            spans += [[n, a, b, p + offset if p >= 0 else -1] for n, a, b, p in record["spans"]]
            counts.update(record["counts"])
            counts["rows_written"] += found["rows"]
            counts["bytes_written"] += found["bytes"]
        metrics = layer_metrics(spans, counts, self.workload.stress)
        metrics["trace.overhead_s"] = (overhead, "s")
        return {"metrics": metrics, "problems": problems, "failed": failed, "spans": spans}


def count_rows(path: Path) -> int:
    """Data rows of a CLI output file: lines minus meta lines and the header."""
    if not path.exists():
        return 0
    lines = meta = 0
    with open(path, "rb") as fh:
        for line in fh:
            lines += 1
            meta += line.startswith(b"# ")
    return lines - meta - 1


def main(argv=None) -> int:
    # Before numpy loads, here for the output references and in every child.
    os.environ.update({var: "1" for var in THREAD_VARS})
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gainregion" / "cli.py").is_file():
        print(f"no gainregion sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, args.seed, args.seconds, work)
        run.set_up()
        run.measure()
        traced = run.trace() if args.trace else None
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_traced = len(run.inputs) if traced else 0
    attempted = len(run.samples) + n_traced
    failed = run.failed + (traced["failed"] if traced else 0)
    problems = sorted(
        {p for found in run.outputs.values() for p in found["problems"]}
        | set(traced["problems"] if traced else ())
    )
    correct = failed == 0
    e2e = run.end_to_end()

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"  {workload.why}")
    print("end-to-end, tracing off:")
    for name, (value, unit, n, note) in e2e.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {n} samples; {note}")
    print(f"  {'error_rate':<28} {failed / attempted:>14.6g} ratio  {failed} of {attempted} runs failed")
    if traced:
        layer = traced["metrics"].items()
        print("per-layer, one traced run of each scenario, summed:")
        for name, (value, unit) in layer:
            if unit != "count":
                print(f"  {name:<28} {value:>14.6g} {unit:<6} {len(run.inputs)} traced runs")
        print("per-layer exact counts (cite as counts, not as timings):")
        for name, (value, unit) in layer:
            if unit == "count":
                print(f"  {name:<28} {value:>14d} {unit}")
    print("outputs, exact counts:")
    for inp in run.inputs:
        found = run.outputs.get(inp.digest, {})
        print(f"  scenario seed {inp.seed:<6} rows {found.get('rows', 0):>8d}  bytes {found.get('bytes', 0):>10d}  "
              f"sha256 {inp.digest}")
    if len(run.outputs) > len(run.inputs):
        print(f"  {len(run.outputs)} distinct outputs from {len(run.inputs)} scenarios: output bytes changed between runs")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(load_before),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": {k: {"value": v[0], "unit": v[1], "samples": v[2]} for k, v in e2e.items()},
        "scenarios": [{"seed": inp.seed, "wall_samples_s": inp.walls, "sha256": inp.digest} for inp in run.inputs],
        "outputs": run.outputs,
        "setup_samples_s": run.setup_s,
        "maxrss_samples_mib": [s.maxrss_mib for s in run.samples],
    }
    if traced:
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in traced["metrics"].items()}
        record["spans"] = {"fields": ["name", "start", "end", "parent"], "rows": traced["spans"]}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    result_path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    result_path.write_text(json.dumps(record))
    print(f"result file {result_path.relative_to(ROOT)}")

    if traced:
        names, source = PER_LAYER, traced["metrics"]
    else:
        names, source = END_TO_END, e2e
    metrics = {n: {"value": source[n][0], "unit": source[n][1]} for n in names}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
