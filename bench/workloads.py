"""Benchmark workloads: one gainregion CLI command each, run on several scenarios.

Each workload is chosen so that one layer of the pipeline (boundary table,
utility sweep, nondominated filter, CSV writer) does most of its work, and
the others do almost none, so a change to one layer shows on one workload
and must leave the rest unchanged.  Single CLI runs last about 0.5-2 s and
a run of the benchmark averages over its scenarios, because on a small
shared machine one long run of one scenario varies too much to compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

SKELETONS = Path(__file__).resolve().parent / "skeletons"


@dataclass(frozen=True)
class Workload:
    """One CLI command on a scenario that ``gainregion gen`` makes from the seed."""

    name: str
    why: str
    gen: tuple[str, ...]  # `gen` flags other than --seed and --out
    command: str  # "sweep-gain" or "sweep-rates"
    step: float
    filter: bool = False
    transmitter: str | None = None
    # Span metric of the layer this workload is meant to stress.
    stress: str = ""
    # Scenarios per run: enough that the run's mean is steady across seeds.
    scenarios: int = 4

    @property
    def kind(self) -> str:
        if self.command == "sweep-gain":
            return "gain"
        return "front" if self.filter else "cloud"

    def cli_args(self, scenario: Path, out: Path) -> list[str]:
        args = [self.command, "--scenario", str(scenario), "--step", repr(self.step)]
        if self.transmitter is not None:
            args += ["--transmitter", self.transmitter]
        if self.filter:
            args.append("--filter")
        return args + ["--out", str(out)]

    def gen_args(self, seed: int, out: Path) -> list[str]:
        return ["gen", *self.gen, "--seed", str(seed), "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gain-boundary",
            why="5,151 boundary weights for one transmitter with N < K: the per-weight "
            "eigendecomposition dominates and all three power classes occur",
            gen=("--template", "ic", "--users", "3", "--antennas", "2"),
            command="sweep-gain",
            step=0.01,
            transmitter="1",
            stress="region.boundary_s",
        ),
        Workload(
            name="cloud-write",
            why="91,125 unfiltered rows (18 MB of CSV) from a cheap sweep: the per-value "
            "writer dominates and the filter is not on the path",
            gen=("--template", "ic", "--users", "3", "--antennas", "3"),
            command="sweep-rates",
            step=0.125,
            stress="cli.write_s",
        ),
        # Its filter time grows with the front, which varies about twofold
        # between channel draws, so a run averages many small scenarios.
        Workload(
            name="front-4d",
            why="16 scenarios of 8,000 points in 4 utilities, each filtered to about "
            "1,500 rows: the only workload on the d > 3 filter path, which dominates",
            gen=("--skeleton", str(SKELETONS / "front4d.json")),
            command="sweep-rates",
            step=1.0 / 3.0,
            filter=True,
            stress="pareto.filter_s",
            scenarios=16,
        ),
        # Runnable by name but not listed in BENCHMARK.json.  The 3-D
        # staircase filter's tie fallback makes its time grow faster than the
        # front, so even averaged over 32 small scenarios a run's wall time
        # spread 7-21 % between seeds; half of it is interpreter start-up.
        Workload(
            name="front-mixed",
            why="32 scenarios of 16,875 points with a shared power group and many exact "
            "duplicates, filtered on the 3-D staircase path",
            gen=("--template", "mixed", "--antennas", "3"),
            command="sweep-rates",
            step=0.25,
            filter=True,
            stress="pareto.filter_s",
            scenarios=32,
        ),
    )
}
