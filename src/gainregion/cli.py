"""Command-line front end.

Subcommands: ``gen`` (scenario generation), ``sweep-gain`` (single
transmitter gain-region boundary), ``sweep-rates`` (joint utility-region
sweep with optional nondominated filtering) and ``verify`` (self-check
suites).  All outputs are deterministic given the flags and seed.

CSV writer contract: every decimal value is printed with 17 significant
digits, and its bytes are those of ``format(x, ".17g")``.  Both sweeps hand
the writer columns (``sweep_boundary``'s weights, powers, classes and
gains; a ``UtilitySweep``'s parameter axes and utilities), never per-row
objects.  Rows are written in blocks of ``_WRITE_BLOCK``: each block's
column slices are stacked, turned into Python floats with one
``tolist()``, formatted with one ``%``-template per row and written as one
string, so the writer holds at most one block of rows in memory, never the
whole table.

Exit codes: 0 success, 1 check failure, 2 usage or schema error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .network import (
    Scenario,
    ScenarioFormatError,
    direction_vector,
    generate_channels,
    ic_skeleton,
    load_scenario,
    mixed_skeleton,
    save_scenario,
    scenario_digest,
    snr_to_noise,
)
from .pareto import (
    DEFAULT_POINT_BUDGET,
    UtilitySpec,
    pareto_filter,
    sweep_utility_region,
)
from .region import sweep_boundary
from .verify import run_suite, suite_names

TEMPLATES = ("ic", "mixed")
_WRITE_BLOCK = 256  # rows per write; larger blocks only raise peak memory


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _row_template(fields) -> str:
    """Line template with one ``%`` field per column, e.g. ``"%.17g,%s\\n"``."""
    return ",".join(fields) + "\n"


def _write_point_cloud(path, meta: dict, columns, template: str, blocks) -> None:
    """Write the metadata, the header and each block of row tuples with ``template``."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(columns) + "\n")
        for block in blocks:
            fh.write("".join([template % row for row in block]))


def _parse_direction(text: str, k: int) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != k:
        raise ValueError(f"direction needs {k} entries, got {len(parts)}")
    out = []
    for p in parts:
        if p in ("+", "+1", "1"):
            out.append(1)
        elif p in ("-", "-1"):
            out.append(-1)
        else:
            raise ValueError(f"direction entries must be +1 or -1, got {p!r}")
    return np.array(out)


def cmd_gen(args) -> int:
    if args.template is not None:
        if args.template == "ic":
            skeleton = ic_skeleton(args.users, args.antennas, noise_power=snr_to_noise(args.snr_db))
        elif args.template == "mixed":
            skeleton = mixed_skeleton(args.antennas, noise_power=snr_to_noise(args.snr_db))
        else:
            print(
                f"unknown template {args.template!r}; valid templates: {', '.join(TEMPLATES)}",
                file=sys.stderr,
            )
            return 2
    else:
        skeleton = load_scenario(args.skeleton)
    scenario = generate_channels(args.seed, skeleton)
    save_scenario(scenario, args.out)
    print(f"wrote {args.out} (digest {scenario_digest(scenario)})")
    return 0


def cmd_sweep_gain(args) -> int:
    scenario = load_scenario(args.scenario)
    tid = args.transmitter
    if tid is None:
        if len(scenario.transmitters) != 1:
            print("scenario has several transmitters; pass --transmitter", file=sys.stderr)
            return 2
        tid = scenario.transmitters[0].tid
    channels = scenario.channels_for(tid)
    if args.direction is not None:
        e = _parse_direction(args.direction, scenario.n_receivers)
    else:
        e = direction_vector(scenario, tid)
    lam, power, classes, gains = sweep_boundary(channels, e, args.step, args.p_samples)
    k = scenario.n_receivers
    columns = [f"lambda_{r}" for r in scenario.receivers]
    columns += ["p", "power_class"]
    columns += [f"x_{r}" for r in scenario.receivers]
    meta = {
        "generator": f"gainregion {__version__} sweep-gain",
        "scenario_digest": scenario_digest(scenario),
        "transmitter": tid,
        "direction": ",".join(str(int(v)) for v in e),
        "step": _fmt(args.step),
        "p_free_samples": args.p_samples,
        "rows": len(power),
    }

    template = _row_template(["%.17g"] * (k + 1) + ["%s"] + ["%.17g"] * k)

    def blocks():
        for start in range(0, len(power), _WRITE_BLOCK):
            rows = slice(start, start + _WRITE_BLOCK)
            numbers = np.column_stack([lam[rows], power[rows], gains[rows]]).tolist()
            yield [(*x[: k + 1], c.value, *x[k + 1 :]) for x, c in zip(numbers, classes[rows])]

    _write_point_cloud(args.out, meta, columns, template, blocks())
    print(f"wrote {args.out}: {len(power)} rows, K={k}")
    return 0


def cmd_sweep_rates(args) -> int:
    scenario = load_scenario(args.scenario)
    noise = snr_to_noise(args.snr_db) if args.snr_db is not None else scenario.noise_power
    spec = UtilitySpec.from_scenario(scenario, noise_power=noise)
    sweep = sweep_utility_region(scenario, spec, args.step, point_budget=args.budget)
    keep = pareto_filter(sweep.utilities) if args.filter else range(len(sweep))
    columns = list(sweep.parameter_columns) + list(sweep.utility_columns)
    meta = {
        "generator": f"gainregion {__version__} sweep-rates",
        "scenario_digest": scenario_digest(scenario),
        "noise_power": _fmt(noise),
        "step": _fmt(args.step),
        "filtered": str(bool(args.filter)).lower(),
        "rows": len(keep),
        "grid_points": len(sweep),
    }

    template = _row_template(["%.17g"] * len(columns))

    def blocks():
        # keep stays a range or a list: an index array over the whole grid
        # would add to peak memory, so only each block's slice becomes one.
        for start in range(0, len(keep), _WRITE_BLOCK):
            idx = np.asarray(keep[start : start + _WRITE_BLOCK], dtype=np.intp)
            block = np.hstack([sweep.parameter_rows(idx), sweep.utilities[idx]])
            yield map(tuple, block.tolist())

    _write_point_cloud(args.out, meta, columns, template, blocks())
    print(f"wrote {args.out}: {len(keep)} rows from {len(sweep)} grid points")
    return 0


def cmd_verify(args) -> int:
    try:
        checks = run_suite(args.suite, seed=args.seed, trials=args.trials)
    except KeyError:
        print(
            f"unknown suite {args.suite!r}; valid suites: {', '.join(suite_names())}",
            file=sys.stderr,
        )
        return 2
    failed = 0
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        extra = f" ({c.detail})" if c.detail else ""
        print(f"[{args.suite}] {c.name}: value={c.value:.3e} tol={c.tol:.1e} {status}{extra}")
        failed += 0 if c.ok else 1
    print(f"[{args.suite}] {len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainregion",
        description="Pareto-efficient beamforming sweeps over power gain-regions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a scenario file")
    src = p_gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--template", help=f"one of: {', '.join(TEMPLATES)}")
    src.add_argument("--skeleton", help="existing scenario file to refill with channels")
    p_gen.add_argument("--users", type=int, default=3, help="receivers for the ic template")
    p_gen.add_argument("--antennas", type=int, default=3)
    p_gen.add_argument("--snr-db", type=float, default=0.0, help="sets the stored noise power")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_gain = sub.add_parser("sweep-gain", help="sweep one transmitter's gain-region boundary")
    p_gain.add_argument("--scenario", required=True)
    p_gain.add_argument("--transmitter", help="transmitter id (defaults to the only one)")
    p_gain.add_argument(
        "--direction",
        help="comma-separated +-1 entries, given with '=' when the first is "
        "negative (--direction=-1,+1,+1); defaults to the receiver sets",
    )
    p_gain.add_argument("--step", type=float, default=0.02)
    p_gain.add_argument("--p-samples", type=int, default=11, dest="p_samples")
    p_gain.add_argument("--out", required=True)
    p_gain.set_defaults(func=cmd_sweep_gain)

    p_rates = sub.add_parser("sweep-rates", help="sweep the joint utility region")
    p_rates.add_argument("--scenario", required=True)
    p_rates.add_argument("--snr-db", type=float, help="override the scenario noise power")
    p_rates.add_argument("--step", type=float, default=0.1)
    p_rates.add_argument("--filter", action="store_true", help="keep only nondominated rows")
    p_rates.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET)
    p_rates.add_argument("--out", required=True)
    p_rates.set_defaults(func=cmd_sweep_rates)

    p_verify = sub.add_parser("verify", help="run a self-check suite")
    p_verify.add_argument("--suite", required=True, help=f"one of: {', '.join(suite_names())}")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioFormatError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # str() of a KeyError is the repr of its key; print the message itself.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
