"""Command-line front end.

Subcommands: ``gen`` (scenario generation), ``sweep-gain`` (single
transmitter gain-region boundary), ``sweep-rates`` (joint utility-region
sweep with optional nondominated filtering) and ``verify`` (self-check
suites).  All outputs are deterministic given the flags and seed.

CSV writer contract: every decimal value is printed with 17 significant
digits, and its bytes are exactly those of ``format(x, ".17g")``.  Both
sweeps hand the writer columns (``sweep_boundary``'s weights, powers,
classes and gains; a ``UtilitySweep``'s parameter axes and utilities),
never per-row objects.  Rows are formatted and written in blocks of at most
``_WRITE_BLOCK``, so the writer holds one block of rows in memory, never
the whole table; a larger block would cut the fixed cost of each kernel
call and raise peak memory.  ``sweep-rates`` reads its rows through one
loop over ``UtilitySweep.chunks()``: every grid row when unfiltered, the
kept rows with ``--filter``, cutting each chunk of about
``pareto._CHUNK_ROWS`` rows into blocks.  So an unfiltered run never holds
the utility cloud, only one chunk; with ``--filter`` the filter reads the
whole cloud, and the writer evaluates the kept rows again, chunk by chunk.

``_format17`` is the kernel: it formats a block's non-negative floats in
fixed notation with array operations, and format() prints every other
value (no sweep writes a negative one).  Every input to ``_csv_bytes`` is
NUL-padded uint8 field rows, each field followed by its separator, and a
block is written as one ``bytes``: its fields side by side, without the
padding.  ``sweep-rates`` formats each row of each parameter axis once, and
per block gathers those rows by the rows' axis indices, so only the
utilities go through the kernel per block.  An axis table is formatted
``_WRITE_BLOCK`` rows at a time (a one-axis grid's axis is the whole grid,
and one kernel call over it would peak far above the table) and trimmed to
the byte columns that hold text in some row.
``sweep-gain`` formats each block's weights and power, and its gains, in two
kernel calls, and gathers each row's power class from its label.

Exit codes: 0 success, 1 check failure, 2 usage or schema error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .network import (
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
from .pareto import UtilitySpec, pareto_filter, sweep_utility_region
from .region import DEFAULT_POINT_BUDGET, PowerClass, sweep_boundary

TEMPLATES = ("ic", "mixed")
_WRITE_BLOCK = 256  # rows per kernel call and per write


def _fmt(x) -> str:
    return format(float(x), ".17g")


# The %.17g kernel.  For 1e-4 <= x < 1e16, format(x, ".17g") is fixed
# notation: the 17 significant digits of x, rounded half to even, with the
# point after the digit of 10**E (E = floor(log10 x)), then trailing zeros
# and a bare point stripped.  _format17 finds E and those digits exactly on
# whole arrays and lays out each value's bytes in three little-endian 64-bit
# words, byte c of the 24 being column c.  format() prints every other value,
# and every negative one (-0.0 too).
#
# Its tables are built at its first call, from Python lists and with the
# array operations it runs anyway.  Built after the sweep, they can reuse
# memory it freed (built at import, they raised the front-4d and cloud-write
# benchmark peaks by 0.15-0.25 MiB), and each other dtype's loops would add
# resident pages of numpy's code (about 0.4 MiB when built in uint16 and int8).
_WORD = np.dtype("<u8")
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for Dekker's exact product
# Indices of the first digits of chunks 0 and 2, and of chunks 1 and 3 (see _tables).
_HIGH_FIRST = np.array([[1], [9]])
_LOW_FIRST = np.array([[5], [13]])


def _veltkamp(b: float) -> tuple:
    high = _SPLIT * b - (_SPLIT * b - b)
    return b, high, b - high


@functools.cache
def _tables() -> tuple:
    """The kernel's read-only tables ``(decades, fixed, scale, quad, last, layout, shift)``.

    ``searchsorted(decades, |x|, "right")`` is the decade slot g of |x|.
    ``decades[i]`` is the smallest double >= 10**(i - 4), which for every i
    here is float("1e{i-4}"), so the slot is exact: E = g - 5 on the fixed
    slots 1..20, where ``fixed`` is true; slot 0 holds zero and |x| < 1e-4,
    slot 21 |x| >= 1e16.  Column g of ``scale`` is 10**(21 - g), which
    scales slot g into [1e16, 1e17), and its Veltkamp halves.

    The 17 digits are a lead digit and four 4-digit chunks; chunk k holds
    digits 4k+1..4k+4.  ``quad[c]`` holds the ASCII of c < 10000 as 4 digits
    in its low 4 bytes, and ``last[c]`` is the index of the last nonzero one
    of them, or -100 for c = 0.

    Column ``17 * g + j`` of ``layout`` holds 3 words each of a template, an
    integer-digit mask and a fraction-digit mask, for slot g when digit j is
    the last nonzero one.  The template has the fixed bytes (``0.000``'s
    zeros, the point), and the masks select the columns of the integer
    digits and of the fraction's digits up to digit j.  ``shift[g]`` is how
    far right of column 0, in bits, slot g puts digit 0 in the fraction.
    """
    decades = np.array([float(f"1e{m}") for m in range(-4, 17)])
    fixed = np.array([0 < g < 21 for g in range(22)])
    scale = np.array([_veltkamp(float(10**k)) for k in range(21, -1, -1)]).T.copy()
    pairs = np.array([int.from_bytes(f"{i:02d}".encode(), "little") for i in range(100)], _WORD)
    quad = (pairs[:, None] | pairs << 16).ravel()
    pair_last = np.array([1 if i % 10 else 0 if i else -100 for i in range(100)])
    last = np.where(np.arange(100) > 0, 2 + pair_last, pair_last[:, None]).ravel()
    table = np.zeros((22, 17, 3, 24), np.uint8)
    shift = np.zeros(22, _WORD)
    for g in range(22):
        e = g - 5 if fixed[g] else 0
        start = 1 + max(-e, 0)
        shift[g] = 8 * start
        for j in range(17):
            template, int_mask, frac_mask = table[g, j]
            if not fixed[g]:
                template[0] = ord("0")  # zero; format() overwrites the rest
            elif e >= 0:
                int_mask[: e + 1] = 0xFF
                if j > e:
                    template[e + 1] = ord(".")
                    frac_mask[start + e + 1 : start + j + 1] = 0xFF
            else:
                template[:start] = ord("0")
                template[1] = ord(".")
                frac_mask[start : start + j + 1] = 0xFF
    layout = table.view(_WORD).reshape(22 * 17, 9).T.copy()
    out = (decades, fixed, scale, quad, last, layout, shift)
    for array in out:
        array.flags.writeable = False
    return out


def _format17(values) -> np.ndarray:
    """``format(x, ".17g")`` of every float in ``values``, as bytes of dtype S."""
    decades, fixed, scale, quad, last_digit, layouts, fraction_shift = _tables()
    x = np.asarray(values, dtype=np.float64)
    flat = x.ravel()
    a = np.fmin(np.abs(flat), 1e16)  # puts nan and inf in slot 21
    g = np.searchsorted(decades, a, side="right")
    # hi + lo is a * 10**(21 - g) exactly (Dekker's two-product).
    b, b_hi, b_lo = scale.take(g, axis=1)
    hi = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    # On a fixed slot hi is an even integer in [1e16, 1e17), so rounding lo
    # half to even rounds hi + lo half to even, as CPython's dtoa does.  The
    # 17-digit decimals are finer than the doubles there, so no value rounds
    # up to 1e17.
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    top = n // 10**8
    lead = top // 10**8
    halves = np.empty((2, flat.size), np.int64)
    halves[0] = top - lead * 10**8
    halves[1] = n - top * 10**8
    high = halves // 10**4
    low = halves - high * 10**4
    last = np.maximum(last_digit.take(high) + _HIGH_FIRST, last_digit.take(low) + _LOW_FIRST)
    last = last.max(axis=0, initial=0)
    digits = np.empty((3, flat.size), _WORD)  # lead digit at column 7, chunks at 8..23
    digits[0] = quad.take(lead) << 32  # "000d" at columns 4..7
    digits[1:] = quad.take(high) | quad.take(low) << 32
    int_digits = digits >> 56  # lead digit at column 0
    int_digits[:-1] |= digits[1:] << 8
    bits = fraction_shift.take(g)  # 0 < bits < 64: where the fraction digits go
    frac_digits = int_digits << bits
    frac_digits[1:] |= int_digits[:-1] >> (64 - bits)
    layout = layouts.take(17 * g + last, axis=1)
    out = layout[0:3] | (int_digits & layout[3:6]) | (frac_digits & layout[6:9])
    text = out.T.copy().view("S24").ravel()
    other = np.flatnonzero(~fixed.take(g) & (flat != 0) | np.signbit(flat))
    if other.size:
        text[other] = [format(v, ".17g").encode() for v in flat[other].tolist()]
    return text.reshape(x.shape)


def _fields(values, end=b",") -> np.ndarray:
    """Rows of 2-D float ``values`` as NUL-padded uint8 rows of text.

    Each value's ``%.17g`` bytes are followed by "," (the row's last by
    ``end``); ``_csv_bytes`` drops the NUL padding after each value.
    """
    text = _format17(values).view(np.uint8).reshape(*values.shape, -1)
    ends = np.full((values.shape[1], 1), ord(","), np.uint8)
    ends[-1] = ord(end)
    ends = np.broadcast_to(ends, (*values.shape, 1))
    return np.concatenate([text, ends], axis=2).reshape(len(values), -1)


def _write_csv(path, meta: dict, columns, blocks) -> None:
    """Write the metadata, the header and each block of rows.

    A block is a list of uint8 arrays with one row per CSV row; a row's
    bytes are theirs side by side, without the NUL padding.
    """
    head = "".join(f"# {key}={value}\n" for key, value in meta.items())
    with open(path, "wb") as fh:
        fh.write((head + ",".join(columns) + "\n").encode("utf-8"))
        for block in blocks:
            fh.write(_csv_bytes(block))


def _csv_bytes(block) -> bytes:
    """The bytes of uint8 arrays' rows side by side, without NUL padding."""
    text = np.concatenate(block, axis=-1)
    return text[text != 0].tobytes()


def _axis_table(values) -> np.ndarray:
    """``_fields`` rows of an axis's 2-D values, each field followed by a
    comma, formatted ``_WRITE_BLOCK`` rows at a time and cut to the byte
    columns that hold text in some row."""
    text = None
    for start in range(0, len(values), _WRITE_BLOCK):
        block = _fields(values[start : start + _WRITE_BLOCK])
        if text is None:
            text = np.empty((len(values), block.shape[1]), np.uint8)
        text[start : start + len(block)] = block
    return text.compress(text.any(axis=0), axis=1)


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

    labels = np.array([f"{c.value},".encode() for c in PowerClass]).view(np.uint8)
    labels = labels.reshape(len(PowerClass), -1)

    def blocks():
        for start in range(0, len(power), _WRITE_BLOCK):
            rows = slice(start, start + _WRITE_BLOCK)
            kind = np.select([classes[rows] == c for c in PowerClass], range(len(PowerClass)))
            yield [
                _fields(np.column_stack([lam[rows], power[rows]])),
                labels.take(kind, axis=0),
                _fields(gains[rows], b"\n"),
            ]

    _write_csv(args.out, meta, columns, blocks())
    print(f"wrote {args.out}: {len(power)} rows, K={k}")
    return 0


def cmd_sweep_rates(args) -> int:
    scenario = load_scenario(args.scenario)
    noise = snr_to_noise(args.snr_db) if args.snr_db is not None else scenario.noise_power
    spec = UtilitySpec.from_scenario(scenario, noise_power=noise)
    sweep = sweep_utility_region(scenario, spec, args.step, point_budget=args.budget)
    keep = pareto_filter(sweep.utilities) if args.filter else None
    n_rows = len(sweep) if keep is None else len(keep)
    columns = list(sweep.parameter_columns) + list(sweep.utility_columns)
    meta = {
        "generator": f"gainregion {__version__} sweep-rates",
        "scenario_digest": scenario_digest(scenario),
        "noise_power": _fmt(noise),
        "step": _fmt(args.step),
        "filtered": str(bool(args.filter)).lower(),
        "rows": n_rows,
        "grid_points": len(sweep),
    }

    # An axis has few rows (45 per lambda axis of ic 3x3 at step 0.125),
    # each repeated across the grid, so each is formatted once.
    tables = [_axis_table(ax.values) for ax in sweep.axes]

    def blocks():
        for ix, utilities in sweep.chunks(keep):
            for start in range(0, len(utilities), _WRITE_BLOCK):
                rows = slice(start, start + _WRITE_BLOCK)
                axes = [t.take(j[rows], axis=0) for t, j in zip(tables, ix)]
                yield [*axes, _fields(utilities[rows], b"\n")]

    _write_csv(args.out, meta, columns, blocks())
    print(f"wrote {args.out}: {n_rows} rows from {len(sweep)} grid points")
    return 0


def cmd_verify(args) -> int:
    # No sweep needs the suites or the check-only mathematics.
    from .verify import run_suite, suite_names

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
    p_verify.add_argument("--suite", required=True, help="a suite name, or 'all'")
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
