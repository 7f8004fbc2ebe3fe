"""Output-identity checklist: run every checklist command and record its bytes.

Runs ``gainregion gen`` and the checklist's ``sweep-gain``, ``sweep-rates``
and ``verify`` commands, in process, in a temporary directory, and records
one line per output in a manifest: its name, sha256, row count and command.
A ``--out`` file is a command's output; ``verify`` has its stdout instead.
A CSV's row count is its data rows; any other output's is its line count.

    python3 tools/golden.py            # (re)write tools/golden.manifest
    python3 tools/golden.py --check    # name every output that differs

The checklist (``OUTPUTS``):

- 48 scenario files from ``gen``: ic 3x2, ic 3x3 and mixed N=2 at seeds
  84-91; mixed N=3 at seeds 84-87; front4d (``bench/skeletons``) at seeds
  336-351; ic 2x1 and broadcast3 (``tests/skeletons``) at seeds 84-85.
- 52 CSVs: ``sweep-gain`` ic 3x2 step 0.01 and ic 3x3 step 0.02
  (``--transmitter 1``) and mixed N=2 ``--transmitter 11`` step 0.02, seeds
  84-91; unfiltered ``sweep-rates`` ic 3x3 step 0.125 and mixed N=2 step
  0.25, seeds 84-87; filtered mixed N=3 step 0.25, seeds 84-87; filtered
  front4d step 1/3, seeds 336-351.
- 23 extra CSVs, seeds 84-85 unless named: ``sweep-rates`` ic 3x2 step
  0.25 filtered and not; filtered ic 3x3 step 0.125; filtered mixed N=2
  step 0.25; unfiltered mixed N=3 step 0.25; filtered ic 2x1 step 0.5;
  broadcast3 at steps 0.01 and 0.03125, filtered and not; unfiltered
  front4d seed 336 step 1/3; mixed N=3 seed 84 step 0.1, unfiltered
  (3,162,456 rows) and filtered (136,876 rows).
- The stdout of ``verify --suite all`` and of ``verify --suite all --seed 3
  --trials 40``.

The eigensolver's last bits depend on LAPACK, so the digests hold for the
Python, numpy and BLAS named in the manifest's header; ``--check`` prints
the header of both sides when they differ.  Exit codes: 0 every output
matches (or the manifest was written), 1 some output differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gainregion import cli  # noqa: E402

MANIFEST = Path(__file__).resolve().parent / "golden.manifest"
# Skeleton files, copied into the run's directory under their own names.
SKELETONS = ("bench/skeletons/front4d.json", "tests/skeletons/broadcast3.json")
THIRD = repr(1.0 / 3.0)


# (name, gen flags, seeds) of every generated scenario family.
SCENARIOS = [
    ("ic3x2", ("--template", "ic", "--users", "3", "--antennas", "2"), range(84, 92)),
    ("ic3x3", ("--template", "ic", "--users", "3", "--antennas", "3"), range(84, 92)),
    ("mixed2", ("--template", "mixed", "--antennas", "2"), range(84, 92)),
    ("mixed3", ("--template", "mixed", "--antennas", "3"), range(84, 88)),
    ("front4d", ("--skeleton", "front4d.json"), range(336, 352)),
    ("ic2x1", ("--template", "ic", "--users", "2", "--antennas", "1"), range(84, 86)),
    ("broadcast3", ("--skeleton", "broadcast3.json"), range(84, 86)),
]


def _rates(family, seeds, step, filtered):
    """One ``sweep-rates`` output per seed."""
    flags = ("--filter",) if filtered else ()
    tag = "filtered" if filtered else "all"
    return [
        (f"rates-{family}-{seed}-{step}-{tag}.csv",
         ("sweep-rates", "--scenario", f"{family}-{seed}.json", "--step", step, *flags))
        for seed in seeds
    ]


def _gain(family, seeds, step, tid):
    """One ``sweep-gain`` output per seed."""
    return [
        (f"gain-{family}-{seed}-{step}-t{tid}.csv",
         ("sweep-gain", "--scenario", f"{family}-{seed}.json", "--transmitter", tid,
          "--step", step))
        for seed in seeds
    ]


def checklist():
    """(output name, CLI arguments) of every output, in run order."""
    out = [
        (f"{name}-{seed}.json", ("gen", *flags, "--seed", str(seed)))
        for name, flags, seeds in SCENARIOS
        for seed in seeds
    ]
    seeds8, seeds4, seeds2 = range(84, 92), range(84, 88), range(84, 86)
    front = range(336, 352)
    out += _gain("ic3x2", seeds8, "0.01", "1")
    out += _gain("ic3x3", seeds8, "0.02", "1")
    out += _gain("mixed2", seeds8, "0.02", "11")
    out += _rates("ic3x3", seeds4, "0.125", False)
    out += _rates("mixed2", seeds4, "0.25", False)
    out += _rates("mixed3", seeds4, "0.25", True)
    out += _rates("front4d", front, THIRD, True)
    for filtered in (False, True):
        out += _rates("ic3x2", seeds2, "0.25", filtered)
    out += _rates("ic3x3", seeds2, "0.125", True)
    out += _rates("mixed2", seeds2, "0.25", True)
    out += _rates("mixed3", seeds2, "0.25", False)
    out += _rates("ic2x1", seeds2, "0.5", True)
    for step in ("0.01", "0.03125"):
        for filtered in (False, True):
            out += _rates("broadcast3", seeds2, step, filtered)
    out += _rates("front4d", [336], THIRD, False)
    for filtered in (False, True):
        out += _rates("mixed3", [84], "0.1", filtered)
    out += [
        ("verify-all.txt", ("verify", "--suite", "all")),
        ("verify-all-seed3-trials40.txt", ("verify", "--suite", "all", "--seed", "3", "--trials", "40")),
    ]
    return out


OUTPUTS = checklist()


def environment() -> str:
    """Python, numpy, BLAS and thread count of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    threads = threads or f"not pinned ({os.cpu_count()} CPUs)"
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas}, blas threads {threads}")


def run_command(name: str, args) -> None:
    """Run one CLI command in the current directory, with ``name`` as its output."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli.main(list(args) if args[0] == "verify" else [*args, "--out", name])
    if args[0] == "verify":
        Path(name).write_text(stdout.getvalue())
    elif status != 0:
        raise RuntimeError(f"{' '.join(args)} exited with status {status}")


def measure(path: Path) -> tuple[str, int]:
    """sha256 and row count of one output."""
    digest, lines, meta = hashlib.sha256(), 0, 0
    with open(path, "rb") as fh:
        for line in fh:
            digest.update(line)
            lines += 1
            meta += line.startswith(b"# ")
    rows = lines - meta - 1 if path.suffix == ".csv" else lines
    return digest.hexdigest(), rows


def collect(outputs) -> dict:
    """``{name: (sha256, rows, command)}`` of every output, run in a fresh directory.

    A CSV is removed once measured, so the directory holds the scenario
    files and one CSV at a time.
    """
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="golden-") as work:
        for rel in SKELETONS:
            shutil.copy(ROOT / rel, work)
        os.chdir(work)
        try:
            found = {}
            for name, args in outputs:
                run_command(name, args)
                found[name] = (*measure(Path(name)), " ".join(args))
                if name.endswith(".csv"):
                    os.remove(name)
        finally:
            os.chdir(cwd)
    return found


def write_manifest(path: Path, found: dict) -> None:
    lines = [
        "# golden manifest: name, sha256, rows, gainregion command (see tools/golden.py)",
        f"# {environment()}",
    ]
    lines += ["\t".join((name, digest, str(rows), command))
              for name, (digest, rows, command) in found.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path: Path) -> tuple[str, dict]:
    """The manifest's environment line and its ``{name: (sha256, rows, command)}``."""
    header, entries = "", {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            header = line[2:]  # the last comment line names the environment
            continue
        name, digest, rows, command = line.split("\t")
        entries[name] = (digest, int(rows), command)
    return header, entries


def differences(expected: dict, found: dict) -> list[str]:
    """One line per output that is missing, new or different."""
    out = []
    for name in expected.keys() | found.keys():
        if name not in found:
            out.append(f"{name}: missing (was {expected[name][2]})")
        elif name not in expected:
            out.append(f"{name}: not in the manifest ({found[name][2]})")
        elif expected[name] != found[name]:
            (d0, r0, _), (d1, r1, command) = expected[name], found[name]
            out.append(f"{name}: differs, sha256 {d0[:12]} -> {d1[:12]}, rows {r0} -> {r1} ({command})")
    return sorted(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the manifest instead of writing it")
    parser.add_argument("--manifest", type=Path, default=MANIFEST)
    args = parser.parse_args(argv)
    found = collect(OUTPUTS)
    if not args.check:
        write_manifest(args.manifest, found)
        print(f"wrote {args.manifest}: {len(found)} outputs")
        return 0
    header, expected = read_manifest(args.manifest)
    if header != environment():
        print(f"note: manifest made on {header}\n      checked on  {environment()}")
    diff = differences(expected, found)
    for line in diff:
        print(line)
    print(f"{len(found) - len(diff)}/{len(expected | found)} outputs match {args.manifest}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
