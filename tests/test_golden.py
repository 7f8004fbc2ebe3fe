"""``tools/golden.py`` writes a manifest of the checklist's outputs and names
every output that differs from it.  The test runs a two-command subset and
pins no digest, so it holds on any numpy and BLAS."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
SUBSET = ("ic2x1-84.json", "rates-ic2x1-84-0.5-filtered.csv")


def load_golden():
    spec = importlib.util.spec_from_file_location("golden", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_names_the_output_with_one_flipped_byte(tmp_path, monkeypatch, capsys):
    golden = load_golden()
    subset = [(name, args) for name, args in golden.OUTPUTS if name in SUBSET]
    assert [name for name, _ in subset] == list(SUBSET)
    monkeypatch.setattr(golden, "OUTPUTS", subset)
    manifest = tmp_path / "golden.manifest"
    assert golden.main(["--manifest", str(manifest)]) == 0
    header, entries = golden.read_manifest(manifest)
    assert header == golden.environment()
    assert list(entries) == list(SUBSET)
    assert entries[SUBSET[1]][2] == "sweep-rates --scenario ic2x1-84.json --step 0.5 --filter"
    assert all(rows > 0 for _, rows, _ in entries.values())
    assert golden.main(["--check", "--manifest", str(manifest)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"2/2 outputs match {manifest}"

    run_command = golden.run_command

    def flip_one_byte(name, args):
        run_command(name, args)
        if name == SUBSET[1]:
            data = bytearray(Path(name).read_bytes())
            data[-2] ^= 1  # the last digit of the last utility
            Path(name).write_bytes(bytes(data))

    monkeypatch.setattr(golden, "run_command", flip_one_byte)
    assert golden.main(["--check", "--manifest", str(manifest)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith(f"{SUBSET[1]}: differs, sha256 ")
    assert out[1] == f"1/2 outputs match {manifest}"
