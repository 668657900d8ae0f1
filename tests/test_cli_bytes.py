"""``tools/cli_bytes.py``: a checkout compared with itself differs nowhere."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "tools"))
try:
    import cli_bytes
finally:
    sys.path.remove(str(ROOT / "tools"))
    sys.dont_write_bytecode = _dont_write

COMMANDS = cli_bytes.spectrum_commands(("tau", "collocation"), (1.0,), (4, 13), (0.0,)) + [
    ["sweep", "--method", "galerkin", "--gamma-range", "0:1:0.5", "--n-range", "8:12:4"],
    ["verify", "--suite", "theorem-range", "--gamma", "3.6"],
]


def test_grid_runs_every_command():
    results = cli_bytes.run_grid(ROOT, COMMANDS)
    codes = [r["code"] for r in results]
    # collocation needs n >= 5 (usage error); theorem-range fails at gamma 3.6
    assert codes == [0] * 12 + [2] * 6 + [0] * 6 + [0, 1]
    spectra = [r["classes"] for r in results[:12] + results[18:24]]
    assert None not in spectra and results[-2]["classes"] and results[-1]["classes"].startswith("[FAIL]")


def test_checkout_matches_itself():
    assert cli_bytes.compare(ROOT, ROOT, COMMANDS) == []
    assert len(cli_bytes.grid()) > 6000
    assert set(cli_bytes.DECLARED) <= {" ".join(argv) for argv in cli_bytes.grid()}


def test_written_files_are_compared():
    commands = cli_bytes.output_files([["verify", "--suite", "theorem-range", "--gamma", "3.6"]])
    results = cli_bytes.run_grid(ROOT, commands)
    # each writer is followed by its replay; theorem-range fails at gamma 3.6
    assert [argv[0] for argv in commands[1::2]] == ["replay"] * 4
    assert [r["code"] for r in results] == [0, 0, 0, 0, 0, 0, 1, 1]
    files = [r["file"] for r in results]
    assert None not in files and files[::2] == files[1::2]  # replay rewrote each file byte for byte
