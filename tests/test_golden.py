"""Byte-for-byte CLI outputs pinned as golden files.

Each case runs `isobound.cli.run(argv)` from inside tests/golden (so file
specs and their labels are relative and machine independent) and compares
stdout, stderr and the exit code against tests/golden/<name>.out / .err.
To regenerate after an intended output change:

    ISOBOUND_REGEN_GOLDEN=1 python3 -m pytest tests/test_golden.py
"""

import csv
import os
from pathlib import Path

import pytest

from isobound.cli import run

GOLDEN = Path(__file__).parent / "golden"
REGEN = os.environ.get("ISOBOUND_REGEN_GOLDEN") == "1"

# (name, argv, exit code); every name gets <name>.out, and <name>.err when
# the command writes to stderr
CASES = [
    # profile: family closed forms, forced search, products, files
    ("profile_path4", ["profile", "path:4"], 0),
    ("profile_complete5", ["profile", "complete:5"], 0),
    ("profile_cycle6_exhaustive", ["profile", "cycle:6", "--exhaustive"], 0),
    ("profile_path31_exhaustive", ["profile", "path:31", "--exhaustive"], 0),
    ("profile_product", ["profile", "path:2 x path:3"], 0),
    ("profile_g13", ["profile", "file:g13.txt"], 0),
    # minorant
    ("minorant_cycle5", ["minorant", "cycle:5"], 0),
    ("minorant_path5", ["minorant", "path:5"], 0),
    ("minorant_cycle6_exhaustive", ["minorant", "cycle:6", "--exhaustive"], 0),
    ("minorant_prism", ["minorant", "file:prism.txt"], 0),
    ("minorant_g13", ["minorant", "file:g13.txt"], 0),
    # bound: every closed form, mixed products, repeated file factors
    ("bound_hypercube", ["bound", "complete:2^10", "--size", "16"], 0),
    ("bound_grid", ["bound", "path:4^2", "--size", "4"], 0),
    ("bound_torus", ["bound", "cycle:5^2", "--size", "4"], 0),
    ("bound_mixed", ["bound", "path:5 x cycle:4 x complete:3", "--size", "10"], 0),
    ("bound_hamming_log", ["bound", "complete:3^3", "--log-size", "2.5"], 0),
    ("bound_g13_power", ["bound", "file:g13.txt^4", "--size", "300"], 0),
    ("bound_prism_power", ["bound", "file:prism.txt^3", "--size", "20"], 0),
    ("bound_prism_mixed", ["bound", "file:prism.txt x cycle:6", "--size", "7"], 0),
    ("bound_cycle8_200", ["bound", "cycle:8^200", "--log-size", "200*log(3)"], 0),
    # compare
    ("compare_torus", ["compare", "cycle:4^2", "--samples", "5"], 0),
    ("compare_grid", ["compare", "path:5^3", "--samples", "4"], 0),
    # verify: all sizes, sampled sizes, mixed factors, files
    ("verify_path3_sq", ["verify", "path:3^2"], 0),
    ("verify_cycle4_sq", ["verify", "cycle:4^2"], 0),
    ("verify_path13_sq", ["verify", "path:13^2", "--sizes", "1,2"], 0),
    ("verify_mixed", ["verify", "path:3 x complete:2"], 0),
    ("verify_prism", ["verify", "file:prism.txt x path:2", "--sizes", "1,3,6,12"], 0),
    # two nested factors: the fibre floor is the truth, with no product built
    ("verify_path70_sq", ["verify", "path:70^2", "--sizes", "3"], 0),
    # certificates
    ("q71_cycle5", ["certify-q71", "cycle:5", "--power", "2"], 0),
    ("q71_cycle7", ["certify-q71", "cycle:7", "--power", "3"], 0),
    ("q72_cycle5", ["certify-q72", "cycle:5"], 0),
    ("q72_cycle7", ["certify-q72", "cycle:7"], 0),
    ("q72_complete4", ["certify-q72", "complete:4"], 0),
    ("q72_prism", ["certify-q72", "file:prism.txt"], 0),
    ("q72_cycle7_eps1e-6", ["certify-q72", "cycle:7", "--eps-start", "1e-6"], 0),
]

HUMAN = {"profile", "bound"}

# errors keep their exit code and message
ERRORS = [
    ("err_unknown_family", ["profile", "star:5"], 2),
    ("err_bad_size", ["profile", "path:x"], 2),
    ("err_small_cycle", ["bound", "cycle:2", "--size", "1"], 2),
    ("err_out_of_range", ["bound", "path:3", "--size", "4"], 2),
    ("err_compare_heterogeneous", ["compare", "path:3 x cycle:4"], 2),
    ("err_compare_small", ["compare", "path:2^2"], 2),
    ("err_verify_all_sizes", ["verify", "complete:2^60"], 2),
    ("err_search_cap", ["profile", "file:g13.txt^2"], 2),
    # three factors are still searched: the same 4900 vertices as path:70^2
    ("err_search_budget", ["verify", "path:70 x path:7 x path:10", "--sizes", "3"], 2),
    ("err_q71_single_piece", ["certify-q71", "complete:4", "--power", "2"], 2),
    ("err_q71_huge_power", ["certify-q71", "cycle:5", "--power", "7000"], 2),
    ("err_q72_product", ["certify-q72", "path:3 x path:3"], 2),
    ("err_q72_irregular", ["certify-q72", "path:4"], 2),
    ("err_q72_search_failed", ["certify-q72", "cycle:5", "--eps-start", "1e-8"], 1),
    ("err_q72_eps_start", ["certify-q72", "cycle:5", "--eps-start", "inf"], 2),
]


def _expand():
    for name, argv, code in CASES:
        outputs = ["json", "csv"] + (["human"] if argv[0] in HUMAN else [])
        for fmt in outputs:
            yield f"{name}.{fmt}", argv + ["--output", fmt], code
    yield from ERRORS


PARAMS = list(_expand())


def test_csv_rows_match_their_header():
    for path in GOLDEN.glob("*.csv.out"):
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        assert {len(r) for r in rows} == {len(rows[0])}, path.name


@pytest.mark.parametrize("name,argv,code", PARAMS, ids=[p[0] for p in PARAMS])
def test_golden(name, argv, code, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    assert run(argv) == code
    captured = capsys.readouterr()
    for suffix, text in ((".out", captured.out), (".err", captured.err)):
        path = GOLDEN / (name + suffix)
        if REGEN:
            if text or suffix == ".out":
                path.write_text(text, encoding="utf-8")
            elif path.exists():
                path.unlink()
            continue
        expected = path.read_text(encoding="utf-8") if path.exists() else ""
        assert text == expected
