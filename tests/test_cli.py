import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import isobound
from isobound import minorants, profiles
from isobound.cli import parse_log_size, run
from isobound.graphs import MAX_VERTICES_ENV, ParseError

PATH4_CSV = (
    "k,min_boundary,i_k_num,i_k_den,witness\n"
    "1,1,1,1,1\n"
    "2,1,1,2,3\n"
    "3,1,1,3,7\n"
    "4,0,0,1,f\n"
)


class TestParseLogSize:
    def test_forms(self):
        assert parse_log_size("1.5") == 1.5
        assert parse_log_size("log(7)") == pytest.approx(math.log(7), rel=1e-15)
        assert parse_log_size("3*log(2)") == pytest.approx(3 * math.log(2), rel=1e-15)
        assert parse_log_size(" 2.5 * log( 4 ) ") == pytest.approx(2.5 * math.log(4), rel=1e-15)

    @pytest.mark.parametrize("text", ["", "two", "log(0)", "log(-3)", "x*log(2)"])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_log_size(text)


class TestProfileCommand:
    def test_csv_golden(self, capsys):
        assert run(["profile", "path:4", "--output", "csv"]) == 0
        assert capsys.readouterr().out == PATH4_CSV

    def test_json(self, capsys):
        assert run(["profile", "cycle:5", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["graph"] == "cycle:5"
        assert doc["vertex_count"] == 5
        assert [e["min_boundary"] for e in doc["profile"]] == [2, 2, 2, 2, 0]

    def test_human(self, capsys):
        assert run(["profile", "path:3"]) == 0
        out = capsys.readouterr().out
        assert "profile of path:3 (3 vertices)" in out
        assert "k=2 min_boundary=1 i_k=1/2 witness={0,1}" in out

    def test_product_spec(self, capsys):
        assert run(["profile", "path:2 x path:3", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertex_count"] == 6
        assert [e["min_boundary"] for e in doc["profile"]] == [2, 2, 3, 2, 2, 0]
        # lexicographically first minimizing pair is the column {0, 3}
        assert doc["profile"][1]["witness"] == "9"

    def test_exhaustive_matches_closed_form(self, capsys):
        assert run(["profile", "cycle:6", "--output", "csv"]) == 0
        fast = capsys.readouterr().out
        assert run(["profile", "cycle:6", "--output", "csv", "--exhaustive"]) == 0
        assert capsys.readouterr().out == fast

    def test_file_spec(self, tmp_path, capsys):
        p = tmp_path / "claw.txt"
        p.write_text("4\n0 1\n0 2\n0 3\n")
        assert run(["profile", f"file:{p}", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["profile"][0]["min_boundary"] == 1


class TestMinorantCommand:
    def test_json_regular(self, capsys):
        assert run(["minorant", "cycle:5", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [b["k"] for b in doc["breakpoints"]] == [1, 2, 5]
        assert doc["regular_summary"]["k_star"] == 2
        assert doc["domain_end"] == pytest.approx(math.log(5), rel=1e-15)

    def test_json_irregular_has_no_summary(self, capsys):
        assert run(["minorant", "path:5", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regular_summary"] is None

    def test_csv(self, capsys):
        assert run(["minorant", "path:5", "--output", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,x,y"
        assert len(lines) == 4

    def test_human(self, capsys):
        assert run(["minorant", "cycle:4"]) == 0
        out = capsys.readouterr().out
        assert "convex minorant of cycle:4" in out
        assert "regular summary" in out


class TestBoundCommand:
    def test_hypercube_example(self, capsys):
        assert run(["bound", "complete:2^10", "--size", "16", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theorem"]["bound_total"] == pytest.approx(96.0, abs=1e-9)
        families = [r["family"] for r in doc["closed_forms"]]
        assert families == ["hamming", "regular_product", "regular_power", "connected_regular"]
        hamming = doc["closed_forms"][0]
        assert hamming["bound_total"] == pytest.approx(96.0, abs=1e-9)

    def test_log_size_expression(self, capsys):
        assert run(["bound", "complete:2^10", "--log-size", "4*log(2)", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theorem"]["bound_per_vertex"] == pytest.approx(6.0, abs=1e-9)
        assert doc["theorem"]["bound_total"] is None

    def test_grid_gets_benchmark_comparison(self, capsys):
        assert run(["bound", "path:4^2", "--size", "4", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        grid = next(r for r in doc["closed_forms"] if r["family"] == "grid")
        assert grid["comparison"]["ratio"] >= 1.0 - 1e-12

    def test_human_output(self, capsys):
        assert run(["bound", "cycle:5^2", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert "theorem: 2 per vertex, 8 total" in out
        assert "power-of-r benchmark" in out

    def test_csv_output(self, capsys):
        assert run(["bound", "path:5 x cycle:4", "--log-size", "log(4)", "--output", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "name,bound_per_vertex,bound_total"
        assert lines[1].startswith("theorem,1.0")

    def test_requires_exactly_one_size(self, capsys):
        assert run(["bound", "path:3"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert run(["bound", "path:3", "--size", "2", "--log-size", "0.5"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_rejects_bad_size(self, capsys):
        assert run(["bound", "path:3", "--size", "0"]) == 2
        assert run(["bound", "path:3", "--log-size", "nonsense"]) == 2
        assert "bad log-size" in capsys.readouterr().err

    def test_rejects_out_of_range_size(self, capsys):
        assert run(["bound", "path:3", "--size", "4"]) == 2
        assert "outside" in capsys.readouterr().err

    def test_whole_product_of_many_factors(self, capsys):
        # log(5) * 200 exceeds the 200-term sum of log(5) by ~1e-12: rounding,
        # not an out-of-range size, so the tolerance scales with the total
        assert run(["bound", "cycle:5^200", "--log-size", "200*log(5)", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theorem"]["bound_per_vertex"] == 0.0
        families = [r["family"] for r in doc["closed_forms"]]
        assert families == ["torus", "regular_product", "regular_power", "connected_regular"]
        assert all(r["bound_per_vertex"] == 0.0 for r in doc["closed_forms"])

    @pytest.mark.parametrize(
        "spec,size",
        [("cycle:5^200", 5**200), ("complete:3^100", 3**100), ("cycle:8^200 x path:3", 3 * 8**200)],
    )
    def test_whole_product_size_is_exactly_zero(self, spec, size, capsys):
        # log(size) and the sum of factor logs differ by rounding; any positive
        # residue times a size this large would be an unsound total
        assert run(["bound", spec, "--size", str(size), "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        bounds = [doc["theorem"]] + doc["closed_forms"]
        assert all(b["bound_per_vertex"] == 0.0 and b["bound_total"] == 0.0 for b in bounds)

    def test_size_beyond_product_refused(self, capsys):
        # log(2^80 + 1) rounds below the sum of 80 logs, so only the exact
        # vertex count can refuse it
        assert run(["bound", "complete:2^80", "--size", str(2**80 + 1)]) == 2
        assert "exceeds the product's" in capsys.readouterr().err


class TestCompareCommand:
    def test_csv_table(self, capsys):
        assert run(["compare", "cycle:4^2", "--samples", "5", "--output", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "log_size,ours,bl,ratio"
        assert len(lines) == 6
        ratios = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(r >= 1.0 - 1e-12 for r in ratios)
        assert all(r <= 2.0 / (math.e * math.log(2)) + 1e-12 for r in ratios)

    def test_default_sample_count(self, capsys):
        assert run(["compare", "path:5^3", "--output", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 101

    def test_json(self, capsys):
        assert run(["compare", "path:4^2", "--samples", "3", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 3

    def test_rejects_heterogeneous(self, capsys):
        assert run(["compare", "path:3 x cycle:4"]) == 2
        assert "homogeneous" in capsys.readouterr().err

    def test_rejects_complete(self, capsys):
        assert run(["compare", "complete:3^2"]) == 2

    def test_rejects_bad_samples(self, capsys):
        assert run(["compare", "path:4^2", "--samples", "0"]) == 2


class TestVerifyCommand:
    def test_grid_ok(self, capsys):
        assert run(["verify", "path:3^2"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("OK")

    def test_json(self, capsys):
        assert run(["verify", "path:3 x complete:2", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert len(doc["entries"]) == 6

    def test_csv(self, capsys):
        assert run(["verify", "complete:2^3", "--output", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,true_min_boundary,bound_total,gap,tight"
        assert len(lines) == 9

    def test_sampled_sizes(self, capsys):
        assert run(["verify", "cycle:3^3", "--sizes", "1,3,9,27", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [e["k"] for e in doc["entries"]] == [1, 3, 9, 27]

    def test_family_factor_above_search_cap(self, capsys):
        # path:40 has no exhaustive profile; its closed form stands in
        assert run(["verify", "path:40 x path:2", "--sizes", "1", "--output", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "1,2,2.0,0.0,True"

    def test_bad_sizes(self, capsys):
        assert run(["verify", "path:3^2", "--sizes", "1,x"]) == 2
        assert "bad --sizes" in capsys.readouterr().err


class TestCertifyQ71Command:
    def test_json(self, capsys):
        assert run(["certify-q71", "cycle:5", "--power", "2", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ks"] == [1, 2, 5]
        assert doc["sizes"] == ["1", "4", "25"]
        assert doc["residual"] == pytest.approx(-0.27729376770642755, rel=1e-9)

    def test_human(self, capsys):
        assert run(["certify-q71", "cycle:7", "--power", "3"]) == 0
        assert "residual" in capsys.readouterr().out

    def test_single_chord_is_an_error(self, capsys):
        assert run(["certify-q71", "complete:4", "--power", "2"]) == 2
        assert "single linear piece" in capsys.readouterr().err


class TestCertifyQ72Command:
    def test_counterexample(self, capsys):
        assert run(["certify-q72", "cycle:5", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["slabs_optimal"] is False
        assert doc["lhs"] < doc["rhs"]
        assert doc["t"] >= 1

    def test_slabs_optimal_is_informational(self, capsys):
        assert run(["certify-q72", "complete:4", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["slabs_optimal"] is True
        assert run(["certify-q72", "complete:4"]) == 0
        assert "edge-optimal" in capsys.readouterr().out

    def test_rejects_products(self, capsys):
        assert run(["certify-q72", "path:3 x path:3"]) == 2
        assert "single base graph" in capsys.readouterr().err

    def test_rejects_irregular_base(self, capsys):
        assert run(["certify-q72", "path:4"]) == 2
        assert "not regular" in capsys.readouterr().err

    def test_human(self, capsys):
        assert run(["certify-q72", "cycle:5"]) == 0
        assert "counterexample" in capsys.readouterr().out


class TestDistinctFactors:
    """Each distinct factor is solved once per command, family factors never
    by search."""

    @pytest.fixture
    def searched(self, monkeypatch):
        # Every search, of a factor or of a verified product, goes through
        # profiles._search, whichever name its caller imported; record the
        # vertex count of each searched graph.
        calls = []
        original = profiles._search

        def counting(g, k, prune):
            calls.append(g.vertex_count)
            return original(g, k, prune)

        monkeypatch.setattr(profiles, "_search", counting)
        return calls

    def test_repeated_file_factor_searched_once(self, tmp_path, searched, capsys):
        p = tmp_path / "g.txt"
        p.write_text("13\n" + "".join(f"{v} {v + 1}\n" for v in range(12)) + "0 12\n0 6\n")
        assert run(["bound", f"file:{p}^4", "--size", "100"]) == 0
        assert searched == [13] * 13  # one profile: sizes k = 1..13 of one graph

    @pytest.mark.parametrize("spec,vertices", [("complete:2^15", 2**15), ("path:13^4", 13**4)])
    def test_family_factors_never_searched(self, spec, vertices, searched, capsys):
        assert run(["verify", spec, "--sizes", "1"]) == 0
        assert searched == [vertices]  # only the product's true minimum at k = 1

    def test_exhaustive_forces_search(self, searched, capsys):
        assert run(["profile", "cycle:6", "--exhaustive"]) == 0
        assert searched == [6] * 6

    def test_repeated_factor_builds_one_minorant(self, monkeypatch, capsys):
        built = []
        original = minorants.build_minorant

        def counting(profile):
            built.append(profile.graph_size)
            return original(profile)

        monkeypatch.setattr(minorants, "build_minorant", counting)
        assert run(["bound", "cycle:8^200 x path:3", "--log-size", "10"]) == 0
        assert built == [8, 3]


class TestTopLevel:
    def test_bad_spec_prints_grammar(self, capsys):
        assert run(["profile", "path:3 y cycle:4"]) == 2
        err = capsys.readouterr().err
        assert "spec grammar" in err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate", "path:3"]) == 2

    def test_no_arguments(self, capsys):
        assert run([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_cap_env(self, monkeypatch, capsys):
        monkeypatch.setenv(MAX_VERTICES_ENV, "8")
        assert run(["profile", "cycle:3^2"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        argv = ["bound", "path:5 x cycle:4 x complete:3", "--size", "10", "--output", "json"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first


class TestInstalledEntryPoints:
    def test_module_invocation(self):
        # the child imports the same isobound as this process, installed or not
        src = str(Path(isobound.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "isobound.cli", "profile", "path:4", "--output", "csv"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout == PATH4_CSV

    def test_console_script(self):
        exe = shutil.which("isobound")
        assert exe is not None, "console script not installed"
        proc = subprocess.run(
            [exe, "verify", "complete:2^2"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("OK")
