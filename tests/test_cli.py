import csv
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import isobound
from isobound import certify, cli, closed_forms, minorants, profiles
from isobound.cli import build_parser, parse_log_size, run
from isobound.graphs import ParseError, parse_product_spec


def write_random_graph(path, rng, m, density):
    """An edge-list file of G(m, density), each pair an edge with that probability."""
    edges = [p for p in itertools.combinations(range(m), 2) if rng.random() < density]
    path.write_text(f"{m}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return path


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

    @pytest.mark.parametrize("text", [
        "", "two", "log(0)", "log(-3)", "x*log(2)",
        "nan", "inf", "-inf", "1e999", "1" + "0" * 400 + "*log(2)", "log(1" + "0" * 400 + ")",
    ])
    def test_rejects(self, text):
        with pytest.raises(ValueError) as info:
            parse_log_size(text)
        assert not isinstance(info.value, ParseError)  # not a spec error: no grammar


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

    def test_json_tie_reads_the_hull(self, capsys):
        # C4^2 = Q4 has a one-segment hull; the summary is that segment
        assert run(["minorant", "cycle:4^2", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [b["k"] for b in doc["breakpoints"]] == [1, 16]
        summary = doc["regular_summary"]
        assert (summary["k_star"], summary["y_intercept"]) == (1, 4.0)
        assert summary["chord_slope"] == -1.4426950408889634

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

    @pytest.mark.parametrize("seed", range(6))
    def test_hull_first_prints_the_exhaustive_json(self, seed, tmp_path, capsys):
        # minorant proves the hull of a few exact sizes; --exhaustive builds it
        # from every size
        rng = random.Random(4200 + seed)
        m = rng.randint(9, 18)
        path = write_random_graph(tmp_path / "g.txt", rng, m, rng.choice([0.15, 0.3, 0.5, 0.7]))
        assert run(["minorant", f"file:{path}", "--output", "json"]) == 0
        hull_first = capsys.readouterr().out
        assert run(["minorant", f"file:{path}", "--exhaustive", "--output", "json"]) == 0
        assert capsys.readouterr().out == hull_first

    def test_forty_vertex_file_factor_answers(self, tmp_path, capsys):
        # a random G(40, 0.3), whose full profile is over the budget: the
        # hull-first minorant fits one budget, in the bound of its power too
        path = write_random_graph(tmp_path / "r40.txt", random.Random(40), 40, 0.3)
        assert run(["minorant", f"file:{path}", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [b["k"] for b in doc["breakpoints"]] == [1, 40]
        assert run(["bound", f"file:{path}^10", "--size", "1000", "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["theorem"]["bound_total"] > 0


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

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_rejects_non_finite_log_size(self, text, capsys):
        assert run(["bound", "cycle:5^2", "--log-size", text, "--output", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad log-size" in captured.err

    def test_log_size_error_omits_spec_grammar(self, capsys):
        assert run(["bound", "cycle:5^2", "--log-size", "nan"]) == 2
        err = capsys.readouterr().err
        assert "bad log-size" in err
        assert "spec grammar" not in err

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

    def test_samples_over_budget_refused_before_any_bound(self, monkeypatch, capsys):
        # each sample is charged SAMPLE_UNITS before a row is built
        monkeypatch.setattr(closed_forms, "torus_bound", lambda *a: pytest.fail("bound evaluated"))
        monkeypatch.setattr(closed_forms, "bl_bound", lambda *a, **k: pytest.fail("bound evaluated"))
        assert run(["compare", "cycle:5^3", "--samples", "1000000000"]) == 2
        err = capsys.readouterr().err
        assert f"comparison of 1000000000 samples charges {10**9 * cli.SAMPLE_UNITS} units" in err
        assert cli.SAMPLE_UNITS * 100_000 <= cli.SEARCH_BUDGET  # 100,000 samples still answer

    @pytest.mark.parametrize(
        "argv",
        [["bound", "path:5^450", "--size", "1"], ["compare", "path:5^450"]],
        ids=["bound", "compare"],
    )
    def test_benchmark_past_double_range_answers(self, argv, capsys):
        # n log m > 709.78: the power-of-r benchmark's r = 1 term overflows a double
        assert run([*argv, "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)


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

    def test_size_above_half_searches_its_complement(self, monkeypatch, capsys):
        # b(15) = b(5) on the 20-vertex product of three paths, so the search
        # runs at size 5 (two nested factors would take it from the fibre floor)
        searched = []
        original = profiles._search

        def recording(g, k, *rest):
            searched.append(k)
            return original(g, k, *rest)

        monkeypatch.setattr(profiles, "_search", recording)
        assert run(["verify", "path:2^2 x path:5", "--sizes", "15", "--output", "json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["entries"]
        assert searched == [5]
        assert (entry["k"], entry["true_min_boundary"]) == (15, 6)

    def test_family_factor_above_search_cap(self, capsys):
        # path:40 takes its closed form, not a search
        assert run(["verify", "path:40 x path:2", "--sizes", "1", "--output", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "1,2,2.0,0.0,True"

    def test_hypercube_size_three(self, capsys):
        # 1024 vertices: the nested order gives the truth
        assert run(["verify", "complete:2^10", "--sizes", "3", "--output", "json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["entries"]
        assert entry["true_min_boundary"] == 26

    def test_transitive_product_size_three(self, capsys):
        # C4^5 is Q10 again, but not a clique product, so it is built and the
        # transitive search tries only sets holding 0
        assert run(["verify", "cycle:4^5", "--sizes", "3", "--output", "json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["entries"]
        assert entry["true_min_boundary"] == 26

    def test_grid_size_three(self, capsys):
        # 625 vertices and not transitive, so no symmetry cut applies
        assert run(["verify", "path:5^4", "--sizes", "3", "--output", "json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["entries"]
        assert entry["true_min_boundary"] == 10

    @pytest.mark.parametrize("output", ["human", "json"])
    def test_bound_above_truth_fails(self, output, monkeypatch, capsys):
        # the truth at size 2 of path:3^2 is 3; a bound of 4.5 exceeds it
        monkeypatch.setattr(certify, "theorem_bound", lambda *a, **k: SimpleNamespace(bound_total=4.5))
        assert run(["verify", "path:3^2", "--sizes", "2", "--output", output]) == 1
        out = capsys.readouterr().out
        if output == "json":
            doc = json.loads(out)
            assert doc["ok"] is False
            assert doc["entries"][0]["gap"] == -1.5
        else:
            assert out.splitlines()[-2:] == [
                "  k=2 truth=3 bound=4.5 gap=-1.5",
                "FAIL: bound exceeded the true minimum",
            ]

    def test_bad_sizes(self, capsys):
        assert run(["verify", "path:3^2", "--sizes", "1,x"]) == 2
        assert "bad --sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", ["", ","])
    def test_empty_sizes(self, sizes, capsys):
        assert run(["verify", "path:3^2", "--sizes", sizes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no sizes to verify" in captured.err


class TestVerifyWithoutProduct:
    """Sizes whose truth the factors give exactly never build the product."""

    @pytest.fixture
    def no_product(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("product built")

        monkeypatch.setattr(certify, "cartesian_product", refuse)

    @pytest.mark.parametrize("spec,sizes,truths", [
        ("complete:2^60", "1,8,1000", [60, 456, 50136]),
        ("path:13^20", "1", [20]),
        ("path:13^20", str(13**20 - 1), [20]),
        ("cycle:5^100", f"1,{5**100}", [200, 0]),
        ("complete:2^4", None, [4, 6, 8, 8, 10, 10, 10, 8, 10, 10, 10, 8, 8, 6, 4, 0]),
    ], ids=["Q60", "P13^20", "P13^20-co-singleton", "C5^100-whole", "Q4-all-sizes"])
    def test_exact_truths(self, spec, sizes, truths, no_product, capsys):
        argv = ["verify", spec, "--output", "json"] + (["--sizes", sizes] if sizes else [])
        assert run(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [e["true_min_boundary"] for e in doc["entries"]] == truths
        assert doc["ok"] is True

    def test_one_factor_is_not_a_product(self, no_product, capsys):
        # 10,000 vertices, whose masks alone are over the budget: the closed
        # form gives the truth
        assert run(["verify", "path:10000", "--sizes", "3", "--output", "json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["entries"]
        assert entry["true_min_boundary"] == 1

    @pytest.mark.parametrize("spec", ["complete:2^60", "cycle:5^9", "complete:2^15", "cycle:5^7"])
    def test_all_sizes_refused_before_building(self, spec, no_product, monkeypatch, capsys):
        # 1000 units per reported size: m sizes are over the budget, refused
        # before a truth is read
        def refuse(*args):
            raise AssertionError("truth read")

        monkeypatch.setattr(certify, "_exact_truth", refuse)
        m = parse_product_spec(spec).vertex_count
        assert run(["verify", spec]) == 2
        assert f"verification of {m} sizes charges {1000 * m} units of work" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,m", [("path:3 x path:7", 21), ("complete:2^10", 1024)],
                             ids=["path:3 x path:7", "complete:2^10"])
    def test_all_sizes_past_twenty_vertices(self, spec, m, capsys):
        # a 21-vertex search and a clique product that needs none
        assert run(["verify", spec, "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [e["k"] for e in doc["entries"]] == list(range(1, m + 1))
        assert doc["ok"] is True

    def test_search_still_refused_above_cap(self, capsys):
        assert run(["verify", "path:13^6", "--sizes", "2"]) == 2
        units = 4826809 * 4826808 // 2
        assert f"product of 4826809 vertices charges {units} units" in capsys.readouterr().err


class TestCertifyQ71Command:
    def test_json(self, capsys):
        assert run(["certify-q71", "cycle:5", "--power", "2", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ks"] == [1, 2, 5]
        assert doc["sizes"] == ["1", "4", "25"]
        assert doc["residual"] == pytest.approx(-0.27729376770642755, rel=1e-9)

    def test_csv_fields_quoted_as_rfc4180(self):
        assert [cli._csv_field(c) for c in ("a", 'say "hi"', "1,2", 0.5)] == ["a", '"say ""hi"""', '"1,2"', "0.5"]
        assert next(csv.reader([cli._csv_field('say "hi", twice')])) == ['say "hi", twice']

    def test_human(self, capsys):
        assert run(["certify-q71", "cycle:7", "--power", "3"]) == 0
        assert "residual" in capsys.readouterr().out

    def test_single_chord_is_an_error(self, capsys):
        assert run(["certify-q71", "complete:4", "--power", "2"]) == 2
        assert "single linear piece" in capsys.readouterr().err

    @pytest.mark.parametrize("output", ["human", "json", "csv"])
    def test_huge_power_refused_before_output(self, output, capsys):
        # 5^7000 has 4893 digits: too many for str(int) under the default limit
        assert run(["certify-q71", "cycle:5", "--power", "7000", "--output", output]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"more than {sys.get_int_max_str_digits()} digits" in captured.err

    @pytest.mark.skipif(sys.get_int_max_str_digits() != 4300, reason="needs the default limit")
    def test_digit_limit_edge(self, capsys):
        # 5^6151 has 4300 digits, 5^6152 has 4301
        assert run(["certify-q71", "cycle:5", "--power", "6151", "--output", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["sizes"][2]) == 4300
        assert run(["certify-q71", "cycle:5", "--power", "6152", "--output", "json"]) == 2


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
        assert run(["certify-q72", "complete:4", "--output", "csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["key", "value"]
        assert dict(rows[1:]) == {k: str(v) for k, v in doc.items()}

    def test_rejects_products(self, capsys):
        assert run(["certify-q72", "path:3 x path:3"]) == 2
        assert "single base graph" in capsys.readouterr().err

    def test_rejects_irregular_base(self, capsys):
        assert run(["certify-q72", "path:4"]) == 2
        assert "not regular" in capsys.readouterr().err

    def test_human(self, capsys):
        assert run(["certify-q72", "cycle:5"]) == 0
        assert "counterexample" in capsys.readouterr().out

    @pytest.mark.parametrize("eps", ["0", "-1", "inf", "nan", "-inf", "abc"])
    def test_bad_eps_start_is_a_usage_error(self, eps, capsys):
        assert run(["certify-q72", "cycle:5", f"--eps-start={eps}"]) == 2
        err = capsys.readouterr().err
        assert f"argument --eps-start: must be positive and finite, got '{eps}'" in err


class TestDistinctFactors:
    """Each distinct factor is solved once per command, family factors never
    by search."""

    @pytest.fixture
    def searched(self, monkeypatch):
        # Every search, of a factor or of a verified product, goes through
        # _search: profiles' own loop, or the hull-first minorants, which bind
        # it in their module; record the vertex count of each searched graph.
        calls = []
        original = profiles._search

        def counting(g, k, *rest):
            calls.append(g.vertex_count)
            return original(g, k, *rest)

        monkeypatch.setattr(profiles, "_search", counting)
        monkeypatch.setattr(minorants, "_search", counting)
        return calls

    def test_repeated_file_factor_searched_once(self, tmp_path, searched, capsys):
        p = tmp_path / "g.txt"
        p.write_text("13\n" + "".join(f"{v} {v + 1}\n" for v in range(12)) + "0 12\n0 6\n")
        assert run(["bound", f"file:{p}^4", "--size", "100"]) == 0
        # one hull-first minorant of one graph: one decision at each of sizes
        # 2-6 (sizes 7-11 are their complements; 1, 12 and 13 are free)
        assert searched == [13] * 5

    @pytest.mark.parametrize("spec,vertices", [("complete:2^15", 2**15), ("path:13^4", 13**4)])
    def test_family_factors_never_searched(self, spec, vertices, searched, capsys):
        # neither the factors nor the product: every truth comes from the factors
        assert run(["verify", spec, "--sizes", f"1,{vertices - 1},{vertices}"]) == 0
        assert searched == []

    def test_exhaustive_forces_search(self, searched, capsys):
        assert run(["profile", "cycle:6", "--exhaustive"]) == 0
        assert searched == [6] * 5  # sizes 1..5: the whole graph takes no search

    def test_family_factor_builds_no_witnesses(self, capsys):
        # a family's hull reads its closed-form boundaries: 20,000 k-bit
        # witness masks alone would take about 24 MiB
        tracemalloc.start()
        try:
            assert run(["bound", "path:20000^2", "--size", "5"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_repeated_factor_builds_one_minorant(self, monkeypatch, capsys):
        # a family's minorant is the hull of its closed-form boundaries
        built = []
        original = minorants._hull

        def counting(m, boundaries):
            built.append(m)
            return original(m, boundaries)

        monkeypatch.setattr(minorants, "_hull", counting)
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

    def test_parser_reused_across_commands(self, capsys):
        argvs = [
            ["profile", "path:4", "--output", "csv"],
            ["bound", "cycle:5^2", "--size", "3"],
            ["verify", "path:3^2", "--bogus"],
            ["minorant", "cycle:5", "--output", "json"],
            ["profile", "path:4", "--output", "csv"],
            ["verify", "path:3^2", "--sizes", "2,4"],
        ]

        def outcome(argv):
            code = run(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert [outcome(argv) for argv in argvs] == fresh  # one parser, every command
        assert build_parser() is build_parser()
        assert fresh[0] == (0, PATH4_CSV, "")
        assert fresh[2][0] == 2 and "unrecognized arguments: --bogus" in fresh[2][2]

    def test_deterministic_output(self, capsys):
        argv = ["bound", "path:5 x cycle:4 x complete:3", "--size", "10", "--output", "json"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first


def fresh_python(*args):
    """A new interpreter that imports the same isobound as this process,
    installed or not."""
    src = str(Path(isobound.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestStartupImports:
    """Start-up loads only what the command runs.  Each check is a fresh
    process, since this one already holds every module."""

    def test_profile_loads_graphs_and_profiles_only(self):
        code = (
            "import sys\n"
            "import isobound.cli\n"
            "assert isobound.cli.run(['profile', 'path:4', '--output', 'csv']) == 0\n"
            "print(*sorted(n for n in sys.modules if n.split('.')[0] == 'isobound'))\n"
        )
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        *out, loaded = proc.stdout.splitlines(keepends=True)
        assert "".join(out) == PATH4_CSV
        assert loaded.split() == ["isobound", "isobound.cli", "isobound.graphs", "isobound.profiles"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["minorant", "cycle:5"],
            ["bound", "path:3^2", "--size", "4"],
            ["compare", "cycle:4^2", "--samples", "5"],
            ["verify", "path:3^2"],
            ["certify-q71", "cycle:5", "--power", "2"],
            ["certify-q72", "cycle:5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_each_command_answers_in_a_fresh_process(self, argv, capsys):
        argv = [*argv, "--output", "json"]
        proc = fresh_python("-m", "isobound.cli", *argv)
        assert run(argv) == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")

    def test_public_names_resolve_to_their_modules(self):
        code = (
            "import sys\n"
            "import isobound\n"
            "assert [n for n in sys.modules if n.startswith('isobound')] == ['isobound']\n"
            "for name in isobound.__all__:\n"
            "    obj = getattr(isobound, name)\n"
            "    assert obj.__module__.startswith('isobound.'), name\n"
            "    assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
            "star = {}\n"
            "exec('from isobound import *', star)\n"
            "assert all(star[name] is getattr(isobound, name) for name in isobound.__all__)\n"
            "assert not hasattr(isobound, 'no_such_name')\n"
            "print(len(isobound.__all__))\n"
        )
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == len(isobound.__all__) == 41


class TestInstalledEntryPoints:
    def test_module_invocation(self):
        proc = fresh_python("-m", "isobound.cli", "profile", "path:4", "--output", "csv")
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
