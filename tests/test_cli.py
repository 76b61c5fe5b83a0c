"""CLI tests: subcommands, exit codes, report determinism."""

import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fourfree import cli
from fourfree.cli import (
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_OK,
    EXIT_ORDER_FOUR,
    EXIT_VIOLATIONS,
    main,
    parse_presentation_text,
    parse_signature_text,
)
from fourfree.presentation import Presentation


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "elapsed_s"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


Z4_FILE = "generators: 1\nrelations:\n4\n"
Z2_Z6_FILE = "generators: 2\nrelations:\n2 0\n0 6\n"
FREE3_FILE = "generators: 3\nrelations:\n"
M61_FILE = f"generators: 1\nrelations:\n{2**61 - 1}\n"
M89_FILE = f"generators: 1\nrelations:\n{2**89 - 1}\n"


class TestPresentationParsing:
    def test_parses_comments_and_blanks(self):
        pres = parse_presentation_text(
            "# a comment\n\ngenerators: 2\nrelations:\n2 0  # trailing\n0 6\n"
        )
        assert pres == Presentation(2, ((2, 0), (0, 6)))

    def test_no_relations_section(self):
        assert parse_presentation_text("generators: 3\n") == Presentation(3)

    def test_missing_generators_is_an_error(self):
        with pytest.raises(Exception) as err:
            parse_presentation_text("relations:\n1\n")
        assert "generators" in str(err.value)

    def test_bad_row_reports_line(self):
        with pytest.raises(Exception) as err:
            parse_presentation_text("generators: 1\nrelations:\n1\ntwo\n", source="f")
        assert "f:4" in str(err.value)

    @pytest.mark.parametrize("text, lineno, header", [
        ("generators: 2\ngenerators: 1\nrelations:\n2\n", 2, "generators:"),
        ("generators: 1\nrelations:\n2\n# a comment\nrelations:\n3\n", 5, "relations:"),
    ], ids=["generators", "relations"])
    def test_repeated_header_reports_line(self, text, lineno, header, tmp_path, capsys):
        with pytest.raises(cli.CliError, match=f"^f:{lineno}: repeated '{header}' line$") as err:
            parse_presentation_text(text, source="f")
        assert err.value.code == EXIT_IO
        path = write(tmp_path / "g.pres", text)
        assert main(["analyze", "--input", path]) == EXIT_IO
        assert capsys.readouterr().err.endswith(f":{lineno}: repeated '{header}' line\n")

    def test_signature_text(self):
        sig = parse_signature_text("prufer=3,5;s=2;r=1")
        assert sig.prufer_factors == (3, 5) and sig.s == 2 and sig.r == 1
        assert parse_signature_text("s=1").prufer_factors == ()
        with pytest.raises(Exception):
            parse_signature_text("prufer=4")
        with pytest.raises(Exception):
            parse_signature_text("bogus=1")
        with pytest.raises(cli.CliError, match="repeated signature field 's'"):
            parse_signature_text("prufer=3;s=1;r=0;s=2")

    def test_presentation_size_is_bounded(self):
        limit = cli.MAX_PRESENTATION_SIZE
        assert parse_presentation_text(f"generators: {limit}\n") == Presentation(limit)
        rows = "0 0\n" * (limit - 2)
        assert len(parse_presentation_text(f"generators: 2\nrelations:\n{rows}").relations) == limit - 2
        for text in (f"generators: {limit + 1}\n", f"generators: 2\nrelations:\n{rows}0 0\n"):
            with pytest.raises(cli.CliError, match=f"exceed the limit of {limit}") as err:
                parse_presentation_text(text)
            assert err.value.code == EXIT_BUDGET


class TestAnalyze:
    def test_z4_exits_order_four(self, tmp_path, capsys):
        path = write(tmp_path / "z4.pres", Z4_FILE)
        assert main(["analyze", "--input", path]) == EXIT_ORDER_FOUR
        report = json.loads(capsys.readouterr().out)
        assert report["analysis"]["verdict"] == "order-4 present"
        assert report["analysis"]["primary_factors"] == [[2, 2]]

    def test_z2_z6(self, tmp_path, capsys):
        path = write(tmp_path / "g.pres", Z2_Z6_FILE)
        assert main(["analyze", "--input", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["analysis"]["primary_factors"] == [[2, 1], [2, 1], [3, 1]]
        assert report["analysis"]["invariant_factors"] == [2, 6]
        assert report["analysis"]["verdict"] == "4-free"

    def test_free_group(self, tmp_path, capsys):
        path = write(tmp_path / "f.pres", FREE3_FILE)
        assert main(["analyze", "--input", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["analysis"]["free_rank"] == 3
        assert not report["analysis"]["primary_factors"]

    def test_missing_file_is_io_error(self, capsys):
        assert main(["analyze", "--input", "/nonexistent.pres"]) == EXIT_IO

    def test_parse_error_is_io_error(self, tmp_path, capsys):
        path = write(tmp_path / "bad.pres", "generators: x\n")
        assert main(["analyze", "--input", path]) == EXIT_IO


class TestEmbed:
    def test_embed_json(self, tmp_path, capsys):
        path = write(tmp_path / "g.pres", Z2_Z6_FILE)
        assert main(["embed", "--input", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        emb = report["embedding"]
        assert emb["signature"] == {
            "prufer_factors": [3],
            "s": 2,
            "r": 0,
            "free_mode": "rational",
        }
        assert emb["generator_images"] == [
            "d:{};t:10;q:()",
            "d:{};t:01;q:()",
            "d:{0=1/3};t:00;q:()",
        ]

    def test_embed_z4_refused(self, tmp_path, capsys):
        path = write(tmp_path / "z4.pres", Z4_FILE)
        assert main(["embed", "--input", path]) == EXIT_ORDER_FOUR


class TestColour:
    def test_zero_element(self, capsys):
        code = main(["colour", "--signature", "prufer=3,5;s=2;r=2",
                     "d:{};t:00;q:(0,0)"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.strip().split("\t") == ["d:{};t:00;q:(0,0)", "D[]|Y[]|H1"]

    def test_documented_element(self, capsys):
        code = main(["colour", "--signature", "prufer=3,5;s=2;r=2",
                     "d:{0=1/9,1=2/5};t:00;q:(0,3/2)"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip().endswith("D[1/9,2/5]|Y[3/2]|H1")

    def test_malformed_element(self, capsys):
        code = main(["colour", "--signature", "s=1", "not-an-element"])
        assert code == EXIT_IO
        assert "error" in capsys.readouterr().err

    def test_elements_from_file(self, tmp_path, capsys):
        path = write(tmp_path / "elems.txt", "d:{};t:1;q:()\nd:{};t:0;q:()\n")
        code = main(["colour", "--signature", "s=1", "--input", path])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith("D[]|Y[]|H0")
        assert lines[1].endswith("D[]|Y[]|H1")


class TestVerify:
    def test_default_demo_signature_clean(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["triple_report"]["n_violations"] == 0
        assert report["triple_report"]["distinct"] == 180
        assert report["coset_report"]["ok"] is True
        assert report["config"]["resolved_signature"]["prufer_factors"] == [3, 5]

    def test_drop_layer_finds_violations(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--drop-layer", "halvable", "--output", str(out)])
        assert code == EXIT_VIOLATIONS
        report = json.loads(out.read_text())
        assert report["triple_report"]["n_violations"] > 0

    def test_z4_presentation_refused(self, tmp_path, capsys):
        path = write(tmp_path / "z4.pres", Z4_FILE)
        assert main(["verify", "--input", path]) == EXIT_ORDER_FOUR

    def test_presentation_verify_clean(self, tmp_path, capsys):
        path = write(tmp_path / "g.pres", Z2_Z6_FILE)
        out = tmp_path / "report.json"
        assert main(["verify", "--input", path, "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["analysis"]["verdict"] == "4-free"
        assert report["triple_report"]["n_violations"] == 0

    def test_cap_exceeded(self, tmp_path, capsys):
        code = main(["verify", "--prufer-depth", "4", "--cap", "100"])
        assert code == EXIT_BUDGET

    def test_removed_parallel_flag_is_usage_error(self, capsys):
        assert main(["verify", "--parallel", "2"]) == EXIT_IO
        assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err

    def test_cap_applies_in_random_mode(self, capsys):
        code = main(["verify", "--mode", "random", "--count", "5", "--cap", "1"])
        assert code == EXIT_BUDGET

    def test_huge_q_box_exceeds_cap_promptly(self, capsys):
        start = time.perf_counter()
        assert main(["verify", "--q-bound", "100000000"]) == EXIT_BUDGET
        assert time.perf_counter() - start < 5.0

    def test_no_free_coordinates_skips_q_box(self, capsys):
        start = time.perf_counter()
        argv = ["verify", "--signature", "prufer=3;s=1;r=0", "--q-bound", "1000000"]
        assert main(argv) == EXIT_OK
        assert time.perf_counter() - start < 2.0
        assert json.loads(capsys.readouterr().out)["triple_report"]["distinct"] == 6

    def test_no_free_coordinates_skips_denominator_bound(self):
        # in a subprocess with a timeout: lcm(1..10^9) would not finish
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        argv = ["verify", "--signature", "prufer=3;s=1;r=0", "--q-den-bound", "1000000000"]
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "fourfree", *argv], env=env, capture_output=True, text=True, timeout=20
        )
        assert time.perf_counter() - start < 2.0
        assert result.returncode == EXIT_OK
        assert json.loads(result.stdout)["triple_report"]["distinct"] == 6

    def test_random_mode_q_box_over_cap_exits_before_building_it(self, capsys):
        start = time.perf_counter()
        argv = ["verify", "--mode", "random", "--count", "5",
                "--q-bound", "200000", "--q-den-bound", "2"]
        assert main(argv) == EXIT_BUDGET
        assert time.perf_counter() - start < 2.0
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "free-coordinate box has 600001 values, cap is 100000"

    def test_summary_names_evaluated_and_nominal_pairs(self, capsys):
        assert main(["verify"]) == EXIT_OK
        err = capsys.readouterr().err
        assert "evaluated 270 candidate pairs" in err
        assert "of 16110 nominal pairs over 180 elements: 0 violations" in err

    def test_reports_reproducible(self, tmp_path, capsys):
        args = ["verify", "--signature", "prufer=3;s=1;r=1", "--mode", "random",
                "--count", "800", "--seed", "5", "--q-bound", "2"]
        outs = []
        for i in range(2):
            out = tmp_path / f"r{i}.json"
            assert main(args + ["--output", str(out)]) == EXIT_OK
            outs.append(json.dumps(strip_timing(json.loads(out.read_text())), sort_keys=True))
        assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["verify", "--prufer-depth", "0"],
    ["verify", "--mode", "random", "--count", "0"],
    ["search", "--group", "1", "--colours", "2"],
    ["search", "--colours", "0"],
    ["demo", "--group", "1"],
    ["verify", "--input", "z2_z6.pres", "--signature", "s=1"],
    ["search", "--group", "4", "--colours", "2", "--min-colours"],
])
def test_bad_flag_is_input_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "z2_z6.pres", Z2_Z6_FILE)  # so that a conflict, not a missing file, is the error
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


GROUP_OF_15000_TWOS = ",".join(["2"] * 15_000)


@pytest.mark.parametrize("argv", [
    ["verify", "--prufer-depth", "5000"],
    ["verify", "--signature", "prufer=3;s=300000000;r=0"],
    ["verify", "--signature", "prufer=;s=0;r=3000000", "--q-bound", "2"],
    ["verify", "--prufer-depth", "1000000000"],
    ["verify", "--q-bound", "100000000000000", "--q-den-bound", "100000000000000"],
    ["verify", "--mode", "random", "--count", "1", "--prufer-depth", "1000000000"],
    ["verify", "--mode", "random", "--count", "2", "--signature", "prufer=;s=300000000;r=0"],
    ["demo", "--group", GROUP_OF_15000_TWOS],
    ["search", "--group", GROUP_OF_15000_TWOS, "--colours", "2"],
], ids=["depth-5000", "s-3e8", "r-3e6", "depth-1e9", "q-box-1e14", "random-depth-1e9", "random-s-3e8",
        "demo-2^15000", "search-2^15000"])
def test_oversized_knob_is_budget_exit(argv):
    # a subprocess with a timeout, so that a size computed before it is
    # bounded fails the test instead of hanging it
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "fourfree", *argv], env=env, capture_output=True, text=True, timeout=20
    )
    assert time.perf_counter() - start < 2.0
    assert result.returncode == EXIT_BUDGET
    if argv[0] == "verify":
        assert result.stderr == ""
        mode = "random sample draws from" if "random" in argv else "exhaustive sample has"
        assert json.loads(result.stdout)["error"].startswith(f"{mode} at least 2^")
    else:
        assert result.stderr == "error: group size at least 2^15000 exceeds cap 4096\n"


def test_unwritable_report_is_io_exit_without_partial_file(tmp_path):
    # the invariant factor 2^9000 * 3^5000 has more digits than Python
    # converts to text, so the report cannot be serialised
    pres = write(tmp_path / "big.txt", f"generators: 2\nrelations:\n{2**9000} 0\n0 {3**5000}\n")
    out = tmp_path / "reports" / "r.json"
    out.parent.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "fourfree", "analyze", "--input", pres, "--output", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == EXIT_IO
    assert result.stderr.startswith(f"error: cannot write {out}: ")
    assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr
    assert list(out.parent.iterdir()) == []


def test_unserialisable_report_leaves_stdout_empty(tmp_path, capsys):
    # stdout, like an --output file, gets the whole report or nothing
    pres = write(tmp_path / "big.txt", f"generators: 2\nrelations:\n{2**9000} 0\n0 {3**5000}\n")
    assert main(["analyze", "--input", pres]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write report: ") and len(err.splitlines()) == 1


def test_main_is_the_only_report_writer():
    """``_emit`` is called once in the CLI, from ``main``; no ``cmd_*`` writes its own report."""

    class Callers(ast.NodeVisitor):
        def __init__(self):
            self.scope = ["cli"]
            self.found = []

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

        def visit_Call(self, node):
            if getattr(node.func, "id", getattr(node.func, "attr", None)) == "_emit":
                self.found.append(".".join(self.scope))
            self.generic_visit(node)

    callers = Callers()
    callers.visit(ast.parse(Path(cli.__file__).read_text(encoding="utf-8")))
    assert callers.found == ["cli.main"]


@pytest.mark.parametrize("argv, code", [
    (["analyze", "--input", "{m89}"], EXIT_BUDGET),
    (["embed", "--input", "{m89}"], EXIT_BUDGET),
    (["verify", "--input", "{m89}"], EXIT_BUDGET),
    (["search", "--group", "64,128", "--colours", "2"], EXIT_BUDGET),
    (["demo", "--group", "64,128"], EXIT_BUDGET),
], ids=["analyze-m89", "embed-m89", "verify-m89", "search-over-cap", "demo-over-cap"])
def test_documented_exit_code_without_traceback(argv, code, tmp_path):
    m89 = write(tmp_path / "m89.txt", M89_FILE)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "fourfree", *(arg.format(m89=m89) for arg in argv)],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "--signature", "prufer=3;s=1;r=1", "--cap", "-5"],
    ["verify", "--mode", "random", "--count", "3", "--cap", "-5"],
    ["search", "--group", "4", "--colours", "2", "--cap", "-1"],
    ["search", "--group", "4", "--min-colours", "--cap", "-1"],
], ids=["verify", "verify-random", "search", "search-min-colours"])
def test_negative_cap_is_usage_error(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "fourfree", *argv], env=env, capture_output=True, text=True, timeout=20,
    )
    assert result.returncode == EXIT_IO
    assert "Traceback" not in result.stderr and result.stdout == ""
    assert result.stderr == "error: cap must be >= 0\n"


def test_report_replaces_an_existing_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    out.write_text("stale", encoding="utf-8")
    assert main(["verify", "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text(encoding="utf-8"))["triple_report"]["distinct"] == 180
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


@pytest.mark.skipif(os.name != "posix", reason="symlinks and mode bits")
def test_report_writes_through_a_symlink_and_keeps_the_mode(tmp_path, capsys):
    out = tmp_path / "r.json"
    out.write_text("stale", encoding="utf-8")
    out.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(out)
    assert main(["verify", "--output", str(link)]) == EXIT_OK
    assert link.is_symlink()
    assert json.loads(out.read_text(encoding="utf-8"))["triple_report"]["distinct"] == 180
    assert out.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "r.json"]


class TestPrimeCertification:
    def test_mersenne_61_answers_promptly(self, capsys):
        start = time.perf_counter()
        assert main(["verify", "--signature", "prufer=2305843009213693951;s=0;r=0"]) == EXIT_BUDGET
        assert time.perf_counter() - start < 1.0
        assert json.loads(capsys.readouterr().out)["error"].startswith("exhaustive sample has")

    def test_prime_above_proven_range_is_budget_exit(self, capsys):
        assert main(["verify", "--signature", f"prufer={2**89 - 1};s=0;r=0"]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.startswith("error: invalid signature: cannot certify primality of ")

    def test_composite_above_proven_range_is_input_error(self, capsys):
        assert main(["verify", "--signature", f"prufer={2**89 + 1};s=0;r=0"]) == EXIT_IO
        assert "is not an odd prime" in capsys.readouterr().err

    def test_mersenne_61_presentation_answers_promptly(self, tmp_path, capsys):
        pres = write(tmp_path / "m61.txt", M61_FILE)
        start = time.perf_counter()
        assert main(["analyze", "--input", pres]) == EXIT_OK
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert json.loads(out)["analysis"]["primary_factors"] == [[2**61 - 1, 1]]
        assert err == ""

    @pytest.mark.parametrize("command", ["analyze", "embed", "verify"])
    def test_presentation_prime_above_proven_range_is_budget_exit(self, command, tmp_path, capsys):
        pres = write(tmp_path / "m89.txt", M89_FILE)
        start = time.perf_counter()
        assert main([command, "--input", pres]) == EXIT_BUDGET
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: cannot certify primality of {2**89 - 1}: it passes the Miller-Rabin "
                       "test, which is proven only below 3317044064679887385961981\n")


def test_config_echoes_every_flag_but_output(tmp_path, capsys):
    pres = write(tmp_path / "z2z6.txt", Z2_Z6_FILE)
    out = tmp_path / "r.json"
    cases = [
        (["analyze", "--input", pres], {"subcommand": "analyze", "input": pres}),
        (["embed", "--input", pres], {"subcommand": "embed", "input": pres, "free_mode": "rational"}),
        (["verify", "--seed", "3"], {
            "subcommand": "verify", "input": None, "signature": None, "free_mode": "rational",
            "prufer_depth": 1, "q_bound": 1, "q_den_bound": 1, "mode": "exhaustive",
            "count": 1000, "seed": 3, "cap": 100000, "drop_layer": None,
        }),
        (["demo", "--group", "4, 2"], {"subcommand": "demo", "group": [4, 2]}),
        (["search", "--group", "4", "--colours", "1"], {
            "subcommand": "search", "group": [4], "colours": 1, "min_colours": False,
            "budget": 1_000_000, "cap": 4096,
        }),
    ]
    for argv, config in cases:
        main(argv + ["--output", str(out)])
        echoed = json.loads(out.read_text())["config"]
        echoed.pop("resolved_signature", None)
        assert list(echoed.items()) == list(config.items())


class TestDemo:
    def test_transcript_and_json(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        assert main(["demo", "--output", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "g = (1, 0), h = (0, 1)" in stdout
        report = json.loads(out.read_text())
        assert report["demo"]["witness"] == [[1, 0], [0, 1]]

    def test_four_free_demo(self, capsys):
        assert main(["demo", "--group", "2,2"]) == EXIT_OK
        assert "no witness exists" in capsys.readouterr().out

    def test_group_over_cap_is_budget_exit(self, capsys):
        start = time.perf_counter()
        assert main(["demo", "--group", "64,128"]) == EXIT_BUDGET
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: group size 8192 exceeds cap 4096"]

    def test_largest_admitted_group_is_prompt(self, capsys):
        start = time.perf_counter()
        assert main(["demo", "--group", "64,64"]) == EXIT_OK
        assert time.perf_counter() - start < 5.0
        out = capsys.readouterr().out
        assert "witness pairs found: 24576" in out
        assert "featured witness: g = (0, 0), h = (0, 16)" in out


class TestSearch:
    def test_z4_two_colours_not_forced(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = main(["search", "--group", "4", "--colours", "2", "--output", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["result"]["verdict"] == "not_forced"
        assert report["result"]["witness"] is not None

    def test_z4_one_colour_forced(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = main(["search", "--group", "4", "--colours", "1", "--output", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["result"]["verdict"] == "forced"

    def test_budget_zero_unknown(self, tmp_path, capsys):
        code = main(["search", "--group", "4", "--colours", "2", "--budget", "0"])
        assert code == EXIT_BUDGET

    def test_min_colours(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = main(["search", "--group", "4", "--min-colours", "--output", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["result"]["min_colours"] == 2

    def test_missing_mode_is_error(self, capsys):
        assert main(["search", "--group", "4"]) == EXIT_IO

    def test_bad_group_text(self, capsys):
        assert main(["search", "--group", "4,x", "--colours", "1"]) == EXIT_IO

    def test_group_over_cap_is_budget_exit(self, capsys):
        code = main(["search", "--group", "64,64", "--colours", "2", "--cap", "10"])
        assert code == EXIT_BUDGET
        assert capsys.readouterr().err.startswith("error: group size 4096 exceeds cap 10")

    @pytest.mark.parametrize("mode", [["--colours", "2"], ["--min-colours"]])
    def test_negative_budget_is_usage_error(self, mode):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        result = subprocess.run(
            [sys.executable, "-m", "fourfree", "search", "--group", "4", *mode, "--budget", "-5"],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert result.returncode == EXIT_IO
        assert "Traceback" not in result.stderr and result.stdout == ""
        assert result.stderr == "error: budget must be >= 0\n"


def run_cli(argv):
    """A subprocess run of the CLI, and the seconds it took."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "fourfree", *argv], env=env, capture_output=True, text=True, timeout=20,
    )
    return result, time.perf_counter() - start


NOT_A_NUMBER = "is not of the form n or n/m"


@pytest.mark.parametrize("argv, message", [
    (["colour", "--signature", "prufer=;s=0;r=1", "d:{};t:;q:(1e1000000)"], NOT_A_NUMBER),
    (["colour", "--signature", "prufer=;s=0;r=1", "d:{};t:;q:(1e100000000)"], NOT_A_NUMBER),
    (["colour", "--signature", "prufer=;s=0;r=1", "d:{};t:;q:(0.5)"], NOT_A_NUMBER),
    (["colour", "--signature", "prufer=3;s=0;r=0", "d:{0=1/3,0=2/3};t:;q:()"], "repeated d index 0"),
    (["colour", "--signature", "prufer=3;s=1;r=0;s=2", "d:{};t:0;q:()"], "repeated signature field 's'"),
    (["verify", "--signature", "prufer=3;s=1;r=0;s=2"], "repeated signature field 's'"),
], ids=["exponent", "huge-exponent", "decimal", "repeated-d-index", "colour-repeated-field",
        "verify-repeated-field"])
def test_non_canonical_text_is_a_usage_error(argv, message):
    result, elapsed = run_cli(argv)
    assert elapsed < 2.0
    assert result.returncode == EXIT_IO
    assert "Traceback" not in result.stderr and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")
    assert message in result.stderr


DIGITS = "1" * 5000
LONG_ROWS = {
    "wrong-length": "generators: 2\nrelations:\n" + " ".join("1" * 3000) + "\n",
    "bad-token": "generators: 2\nrelations:\n" + " ".join("1" * 3000) + " x\n",
}


@pytest.mark.parametrize("argv, field", [
    (["colour", "--signature", "prufer=;s=0;r=1", f"d:{{}};t:;q:({DIGITS})"], "bad q entry"),
    (["colour", "--signature", "prufer=3;s=0;r=0", f"d:{{{DIGITS}=1/3}};t:;q:()"], "bad d entry"),
    (["colour", "--signature", "prufer=3;s=0;r=0", f"d:{{{DIGITS[:4000]}=1/3}};t:;q:()"], "Pruefer index"),
    (["verify", "--signature", f"prufer=3;s={DIGITS}"], "bad signature value"),
    (["analyze", "--input", "{wrong-length}"], "has length 3000, expected 2"),
    (["verify", "--input", "{bad-token}"], "bad relation row"),
], ids=["q-entry", "d-entry", "d-index", "signature", "row-length", "row-token"])
def test_error_line_is_bounded(argv, field, tmp_path):
    """A long input is cut short in the one error line, which still names the field."""
    files = {name: write(tmp_path / f"{name}.pres", text) for name, text in LONG_ROWS.items()}
    result, _ = run_cli([arg.format(**files) if arg.startswith("{") else arg for arg in argv])
    assert result.returncode == EXIT_IO and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")
    assert field in result.stderr and len(result.stderr.encode()) < 300


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--prufer-depth", DIGITS], "--prufer-depth"),
    (["search", "--budget", DIGITS + "x"], "--budget"),
    (["verify", "--mode", "x" * 5000], "--mode"),
    (["demo", "--group", "4", "--" + "x" * 5000], "unrecognized arguments"),
    (["demo", *["x"] * 3000], "unrecognized arguments: x x x"),
], ids=["int-flag", "bad-int", "bad-choice", "unknown-flag", "many-words"])
def test_usage_error_line_is_bounded(argv, flag):
    """argparse's usage errors go through the same cut error line."""
    result, _ = run_cli(argv)
    assert result.returncode == EXIT_IO and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")
    assert flag in result.stderr and len(result.stderr.encode()) < 1024


@pytest.mark.parametrize("word", ["bogus", "x" * 5000], ids=["short", "5000-chars"])
def test_invalid_subcommand_lists_every_choice(word):
    """argparse's list of valid choices stays whole on the cut error line;
    the user's own word is cut."""
    result, _ = run_cli([word])
    assert result.returncode == EXIT_IO and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")
    assert len(result.stderr.encode()) < 300
    listed = re.search(r"\(choose from (.*)\)$", result.stderr.strip())[1]
    assert [name.strip("' ") for name in listed.split(",")] == [
        "analyze", "embed", "colour", "verify", "demo", "search"
    ]


@pytest.mark.parametrize("argv", [["-h"], ["search", "--help"]], ids=["top", "search"])
def test_help_exits_ok(argv):
    result, _ = run_cli(argv)
    assert result.returncode == EXIT_OK and result.stderr == ""
    assert result.stdout.startswith("usage: fourfree")


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "{pres}"],
    ["embed", "--input", "{pres}"],
    ["verify", "--input", "{pres}"],
], ids=["analyze", "embed", "verify"])
def test_oversized_presentation_exits_before_snf(argv, tmp_path):
    pres = write(tmp_path / "wide.pres", "generators: 30000\n")
    result, elapsed = run_cli([arg.format(pres=pres) for arg in argv])
    assert elapsed < 2.0
    assert result.returncode == EXIT_BUDGET
    assert result.stdout == ""
    assert result.stderr == (
        f"error: {pres}: 30000 generators and 0 relations exceed the limit of "
        f"{cli.MAX_PRESENTATION_SIZE} together\n"
    )


def test_cli_adds_sample_first_and_elapsed_last(tmp_path, capsys):
    """The library's results hold no timing; the CLI labels and times them."""
    out = tmp_path / "r.json"
    assert main(["verify", "--output", str(out)]) == EXIT_OK
    triple = json.loads(out.read_text(encoding="utf-8"))["triple_report"]
    assert list(triple) == [
        "sample", "size", "distinct", "pairs", "n_buckets", "candidate_pairs",
        "n_violations", "violations", "elapsed_s",
    ]
    assert triple["sample"]["signature"]["prufer_factors"] == [3, 5]
    assert isinstance(triple["elapsed_s"], float)
    for mode, keys in (
        (["--colours", "2"], ["group", "colours", "verdict", "witness", "nodes", "elapsed_s"]),
        (["--min-colours"], ["group", "verdict", "min_colours", "witness", "nodes", "elapsed_s"]),
    ):
        assert main(["search", "--group", "4", *mode, "--output", str(out)]) == EXIT_OK
        result = json.loads(out.read_text(encoding="utf-8"))["result"]
        assert list(result) == keys and isinstance(result["elapsed_s"], float)


def importers_of(module: str) -> set:
    """Names of the package's files that import ``module`` or one of its submodules."""
    importers = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module] if node.module else [alias.name for alias in node.names]
            else:
                continue
            if any(m == module or (m or "").startswith(f"{module}.") for m in modules):
                importers.add(path.name)
    return importers


def test_only_the_cli_reads_the_clock():
    """Within the package only ``cli`` imports ``time``, so library results hold no timing."""
    assert importers_of("time") == {"cli.py"}


def test_no_module_imports_dataclasses():
    """Records come from ``arith.record``: ``dataclasses`` loads ``inspect``,
    about 15 ms of every call's start-up."""
    assert importers_of("dataclasses") == set()


def test_no_module_imports_typing():
    """Annotations are strings (``from __future__ import annotations``) and
    need no ``typing``, whose import costs 3-5 ms of a call that has not
    loaded it already (``python3 -S``, 2 cores, Python 3.11)."""
    assert importers_of("typing") == set()


def test_verifier_imports_nothing_from_sumset():
    """The 4-free sweep and the order-4 side stay apart: ``verifier`` imports
    ``sumset`` nowhere, not in a function and not for annotations."""
    assert "verifier.py" not in importers_of("sumset")


def run_in_fresh_interpreter(script, *args):
    """stdout of ``script`` run by a new interpreter, which has loaded nothing yet."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


LOADED_MODULES = """
import contextlib, io, sys
from fourfree import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.partition(".")[0] in ("fourfree", "dataclasses", "inspect")))
"""


@pytest.mark.parametrize("argv, layers", [
    (["analyze", "--input", "{pres}"], ["presentation"]),
    (["embed", "--input", "{pres}"], ["ambient", "embedding", "presentation"]),
    (["search", "--group", "4", "--min-colours"], ["sumset"]),
    (["verify", "--signature", "prufer=3;s=1;r=1"], ["ambient", "colouring", "verifier"]),
    (["verify", "--free-mode", "integer"], ["ambient", "colouring", "verifier"]),
    (["colour", "d:{};t:00;q:(0)"], ["ambient", "colouring"]),
    (["demo", "--group", "4,4"], ["sumset"]),
], ids=["analyze", "embed", "search", "verify-signature", "verify-default", "colour", "demo"])
def test_subcommand_loads_only_the_layers_it_runs(argv, layers, tmp_path):
    """Each subcommand loads its own layers and neither ``dataclasses`` nor the
    ``inspect`` it imports."""
    pres = write(tmp_path / "z2z6.pres", Z2_Z6_FILE)
    out = run_in_fresh_interpreter(LOADED_MODULES, *[arg.replace("{pres}", pres) for arg in argv])
    loaded = ["fourfree", *(f"fourfree.{m}" for m in sorted(["arith", "cli", *layers]))]
    assert out.split() == [str(EXIT_OK), *loaded]


PATCHED_BEFORE_FIRST_USE = """
import contextlib, io, sys
from fourfree import cli
calls = dict.fromkeys(["smith_normal_form", "find_mono_triples", "all_colourings_forced"], 0)
def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper
for name in calls:
    setattr(cli, name, counting(name, getattr(cli, name)))
argvs = [["analyze", "--input", sys.argv[1]], ["verify"], ["search", "--group", "4", "--colours", "2"]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
print(*codes, *(calls[name] for name in calls))
"""


def test_hook_patched_before_first_use_is_kept(tmp_path):
    """A wrapper set on a ``cli`` global before any subcommand runs, as the
    benchmark's ``--trace 1`` does, is what the subcommand then calls."""
    out = run_in_fresh_interpreter(PATCHED_BEFORE_FIRST_USE, write(tmp_path / "z2z6.pres", Z2_Z6_FILE))
    codes, calls = out.split()[:3], out.split()[3:]
    assert codes == [str(EXIT_OK)] * 3
    assert all(int(n) > 0 for n in calls), out
