"""Command line interface: JSON I/O, exit codes, workspace, verify report."""

import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from torica import cli, verification
from torica.cli import COMMANDS, main
from torica.errors import BUDGETS

PHI_CONE = {"dim": 3, "generators": [[1, 0, 0], [0, 1, 0], [1, 0, 2], [0, 1, 2]]}
SURFACE_IDEAL = {
    "field": 101,
    "variables": ["C", "Y", "Z", "A", "B", "X"],
    "generators": [
        "A^2 - B*C", "A*X - B*Z", "A*Y - B*X",
        "A*Z - C*X", "A*X - C*Y", "X^2 - Y*Z",
        "C", "Y", "B-Z",
    ],
}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(argv, capsys, expect_code=0):
    code, out, _err = run_cli(argv, capsys)
    assert code == expect_code, f"exit {code}, output: {out!r}"
    return json.loads(out)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_cone_dual(tmp_path, capsys):
    cone_file = write_json(tmp_path / "cone.json", PHI_CONE)
    data = out_json(["cone", "dual", cone_file], capsys)
    assert data["generators"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0], [2, 2, -1]]
    assert data["type"] == "cone"


def test_cone_dual_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(PHI_CONE)))
    data = out_json(["cone", "dual", "-"], capsys)
    assert data["generators"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0], [2, 2, -1]]


def test_cone_rays_builtin(capsys):
    data = out_json(["cone", "rays", "@A1"], capsys)
    assert data["rays"] == [
        {"index": 0, "generator": [1, 0]},
        {"index": 1, "generator": [1, 2]},
    ]


def test_cone_hilbert_basis(tmp_path, capsys):
    cone_file = write_json(tmp_path / "cone.json", PHI_CONE)
    data = out_json(["cone", "hilbert-basis", cone_file], capsys)
    assert len(data["hilbert_basis"]) == 6


def test_zero_cone_has_an_empty_hilbert_basis(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"dim": 2, "generators": []})))
    data = out_json(["cone", "hilbert-basis", "-"], capsys)
    assert data == {"type": "semigroup", "dim": 2, "hilbert_basis": []}


def test_cone_product(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", {"dim": 1, "generators": [[1]]})
    b = write_json(tmp_path / "b.json", {"dim": 2, "generators": [[1, 0], [0, 1]]})
    data = out_json(["cone", "product", a, b], capsys)
    assert data["dim"] == 3
    assert len(data["generators"]) == 3


def test_cone_rays_rejects_lines(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"dim": 2, "generators": [[1, 0], [-1, 0]]})
    code, out, _ = run_cli(["cone", "rays", bad], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "NOT_STRONGLY_CONVEX"


def test_ideal_toric_builtin_map(capsys):
    data = out_json(["ideal", "toric", "@phi"], capsys)
    assert data["field"] == 101
    assert set(data["generators"]) == {
        "C*Y - B*Z", "X^2 - Y*Z", "C*X - A*Z",
        "B*X - A*Y", "A*X - B*Z", "A^2 - B*C",
    }
    assert len(data["semigroup"]["hilbert_basis"]) == 6


def test_ideal_toric_from_matrix_file(tmp_path, capsys):
    doc = {"phi": [[3, 2, 1, 0], [0, 1, 2, 3]], "variables": ["z0", "z1", "z2", "z3"]}
    map_file = write_json(tmp_path / "phi.json", doc)
    data = out_json(["ideal", "toric", map_file, "--field", "7"], capsys)
    assert data["field"] == 7
    assert len(data["generators"]) == 3


def test_ideal_groebner_and_saturate(tmp_path, capsys):
    doc = {"field": 101, "variables": ["x", "y"], "generators": ["x^2*y - x^2"]}
    ideal_file = write_json(tmp_path / "ideal.json", doc)
    data = out_json(["ideal", "groebner", ideal_file], capsys)
    assert data["generators"] == ["x^2*y - x^2"]
    data = out_json(["ideal", "saturate", ideal_file, "--at", "x*y"], capsys)
    assert data["generators"] == ["y - 1"]


def test_ideal_quotient_dim(tmp_path, capsys):
    ideal_file = write_json(tmp_path / "cut.json", SURFACE_IDEAL)
    data = out_json(["ideal", "quotient-dim", ideal_file], capsys)
    assert data["dimension"] == 4
    assert sorted(data["standard_monomials"]) == ["1", "A", "B", "X"]


def test_ideal_elimination_order_round_trips(tmp_path, capsys):
    """The documented ["elim", k] order is accepted, and the output document reads back as itself."""
    doc = {"field": 101, "variables": ["x", "y", "z"], "generators": ["x - y^2", "y - z^3"]}
    doc["order"] = ["elim", 1]
    code, out, _err = run_cli(["ideal", "groebner", write_json(tmp_path / "elim.json", doc)], capsys)
    assert code == 0 and json.loads(out)["order"] == ["elim", 1]
    (tmp_path / "again.json").write_text(out)
    assert run_cli(["ideal", "groebner", str(tmp_path / "again.json")], capsys) == (0, out, "")


def test_ideal_short_key_aliases(tmp_path, capsys):
    doc = {"char": 7, "vars": ["x", "y"], "gens": ["x^2 - y^2"]}
    ideal_file = write_json(tmp_path / "short.json", doc)
    data = out_json(["ideal", "groebner", ideal_file], capsys)
    assert data["field"] == 7
    assert data["generators"] == ["x^2 - y^2"]


def test_ideal_quotient_dim_infinite(tmp_path, capsys):
    doc = {"field": 101, "variables": ["x", "y"], "generators": ["x^2"]}
    ideal_file = write_json(tmp_path / "inf.json", doc)
    data = out_json(["ideal", "quotient-dim", ideal_file], capsys)
    assert data["dimension"] == "INFINITE"
    assert data["standard_monomials"] is None


def test_ideal_regular_seq(tmp_path, capsys):
    doc = {
        "field": 101,
        "variables": ["A", "B", "C", "X", "Y", "Z"],
        "generators": [
            "A^2 - B*C", "A*X - B*Z", "A*Y - B*X",
            "A*Z - C*X", "A*X - C*Y", "X^2 - Y*Z",
        ],
    }
    ideal_file = write_json(tmp_path / "surface.json", doc)
    data = out_json(
        ["ideal", "regular-seq", ideal_file, "--elements", "C", "Y", "B-Z"], capsys
    )
    assert data == {"regular": True, "elements": ["C", "Y", "B - Z"]}


def test_ideal_regular_seq_certifies_past_degree_three(tmp_path, capsys):
    doc = {"field": 101, "variables": ["x", "y"], "generators": []}
    ideal_file = write_json(tmp_path / "zero.json", doc)
    argv = ["ideal", "regular-seq", ideal_file, "--elements", "x^4 + y^4", "y"]
    assert out_json(argv, capsys) == {"regular": True, "elements": ["x^4 + y^4", "y"]}


def test_degree_bound_option_is_a_usage_error(tmp_path, capsys):
    doc = {"field": 101, "variables": ["x", "y"], "generators": []}
    ideal_file = write_json(tmp_path / "zero.json", doc)
    argv = ["ideal", "regular-seq", ideal_file, "--elements", "x^4 + y^4", "--degree-bound", "3"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["code"] == "USAGE"
    assert "--degree-bound" in error["message"]


def test_ideal_quotient_dim_over_budget_exits_one(tmp_path, capsys):
    doc = {"field": 101, "variables": ["x", "y", "z"], "generators": ["x^1000", "y^1000", "z^1000"]}
    ideal_file = write_json(tmp_path / "cube.json", doc)
    data = out_json(["ideal", "quotient-dim", ideal_file], capsys, expect_code=1)
    assert data["error"]["code"] == "BUDGET_EXCEEDED"
    assert data["error"]["budget"] == 10**6
    assert "1000000000 standard monomials" in data["error"]["message"]


def test_elimination_block_size_must_be_an_integer_in_range(tmp_path, capsys):
    for size in ("1", 1.5, True):
        doc = {"field": 101, "variables": ["x", "y", "z"], "order": ["elim", size], "generators": ["x - y"]}
        code, out, err = run_cli(["ideal", "groebner", write_json(tmp_path / "elim.json", doc)], capsys)
        assert (code, out) == (2, ""), size
        error = json.loads(err)["error"]
        assert error["code"] == "BAD_INPUT"
        assert error["message"] == f"elimination block size must be an integer in 1..2, got {size!r}"


def test_quotient_dim_of_a_huge_degree_stops_on_the_budget(tmp_path, capsys):
    """A generator of degree 10^400 stops before its Hilbert numerator lists any coefficient."""
    doc = {"field": 101, "variables": ["x", "y"], "generators": [f"x^{10**400} - y", "y^2"]}
    start = time.perf_counter()
    data = out_json(["ideal", "quotient-dim", write_json(tmp_path / "huge.json", doc)], capsys, 1)
    assert time.perf_counter() - start < 5
    assert data["error"]["code"] == "BUDGET_EXCEEDED"
    assert data["error"]["budget"] == 10**6


def test_div_class_group_builtins(capsys):
    assert out_json(["div", "class-group", "@S"], capsys) == {"free": 1, "torsion": []}
    assert out_json(["div", "class-group", "@A1"], capsys) == {"free": 0, "torsion": [2]}
    assert out_json(["div", "class-group", "@S^2*A^1"], capsys) == {
        "free": 2,
        "torsion": [],
    }


def test_div_varieties_from_a_cone_file_and_the_power_builtins(tmp_path, capsys):
    """A JSON cone, @S^k and @A^n name the varieties their builtin spellings do."""
    surface = {"dim": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 2, -1]]}
    surface_file = write_json(tmp_path / "s.json", surface)
    for sub in ("class-group", "half-canonical"):
        assert out_json(["div", sub, surface_file], capsys) == out_json(["div", sub, "@S"], capsys)
        assert out_json(["div", sub, "@S^2"], capsys) == out_json(["div", sub, "@S^2*A^0"], capsys)
    assert out_json(["div", "class-group", "@S^2"], capsys) == {"free": 2, "torsion": []}
    assert out_json(["div", "half-canonical", "@S^2"], capsys) == {"free": [1, 1], "torsion": []}
    assert out_json(["div", "class-group", "@A^3"], capsys) == {"free": 0, "torsion": []}


def test_div_canonical(capsys):
    data = out_json(["div", "canonical", "@S"], capsys)
    assert data["class"] == {"free": [2], "torsion": []}
    assert data["divisor"] == {"coeffs": [-1, -1, -1, -1]}


def test_div_half_canonical_success_and_failure(capsys):
    data = out_json(["div", "half-canonical", "@S"], capsys)
    assert data == {"free": [1], "torsion": []}
    code, out, _ = run_cli(["div", "half-canonical", "@A1"], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "NON_UNIQUE" and error["count"] == 2


def test_div_module_gens(tmp_path, capsys):
    divisor_file = write_json(tmp_path / "d.json", {"coeffs": [-1, 0, -1, 0]})
    data = out_json(["div", "module-gens", "@S", divisor_file], capsys)
    assert data["generators"] == [[1, 0, 1], [1, 0, 2]]
    by_ray = write_json(
        tmp_path / "d2.json",
        {"ray_coeffs": [[[1, 0, 0], -1], [[0, 0, 1], -1]]},
    )
    data2 = out_json(["div", "module-gens", "@S", by_ray], capsys)
    assert data2 == data


def test_div_ray_coeffs_unknown_ray_is_bad_input(tmp_path, capsys):
    for doc in ({"ray_coeffs": [[[1, 1, 1], -1]]}, {"ray_coeffs": {"100": -1}}):
        divisor_file = write_json(tmp_path / "d.json", doc)
        code, out, err = run_cli(["div", "module-gens", "@S", divisor_file], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["code"] == "BAD_INPUT"


def test_non_integral_numbers_are_bad_input(tmp_path, capsys):
    cases = (
        (["ideal", "toric"], {"phi": [[1.5, 1, 1], [0, 1, 2]]}),
        (["cone", "dual"], {"dim": 2, "generators": [[1.9, 0], [0.5, 1]]}),
        (["div", "module-gens", "@S"], {"coeffs": [-1.5, 0, -1, 0]}),
        (["div", "module-gens", "@S"], {"ray_coeffs": [[[1.5, 0, 0], -1]]}),
        (["cone", "dual"], {"dim": 3.5, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        (["ideal", "groebner"], {"field": 3.5, "variables": ["x"], "generators": ["x^2"]}),
    )
    for argv, doc in cases:
        code, out, err = run_cli(argv + [write_json(tmp_path / "in.json", doc)], capsys)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"]["code"] == "BAD_INPUT"


def test_div_multiplicity(capsys):
    for k, s, expected in ((0, 0, 1), (1, 0, 2), (1, 2, 2), (2, 0, 4), (3, 1, 8)):
        data = out_json(
            ["div", "multiplicity", "--k", str(k), "--s", str(s)], capsys
        )
        assert data["multiplicity"] == expected


def test_div_multiplicity_past_the_digit_limit_is_over_budget(capsys):
    """2^14000 has 4,215 digits and prints; 2^14500 has 4,365, past the 4,300-digit limit."""
    data = out_json(["div", "multiplicity", "--k", "14000", "--s", "0", "--json"], capsys)
    assert data["multiplicity"] == 2**14000
    code, out, err = run_cli(["div", "multiplicity", "--k", "14500", "--s", "0"], capsys)
    assert (code, err) == (1, "")
    error = json.loads(out)["error"]
    assert (error["code"], error["budget"]) == ("BUDGET_EXCEEDED", 4300)


def test_div_multiplicity_of_an_oversized_product_is_over_budget(capsys):
    """k = 10^9 stops on the factor budget of 10^5 within a second, before any factor is built."""
    start = time.perf_counter()
    code, out, err = run_cli(["div", "multiplicity", "--k", "1000000000", "--s", "0"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, err) == (1, "")
    assert json.loads(out)["error"] == {
        "budget": 100000,
        "code": "BUDGET_EXCEEDED",
        "message": "S^k x A^s has 1000000000 factors, over its budget of 100000",
    }


def test_div_trace_witness(tmp_path, capsys):
    divisor_file = write_json(tmp_path / "d.json", {"coeffs": [-1, 0, -1, 0]})
    target_file = write_json(tmp_path / "t.json", {"coeffs": [0, 0, -1, 0]})
    data = out_json(
        ["div", "trace-witness", "@S", divisor_file, "--target", target_file], capsys
    )
    assert data == {"surjective": True, "witness": [1, 0, 2]}


def test_div_mcm_scan(capsys):
    """The range -6..8 is proved from the cone; the window and generator bound options are usage errors."""
    data = out_json(["div", "mcm-scan", "@S", "--json"], capsys)
    assert data == {
        "range": [-6, 8],
        "candidates": [
            {"class": -1, "generators": 4},
            {"class": 0, "generators": 1},
            {"class": 1, "generators": 2},
            {"class": 2, "generators": 3},
            {"class": 3, "generators": 4},
        ],
    }
    for option in ("--window", "--gen-bound"):
        code, out, err = run_cli(["div", "mcm-scan", "@S", option, "10"], capsys)
        assert (code, out) == (2, ""), option
        assert json.loads(err)["error"]["code"] == "USAGE", option


def test_div_mcm_scan_wide_window_answers(capsys):
    """Only classes without a local-cohomology witness are enumerated, so the whole proved range answers."""
    start = time.perf_counter()
    data = out_json(["div", "mcm-scan", "@S", "--json"], capsys)
    assert time.perf_counter() - start < 10
    low, high = data["range"]
    assert high - low + 1 == 15
    assert [c["class"] for c in data["candidates"]] == [-1, 0, 1, 2, 3]
    assert all(low <= c["class"] <= high for c in data["candidates"])


def test_div_module_gens_over_budget_exits_one(monkeypatch, capsys):
    """Class -100005 gives about 10^5 candidates; the sieve's count stops it within 10 s."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"coeffs": [0, 0, 0, -100005]})))
    start = time.perf_counter()
    data = out_json(["div", "module-gens", "@S", "-"], capsys, expect_code=1)
    assert time.perf_counter() - start < 10
    assert data["error"] == {
        "budget": 10**6,
        "code": "BUDGET_EXCEEDED",
        "message": "minimal sieve ran 1000407 dominance tests, over its budget of 1000000",
    }


def test_error_object_under_json_is_one_line(tmp_path, capsys):
    """--json prints a domain error object on one line; a usage error on stderr stays indented."""
    code, out, err = run_cli(["div", "half-canonical", "@A1", "--json"], capsys)
    assert (code, err) == (1, "")
    assert out == (
        '{"error":{"code":"NON_UNIQUE","count":2,'
        '"message":"2 classes square to the canonical class"}}\n'
    )
    workspace = str(tmp_path / "ws.json")
    argv = ["div", "half-canonical", "@nothing", "--json", "--workspace", workspace]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("{\n")


def test_ideal_groebner_over_budget_exits_one(tmp_path, monkeypatch, capsys):
    """The lex basis below reduces more than 100 S-pairs; with that pair budget the CLI says so."""
    doc = {
        "field": 101,
        "variables": ["x", "y", "z"],
        "order": "lex",
        "generators": [
            "-45*x*y^2*z^3 + 50*x^2*z^3 - 24*y",
            "-11*x^3*y*z^3 - 33*x*y^3*z^3 + 47*x^2*y^2*z + 25*y^3",
            "-4*x^3*y^3*z - 48*y^2*z",
        ],
    }
    ideal_file = write_json(tmp_path / "hostile.json", doc)
    monkeypatch.setattr(BUDGETS["polyring.pairs"], "limit", 100)
    data = out_json(["ideal", "groebner", ideal_file], capsys, expect_code=1)
    assert data["error"]["code"] == "BUDGET_EXCEEDED"
    assert data["error"]["budget"] == 100
    assert "100 S-pairs" in data["error"]["message"]


def test_verify_report(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    data = out_json(["verify", "--report", str(report_file), "--json"], capsys)
    assert data["report_version"] == 2
    assert "degree_bound" not in data
    assert data["all_pass"] is True
    assert data["total"] >= 15
    assert all(c["pass"] for c in data["checks"])
    on_disk = json.loads(report_file.read_text())
    assert on_disk == data


def test_verify_reports_are_pinned(capsys):
    """The default and the F_3 report equal the committed ones byte for byte."""
    data = Path(__file__).parent / "data"
    for argv, name in ((["verify", "--json"], "verify.json"), (["verify", "--field", "3"], "verify_field3.json")):
        code, out, _err = run_cli(argv, capsys)
        assert code == 0
        assert out == (data / name).read_text(), name


def test_verify_field_independence(capsys):
    default_run = out_json(["verify"], capsys)
    small_field = out_json(["verify", "--field", "3"], capsys)
    assert small_field["field"] == 3
    passes = lambda report: [c["check_id"] for c in report["checks"] if c["pass"]]
    assert passes(small_field) == passes(default_run)


def test_verify_refuses_field_two(capsys):
    code, _out, err = run_cli(["verify", "--field", "2"], capsys)
    assert code == 2
    assert "odd prime" in json.loads(err)["error"]["message"]


def test_verify_refuses_a_non_prime_field(capsys):
    """A non-prime field is refused before any check runs, as `div class-group` refuses it."""
    for argv in (
        ["verify", "--field", "4"],
        ["div", "class-group", "@S", "--field", "4"],
        ["div", "class-group", "@A^1", "--field", "4"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "code": "BAD_INPUT",
            "message": "characteristic must be prime, got 4",
        }


def test_a_check_that_raises_fails_its_entry_and_the_run(monkeypatch, capsys):
    """A check that raises is reported as a failed entry carrying the error, and verify exits 1."""
    name, _fn = verification._CHECKS[0]

    def broken(ctx):
        raise ArithmeticError("broken on purpose")

    monkeypatch.setattr(verification, "_CHECKS", [(name, broken)] + verification._CHECKS[1:])
    code, out, _err = run_cli(["verify", "--json"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["checks"][0] == {
        "check_id": name,
        "expected": None,
        "got": {"error": "ArithmeticError", "message": "broken on purpose"},
        "pass": False,
    }
    assert report["all_pass"] is False
    assert report["passed"] == report["total"] - 1


def test_paper_verify_alias(capsys):
    data = out_json(["paper", "verify", "--json"], capsys)
    assert data["all_pass"] is True


def test_verify_console_script_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "torica.cli", "verify", "--field", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2


def test_import_loads_no_heavy_standard_modules():
    """`import torica, torica.cli`, the benchmark's setup, pulls in none of these modules.

    `dataclasses` alone pulls in `inspect`, a measurable share of the benchmark's `setup_s`.
    """
    code = "import sys, torica, torica.cli; print(sorted({'dataclasses', 'inspect', 'string'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_with_the_commands_own_status(tmp_path, unbuffered):
    """A reader that has gone is no defect: --report is still written, stderr stays empty."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    report = tmp_path / "report.json"
    for argv, status in (
        (["verify", "--json", "--report", str(report)], 0),
        (["div", "half-canonical", "@A1"], 1),  # a domain error object on stdout
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "torica.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (status, b""), argv
    assert json.loads(report.read_text())["all_pass"] is True


def test_field_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TORICA_FIELD", "7")
    data = out_json(["ideal", "toric", "@phi"], capsys)
    assert data["field"] == 7
    # explicit flag wins over the environment
    data = out_json(["ideal", "toric", "@phi", "--field", "5"], capsys)
    assert data["field"] == 5


def test_workspace_round_trip(tmp_path, capsys):
    ws = str(tmp_path / "ws.json")
    cone_file = write_json(tmp_path / "cone.json", PHI_CONE)
    out_json(["workspace", "set", "phi_cone", cone_file, "--workspace", ws], capsys)
    data = out_json(["workspace", "get", "phi_cone", "--workspace", ws], capsys)
    assert data == PHI_CONE
    listing = out_json(["workspace", "list", "--workspace", ws], capsys)
    assert listing["objects"] == ["phi_cone"]
    # stored object usable as @name input
    dual = out_json(["cone", "dual", "@phi_cone", "--workspace", ws], capsys)
    assert dual["generators"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0], [2, 2, -1]]
    # save -> load -> save is byte-identical
    first = (tmp_path / "ws.json").read_bytes()
    out_json(["workspace", "set", "phi_cone", cone_file, "--workspace", ws], capsys)
    assert (tmp_path / "ws.json").read_bytes() == first
    out_json(["workspace", "delete", "phi_cone", "--workspace", ws], capsys)
    listing = out_json(["workspace", "list", "--workspace", ws], capsys)
    assert listing["objects"] == []


def test_json_flag_is_compact(capsys):
    code, out, _ = run_cli(["div", "class-group", "@S", "--json"], capsys)
    assert code == 0
    assert out.strip() == '{"free":1,"torsion":[]}'
    assert "\n" not in out.strip()


def test_usage_errors_exit_two(tmp_path, capsys):
    code, _out, err = run_cli(["cone", "dual", str(tmp_path / "missing.json")], capsys)
    assert code == 2
    assert json.loads(err)["error"]["code"] == "USAGE"
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code, _out, err = run_cli(["cone", "dual", str(bad)], capsys)
    assert code == 2
    code, _out, err = run_cli(["cone", "dual", "@nosuch"], capsys)
    assert code == 2
    doc = write_json(tmp_path / "noshape.json", {"something": 1})
    code, _out, err = run_cli(["cone", "dual", doc], capsys)
    assert code == 2


def test_hostile_power_stops_on_the_parse_budget(tmp_path, capsys):
    """A power whose expansion would take millions of term products stops while it is parsed."""
    doc = {"field": 101, "variables": ["x", "y", "z"], "generators": ["(x+y+z)^200"]}
    power_file = write_json(tmp_path / "power.json", doc)
    start = time.perf_counter()
    data = out_json(["ideal", "quotient-dim", power_file], capsys, expect_code=1)
    assert time.perf_counter() - start < 5
    assert data["error"]["code"] == "BUDGET_EXCEEDED"
    assert data["error"]["budget"] == 10**6
    assert data["error"]["message"].startswith("parsing multiplied ")
    doc["generators"] = ["(x+y+z)^60"]
    data = out_json(["ideal", "quotient-dim", write_json(tmp_path / "power.json", doc)], capsys)
    assert data["dimension"] == "INFINITE"


def test_ideal_non_string_generator_is_bad_input(monkeypatch, capsys):
    doc = {"field": 101, "variables": ["x"], "generators": [5]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(["ideal", "groebner", "-"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "BAD_INPUT"


def test_deeply_nested_parentheses_are_bad_input(monkeypatch, capsys):
    doc = {"field": 101, "variables": ["x"], "generators": ["(" * 3000 + "x" + ")" * 3000]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(["ideal", "groebner", "-"], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["code"] == "BAD_INPUT"
    assert "nested deeper than 100 levels" in error["message"]


def test_unexpected_exception_is_internal_exit_three(monkeypatch, capsys):
    def broken(variety, divisor):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("torica.cli.module_generators", broken)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"coeffs": [0, 0, 0, 0]})))
    code, out, err = run_cli(["div", "module-gens", "@S", "-"], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == {
        "code": "INTERNAL",
        "message": "RecursionError: maximum recursion depth exceeded",
    }


def test_workspace_write_failing_partway_keeps_previous_file(tmp_path, monkeypatch, capsys):
    ws = tmp_path / "ws.json"
    cone_file = write_json(tmp_path / "cone.json", PHI_CONE)
    out_json(["workspace", "set", "phi_cone", cone_file, "--workspace", str(ws)], capsys)
    before = ws.read_bytes()
    # JSON encoding fails at the second key, after the first has been encoded.
    monkeypatch.setattr("torica.cli._load_json_arg", lambda token, args: {"a": 1, "b": object()})
    argv = ["workspace", "set", "other", cone_file, "--workspace", str(ws)]
    code, _out, err = run_cli(argv, capsys)
    assert code == 2
    assert json.loads(err)["error"]["code"] == "BAD_INPUT"
    assert ws.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cone.json", "ws.json"]


TWISTED_CUBIC_QUADRICS = ["z2^2 - z1*z3", "z1*z2 - z0*z3", "z1^2 - z0*z2"]


def test_ideal_toric_matrix_object_and_default_variables(monkeypatch, capsys):
    """`phi` as a matrix object, or as a plain list without `variables`, names the columns z0..z3."""
    matrix = {"rows": 2, "cols": 4, "entries": [[3, 2, 1, 0], [0, 1, 2, 3]]}
    for phi in (matrix, matrix["entries"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"phi": phi})))
        data = out_json(["ideal", "toric", "-"], capsys)
        assert data["variables"] == ["z0", "z1", "z2", "z3"]
        assert data["generators"] == TWISTED_CUBIC_QUADRICS


def test_ideal_without_field_reads_the_environment(monkeypatch, capsys):
    monkeypatch.setenv("TORICA_FIELD", "7")
    doc = {"variables": ["x", "y"], "generators": ["x^2 + 7*y"]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    data = out_json(["ideal", "groebner", "-"], capsys)
    assert (data["field"], data["generators"]) == (7, ["x^2"])


def test_non_integer_field_environment_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("TORICA_FIELD", "abc")
    code, out, err = run_cli(["div", "class-group", "@S"], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error == {"code": "USAGE", "message": "field must be an integer, got 'abc'"}


def test_workspace_get_and_delete_of_a_missing_name_are_usage_errors(tmp_path, capsys):
    ws = tmp_path / "ws.json"
    for sub in ("get", "delete"):
        code, out, err = run_cli(["workspace", sub, "nosuch", "--workspace", str(ws)], capsys)
        assert (code, out) == (2, ""), sub
        error = json.loads(err)["error"]
        assert error == {"code": "USAGE", "message": f"no object named nosuch in {ws}"}
    assert not ws.exists()


def test_divisor_document_without_coefficients_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"something": 1})))
    code, out, err = run_cli(["div", "module-gens", "@S", "-"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "code": "USAGE",
        "message": "divisor document needs 'coeffs' or 'ray_coeffs'",
    }


def test_mcm_scan_runs_on_any_3_dimensional_cone(tmp_path, capsys):
    """A cone document of the surface's cone answers as @S does; a 4-dimensional product is refused."""
    surface = {"dim": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 2, -1]]}
    expected = out_json(["div", "mcm-scan", "@S"], capsys)
    assert out_json(["div", "mcm-scan", write_json(tmp_path / "s.json", surface)], capsys) == expected
    code, out, err = run_cli(["div", "mcm-scan", "@S^1*A^1"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "code": "BAD_INPUT",
        "message": "the MCM scan needs a 3-dimensional cone, got dimension 4",
    }


def test_large_prime_fields_answer_and_fields_past_the_primality_bound_refuse(tmp_path, capsys):
    """10^18 + 3 is decided prime at once; a 31-digit field is refused, not tested for ever."""
    start = time.perf_counter()
    data = out_json(["div", "class-group", "@S", "--field", "1000000000000000003"], capsys)
    assert data == {"free": 1, "torsion": []}
    field = 10**30 + 57
    doc = {"field": field, "variables": ["x"], "generators": ["x^2"]}
    code, out, err = run_cli(["ideal", "groebner", write_json(tmp_path / "big.json", doc)], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "code": "BAD_INPUT",
        "message": f"characteristic must be below 3317044064679887385961981, got {field}",
    }


def test_oversized_lattice_inputs_stop_on_the_triangulation_budget(monkeypatch, capsys):
    """Parallelepiped levels too long for a C ssize_t are counted, not measured with len()."""
    cases = (
        (["cone", "hilbert-basis", "-"], {"dim": 2, "generators": [[1, 0], [1, 10**29]]}, 10**29 + 1),
        (["div", "module-gens", "@S", "-"], {"coeffs": [-(10**21), 0, 0, 0]}, 5 * 10**20 + 3),
    )
    for argv, doc, count in cases:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        start = time.perf_counter()
        data = out_json(argv, capsys, expect_code=1)
        assert time.perf_counter() - start < 5
        assert data["error"] == {
            "budget": 10**6,
            "code": "BUDGET_EXCEEDED",
            "message": f"triangulation counted {count} simplices and parallelepiped nodes, "
            "over its budget of 1000000",
        }


def test_unreadable_and_unwritable_files_are_usage_errors(tmp_path, monkeypatch, capsys):
    """A missing directory or a directory in place of a file exits 2 and names the path given."""
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "doc.json", PHI_CONE)
    (tmp_path / "adir").mkdir()
    missing = "No such file or directory"
    unreadable = "cannot read workspace file adir: [Errno 21] Is a directory: 'adir'"
    cases = (
        (["workspace", "set", "x", "doc.json", "--workspace", "nodir/w.json"],
         f"cannot write nodir/w.json: {missing}"),
        (["workspace", "list", "--workspace", "adir"], unreadable),
        (["cone", "rays", "@foo", "--workspace", "adir"], unreadable),
        (["cone", "rays", "adir"], "cannot read adir: [Errno 21] Is a directory: 'adir'"),
    )
    for argv, message in cases:
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"] == {"code": "USAGE", "message": message}
    # verify prints its report before it writes it
    code, out, err = run_cli(["verify", "--json", "--report", "nodir/r.json"], capsys)
    assert (code, out) == (2, (Path(__file__).parent / "data" / "verify.json").read_text())
    error = json.loads(err)["error"]
    assert error == {"code": "USAGE", "message": f"cannot write nodir/r.json: {missing}"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "doc.json"]


def test_undecodable_bytes_are_usage_errors(tmp_path, monkeypatch, capsys):
    """A file or stdin starting with the bytes FF FE is not UTF-8 JSON: exit 2, USAGE."""
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    decode = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    code, out, err = run_cli(["cone", "dual", str(path)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "code": "USAGE", "message": f"{path} is not valid JSON: {decode}"
    }
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run_cli(["cone", "dual", "-"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "code": "USAGE", "message": f"stdin is not valid JSON: {decode}"
    }


def _compare_with_full_parser(argv, monkeypatch, capsys, stdin="", reset=lambda: None):
    """(exit code, stdout, stderr) of `main(argv)`, asserted equal to the same run on the full parser.

    `reset` restores any state the run may change (a workspace file) before each of the two runs.
    """
    build = cli._build_parser

    def run():
        reset()
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code = main(list(argv))
        except SystemExit as stop:  # --help
            code = stop.code
        return (code, *capsys.readouterr())

    branch = run()
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_build_parser", lambda _argv: build([]))
        full = run()
    assert branch == full, argv
    return branch


def _parser_cases():
    """--help, an unknown option and a missing required argument at every level of COMMANDS."""
    yield from ([], ["--help"], ["--bogus"], ["nope"], ["div", "nope"], ["-h", "verify"])
    yield from (["ver"], ["div", "mcm"], ["--", "verify"], ["div", "--", "canonical", "@S"])
    for command, (_summary, entry) in COMMANDS.items():
        yield from ([command, "--help"], [command, "--bogus"])
        if not isinstance(entry, dict):
            continue
        yield [command]
        for sub, (arguments, _handler) in entry.items():
            yield from ([command, sub, "--help"], [command, sub, "--bogus"])
            if any(not names[0].startswith("-") or options.get("required") for names, options in arguments):
                yield [command, sub]


def test_the_parser_branch_answers_as_the_full_parser(monkeypatch, capsys):
    """Building only the branch that argv names changes no output, message or exit code."""
    results = {}
    for argv in _parser_cases():
        code, out, err = results[tuple(argv)] = _compare_with_full_parser(argv, monkeypatch, capsys)
        assert code == (0 if {"-h", "--help"} & set(argv) else 2), argv
        assert (out != "") == (code == 0), argv
    for argv, names in ((("nope",), COMMANDS), (("div", "nope"), COMMANDS["div"][1])):
        message = json.loads(results[argv][2])["error"]["message"]
        assert "invalid choice" in message and all(name in message for name in names), argv
    assert results[("-h", "verify")][1].startswith("usage: torica [-h]")


def _leaves():
    """[command] or [command, subcommand] for every leaf of COMMANDS, in table order."""
    for command, (_summary, entry) in COMMANDS.items():
        yield from ([command, sub] for sub in entry) if isinstance(entry, dict) else ([command],)


def _leaf_cases(ws):
    """One valid argv per leaf of COMMANDS, with the stdin document it reads."""
    cone, divisor = json.dumps(PHI_CONE), json.dumps({"coeffs": [0, 0, 0, 1]})
    minors = json.dumps(dict(SURFACE_IDEAL, generators=SURFACE_IDEAL["generators"][:6]))
    return [
        (["cone", "dual", "@S", "--json"], ""),
        (["cone", "rays", "@S^2*A^1", "--json"], ""),
        (["cone", "hilbert-basis", "-", "--json"], cone),
        (["cone", "product", "@A1", "@S", "--json"], ""),
        (["ideal", "toric", "@phi", "--json"], ""),
        (["ideal", "groebner", "-", "--json"], minors),
        (["ideal", "quotient-dim", "-", "--json"], json.dumps(SURFACE_IDEAL)),
        (["ideal", "saturate", "-", "--at", "C", "--json"], minors),
        (["ideal", "regular-seq", "-", "--elements", "C", "Y", "--json"], minors),
        (["div", "class-group", "@S^2*A^1", "--json"], ""),
        (["div", "canonical", "@S", "--json"], ""),
        (["div", "half-canonical", "@S^2*A^1", "--json"], ""),
        (["div", "module-gens", "@S", "-", "--json"], divisor),
        (["div", "trace-witness", "@S", "-", "--json"], divisor),
        (["div", "mcm-scan", "@S", "--json"], ""),
        (["div", "multiplicity", "--k", "2", "--s", "1", "--json"], ""),
        (["verify", "--field", "3", "--json"], ""),
        (["paper", "verify", "--json"], ""),
        (["workspace", "set", "cone", "-", "--workspace", ws, "--json"], cone),
        (["workspace", "get", "cone", "--workspace", ws, "--json"], ""),
        (["workspace", "delete", "cone", "--workspace", ws, "--json"], ""),
        (["workspace", "list", "--workspace", ws, "--json"], ""),
    ]


def _variant(argv, rng):
    """`argv` with one token dropped, duplicated or swapped, an option garbled or moved to the front."""
    argv = list(argv)
    i, j = rng.randrange(len(argv)), rng.randrange(len(argv))
    option = rng.choice([k for k, token in enumerate(argv) if token.startswith("-") and token != "-"])
    kind = rng.choice(["drop", "duplicate", "swap", "garble", "front"])
    if kind == "drop":
        del argv[i]
    elif kind == "duplicate":
        argv.insert(i, argv[i])
    elif kind == "swap":
        argv[i], argv[j] = argv[j], argv[i]
    elif kind == "garble":
        name, k = argv[option], rng.randrange(2, len(argv[option]))
        argv[option] = rng.choice([name[:k], name[:k] + "x" + name[k + 1 :], name.upper()])
    else:
        argv.insert(0, argv.pop(option))
    return argv


def test_seeded_argv_variants_exit_as_documented_and_as_the_full_parser(tmp_path, monkeypatch, capsys):
    """Eight seeded variants of each leaf's valid argv exit 0, 1 or 2, never 3, as on the full parser."""
    for name in (cli.FIELD_ENV_VAR, cli.WORKSPACE_ENV_VAR):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.chdir(tmp_path)
    ws = tmp_path / "ws.json"
    stored = json.dumps({"torica_workspace": 1, "objects": {"cone": PHI_CONE}})

    def reset():
        ws.write_text(stored)
        for path in tmp_path.iterdir():
            if path != ws:
                path.unlink()

    cases, leaves = _leaf_cases(str(ws)), list(_leaves())
    assert [argv[: len(leaf)] for (argv, _stdin), leaf in zip(cases, leaves)] == leaves
    assert len(cases) == len(leaves)
    rng = random.Random(35)
    start = time.perf_counter()
    codes = []
    for argv, stdin in cases:
        assert _compare_with_full_parser(argv, monkeypatch, capsys, stdin, reset)[0] == 0, argv
        for _ in range(8):
            variant = _variant(argv, rng)
            code = _compare_with_full_parser(variant, monkeypatch, capsys, stdin, reset)[0]
            assert code in (0, 1, 2), variant
            codes.append(code)
    assert time.perf_counter() - start < 20
    assert len(codes) == 8 * len(leaves) and {0, 2} <= set(codes)
