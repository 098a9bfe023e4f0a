import argparse
import io
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import no_work, seeded, tracked
from hypothesis import given
from hypothesis import strategies as st

import heisenberg_ncg
from heisenberg_ncg import acceptance as acc
from heisenberg_ncg import chern as ch
from heisenberg_ncg import algebra, cli, fredholm
from heisenberg_ncg.algebra import (
    MAX_DECIMAL_EXPONENT,
    U,
    V,
    AlgebraElement,
    RationalAngle,
    element_from_dict,
    element_to_dict,
)
from heisenberg_ncg.cli import build_parser, run
from heisenberg_ncg.derivations import (
    MAX_INNER_TERMS,
    Derivation,
    derivation_to_dict,
    inner_derivation,
)

U_JSON = json.dumps(element_to_dict(U))
V_JSON = json.dumps(element_to_dict(V))
DERIVATION_JSON = json.dumps(derivation_to_dict(inner_derivation(U)))
NINES = "9" * 4300  # the longest integer string Python converts


def package_env() -> dict:
    """Environment for a child interpreter that imports this package."""
    return dict(os.environ, PYTHONPATH=str(Path(heisenberg_ncg.__file__).parents[1]))


def monomial_json(**coefficient) -> str:
    return json.dumps({"terms": [{"p": 1, "q": 0, "r": 0, **coefficient}]})


def identity_blocks(k: int, corner: str = '{"terms":[{"p":0,"q":0,"r":0,"re":"1"}]}') -> str:
    """The k x k identity with ``corner`` at [0][0]: unitary when it is."""
    one, zero = '{"terms":[{"p":0,"q":0,"r":0,"re":"1"}]}', "{}"
    rows = ("[" + ",".join((corner if i == 0 else one) if i == j else zero
                           for j in range(k)) + "]" for i in range(k))
    return '{"blocks":[' + ",".join(rows) + "]}"


def dense_blocks(k: int, n: int) -> str:
    """k x k blocks, each a sum of n powers of U, the k^2 n powers distinct."""
    def entry(base):
        return '{"terms":[%s]}' % ",".join(
            '{"p":%d,"q":0,"r":0,"re":"1"}' % (base + t) for t in range(n))
    rows = ("[" + ",".join(entry((i * k + j) * n) for j in range(k)) + "]" for i in range(k))
    return '{"blocks":[' + ",".join(rows) + "]}"


def powers_of_u(n: int, shear: int = 0) -> str:
    """U^i W^(-shear i) for i < n, not unitary for n > 1; with shear 1, a
    product of two has 2n - 1 terms, not n^2."""
    return '{"terms":[%s]}' % ",".join(
        '{"p":%d,"q":0,"r":%d,"re":"1"}' % (i, -shear * i) for i in range(n))


def inner_by_w_powers(n: int) -> str:
    """README's six-term d = [., x] for x = sum_{r=0}^{n} U^2 V W^r."""
    dU = AlgebraElement({(3, 1, 0): 1, (3, 1, n + 1): -1})
    dV = AlgebraElement({(2, 2, 0): -1, (2, 2, 1): -1, (2, 2, n + 1): 1, (2, 2, n + 2): 1})
    return json.dumps(derivation_to_dict(Derivation(dU, dV)))


def readme_commands() -> list[list[str]]:
    """The argv of every `hnc` line of README's command-line block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command-line usage")[1].split("```sh")[1]
    block = block.split("```")[0].replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [c[1:] for c in commands if c and c[0] == "hnc"]


def run_captured(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digit_limit_line(capsys, argv, exit_code: int) -> str:
    """The stderr line of ``argv``, which meets Python's 4300-digit
    int-string limit in an input (exit 2) or in its result (exit 1): nothing
    on stdout, and one line in Python's words without its advice to raise
    the limit."""
    code, out, err = run_captured(capsys, argv)
    assert code == exit_code and out == ""
    prefix = "usage error: " if exit_code == 2 else "verification failure: "
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Exceeds the limit (4300 digits) for integer string conversion" in err
    assert "set_int_max_str_digits" not in err
    return err


class TestAlgebra:
    def test_mul(self, capsys):
        code, out, _ = run_captured(capsys, ["alg", "mul", U_JSON, V_JSON])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["terms"] == [
            {"p": 1, "q": 1, "r": 0, "re": "1", "im": "0"}
        ]

    def test_star(self, capsys):
        code, out, _ = run_captured(capsys, ["alg", "star", U_JSON])
        assert code == 0
        assert json.loads(out)["result"]["terms"][0]["p"] == -1

    def test_central(self, capsys):
        code, out, _ = run_captured(capsys, ["alg", "central", U_JSON])
        assert code == 0
        assert json.loads(out)["result"] == {"central": False}

    def test_eval(self, capsys):
        code, out, _ = run_captured(
            capsys, ["alg", "eval", U_JSON, "--theta", "1/3"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["dimension"] == 3
        assert doc["config"]["theta"] == "1/3"

    def test_eval_element_after_theta(self, capsys):
        before = run_captured(capsys, ["alg", "eval", U_JSON, "--theta", "1/3"])
        after = run_captured(capsys, ["alg", "eval", "--theta", "1/3", U_JSON])
        assert before[0] == 0
        assert after == before

    def test_mul_input_after_option(self, capsys):
        before = run_captured(capsys, ["alg", "mul", U_JSON, V_JSON, "--table"])
        after = run_captured(capsys, ["alg", "mul", U_JSON, "--table", V_JSON])
        assert before[0] == 0
        assert after == before

    def test_eval_dimension_cap(self, capsys, monkeypatch):
        # eval_at_angle reads the root of unity first once it has checked t
        monkeypatch.setattr(RationalAngle, "lam", property(no_work))
        code, out, err = run_captured(
            capsys, ["alg", "eval", U_JSON, "--theta", "1/100000"])
        assert code == 2 and out == ""
        assert err == "usage error: eval dimension 100000 exceeds 256\n"

    @pytest.mark.parametrize("theta, part", [(f"1{NINES}/3", "s"), (f"1/1{NINES}", "t")])
    def test_eval_angle_past_the_digit_limit_names_it(self, capsys, theta, part):
        err = digit_limit_line(capsys, ["alg", "eval", U_JSON, "--theta", theta], 2)
        assert err.startswith(f"usage error: --theta's {part} must be an integer: ")

    @pytest.mark.parametrize("axis", ["p", "q", "r"])
    def test_eval_huge_exponent_reduces_mod_t(self, capsys, axis):
        def monomial(e):
            exps = {"p": 1, "q": 2, "r": 0, axis: e}
            return json.dumps({"terms": [{**exps, "re": 1}]})

        huge = run_captured(capsys, ["alg", "eval", monomial(10**20 + 5), "--theta", "1/3"])
        reduced = run_captured(capsys, ["alg", "eval", monomial((10**20 + 5) % 3),
                                        "--theta", "1/3"])
        assert huge[0] == 0
        assert huge == reduced

    def test_eval_huge_numerator_reduces_mod_t(self, capsys):
        # lambda = exp(2 pi i s/t) from s mod t: (10^20 + 1)/3 is 2/3, and a
        # 400-digit s is past any float
        w = json.dumps({"terms": [{"p": 0, "q": 0, "r": 1, "re": 1}]})
        huge = run_captured(capsys, ["alg", "eval", w, "--theta", f"{10**20 + 1}/3"])
        reduced = run_captured(capsys, ["alg", "eval", w, "--theta", "2/3"])
        assert huge[0] == 0
        assert json.loads(huge[1])["result"] == json.loads(reduced[1])["result"]
        code, out, err = run_captured(capsys, ["alg", "eval", w, "--theta", f"{10**399 + 1}/3"])
        assert code == 0 and err == ""
        assert json.loads(out)["result"] == json.loads(reduced[1])["result"]

    def test_mul_term_product_cap(self, capsys, monkeypatch):
        # |x| |y| term products: 316^2 = 99856 is within the limit, 317^2 past it
        code, out, err = run_captured(capsys, ["alg", "mul", *[powers_of_u(316, shear=1)] * 2])
        assert code == 0 and err == ""
        assert len(json.loads(out)["result"]["terms"]) == 631
        # refused before any parsed coefficient takes part in arithmetic
        log = []
        monkeypatch.setattr(algebra, "element_from_dict",
                            lambda data: tracked(element_from_dict(data), "x", log))
        code, out, err = run_captured(capsys, ["alg", "mul", *[powers_of_u(317, shear=1)] * 2])
        assert code == 2 and out == ""
        assert err == ("usage error: the product would take 100489 term products, "
                       "over the limit of 100000\n")
        assert log == []

    @pytest.mark.parametrize("table", [[], ["--table"]])
    @pytest.mark.parametrize("terms,theta", [
        ([(0, "1e400")], "1/2"),                # one coefficient past float64
        ([(0, "1e308"), (1, "1e308")], "0/1"),  # a sum past it
    ])
    def test_eval_past_the_float_range_exits_one(self, capsys, terms, theta, table):
        x = json.dumps({"terms": [{"p": 0, "q": 0, "r": r, "re": c, "im": "0"}
                                  for r, c in terms]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning either
            code, out, err = run_captured(capsys, ["alg", "eval", x, "--theta", theta, *table])
        assert code == 1 and out == ""
        assert err == ("verification failure: the matrix has an entry outside the float64 "
                       "range (magnitude up to 1.79769e+308)\n")

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(U_JSON)
        code, out, _ = run_captured(capsys, ["alg", "star", str(path)])
        assert code == 0

    def test_missing_input_is_usage_error(self, capsys):
        code, _, err = run_captured(capsys, ["alg", "mul", U_JSON])
        assert code == 2


class TestDeriv:
    def test_decompose_inner_by_u(self, capsys):
        dj = json.dumps(derivation_to_dict(inner_derivation(U)))
        code, out, _ = run_captured(capsys, ["deriv", "decompose", dj])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["z1"]["terms"] == [] and res["z2"]["terms"] == []
        assert res["x"]["terms"] == [{"p": 1, "q": 0, "r": 0, "re": "1", "im": "0"}]

    def test_long_inline_json(self, capsys):
        # without a '/' the whole text is one path component, longer than a
        # file name may be: the path probe must not end the command
        x = element_from_dict({"terms": [
            {"p": p, "q": q, "r": 0, "re": "1", "im": "0"}
            for p in range(1, 5) for q in range(1, 5)
        ]})
        dj = json.dumps(derivation_to_dict(inner_derivation(x)))
        assert len(dj) > 255 and "/" not in dj
        code, out, _ = run_captured(capsys, ["deriv", "decompose", dj])
        assert code == 0
        assert json.loads(out)["result"]["x"] == element_to_dict(x)

    def test_check_inconsistent_exits_one(self, capsys):
        bad = json.dumps(
            {"dU": element_to_dict(U * U), "dV": {"terms": []}}
        )
        code, out, _ = run_captured(capsys, ["deriv", "check", bad])
        assert code == 1
        assert not json.loads(out)["result"]["consistent"]

    def test_apply_inconsistent_exits_one(self, capsys):
        bad = json.dumps({"dU": element_to_dict(U * U), "dV": {"terms": []}})
        code, out, err = run_captured(capsys, ["deriv", "apply", bad, V_JSON])
        assert code == 1 and out == ""
        assert "inconsistent derivation (3 violating cells)" in err

    def test_consistent_but_not_decomposable(self, capsys):
        # Leibniz holds on VU = WUV, but the inner part V (1 - W)^-1 has
        # infinite support
        d = json.dumps({"dU": element_to_dict(U * V), "dV": {"terms": []}})
        code, out, _ = run_captured(capsys, ["deriv", "check", d])
        assert code == 0 and json.loads(out)["result"]["consistent"]
        for argv in (["deriv", "decompose", d], ["deriv", "apply", d, V_JSON]):
            code, out, err = run_captured(capsys, argv)
            assert code == 1 and out == ""
            assert ("d is not z1*d1 + z2*d2 + [., x] for any finitely supported x "
                    "(cells where the reconstruction differs from d: 1; "
                    "cells (p, q) of x with infinite support: [(0, 1)])") in err

    def test_inner_part_cap_exits_one(self, capsys):
        # six terms whose inner part of 10^9 + 1 terms is over the cap
        d = inner_by_w_powers(10**9)
        assert len(d) < 400
        for argv in (["deriv", "decompose", d], ["deriv", "apply", d, V_JSON]):
            code, out, err = run_captured(capsys, argv)
            assert code == 1 and out == ""
            assert f"the inner part has more than {MAX_INNER_TERMS} terms" in err

    def test_apply_term_product_cap(self, capsys):
        # [y, x] takes |y| |x| term products: 50 * 2000 is the limit, and
        # README's x of 20001 terms is ten times past it, refused in far
        # less than the 4 s that its million term products take
        code, out, err = run_captured(
            capsys, ["deriv", "apply", inner_by_w_powers(1999), powers_of_u(50)])
        assert code == 0 and err == ""
        assert len(json.loads(out)["result"]["terms"]) == 2450  # 2i terms per U^i
        t0 = time.perf_counter()
        code, out, err = run_captured(
            capsys, ["deriv", "apply", inner_by_w_powers(20000), powers_of_u(50)])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err == ("usage error: the product would take 1000050 term products, "
                       "over the limit of 100000\n")

    def test_apply(self, capsys):
        dj = json.dumps(derivation_to_dict(inner_derivation(U)))
        code, out, _ = run_captured(capsys, ["deriv", "apply", dj, V_JSON])
        assert code == 0
        assert len(json.loads(out)["result"]["terms"]) == 2


class TestGroup:
    def test_classify(self, capsys):
        code, out, _ = run_captured(
            capsys, ["group", "classify", "--element", "[2,4,1]"]
        )
        assert code == 0
        res = json.loads(out)["result"]
        assert res["case"] == "Case1" and res["ng_type"] == "Z"

    def test_hc_dim(self, capsys):
        code, out, _ = run_captured(capsys, ["group", "hc-dim", "--n", "3"])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["finite_rank"] == 3 and res["countable_factor"] is False

    def test_hc_dim_huge_degree(self, capsys):
        code, out, _ = run_captured(capsys, ["group", "hc-dim", "--n", str(10**12)])
        assert code == 0
        assert json.loads(out)["result"]["finite_rank"] == 3

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: --n"),
        (["--n", "-1"], "usage error: degree must be nonnegative"),
    ], ids=["missing", "negative"])
    def test_hc_dim_without_a_nonnegative_degree_exits_two(self, capsys, argv, message):
        code, out, err = run_captured(capsys, ["group", "hc-dim", *argv])
        assert code == 2 and out == ""
        assert message in err

    def test_hc_dim_past_the_digit_limit_names_it(self, capsys):
        argv = ["group", "hc-dim", "--n", "9" + NINES]
        assert digit_limit_line(capsys, argv, 2) == (
            "usage error: --n must be an integer: Exceeds the limit (4300 digits) "
            "for integer string conversion: value has 4301 digits\n")

    def test_cohomology(self, capsys):
        code, out, _ = run_captured(
            capsys, ["group", "cohomology", "--type", "H3"]
        )
        assert code == 0
        assert json.loads(out)["result"]["dims"] == [1, 2, 2, 1]

    def test_cohomology_torsion_past_the_digit_limit(self, capsys):
        # the torsion is compared as a digit string, never converted
        long = "1" + "0" * 4300
        code, out, err = run_captured(capsys, ["group", "cohomology", "--type", f"ZxZl({long})"])
        assert code == 0 and err == ""
        assert json.loads(out)["result"]["dims"] == [1, 1]
        code, out, err = run_captured(
            capsys, ["group", "cohomology", "--type", "CentralExtension(%s1)" % ("0" * 4300)])
        assert code == 2 and out == ""
        assert err == "usage error: central extension torsion must be >= 2\n"

    def test_cohomology_zero_torsion_is_usage_error(self, capsys):
        # Z x Z/0 would be Z^2, not the profile (1, 1) of every ZxZl(l >= 1)
        code, out, err = run_captured(capsys, ["group", "cohomology", "--type", "ZxZl(0)"])
        assert code == 2 and out == ""
        assert "ZxZl torsion must be >= 1" in err

    def test_bad_element_is_usage_error(self, capsys):
        code, _, _ = run_captured(capsys, ["group", "classify", "--element", "[1,2]"])
        assert code == 2

    def test_bool_element_is_usage_error(self, capsys):
        code, out, err = run_captured(
            capsys, ["group", "classify", "--element", "[true,false,1]"])
        assert code == 2 and out == ""
        assert err == ("usage error: malformed group element: exponents must be "
                       "integers, got (True, False, 1)\n")

    @pytest.mark.parametrize("element, message", [
        ("[1.5,0,0]", "exponents must be integers, got (1.5, 0, 0)"),
        ("[true,false,1]", "exponents must be integers, got (True, False, 1)"),
        ('{"p":1,"q":2,"r":3}', "expected a JSON triple [p, q, r]"),
        ('"abc"', "expected a JSON triple [p, q, r]"),
        ("[1,2]", "expected a JSON triple [p, q, r]"),
        ("5", "expected a JSON triple [p, q, r]"),
        ("null", "expected a JSON triple [p, q, r]"),
    ])
    def test_malformed_element_exits_two(self, capsys, element, message):
        # the JSON shape is checked here, the integer rule by GroupElement
        code, out, err = run_captured(capsys, ["group", "classify", "--element", element])
        assert code == 2 and out == ""
        assert err == f"usage error: malformed group element: {message}\n"


class TestVerificationCommands:
    def test_pairing_table(self, capsys):
        code, out, _ = run_captured(capsys, ["pairing", "table"])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["even"]["entries"] == [[1, 0, 0], [1, 1, 0], [1, 0, 1]]
        assert res["odd"]["entries"] == [[1, 0, 0], [0, 1, 0], [0, 1, 1]]
        assert "provenance" in res["odd"]

    def test_pairing_verify(self, capsys):
        code, out, _ = run_captured(capsys, ["pairing", "verify"])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["passed"]
        # every odd entry also carries the kernel dimensions of its index
        checks = res["details"]["checks"]
        assert len(checks) == 12 and all(c["got"] == c["want"] for c in checks)
        odd = [c for c in checks if "dim_ker" in c]
        assert len(odd) == 7 and all(c["dim_ker"] - c["dim_ker_star"] == c["got"] for c in odd)

    def test_pairing_verify_reports_a_raising_criterion_as_failed(self, capsys, monkeypatch):
        def criterion_1_raises():
            raise ArithmeticError("singular window")

        monkeypatch.setattr(acc, "criterion_1_pairing_tables", criterion_1_raises)
        code, out, err = run_captured(capsys, ["pairing", "verify"])
        assert code == 1
        res = json.loads(out)["result"]
        assert not res["passed"]
        assert res["details"] == {"error": "ArithmeticError: singular window"}
        assert set(json.loads(err)["elapsed_s"]) == {"criterion_1"}

    def test_index(self, capsys):
        code, out, _ = run_captured(
            capsys, ["index", "--module", "z1prime", "--unitary", V_JSON])
        assert code == 0
        assert json.loads(out) == {"command": "index", "config": {"module": "z1prime"},
                                   "result": {"index": 1}}

    def test_index_outside_the_module_algebra_exits_two(self, capsys, monkeypatch):
        # w1prime sends U and V to 1 and W to the shift: a representation of
        # C*(U, W) only, so U V is rejected before the unitarity check, with
        # the library's message
        monkeypatch.setattr(fredholm, "_check_unitary", no_work)
        uv = json.dumps(element_to_dict(U * V))
        code, out, err = run_captured(
            capsys, ["index", "--module", "w1prime", "--unitary", uv])
        assert code == 2 and out == ""
        assert err == ("usage error: module w1prime represents only C*(U, W); "
                       "the term U^1 V^1 W^0 has a V exponent\n")

    def test_index_unknown_module_exits_two(self, capsys, monkeypatch):
        # the library holds the module names, and refuses another one before
        # the unitarity check
        monkeypatch.setattr(fredholm, "_check_unitary", no_work)
        code, out, err = run_captured(
            capsys, ["index", "--module", "foo", "--unitary", U_JSON])
        assert code == 2 and out == ""
        assert err == "usage error: 'foo' is not an odd module\n"

    def test_index_rejects_non_unitary(self, capsys):
        bad = json.dumps(element_to_dict(U + V))
        code, _, err = run_captured(
            capsys, ["index", "--module", "z1", "--unitary", bad]
        )
        assert code == 1

    @pytest.mark.parametrize("blocks, lengths", [
        ([], "[]"),
        ([[]], "[0]"),
        ([[element_to_dict(U)], [element_to_dict(U), element_to_dict(V)]], "[1, 2]"),
    ], ids=["empty", "empty-row", "ragged"])
    def test_index_malformed_blocks_exit_two(self, capsys, blocks, lengths):
        # the shape is fredholm's rule: the CLI only unwraps the blocks
        code, out, err = run_captured(
            capsys,
            ["index", "--module", "z1", "--unitary", json.dumps({"blocks": blocks})],
        )
        assert code == 2 and out == ""
        assert err == ("usage error: a block matrix must be a nonempty square list of rows; "
                       f"this one has rows of lengths {lengths}\n")

    @pytest.mark.parametrize("blocks", ["5", "[5]", "[[5]]", '{"a":1}', "null"])
    def test_index_blocks_that_are_not_rows_of_elements_exit_two(self, capsys, blocks):
        code, out, err = run_captured(
            capsys, ["index", "--module", "z1", "--unitary", '{"blocks":%s}' % blocks])
        assert code == 2 and out == ""
        assert err.startswith("usage error: malformed element: ")

    def test_index_is_bounded_by_term_products_only(self, capsys):
        # the unitarity check visits only nonzero pairs, so block unitaries
        # of any size within the term-product bound answer
        for k in (29, 300):
            code, out, err = run_captured(
                capsys, ["index", "--module", "z1", "--unitary", identity_blocks(k, U_JSON)])
            assert code == 0 and err == ""
            assert json.loads(out)["result"] == {"index": 1}
        # 28 x 28 blocks of 10 distinct powers each: u u* would take
        # 28 (28 * 10)^2 term products, refused from the symbol's 7840
        # nonzero entries, with no k x k block built per shift power
        dense = dense_blocks(28, 10)
        tracemalloc.start()
        try:
            code, out, err = run_captured(capsys, ["index", "--module", "z1", "--unitary", dense])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == ("usage error: the product would take 2195200 term products, "
                       "over the limit of 100000\n")
        assert peak < 16 * 2**20

    def test_index_term_product_cap(self, capsys, monkeypatch):
        # u u* takes (terms in block column t)^2 term products per column t:
        # 300^2 + 100^2 is the limit, 301^2 + 100^2 and 317^2 are past it
        argv = ["index", "--module", "z1", "--unitary"]
        at = '{"blocks":[[%s,{}],[{},%s]]}' % (powers_of_u(300), powers_of_u(100))
        code, out, err = run_captured(capsys, argv + [at])
        assert code == 1 and out == ""
        assert err == "verification failure: input is not unitary in the group ring\n"
        monkeypatch.setattr(AlgebraElement, "__mul__", no_work)
        past = '{"blocks":[[%s,{}],[{},%s]]}' % (powers_of_u(301), powers_of_u(100))
        for u, products in [(past, 100601), (powers_of_u(317), 100489)]:
            code, out, err = run_captured(capsys, argv + [u])
            assert code == 2 and out == ""
            assert err == (f"usage error: the product would take {products} "
                           "term products, over the limit of 100000\n")

    def test_index_over_the_digit_limit_exits_one(self, capsys):
        # U^p with p of 4300 nines pairs to p; two of them on the diagonal
        # pair to 2p, one digit more than a JSON integer here may hold
        u = '{"terms":[{"p":%s,"q":0,"r":0,"re":"1"}]}' % ("9" * 4300)
        argv = ["index", "--module", "z1", "--unitary"]
        code, out, _ = run_captured(capsys, argv + [u])
        assert code == 0 and out.endswith('{"index":%s}}\n' % ("9" * 4300))
        blocks = '{"blocks":[[%s,{}],[{},%s]]}' % (u, u)
        digit_limit_line(capsys, argv + [blocks], 1)

    def test_wide_band_unitary_at_the_defaults(self, capsys):
        # the exact pairing needs no window: U^40 pairs to 40 as U does to 1
        u40 = json.dumps({"terms": [{"p": 40, "q": 0, "r": 0, "re": "1", "im": "0"}]})
        code, out, err = run_captured(capsys, ["index", "--module", "z1", "--unitary", u40])
        assert code == 0 and err == ""
        assert json.loads(out)["result"] == {"index": 40}

    def test_report_exits_one_when_a_criterion_raises(self, capsys, monkeypatch):
        def criterion_1_ok():
            return acc._result(1, "ok", True)

        def criterion_2_raises(seed=0):
            raise ArithmeticError("no convergence")

        monkeypatch.setattr(acc, "ALL_CRITERIA", (criterion_1_ok, criterion_2_raises))
        code, out, err = run_captured(capsys, ["report", "all"])
        assert code == 1
        results = json.loads(out)["result"]["results"]
        assert [r["passed"] for r in results] == [True, False]
        assert results[1]["details"] == {"error": "ArithmeticError: no convergence"}
        assert set(json.loads(err)["elapsed_s"]) == {"criterion_1", "criterion_2"}

    def test_report_negative_seed_exits_two_before_any_criterion(self, capsys, monkeypatch):
        monkeypatch.setattr(acc, "ALL_CRITERIA", (no_work, no_work))
        code, out, err = run_captured(capsys, ["report", "all", "--seed", "-1"])
        assert code == 2 and out == ""
        assert err == "usage error: seed must be nonnegative, got -1\n"

    def test_report_table(self, capsys, monkeypatch):
        def criterion_1_ok(seed=0):
            return acc._result(1, "ok", seed == 7)

        def criterion_2_raises():
            raise ArithmeticError("no convergence")

        monkeypatch.setattr(acc, "ALL_CRITERIA", (criterion_1_ok, criterion_2_raises))
        code, out, err = run_captured(capsys, ["report", "all", "--seed", "7", "--table"])
        elapsed = json.loads(err)["elapsed_s"]
        assert code == 1
        assert out.splitlines() == [
            '# report all  config: {"seed": 7}',
            f"[PASS] criterion  1: ok ({elapsed['criterion_1']}s)",
            f"[FAIL] criterion  2: criterion_2_raises ({elapsed['criterion_2']}s)",
            "overall: FAIL",
        ]

    def test_chern(self, capsys):
        code, out, _ = run_captured(capsys, ["chern", "--grid", "16"])
        assert code == 0
        assert json.loads(out)["result"]["lattice_chern"] == 1

    def test_chern_negative_mass(self, capsys):
        code, out, _ = run_captured(
            capsys, ["chern", "--grid", "16", "--mass", "-1.0"]
        )
        assert code == 0
        assert json.loads(out)["result"]["lattice_chern"] == -1

    @pytest.mark.parametrize("argv, message", [
        (["chern", "--grid", "0"], "usage error: grid must be at least 8"),
        (["chern", "--grid", "7", "--dirac"], "usage error: grid must be at least 8"),
        # the Dirac pairing's commutator count is fixed at 4: the option is
        # gone, with or without --dirac, and argparse rejects it
        (["chern", "--grid", "16", "--dirac", "--n-commutators", "4"],
         "--n-commutators 4"),
        (["chern", "--grid", "16", "--n-commutators", "4"],
         "--n-commutators 4"),
        (["chern", "--grid", "2049"], "usage error: grid must be at least 8 and at most 2048"),
        (["chern", "--grid", "16", "--dirac", "--truncation", "129"],
         "usage error: truncation 129 must be at most 128"),
    ])
    def test_chern_out_of_range_option_exits_two(self, capsys, monkeypatch,
                                                  argv, message):
        # bott_projector refuses a grid out of range before it samples the
        # field, and check_truncation a truncation over its cap before
        # bott_projector is called: no field is sampled
        monkeypatch.setattr(ch.np, "meshgrid", no_work)
        monkeypatch.setattr(ch, "fourier_coefficients", no_work)
        code, out, err = run_captured(capsys, argv)
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("truncation", ["20", "32"])
    def test_chern_dirac_truncation_below_certificate_windows_exits_two(
            self, capsys, monkeypatch, truncation):
        # the grid-64 Bott field has kernel radius 24: the certificate needs
        # a truncation above max(16, 24 + 8) = 32
        monkeypatch.setattr(ch, "lattice_chern", no_work)
        monkeypatch.setattr(ch, "_DiracEngine", no_work)
        code, out, err = run_captured(
            capsys, ["chern", "--dirac", "--truncation", truncation])
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: truncation {truncation} must be at least 33")

    def test_chern_dirac_computes_the_coefficients_once(self, capsys, monkeypatch):
        # the scheduler's stand-in makes every certificate run read exactly 1
        def traces(runs, spacing):
            return [[1.0] * len(orders) for _, orders in runs]

        calls = []
        coefficients = ch.fourier_coefficients

        def counting(*args, **kwargs):
            calls.append(args)
            return coefficients(*args, **kwargs)

        monkeypatch.setattr(ch, "graded_traces", traces)
        monkeypatch.setattr(ch, "fourier_coefficients", counting)
        code, out, _ = run_captured(capsys, ["chern", "--grid", "64", "--dirac"])
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["truncation"] == 64 and doc["result"]["dirac"]["value"] == 1
        assert len(calls) == 1

    def test_chern_dirac_uncertified_fourier_tail_exits_one(self, capsys):
        code, out, err = run_captured(
            capsys, ["chern", "--grid", "16", "--dirac", "--truncation", "40"])
        assert code == 1 and out == ""
        assert "verification failure: Fourier tail does not certify" in err

    @pytest.mark.parametrize("mass", ["3", "2", "-2", "0", "nan"])
    def test_chern_mass_out_of_range_exits_two(self, capsys, monkeypatch, mass):
        monkeypatch.setattr(ch, "lattice_chern", no_work)
        code, out, err = run_captured(capsys, ["chern", "--grid", "16", "--mass", mass])
        assert code == 2 and out == ""
        assert "mass must lie in (-2, 0) or (0, 2)" in err

    def test_sequence_check(self, capsys):
        for which in ("ktheory", "khomology"):
            code, out, _ = run_captured(capsys, ["sequence", which, "--check"])
            assert code == 0
            res = json.loads(out)["result"]
            assert res["exact"] and len(res["nodes"]) == 6


class TestPlumbing:
    def test_malformed_json_exits_two(self, capsys):
        code, _, err = run_captured(capsys, ["alg", "star", "{nope"])
        assert code == 2
        assert "malformed" in err

    def test_non_utf8_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        code, out, err = run_captured(capsys, ["alg", "star", str(bad)])
        assert code == 2 and out == ""
        assert err.startswith("usage error: malformed JSON input: 'utf-8' codec can't decode")

    def test_non_utf8_stdin_exits_two(self, capsys, monkeypatch):
        # the same bytes and the same line as from a file, whatever the
        # locale's encoding of sys.stdin
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}")))
        code, out, err = run_captured(capsys, ["alg", "star", "-"])
        assert code == 2 and out == ""
        assert err.startswith("usage error: malformed JSON input: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("command, first", [
        (["alg", "mul"], U_JSON), (["deriv", "apply"], DERIVATION_JSON),
    ], ids=["alg-mul", "deriv-apply"])
    def test_two_stdin_arguments_exit_two_before_reading(self, capsys, monkeypatch,
                                                         command, first):
        # the first '-' would read all of stdin, and the second nothing
        monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=SimpleNamespace(read=no_work)))
        code, out, err = run_captured(capsys, command + ["-", "-"])
        assert code == 2 and out == ""
        assert err == "usage error: only one argument may read stdin ('-')\n"
        # one '-' reads it
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(first.encode())))
        piped = run_captured(capsys, command + ["-", V_JSON])
        assert piped[0] == 0 and piped == run_captured(capsys, command + [first, V_JSON])

    def test_unknown_subcommand_exits_two(self, capsys):
        assert run(["bogus"]) == 2

    def test_unknown_flag_exits_two(self, capsys):
        assert run(["alg", "star", U_JSON, "--frobnicate"]) == 2

    @pytest.mark.parametrize("bad", [{"p": 1.7}, {"r": True}])
    def test_non_integer_exponent_exits_two(self, capsys, bad):
        rec = {"p": 1, "q": 0, "r": 0, "re": "1", "im": "0", **bad}
        code, out, err = run_captured(
            capsys, ["alg", "star", json.dumps({"terms": [rec]})]
        )
        assert code == 2 and out == ""
        assert "malformed element" in err

    @pytest.mark.parametrize("bad", [{"re": 0.1}, {"re": True}, {"im": 2.0}])
    def test_inexact_coefficient_exits_two(self, capsys, bad):
        rec = {"p": 1, "q": 0, "r": 0, "re": "1", "im": "0", **bad}
        code, out, err = run_captured(
            capsys, ["alg", "star", json.dumps({"terms": [rec]})]
        )
        assert code == 2 and out == ""
        assert "malformed element" in err

    def test_zero_denominator_exits_two(self, capsys):
        code, out, err = run_captured(
            capsys, ["alg", "mul", monomial_json(re="1/0"), "{}"])
        assert code == 2 and out == ""
        assert err == "usage error: malformed element: zero denominator in '1/0'\n"

    def test_integer_over_the_digit_limit_exits_two(self, capsys):
        for digits in (4301, 5000):
            argv = ["alg", "star", '{"terms":[{"p":1,"q":0,"r":0,"re":%s}]}' % ("9" * digits)]
            assert digit_limit_line(capsys, argv, 2) == (
                "usage error: malformed JSON input: Exceeds the limit (4300 digits) "
                f"for integer string conversion: value has {digits} digits\n")

    @pytest.mark.parametrize("coefficient", [
        "1" * 4301, "1/" + "1" * 4301, "1e" + "1" * 4301, "1e-" + "0" * 4300 + "1",
        "1_" * 4300 + "1",
    ], ids=["integer", "denominator", "exponent", "padded-exponent", "underscored"])
    def test_coefficient_string_over_the_digit_limit_exits_two(self, capsys, coefficient):
        err = digit_limit_line(capsys, ["alg", "star", monomial_json(re=coefficient)], 2)
        assert err.startswith("usage error: malformed element: ")

    @pytest.mark.parametrize("coefficient", ["1e999999999", "1e-99999999"])
    def test_huge_decimal_exponent_exits_two_quickly(self, capsys, coefficient):
        # Fraction would expand 10**|e| in full; the child's timeout catches
        # a parse that does not return before the in-process run is timed
        argv = ["alg", "star", monomial_json(re=coefficient)]
        proc = subprocess.run([sys.executable, "-m", "heisenberg_ncg.cli", *argv],
                              capture_output=True, env=package_env(), timeout=60)
        assert proc.returncode == 2
        t0 = time.perf_counter()
        code, out, err = run_captured(capsys, argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert f"decimal exponent of '{coefficient}' exceeds {MAX_DECIMAL_EXPONENT}" in err

    @pytest.mark.parametrize("exponent, code", [
        (MAX_DECIMAL_EXPONENT, 0), (-MAX_DECIMAL_EXPONENT, 0),
        (MAX_DECIMAL_EXPONENT + 1, 2), (-MAX_DECIMAL_EXPONENT - 1, 2),
    ])
    def test_decimal_exponent_bound(self, capsys, exponent, code):
        # `alg central` prints no coefficient, so 10**4300 (4301 digits)
        # need not be printable
        argv = ["alg", "central", monomial_json(re=f"1e{exponent}")]
        assert run_captured(capsys, argv)[0] == code

    @pytest.mark.parametrize("argv", [
        ["alg", "star", monomial_json(re="1e4300")],
        ["alg", "mul", monomial_json(re="1e2200"), monomial_json(re="1e2200")],
    ], ids=["star", "mul"])
    def test_result_over_the_digit_limit_exits_one(self, capsys, argv):
        # the inputs are valid; their result has a 4301- or 4401-digit
        # numerator, which no JSON string of this output may hold
        digit_limit_line(capsys, argv, 1)

    @pytest.mark.parametrize("table", [[], ["--table"]], ids=["json", "table"])
    @pytest.mark.parametrize("argv", [
        ["alg", "mul"] + ['{"terms":[{"p":%s,"q":0,"r":0,"re":1}]}' % NINES] * 2,
        ["alg", "star", '{"terms":[{"p":%s,"q":%s,"r":0,"re":1}]}' % (NINES, NINES)],
        ["deriv", "check",
         '{"dU":{"terms":[{"p":%s,"q":1,"r":%s,"re":1}]},"dV":{}}' % (NINES, NINES)],
        ["group", "classify", "--element", "[%s,%s,1]" % (NINES[1:], NINES[1:])],
    ], ids=["alg-mul", "alg-star", "deriv-check", "group-classify"])
    def test_integer_in_a_result_over_the_digit_limit_exits_one(self, capsys, argv, table):
        # valid inputs whose result holds a 4301- to 8600-digit integer
        # other than a coefficient: an exponent or a centralizer invariant
        assert digit_limit_line(capsys, argv + table, 1) == (
            "verification failure: Exceeds the limit (4300 digits) for integer "
            "string conversion\n")

    @pytest.mark.parametrize("argv", [
        ["alg", "mul", "DEEP", U_JSON],
        ["group", "classify", "--element", "DEEP"],
    ], ids=["alg-mul", "group-classify"])
    def test_deeply_nested_json_exits_two(self, capsys, tmp_path, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_captured(capsys, [str(deep) if a == "DEEP" else a for a in argv])
        assert code == 2 and out == ""
        assert err.startswith("usage error: malformed JSON input: maximum recursion depth")

    @pytest.mark.parametrize("argv, what", [
        (["alg", "star", '"U"'], "element"),
        (["alg", "star", "[1,2]"], "element"),
        (["alg", "star", "5"], "element"),
        (["deriv", "check", '{"dU":5,"dV":{"terms":[]}}'], "derivation"),
    ])
    def test_element_that_is_not_an_object_exits_two(self, capsys, argv, what):
        code, out, err = run_captured(capsys, argv)
        assert code == 2 and out == ""
        assert f"malformed {what}" in err

    @pytest.mark.parametrize("argv, line", [
        (["alg", "star", '{"terms":[{"p":1}]}'], "malformed element: a term is a JSON "
         "object with p, q and r; {'p': 1} has no q or r"),
        (["alg", "star", '{"terms":[5]}'],
         "malformed element: a term is a JSON object with p, q and r, got 5"),
        (["alg", "star", '{"terms":5}'],
         "malformed element: an element's terms are a JSON list, got 5"),
        (["deriv", "check", '{"dU":{"terms":[]}}'], "malformed derivation: a derivation "
         "is a JSON object with dU and dV; {'dU': {'terms': []}} has no dV"),
        (["deriv", "check", "[]"],
         "malformed derivation: a derivation is a JSON object with dU and dV, got []"),
    ])
    def test_malformed_term_or_derivation_is_worded_in_the_input_terms(self, capsys,
                                                                        argv, line):
        # the line names the missing key or the expected shape, not a
        # KeyError's key or a TypeError about subscripting
        code, out, err = run_captured(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"usage error: {line}\n"

    @pytest.mark.parametrize("blocks, got", [
        ("5", "5"), ("[5]", "[5]"), ('"ab"', "'ab'"), ('{"a":1}', "{'a': 1}"),
    ])
    def test_blocks_that_are_not_a_list_of_lists_are_worded_in_the_input_terms(
            self, capsys, blocks, got):
        # a string or an object would be iterated as characters or keys
        code, out, err = run_captured(
            capsys, ["index", "--module", "z1", "--unitary", f'{{"blocks":{blocks}}}'])
        assert code == 2 and out == ""
        assert err == ("usage error: malformed element: blocks are a JSON list of rows "
                       f"of elements, got {got}\n")

    @pytest.mark.parametrize("argv", [
        ["alg", "mul", U_JSON, V_JSON, "--truncation", "5"],
        ["alg", "star", U_JSON, "--theta", "1/3"],
        ["group", "hc-dim", "--n", "2", "--element", "[1,2]"],
        ["pairing", "verify", "--tol", "1e-3"],
        ["sequence", "ktheory", "--grid", "3"],
        ["alg", "star", U_JSON, "--seed", "5"],
        ["index", "--module", "z1", "--unitary", U_JSON, "--tol", "-1"],
        ["index", "--module", "z1", "--unitary", U_JSON, "--truncation", "64"],
        ["pairing", "verify", "--truncation", "64"],
        ["chern", "--grid", "16", "--truncation", "-3"],
    ])
    def test_option_the_command_does_not_read_exits_two(self, capsys, argv):
        code, out, err = run_captured(capsys, argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err

    def test_readme_commands_parse(self):
        parser = build_parser()
        seen = set()
        for argv in readme_commands():
            args = parser.parse_args(argv)
            assert argv[:len(args.command.split())] == args.command.split()
            seen.add(args.command)
        assert len(seen) == 17  # every command is shown

    def test_byte_identical_output(self, capsys):
        _, out1, _ = run_captured(capsys, ["sequence", "khomology", "--check"])
        _, out2, _ = run_captured(capsys, ["sequence", "khomology", "--check"])
        assert out1 == out2

    def test_pairing_verify_byte_identical(self, capsys):
        code1, out1, err1 = run_captured(capsys, ["pairing", "verify"])
        code2, out2, _ = run_captured(capsys, ["pairing", "verify"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert "elapsed_s" not in out1
        assert json.loads(err1)["elapsed_s"]["criterion_1"] >= 0

    def test_config_echoed(self, capsys):
        _, out, _ = run_captured(capsys, ["alg", "central", U_JSON])
        assert "config" in json.loads(out)

    def test_env_seed_override(self, capsys, monkeypatch):
        seen = []

        def criterion_1_seeded(seed=0):
            seen.append(seed)
            return acc._result(1, "seeded", True)

        # HNC_SEED seeds only the test suites: `--seed` is the report's one
        # seed input, and the default stands without it
        monkeypatch.setattr(acc, "ALL_CRITERIA", (criterion_1_seeded,))
        monkeypatch.setenv("HNC_SEED", "123")
        code, out, _ = run_captured(capsys, ["report", "all", "--seed", "7"])
        assert code == 0 and seen == [7]
        doc = json.loads(out)
        assert doc["config"]["seed"] == doc["result"]["seed"] == 7
        monkeypatch.setenv("HNC_SEED", "abc")
        code, out, _ = run_captured(capsys, ["report", "all"])
        assert code == 0 and seen == [7, acc.DEFAULT_SEED]
        assert json.loads(out)["config"]["seed"] == acc.DEFAULT_SEED

    def test_seed_is_read_only_by_report(self, capsys, monkeypatch):
        without = run_captured(capsys, ["alg", "star", U_JSON])
        monkeypatch.setenv("HNC_SEED", "abc")
        assert run_captured(capsys, ["alg", "star", U_JSON]) == without
        assert without[0] == 0 and "seed" not in json.loads(without[1])["config"]

    def test_table_mode(self, capsys):
        code, out, _ = run_captured(capsys, ["group", "hc-dim", "--n", "2", "--table"])
        assert code == 0
        assert out.startswith("# group hc-dim")
        assert "finite_rank: 3" in out
        # a tuple in a result prints as a list does
        code, out, _ = run_captured(capsys, ["group", "cohomology", "--type", "H3", "--table"])
        assert code == 0 and out.endswith("dims:\n  - 1\n  - 2\n  - 2\n  - 1\n")

    def test_table_mode_keeps_list_structure(self, capsys):
        # each list item that is a list or an object opens with its own "-":
        # delta_0 prints as 2 rows of 3, not as six bare entries
        code, out, _ = run_captured(capsys, ["sequence", "ktheory", "--table"])
        assert code == 0
        lines = out.splitlines()
        maps = [i for i, line in enumerate(lines) if line == "  -"]
        assert len(maps) == 6
        start = lines.index("    name: delta_0")
        matrix = lines[lines.index("    matrix:", max(i for i in maps if i < start)):start]
        assert matrix == ["    matrix:",
                          "      -", "        - 0", "        - 0", "        - 0",
                          "      -", "        - 0", "        - 0", "        - 1"]

    def test_broken_pipe_exits_quietly(self):
        # the reader is gone before the command writes anything
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = package_env()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "heisenberg_ncg.cli", "group", "hc-dim",
                 "--n", "3"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1


def parse_outcome(parser: argparse.ArgumentParser, argv: list[str]):
    """What parsing argv does: the exit code and the text written on
    stdout and stderr, or the namespace when it parses."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return None, "", "", vars(parser.parse_args(argv))
        except SystemExit as e:
            return e.code, out.getvalue(), err.getvalue(), None


class TestLeafParser:
    """`build_parser(argv)` builds only the leaf that argv names, and
    parses every argv as the full build does, byte for byte."""

    @pytest.mark.parametrize("command", [c for c, *_ in cli.LEAVES])
    @pytest.mark.parametrize("case", ["help", "unknown-option", "bare"])
    def test_leaf_build_parses_as_the_full_build(self, command, case):
        if case == "unknown-option":  # past a valid argv, so the leaf parses up to it
            argv = next(c for c in readme_commands() if c[:len(command.split())] == command.split())
            argv = argv + ["--frobnicate"]
        else:  # bare: a missing positional or required option, if the leaf has one
            argv = command.split() + (["--help"] if case == "help" else [])
        outcome = parse_outcome(build_parser(argv), argv)
        assert outcome == parse_outcome(build_parser(), argv)
        if case != "bare":
            assert outcome[0] == (0 if case == "help" else 2)

    @pytest.mark.parametrize("argv", [["--help"], ["alg", "--help"], ["alg", "bogus"], []])
    def test_argv_that_names_no_leaf_parses_as_the_full_build(self, argv):
        outcome = parse_outcome(build_parser(argv), argv)
        assert outcome == parse_outcome(build_parser(), argv)
        assert outcome[0] in (0, 2)

    def test_a_leaf_command_builds_eleven_parsers(self, monkeypatch):
        # root, shared, six groups, 'index', 'chern' and the one leaf, of 25
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        argv = ["alg", "mul", U_JSON, V_JSON]
        assert build_parser(argv).parse_args(argv).command == "alg mul"
        assert len(built) <= 11
        built.clear()
        build_parser()
        assert len(built) == 25


# Runs one command through `cli.run` in a fresh interpreter and reports, on
# the last line of stderr, its exit code, which float libraries it loaded,
# whether it loaded `dataclasses`, and the package modules it loaded.
IMPORT_PROBE = """
import json, sys
from heisenberg_ncg.cli import run
code = run(json.loads(sys.argv[1]))
loaded = [m for m in ("numpy", "scipy") if m in sys.modules]
package = sorted(m.partition(".")[2] for m in sys.modules if m.startswith("heisenberg_ncg."))
print(json.dumps({"code": code, "loaded": loaded, "dataclasses": "dataclasses" in sys.modules,
                  "package": package}), file=sys.stderr)
"""


def probe_imports(argv: list[str]) -> dict:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=package_env(), timeout=120)
    return json.loads(proc.stderr.splitlines()[-1])


PROBED_COMMANDS = [
    ["alg", "mul", U_JSON, V_JSON],
    ["alg", "star", U_JSON],
    ["alg", "central", U_JSON],
    ["deriv", "check", DERIVATION_JSON],
    ["deriv", "decompose", DERIVATION_JSON],
    ["deriv", "apply", DERIVATION_JSON, V_JSON],
    ["group", "classify", "--element", "[2,4,1]"],
    ["group", "cohomology", "--type", "H3"],
    ["group", "hc-dim", "--n", "3"],
    ["sequence", "ktheory", "--check"],
    ["sequence", "khomology", "--check"],
    ["pairing", "table"],
    ["pairing", "verify"],
    ["index", "--module", "z1prime", "--unitary", V_JSON],
    # floats from complex arithmetic in plain Python
    ["alg", "eval", U_JSON, "--theta", "1/3"],
]
# The package modules each command loads, by its first words: the layers
# it runs and no other.  The group law (`group`) sits below the ring
# (`algebra`), and 'pairing verify' loads what its criterion runs.
LOADED = {
    "alg": {"cli", "group", "algebra"},
    "deriv": {"cli", "group", "algebra", "derivations"},
    "group": {"cli", "group", "group_structure"},
    "sequence": {"cli", "integer_lattices", "kk"},
    "pairing table": {"cli", "integer_lattices", "kk"},
    "pairing verify": {"cli", "group", "algebra", "derivations", "group_structure",
                       "fredholm", "integer_lattices", "kk", "acceptance"},
    "index": {"cli", "group", "algebra", "fredholm"},
    "chern": {"cli", "chern"},
}


def command_id(argv: list[str]) -> str:
    return "-".join(argv[:2])


class TestColdImports:
    """Each command loads only the package modules it runs and no
    `dataclasses`; exact commands start without numpy or scipy, which only
    modules that compute floats import."""

    @pytest.mark.parametrize("argv", PROBED_COMMANDS, ids=command_id)
    def test_exact_command_loads_no_float_library(self, argv):
        result = probe_imports(argv)
        assert (result["code"], result["loaded"]) == (0, [])

    @pytest.mark.parametrize("argv", PROBED_COMMANDS + [["chern", "--grid", "8"]], ids=command_id)
    def test_command_loads_only_the_modules_it_runs(self, argv):
        result = probe_imports(argv)
        assert result["code"] == 0 and not result["dataclasses"]
        words = " ".join(argv[:2])
        (loaded,) = [mods for prefix, mods in LOADED.items() if words.startswith(prefix)]
        assert set(result["package"]) == loaded

    def test_chern_loads_numpy(self):
        # the same probe sees numpy where a command needs it
        result = probe_imports(["chern", "--grid", "8"])
        assert result["code"] == 0 and "numpy" in result["loaded"]


# ---- every command on drawn input ----

# Exponent and coefficient texts: small values, and values at and just past
# the 4300-digit bounds of integer strings and decimal exponents.
EXPONENTS = st.sampled_from([str(e) for e in range(-3, 4)] * 4
                            + [NINES, "-" + NINES, "1" + "0" * 4300])
UNIT_COEFFICIENTS = st.sampled_from([("1", "0"), ("-1", "0"), ("0", "1"), ("0", "-1"),
                                     ('"3/5"', '"4/5"')])
COEFFICIENTS = st.one_of(
    UNIT_COEFFICIENTS,
    st.tuples(st.sampled_from(['"1/2"', "2", '"1e4300"', '"1e-4300"', '"1e4301"',
                               '"%s"' % NINES, '"1%s"' % NINES, "1" + NINES, "0.5",
                               "true", '"1/0"']),
              st.sampled_from(["0", '"1/3"'])))


def term_json(keys, coefficient):
    (p, q, r), (re, im) = keys, coefficient
    return '{"p":%s,"q":%s,"r":%s,"re":%s,"im":%s}' % (p, q, r, re, im)


KEYS = st.tuples(EXPONENTS, EXPONENTS, EXPONENTS)
# A unit multiple of one monomial is unitary; sums of terms mostly are not.
ELEMENTS = st.one_of(
    st.builds(lambda k, c: '{"terms":[%s]}' % term_json(k, c), KEYS, UNIT_COEFFICIENTS),
    st.lists(st.builds(term_json, KEYS, COEFFICIENTS), max_size=3).map(
        lambda terms: '{"terms":[%s]}' % ",".join(terms)),
    st.sampled_from(["{}", '"U"', "5", "[1,2]", '{"terms":[{"p":1}]}', "{nope"]),
)


def block_rows(rows):
    return '{"blocks":[%s]}' % ",".join("[%s]" % ",".join(row) for row in rows)


def diagonal(entries):
    return block_rows([[e if i == j else "{}" for j in range(len(entries))]
                       for i, e in enumerate(entries)])


# w1prime draws terms with a V exponent; identities with a drawn corner
# reach 64 blocks a side, and the term products of the unitarity check its
# limit and past it.
UNITARIES = st.one_of(
    ELEMENTS,
    st.lists(ELEMENTS, min_size=1, max_size=3).map(diagonal),
    st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(ELEMENTS, min_size=k, max_size=k), min_size=k, max_size=k)).map(block_rows),
    st.builds(identity_blocks, st.integers(1, 64), ELEMENTS),
    st.sampled_from([
        '{"blocks":[]}', '{"blocks":[[]]}', '{"blocks":[[{}],[{},{}]]}',  # empty, ragged
        '{"blocks":[[{},{}]]}', '{"blocks":5}', '{"blocks":[5]}', '{"blocks":[[5]]}',
        '{"blocks":{"a":1}}', '{"blocks":null}',
        # 100000 term products in u u*, then 100601
        *(diagonal([powers_of_u(n), powers_of_u(100)]) for n in (300, 301)),
    ]),
)
MODULES = st.sampled_from(["z1", "z1prime", "w1", "w1prime", "del0_w0"])
# Exponents at the digit bound half the time, so that the sum or product of
# two of them (a product's exponent, a W exponent after a commutation, a
# centralizer invariant) often passes it.
WIDE_EXPONENTS = st.one_of(EXPONENTS, st.sampled_from([NINES, "-" + NINES, NINES[1:]]))
WIDE_KEYS = st.tuples(WIDE_EXPONENTS, WIDE_EXPONENTS, WIDE_EXPONENTS)
WIDE_ELEMENTS = st.lists(st.builds(term_json, WIDE_KEYS, UNIT_COEFFICIENTS),
                         min_size=1, max_size=2).map(lambda t: '{"terms":[%s]}' % ",".join(t))
EXACT_ELEMENTS = st.one_of(ELEMENTS, WIDE_ELEMENTS)
DERIVATIONS = st.one_of(
    st.builds(lambda du, dv: '{"dU":%s,"dV":%s}' % (du, dv), EXACT_ELEMENTS, EXACT_ELEMENTS),
    st.sampled_from(["{}", '{"dU":{}}', '{"dU":5,"dV":{}}', "[1,2]", "{nope"]),
)
GROUP_ELEMENTS = st.one_of(
    WIDE_KEYS.map(lambda key: "[%s]" % ",".join(key)),
    st.sampled_from(["[1,2]", "[true,false,1]", "[1.5,0,0]", '"U"', "{nope"]),
)
# Coefficients at, past and below the float64 range; two terms at one key
# sum past it.
FLOAT_COEFFICIENTS = st.tuples(st.sampled_from(['"1e308"', '"1e400"', '"1e-400"', "1"]),
                               st.sampled_from(["0", '"1e308"']))
EVAL_ELEMENTS = st.one_of(
    ELEMENTS,
    st.lists(st.builds(term_json, KEYS, FLOAT_COEFFICIENTS), min_size=1, max_size=3).map(
        lambda terms: '{"terms":[%s]}' % ",".join(terms)),
)
ANGLES = st.sampled_from(["0/1", "-1/3", "1/256", "1/257", "1/0", f"{10**20 + 1}/3",
                         f"1{NINES}/3", f"1/1{NINES}"])
GROUP_TYPES = st.sampled_from([
    "H3", "Z", "Z2", "ZxZl(5)", "CentralExtension(3)", f"ZxZl({NINES})",
    "ZxZl(0)", "CentralExtension(1)", f"ZxZl(1{NINES})", f"CentralExtension(1{NINES})",
    "garbage", "", "ZxZl(-1)",
])
DEGREES = st.sampled_from(["0", "3", "-1", "-7", str(10**30), NINES, "1" + NINES, "x"])
MASSES = st.sampled_from(["1", "-1.5", "0.5", "1e-300", "0", "2", "-2", "3", "nan", "-inf"])
# `--grid` up to 16, where `--dirac`'s Fourier tail never certifies, and 64
# only where `--truncation` (20 or 129) exits 2 before any engine work
CHERN_OPTIONS = st.one_of(
    st.tuples(st.sampled_from(["0", "7", "8", "12", "16"]),
              st.sampled_from([[], ["--dirac"], ["--truncation", "40"]])),
    st.tuples(st.sampled_from(["16", "64"]),
              st.sampled_from([["--dirac", "--truncation", t] for t in ("20", "129")])),
)
INDEX = st.tuples(MODULES, UNITARIES).map(
    lambda mu: (["index"], ["--module", mu[0], "--unitary", mu[1]]))
# (command, arguments) of the exact commands on ring elements, derivations
# and group elements
EXACT_COMMANDS = st.one_of(
    st.tuples(EXACT_ELEMENTS, EXACT_ELEMENTS).map(lambda xy: (["alg", "mul"], list(xy))),
    EXACT_ELEMENTS.map(lambda x: (["alg", "star"], [x])),
    EXACT_ELEMENTS.map(lambda x: (["alg", "central"], [x])),
    DERIVATIONS.map(lambda d: (["deriv", "check"], [d])),
    DERIVATIONS.map(lambda d: (["deriv", "decompose"], [d])),
    st.tuples(DERIVATIONS, EXACT_ELEMENTS).map(lambda dy: (["deriv", "apply"], list(dy))),
    GROUP_ELEMENTS.map(lambda g: (["group", "classify"], ["--element", g])),
)
OTHER_COMMANDS = st.one_of(
    st.tuples(EVAL_ELEMENTS, ANGLES).map(
        lambda xt: (["alg", "eval"], [xt[0], f"--theta={xt[1]}"])),
    GROUP_TYPES.map(lambda t: (["group", "cohomology"], [f"--type={t}"])),
    DEGREES.map(lambda n: (["group", "hc-dim"], [f"--n={n}"])),
    st.sampled_from([(["sequence", which], check) for which in ("ktheory", "khomology")
                     for check in ([], ["--check"])]),
    st.tuples(CHERN_OPTIONS, MASSES).map(
        lambda gom: (["chern"], ["--grid", gom[0][0], f"--mass={gom[1]}", *gom[0][1]])),
    st.just((["pairing", "verify"], [])),
    # the term-product bound of the ring: at it, and past it
    st.sampled_from([
        (["alg", "mul"], [powers_of_u(n, shear=1)] * 2) for n in (316, 317)] + [
        (["deriv", "apply"], [inner_by_w_powers(1999), powers_of_u(m)]) for m in (50, 51)]),
)


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_strictly(argv):
    """``run`` with output captured and warnings as errors; the line of run
    times that `pairing verify` writes first on stderr is checked and dropped."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    err = err.getvalue()
    if argv[:2] == ["pairing", "verify"]:
        timings, _, err = err.partition("\n")
        assert set(json.loads(timings)) == {"elapsed_s"}
    return code, out.getvalue(), err


def check_every_input(commands, max_examples):
    """Each drawn (command, arguments), with the output format before or
    after the arguments, ends in exit 0, 1 or 2 and repeats byte for byte."""
    @seeded(max_examples)
    @given(commands, st.sampled_from([[], ["--json"], ["--table"]]), st.booleans())
    def check(command, fmt, fmt_first):
        words, args = command
        argv = words + (fmt + args if fmt_first else args + fmt)
        code, out, err = run_strictly(argv)
        assert code in (0, 1, 2)
        # `deriv check` exits 1 with a document: the violations it found
        if code == 0 or (words == ["deriv", "check"] and code == 1 and not err):
            assert err == ""
            if fmt == ["--table"]:
                assert out.startswith("# ")
                assert not {"inf", "-inf", "nan"} & {
                    line.rpartition(": ")[2] for line in out.splitlines()}
            else:
                json.loads(out, parse_constant=reject_constant)
        else:
            assert out == "" and err.count("\n") == 1
            assert err.startswith(("usage error: ", "verification failure: "))
        # a string past the int-string digit limit is refused naming the
        # limit, not with the interpreter's advice to raise it
        assert "set_int_max_str_digits" not in err
        assert run_strictly(argv) == (code, out, err)

    check()


class TestIndexOnDrawnInput:
    def test_every_input_ends_in_one_exit_and_repeats(self):
        check_every_input(INDEX, 150)


class TestExactCommandsOnDrawnInput:
    def test_every_input_ends_in_one_exit_and_repeats(self):
        check_every_input(EXACT_COMMANDS, 300)


class TestOtherCommandsOnDrawnInput:
    def test_every_input_ends_in_one_exit_and_repeats(self):
        check_every_input(OTHER_COMMANDS, 250)
