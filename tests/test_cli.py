import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import heisenberg_ncg
from heisenberg_ncg import acceptance as acc
from heisenberg_ncg import cli
from heisenberg_ncg.algebra import U, V, element_from_dict, element_to_dict
from heisenberg_ncg.cli import build_parser, run
from heisenberg_ncg.derivations import derivation_to_dict, inner_derivation

U_JSON = json.dumps(element_to_dict(U))
V_JSON = json.dumps(element_to_dict(V))
ZERO = {"terms": []}
BLOCK_JSON = json.dumps({"blocks": [[element_to_dict(V), ZERO], [ZERO, element_to_dict(U)]]})


def no_work(*args, **kwargs):
    raise AssertionError("a usage error must be raised before any work")


def run_captured(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        def no_allocation(*_):
            raise AssertionError("eval_at_angle ran past the dimension cap")

        monkeypatch.setattr(cli, "eval_at_angle", no_allocation)
        code, out, err = run_captured(
            capsys, ["alg", "eval", U_JSON, "--theta", "1/100000"])
        assert code == 2 and out == ""
        assert "exceeds" in err

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
                    "(cells where the reconstruction differs from d: 1)") in err

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

    def test_cohomology(self, capsys):
        code, out, _ = run_captured(
            capsys, ["group", "cohomology", "--type", "H3"]
        )
        assert code == 0
        assert json.loads(out)["result"]["dims"] == [1, 2, 2, 1]

    def test_bad_element_is_usage_error(self, capsys):
        code, _, _ = run_captured(capsys, ["group", "classify", "--element", "[1,2]"])
        assert code == 2

    def test_bool_element_is_usage_error(self, capsys):
        code, out, err = run_captured(
            capsys, ["group", "classify", "--element", "[true,false,1]"])
        assert code == 2 and out == ""
        assert "group element must be a JSON triple" in err


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
        assert json.loads(out)["result"]["passed"]

    def test_index(self, capsys):
        code, out, _ = run_captured(
            capsys,
            ["index", "--module", "z1prime", "--unitary", V_JSON,
             "--truncation", "32"],
        )
        assert code == 0
        assert json.loads(out)["result"]["index"] == 1

    def test_index_rejects_non_unitary(self, capsys):
        bad = json.dumps(element_to_dict(U + V))
        code, _, err = run_captured(
            capsys, ["index", "--module", "z1", "--unitary", bad]
        )
        assert code == 1

    @pytest.mark.parametrize("blocks", [
        [],
        [[]],
        [[element_to_dict(U)], [element_to_dict(U), element_to_dict(V)]],
    ], ids=["empty", "empty-row", "ragged"])
    def test_index_malformed_blocks_exit_two(self, capsys, blocks):
        code, out, err = run_captured(
            capsys,
            ["index", "--module", "z1", "--unitary", json.dumps({"blocks": blocks})],
        )
        assert code == 2 and out == ""
        assert "malformed element" in err

    @pytest.mark.parametrize("argv", [
        ["index", "--module", "z1", "--unitary", V_JSON, "--truncation", "4"],
        ["pairing", "verify", "--truncation", "15"],
    ])
    def test_truncation_below_smallest_window_exits_two(self, capsys, argv):
        code, out, err = run_captured(capsys, argv)
        assert code == 2 and out == ""
        assert "must be at least 17" in err

    @pytest.mark.parametrize("argv", [
        ["index", "--module", "z1", "--unitary", V_JSON, "--truncation", "16"],
        ["pairing", "verify", "--truncation", "16"],
    ])
    def test_repeated_window_exits_two(self, capsys, argv):
        # T = 16 would run the windows [16, 16, 32]: two runs, not three
        code, out, err = run_captured(capsys, argv)
        assert code == 2 and out == ""
        assert "--truncation 16 must be at least 17: the windows [16, 16, 32]" in err

    def test_smallest_window_below_the_band_exits_two(self, capsys, monkeypatch):
        # U^40 has band width 40, so the smallest window T // 2 must be at
        # least 42: the default T = 64 (window 32) is out of range, 84 is not
        monkeypatch.setattr(cli, "odd_pairing", no_work)
        u40 = json.dumps({"terms": [{"p": 40, "q": 0, "r": 0, "re": "1", "im": "0"}]})
        code, out, err = run_captured(capsys, ["index", "--module", "z1", "--unitary", u40])
        assert code == 2 and out == ""
        assert "--truncation 64 must be at least 84" in err
        monkeypatch.undo()
        code, out, _ = run_captured(
            capsys, ["index", "--module", "z1", "--unitary", u40, "--truncation", "84"])
        assert code == 0
        assert json.loads(out)["result"] == {"index": 40}

    @pytest.mark.parametrize("argv, message", [
        (["index", "--module", "z1", "--unitary", V_JSON, "--truncation", "1801"],
         "--truncation 1801 exceeds 1800 for a 1x1 block unitary"),
        (["index", "--module", "z1", "--unitary", BLOCK_JSON, "--truncation", "901"],
         "--truncation 901 exceeds 900 for a 2x2 block unitary"),
    ])
    def test_index_size_cap(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(cli, "odd_pairing", no_work)
        code, out, err = run_captured(capsys, argv)
        assert code == 2 and out == ""
        assert message in err

    def test_index_at_size_cap_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "odd_pairing", lambda *args: 0)
        code, out, _ = run_captured(
            capsys, ["index", "--module", "z1", "--unitary", BLOCK_JSON,
                     "--truncation", "900"])
        assert code == 0
        assert json.loads(out)["config"]["truncations"] == [450, 900, 1800]

    def test_pairing_verify_size_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.acc, "criterion_1_pairing_tables", no_work)
        code, out, err = run_captured(capsys, ["pairing", "verify", "--truncation", "901"])
        assert code == 2 and out == ""
        assert "--truncation 901 exceeds 900 for a 2x2 block unitary" in err

    def test_smallest_distinct_windows_accepted(self, capsys):
        code, out, _ = run_captured(
            capsys, ["index", "--module", "z1prime", "--unitary", V_JSON,
                     "--truncation", "17"])
        assert code == 0
        assert json.loads(out)["config"]["truncations"] == [16, 17, 34]

    def test_report_exits_one_when_a_criterion_raises(self, capsys, monkeypatch):
        def criterion_1_ok():
            return acc._result(1, "ok", True, 0.0)

        def criterion_2_raises(seed=0):
            raise ArithmeticError("no convergence")

        monkeypatch.setattr(acc, "ALL_CRITERIA", (criterion_1_ok, criterion_2_raises))
        code, out, err = run_captured(capsys, ["report", "all"])
        assert code == 1
        results = json.loads(out)["result"]["results"]
        assert [r["passed"] for r in results] == [True, False]
        assert results[1]["details"] == {"error": "ArithmeticError: no convergence"}
        assert set(json.loads(err)["elapsed_s"]) == {"criterion_1", "criterion_2"}

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
        (["chern", "--grid", "0"], "--grid must be at least 8"),
        (["chern", "--grid", "7", "--dirac"], "--grid must be at least 8"),
        (["chern", "--grid", "16", "--dirac", "--n-commutators", "0"],
         "--n-commutators must be a positive even integer"),
        (["chern", "--grid", "16", "--dirac", "--n-commutators", "3"],
         "--n-commutators must be a positive even integer"),
        (["chern", "--grid", "2049"], "--grid must be at most 2048"),
        (["chern", "--grid", "16", "--dirac", "--truncation", "129"],
         "--truncation must be at most 128 with --dirac"),
    ])
    def test_chern_out_of_range_option_exits_two(self, capsys, monkeypatch,
                                                  argv, message):
        monkeypatch.setattr(cli.ch, "bott_projector", no_work)
        code, out, err = run_captured(capsys, argv)
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("truncation", ["20", "32"])
    def test_chern_dirac_truncation_below_certificate_windows_exits_two(
            self, capsys, monkeypatch, truncation):
        # the grid-64 Bott field has kernel radius 24: the certificate needs
        # a truncation above max(16, 24 + 8) = 32
        monkeypatch.setattr(cli.ch, "lattice_chern", no_work)
        monkeypatch.setattr(cli.ch, "dirac_even_pairing", no_work)
        code, out, err = run_captured(
            capsys, ["chern", "--dirac", "--truncation", truncation])
        assert code == 2 and out == ""
        assert f"--truncation {truncation} must be at least 33" in err

    @pytest.mark.parametrize("mass", ["3", "0", "nan"])
    def test_chern_mass_out_of_range_exits_two(self, capsys, monkeypatch, mass):
        monkeypatch.setattr(cli.ch, "lattice_chern", no_work)
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

    @pytest.mark.parametrize("argv", [
        ["alg", "mul", U_JSON, V_JSON, "--truncation", "5"],
        ["alg", "star", U_JSON, "--theta", "1/3"],
        ["group", "hc-dim", "--n", "2", "--element", "[1,2]"],
        ["pairing", "verify", "--tol", "1e-3"],
        ["sequence", "ktheory", "--grid", "3"],
        ["alg", "star", U_JSON, "--seed", "5"],
        ["index", "--module", "z1", "--unitary", U_JSON, "--tol", "-1"],
    ])
    def test_option_the_command_does_not_read_exits_two(self, capsys, argv):
        code, out, err = run_captured(capsys, argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err

    def test_readme_commands_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command-line usage")[1].split("```sh")[1]
        block = block.split("```")[0].replace("\\\n", " ")
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [c[1:] for c in commands if c and c[0] == "hnc"]
        parser = build_parser()
        seen = set()
        for argv in commands:
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
            return acc._result(1, "seeded", True, 0.0)

        monkeypatch.setattr(acc, "ALL_CRITERIA", (criterion_1_seeded,))
        monkeypatch.setenv("HNC_SEED", "123")
        code, out, _ = run_captured(capsys, ["report", "all", "--seed", "7"])
        assert code == 0 and seen == [123]
        doc = json.loads(out)
        assert doc["config"]["seed"] == doc["result"]["seed"] == 123

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

    def test_broken_pipe_exits_quietly(self):
        # the reader is gone before the command writes anything
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(heisenberg_ncg.__file__).parents[1]))
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
