import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heisenberg_ncg
from heisenberg_ncg.algebra import U, V, element_from_dict, element_to_dict
from heisenberg_ncg.cli import run
from heisenberg_ncg.derivations import derivation_to_dict, inner_derivation

U_JSON = json.dumps(element_to_dict(U))
V_JSON = json.dumps(element_to_dict(V))


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

    def test_cohomology(self, capsys):
        code, out, _ = run_captured(
            capsys, ["group", "cohomology", "--type", "H3"]
        )
        assert code == 0
        assert json.loads(out)["result"]["dims"] == [1, 2, 2, 1]

    def test_bad_element_is_usage_error(self, capsys):
        code, _, _ = run_captured(capsys, ["group", "classify", "--element", "[1,2]"])
        assert code == 2


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

    def test_byte_identical_output(self, capsys):
        _, out1, _ = run_captured(capsys, ["sequence", "khomology", "--check"])
        _, out2, _ = run_captured(capsys, ["sequence", "khomology", "--check"])
        assert out1 == out2

    def test_config_echoed(self, capsys):
        _, out, _ = run_captured(capsys, ["alg", "central", U_JSON])
        assert "config" in json.loads(out)

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HNC_SEED", "123")
        _, out, _ = run_captured(capsys, ["alg", "central", U_JSON, "--seed", "7"])
        assert json.loads(out)["config"]["seed"] == 123

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
