"""Code-file JSON round trips and command-line behavior."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from modcode import Alphabet, Code, ModuleSpace, codes, load_code, minimal_counterexample, save_code
from modcode.cli import main
from modcode.errors import DimensionMismatchError


@pytest.fixture
def runner():
    return CliRunner()


class TestCodeFiles:
    def test_roundtrip(self, tmp_path):
        lam, _ = minimal_counterexample(3, 1, 2)
        path = tmp_path / "lam.json"
        save_code(lam, path)
        assert load_code(path) == lam

    def test_schema_fields(self, tmp_path):
        lam, _ = minimal_counterexample(2, 1, 2)
        path = tmp_path / "lam.json"
        save_code(lam, path)
        data = json.loads(path.read_text())
        assert set(data) == {"q", "m", "k", "t", "generators"}
        assert len(data["generators"]) == 3

    def test_rejects_bad_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"q": 2, "m": 1, "k": 1, "t": 1, "generators": [[[2]]]}))
        with pytest.raises(DimensionMismatchError):
            load_code(path)

    @pytest.mark.parametrize("key, value", [("q", 2.9), ("k", 1.0), ("t", True), ("m", "1")])
    def test_rejects_non_integer_field(self, tmp_path, key, value):
        data = {"q": 2, "m": 1, "k": 1, "t": 1, "generators": [[[1]]]}
        data[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DimensionMismatchError):
            load_code(path)

    @pytest.mark.parametrize("entry", [1.7, 1.0, True, False])
    def test_rejects_non_integer_entry(self, tmp_path, entry):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"q": 2, "m": 1, "k": 1, "t": 1, "generators": [[[1]], [[entry]]]})
        )
        with pytest.raises(DimensionMismatchError):
            load_code(path)

    def test_rejects_non_prime(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"q": 4, "m": 1, "k": 1, "t": 1, "generators": [[[1]]]}))
        with pytest.raises(ValueError):
            load_code(path)


class TestForgeCommand:
    def test_forge_q2_m1(self, runner, tmp_path):
        lp, mp = str(tmp_path / "l.json"), str(tmp_path / "m.json")
        result = runner.invoke(
            main, ["forge", "--q", "2", "--m", "1", "--k", "2", "--out-lambda", lp, "--out-mu", mp]
        )
        assert result.exit_code == 0
        assert "N: 3" in result.output
        assert "isometry: True" in result.output
        assert "extendable: False" in result.output
        assert load_code(lp).length == 3

    def test_forge_q2_m2_length_15(self, runner, tmp_path):
        lp, mp = str(tmp_path / "l.json"), str(tmp_path / "m.json")
        result = runner.invoke(
            main,
            ["forge", "--q", "2", "--m", "2", "--k", "3", "--out-lambda", lp, "--out-mu", mp, "--json"],
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["N"] == 15 and report["isometry"] and not report["extendable"]

    def test_forge_rejects_k_le_m(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["forge", "--q", "2", "--m", "1", "--k", "1",
             "--out-lambda", str(tmp_path / "l"), "--out-mu", str(tmp_path / "m")],
        )
        assert result.exit_code == 2
        assert "extension property" in result.output

    def test_forge_rejects_non_prime(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["forge", "--q", "4", "--m", "1", "--k", "2",
             "--out-lambda", str(tmp_path / "l"), "--out-mu", str(tmp_path / "m")],
        )
        assert result.exit_code == 4


class TestCheckCommand:
    def _forged_files(self, runner, tmp_path):
        lp, mp = str(tmp_path / "l.json"), str(tmp_path / "m.json")
        runner.invoke(
            main, ["forge", "--q", "2", "--m", "1", "--k", "2", "--out-lambda", lp, "--out-mu", mp]
        )
        return lp, mp

    def test_forged_pair_verdicts(self, runner, tmp_path):
        lp, mp = self._forged_files(runner, tmp_path)
        result = runner.invoke(main, ["check", "--lambda", lp, "--mu", mp, "--oracle", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["isometry"] and report["isometry_oracle"]
        assert report["extendable"] is False
        # Exactly one zero column on the lambda side of the diff.
        lam_only = report["kernel_diff"]["lambda_only"]
        full_entries = [mult for basis, mult in lam_only if len(basis) == 2]
        assert full_entries == [1]

    def test_identical_files_extendable(self, runner, tmp_path):
        lp, _ = self._forged_files(runner, tmp_path)
        result = runner.invoke(main, ["check", "--lambda", lp, "--mu", lp, "--json"])
        report = json.loads(result.output)
        assert result.exit_code == 0
        assert report["isometry"] and report["extendable"]
        assert "monomial_map" in report

    def test_non_isometric_pair_reports_na(self, runner, tmp_path):
        lp, mp = str(tmp_path / "l.json"), str(tmp_path / "m.json")
        space, alphabet = ModuleSpace(2, 1, 1), Alphabet(2, 1, 1)
        save_code(Code(alphabet, space, [np.array([[1]])] * 2), lp)
        save_code(Code(alphabet, space, [np.array([[1]]), np.array([[0]])]), mp)
        result = runner.invoke(main, ["check", "--lambda", lp, "--mu", mp, "--oracle", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert list(report)[:4] == ["command", "isometry", "isometry_oracle", "extendable"]
        assert report["isometry"] is False and report["isometry_oracle"] is False
        assert report["extendable"] == "NA"

    def test_criterion_runs_once(self, runner, tmp_path, monkeypatch):
        lp, mp = self._forged_files(runner, tmp_path)
        calls = []
        equation = codes.satisfies_isometry_equation
        monkeypatch.setattr(
            codes, "satisfies_isometry_equation", lambda V, U: calls.append(1) or equation(V, U)
        )
        result = runner.invoke(main, ["check", "--lambda", lp, "--mu", mp, "--json"])
        assert result.exit_code == 0 and json.loads(result.output)["isometry"] is True
        assert len(calls) == 1

    def test_fractional_code_file_exit_4(self, runner, tmp_path):
        path = tmp_path / "frac.json"
        path.write_text(json.dumps({"q": 2.9, "m": 1, "k": 1, "t": 1, "generators": [[[1]]]}))
        result = runner.invoke(main, ["check", "--lambda", str(path), "--mu", str(path)])
        assert result.exit_code == 4

    def test_incompatible_shapes_exit_4(self, runner, tmp_path):
        lp, _ = self._forged_files(runner, tmp_path)
        other = tmp_path / "other.json"
        save_code(
            Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 1), [np.array([[1]])]), other
        )
        result = runner.invoke(main, ["check", "--lambda", lp, "--mu", str(other)])
        assert result.exit_code == 4


class TestMinlenCommand:
    def test_defaults_q2_m1(self, runner):
        result = runner.invoke(main, ["minlen", "--q", "2", "--m", "1", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["min_length"] == 3 and report["exhausted"]

    def test_q3_m1(self, runner):
        result = runner.invoke(main, ["minlen", "--q", "3", "--m", "1", "--json"])
        report = json.loads(result.output)
        assert report["min_length"] == 4

    def test_q2_m2_bound_20(self, runner):
        result = runner.invoke(main, ["minlen", "--q", "2", "--m", "2", "--bound", "20", "--json"])
        report = json.loads(result.output)
        assert report["min_length"] == 15 and report["exhausted"]

    def test_cyclic_only_is_empty(self, runner):
        result = runner.invoke(main, ["minlen", "--q", "2", "--m", "1", "--cyclic-only", "--json"])
        report = json.loads(result.output)
        assert report["min_length"] is None and report["exhausted"]


class TestMdsCommand:
    def test_repetition_report(self, runner, tmp_path):
        path = tmp_path / "rep.json"
        save_code(
            Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 1), [np.array([[1]])] * 3), path
        )
        result = runner.invoke(main, ["mds", "--code", str(path), "--scan", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["is_mds"] and report["kappa"] == 1
        assert report["unextendable"] == 0
        assert report["theorem_violations"] == 0

    def test_parity_kappa2_scan_runs_without_extension_check(self, runner, tmp_path):
        cols = [np.array([[1], [0]]), np.array([[0], [1]]), np.array([[1], [1]])]
        path = tmp_path / "parity.json"
        save_code(Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 2), cols), path)
        result = runner.invoke(main, ["mds", "--code", str(path), "--scan", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["is_mds"] and report["kappa"] == 2
        assert report["unextendable"] == 0
        assert "theorem_violations" not in report

    def test_forged_code_not_mds(self, runner, tmp_path):
        lp = str(tmp_path / "l.json")
        runner.invoke(
            main,
            ["forge", "--q", "2", "--m", "1", "--k", "2",
             "--out-lambda", lp, "--out-mu", str(tmp_path / "m.json")],
        )
        result = runner.invoke(main, ["mds", "--code", lp, "--json"])
        assert result.exit_code == 0
        assert not json.loads(result.output)["is_mds"]


class TestIdentitiesCommand:
    def test_q2_tmax8(self, runner):
        result = runner.invoke(main, ["identities", "--q", "2", "--tmax", "8"])
        assert result.exit_code == 0
        assert result.output.count("pass") == 8

    def test_json_report(self, runner):
        result = runner.invoke(main, ["identities", "--q", "5", "--tmax", "4", "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["all_pass"]


class TestBudgetEnv:
    def test_budget_exit_code(self, runner, tmp_path, monkeypatch):
        from modcode.codes import module_elements
        from modcode.linalg import enumerate_subspaces, subspaces_up_to_dim

        monkeypatch.setenv("MODCODE_BUDGET", "2")
        module_elements.cache_clear()
        enumerate_subspaces.cache_clear()
        subspaces_up_to_dim.cache_clear()
        result = runner.invoke(
            main,
            ["forge", "--q", "2", "--m", "2", "--k", "3",
             "--out-lambda", str(tmp_path / "l"), "--out-mu", str(tmp_path / "m")],
        )
        assert result.exit_code == 3
        monkeypatch.delenv("MODCODE_BUDGET")
        module_elements.cache_clear()
        enumerate_subspaces.cache_clear()
        subspaces_up_to_dim.cache_clear()

    def test_mds_budget_exit_code(self, runner, tmp_path, monkeypatch):
        cols = [np.eye(3, dtype=int)[:, [i]] for i in range(3)] + [np.ones((3, 1), dtype=int)]
        path = tmp_path / "parity3.json"
        save_code(Code(Alphabet(3, 1, 1), ModuleSpace(3, 1, 3), cols), path)
        monkeypatch.setenv("MODCODE_BUDGET", "20")
        result = runner.invoke(main, ["mds", "--code", str(path)])
        assert result.exit_code == 3
