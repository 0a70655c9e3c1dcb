"""Code-file JSON round trips and command-line behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import modcode
from modcode import Alphabet, Code, ModuleSpace, load_code, minimal_counterexample, save_code
from modcode.cli import main
from modcode.errors import DimensionMismatchError
from modcode.linalg import SubspaceLattice


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

    @pytest.mark.parametrize(
        "generators",
        [
            5,
            "1",
            {"0": [[1]]},
            [],
            [[[1]], [[1], [0]]],
            [[[1]], [[[1]]]],
            [[[1]], [["1"]]],
            [[[1]], [[None]]],
            [[[1]], [[-1]]],
            [[[1]], [[2**70]]],
        ],
        ids=["int", "str", "dict", "empty", "ragged", "nested", "string_entry", "null_entry",
             "negative", "huge"],
    )
    def test_rejects_malformed_generators(self, tmp_path, generators):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"q": 2, "m": 1, "k": 1, "t": 1, "generators": generators}))
        with pytest.raises(DimensionMismatchError):
            load_code(path)

    def test_one_generator_per_line(self, tmp_path):
        lam, _ = minimal_counterexample(2, 2, 3)
        path = tmp_path / "lam.json"
        save_code(lam, path)
        text = path.read_text()
        assert len(text.splitlines()) == lam.length + 2
        assert json.loads(text) == {
            "q": 2, "m": 2, "k": 3, "t": 3,
            "generators": [col.matrix.tolist() for col in lam.columns],
        }
        assert load_code(path) == lam

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

    def test_forge_rejects_modulus_beyond_int64(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["forge", "--q", "4294967311", "--m", "1", "--k", "2",
             "--out-lambda", str(tmp_path / "l.json"), "--out-mu", str(tmp_path / "m.json")],
        )
        assert result.exit_code == 4

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
        rows = []
        decide = SubspaceLattice.balanced_rows
        monkeypatch.setattr(
            SubspaceLattice,
            "balanced_rows",
            lambda self, supports, W: rows.append(len(W)) or decide(self, supports, W),
        )
        result = runner.invoke(main, ["check", "--lambda", lp, "--mu", mp, "--json"])
        assert result.exit_code == 0 and json.loads(result.output)["isometry"] is True
        assert rows == [1]

    def test_fractional_code_file_exit_4(self, runner, tmp_path):
        path = tmp_path / "frac.json"
        path.write_text(json.dumps({"q": 2.9, "m": 1, "k": 1, "t": 1, "generators": [[[1]]]}))
        result = runner.invoke(main, ["check", "--lambda", str(path), "--mu", str(path)])
        assert result.exit_code == 4

    def test_generators_not_a_list_exit_4(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"q": 2, "m": 1, "k": 1, "t": 1, "generators": 5}))
        result = runner.invoke(main, ["check", "--lambda", str(path), "--mu", str(path)])
        assert result.exit_code == 4

    def test_modulus_beyond_int64_exit_4(self, runner, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"q": 4294967311, "m": 1, "k": 1, "t": 1, "generators": [[[1]]]}))
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


    def test_non_injective_code_exit_2(self, runner, tmp_path):
        path = tmp_path / "zero.json"
        save_code(Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 1), [np.zeros((1, 1), dtype=int)]), path)
        result = runner.invoke(main, ["mds", "--code", str(path), "--scan"])
        assert result.exit_code == 2
        assert "not injective" in result.output

    def test_bad_code_file_exit_4(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"q": 2, "m": 1, "k": 1, "t": 1, "generators": [[[2]]]}))
        result = runner.invoke(main, ["mds", "--code", str(path), "--scan"])
        assert result.exit_code == 4


class TestExitCodes:
    @pytest.mark.parametrize("command", ["forge", "minlen", "identities"])
    def test_non_prime_q_exit_4(self, runner, tmp_path, command):
        args = {
            "forge": ["--q", "4", "--m", "1", "--k", "2",
                      "--out-lambda", str(tmp_path / "l"), "--out-mu", str(tmp_path / "m")],
            "minlen": ["--q", "4", "--m", "1"],
            "identities": ["--q", "4", "--tmax", "2"],
        }[command]
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 4
        assert result.output.startswith("error: ")

    def test_first_matching_class_wins(self):
        from modcode.cli import EXIT_CODES
        from modcode.errors import EnumerationBudgetError, ModcodeError

        classes = [cls for cls, _ in EXIT_CODES]
        # Every subclass precedes its base class, so the most specific mapping wins.
        for i, cls in enumerate(classes):
            assert not any(issubclass(later, cls) for later in classes[i + 1:])
        assert dict(EXIT_CODES)[EnumerationBudgetError] == 3
        assert dict(EXIT_CODES)[ModcodeError] == 2


class TestLeanImports:
    def test_cli_import_leaves_unused_modules_unloaded(self):
        src = str(Path(modcode.__file__).resolve().parent.parent)
        script = (
            "import sys, modcode.cli, modcode\n"
            "loaded = sorted(m for m in ('modcode.forge', 'modcode.mds', 'modcode.fourier')"
            " if m in sys.modules)\n"
            "assert not loaded, loaded\n"
            "for name in modcode.__all__:\n"
            "    getattr(modcode, name)\n"
            "from modcode import codes, forge, fourier, io, linalg, mds\n"
            "assert modcode.DomainRejectionError is modcode.errors.DomainRejectionError\n"
            "print(len(modcode.__all__))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == len(modcode.__all__) > 60

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            modcode.no_such_name  # noqa: B018
        assert "SolutionPair" in dir(modcode)


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
