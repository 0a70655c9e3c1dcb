"""Code-file JSON round trips and command-line behavior."""

import ast
import collections
import functools
import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modcode
from modcode import Alphabet, Code, ModuleSpace, load_code, minimal_counterexample, save_code
from modcode.errors import DimensionMismatchError
from modcode.linalg import (Record, Subspace, SubspaceLattice, gaussian_binomial, is_prime,
                            matrix_rank)

from conftest import regulus_code
from references import code_to_dict


def loaded_code(tmp_path):
    """A code read back by load_code, whose equal generators are equal but separate tuples."""
    path = tmp_path / "in.json"
    G, H = [[1, 2], [0, 1]], [[0, 0], [1, 1]]
    path.write_text(json.dumps({"q": 3, "m": 1, "k": 2, "t": 2, "generators": [G, H, G, G, H]}))
    code = load_code(path)
    first, _, again, *_ = code.generators
    assert first == again and first is not again
    return code


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
            "generators": [[list(row) for row in col.matrix] for col in lam.columns],
        }
        assert load_code(path) == lam

    @pytest.mark.parametrize(
        "code",
        [
            minimal_counterexample(3, 2, 3)[1],
            Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 1), [np.array([[1]])] * 3),
            Code(Alphabet(5, 1, 3), ModuleSpace(5, 1, 1), [np.array([[4, 0, 1]])]),
            Code(Alphabet(3, 2, 1), ModuleSpace(3, 2, 3), [np.array([[1], [2], [0]])] * 2),
            Code(Alphabet(2, 1, 2), ModuleSpace(2, 1, 0), [np.zeros((0, 2), dtype=int)] * 3),
            Code(Alphabet(3, 1, 4), ModuleSpace(3, 1, 2), [np.zeros((2, 4), dtype=int)] * 4),
            loaded_code,
        ],
        ids=["forged_3_2_3", "t1_k1", "one_generator", "column_generators", "t0", "all_zero",
             "loaded"],
    )
    def test_file_matches_per_generator_encoding(self, tmp_path, code):
        if callable(code):
            code = code(tmp_path)
        path = tmp_path / "code.json"
        save_code(code, path)
        data = code_to_dict(code)
        generators = ",\n".join(map(json.dumps, data.pop("generators")))
        expected = json.dumps(data)[:-1] + f', "generators": [\n{generators}\n]}}\n'
        assert path.read_text() == expected
        assert load_code(path) == code

    def test_nesting_past_recursion_limit_exit_4(self, cli, tmp_path):
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text('{"q": 2, "m": 1, "k": 1, "t": 1, "generators": '
                        + "[" * depth + "]" * depth + "}")
        with pytest.raises(DimensionMismatchError, match="cannot read code file"):
            load_code(path)
        result = cli(["mds", "--code", str(path)])
        assert result.exit_code == 4 and "cannot read code file" in result.output

    @pytest.mark.parametrize("target", ["missing/l.json", "."], ids=["missing-dir", "directory"])
    def test_unwritable_output_exit_4(self, cli, tmp_path, target):
        path = str(tmp_path / target)
        with pytest.raises(DimensionMismatchError, match="cannot write code file"):
            save_code(minimal_counterexample(2, 1, 2)[0], path)
        result = cli(["forge", "--q", "2", "--m", "1", "--k", "2",
                      "--out-lambda", path, "--out-mu", str(tmp_path / "m.json")])
        assert result.exit_code == 4 and "cannot write code file" in result.output

    def test_rejects_non_prime(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"q": 4, "m": 1, "k": 1, "t": 1, "generators": [[[1]]]}))
        with pytest.raises(ValueError):
            load_code(path)


class TestForgeCommand:
    def test_forge_q2_m1(self, cli, tmp_path):
        lp, mp = str(tmp_path / "l.json"), str(tmp_path / "m.json")
        result = cli(
            ["forge", "--q", "2", "--m", "1", "--k", "2", "--out-lambda", lp, "--out-mu", mp]
        )
        assert result.exit_code == 0
        assert "N: 3" in result.output
        assert "isometry: True" in result.output
        assert "extendable: False" in result.output
        assert load_code(lp).length == 3

    def test_forge_q2_m2_length_15(self, cli, tmp_path):
        lp, mp = str(tmp_path / "l.json"), str(tmp_path / "m.json")
        result = cli(
            ["forge", "--q", "2", "--m", "2", "--k", "3", "--out-lambda", lp, "--out-mu", mp, "--json"],
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["N"] == 15 and report["isometry"] and not report["extendable"]

    def test_forge_rejects_k_le_m(self, cli, tmp_path):
        result = cli(
            ["forge", "--q", "2", "--m", "1", "--k", "1",
             "--out-lambda", str(tmp_path / "l"), "--out-mu", str(tmp_path / "m")],
        )
        assert result.exit_code == 2
        assert "extension property" in result.output

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_forge_rejects_k_below_1_as_input(self, cli, tmp_path, k):
        result = cli(
            ["forge", "--q", "2", "--m", "1", "--k", k,
             "--out-lambda", str(tmp_path / "l"), "--out-mu", str(tmp_path / "m")],
        )
        assert result.exit_code == 4
        assert "extension property" not in result.output

    def test_forge_refuses_one_file_for_both_codes(self, cli, tmp_path):
        path = tmp_path / "P.json"
        result = cli(
            ["forge", "--q", "2", "--m", "1", "--k", "2",
             "--out-lambda", str(path), "--out-mu", os.path.join(tmp_path, ".", "P.json")],
        )
        assert result.exit_code == 4
        assert result.output.startswith("error: ")
        assert not path.exists()

    def test_forge_rejects_modulus_beyond_int64(self, cli, tmp_path):
        result = cli(
            ["forge", "--q", "4294967311", "--m", "1", "--k", "2",
             "--out-lambda", str(tmp_path / "l.json"), "--out-mu", str(tmp_path / "m.json")],
        )
        assert result.exit_code == 4

    def test_forge_rejects_non_prime(self, cli, tmp_path):
        result = cli(
            ["forge", "--q", "4", "--m", "1", "--k", "2",
             "--out-lambda", str(tmp_path / "l"), "--out-mu", str(tmp_path / "m")],
        )
        assert result.exit_code == 4


class TestCheckCommand:
    def _forged_files(self, cli, tmp_path):
        lp, mp = str(tmp_path / "l.json"), str(tmp_path / "m.json")
        cli(["forge", "--q", "2", "--m", "1", "--k", "2", "--out-lambda", lp, "--out-mu", mp])
        return lp, mp

    def test_forged_pair_verdicts(self, cli, tmp_path):
        lp, mp = self._forged_files(cli, tmp_path)
        result = cli(["check", "--lambda", lp, "--mu", mp, "--oracle", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["isometry"] and report["isometry_oracle"]
        assert report["extendable"] is False
        # Exactly one zero column on the lambda side of the diff.
        lam_only = report["kernel_diff"]["lambda_only"]
        full_entries = [mult for basis, mult in lam_only if len(basis) == 2]
        assert full_entries == [1]

    def test_identical_files_extendable(self, cli, tmp_path):
        lp, _ = self._forged_files(cli, tmp_path)
        result = cli(["check", "--lambda", lp, "--mu", lp, "--json"])
        report = json.loads(result.output)
        assert result.exit_code == 0
        assert report["isometry"] and report["extendable"]
        assert "monomial_map" in report

    def test_non_isometric_pair_reports_na(self, cli, tmp_path):
        lp, mp = str(tmp_path / "l.json"), str(tmp_path / "m.json")
        space, alphabet = ModuleSpace(2, 1, 1), Alphabet(2, 1, 1)
        save_code(Code(alphabet, space, [np.array([[1]])] * 2), lp)
        save_code(Code(alphabet, space, [np.array([[1]]), np.array([[0]])]), mp)
        result = cli(["check", "--lambda", lp, "--mu", mp, "--oracle", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert list(report)[:4] == ["command", "isometry", "isometry_oracle", "extendable"]
        assert report["isometry"] is False and report["isometry_oracle"] is False
        assert report["extendable"] == "NA"

    def test_criterion_runs_once(self, cli, tmp_path, monkeypatch):
        lp, mp = self._forged_files(cli, tmp_path)
        rows = []
        decide = SubspaceLattice.balanced_rows
        monkeypatch.setattr(
            SubspaceLattice,
            "balanced_rows",
            lambda self, supports, W: rows.append(len(W)) or decide(self, supports, W),
        )
        result = cli(["check", "--lambda", lp, "--mu", mp, "--json"])
        assert result.exit_code == 0 and json.loads(result.output)["isometry"] is True
        assert rows == [1]

    def test_fractional_code_file_exit_4(self, cli, tmp_path):
        path = tmp_path / "frac.json"
        path.write_text(json.dumps({"q": 2.9, "m": 1, "k": 1, "t": 1, "generators": [[[1]]]}))
        result = cli(["check", "--lambda", str(path), "--mu", str(path)])
        assert result.exit_code == 4

    def test_generators_not_a_list_exit_4(self, cli, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"q": 2, "m": 1, "k": 1, "t": 1, "generators": 5}))
        result = cli(["check", "--lambda", str(path), "--mu", str(path)])
        assert result.exit_code == 4

    def test_modulus_beyond_int64_exit_4(self, cli, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"q": 4294967311, "m": 1, "k": 1, "t": 1, "generators": [[[1]]]}))
        result = cli(["check", "--lambda", str(path), "--mu", str(path)])
        assert result.exit_code == 4

    def test_incompatible_shapes_exit_4(self, cli, tmp_path):
        lp, _ = self._forged_files(cli, tmp_path)
        other = tmp_path / "other.json"
        save_code(
            Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 1), [np.array([[1]])]), other
        )
        result = cli(["check", "--lambda", lp, "--mu", str(other)])
        assert result.exit_code == 4

    def test_codes_of_different_lengths_decided(self, cli, tmp_path):
        short, long = str(tmp_path / "short.json"), str(tmp_path / "long.json")
        space, alphabet = ModuleSpace(2, 1, 1), Alphabet(2, 1, 1)
        save_code(Code(alphabet, space, [np.array([[1]])]), short)
        save_code(Code(alphabet, space, [np.array([[1]]), np.array([[0]])]), long)
        for lp, mp, longer in [(short, long, "mu_only"), (long, short, "lambda_only")]:
            result = cli(["check", "--lambda", lp, "--mu", mp, "--oracle", "--json"])
            assert result.exit_code == 0
            report = json.loads(result.output)
            assert report["isometry"] is True and report["isometry_oracle"] is True
            assert report["extendable"] is False
            # The zero column's kernel is the full space, on the longer side only.
            expected = {"lambda_only": [], "mu_only": []}
            expected[longer] = [[[[1]], 1]]
            assert report["kernel_diff"] == expected


class TestMinlenCommand:
    def test_defaults_q2_m1(self, cli):
        result = cli(["minlen", "--q", "2", "--m", "1", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["min_length"] == 3 and report["exhausted"]

    def test_q3_m1(self, cli):
        result = cli(["minlen", "--q", "3", "--m", "1", "--json"])
        report = json.loads(result.output)
        assert report["min_length"] == 4

    def test_q2_m2_bound_20(self, cli):
        result = cli(["minlen", "--q", "2", "--m", "2", "--bound", "20", "--json"])
        report = json.loads(result.output)
        assert report["min_length"] == 15 and report["exhausted"]

    def test_cyclic_only_is_empty(self, cli):
        result = cli(["minlen", "--q", "2", "--m", "1", "--cyclic-only", "--json"])
        report = json.loads(result.output)
        assert report["min_length"] is None and report["exhausted"]

    def test_node_budget_exits_3(self, cli, monkeypatch):
        # The search needs 11,871 nodes, one vector of the budget each.
        monkeypatch.setenv("MODCODE_BUDGET", "1000")
        result = cli(["minlen", "--q", "2", "--m", "1", "--t", "3", "--bound", "4", "--json"])
        assert result.exit_code == 3
        assert json.loads(result.output)["exhausted"] is False


class TestMdsCommand:
    def test_repetition_report(self, cli, tmp_path):
        path = tmp_path / "rep.json"
        save_code(
            Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 1), [np.array([[1]])] * 3), path
        )
        result = cli(["mds", "--code", str(path), "--scan", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["is_mds"] and report["kappa"] == 1
        assert report["unextendable"] == 0
        assert report["theorem_violations"] == 0

    def test_parity_kappa2_scan_runs_without_extension_check(self, cli, tmp_path):
        cols = [np.array([[1], [0]]), np.array([[0], [1]]), np.array([[1], [1]])]
        path = tmp_path / "parity.json"
        save_code(Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 2), cols), path)
        result = cli(["mds", "--code", str(path), "--scan", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["is_mds"] and report["kappa"] == 2
        assert report["unextendable"] == 0
        assert "theorem_violations" not in report

    def test_forged_code_not_mds(self, cli, tmp_path):
        lp = str(tmp_path / "l.json")
        cli(
            ["forge", "--q", "2", "--m", "1", "--k", "2",
             "--out-lambda", lp, "--out-mu", str(tmp_path / "m.json")],
        )
        result = cli(["mds", "--code", lp, "--json"])
        assert result.exit_code == 0
        assert not json.loads(result.output)["is_mds"]

    def test_surjective_non_mds_code_reports_subset_witness(self, cli, tmp_path):
        cols = [[[1], [0]], [[0], [1]], [[1], [1]], [[1], [0]]]
        path = tmp_path / "binary.json"
        save_code(Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 2), cols), path)
        result = cli(["mds", "--code", str(path), "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert not report["is_mds"] and report["kappa"] == 3
        assert report["witnesses"] == [0, 1, 2]
        block = np.concatenate([np.array(cols[i]) for i in report["witnesses"]], axis=1)
        assert matrix_rank(block, 2) < report["kappa"]

    def test_more_subsets_than_budget_decided(self, cli, tmp_path, monkeypatch):
        path = tmp_path / "rep20.json"
        save_code(Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 1), [np.array([[1]])] * 20), path)
        monkeypatch.setenv("MODCODE_BUDGET", "10")
        result = cli(["mds", "--code", str(path), "--json"])
        assert result.exit_code == 0 and json.loads(result.output)["is_mds"] is True

    def test_forty_row_module_answers(self, cli, tmp_path):
        # 2^80 source elements, which no budget lists; d comes from the 3 points of PG(1, 2).
        path = tmp_path / "m40.json"
        path.write_text(json.dumps({"q": 2, "m": 40, "k": 1, "t": 2,
                                    "generators": [[[1], [0]], [[0], [1]], [[1], [1]]]}))
        result = cli(["mds", "--code", str(path), "--json"])
        assert result.exit_code == 0, result.output
        assert json.loads(report_bytes(result.output)) == {
            "command": "mds", "n": 3, "d": 2, "kappa": 2, "is_mds": True, "witnesses": None}

    def test_regulus_scan_reports_no_violation(self, cli, tmp_path):
        # Half of its isometries do not extend, but kappa = 2 is outside the theorem.
        path = tmp_path / "regulus3.json"
        save_code(regulus_code(3), path)
        result = cli(["mds", "--code", str(path), "--scan", "--json"])
        assert result.exit_code == 0, result.output
        assert json.loads(report_bytes(result.output)) == {
            "command": "mds", "n": 4, "d": 3, "kappa": 2, "is_mds": True, "witnesses": None,
            "isometries": 254_803_968, "unextendable": 127_401_984}

    def test_non_injective_code_exit_2(self, cli, tmp_path):
        path = tmp_path / "zero.json"
        save_code(Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 1), [np.zeros((1, 1), dtype=int)]), path)
        result = cli(["mds", "--code", str(path), "--scan"])
        assert result.exit_code == 2
        assert "not injective" in result.output

    def test_bad_code_file_exit_4(self, cli, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"q": 2, "m": 1, "k": 1, "t": 1, "generators": [[[2]]]}))
        result = cli(["mds", "--code", str(path), "--scan"])
        assert result.exit_code == 4

    def test_f5_parity_census(self, cli, tmp_path):
        # 125^4 generator tuples, beyond the default budget of a brute-force scan.
        path = tmp_path / "p5.json"
        path.write_text(json.dumps({"q": 5, "m": 1, "k": 1, "t": 3, "generators": PARITY}))
        result = cli(["mds", "--code", str(path), "--scan", "--json"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert (report["isometries"], report["unextendable"], report["theorem_violations"]) == (
            6144, 0, 0)

    def test_scan_runs_is_mds_once(self, cli, tmp_path, monkeypatch):
        from modcode import mds

        path = tmp_path / "parity3.json"
        path.write_text(json.dumps({"q": 3, "m": 1, "k": 1, "t": 3, "generators": PARITY}))
        calls = []
        is_mds = mds.is_mds
        monkeypatch.setattr(mds, "is_mds", lambda code: calls.append(code) or is_mds(code))
        result = cli(["mds", "--code", str(path), "--scan", "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["theorem_violations"] == 0
        assert len(calls) == 1

    def test_scan_reports_a_second_census_class_as_a_violation(self, cli, tmp_path, monkeypatch):
        from modcode import mds

        path = tmp_path / "parity3.json"
        path.write_text(json.dumps({"q": 3, "m": 1, "k": 1, "t": 3, "generators": PARITY}))
        census = mds.isometry_census

        def with_a_second_class(code):
            c = census(code)
            return mds.IsometryCensus(c.supports, c.classes + ((0,) * len(c.supports),),
                                      c.counts + (1,), c.own)

        monkeypatch.setattr(mds, "isometry_census", with_a_second_class)
        result = cli(["mds", "--code", str(path), "--scan", "--json"])
        assert result.exit_code == 5
        report = json.loads(result.output)
        assert (report["isometries"], report["unextendable"], report["theorem_violations"]) == (
            385, 1, 1)

    @pytest.mark.parametrize("name, counts", [
        ("parity3_4_3", "isometries: 384\nunextendable: 0"),
        ("forged_2_1_2", "isometries: 270\nunextendable: 162"),
    ], ids=["parity3", "forged212"])
    def test_scan_leaves_forge_unloaded(self, tmp_path, name, counts):
        # mds reads the theorem verdict off the census, so it builds no image codes.
        path = tmp_path / "code.json"
        path.write_text(json.dumps(MDS_SCAN_CODES[name]))
        script = ("import sys\nfrom modcode.cli import main\n"
                  f"assert main(['mds', '--code', {str(path)!r}, '--scan']) == 0\n"
                  "assert 'modcode.forge' not in sys.modules\n")
        src = str(Path(modcode.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert counts in proc.stdout

    @pytest.mark.parametrize("command", ["mds", "forge"])
    def test_criterion_rejecting_a_known_isometry_exit_5(self, cli, tmp_path, monkeypatch, command):
        # A scanned image is an isometry by brute force, a forged pair by construction.
        path = tmp_path / "rep.json"
        save_code(Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 1), [np.array([[1]])] * 3), path)
        argv = {"mds": ["mds", "--code", str(path), "--scan"],
                "forge": ["forge", "--q", "2", "--m", "1", "--k", "2", "--out-lambda",
                          str(tmp_path / "l.json"), "--out-mu", str(tmp_path / "m.json")]}
        decide = SubspaceLattice.balanced_rows

        def reject_first(self, supports, W):
            rows = decide(self, supports, W).copy()
            rows[0] = False
            return rows

        monkeypatch.setattr(SubspaceLattice, "balanced_rows", reject_first)
        result = cli(argv[command])
        assert result.exit_code == 5 and "error:" in result.output


class TestExitCodes:
    @pytest.mark.parametrize("command", ["forge", "minlen", "identities"])
    def test_non_prime_q_exit_4(self, cli, tmp_path, command):
        args = {
            "forge": ["--q", "4", "--m", "1", "--k", "2",
                      "--out-lambda", str(tmp_path / "l"), "--out-mu", str(tmp_path / "m")],
            "minlen": ["--q", "4", "--m", "1"],
            "identities": ["--q", "4", "--tmax", "2"],
        }[command]
        result = cli([command, *args])
        assert result.exit_code == 4
        assert result.output.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["minlen", "--q", "2", "--m", "0"],
            ["identities", "--q", "3", "--tmax", "0"],
            ["identities", "--q", "3", "--tmax", "-2"],
        ],
        ids=["minlen-m0", "identities-tmax0", "identities-tmax-negative"],
    )
    def test_empty_range_exit_4(self, cli, argv):
        result = cli(argv)
        assert result.exit_code == 4
        assert result.output.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["forge", "--q", "2", "--m", "0", "--k", "3"], "need m >= 1, got 0"),
            (["minlen", "--q", "2", "--m", "0", "--t", "2"], "need m >= 1, got 0"),
            (["minlen", "--q", "2", "--m", "1", "--t", "-1"], "need t >= 0, got -1"),
        ],
        ids=["forge-m0", "minlen-m0", "minlen-t-negative"],
    )
    def test_names_the_parameter_that_failed(self, cli, tmp_path, argv, message):
        if argv[0] == "forge":
            argv = [*argv, "--out-lambda", str(tmp_path / "l"), "--out-mu", str(tmp_path / "m")]
        result = cli(argv)
        assert result.exit_code == 4
        assert result.output == f"error: {message}\n"

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
        assert int(proc.stdout) == len(modcode.__all__) == 47

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            modcode.no_such_name  # noqa: B018

    def test_no_unused_imports(self):
        root = Path(modcode.__file__).resolve().parent
        unused = []
        for path in sorted([*root.glob("*.py"), *Path(__file__).parent.glob("*.py")]):
            source = path.read_text()
            lines = source.splitlines()
            tree = ast.parse(source)
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(f"{path.name}:{alias.lineno} {name}")
        assert not unused


class TestBenchNames:
    def test_traced_replay_names_resolve(self):
        """Every name the traced benchmark replay probes or reads exists.

        The probes are read from bench/traced.py with ast, without importing
        the bench; so are its module-attribute reads such as ``linalg.contains``.
        """
        traced = Path(__file__).resolve().parent.parent / "bench" / "traced.py"
        tree = ast.parse(traced.read_text())
        probes = next(
            node.value for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["PROBES"]
        )
        names = {(module, attr) for module, attr, _ in ast.literal_eval(probes)}
        home = {name: f"modcode.{name}" for name in ("codes", "forge", "fourier", "io", "linalg", "mds")}
        home["modcode"] = "modcode"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in home:
                names.add((home[node.value.id], node.attr))
        # Read on objects, not modules, so the walk above cannot find them.
        names |= {("modcode.codes", "Code.columns"), ("modcode.codes", "Hom.kernel")}
        assert {
            ("modcode.mds", "TheoremViolation"),
            ("modcode.linalg", "contains"),
            ("modcode.linalg", "subspaces_up_to_dim"),
            ("modcode.linalg", "check_prime"),
        } <= names
        for module, path in sorted(names):
            functools.reduce(getattr, path.split("."), importlib.import_module(module))


def ast_names(node):
    """Every Name, Attribute, import alias and string constant under an ast node."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield from child.name.split(".")
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value


# Package definitions that nothing in src/modcode or bench/ uses, each kept
# as an independent reference that the named test compares the package with.
REFERENCES = {
    "apply_monomial": "test_acceptance.py::test_criterion_7_monomial_roundtrip",
    "solution_to_codes":
        "test_forge.py::TestSolutionToCodes::test_covering_route_matches_minimal_pair",
}


def unused_definitions(root: Path, users=()) -> dict[str, str]:
    """The functions, classes and methods of the package at root that nothing uses.

    Returns ``{name: "file:line"}``.  A top-level definition of module mod
    is used only where a binding reaches it, outside its own body: a Name in
    mod, an import of it from mod, ``mod.name``, ``<package>.name`` or an
    import from the package where its ``_EXPORTS`` send the name to mod, or
    a ``("<package>.mod", "name", ...)`` probe tuple.  A method is used
    where any Name, Attribute, import alias or string constant outside its
    own body names it.  The package's modules and the ``users`` files are
    searched; the ``_EXPORTS`` of ``__init__.py`` are not uses, and dunders
    are exempt.
    """
    package = root.name
    trees = {path: ast.parse(path.read_text()) for path in [*sorted(root.glob("*.py")), *users]}
    init = trees.get(root / "__init__.py", ast.Module(body=[]))
    exports = [node for node in init.body
               if [getattr(t, "id", None) for t in getattr(node, "targets", [])] == ["_EXPORTS"]]
    home = {name: mod for node in exports
            for mod, names in ast.literal_eval(node.value).items() for name in names}
    uses = collections.Counter()
    bound = collections.Counter()
    for path, tree in trees.items():
        here = path.stem if path.parent == root else None
        for node in tree.body:
            if node in exports:
                continue
            uses.update(ast_names(node))
            for child in ast.walk(node):
                if isinstance(child, ast.Name):
                    bound[here, child.id] += 1
                elif isinstance(child, ast.ImportFrom):
                    source = child.module if child.level else child.module.removeprefix(package + ".")
                    for alias in child.names:
                        mod = home.get(alias.name) if child.module == package else source
                        bound[mod, alias.name] += 1
                elif isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                    owner = child.value.id
                    bound[home.get(child.attr) if owner == package else owner, child.attr] += 1
                elif isinstance(child, ast.Tuple) and len(child.elts) >= 2:
                    head = [getattr(e, "value", None) for e in child.elts[:2]]
                    if all(isinstance(v, str) for v in head) and head[0].startswith(package + "."):
                        bound[head[0][len(package) + 1 :], head[1]] += 1
    unused = {}
    for path, tree in trees.items():
        if path.parent != root:
            continue
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if not isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    continue
                name = item.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if item is node:
                    inside = sum(1 for c in ast.walk(item) if isinstance(c, ast.Name) and c.id == name)
                    used = bound[path.stem, name] > inside
                else:
                    used = uses[name] > sum(1 for n in ast_names(item) if n == name)
                if not used:
                    unused[name] = f"{path.name}:{item.lineno}"
    return unused


class TestNoDeadCode:
    def test_every_definition_is_named_elsewhere(self):
        """The package definitions without a use are exactly the keys of REFERENCES."""
        root = Path(modcode.__file__).resolve().parent
        unused = unused_definitions(root, sorted((root.parent.parent / "bench").glob("*.py")))
        dead = sorted(f"{where} {name}" for name, where in unused.items() if name not in REFERENCES)
        stale = sorted(REFERENCES.keys() - unused.keys())
        assert not dead and not stale, {"dead": dead, "stale references": stale}

    def test_a_shared_name_is_not_a_use(self, tmp_path):
        # b's local f is not bound to a's function, so a.f is dead although f is named.
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "a.py").write_text("def f():\n    return 0\n\n\ndef g():\n    return 1\n")
        (root / "b.py").write_text("from .a import g\n\nf = 1\nprint(f, g())\n")
        assert unused_definitions(root) == {"f": "a.py:1"}

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_reference_is_used_by_its_test(self, name):
        """The test a REFERENCES entry names uses the definition, itself or in a helper."""
        file, *path = REFERENCES[name].split("::")
        tree = ast.parse((Path(__file__).parent / file).read_text())
        node = tree
        for part in path:
            node = next((n for n in node.body if getattr(n, "name", None) == part), None)
            assert node is not None, f"{REFERENCES[name]} does not exist"
        names = set(ast_names(node))
        helpers = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        names.update(*(ast_names(helpers[h]) for h in names & helpers.keys()))
        assert name in names


class TestOneRecordType:
    @pytest.mark.parametrize("method", ["__setattr__", "__eq__", "__hash__"])
    def test_only_record_defines(self, method):
        """Immutability, equality and hashing are written once, in linalg.Record."""
        root = Path(modcode.__file__).resolve().parent
        owners = sorted(
            f"{path.stem}.{node.name}"
            for path in root.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            and any(getattr(item, "name", None) == method for item in node.body)
        )
        assert owners == ["linalg.Record"]

    def test_subspace_is_a_record_with_a_cached_point_set(self):
        assert issubclass(Subspace, Record)
        S = Subspace(2, 2, ((1, 1),))
        assert S._fields == ("q", "ambient", "basis") and S._points is None
        assert S.points == 0b100 and S._points == 0b100
        assert S == Subspace(2, 2, ((1, 1),)) and hash(S) == hash(Subspace(2, 2, ((1, 1),)))


class TestOneCacheConvention:
    def test_only_budget_imports_lru_cache(self):
        """Every cache is a budget.cached one, keyed on MODCODE_BUDGET."""
        root = Path(modcode.__file__).resolve().parent
        importers = sorted(
            path.stem
            for path in root.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            and any(alias.name == "lru_cache" for alias in node.names)
            or isinstance(node, ast.Attribute) and node.attr == "lru_cache"
        )
        assert importers == ["budget"]


def python(*args, timeout=None):
    """Run a fresh interpreter on these sources, with MODCODE_BUDGET unset."""
    src = str(Path(modcode.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "MODCODE_BUDGET"}
    return subprocess.run([sys.executable, *args], env=dict(env, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=timeout)


# Runs every command through modcode.cli.main with numpy unimportable and
# prints each exit code and --json report, then the modules it loaded.
NUMPY_BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from modcode.cli import main
work = sys.argv[1]
lam, mu = work + "/lam.json", work + "/mu.json"
for argv in (
    ["forge", "--q", "2", "--m", "1", "--k", "2", "--out-lambda", lam, "--out-mu", mu],
    ["check", "--lambda", lam, "--mu", mu, "--oracle"],
    ["mds", "--code", lam, "--scan"],
    ["minlen", "--q", "2", "--m", "1"],
    ["identities", "--q", "3", "--tmax", "4"],
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--json"])
    print(json.dumps([argv[0], code, json.loads(out.getvalue())]))
print(json.dumps([sys.modules["numpy"] is None, "dataclasses" in sys.modules]))
"""


# What -h lists: the options of a command, or the five commands at the top level.
HELP_LISTS = {
    "check": ["--lambda", "--mu", "--oracle", "--json"],
    "--help": ["forge", "check", "minlen", "mds", "identities"],
}


class TestProcessEntry:
    def test_commands_run_with_numpy_blocked(self, tmp_path):
        proc = python("-c", NUMPY_BLOCKED, str(tmp_path), timeout=60)
        assert proc.returncode == 0, proc.stderr
        *runs, loaded = map(json.loads, proc.stdout.splitlines())
        reports = {name: (code, report) for name, code, report in runs}
        assert {name: code for name, (code, _) in reports.items()} == dict.fromkeys(
            ["forge", "check", "mds", "minlen", "identities"], 0)
        forge_report, check, mds, minlen, identities = (r for _, r in reports.values())
        assert (forge_report["N"], forge_report["extendable"]) == (3, False)
        assert check["isometry"] is check["isometry_oracle"] is True
        assert check["extendable"] is False
        assert (mds["is_mds"], mds["isometries"], mds["unextendable"]) == (False, 270, 162)
        assert (minlen["min_length"], minlen["exhausted"]) == (3, True)
        assert identities["all_pass"] is True
        # numpy was never imported over the block, and nothing loaded dataclasses.
        assert loaded == [True, False]

    def test_readme_example_runs_with_numpy_blocked(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = readme.split("```python\n")[1].split("```")[0]
        proc = python("-c", 'import sys\nsys.modules["numpy"] = None\n' + example, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("((Subspace(q=2, ambient=3, basis=[[0, 0, 1]]), 2), ")

    def test_package_sources_never_name_numpy(self):
        root = Path(modcode.__file__).resolve().parent
        assert [p.name for p in sorted(root.glob("*.py")) if "numpy" in p.read_text()] == []

    def test_cli_import_leaves_click_unloaded(self, tmp_path):
        """All five commands run through main without click, argparse or gettext."""
        script = (
            "import contextlib, io, sys\n"
            "from modcode.cli import main\n"
            "lam, mu = sys.argv[1] + '/lam.json', sys.argv[1] + '/mu.json'\n"
            "codes = []\n"
            "for argv in (\n"
            "    ['forge', '--q', '2', '--m', '1', '--k', '2', '--out-lambda', lam, '--out-mu', mu],\n"
            "    ['check', '--lambda', lam, '--mu', mu, '--oracle'],\n"
            "    ['mds', '--code', lam, '--scan'],\n"
            "    ['minlen', '--q', '2', '--m', '1'],\n"
            "    ['identities', '--q', '3', '--tmax', '4'],\n"
            "):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(main([*argv, '--json']))\n"
            "print(codes, [m for m in ('argparse', 'click', 'gettext') if m in sys.modules])\n"
        )
        proc = python("-c", script, str(tmp_path), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 0, 0, 0] []\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["identities", "--q", "2", "--tmax", "3", "--json"], 0),
            (["minlen", "--q", "2", "--m", "20000", "--bound", "5"], 3),
            (["identities", "--q", "4", "--tmax", "2"], 4),
            (["identities", "--q", "2"], 2),
            (["no-such-command"], 2),
            (["identities", "--q", "2", "--tmax", "3", "--bogus"], 2),
            (["identities", "--q", "2", "--tmax"], 2),
            (["identities", "--q", "x", "--tmax", "3"], 2),
            (["identities", "--q", "2", "--tmax", "3", "--json=1"], 2),
            (["identities", "--q", "2", "--tmax", "3", "stray"], 2),
            (["--json", "identities", "--q", "2", "--tmax", "3"], 2),
            (["identities", "--q=2", "--tmax", "3", "--json"], 0),
            (["check", "--help"], 0),
            (["--help"], 0),
        ],
        ids=["ok", "budget", "input", "missing-option", "unknown-command", "unknown-option",
             "option-without-value", "non-integer-value", "flag-with-value", "stray-argument",
             "option-before-command", "equals-value", "command-help", "top-level-help"],
    )
    def test_module_exit_codes(self, argv, code):
        proc = python("-m", "modcode.cli", *argv)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if "--help" in argv:
            listed = HELP_LISTS[argv[0]]
            assert proc.stdout.startswith("usage: modcode ") and proc.stderr == ""
            assert all(f"\n  {word} " in proc.stdout for word in listed), proc.stdout
        elif code == 0:
            assert json.loads(proc.stdout)["all_pass"]
        elif code == 2:
            assert proc.stdout == "" and proc.stderr.startswith("usage: modcode ")
            assert "\nmodcode: error: " in proc.stderr
        else:
            assert proc.stdout == "" and proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("command", ["mds", "minlen", "identities"])
    def test_huge_prime_modulus_exits_4_before_trial_division(self, tmp_path, command):
        # 2^61 - 1 is prime; trial division up to its square root would not end.
        q = 2**61 - 1
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"q": q, "m": 1, "k": 1, "t": 1, "generators": [[[1]]]}))
        argv = {
            "mds": ["--code", str(path)],
            "minlen": ["--q", str(q), "--m", "1"],
            "identities": ["--q", str(q), "--tmax", "1"],
        }[command]
        proc = python("-m", "modcode.cli", command, *argv, timeout=20)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("error: ") and "int64" in proc.stderr

    @pytest.mark.parametrize("bound", [[], ["--bound", "5"]], ids=["default-bound", "bound"])
    def test_minlen_huge_m_exits_3_at_once(self, bound):
        # F_2^20001 has 2^20001 - 1 lines, a count too long to print in decimal,
        # and the default bound N(2, 20000) would have about 2 * 10^8 bits.
        proc = python("-m", "modcode.cli", "minlen", "--q", "2", "--m", "20000", *bound,
                      timeout=20)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: ") and "budget is" in proc.stderr

    @pytest.mark.parametrize("command", ["minlen", "forge", "check"])
    def test_huge_dimension_exits_3_at_once(self, tmp_path, command):
        # m = 10^18 is inside the int64 domain, but q^(m t) module elements and
        # the 2^(10^18) - 1 points of PG(10^18, 2) are counts that would never
        # be built: each is refused from its lower bound.
        m = 10**18
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"q": 2, "m": m, "k": 1, "t": 1, "generators": [[[1]]] * 3}))
        argv = {
            "minlen": ["--q", "2", "--m", "1", "--t", str(m)],
            "forge": ["--q", "2", "--m", str(m), "--k", str(m + 1), "--out-lambda",
                      str(tmp_path / "l.json"), "--out-mu", str(tmp_path / "u.json")],
            "check": ["--lambda", str(path), "--mu", str(path), "--oracle"],
        }[command]
        proc = python("-m", "modcode.cli", command, *argv, timeout=20)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "budget is" in proc.stderr

    def test_huge_dimension_mds_reports_at_once(self, tmp_path):
        # mds reads d off the one point of PG(0, 2), not the 2^(10^18) source elements.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"q": 2, "m": 10**18, "k": 1, "t": 1,
                                    "generators": [[[1]]] * 3}))
        proc = python("-m", "modcode.cli", "mds", "--code", str(path), "--json", timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(report_bytes(proc.stdout)) == {
            "command": "mds", "n": 3, "d": 3, "kappa": 1, "is_mds": True, "witnesses": None}

    def test_dual_equation_huge_m_raises_budget_error_at_once(self):
        # The weights q^(m dim) at m = 10^18 are refused by their size in
        # 64-bit words before any is built.  The address-space limit keeps a
        # regression from growing one of them without bound.
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from modcode.codes import Alphabet, Code, ModuleSpace, kernel_tuple\n"
            "from modcode.errors import EnumerationBudgetError\n"
            "from modcode.fourier import verify_dual_equation\n"
            "sp, al = ModuleSpace(2, 10**18, 2), Alphabet(2, 10**18, 1)\n"
            "lam = Code(al, sp, [[[1], [0]], [[0], [1]], [[1], [1]]])\n"
            "mu = Code(al, sp, [[[1], [0]], [[1], [0]], [[1], [1]]])\n"
            "try:\n"
            "    verify_dual_equation(kernel_tuple(lam), kernel_tuple(mu))\n"
            "except EnumerationBudgetError as exc:\n"
            "    print(exc)\n"
        )
        proc = python("-c", script, timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("dual equation weights") and "budget is" in proc.stdout

    def test_forge_oversized_pair_exits_3_at_once(self, tmp_path):
        proc = python("-m", "modcode.cli", "forge", "--q", "2", "--m", "1", "--k", str(10**12),
                      "--out-lambda", str(tmp_path / "l.json"),
                      "--out-mu", str(tmp_path / "m.json"), timeout=20)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "budget is" in proc.stderr
        assert not (tmp_path / "l.json").exists()

    def test_minlen_default_bound_taken_at_min_m_t(self):
        # With t <= m the system has no nontrivial solution, and N(2, m=2000)
        # would be too long to print: the default is N(2, 2) + 5.
        proc = python("-m", "modcode.cli", "minlen", "--q", "2", "--m", "2000", "--t", "2",
                      "--json", timeout=20)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["min_length"] is None and report["exhausted"] and report["bound"] == 20

    def test_entry_freezes_and_keeps_atexit(self):
        script = (
            "import atexit, gc, sys\n"
            "from modcode.cli import entry\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "sys.argv = ['modcode', 'identities', '--q', '3', '--tmax', '2']\n"
            "entry()\n"
        )
        proc = python("-c", script)
        assert proc.returncode == 0, proc.stderr
        *report, frozen = proc.stdout.splitlines()
        assert report[:3] == ["q: 3", "results: {1: True, 2: True}", "all_pass: True"]
        assert report[3].startswith("seconds: ") and frozen == "frozen True"

    def test_main_does_not_freeze(self, cli):
        result = cli(["identities", "--q", "2", "--tmax", "2"])
        assert result.exit_code == 0
        assert gc.get_freeze_count() == 0
        assert "solution_to_codes" in dir(modcode)


GOLDEN = Path(__file__).resolve().parent / "golden"
# The codes of the benchmark's mds-scan workload, without its seeded monomial images.
PARITY = [[[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]], [[1], [1], [1]]]
MDS_SCAN_CODES = {
    "rep2_3_1": {"q": 2, "m": 1, "k": 1, "t": 1, "generators": [[[1]]] * 3},
    "parity2_4_3": {"q": 2, "m": 1, "k": 1, "t": 3, "generators": PARITY},
    "forged_2_1_2": {"q": 2, "m": 1, "k": 2, "t": 2,
                     "generators": [[[1, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 0], [0, 0]]]},
    "parity3_4_3": {"q": 3, "m": 1, "k": 1, "t": 3, "generators": PARITY},
}


def report_bytes(output: str) -> bytes:
    """A --json report without its timing, as the golden report files hold it."""
    report = json.loads(output)
    del report["seconds"]
    return (json.dumps(report, indent=1) + "\n").encode()


class TestGoldenFiles:
    """Files and reports of earlier releases, byte for byte.

    The forge and check files come from the numpy release; the minlen and
    mds --scan reports from the first release on plain Python ints.
    """

    @pytest.mark.parametrize("q, m, k", [(2, 1, 2), (3, 2, 3)])
    def test_forged_files_match(self, cli, tmp_path, q, m, k):
        paths = {side: tmp_path / f"{side}.json" for side in ("lambda", "mu")}
        result = cli(["forge", "--q", str(q), "--m", str(m), "--k", str(k),
                      "--out-lambda", str(paths["lambda"]), "--out-mu", str(paths["mu"])])
        assert result.exit_code == 0
        for side, path in paths.items():
            assert path.read_bytes() == (GOLDEN / f"forge_{q}_{m}_{k}_{side}.json").read_bytes()

    @pytest.mark.parametrize("side, oracle", [("lambda", True), ("mu", False)])
    def test_check_report_matches(self, cli, tmp_path, side, oracle):
        # The image is a fixed monomial image of the forged (2, 2, 3) mu.
        paths = {name: str(tmp_path / f"{name}.json") for name in ("lambda", "mu")}
        cli(["forge", "--q", "2", "--m", "2", "--k", "3",
             "--out-lambda", paths["lambda"], "--out-mu", paths["mu"]])
        image = str(GOLDEN / "check_2_2_3_image.json")
        result = cli(["check", "--lambda", paths[side], "--mu", image, "--json"] + ["--oracle"] * oracle)
        assert result.exit_code == 0
        expected = GOLDEN / ("check_2_2_3_report.json" if oracle else "check_2_2_3_mu_report.json")
        assert report_bytes(result.output) == expected.read_bytes()

    @pytest.mark.parametrize("q, m, t, bound", [(2, 2, 3, 20), (2, 1, 3, 4), (5, 1, 2, 11)])
    def test_minlen_report_matches(self, cli, q, m, t, bound):
        result = cli(["minlen", "--q", str(q), "--m", str(m), "--t", str(t),
                      "--bound", str(bound), "--json"])
        assert result.exit_code == 0
        expected = GOLDEN / f"minlen_{q}_{m}_{t}_{bound}_report.json"
        assert report_bytes(result.output) == expected.read_bytes()

    @pytest.mark.parametrize("name", sorted(MDS_SCAN_CODES))
    def test_mds_scan_report_matches(self, cli, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(MDS_SCAN_CODES[name]))
        result = cli(["mds", "--code", str(path), "--scan", "--json"])
        assert result.exit_code == 0
        assert report_bytes(result.output) == (GOLDEN / f"mds_{name}_report.json").read_bytes()


def report_cases(tmp_path):
    """Per case: MODCODE_BUDGET, an argv that reports and its code, an argv that raises and its code.

    Every case but forge reads the forged (2, 1, 2) pair at lam.json and mu.json.
    """
    lam, mu, missing = (str(tmp_path / name) for name in ("lam.json", "mu.json", "missing.json"))
    forge = ["forge", "--q", "2", "--m", "1", "--k", "2", "--out-lambda", lam]
    return {
        "forge": (None, [*forge, "--out-mu", mu], 0, [*forge, "--out-mu", lam], 4),
        "check": (None, ["check", "--lambda", lam, "--mu", mu, "--oracle"], 0,
                  ["check", "--lambda", lam, "--mu", missing], 4),
        "minlen": (None, ["minlen", "--q", "2", "--m", "1"], 0, ["minlen", "--q", "4", "--m", "1"], 4),
        "mds": (None, ["mds", "--code", lam, "--scan"], 0, ["mds", "--code", missing], 4),
        "identities": (None, ["identities", "--q", "3", "--tmax", "4"], 0,
                       ["identities", "--q", "4", "--tmax", "2"], 4),
        # The budget stops the search, which still reports; it refuses the lattice of F_2^20001.
        "minlen-budget": ("1000", ["minlen", "--q", "2", "--m", "1", "--t", "3", "--bound", "4"], 3,
                          ["minlen", "--q", "2", "--m", "20000", "--bound", "5"], 3),
    }


@pytest.fixture
def int_digit_limit():
    """CPython's default int-to-str digit limit, set for the test and restored after it.

    Yields 0 on an interpreter without the limit (before 3.10.7).
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield 0
        return
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(caller)


# The SHA-256 of each (3, 3, 4) census report, without "seconds", as json.dumps writes it.
CENSUS_3_3_4 = {
    "lambda": "f789e080b2fdf18b6a606f17af0d7cd4adee9c3b7de4215cd72dd2e872d941d4",
    "mu": "8c6bcf59e359084d4d8d99d323ac3279e7a35db5c9b346bdf26df6618e39910d",
}


class TestReports:
    @pytest.mark.parametrize("case", ["forge", "check", "minlen", "mds", "identities",
                                      "minlen-budget"])
    def test_main_prints_every_report(self, cli, tmp_path, monkeypatch, case):
        """A report runs from "command" to "seconds", and its text form has the same keys.

        A command that returns a nonzero code still reports; one that raises
        prints its error alone.
        """
        cases = report_cases(tmp_path)
        assert cli(cases["forge"][1]).exit_code == 0
        budget, argv, code, raising, raised = cases[case]
        if budget is not None:
            monkeypatch.setenv("MODCODE_BUDGET", budget)
        result = cli([*argv, "--json"])
        assert result.exit_code == code, result.output
        report = json.loads(result.output)
        keys = list(report)
        assert keys[0] == "command" and keys[-1] == "seconds" and report["command"] == argv[0]
        text = cli(argv)
        assert text.exit_code == code
        assert [line.split(": ", 1)[0] for line in text.output.splitlines()] == keys[1:]
        failure = cli(raising)
        assert failure.exit_code == raised
        assert failure.output.startswith("error: ")

    def test_census_of_a_long_code_prints_exactly(self, cli, tmp_path, int_digit_limit):
        """The (3, 3, 4) census counts have 7,991 digits, over CPython's int-to-str limit.

        main prints them exactly and leaves the caller's limit as it was; the
        reader lifts its own limit to parse them.
        """
        paths = {side: str(tmp_path / f"{side}.json") for side in CENSUS_3_3_4}
        result = cli(["forge", "--q", "3", "--m", "3", "--k", "4",
                      "--out-lambda", paths["lambda"], "--out-mu", paths["mu"]])
        assert result.exit_code == 0
        outputs = {}
        for side, path in paths.items():
            result = cli(["mds", "--code", path, "--scan", "--json"])
            assert result.exit_code == 0, result.output[:200]
            assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == int_digit_limit
            outputs[side] = result.output
        if int_digit_limit:
            sys.set_int_max_str_digits(0)
        reports = {side: json.loads(output) for side, output in outputs.items()}
        for side, report in reports.items():
            del report["seconds"]
            assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == CENSUS_3_3_4[side]
        lam, mu = reports["lambda"], reports["mu"]
        total = str(lam["isometries"])
        assert len(total) == 7991 and total.startswith("100193087986")
        # Each side's unextendable images are the other side's own class.
        assert lam["isometries"] == mu["isometries"]
        assert lam["unextendable"] == mu["isometries"] - mu["unextendable"]
        assert mu["unextendable"] == lam["isometries"] - lam["unextendable"]


class TestIdentitiesCommand:
    def test_q2_tmax8(self, cli):
        result = cli(["identities", "--q", "2", "--tmax", "8"])
        assert result.exit_code == 0
        results = ", ".join(f"{t}: True" for t in range(1, 9))
        assert result.output.splitlines()[:3] == ["q: 2", f"results: {{{results}}}", "all_pass: True"]

    def test_json_report(self, cli):
        result = cli(["identities", "--q", "5", "--tmax", "4", "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["all_pass"]

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_small_tmax_results_match_direct_sums(self, cli, q):
        # The direct sums over gaussian_binomial, one call per term.
        def direct(t):
            terms = [q ** (i * (i - 1) // 2) * gaussian_binomial(t, i, q) for i in range(t + 1)]
            alternating = sum((-1) ** i * term for i, term in enumerate(terms[:-1]))
            product = 1
            for i in range(t):
                product *= 1 + q**i
            return alternating == (-1) ** (t - 1) * q ** (t * (t - 1) // 2) and sum(terms) == product

        result = cli(["identities", "--q", str(q), "--tmax", "8", "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["results"] == {str(t): direct(t) for t in range(1, 9)}

    @pytest.mark.parametrize("tmax, codes", [("300", (0, 3)), ("1000000", (3,))])
    def test_large_tmax_ends_within_budget(self, tmax, codes):
        proc = python("-m", "modcode.cli", "identities", "--q", "2", "--tmax", tmax, timeout=20)
        assert proc.returncode in codes, proc.stderr
        if proc.returncode == 3:
            assert proc.stderr.startswith("error: ") and "budget is" in proc.stderr


class TestBudgetEnv:
    def test_budget_exit_code(self, cli, tmp_path, monkeypatch):
        from modcode.codes import module_elements
        from modcode.linalg import enumerate_subspaces, subspaces_up_to_dim

        monkeypatch.setenv("MODCODE_BUDGET", "2")
        module_elements.cache_clear()
        enumerate_subspaces.cache_clear()
        subspaces_up_to_dim.cache_clear()
        result = cli(
            ["forge", "--q", "2", "--m", "2", "--k", "3",
             "--out-lambda", str(tmp_path / "l"), "--out-mu", str(tmp_path / "m")],
        )
        assert result.exit_code == 3
        monkeypatch.delenv("MODCODE_BUDGET")
        module_elements.cache_clear()
        enumerate_subspaces.cache_clear()
        subspaces_up_to_dim.cache_clear()

    def test_mds_budget_exit_code(self, cli, tmp_path, monkeypatch):
        # d is read off the 13 points of PG(2, 3), not the 27 source elements.
        cols = [np.eye(3, dtype=int)[:, [i]] for i in range(3)] + [np.ones((3, 1), dtype=int)]
        path = tmp_path / "parity3.json"
        save_code(Code(Alphabet(3, 1, 1), ModuleSpace(3, 1, 3), cols), path)
        monkeypatch.setenv("MODCODE_BUDGET", "12")
        result = cli(["mds", "--code", str(path)])
        assert result.exit_code == 3
        assert "subspace enumeration needs 13 subspaces, budget is 12" in result.output
        monkeypatch.setenv("MODCODE_BUDGET", "13")
        result = cli(["mds", "--code", str(path), "--json"])
        assert result.exit_code == 0
        assert json.loads(report_bytes(result.output)) == {
            "command": "mds", "n": 4, "d": 2, "kappa": 3, "is_mds": True, "witnesses": None}

    def test_mds_scan_budget_exit_code_prints_no_count(self, cli, tmp_path, monkeypatch):
        # The binary parity code passes is_mds under this budget; its census needs 30 nodes.
        path = tmp_path / "parity2.json"
        path.write_text(json.dumps({"q": 2, "m": 1, "k": 1, "t": 3, "generators": PARITY}))
        monkeypatch.setenv("MODCODE_BUDGET", "20")
        assert cli(["mds", "--code", str(path), "--json"]).exit_code == 0
        result = cli(["mds", "--code", str(path), "--scan", "--json"])
        assert result.exit_code == 3
        assert "isometry census" in result.output and "isometries" not in result.output

    def test_caches_keep_at_most_cache_entries(self):
        from modcode.budget import CACHE_ENTRIES
        from modcode.codes import module_elements
        from modcode.linalg import enumerate_subspaces, subspace_lattice, subspaces_up_to_dim

        primes = [q for q in range(2, 300) if is_prime(q)][: CACHE_ENTRIES + 10]
        for cached, dims in [(module_elements, (1, 1)), (enumerate_subspaces, (1, 0)),
                             (subspaces_up_to_dim, (1, 0)), (subspace_lattice, (1, 0))]:
            for q in primes:
                cached(q, *dims)
            assert cached.cache_info().currsize == CACHE_ENTRIES

    def test_one_command_evicts_nothing(self, cli, tmp_path):
        from modcode.codes import module_elements
        from modcode.linalg import enumerate_subspaces, subspace_lattice, subspaces_up_to_dim

        caches = (module_elements, enumerate_subspaces, subspaces_up_to_dim, subspace_lattice)
        lp, mp = str(tmp_path / "l.json"), str(tmp_path / "m.json")
        for argv in (["forge", "--q", "3", "--m", "3", "--k", "4", "--out-lambda", lp, "--out-mu", mp],
                     ["check", "--lambda", lp, "--mu", mp, "--oracle"],
                     ["minlen", "--q", "2", "--m", "2", "--t", "3", "--bound", "20"]):
            for cached in caches:
                cached.cache_clear()
            assert cli(argv).exit_code == 0
            # Every miss is still cached, so nothing was built twice.
            assert all(c.cache_info().misses == c.cache_info().currsize for c in caches)
