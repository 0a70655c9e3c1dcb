"""Code-file JSON round trips and command-line behavior."""

import ast
import collections
import functools
import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modcode
from modcode import forge
from modcode import Alphabet, Code, ModuleSpace, load_code, minimal_counterexample, save_code
from modcode.errors import DimensionMismatchError
from modcode.linalg import SubspaceLattice, gaussian_binomial, matrix_rank


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

    @pytest.mark.parametrize(
        "code",
        [
            minimal_counterexample(3, 2, 3)[1],
            Code(Alphabet(2, 1, 1), ModuleSpace(2, 1, 1), [np.array([[1]])] * 3),
            Code(Alphabet(5, 1, 3), ModuleSpace(5, 1, 1), [np.array([[4, 0, 1]])]),
            Code(Alphabet(3, 2, 1), ModuleSpace(3, 2, 3), [np.array([[1], [2], [0]])] * 2),
            Code(Alphabet(2, 1, 2), ModuleSpace(2, 1, 0), [np.zeros((0, 2), dtype=int)] * 3),
        ],
        ids=["forged_3_2_3", "t1_k1", "one_generator", "column_generators", "t0"],
    )
    def test_file_matches_per_generator_encoding(self, tmp_path, code):
        path = tmp_path / "code.json"
        save_code(code, path)
        data = modcode.io.code_to_dict(code)
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
        monkeypatch.setattr(forge, "NODE_BUDGET", 10)
        result = cli(["minlen", "--q", "2", "--m", "2", "--bound", "20", "--json"])
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
        assert int(proc.stdout) == len(modcode.__all__) == 60

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


# Package definitions that nothing in src/modcode or bench/ names, each kept
# as an independent reference that the named test compares the package with.
REFERENCES = {
    "inverse": "test_codes.py::TestBatchedTransport::test_batch_matches_per_pair_reference",
    "subspace_sum": "test_linalg.py::TestSubspaceOps::test_modular_law",
    "count_subspaces_containing": "test_acceptance.py::test_criterion_4_identity_suites",
    "apply_monomial": "test_acceptance.py::test_criterion_7_monomial_roundtrip",
    "fourier_of_indicator": "test_acceptance.py::test_criterion_5_fourier_duality",
    "orthogonal_submodule": "test_acceptance.py::test_criterion_5_fourier_duality",
    "covering_by_proper_submodules":
        "test_forge.py::TestSolutionToCodes::test_covering_route_matches_minimal_pair",
    "inclusion_exclusion_solution":
        "test_forge.py::TestSolutionToCodes::test_covering_route_matches_minimal_pair",
    "solution_to_codes":
        "test_forge.py::TestSolutionToCodes::test_covering_route_matches_minimal_pair",
}


class TestNoDeadCode:
    def test_every_definition_is_named_elsewhere(self):
        """Each top-level function, class and method of the package is used by the program.

        A use is a Name, an Attribute, an import alias or a string constant
        (the benchmark probes functions by name) in src/modcode or bench/,
        outside the definition's own body.  The _EXPORTS strings of
        __init__.py are not uses, and dunders are exempt.  The definitions
        without a use are exactly the keys of REFERENCES.
        """
        root = Path(modcode.__file__).resolve().parent
        uses = collections.Counter()
        unused = {}
        files = [*root.glob("*.py"), *(root.parent.parent / "bench").glob("*.py")]
        trees = {path: ast.parse(path.read_text()) for path in sorted(files)}
        for path, tree in trees.items():
            for node in tree.body:
                targets = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
                if not (path.name == "__init__.py" and targets == ["_EXPORTS"]):
                    uses.update(ast_names(node))
        for path, tree in trees.items():
            if path.parent != root:
                continue
            for node in tree.body:
                members = node.body if isinstance(node, ast.ClassDef) else []
                for item in [node, *members]:
                    if not isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                        continue
                    name = item.name
                    inside = sum(1 for used in ast_names(item) if used == name)
                    if uses[name] == inside and not (name.startswith("__") and name.endswith("__")):
                        unused[name] = f"{path.name}:{item.lineno}"
        dead = sorted(f"{where} {name}" for name, where in unused.items() if name not in REFERENCES)
        stale = sorted(REFERENCES.keys() - unused.keys())
        assert not dead and not stale, {"dead": dead, "stale references": stale}

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


def python(*args, timeout=None, **env):
    """Run a fresh interpreter on these sources; OPENBLAS_NUM_THREADS is unset unless given."""
    src = str(Path(modcode.__file__).resolve().parent.parent)
    base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    base.pop("MODCODE_BUDGET", None)
    return subprocess.run([sys.executable, *args], env=dict(base, PYTHONPATH=src, **env),
                          capture_output=True, text=True, timeout=timeout)


class TestProcessEntry:
    def test_package_import_leaves_numpy_unloaded(self):
        proc = python("-c", "import sys, modcode; assert 'numpy' not in sys.modules")
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_leaves_click_unloaded(self):
        proc = python("-c", "import sys, modcode.cli; assert 'click' not in sys.modules")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("4", "4")])
    def test_cli_import_defaults_to_one_blas_thread(self, preset, expected):
        env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        script = "import os, modcode.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        proc = python("-c", script, **env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{expected}\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["identities", "--q", "2", "--tmax", "3", "--json"], 0),
            (["minlen", "--q", "2", "--m", "20000", "--bound", "5"], 3),
            (["identities", "--q", "4", "--tmax", "2"], 4),
            (["identities", "--q", "2"], 2),
            (["no-such-command"], 2),
        ],
        ids=["ok", "budget", "input", "missing-option", "unknown-command"],
    )
    def test_module_exit_codes(self, argv, code):
        proc = python("-m", "modcode.cli", *argv)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 0:
            assert json.loads(proc.stdout)["all_pass"]
        elif code in (3, 4):
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
        assert proc.stdout == "t=1 q=3: pass\nt=2 q=3: pass\nfrozen True\n"

    def test_main_does_not_freeze(self, cli):
        result = cli(["identities", "--q", "2", "--tmax", "2"])
        assert result.exit_code == 0
        assert gc.get_freeze_count() == 0
        assert "SolutionPair" in dir(modcode)


class TestIdentitiesCommand:
    def test_q2_tmax8(self, cli):
        result = cli(["identities", "--q", "2", "--tmax", "8"])
        assert result.exit_code == 0
        assert result.output.count("pass") == 8

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
        cols = [np.eye(3, dtype=int)[:, [i]] for i in range(3)] + [np.ones((3, 1), dtype=int)]
        path = tmp_path / "parity3.json"
        save_code(Code(Alphabet(3, 1, 1), ModuleSpace(3, 1, 3), cols), path)
        monkeypatch.setenv("MODCODE_BUDGET", "20")
        result = cli(["mds", "--code", str(path)])
        assert result.exit_code == 3

    def test_caches_keep_at_most_cache_entries(self):
        from modcode.budget import CACHE_ENTRIES
        from modcode.codes import module_elements
        from modcode.linalg import enumerate_subspaces, subspace_lattice, subspaces_up_to_dim

        for cached, dims in [(module_elements, (1, 1)), (enumerate_subspaces, (1, 0)),
                             (subspaces_up_to_dim, (1, 0)), (subspace_lattice, (1, 0))]:
            for q in range(2, CACHE_ENTRIES + 12):
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
