"""Command-line behavior: exit codes, report schema, gen/verify round trips.

Everything runs in-process through main(argv) except one true subprocess
check of the installed console script.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gdrazin.evaluation
from gdrazin import TARGETS, CaseSpec, ConvergenceError, generate, preset
from gdrazin.cli import EXIT_IO, EXIT_MISMATCH, EXIT_OK, EXIT_PRECONDITION, _emit, build_parser, main
from gdrazin.io import DocumentError, load_instance, load_matrix, save_instance, save_matrix
from helpers import NO_RECIPROCAL, count_finite_scans, count_sweeps, write_schema_1

REPORT_KEYS = {
    "schema_version",
    "command",
    "theorem",
    "lambda",
    "conditions",
    "result",
    "oracle",
    "axiom_residuals",
    "match",
    "error",
    "wall_ms",
}


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    doc = json.loads(out) if out.lstrip().startswith("{") else None
    return code, doc


@pytest.fixture()
def pair_files(tmp_path):
    case = generate(CaseSpec(target="2.4", dim=4, lam=0.5, seed=2))
    a, b = case.pair
    (tmp_path / "pair").mkdir()
    pa, pb = tmp_path / "pair" / "a.json", tmp_path / "pair" / "b.json"
    save_matrix(pa, a)
    save_matrix(pb, b)
    return str(pa), str(pb)


@pytest.fixture()
def block_files(tmp_path):
    case = generate(CaseSpec(target="4.3", dim=4, lam=3.0, seed=1))
    (tmp_path / "block").mkdir()
    paths = []
    for name in ("a", "b", "c", "d"):
        p = tmp_path / "block" / f"{name}.json"
        save_matrix(p, case.matrices[name])
        paths.append(str(p))
    return paths


class TestDrazinCommand:
    def test_happy_path_report(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        save_matrix(m, np.array([[2, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex))
        code, doc = run(["drazin", str(m)], capsys)
        assert code == EXIT_OK
        assert REPORT_KEYS <= set(doc)
        assert doc["schema_version"] == 2
        assert doc["command"] == "drazin"
        assert doc["match"] is True
        assert doc["index"] == 2
        assert set(doc["axiom_residuals"]) == {"solution", "commute", "power"}
        got = np.array([[z[0] + 1j * z[1] for z in row] for row in np.array(doc["result"]["data"]).reshape(3, 3, 2)])
        assert np.allclose(got, np.diag([0.5, 0, 0]))

    def test_ambiguous_input_exits_mismatch(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        save_matrix(m, np.diag([1.0, 3e-10]).astype(complex))
        code, doc = run(["drazin", str(m)], capsys)
        assert code == EXIT_MISMATCH
        assert doc["error"] is not None

    def test_missing_file_exits_io(self, tmp_path, capsys):
        code, _ = run(["drazin", str(tmp_path / "nope.json")], capsys)
        assert code == EXIT_IO

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_exits_io(self, literal, tmp_path, capsys):
        m = tmp_path / "m.json"
        m.write_text(f'{{"rows": 1, "cols": 1, "data": [{literal}, 0.0]}}')
        assert main(["drazin", str(m)]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(m) in err and "not valid JSON" in err

    def test_non_utf8_file_exits_io(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        m.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["drazin", str(m)]) == EXIT_IO
        assert "cannot read" in capsys.readouterr().err


class TestSumCommand:
    def test_match_with_given_lambda(self, pair_files, capsys):
        a, b = pair_files
        code, doc = run(["sum", a, b, "--theorem", "2.4", "--lambda", "1/2"], capsys)
        assert code == EXIT_OK
        assert doc["match"] is True
        assert doc["lambda"] == [0.5, 0.0]
        assert doc["oracle_gap"] < 1e-10
        assert all(c["holds"] for c in doc["conditions"])

    def test_auto_lambda_fits(self, tmp_path, capsys):
        # generated 2.4 pairs are degenerate (both sides of the factor
        # condition vanish), so use the canonical preset pair instead
        case = preset("example-2.5")
        a, b = case.pair
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(pa, a)
        save_matrix(pb, b)
        code, doc = run(["sum", str(pa), str(pb), "--theorem", "2.4"], capsys)
        assert code == EXIT_OK
        lam = complex(*doc["lambda"])
        assert abs(lam - 0.5) < 1e-8

    def test_negated_without_force_exits_precondition(self, tmp_path, capsys):
        case = generate(CaseSpec(target="2.3", dim=4, lam=0.5, seed=0, negate=True))
        a, b = case.pair
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(pa, a)
        save_matrix(pb, b)
        code, doc = run(["sum", str(pa), str(pb), "--theorem", "2.3", "--lambda", "1/2"], capsys)
        assert code == EXIT_PRECONDITION
        assert "precondition" in doc["error"]
        assert doc["result"] is None

    def test_closure_theorem_reports_without_matrix(self, tmp_path, capsys):
        case = generate(CaseSpec(target="2.2", dim=4, lam=2.0, seed=0))
        a, b = case.pair
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(pa, a)
        save_matrix(pb, b)
        code, doc = run(["sum", str(pa), str(pb), "--theorem", "2.2", "--lambda", "2"], capsys)
        assert code == EXIT_OK
        assert doc["match"] is True
        assert doc["result"] is None  # closure is a yes/no claim


    @pytest.mark.parametrize("shapes", [((2, 2), (3, 3)), ((2, 3), (2, 3))])
    def test_unfit_operand_shapes_exit_io(self, shapes, tmp_path, capsys):
        paths = []
        for name, shape in zip("ab", shapes):
            paths.append(str(tmp_path / f"{name}.json"))
            save_matrix(paths[-1], np.ones(shape, dtype=complex))
        assert main(["sum", *paths, "--theorem", "2.4"]) == EXIT_IO
        out = capsys.readouterr()
        assert out.out == "" and "need square matrices of equal shape" in out.err


class TestBlockCommand:
    def test_match(self, block_files, capsys):
        a, b, c, d = block_files
        code, doc = run(
            ["block", a, b, c, d, "--theorem", "4.3", "--lambda", "3"], capsys
        )
        assert code == EXIT_OK
        assert doc["match"] is True
        assert doc["oracle_gap"] < 1e-10

    def test_negated_without_force_exits_precondition(self, tmp_path, capsys):
        case = generate(CaseSpec(target="4.3", dim=4, lam=3.0, seed=1, negate=True))
        paths = []
        for name in ("a", "b", "c", "d"):
            p = tmp_path / f"{name}.json"
            save_matrix(p, case.matrices[name])
            paths.append(str(p))
        code, doc = run(
            ["block", *paths, "--theorem", "4.3", "--lambda", "3"], capsys
        )
        assert code == EXIT_PRECONDITION
        assert case.broken in doc["error"]

    def test_mismatched_block_shapes_exit_io(self, tmp_path, capsys):
        paths = []
        for name, n in (("a", 2), ("b", 2), ("c", 3), ("d", 2)):
            paths.append(str(tmp_path / f"{name}.json"))
            save_matrix(paths[-1], np.eye(n, dtype=complex))
        assert main(["block", *paths, "--theorem", "4.3"]) == EXIT_IO
        out = capsys.readouterr()
        assert out.out == "" and "off-diagonal blocks" in out.err

    def test_forced_failing_output_is_flagged(self, tmp_path, capsys):
        # this negated instance evaluates to a matrix that fails the axiom
        # check, so force must surface a mismatch, never exit 0
        case = generate(CaseSpec(target="4.1", dim=4, lam=0.5, seed=3, negate=True))
        paths = []
        for name in ("a", "b", "c", "d"):
            p = tmp_path / f"{name}.json"
            save_matrix(p, case.matrices[name])
            paths.append(str(p))
        code, doc = run(
            ["block", *paths, "--theorem", "4.1", "--lambda", "1/2", "--force"], capsys
        )
        assert code == EXIT_MISMATCH
        assert doc["match"] is False

    def test_reciprocal_row_reports_lambda(self, tmp_path, capsys):
        # 4.1 holds here only at lambda = 2: B = 0 makes the first scalar row
        # degenerate, so the (1/lambda) row alone fixes the scalar
        shift = np.array([[0, 1], [0, 0]], dtype=complex)
        mats = {"a": shift, "b": np.zeros((2, 2)), "c": np.diag([1, 0.5]), "d": shift}
        paths = []
        for name, m in mats.items():
            paths.append(str(tmp_path / f"{name}.json"))
            save_matrix(paths[-1], m)
        code, doc = run(["block", *paths, "--theorem", "4.1"], capsys)
        assert code == EXIT_OK
        assert doc["lambda"] == [2.0, 0.0]
        code, doc = run(["block", *paths, "--theorem", "4.1", "--lambda", "2"], capsys)
        assert code == EXIT_OK
        row = next(c for c in doc["conditions"] if "(1/lambda)" in c["condition"])
        assert row["lambda"] == [2.0, 0.0]
        code, _ = run(["block", *paths, "--theorem", "4.1", "--lambda", "1/2"], capsys)
        assert code == EXIT_PRECONDITION

    def test_forced_divergence_is_flagged(self, tmp_path, capsys):
        # identity blocks violate every hypothesis; the forced series blows up
        # and the run must end in the mismatch family, not in fake numbers
        for name in ("a", "b", "c", "d"):
            save_matrix(tmp_path / f"{name}.json", np.eye(3, dtype=complex))
        paths = [str(tmp_path / f"{n}.json") for n in ("a", "b", "c", "d")]
        code, doc = run(["block", *paths, "--theorem", "3.1", "--force"], capsys)
        assert code == EXIT_MISMATCH
        assert doc["error"] is not None


class TestGenVerify:
    def test_roundtrip_valid(self, tmp_path, capsys):
        out = tmp_path / "inst"
        code, doc = run(
            ["gen", "--target", "3.2", "--dim", "5", "--lambda", "i", "--seed", "4",
             "--out", str(out)], capsys
        )
        assert code == EXIT_OK
        assert doc["out_dir"] == str(out)
        assert (out / "instance.json").exists()
        code, doc = run(["verify", str(out)], capsys)
        assert code == EXIT_OK
        rows = doc["instances"]
        assert len(rows) == 1 and rows[0]["ok"]

    def test_roundtrip_negated(self, tmp_path, capsys):
        out = tmp_path / "neg"
        code, _ = run(
            ["gen", "--target", "2.3", "--dim", "4", "--lambda", "3", "--negate",
             "--out", str(out)], capsys
        )
        assert code == EXIT_OK
        code, doc = run(["verify", str(out)], capsys)
        assert code == EXIT_OK  # tripping the precondition is the contract
        assert "precondition tripped" in doc["instances"][0]["detail"]

    def test_preset_gen(self, tmp_path, capsys):
        out = tmp_path / "preset"
        code, _ = run(["gen", "--preset", "example-4.4", "--out", str(out)], capsys)
        assert code == EXIT_OK
        m = load_matrix(out / "a.json")
        assert np.array_equal(m, np.diag(np.ones(3), k=1).astype(complex))

    def test_verify_scans_subdirectories_and_filters(self, tmp_path, capsys):
        save_instance(tmp_path / "one", generate(CaseSpec(target="3.1", dim=4, lam=0.5, seed=0)))
        save_instance(tmp_path / "two", generate(CaseSpec(target="2.4", dim=4, lam=0.5, seed=0)))
        code, doc = run(["verify", str(tmp_path)], capsys)
        assert code == EXIT_OK
        assert len(doc["instances"]) == 2
        code, doc = run(["verify", str(tmp_path), "--theorem", "3.1"], capsys)
        assert code == EXIT_OK
        assert len(doc["instances"]) == 1
        assert doc["instances"][0]["target"] == "3.1"

    def test_verify_catches_tampering(self, tmp_path, capsys):
        out = tmp_path / "inst"
        case = generate(CaseSpec(target="3.2", dim=4, lam=0.5, seed=1))
        save_instance(out, case)
        tampered = case.matrices["b"].copy()
        tampered[0, 0] += 1.0
        save_matrix(out / "b.json", tampered)
        code, doc = run(["verify", str(out)], capsys)
        assert code == EXIT_MISMATCH
        assert not doc["instances"][0]["ok"]

    def test_verify_refuses_schema_1(self, tmp_path, capsys):
        # gdz reads only what it writes: schema-2 manifests of flat documents
        save_instance(tmp_path, generate(CaseSpec(target="2.4", dim=5, lam=3.0, seed=2)))
        write_schema_1(tmp_path)
        assert main(["verify", str(tmp_path)]) == EXIT_IO
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"gdz: {tmp_path / 'instance.json'}: schema_version must be one of (2,), got 1\n"

    def test_drazin_refuses_a_pair_form_document(self, tmp_path, capsys):
        save_instance(tmp_path, generate(CaseSpec(target="4.1", dim=4, lam=0.5, seed=1)))
        write_schema_1(tmp_path)
        assert main(["drazin", str(tmp_path / "a.json")]) == EXIT_IO
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"gdz: {tmp_path / 'a.json'}: data must list 2*rows*cols = 32 numbers, got 16\n"

    def test_verify_empty_directory_exits_io(self, tmp_path, capsys):
        code, _ = run(["verify", str(tmp_path)], capsys)
        assert code == EXIT_IO

    def test_verify_mismatched_block_shapes_exit_io(self, tmp_path, capsys):
        out = tmp_path / "inst"
        save_instance(out, generate(CaseSpec(target="4.3", dim=4, lam=3.0, seed=1)))
        save_matrix(out / "c.json", np.eye(3, dtype=complex))
        assert main(["verify", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(out) in err and "off-diagonal blocks" in err

    @pytest.mark.parametrize(
        "target,edit,fault",
        [
            ("2.4", {"target": "9.9"}, "not a pair target"),
            ("3.1", {"kind": "blok"}, "kind must be"),
            ("3.1", {"kind": "block", "target": "2.4"}, "not a block target"),
            ("2.4", {"target": ["2.4"]}, "not a pair target"),
            ("3.1", {"negate": "yes"}, "negate must be"),
            ("3.1", {"schema_version": "banana"}, "schema_version must be"),
            ("3.1", {"schema_version": 3}, "schema_version must be"),
            ("3.1", {"schema_version": True}, "schema_version must be"),
            ("2.4", {"lambda": [0, 0]}, "lambda must be nonzero"),
            ("4.3", {"lambda": [0.0, 0.0]}, "lambda must be nonzero"),
            # the stdlib encoder writes NaN, which is not JSON
            ("4.3", {"lambda": [float("nan"), 0.0]}, "not valid JSON"),
            ("2.4", {"files": {"a": 1, "b": "b.json"}}, "files must map exactly"),
            ("2.4", {"files": {"a": "a.json", "b": None}}, "files must map exactly"),
            # a file name must be a plain name inside the instance directory
            ("2.4", {"files": {"a": "/tmp/x/a.json", "b": "b.json"}}, "not a plain name"),
            ("2.4", {"files": {"a": "a.json", "b": "../x/b.json"}}, "not a plain name"),
            ("2.4", {"files": {"a": "sub/a.json", "b": "b.json"}}, "not a plain name"),
            ("2.4", {"files": {"a": "a.json", "b": ".."}}, "not a plain name"),
        ],
    )
    def test_verify_bad_manifest_field_exits_io(self, target, edit, fault, tmp_path, capsys):
        save_instance(tmp_path, generate(CaseSpec(target=target, dim=4, lam=0.5, seed=0)))
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        assert main(["verify", str(tmp_path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(path) in err and fault in err

    @pytest.mark.parametrize(
        "flag", [["--dim", "1"], ["--seed", "-1"], ["--lambda", "0"], ["--lambda", "nan"]]
    )
    def test_gen_spec_out_of_range_is_usage_error(self, flag, tmp_path, capsys):
        argv = ["gen", "--target", "2.4", "--dim", "4", "--out", str(tmp_path / "x")]
        code, _ = run(argv + flag, capsys)
        assert code == EXIT_IO
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["sum", "block"])
    def test_solve_zero_lambda_is_usage_error(self, command, pair_files, block_files, capsys):
        paths = pair_files if command == "sum" else block_files
        theorem = "2.4" if command == "sum" else "4.3"
        assert main([command, *paths, "--theorem", theorem, "--lambda", "0"]) == EXIT_IO
        assert "lambda must be nonzero" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", NO_RECIPROCAL)
    @pytest.mark.parametrize("target", TARGETS)
    def test_lambda_without_a_usable_reciprocal_exits_io(self, target, lam, tmp_path, capsys):
        # as a zero lambda does, in gen, sum/block and the manifest verify reads
        message = f"lambda must have a finite nonzero reciprocal, got {complex(lam)!r}"
        out = tmp_path / "x"
        argv = ["gen", "--target", target, "--dim", "4", "--lambda", str(lam), "--out", str(out)]
        assert main(argv) == EXIT_IO
        assert message in capsys.readouterr().err and not out.exists()
        case = generate(CaseSpec(target, dim=4, lam=0.5, seed=0))
        save_instance(out, case)
        command = "sum" if case.kind == "pair" else "block"
        files = [str(out / f"{name}.json") for name in sorted(case.matrices)]
        assert main([command, *files, "--theorem", target, "--lambda", str(lam)]) == EXIT_IO
        assert message in capsys.readouterr().err
        path = out / "instance.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "lambda": [lam.real, lam.imag]}))
        with pytest.raises(DocumentError, match=re.escape(message)):
            load_instance(out)
        assert main(["verify", str(out)]) == EXIT_IO
        assert capsys.readouterr() == ("", f"gdz: {path}: {message}\n")

    def test_gen_requires_concrete_lambda(self, tmp_path, capsys):
        code, _ = run(
            ["gen", "--target", "3.1", "--dim", "4", "--lambda", "auto",
             "--out", str(tmp_path / "x")], capsys
        )
        assert code == EXIT_IO  # usage error family


class TestVerifyVerdicts:
    """Each rung of verify's verdict ladder on one instance, and the exit-3
    path of an operand that the oracle refuses."""

    @staticmethod
    def verify(directory, capsys) -> tuple[int, bool, str]:
        code, doc = run(["verify", str(directory)], capsys)
        [row] = doc["instances"]
        return code, row["ok"], row["detail"]

    def test_closure_holds(self, tmp_path, capsys):
        save_instance(tmp_path, generate(CaseSpec(target="2.2", dim=4, lam=0.5, seed=0)))
        assert self.verify(tmp_path, capsys) == (EXIT_OK, True, "closure holds")

    def test_closure_failed(self, tmp_path, capsys, monkeypatch):
        save_instance(tmp_path, generate(CaseSpec(target="2.2", dim=4, lam=0.5, seed=0)))
        monkeypatch.setattr(gdrazin.evaluation, "is_quasinilpotent", lambda m, tol: False)
        assert self.verify(tmp_path, capsys) == (EXIT_MISMATCH, False, "closure failed")

    def test_negated_instance_that_holds_fails(self, tmp_path, capsys):
        save_instance(tmp_path, generate(CaseSpec(target="2.4", dim=4, lam=0.5, seed=0)))
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "negate": True}))
        detail = "negated instance was accepted (no condition failed)"
        assert self.verify(tmp_path, capsys) == (EXIT_MISMATCH, False, detail)

    def test_operand_the_oracle_refuses_exits_mismatch(self, tmp_path, capsys):
        save_instance(tmp_path, generate(CaseSpec(target="2.4", dim=2, lam=0.5, seed=0)))
        save_matrix(tmp_path / "a.json", np.diag([1.0, 3e-10]).astype(complex))
        save_matrix(tmp_path / "b.json", np.zeros((2, 2), dtype=complex))
        files = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        assert main(["sum", *files, "--theorem", "2.4"]) == EXIT_MISMATCH
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("gdz: rank of power 1 is ambiguous") and err.endswith("\n")
        assert self.verify(tmp_path, capsys) == (EXIT_MISMATCH, False, err[len("gdz: "):-1])

    def test_formula_error_fails_the_row(self, tmp_path, capsys, monkeypatch):
        def diverging(*args, **kwargs):
            raise ConvergenceError("series did not terminate")

        save_instance(tmp_path, generate(CaseSpec(target="2.4", dim=4, lam=0.5, seed=0)))
        monkeypatch.setattr(gdrazin.evaluation, "sum_formula", diverging)
        assert self.verify(tmp_path, capsys) == (EXIT_MISMATCH, False, "series did not terminate")

    def test_gap_over_the_bound_fails_the_row(self, tmp_path, capsys, monkeypatch):
        formula = gdrazin.evaluation.sum_formula
        save_instance(tmp_path, generate(CaseSpec(target="2.4", dim=4, lam=0.5, seed=0)))
        monkeypatch.setattr(gdrazin.evaluation, "sum_formula", lambda *a, **kw: formula(*a, **kw) + 1e-3)
        code, ok, detail = self.verify(tmp_path, capsys)
        # 1e-3 on each of 16 entries is a gap of 4e-3
        assert (code, ok) == (EXIT_MISMATCH, False)
        assert re.fullmatch(r"formula/oracle gap 4\.000e-03 exceeds \d\.\d{3}e-\d\d", detail)


class TestUsageAndTolerances:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_IO

    def test_missing_required_argument(self, capsys):
        assert main(["sum", "only-one.json"]) == EXIT_IO

    def test_bad_scalar(self, pair_files, capsys):
        a, b = pair_files
        assert main(["sum", a, b, "--theorem", "2.4", "--lambda", "wat"]) == EXIT_IO

    @pytest.mark.parametrize("text,lam", [("-1/2", [-0.5, 0.0]), ("-i", [0.0, -1.0])])
    def test_spaced_negative_lambda(self, text, lam, pair_files, capsys):
        a, b = pair_files
        code, doc = run(["sum", a, b, "--theorem", "2.4", "--lambda", text], capsys)
        assert code == EXIT_OK
        assert doc["lambda"] == lam

    def test_bad_theorem_choice(self, pair_files, capsys):
        a, b = pair_files
        assert main(["sum", a, b, "--theorem", "7.7"]) == EXIT_IO

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK

    def test_env_fallback_tightens_tolerance(self, tmp_path, capsys, monkeypatch):
        m = tmp_path / "m.json"
        # coupling between the invertible and nilpotent parts leaves rounding
        # noise in the axiom residuals, so an absurd eps_match can trip them
        save_matrix(m, np.array([[2, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex))
        code, _ = run(["drazin", str(m)], capsys)
        assert code == EXIT_OK
        monkeypatch.setenv("GDZ_TOL_MATCH", "1e-30")
        code, _ = run(["drazin", str(m)], capsys)
        assert code == EXIT_MISMATCH
        # explicit flag beats the environment
        code, _ = run(["drazin", str(m), "--eps-match", "1e-8"], capsys)
        assert code == EXIT_OK

    def test_bad_env_value_is_usage_error(self, tmp_path, capsys, monkeypatch):
        m = tmp_path / "m.json"
        save_matrix(m, np.eye(2, dtype=complex))
        monkeypatch.setenv("GDZ_TOL_RANK", "banana")
        assert main(["drazin", str(m)]) == EXIT_IO

    def test_one_parser_serves_a_sequence_of_calls(self, pair_files, capsys, monkeypatch):
        # the parser is shared across calls; a failed call must leave nothing
        # behind that changes the next one
        a, b = pair_files
        assert build_parser() is build_parser()
        assert main(["--help"]) == EXIT_OK
        assert main(["sum", a]) == EXIT_IO
        monkeypatch.setenv("GDZ_TOL_RANK", "banana")
        assert main(["sum", a, b, "--theorem", "2.4"]) == EXIT_IO
        monkeypatch.delenv("GDZ_TOL_RANK")
        capsys.readouterr()
        code, doc = run(["sum", a, b, "--theorem", "2.4", "--lambda", "1/2"], capsys)
        assert code == EXIT_OK and doc["match"] is True

    def test_out_flag_writes_report_file(self, pair_files, tmp_path, capsys):
        a, b = pair_files
        report = tmp_path / "report.json"
        code, _ = run(
            ["sum", a, b, "--theorem", "2.4", "--lambda", "1/2", "--out", str(report)],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["match"] is True

    def test_unwritable_report_exits_io(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        save_matrix(m, np.eye(2, dtype=complex))
        out = tmp_path / "missing" / "r.json"
        assert main(["drazin", str(m), "--out", str(out)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"gdz: [Errno 2] No such file or directory: '{out}'\n"

    def test_gen_onto_an_existing_file_exits_io(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep")
        assert main(["gen", "--preset", "example-2.5", "--out", str(out)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == "" and out.read_text() == "keep"
        assert captured.err == f"gdz: [Errno 17] File exists: '{out}'\n"


class TestOneLineReports:
    """Every report is one compact JSON line, on stdout or in the --out file."""

    @pytest.fixture()
    def instance(self, tmp_path):
        save_instance(tmp_path / "inst", generate(CaseSpec(target="3.1", dim=4, lam=0.5, seed=0)))
        return tmp_path / "inst"

    @pytest.mark.parametrize("command", ["drazin", "sum", "block", "gen", "verify", "sum --out"])
    def test_report_is_one_line(self, command, pair_files, instance, tmp_path, capsys):
        a, b = pair_files
        blocks = [str(instance / f"{name}.json") for name in ("a", "b", "c", "d")]
        solve = ["sum", a, b, "--theorem", "2.4", "--lambda", "1/2"]
        report = tmp_path / "r.json"
        argv = {
            "drazin": ["drazin", a],
            "sum": solve,
            "block": ["block", *blocks, "--theorem", "3.1", "--lambda", "1/2"],
            "gen": ["gen", "--target", "3.2", "--dim", "4", "--out", str(tmp_path / "new")],
            "verify": ["verify", str(instance)],
            "sum --out": [*solve, "--out", str(report)],
        }[command]
        assert main(argv) == EXIT_OK
        text = capsys.readouterr().out
        if command.endswith("--out"):
            text = report.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert isinstance(json.loads(text), dict)

    def test_non_finite_number_is_written_as_null(self, capsys):
        _emit({"residual": float("inf"), "gap": float("nan"), "index": 2}, None)
        assert capsys.readouterr().out == '{"residual":null,"gap":null,"index":2}\n'


class TestOracleReuse:
    """Each request runs the oracle once per distinct matrix: one power-rank
    sweep each, none for axiom checks or unused indices."""

    @pytest.mark.parametrize(
        "command,target,lam,sweeps",
        [
            ("block", "3.1", "1/2", 4),  # A, D, B C, M
            ("block", "4.3", "3", 3),  # A, D, M
            ("sum", "2.4", "1/2", 3),  # a, b, a + b
            ("verify", "2.4", "1/2", 3),
        ],
    )
    def test_one_sweep_per_matrix(self, command, target, lam, sweeps, tmp_path, capsys, monkeypatch):
        case = generate(CaseSpec(target=target, dim=32, lam=0.5 if lam == "1/2" else 3.0, seed=0))
        save_instance(tmp_path, case)
        if command == "verify":
            argv = ["verify", str(tmp_path)]
        else:
            files = [str(tmp_path / f"{name}.json") for name in sorted(case.matrices)]
            argv = [command, *files, "--theorem", target, "--lambda", lam]
        counted = count_sweeps(monkeypatch)
        code, doc = run(argv, capsys)
        assert code == EXIT_OK and doc["match"] is True
        assert len(counted) == sweeps


class TestValidationCount:
    """Each matrix is scanned for non-finite entries where a check owns it:
    its document decode, evaluate's one operand check, and each oracle
    input. check_shapes reads shapes only, and every norm the code takes
    anyway checks the rest (fro_norm, check_factor_condition, sum_formula's
    tail scale)."""

    @pytest.mark.parametrize(
        "target,lam,scans",
        [
            # 2 each: decode, Block2x2 in evaluate; 1 each: oracle on A, D,
            # B C and M
            ("3.1", 0.5, 12),
            # 2 each: decode, square_pair in evaluate; 1 each: oracle on a,
            # b and a + b
            ("2.4", 0.5, 7),
            # 2 each: decode, Block2x2 in evaluate; 1 each: oracle on A, D
            # and M (4.1's splitting runs on the swapped arrays)
            ("4.2", 0.5, 11),
        ],
    )
    def test_scans_per_verify(self, target, lam, scans, tmp_path, capsys, monkeypatch):
        save_instance(tmp_path, generate(CaseSpec(target=target, dim=32, lam=lam, seed=0)))
        counted = count_finite_scans(monkeypatch)
        code, doc = run(["verify", str(tmp_path)], capsys)
        assert code == EXIT_OK and doc["match"] is True
        assert len(counted) == scans


class TestPathSpellings:
    """Paths are strings spelled as pathlib spells them: report dirs and
    messages read as str(Path(p)) whatever the spelling on the command line."""

    @pytest.fixture()
    def workdir(self, tmp_path, monkeypatch):
        save_instance(tmp_path / "inst", preset("example-2.5"))
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize("spelling", ["inst", "inst/", "./inst", "inst//", "./inst/."])
    def test_verify_reports_the_pathlib_spelling(self, spelling, workdir, capsys):
        code = main(["verify", spelling])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_OK, "")
        assert [row["dir"] for row in json.loads(out)["instances"]] == ["inst"] == [str(Path(spelling))]

    def test_verify_dot_inside_the_instance(self, workdir, capsys, monkeypatch):
        monkeypatch.chdir(workdir / "inst")
        code, doc = run(["verify", "."], capsys)
        assert code == EXIT_OK and [row["dir"] for row in doc["instances"]] == ["."]

    def test_verify_dot_above_the_instances(self, workdir, capsys):
        save_instance(workdir / "other", preset("example-2.5"))
        code, doc = run(["verify", "./"], capsys)
        assert code == EXIT_OK and [row["dir"] for row in doc["instances"]] == ["inst", "other"]

    @pytest.mark.parametrize("spelling", ["inst/a.json", "inst//a.json", "./inst/./a.json"])
    def test_drazin_on_relative_paths(self, spelling, workdir, capsys):
        code, doc = run(["drazin", spelling], capsys)
        assert code == EXIT_OK and doc["match"] is True

    def test_missing_file_is_named_as_pathlib_names_it(self, workdir, capsys):
        assert main(["drazin", "inst//m.json"]) == EXIT_IO
        assert capsys.readouterr().err == (
            "gdz: cannot read inst/m.json: [Errno 2] No such file or directory: 'inst/m.json'\n"
        )

    def test_verify_not_a_directory(self, workdir, capsys):
        assert main(["verify", "./nope/"]) == EXIT_IO
        assert capsys.readouterr().err == "gdz: nope is not a directory\n"

    def test_crlf_document_error_counts_every_character(self, workdir, capsys):
        # the position is orjson's in the text as read: each "\r" of a "\r\n"
        # counts as a character, so the error sits at char 46
        (workdir / "crlf.json").write_bytes(b'{"rows": 1,\r\n "cols": 1,\r\n "data": [1.0, 0.0,]}')
        assert main(["drazin", "crlf.json"]) == EXIT_IO
        assert capsys.readouterr().err == (
            "gdz: crlf.json is not valid JSON: trailing comma is not allowed: line 3 column 21 (char 46)\n"
        )


def test_subprocess_real_exit_code(tmp_path):
    # one end-to-end run in a real process, so the exit code crosses an
    # actual process boundary instead of a return value
    m = tmp_path / "m.json"
    save_matrix(m, np.diag([1.0, 2.0]).astype(complex))
    proc = subprocess.run(
        [sys.executable, "-m", "gdrazin.cli", "drazin", str(m)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["match"] is True
