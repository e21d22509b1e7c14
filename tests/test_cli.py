"""End-to-end CLI behavior: flags, reports, exit codes, replay."""

import contextlib
import gc
import hashlib
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import absval
from absval import EnsembleSpec, as_matrix, matrix_to_literal, sample
from absval.claims import catalog
from absval.cli import build_parser, emit_report, main, parse_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, matrix):
    path.write_text(json.dumps(matrix_to_literal(matrix)))
    return str(path)


class TestParseConfig:
    def test_basic_flags(self):
        cfg = parse_config(["--claims", "C-TRI", "--dims", "2", "--trials", "100", "--seed", "7"])
        assert cfg.claims == ["C-TRI"]
        assert cfg.dims == [2]
        assert cfg.trials == 100
        assert cfg.master_seed == 7
        assert cfg.fmt == "text"

    def test_all_expands_catalog(self):
        cfg = parse_config([])
        assert len(cfg.claims) == 34
        assert cfg.dims == [2, 3, 4]

    def test_tolerance_overrides(self):
        cfg = parse_config(["--tol-rel", "1e-6", "--tol-abs", "1e-9"])
        assert cfg.policy.rel == 1e-6
        assert cfg.policy.abs == 1e-9

    @pytest.mark.parametrize(
        "argv",
        [
            ["--format", "yaml"],
            ["--no-such-flag"],
            ["--claims", "C-BOGUS"],
            ["--trials", "0"],
            ["--dims", "0"],
            ["--dims", "two"],
            ["--tol-rel", "-1"],
            ["--tol-rel", "inf"],
            ["--tol-abs", "inf"],
            ["--tol-rel", "nan"],
            ["--tol-abs", "nan"],
            ["--tol-rel", "2"],
            ["--tol-abs", "2"],
            ["--seed", "-3"],
            ["--jobs", "0"],
            ["--claims", "C-TRI,C-TRI", "--dims", "2,2", "--trials", "3", "--format", "json"],
            ["--claims", "CE-0,CE-0"],
            ["--claims", "C-TRI", "--dims", "3,2,3"],
        ],
    )
    def test_usage_errors_exit_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2


class TestListAndFormats:
    def test_list_prints_catalog(self, capsys):
        code, out, _ = run_cli(capsys, "--list")
        assert code == 0
        for cid in ("C-TRI", "CE-4", "L-SQRT-PROD", "C-NORMDIFF+"):
            assert cid in out

    def test_usage_error_through_main(self, capsys):
        assert main(["--format", "yaml"]) == 2

    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "--claims", "C-TRI", "--dims", "2", "--trials", "5")
        assert code == 0
        assert "verdict: pass" in out
        assert "C-TRI" in out

    def test_json_report_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "--claims", "C-TRI", "--dims", "2", "--trials", "5", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["config", "claims", "wall_time_seconds", "verdict"]
        assert report["verdict"] == "pass"
        assert report["config"]["version"] == absval.__version__
        assert report["config"]["trials"] == 5
        (claim,) = report["claims"]
        assert list(claim) == [
            "id",
            "trials",
            "passes",
            "violations",
            "hypothesis_failures",
            "errors",
            "worst_residual",
            "worst_residual_seed",
            "note",
        ]
        assert claim["id"] == "C-TRI"
        assert claim["passes"] == claim["trials"] == 5


class TestSharedParser:
    """parse_config reuses one parser per process; no call may leave state
    behind for the next."""

    def test_matrix_files_do_not_leak(self, tmp_path):
        a = write_matrix(tmp_path / "a.json", np.eye(2, dtype=complex))
        assert parse_config(["--claims", "L-ANTI", "--matrix-file", a]).matrix_files == [a]
        plain = parse_config(["--claims", "L-ANTI"])
        assert plain.matrix_files == []
        plain.matrix_files.append(a)  # must not reach the shared parser's default
        assert parse_config(["--claims", "L-ANTI"]).matrix_files == []
        assert parse_config(["--claims", "L-ANTI", "--matrix-file", a]).matrix_files == [a]

    def test_valid_call_after_usage_error(self, capsys):
        argv = ["--claims", "C-TRI", "--dims", "2", "--trials", "5", "--format", "json"]
        _, expected, _ = run_cli(capsys, *argv)
        assert main(["--claims", "C-BOGUS"]) == 2
        assert main(["--tol-rel", "inf"]) == 2
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["claims"] == json.loads(expected)["claims"]

    def test_run_after_list(self, capsys):
        code, out, _ = run_cli(capsys, "--list")
        assert code == 0 and "C-TRI" in out
        code, out, _ = run_cli(capsys, "--claims", "CE-0", "--format", "json")
        assert code == 0
        assert [c["id"] for c in json.loads(out)["claims"]] == ["CE-0"]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


class TestRegistryRuns:
    def test_empty_claim_filter_passes_vacuously(self, capsys):
        code, out, _ = run_cli(capsys, "--claims", "", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["claims"] == []
        assert report["verdict"] == "pass"

    def test_registry_only_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--claims",
            "CE-0,CE-1,CE-2,CE-3,CE-4",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert [c["id"] for c in report["claims"]] == ["CE-0", "CE-1", "CE-2", "CE-3", "CE-4"]
        assert all(c["trials"] == 1 and c["passes"] == 1 for c in report["claims"])


class TestForcedViolationAndReplay:
    ARGS = ["--dims", "8", "--trials", "3", "--seed", "7", "--tol-rel", "1e-15",
            "--tol-abs", "1e-300", "--format", "json"]

    def test_exit_one_and_seed_replay(self, capsys):
        code, out, _ = run_cli(capsys, "--claims", "C-EIGHT", *self.ARGS)
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "fail"
        violation = report["claims"][0]["violations"][0]

        code2, out2, _ = run_cli(
            capsys,
            "--claims",
            "C-EIGHT",
            "--dims",
            str(violation["dim"]),
            "--trials",
            "1",
            "--seed",
            str(violation["seed"]),
            "--tol-rel",
            "1e-15",
            "--tol-abs",
            "1e-300",
            "--format",
            "json",
        )
        assert code2 == 1
        replayed = json.loads(out2)["claims"][0]["violations"][0]
        assert replayed["residuals"] == violation["residuals"]


class TestOneTrialReplays:
    THEOREM_IDS = [cid for cid, c in catalog().items() if c.expect == "ALWAYS_HOLDS"]
    # SHA-256 of the outputs below as the stacked one-trial route gave them:
    # whatever route a one-trial run takes, a replay's bytes stay the same
    PINNED = "eb07a6fe31a71de605132625f667e353329b4eb62c4c7f4c6d7f26138f6b7178"

    def test_replay_outputs_are_pinned(self, capsys):
        runs = [
            ["--claims", cid, "--dims", str(n), "--seed", str(seed)]
            for cid in self.THEOREM_IDS for n in (2, 3, 4, 8) for seed in range(3)
        ]
        runs.append(["--claims", "all", "--dims", "1,2,3,8", "--seed", "4",
                     "--tol-rel", "1e-15", "--tol-abs", "1e-300"])
        digest = hashlib.sha256()
        for argv in runs:
            code, out, _ = run_cli(capsys, *argv, "--trials", "1", "--format", "json")
            out = re.sub(r'"wall_time_seconds": [^,}]*', '"wall_time_seconds": null', out)
            digest.update(f"{argv} {code}\n{out}".encode())
        assert digest.hexdigest() == self.PINNED


COMMUTING_PAIR = EnsembleSpec("commuting_normal_family", k=2)

# claim, matrices and extra flags of TestUserMatrices::test_whole_claim_entry
USER_RUNS = {
    "hypothesis-failure": (
        "C-TRI", lambda: (as_matrix([[-1, 1], [1, -1]]), as_matrix([[2, 0], [0, 0]])), []
    ),
    "pass": ("C-PRODNORM", lambda: sample(COMMUTING_PAIR, 3, 5), []),
    "forced-violation": (
        "C-PRODNORM",
        lambda: (as_matrix(1000.0 * np.eye(3)), as_matrix([[1, 2, 0], [2, 5, 1], [0, 1, 3]])),
        ["--tol-rel", "1e-17", "--tol-abs", "1e-300"],
    ),
}


class TestReportBytes:
    """The bytes TestOneTrialReplays leaves unpinned: registry runs, user
    matrices, and a forced multi-trial run with violation and error records,
    each in both formats."""

    # SHA-256 of the outputs below as json.dumps(..., indent=2) wrote them
    PINNED = "0c53dfcabe11cc3726ae3ed6ccaa9124f147d2dc1bf8999c7306ec35cd28de43"

    def test_outputs_are_pinned(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the report names the matrix files
        runs = [["--claims", "CE-0,CE-1,CE-2,CE-3,CE-4"]]
        for name, (claim, slots, extra) in USER_RUNS.items():
            files = [write_matrix(Path(f"{name}-{i}.json"), m) for i, m in enumerate(slots())]
            runs.append(["--claims", claim, *extra] + [
                arg for path in files for arg in ("--matrix-file", path)
            ])
        runs.append(["--claims", "all", "--dims", "1,2,8", "--seed", "4", "--trials", "5",
                     "--tol-rel", "1e-15", "--tol-abs", "1e-300"])
        digest = hashlib.sha256()
        for argv in runs:
            for fmt in ("json", "text"):
                code, out, _ = run_cli(capsys, *argv, "--format", fmt)
                out = re.sub(r'"wall_time_seconds": [^,}]*', '"wall_time_seconds": null', out)
                out = re.sub(r"\(\d+\.\d+s\)\n$", "(-)\n", out)
                digest.update(f"{argv} {fmt} {code}\n{out}".encode())
        assert digest.hexdigest() == self.PINNED


# key order as the report emits it: seed, claim_tag, dim, trial
USER_SEED = {"seed": "USER", "claim_tag": None, "dim": None, "trial": 0}


class TestUserMatrices:
    def test_hypothesis_failure_exits_zero(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", as_matrix([[-1, 1], [1, -1]]))
        b = write_matrix(tmp_path / "b.json", as_matrix([[2, 0], [0, 0]]))
        code, out, _ = run_cli(
            capsys, "--claims", "C-TRI", "--matrix-file", a, "--matrix-file", b,
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["claims"][0]["hypothesis_failures"] == 1

    def test_satisfied_hypotheses_pass(self, capsys, tmp_path):
        ma, mb = sample(COMMUTING_PAIR, 3, 5)
        a = write_matrix(tmp_path / "a.json", ma)
        b = write_matrix(tmp_path / "b.json", mb)
        code, out, _ = run_cli(
            capsys, "--claims", "C-PRODNORM", "--matrix-file", a, "--matrix-file", b,
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["claims"][0]["passes"] == 1

    def test_forced_violation_exits_one(self, capsys, tmp_path):
        # c*I commutes with anything exactly in floating point and is exactly
        # normal, so only the conclusion's round-off is measured against the
        # (absurdly tight) tolerance
        a = write_matrix(tmp_path / "a.json", as_matrix(1000.0 * np.eye(3)))
        b = write_matrix(tmp_path / "b.json", as_matrix([[1, 2, 0], [2, 5, 1], [0, 1, 3]]))
        code, out, _ = run_cli(
            capsys, "--claims", "C-PRODNORM", "--matrix-file", a, "--matrix-file", b,
            "--tol-rel", "1e-17", "--tol-abs", "1e-300", "--format", "json",
        )
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "fail"
        violation = report["claims"][0]["violations"][0]
        assert violation["seed"] == "USER"
        assert violation["hypothesis_flags"] == {"commutes": True, "normal_a": True}

    @pytest.mark.parametrize(
        "claim, slots, extra, expected",
        [
            pytest.param(
                *USER_RUNS["hypothesis-failure"],
                {
                    "id": "C-TRI", "trials": 1, "passes": 0, "violations": [],
                    "hypothesis_failures": 1, "errors": [],
                    "worst_residual": 0.8284271247461903,
                    "worst_residual_seed": USER_SEED | {"claim_tag": "C-TRI", "dim": 2},
                    "note": "hyponormal slot instantiated with normal witnesses: in finite "
                    "dimension a hyponormal matrix is already normal",
                },
                id="hypothesis-failure",
            ),
            pytest.param(
                *USER_RUNS["pass"],
                {
                    "id": "C-PRODNORM", "trials": 1, "passes": 1, "violations": [],
                    "hypothesis_failures": 0, "errors": [],
                    "worst_residual": 1.8882089152724877e-15,
                    "worst_residual_seed": USER_SEED | {"claim_tag": "C-PRODNORM", "dim": 3},
                    "note": "",
                },
                id="pass",
            ),
            pytest.param(
                *USER_RUNS["forced-violation"],
                {
                    "id": "C-PRODNORM", "trials": 1, "passes": 0,
                    "violations": [
                        USER_SEED | {
                            "claim_tag": "C-PRODNORM", "dim": 3,
                            "residuals": {
                                "hyp_commutes": 0.0, "hyp_normal_a": 0.0,
                                "conclusion": 7.625055259862144e-16,
                            },
                            "verdict": "VIOLATION",
                            "hypothesis_flags": {"commutes": True, "normal_a": True},
                        }
                    ],
                    "hypothesis_failures": 0, "errors": [],
                    "worst_residual": 7.625055259862144e-16,
                    "worst_residual_seed": USER_SEED | {"claim_tag": "C-PRODNORM", "dim": 3},
                    "note": "",
                },
                id="forced-violation",
            ),
        ],
    )
    def test_whole_claim_entry(self, capsys, tmp_path, claim, slots, extra, expected):
        """The runs above, their whole claim entry pinned, keys in emitted order."""
        a, b = (write_matrix(tmp_path / f"{i}.json", m) for i, m in enumerate(slots()))
        _, out, _ = run_cli(
            capsys, "--claims", claim, "--matrix-file", a, "--matrix-file", b, *extra,
            "--format", "json",
        )
        assert json.dumps(json.loads(out)["claims"][0]) == json.dumps(expected)

    def test_family_of_one_commutes_vacuously(self, capsys, tmp_path):
        # C-NFOLD takes a family of any size; one member has no pairs to commute
        a = write_matrix(tmp_path / "a.json", as_matrix([[1, 2], [0, 3]]))
        code, out, _ = run_cli(capsys, "--claims", "C-NFOLD", "--matrix-file", a, "--format", "json")
        assert code == 0
        (entry,) = json.loads(out)["claims"]
        assert entry["passes"] == 1 and not entry["errors"]

    @pytest.mark.parametrize(
        "claim", ["C-NEGCROSS", "C-PRODSA", "L-FUG", "L-SANDWICH", "T-LH", "C-TRI", "C-TRIN"]
    )
    def test_mismatched_shapes_exit_two(self, capsys, tmp_path, claim):
        # checked once, before any claim's arithmetic meets the operands
        small = write_matrix(tmp_path / "small.json", np.eye(2, dtype=complex))
        large = write_matrix(tmp_path / "large.json", np.eye(3, dtype=complex))
        files = [small, large, large][: catalog()[claim].arity]
        code, out, err = run_cli(capsys, "--claims", claim, *(f"--matrix-file={f}" for f in files))
        shapes = ", ".join(["(2, 2)", *["(3, 3)"] * (len(files) - 1)])
        assert (code, out) == (2, "")
        assert err == f"absval: {claim} takes matrices of one shape, got [{shapes}]\n"

    def test_file_count_must_match_arity(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", np.eye(2, dtype=complex))
        assert main(["--claims", "C-TRI", "--matrix-file", a]) == 2

    @pytest.mark.parametrize("claim, files", [("C-TRI", 1), ("C-TRI", 3), ("L-ANTI", 2)])
    def test_file_count_error_is_claim_instances(self, capsys, tmp_path, claim, files):
        # the library decides the arity; the CLI passes its message on
        a = write_matrix(tmp_path / "a.json", np.eye(2, dtype=complex))
        code, out, err = run_cli(capsys, "--claims", claim, *["--matrix-file", a] * files)
        arity = catalog()[claim].arity
        assert (code, out) == (2, "")
        assert err == f"absval: {claim} takes {arity} matrices, got {files}\n"

    def test_requires_single_claim(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", np.eye(2, dtype=complex))
        assert main(["--claims", "C-TRI,C-EIGHT", "--matrix-file", a, "--matrix-file", a]) == 2

    def test_malformed_file_reports_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"dim\": 2, \"entries\": [[1, 0]]}")
        code = main(
            ["--claims", "C-TRI", "--matrix-file", str(bad), "--matrix-file", str(bad)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"dim": 2, "entries": [1, 2, 3, 4]}',
            '{"dim": 1, "entries": null}',
            '{"dim": 1, "entries": [["a", "b"]]}',
            '{"dim": 2.5, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}',
            '{"dim": true, "entries": [[1, 0]]}',
        ],
        ids=["flat-entries", "null-entries", "string-entries", "fractional-dim", "boolean-dim"],
    )
    def test_malformed_literal_exits_two(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run_cli(capsys, "--claims", "L-ANTI", "--matrix-file", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("absval: malformed matrix literal: ") and err.count("\n") == 1

    def test_missing_file_reports_usage_error(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", np.eye(2, dtype=complex))
        missing = str(tmp_path / "nope.json")
        assert main(["--claims", "C-TRI", "--matrix-file", a, "--matrix-file", missing]) == 2


class TestNumericalErrorsExitOne:
    """A numerical failure is exit 1 with a one-line message, never exit 2
    (usage) and never a traceback."""

    def test_gate_mismatch_exits_one(self, capsys, tmp_path):
        # At rel = 1e-3 the pair commutes within the hypothesis' scale
        # ||A||_F ||B||_F, but AB is far from self-adjoint at the scale
        # ||AB||_F.  The conclusions symmetrize the product and judge its
        # asymmetry at the hypothesis' scale, so this true lemma ends as a
        # PASS or a finite VIOLATION, never as a gate error or an infinity.
        a = write_matrix(tmp_path / "a.json", as_matrix([[10, 1e-3], [1e-3, 0.01]]))
        b = write_matrix(tmp_path / "b.json", as_matrix([[0.01, 1e-3], [1e-3, 10]]))

        def run(claim):
            code, out, err = run_cli(
                capsys, "--claims", claim, "--tol-rel", "1e-3",
                "--matrix-file", a, "--matrix-file", b, "--format", "json",
            )
            assert err == ""
            return code, json.loads(out)["claims"][0]

        code, entry = run("L-SQRT-PROD")
        assert code == 0 and entry["passes"] == 1
        code, entry = run("L-SQRT-FACTOR")
        (violation,) = entry["violations"]
        assert code == 1 and not entry["errors"]
        residuals = violation["residuals"]
        assert all(type(r) is float and np.isfinite(r) for r in residuals.values())
        # for self-adjoint A and B the product's asymmetry is the commutator
        assert residuals["product_asymmetry"] == pytest.approx(residuals["hyp_commutes"], rel=1e-12)
        _, entry = run("C-PRODSA-COR")
        assert not entry["errors"] and np.isfinite(entry["worst_residual"])
        for record in entry["violations"]:
            assert all(type(r) is float and np.isfinite(r) for r in record["residuals"].values())

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_non_finite_intermediate_exits_one(self, capsys, tmp_path):
        # A* = -A holds, but A @ A overflows: the NaN it leaves must fail the
        # self-adjointness gate instead of slipping through a comparison
        a = write_matrix(tmp_path / "a.json", as_matrix([[0, 1e200], [-1e200, 0]]))
        code, out, err = run_cli(capsys, "--claims", "L-ANTI", "--matrix-file", a)
        assert code == 1
        assert out == ""
        assert err == "absval: left operand is not self-adjoint: ||x - x*||_F = nan\n"

    def test_convergence_error_exits_one(self, capsys, tmp_path, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        ma, mb = sample(COMMUTING_PAIR, 3, 5)
        a = write_matrix(tmp_path / "a.json", ma)
        b = write_matrix(tmp_path / "b.json", mb)
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        code, out, err = run_cli(
            capsys, "--claims", "C-PRODNORM", "--matrix-file", a, "--matrix-file", b
        )
        assert code == 1
        assert err.startswith("absval: eigensolver did not converge")


class TestParallelFlagAndEntryPoint:
    def test_jobs_flag_produces_same_claims_section(self, capsys):
        args = ["--claims", "C-TRI,C-EIGHT", "--dims", "2,3", "--trials", "20",
                "--seed", "3", "--format", "json"]
        code1, out1, _ = run_cli(capsys, *args, "--jobs", "1")
        code2, out2, _ = run_cli(capsys, *args, "--jobs", "2")
        assert code1 == code2 == 0
        assert json.loads(out1)["claims"] == json.loads(out2)["claims"]

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "absval", "--list"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "C-NEGCROSS" in proc.stdout

    def test_emit_report_round_trips(self, capsys):
        cfg = parse_config(["--claims", "CE-0", "--format", "json"])
        from absval.cli import execute

        report, code = execute(cfg)
        assert code == 0
        payload = json.loads(emit_report(report, "json"))
        assert payload["claims"][0]["id"] == "CE-0"
        text = emit_report(report, "text")
        assert "verdict: pass" in text


class TestNoCyclicGarbage:
    def test_replays_leave_no_cycles(self):
        """A replay leaves nothing for the cyclic collector: JSON output keeps
        no encoder whose closures refer to each other."""
        ids = TestOneTrialReplays.THEOREM_IDS
        argvs = [
            ["--claims", ids[i % len(ids)], "--dims", str(2 + i % 7), "--seed", str(i),
             "--trials", "1", "--format", "json"]
            if i % 20 else ["--claims", "CE-0,CE-1,CE-2,CE-3,CE-4", "--format", "json"]
            for i in range(200)
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            main(argvs[1])  # lazy set-up
            gc.collect()
            gc.disable()
            try:
                codes = {main(argv) for argv in argvs}
                found = gc.collect()
            finally:
                gc.enable()
        assert codes == {0}
        assert found == 0


def _jsonable(value):
    """The CLI's JSON mapping before its one-pass writer, kept as the oracle
    for ``json.dumps(_jsonable(x), indent=2, allow_nan=False)``.  A non-finite
    float goes through ``float()`` as the writer's does: numpy 2 reprs
    ``np.float64("nan")`` as ``np.float64(nan)``, numpy 1 as ``nan``."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, int) or value is None:  # bool too
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(float(value))
    if hasattr(value, "item"):  # numpy scalars
        return _jsonable(value.item())
    return value


def _emitted(value):
    return emit_report(SimpleNamespace(to_dict=lambda: value), "json")


FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan])
TEXT = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600 a')
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | FLOATS | TEXT
    | FLOATS.map(np.float64) | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
)
# the writer writes keys as str(k), so two keys with one str() would repeat
KEYS = st.none() | st.booleans() | st.integers() | FLOATS | TEXT
VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(KEYS, children, max_size=4).filter(
        lambda d: len({str(k) for k in d}) == len(d)
    ),
    max_leaves=24,
)


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(VALUES)
    def test_matches_json_dumps(self, value):
        assert _emitted(value) == json.dumps(_jsonable(value), indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numpy_float_is_its_python_repr(self, value):
        assert _emitted([np.float64(value), np.float32(value)]) == _emitted([value, value])
        assert _emitted(np.float64(value)) == f'"{value!r}"\n'

    @pytest.mark.parametrize("value", [object(), {1, 2}, 1j, np.complex128(1j), b"x"])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _emitted({"a": [value]})
        with pytest.raises(TypeError):
            json.dumps(_jsonable({"a": [value]}))
