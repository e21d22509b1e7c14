"""Claim catalog, check_claim, suites, registry, probes."""

import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from absval import (
    DimensionMismatch,
    EnsembleSpec,
    Seed,
    TolerancePolicy,
    abs_value,
    as_matrix,
    catalog,
    check_claim,
    check_registry_instance,
    frobenius,
    probe_conclusions,
    registry,
    run_suite,
    sample,
)
from absval import claims as claims_module
from absval.claims import ALWAYS_HOLDS, ClaimInstance, HYPOTHESIS_FAIL, PASS, REGISTRY_VIOLATION

THEOREM_IDS = [cid for cid, c in catalog().items() if c.expect == ALWAYS_HOLDS]

EXPECTED_IDS = [
    "L-SQRT-PROD",
    "L-SQRT-FACTOR",
    "L-SQRT-SUM",
    "T-LH",
    "R-SQMONO",
    "L-FUG",
    "C-ABSCOMM",
    "C-PRODSA",
    "C-PRODSA-COR",
    "C-PRODNORM",
    "C-EIGHT",
    "C-INV1",
    "C-INV2",
    "C-NFOLD",
    "C-POWZ",
    "L-ANTI",
    "L-REPART",
    "L-HYPROD",
    "C-TRI",
    "C-REIM",
    "C-TRIMINUS",
    "C-TRIN",
    "C-SUMNORM",
    "C-NORMDIFF+",
    "C-NORMDIFF-",
    "L-SANDWICH",
    "C-ABSDIFF-",
    "C-ABSDIFF+",
    "C-NEGCROSS",
    "CE-0",
    "CE-1",
    "CE-2",
    "CE-3",
    "CE-4",
]


def conjunct_names(claim):
    return [name for name, _, _ in claim.hypothesis.conjuncts]


# Tight enough that honest eigensolver round-off in conclusions becomes a
# violation, while hypothesis residuals (plain commutators) stay below it.
TIGHT = TolerancePolicy(rel=1e-15, abs=1e-300)


class TestCatalog:
    def test_exact_id_set(self):
        assert list(catalog()) == EXPECTED_IDS

    def test_registry_claims_marked(self):
        table = catalog()
        for cid in ("CE-0", "CE-1", "CE-2", "CE-3", "CE-4"):
            assert table[cid].expect == REGISTRY_VIOLATION
            assert table[cid].ensemble is None
        assert sum(c.expect == REGISTRY_VIOLATION for c in table.values()) == 5

    def test_every_registry_claim_has_an_instance(self):
        assert {inst.ce_id for inst in registry()} == {"CE-0", "CE-1", "CE-2", "CE-3", "CE-4"}

    def test_registry_claims_derive_from_their_targets(self):
        table = catalog()
        for inst in registry():
            claim, target = table[inst.ce_id], table[inst.target_claim]
            assert target.expect == ALWAYS_HOLDS
            assert claim.hypothesis is target.hypothesis
            assert claim.conclusion is target.conclusion
            assert claim.note == ""  # C-TRI's collapse note stays with C-TRI
            assert claim.arity == len(inst.matrices)
            assert claim.description == inst.description
        # the pair identities are the k = 2 cases of the n-fold conclusions
        product, triangle = table["C-NFOLD"].conclusion, table["C-TRIN"].conclusion
        assert table["C-PRODSA"].conclusion is table["C-PRODNORM"].conclusion is product
        assert table["C-TRI"].conclusion is table["C-NEGCROSS"].conclusion is triangle
        assert table["C-TRIMINUS"].conclusion.plus_form is triangle

    def test_collapse_note_attached(self):
        # a theorem claim carries the note if and only if one of its
        # conjuncts names hyponormality; a counterexample never does
        table = catalog()
        for cid in ("C-TRI", "C-TRIMINUS", "C-TRIN", "C-ABSDIFF-", "C-ABSDIFF+", "L-REPART"):
            assert "hyponormal" in table[cid].note
        for cid, claim in table.items():
            hyponormal = any("hyponormal" in name for name in conjunct_names(claim))
            noted = claim.expect == ALWAYS_HOLDS and hyponormal
            assert claim.note == (claims_module._COLLAPSE_NOTE if noted else ""), cid
        assert {cid for cid, claim in table.items() if claim.note} == {
            "L-REPART", "L-HYPROD", "C-TRI", "C-TRIMINUS", "C-TRIN", "C-ABSDIFF-", "C-ABSDIFF+"
        }

    def test_hypotheses_are_rows(self):
        # every hypothesis is a tuple of (name, predicate, operands) rows
        for cid, claim in catalog().items():
            rows = claim.hypothesis.conjuncts
            assert type(rows) is tuple and rows, cid
            for name, predicate, operands in rows:
                assert type(name) is str and callable(predicate) and callable(operands), cid
        assert not [name for name in vars(claims_module) if name.startswith("_hyp_")]

    def test_registry_flags_name_target_conjuncts(self):
        # a misspelled or stale expected flag would otherwise surface only
        # as a mismatch in a run
        table = catalog()
        for inst in registry():
            names = conjunct_names(table[inst.target_claim])
            assert set(inst.expected_flags) == set(names), inst.ce_id

    @pytest.mark.parametrize("cid", ["C-TRIN", "C-INV1", "L-SANDWICH", "C-NEGCROSS", "R-SQMONO"])
    def test_hypothesis_keys_follow_rows(self, cid):
        claim = catalog()[cid]
        mats = sample(claim.ensemble, 3, Seed(11, f"rows:{cid}", 0))
        ok, flags, residuals = claim.hypothesis(mats, TolerancePolicy())
        names = conjunct_names(claim)
        assert ok is True and list(flags) == names
        assert list(residuals) == [f"hyp_{n}" for n in names]

    def test_descriptions_present(self):
        assert all(c.description for c in catalog().values())


class TestCatalogLint:
    """Guards for claims and rows still to be added: a name clash between
    conjuncts, or between a conclusion extra and the keys ``_evaluate``
    merges it with, would silently overwrite a residual."""

    def test_conjunct_names_unique(self):
        for cid, claim in catalog().items():
            names = conjunct_names(claim)
            assert len(set(names)) == len(names), cid

    @pytest.mark.parametrize("cid", [c for c in EXPECTED_IDS if not c.startswith("CE-")])
    def test_conclusion_extras_keep_their_own_names(self, cid):
        claim = catalog()[cid]
        mats = sample(claim.ensemble, claim.ensemble.dim or 3, Seed(3, f"lint:{cid}", 0))
        _, _, extras = claim.conclusion(mats, TolerancePolicy())
        for name in extras:
            assert name != "conclusion" and not name.startswith("hyp_"), (cid, name)


class TestCheckClaim:
    def test_product_claim_passes_on_commuting_normals(self):
        mats = sample(EnsembleSpec("commuting_normal_family", k=2), 3, Seed(11, "C-PRODNORM:3", 0))
        result = check_claim(ClaimInstance("C-PRODNORM", mats))
        assert result.verdict == PASS
        assert result.hypothesis_ok and result.conclusion_ok
        assert result.residuals["conclusion"] <= 1e-8

    def test_triangle_violation_without_commutation(self):
        # self-adjoint pair that does not commute: hypothesis fails and the
        # triangle inequality itself fails
        a, b = as_matrix([[-1, 1], [1, -1]]), as_matrix([[2, 0], [0, 0]])
        result = check_claim(ClaimInstance("C-TRI", (a, b)))
        assert result.verdict == HYPOTHESIS_FAIL
        assert result.hypothesis_flags == {
            "commutes": False,
            "normal_a": True,
            "hyponormal_b": True,
        }
        assert result.conclusion_ok is False

    def test_inverse_abs_estimates_the_condition_once(self, monkeypatch):
        # C-INV2's conclusion hands the estimate it reports to the guarded
        # inverse: one eigvalsh of A's Gram matrix, for one trial or a stack
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(h.shape) or real(h))
        spec = EnsembleSpec("commuting_normal_family", k=1, invertible=True)
        (a,) = sample(spec, 3, Seed(3, "C-INV2:3"))
        for mats in ((a,), (np.stack([a, 2 * a]),)):
            calls.clear()
            ok, _, extras = catalog()["C-INV2"].conclusion(mats, TolerancePolicy())
            assert np.all(ok) and np.all(extras["condition"] < 1e3)
            assert calls == [mats[0].shape]

    def test_matrices_are_validated_on_construction(self):
        # nested lists are taken as as_matrix takes them: one result either way
        lists = ([[1, 0], [0, 1]], [[2, 0], [0, 1]])
        instance = ClaimInstance("C-TRI", lists)
        assert all(m.dtype == complex and m.shape == (2, 2) for m in instance.matrices)
        result = check_claim(instance)
        assert result == check_claim(ClaimInstance("C-TRI", tuple(map(as_matrix, lists))))
        assert result.verdict == PASS

    def test_non_finite_entries_are_rejected(self):
        # as --matrix-file rejects them, not a HYPOTHESIS_FAIL with NaN residuals
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            ClaimInstance("C-TRI", (as_matrix([[1, 0], [0, 1]]), np.array([[np.nan, 0], [0, 1]])))

    def test_non_square_matrices_are_rejected(self):
        with pytest.raises(DimensionMismatch, match="expected a square matrix"):
            ClaimInstance("C-TRI", (np.ones((2, 3)), np.ones((2, 3))))

    def test_stacks_are_rejected(self):
        # a stack of matrices would give per-trial arrays where ClaimResult
        # holds one bool and one verdict
        s = np.stack([np.eye(2)] * 3)
        with pytest.raises(DimensionMismatch, match=r"n x n matrices, got shapes \[\(3, 2, 2\)"):
            ClaimInstance("C-TRI", (s, s))

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            ClaimInstance("C-TRI", (np.eye(2, dtype=complex),))

    def test_empty_family_is_rejected(self):
        # C-NFOLD's family size is set per trial, so no count check catches ()
        with pytest.raises(ValueError, match="C-NFOLD"):
            ClaimInstance("C-NFOLD", ())

    def test_unknown_claim(self):
        with pytest.raises(KeyError):
            ClaimInstance("NOT-A-CLAIM", ())


class TestRegistry:
    def test_all_five_reproduce(self):
        for inst in registry():
            res = check_registry_instance(inst)
            assert res.ok, (inst.ce_id, res.mismatches)

    def test_ce0_commutation_with_noncommuting_abs(self):
        inst = next(i for i in registry() if i.ce_id == "CE-0")
        a, b = inst.matrices
        # |a| = ([[2,1],[1,3]])/sqrt(5), |b| = diag(0,1):
        # the commutator of the absolute values has norm sqrt(2/5)
        gap = abs_value(a) @ abs_value(b) - abs_value(b) @ abs_value(a)
        assert frobenius(gap) == pytest.approx(np.sqrt(2 / 5), abs=1e-12)

    def test_ce2_and_ce3_carry_caveats(self):
        by_id = {inst.ce_id: inst for inst in registry()}
        assert "diag(1, 4)" in by_id["CE-2"].caveat
        assert "2I" in by_id["CE-3"].caveat
        assert not by_id["CE-0"].caveat

    def test_ce4_margin_magnitude(self):
        inst = next(i for i in registry() if i.ce_id == "CE-4")
        a, b = inst.matrices
        diff = abs_value(a) + abs_value(b) - abs_value(a + b)
        # det of the gap is 4 - 4 sqrt(2) < 0; smallest eigenvalue 2 - 2 sqrt(2)
        assert np.linalg.eigvalsh(diff)[0] == pytest.approx(2 - 2 * np.sqrt(2), abs=1e-12)


class TestRunSuite:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_suite(["C-TRI"], [2], 0, 1)
        with pytest.raises(ValueError):
            run_suite(["C-TRI"], [], 5, 1)
        with pytest.raises(KeyError):
            run_suite(["NOPE"], [2], 5, 1)

    def test_rejects_dims_below_one(self):
        # a usage error, not a block of error records per trial
        for dims in ([0], [-1], [2, 0], [True], [2.0]):
            with pytest.raises(ValueError, match="dims must be nonempty and each >= 1"):
                run_suite(["C-TRI"], dims, 5, 1)

    def test_rejects_duplicate_claims_and_dims(self):
        # a repeated claim or dim would report the same trials twice
        with pytest.raises(ValueError, match="duplicate claim ids: \\['C-TRI'\\]"):
            run_suite(["C-TRI", "C-PRODNORM", "C-TRI"], [2], 3, 1)
        with pytest.raises(ValueError, match="duplicate claim ids"):
            run_suite(["CE-0", "CE-0"], [2], 1, 1)
        with pytest.raises(ValueError, match="duplicate dims: \\[2\\]"):
            run_suite(["C-TRI"], [2, 3, 2], 3, 1)

    @pytest.mark.parametrize("trials", (1, 2))
    @pytest.mark.parametrize("master_seed", (-1, -(2**70), 1.5, "3", True))
    def test_rejects_a_bad_master_seed_before_any_trial(self, trials, master_seed):
        # one usage error, not an error record for a block of one and a
        # ValueError from the seed hash for a larger block
        with pytest.raises(ValueError, match="master seed must be a nonnegative integer"):
            run_suite(["C-TRI", "CE-4"], [1, 2], trials, master_seed)

    @pytest.mark.parametrize("jobs", (0, -5, 2.0, True))
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_suite(["C-TRI"], [2], 3, 1, jobs=jobs)

    @pytest.mark.parametrize("trials", (True, 3.0))
    def test_rejects_trials_that_are_not_integers(self, trials):
        # a bool is an int to Python, and a float would reach range() in a block
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_suite(["C-TRI"], [2], trials, 1)

    def test_small_full_suite_passes(self):
        report = run_suite(list(catalog()), dims=[2, 3], trials=10, master_seed=42)
        assert report.verdict == "pass"
        for stats in report.claims:
            assert stats.passes + len(stats.violations) + stats.hypothesis_failures + len(
                stats.errors
            ) == stats.trials
            assert not stats.violations and not stats.errors
            assert stats.hypothesis_failures == 0

    @pytest.mark.parametrize(
        "jobs, cpus, workers",
        [(5000, 8, 4), (3, 8, 3), (5000, 2, 2), (5000, None, None), (2, 1, None)],
    )
    def test_pool_is_capped_by_tasks_and_cores(self, monkeypatch, jobs, cpus, workers):
        # four tasks (two claims at two dims); the pool is replaced by a
        # serial one, so no large pool is started to test the cap
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns, chunksize):
                return map(fn, *columns)

        # run_suite imports the pool class when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(claims_module.os, "cpu_count", lambda: cpus)
        report = run_suite(["C-TRI", "C-PRODNORM"], [2, 3], 5, 1, jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert report.config["jobs"] == jobs
        serial = run_suite(["C-TRI", "C-PRODNORM"], [2, 3], 5, 1)
        assert [c.to_dict() for c in report.claims] == [c.to_dict() for c in serial.claims]

    def test_import_leaves_the_process_pool_unloaded(self):
        # one-process runs (replays, probes) never pay for concurrent.futures
        code = "import sys, absval; print('concurrent.futures' in sys.modules)"
        src = os.path.dirname(os.path.dirname(claims_module.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_pinned_dimension_families_ignore_requested_dims(self):
        report = run_suite(["C-PRODSA"], dims=[5, 6], trials=4, master_seed=1)
        assert report.claims[0].trials == 4  # one pinned dim, not two requested

    def test_nfold_rejects_dimension_one(self):
        # a family with one non-normal member needs a 2x2 block: each dim-1
        # trial is an error record under its own seed, not a 2x2 pass
        stats = run_suite(["C-NFOLD"], [1], 3, 0).claims[0]
        assert stats.passes == 0 and len(stats.errors) == 3
        assert [e["dim"] for e in stats.errors] == [1, 1, 1]
        assert [e["trial"] for e in stats.errors] == [0, 1, 2]

    def test_forced_violations_and_replay(self):
        report = run_suite(["C-EIGHT"], dims=[8], trials=5, master_seed=7, pol=TIGHT)
        assert report.verdict == "fail"
        stats = report.claims[0]
        assert stats.hypothesis_failures == 0
        assert stats.violations
        for record in stats.violations:
            replay = run_suite(
                ["C-EIGHT"], dims=[record["dim"]], trials=1, master_seed=record["seed"], pol=TIGHT
            )
            replayed = replay.claims[0].violations
            assert len(replayed) == 1
            assert replayed[0]["residuals"] == record["residuals"]

    def test_any_trial_replays_identically(self):
        # the replay contract is not specific to violations: the worst-residual
        # seed of a clean run regenerates a bit-identical result
        report = run_suite(["C-TRI"], dims=[3], trials=8, master_seed=5)
        worst = report.claims[0].worst_residual_seed
        replay = run_suite(["C-TRI"], dims=[3], trials=1, master_seed=worst["seed"])
        assert replay.claims[0].worst_residual == report.claims[0].worst_residual

    def test_serial_and_parallel_reports_match(self):
        ids = list(catalog())
        serial = run_suite(ids, dims=[2], trials=30, master_seed=3, jobs=1)
        parallel = run_suite(ids, dims=[2], trials=30, master_seed=3, jobs=2)
        a = [s.to_dict() for s in serial.claims]
        b = [s.to_dict() for s in parallel.claims]
        assert a == b
        assert serial.verdict == parallel.verdict

    def test_registry_rows_run_once(self):
        report = run_suite(["CE-0", "CE-1", "CE-2", "CE-3", "CE-4"], [2], trials=50, master_seed=0)
        assert report.verdict == "pass"
        assert all(st.trials == 1 and st.passes == 1 for st in report.claims)
        notes = {st.claim_id: st.note for st in report.claims}
        assert notes["CE-3"]  # computed-value caveat surfaces in the report


@pytest.mark.parametrize("np_int", (np.int64, np.int32, np.uint64))
class TestNumpyIntegers:
    """Numpy integer sizes and seeds are taken and used as the ints they
    equal, so nothing numpy reaches a report or a ``ProbeStats``."""

    def test_run_suite_reports_them_as_ints(self, np_int):
        ids = ["C-POWZ", "C-TRI", "CE-0"]  # TIGHT: violation records too
        want = run_suite(ids, [2, 3], 3, 5, TIGHT).to_dict()
        got = run_suite(ids, np.array([2, 3], np_int), np_int(3), np_int(5), TIGHT, np_int(1))
        got = got.to_dict()
        assert want["claims"][0]["violations"]
        del want["wall_time_seconds"], got["wall_time_seconds"]
        assert json.dumps(got) == json.dumps(want)  # json.dumps rejects numpy integers

    def test_probe_stats_hold_ints(self, np_int):
        ids = ["C-TRI", "C-PRODNORM", "T-LH"]
        got = probe_conclusions(ids, np_int(2), np_int(7), np_int(3))
        assert got == probe_conclusions(ids, 2, 7, 3)
        for ps in got:
            assert {type(v) for v in dataclasses.astuple(ps)[1:]} <= {int, type(None)}


class TestProbe:
    def test_conclusions_can_fail_on_general_input(self):
        stats = probe_conclusions(["C-PRODNORM", "C-ABSCOMM"], dim=2, count=50, master_seed=1)
        for ps in stats:
            assert ps.conclusion_failures >= 1
            assert ps.first_failure_seed is not None

    def test_off_hypothesis_errors_are_counted_not_raised(self):
        # fractional powers of indefinite matrices cannot be evaluated
        (ps,) = probe_conclusions(["T-LH"], dim=2, count=20, master_seed=1)
        assert ps.errors == 20
        assert ps.evaluated == 0

    def test_rejects_count_below_one(self):
        # zero trials would read as "evaluated, never failed"
        for count in (0, -1, True, 2.0):
            with pytest.raises(ValueError, match="count must be >= 1"):
                probe_conclusions(["C-TRI"], dim=2, count=count, master_seed=1)

    def test_rejects_dim_below_one(self):
        for dim in (0, -1, True, 2.0):
            with pytest.raises(ValueError, match="dim must be >= 1"):
                probe_conclusions(["C-TRI"], dim=dim, count=5, master_seed=1)

    @pytest.mark.parametrize("claims", (["C-TRI"], THEOREM_IDS))
    @pytest.mark.parametrize("master_seed", (-1, -(2**70), 2.0, "3", True))
    def test_rejects_a_bad_master_seed(self, claims, master_seed):
        # one claim or many, the same error
        with pytest.raises(ValueError, match="master seed must be a nonnegative integer"):
            probe_conclusions(claims, dim=2, count=3, master_seed=master_seed)

    def test_rejects_unknown_and_repeated_claims_as_run_suite_does(self, monkeypatch):
        with pytest.raises(KeyError, match="unknown claim ids: \\['NOPE'\\]"):
            probe_conclusions(["C-TRI", "NOPE"], dim=2, count=3, master_seed=1)
        with pytest.raises(ValueError, match="duplicate claim ids: \\['C-TRI'\\]"):
            probe_conclusions(["C-TRI", "C-PRODNORM", "C-TRI"], dim=2, count=3, master_seed=1)
        # checked with the probe's plan, once per claim list
        checks = []
        real = claims_module._checked_claims
        monkeypatch.setattr(
            claims_module, "_checked_claims", lambda ids: checks.append(ids) or real(ids)
        )
        claims_module._probe_plan.cache_clear()
        for master_seed in (1, 2, 3):
            probe_conclusions(["C-TRI", "L-FUG"], dim=2, count=3, master_seed=master_seed)
        assert checks == [("C-TRI", "L-FUG")]

    def test_probe_bookkeeping_adds_up(self):
        ids = [cid for cid, c in catalog().items() if c.expect == "ALWAYS_HOLDS"]
        for ps in probe_conclusions(ids, dim=2, count=30, master_seed=4):
            assert ps.evaluated + ps.errors == 30
            assert 0 <= ps.conclusion_failures <= ps.evaluated

    def test_probe_failure_seed_replays_to_failure(self):
        (ps,) = probe_conclusions(["C-ABSCOMM"], dim=2, count=50, master_seed=9)
        claim = catalog()["C-ABSCOMM"]
        seed = Seed(ps.first_failure_seed, "probe:C-ABSCOMM:2", 0)
        rng = seed.generator()
        from absval import gen_general

        mats = tuple(gen_general(2, rng) for _ in range(2))
        ok, _, _ = claim.conclusion(mats, TolerancePolicy())
        assert not ok
