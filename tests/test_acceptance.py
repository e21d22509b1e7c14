"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Budgets and tolerances
are pinned here; nothing is deferred to later calibration.
"""

import os
import time

import numpy as np

from absval import (
    EnsembleSpec,
    Seed,
    TolerancePolicy,
    abs_value,
    adjoint,
    catalog,
    check_registry_instance,
    frobenius,
    gen_general,
    is_hyponormal,
    is_normal,
    operator_norm,
    probe_conclusions,
    psd_power,
    psd_sqrt,
    psd_sqrt_iterative,
    registry,
    run_suite,
    sample,
    symmetrize,
)

SUITE_POLICY = TolerancePolicy(rel=1e-8, abs=1e-12)
MASTER = 20240811
PROBE_MASTER = 2024
JOBS = min(4, os.cpu_count() or 1)

THEOREM_IDS = [cid for cid, c in catalog().items() if c.expect == "ALWAYS_HOLDS"]


def announce(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, detail


def is_integral(m) -> bool:
    return bool(np.all(m.imag == 0) and np.all(m.real == np.round(m.real)))


def test_criterion_1_registry_reproduction():
    started = time.perf_counter()
    results = {inst.ce_id: check_registry_instance(inst, SUITE_POLICY) for inst in registry()}
    elapsed = time.perf_counter() - started
    problems = [f"{cid}: {r.mismatches}" for cid, r in results.items() if not r.ok]

    by_id = {inst.ce_id: inst for inst in registry()}
    for cid in ("CE-1", "CE-2"):
        for name, value in by_id[cid].expected_values.items():
            if not is_integral(value):
                problems.append(f"{cid} {name} expected value is not integral")
        for name, residual in results[cid].value_residuals.items():
            if residual > 1e-10:
                problems.append(f"{cid} {name} residual {residual:.2e} beyond 1e-10")
    if not by_id["CE-2"].caveat or not by_id["CE-3"].caveat:
        problems.append("computed-value caveats missing on CE-2 / CE-3")
    if elapsed >= 1.0:
        problems.append(f"registry run took {elapsed:.2f}s, budget 1s")
    announce(
        1,
        not problems,
        problems or f"five counterexamples reproduced, values exact, {elapsed * 1e3:.0f}ms",
    )


def test_criterion_2_theorem_suite():
    report = run_suite(
        THEOREM_IDS, dims=[2, 3, 4, 8], trials=1000, master_seed=MASTER,
        pol=SUITE_POLICY, jobs=JOBS,
    )
    problems = []
    for stats in report.claims:
        if stats.violations:
            problems.append(f"{stats.claim_id}: {len(stats.violations)} violations")
        if stats.errors:
            problems.append(f"{stats.claim_id}: {len(stats.errors)} numerical errors")
        if stats.hypothesis_failures:
            problems.append(f"{stats.claim_id}: {stats.hypothesis_failures} hypothesis failures")
    if report.verdict != "pass":
        problems.append(f"verdict {report.verdict}")
    if report.wall_time >= 120.0:
        problems.append(f"suite took {report.wall_time:.1f}s, budget 120s")
    total = sum(stats.trials for stats in report.claims)
    announce(
        2,
        not problems,
        problems
        or f"{len(THEOREM_IDS)} claims, {total} trials, zero violations, {report.wall_time:.1f}s",
    )


def test_criterion_3_square_root_oracle_agreement():
    worst_gap = worst_residual = 0.0
    problems = []
    for n in (2, 4, 8):
        for trial in range(200):
            g = gen_general(n, Seed(MASTER, f"oracle:{n}", trial))
            p = symmetrize(adjoint(g) @ g)
            scale = max(1.0, frobenius(p))
            direct = psd_sqrt(p)
            iterated = psd_sqrt_iterative(p)
            gap = frobenius(direct - iterated) / scale
            worst_gap = max(worst_gap, gap)
            for root in (direct, iterated):
                res = frobenius(root @ root - p) / scale
                worst_residual = max(worst_residual, res)
    if worst_gap > 1e-8:
        problems.append(f"route disagreement {worst_gap:.2e} beyond 1e-8")
    if worst_residual > 1e-10:
        problems.append(f"square residual {worst_residual:.2e} beyond 1e-10")
    announce(
        3,
        not problems,
        problems or f"600 matrices, worst gap {worst_gap:.2e}, worst residual {worst_residual:.2e}",
    )


def test_criterion_4_loewner_heinz_margins():
    worst = np.inf
    for n in (2, 4):
        for trial in range(500):
            a, b = sample(EnsembleSpec("ordered_psd_pair"), n, Seed(MASTER, f"lh:{n}", trial))
            for alpha in (0.25, 0.5, 0.75):
                diff = psd_power(a, alpha) - psd_power(b, alpha)
                worst = min(worst, float(np.linalg.eigvalsh(diff)[0]))
    announce(4, worst >= -1e-9, f"1000 ordered pairs x 3 powers, worst margin {worst:.2e}")


def test_criterion_5_finite_dimensional_collapse():
    disagreements = 0
    for n in range(2, 9):
        for trial in range(1000):
            a = gen_general(n, Seed(MASTER, f"collapse:{n}", trial))
            if is_hyponormal(a).holds != is_normal(a).holds:
                disagreements += 1
    announce(5, disagreements == 0, f"7000 matrices, {disagreements} disagreements")


def test_criterion_6_norm_identity():
    worst = 0.0
    for trial in range(500):
        n = 2 + trial % 7
        a = gen_general(n, Seed(MASTER, "norm", trial))
        worst = max(worst, abs(operator_norm(abs_value(a)) - operator_norm(a)))
    announce(6, worst <= 1e-9, f"500 matrices, worst | ||A|| - |||A||| | = {worst:.2e}")


def test_criterion_7_non_vacuity_probe():
    targets = ("C-TRI", "C-PRODNORM", "C-ABSCOMM", "C-ABSDIFF-", "C-NORMDIFF+")
    stats = probe_conclusions(targets, dim=2, count=1000, master_seed=PROBE_MASTER)
    problems = [
        f"{ps.claim_id}: no conclusion failure in 1000 unconstrained pairs"
        for ps in stats
        if ps.conclusion_failures < 1
    ]
    detail = ", ".join(f"{ps.claim_id}={ps.conclusion_failures}" for ps in stats)
    announce(7, not problems, problems or f"failures per claim: {detail}")


def test_criterion_8_determinism_and_replay():
    problems = []

    # violation seeds replay bit-for-bit (violations forced by a tolerance
    # far below honest round-off; hypotheses still pass at that tolerance)
    tight = TolerancePolicy(rel=1e-15, abs=1e-300)
    forced = run_suite(["C-EIGHT", "C-POWZ"], dims=[8], trials=5, master_seed=7, pol=tight)
    total_violations = 0
    for stats in forced.claims:
        if stats.hypothesis_failures:
            problems.append(f"{stats.claim_id}: forcing leaked into hypotheses")
        for record in stats.violations:
            total_violations += 1
            replay = run_suite(
                [stats.claim_id], dims=[record["dim"]], trials=1,
                master_seed=record["seed"], pol=tight,
            )
            replayed = replay.claims[0].violations
            if len(replayed) != 1 or replayed[0]["residuals"] != record["residuals"]:
                problems.append(f"{stats.claim_id} seed {record['seed']} did not replay")
    if total_violations == 0:
        problems.append("forcing produced no violations to replay")

    # serial and parallel runs produce identical reports
    ids = list(catalog())
    serial = run_suite(ids, dims=[2, 3], trials=40, master_seed=MASTER, pol=SUITE_POLICY, jobs=1)
    parallel = run_suite(ids, dims=[2, 3], trials=40, master_seed=MASTER, pol=SUITE_POLICY, jobs=JOBS)
    if [s.to_dict() for s in serial.claims] != [s.to_dict() for s in parallel.claims]:
        problems.append("serial and parallel reports differ")
    if serial.verdict != parallel.verdict:
        problems.append("serial and parallel verdicts differ")

    announce(
        8,
        not problems,
        problems
        or f"{total_violations} violation seeds replayed identically; serial == parallel",
    )
