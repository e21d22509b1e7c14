"""The three benchmark workloads, their seeded inputs and their output checks.

Every input is a pure function of the workload seed (:func:`replay_argv`,
:func:`oracle_inputs`, and the master seed handed to ``run_suite``), and the
program only ever receives the generated inputs.  Each ``run_*`` function
returns a :class:`Outcome`: the end-to-end throughput, the work attempted and
failed, whether every output check held, informational lines, and (when
traced) the per-layer measurements.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import absval
from absval import Seed, TolerancePolicy, catalog, cli, sample

from hostclock import HostClock
from spans import Tracer, installed

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_report.json")

JOBS = os.cpu_count() or 1
DIMS = (2, 3, 4, 8)
SWEEP_TRIALS = 250  # the runner's block size: a batched kernel gets full blocks
MIN_SERIAL_PASSES = 2  # so every run also checks that a repeated pass agrees
SUITE_POLICY = TolerancePolicy(rel=1e-8, abs=1e-12)  # criterion 2's policy
THEOREM_IDS = [cid for cid, c in catalog().items() if c.expect == "ALWAYS_HOLDS"]
# Named here rather than read from the library, so the per-layer metric names
# stay fixed when the library reorganizes its ensemble table.
ENSEMBLE_KINDS = (
    "unitary",
    "self_adjoint",
    "normal",
    "general",
    "anti_symmetric",
    "commuting_normal_family",
    "commuting_family_one_nonnormal",
    "commuting_positive_pair",
    "sa_pair_normal_product",
    "negative_cross_pair",
    "ordered_psd_pair",
    "sandwich_pair",
    "fuglede_pair",
)

# ROADMAP's golden report: all claims, dims {2, 3, 8}, 50 trials, fixed seed,
# default tolerances -- i.e. ``absval --claims all --dims 2,3,8 --trials 50``.
GOLDEN_DIMS = (2, 3, 8)
GOLDEN_TRIALS = 50
GOLDEN_SEED = 20170228

REGISTRY_SHARE = 0.05
REGISTRY_ARGV = ["--claims", "CE-0,CE-1,CE-2,CE-3,CE-4", "--format", "json"]

ORACLE_DIMS = (2, 4, 8)
SIGMA_MINS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
ROUTE_BOUND = 1e-8  # criterion 3's route-agreement bound
WELL_CONDITIONED = 1e6  # condition number of G* G below which the bound is gated
ABS_GATED_SIGMA = 1e-2  # abs_value accuracy is gated only at this sigma_min
ACCURACY_CYCLES = 50  # worst errors are taken over a fixed prefix, so they repeat per seed


@dataclass
class Outcome:
    units_per_s: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    tracer: Tracer | None = None


def canonical(obj) -> str:
    """Key-sorted JSON; NaN and infinities survive as tokens so equal reports
    compare equal as strings."""
    return json.dumps(obj, sort_keys=True)


def claims_json(claims) -> str:
    """The deterministic part of a suite report: ``claims[*].to_dict()``."""
    return canonical([c.to_dict() for c in claims])


def fingerprint(claims) -> str:
    return hashlib.sha256(claims_json(claims).encode("utf-8")).hexdigest()


def trial_metric(cid: str) -> str:
    """Per-claim trial cost metric; '+' is not allowed in metric names."""
    return "claims.trial_us." + cid.replace("+", "_plus")


def _fro(x) -> float:
    # not np.linalg.norm: the benchmark's own checks must not show up in the
    # traced linalg counts
    return float(np.sqrt(np.sum(np.abs(x) ** 2)))


# ---------------------------------------------------------------------------
# sweep


def _sweep_pass(seed: int, jobs: int, now=perf_counter) -> tuple[list, float]:
    t0 = now()
    report = absval.run_suite(THEOREM_IDS, DIMS, SWEEP_TRIALS, seed, SUITE_POLICY, jobs=jobs)
    return report.claims, now() - t0


def _sweep_problems(claims) -> list[str]:
    problems = []
    for st in claims:
        if st.violations or st.errors or st.hypothesis_failures:
            problems.append(
                f"{st.claim_id}: {len(st.violations)} violations, {len(st.errors)} errors, "
                f"{st.hypothesis_failures} hypothesis failures"
            )
    return problems


def _sweep_failed(claims) -> int:
    return sum(len(s.violations) + len(s.errors) + s.hypothesis_failures for s in claims)


def golden_report() -> dict:
    report = absval.run_suite(list(catalog()), GOLDEN_DIMS, GOLDEN_TRIALS, GOLDEN_SEED)
    return {
        "config": report.config,
        "claims": [c.to_dict() for c in report.claims],
        "verdict": report.verdict,
    }


def golden_match() -> bool:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return canonical(json.load(fh)) == canonical(golden_report())


def _stage_split(seed: int) -> dict:
    """Call sample / Claim.hypothesis / Claim.conclusion for the sweep's seeds,
    timing each stage; per-claim trial cost and hypothesis failures too.
    Times are at reference host speed, so they compare with the one-process
    pass's normalized time."""
    table = catalog()
    stages = {"generate": 0.0, "hypothesis": 0.0, "conclusion": 0.0}
    trial_s = {}
    trials = hyp_failed = 0
    clock = HostClock()
    now = clock.now
    with clock.sampling():
        for cid in THEOREM_IDS:
            claim = table[cid]
            dims = [claim.ensemble.dim] if claim.ensemble.dim is not None else DIMS
            spent = count = 0
            for dim in dims:
                for trial in range(SWEEP_TRIALS):
                    seed_ = Seed(seed, f"{cid}:{dim}", trial)
                    t0 = now()
                    mats = sample(claim.ensemble, dim, seed_)
                    t1 = now()
                    ok = claim.hypothesis(mats, SUITE_POLICY)[0]
                    t2 = now()
                    claim.conclusion(mats, SUITE_POLICY)
                    t3 = now()
                    stages["generate"] += t1 - t0
                    stages["hypothesis"] += t2 - t1
                    stages["conclusion"] += t3 - t2
                    spent += t3 - t0
                    count += 1
                    hyp_failed += not ok
            clock.add(spent)
            trial_s[cid] = spent / count
            trials += count
    scale = clock.normalized / clock.raw  # reference-speed seconds per raw second
    return {
        "claims.generate_s": stages["generate"] * scale,
        "claims.hypothesis_s": stages["hypothesis"] * scale,
        "claims.conclusion_s": stages["conclusion"] * scale,
        "claims.hypothesis_fail_frac": hyp_failed / trials,
        **{trial_metric(cid): 1e6 * t * scale for cid, t in trial_s.items()},
    }


def run_sweep(seed: int, seconds: float, traced: bool) -> Outcome:
    """run_suite over every always-holds claim at dims {2, 3, 4, 8}: the same
    inputs once on a pool of nproc workers, then on one process at least
    ``MIN_SERIAL_PASSES`` times and again while the time allows.  Every
    one-process pass must give the pool's report."""
    out = Outcome(0.0, 0, 0)
    out.info["golden_match"] = golden_match()
    started = perf_counter()
    pool, pool_wall = _sweep_pass(seed, JOBS)
    pool_json = claims_json(pool)
    trials = sum(c.trials for c in pool)
    out.info["report_sha256"] = fingerprint(pool)
    out.attempted += trials
    out.failed += _sweep_failed(pool)
    out.problems += _sweep_problems(pool)
    clock = HostClock()
    passes = 0
    with clock.sampling():
        while True:
            pass_started = perf_counter()
            serial, wall = _sweep_pass(seed, 1, clock.now)
            clock.add(wall)
            passes += 1
            out.attempted += trials
            out.failed += _sweep_failed(serial)
            if claims_json(serial) != pool_json:
                out.problems.append(f"one-process pass {passes} and pool reports differ")
            now = perf_counter()
            if passes >= MIN_SERIAL_PASSES and (
                traced or (now - started) + (now - pass_started) > seconds
            ):
                break
    out.units_per_s = passes * trials / clock.normalized
    out.info["serial_passes"] = passes
    out.info["trials_per_pass"] = trials
    out.info["serial_trials_per_s"] = out.units_per_s
    out.info["serial_trials_per_s_raw"] = passes * trials / clock.raw
    out.info["pool_trials_per_s"] = trials / pool_wall  # raw: samples would compete with the pool
    out.info["jobs"] = JOBS
    if traced:
        layers = _stage_split(seed)
        stages = sum(layers[f"claims.{s}_s"] for s in ("generate", "hypothesis", "conclusion"))
        layers["claims.runner_s"] = clock.normalized / passes - stages
        layers["claims.pool_efficiency"] = clock.raw / passes / (JOBS * pool_wall)
        tracer = Tracer()
        with installed(tracer):
            traced_claims, traced_wall = _sweep_pass(seed, 1)
        if claims_json(traced_claims) != pool_json:
            out.problems.append("traced sweep report differs from the untraced one")
        layers["trace.overhead_frac"] = traced_wall / (clock.raw / passes) - 1.0
        out.layers, out.tracer = layers, tracer
    return out


# ---------------------------------------------------------------------------
# replay


def replay_argv(seed: int):
    """Endless seeded stream of CLI argument lists: one-trial replays of a
    random claim, dim and seed, plus a fixed share of registry-only runs."""
    rng = np.random.default_rng([seed, 0x5EED])
    while True:
        if rng.random() < REGISTRY_SHARE:
            yield list(REGISTRY_ARGV)
            continue
        cid = THEOREM_IDS[int(rng.integers(len(THEOREM_IDS)))]
        dim = DIMS[int(rng.integers(len(DIMS)))]
        yield [
            "--claims", cid, "--dims", str(dim), "--seed", str(int(rng.integers(2**31))),
            "--trials", "1", "--tol-rel", repr(SUITE_POLICY.rel), "--format", "json",
        ]


def _replay_call(argv, now=perf_counter) -> tuple[float, str | None]:
    """One in-process CLI call; returns its latency and a problem, if any."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            t0 = now()
            code = cli.main(argv)
            latency = now() - t0
    except Exception as exc:  # a crash is a failed replay, not a benchmark crash
        return 0.0, f"{argv}: raised {type(exc).__name__}: {exc}"
    if code != 0:
        return latency, f"{argv}: exit {code}"
    report = json.loads(buf.getvalue())
    if report["verdict"] != "pass" or not report["claims"]:
        return latency, f"{argv}: verdict {report['verdict']}"
    return latency, None


def _replay_loop(argvs, out: Outcome, clock: HostClock | None = None) -> list[float]:
    latencies = []
    for argv in argvs:
        latency, problem = _replay_call(argv, perf_counter if clock is None else clock.now)
        out.attempted += 1
        if problem:
            out.failed += 1
            out.problems.append(problem)
            continue
        latencies.append(latency)
        if clock is not None:
            clock.add(latency)
    return latencies


def run_replay(seed: int, seconds: float, traced: bool) -> Outcome:
    """Closed loop, one client: each CLI call starts when the last one ends."""
    out = Outcome(0.0, 0, 0)
    stream = replay_argv(seed)
    warm = replay_argv(seed + 1)
    for argv in [REGISTRY_ARGV] + [next(warm) for _ in range(20)]:  # lazy set-up
        _replay_call(argv)
    budget = seconds / 2 if traced else seconds
    argvs, latencies = [], []  # argvs are kept only to replay them traced
    clock = HostClock()
    started = perf_counter()
    with clock.sampling():
        while perf_counter() - started < budget:
            argv = next(stream)
            if traced:
                argvs.append(argv)
            latencies += _replay_loop([argv], out, clock)
    if not latencies:
        return out
    out.units_per_s = len(latencies) / clock.normalized
    out.info["calls_per_s_raw"] = len(latencies) / clock.raw
    out.info["calls"] = out.attempted
    out.info["replay_ms_p50"] = 1e3 * statistics.median(latencies)
    out.info["replay_ms_p99"] = 1e3 * statistics.quantiles(latencies, n=100)[98]
    if traced:
        tracer = Tracer()
        with installed(tracer):
            traced_latencies = _replay_loop(argvs, out)
        out.layers["trace.overhead_frac"] = sum(traced_latencies) / sum(latencies) - 1.0
        out.tracer = tracer
    return out


# ---------------------------------------------------------------------------
# oracle probe


def _gaussian(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def _unitary(rng, n):
    q, r = np.linalg.qr(_gaussian(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def oracle_inputs(seed: int, cycle: int) -> list[dict]:
    """One cycle of oracle-probe inputs per dimension in (2, 4, 8): a Gram
    matrix G* G, a general matrix, A = U diag(sigma) V* for each sigma_min
    with its exact |A| = V diag(sigma) V*, and a probe master seed."""
    rng = np.random.default_rng([seed, cycle, 0x0AC1E])
    cases = []
    for n in ORACLE_DIMS:
        g = _gaussian(rng, n)
        p = g.conj().T @ g
        sv = np.linalg.svd(g, compute_uv=False)
        ladder = []
        for sigma_min in SIGMA_MINS:
            u, v = _unitary(rng, n), _unitary(rng, n)
            sigma = np.geomspace(1.0, sigma_min, n)
            vh = v.conj().T
            ladder.append((sigma_min, (u * sigma) @ vh, (v * sigma) @ vh))
        cases.append(
            {
                "n": n,
                "gram": (p + p.conj().T) / 2,
                "gram_condition": float((sv[0] / sv[-1]) ** 2),
                "general": _gaussian(rng, n),
                "ladder": ladder,
                "probe_master": int(rng.integers(2**31)),
            }
        )
    return cases


def _attempt(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # an error on well-posed input is counted, not fatal
        return None, exc


def _oracle_cycle(cases, now=perf_counter) -> tuple[list, float]:
    """Program calls only, timed; checks happen afterwards."""
    results = []
    t0 = now()
    for case in cases:
        p, h = case["gram"], case["general"]
        results.append(
            {
                "sqrt": _attempt(absval.psd_sqrt, p),
                "sqrt_iterative": _attempt(absval.psd_sqrt_iterative, p),
                "normal": _attempt(absval.is_normal, h),
                "hyponormal": _attempt(absval.is_hyponormal, h),
                "abs": [_attempt(absval.abs_value, a) for _, a, _ in case["ladder"]],
                "probe": _attempt(
                    absval.probe_conclusions, THEOREM_IDS, case["n"], 1, case["probe_master"]
                ),
            }
        )
    return results, now() - t0


class _OracleTally:
    def __init__(self, out: Outcome):
        self.out = out
        self.abs_err = 0.0  # worst errors over the first ACCURACY_CYCLES cycles
        self.sqrt_gap = 0.0
        self.probe_raises = 0
        self.probe_evaluated = 0
        self.matrices = 0
        table = catalog()  # probe_conclusions draws 3 matrices for a family claim
        self.per_probe = sum(table[c].arity if table[c].arity > 0 else 3 for c in THEOREM_IDS)

    def fail(self, message):
        self.out.failed += 1
        self.out.problems.append(message)

    def check(self, cases, results, cycle: int):
        for case, res in zip(cases, results):
            n = case["n"]
            self.out.attempted += 3 + len(case["ladder"])
            self.matrices += 2 + len(case["ladder"]) + self.per_probe
            (s1, e1), (s2, e2) = res["sqrt"], res["sqrt_iterative"]
            if e1 or e2:
                self.fail(f"n={n}: square root raised on G*G: {e1 or e2!r}")
            else:
                gap = _fro(s1 - s2) / max(1.0, _fro(case["gram"]))
                if cycle < ACCURACY_CYCLES:
                    self.sqrt_gap = max(self.sqrt_gap, gap)
                if case["gram_condition"] <= WELL_CONDITIONED and gap > ROUTE_BOUND:
                    self.fail(f"n={n}: route gap {gap:.3e} beyond {ROUTE_BOUND:.0e}")
            (nm, e1), (hy, e2) = res["normal"], res["hyponormal"]
            if e1 or e2:
                self.fail(f"n={n}: predicate raised on a general matrix: {e1 or e2!r}")
            elif bool(nm) != bool(hy):
                self.fail(f"n={n}: hyponormal={bool(hy)} but normal={bool(nm)}")
            for (sigma_min, _, exact), (got, err) in zip(case["ladder"], res["abs"]):
                if err:
                    self.fail(f"n={n}: abs_value raised at sigma_min={sigma_min:.0e}: {err!r}")
                    continue
                rel = _fro(got - exact) / _fro(exact)
                if cycle < ACCURACY_CYCLES:
                    self.abs_err = max(self.abs_err, rel)
                if sigma_min >= ABS_GATED_SIGMA and rel > ROUTE_BOUND:
                    self.fail(f"n={n}: |A| error {rel:.3e} at sigma_min={sigma_min:.0e}")
            stats, err = res["probe"]
            if err:
                self.fail(f"n={n}: probe_conclusions raised: {err!r}")
            else:
                self.probe_evaluated += len(stats)
                self.probe_raises += sum(s.errors for s in stats)


def run_oracle(seed: int, seconds: float, traced: bool) -> Outcome:
    """Unstructured and ill-conditioned input: both square-root routes, the
    hyponormal/normal collapse, off-hypothesis conclusions, and |A| across a
    conditioning ladder against the exact V diag(sigma) V*."""
    out = Outcome(0.0, 0, 0)
    tally = _OracleTally(out)
    _oracle_cycle(oracle_inputs(seed + 1, 0))  # warm-up
    budget = seconds / 2 if traced else seconds
    cycles = 0
    clock = HostClock()
    started = perf_counter()
    with clock.sampling():
        while perf_counter() - started < budget:
            cases = oracle_inputs(seed, cycles)
            results, elapsed = _oracle_cycle(cases, clock.now)
            clock.add(elapsed)
            tally.check(cases, results, cycles)
            cycles += 1
    out.units_per_s = tally.matrices / clock.normalized
    out.info["oracle_matrices_per_s_raw"] = tally.matrices / clock.raw
    out.info["cycles"] = cycles
    out.info["oracle_matrices_per_s"] = out.units_per_s
    out.info["abs_err_log10_max"] = float(np.log10(tally.abs_err))
    out.info["sqrt_gap_log10_max"] = float(np.log10(tally.sqrt_gap))
    out.info["probe_raise_frac"] = tally.probe_raises / max(1, tally.probe_evaluated)
    if traced:
        # inputs are generated before tracing starts: generation calls numpy.linalg
        inputs = [oracle_inputs(seed, cycle) for cycle in range(cycles)]
        tracer = Tracer()
        traced_spent = 0.0
        with installed(tracer):
            for cases in inputs:
                traced_spent += _oracle_cycle(cases)[1]
        out.layers["trace.overhead_frac"] = traced_spent / clock.raw - 1.0
        out.tracer = tracer
    return out


WORKLOADS = {"sweep": run_sweep, "replay": run_replay, "oracle-probe": run_oracle}
