"""absval benchmark: one command, three workloads, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads are ``sweep``, ``replay`` and ``oracle-probe`` (see README.md in
this directory).  With ``--trace 0`` the last stdout line is a JSON object
whose metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics, measured in a separate traced
pass.  Output checks that fail are listed on stderr, the result says
``"correct": false`` and the exit code is 1.  Without ``src/absval`` to
benchmark, the command prints no result and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

# One process of load with BLAS threads pinned to 1; set before numpy loads.
BLAS_PIN = {
    var: "1"
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(BLAS_PIN)
# Python salts str hashes per process, which moves the speed of dict-heavy
# code (argument parsing, JSON, the claim tables) by a few percent from one
# process to the next.  One fixed salt keeps runs comparable.
HASH_SEED = "0"

TRACE_DIR = ".bench_out"  # spans of traced runs, inside the checkout
SETUP_RUNS = 9
# The child times its own set-up, then reference passes on the same CPU right
# after it (past the first one's first-call effects) to scale by.
SETUP_CODE = (
    "import statistics, time\n"
    "t0 = time.perf_counter()\n"
    "import absval\n"
    "absval.catalog()\n"
    "absval.registry()\n"
    "t1 = time.perf_counter()\n"
    "import hostclock\n"
    "hostclock.reference_pass()\n"
    "print(t1 - t0, statistics.median(hostclock.reference_pass() for _ in range(9)))\n"
)


def measure_setup(src: str) -> tuple[float, float]:
    """Median time, in a fresh process each, to import absval and build the
    claim catalog and the counterexample registry: normalized to the
    reference host speed, and raw."""
    from hostclock import REFERENCE_S

    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]), PYTHONDONTWRITEBYTECODE="1")
    times, normalized = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        elapsed, reference = (float(x) for x in done.stdout.split())
        times.append(elapsed)
        normalized.append(elapsed * REFERENCE_S / reference)
    return statistics.median(normalized), statistics.median(times)


# Units of the informational figures each workload prints before its result.
INFO_UNITS = {
    "setup_s_raw": "s",
    "failed_frac": "ratio",
    "serial_trials_per_s": "1/s",
    "pool_trials_per_s": "1/s",
    "serial_trials_per_s_raw": "1/s",
    "replay_ms_p50": "ms",
    "replay_ms_p99": "ms",
    "calls_per_s_raw": "1/s",
    "oracle_matrices_per_s": "1/s",
    "oracle_matrices_per_s_raw": "1/s",
    "abs_err_log10_max": "log10",
    "sqrt_gap_log10_max": "log10",
    "probe_raise_frac": "ratio",
}


def environment(args) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_PIN,
        "machine": platform.machine(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def layer_metrics(outcome, claim_ids, kinds) -> dict:
    """Every per-layer metric from the tracer plus the workload's own stage
    measurements; a layer the workload never calls reads 0."""
    from workloads import trial_metric

    tr = outcome.tracer
    m = {}
    for fn in ("eigh", "eigvalsh", "inv", "slogdet", "qr", "norm"):
        m[f"linalg.{fn}.calls"] = tr.count(f"linalg.{fn}")
    m["linalg.eigh.matrices_per_call"] = tr.variant_mean("linalg.eigh")
    for fn in ("hermitian_eigen", "operator_norm"):
        m[f"core.{fn}.calls"] = tr.count(f"core.{fn}")
        m[f"core.{fn}.us_per_call"] = tr.us_per_call(f"core.{fn}")
    m["core.approx_eq.calls"] = tr.count("core.approx_eq")
    m["core.frobenius.calls"] = tr.count("core.frobenius")
    for fn in ("abs_value", "loewner_leq"):
        m[f"calculus.{fn}.calls"] = tr.count(f"calculus.{fn}")
        for n in (2, 4, 8):
            m[f"calculus.{fn}.us_per_call.n{n}"] = tr.us_per_call(f"calculus.{fn}", f"n{n}")
    for fn in ("psd_sqrt", "psd_sqrt_iterative", "psd_power", "inverse", "condition_estimate"):
        m[f"calculus.{fn}.calls"] = tr.count(f"calculus.{fn}")
        m[f"calculus.{fn}.us_per_call"] = tr.us_per_call(f"calculus.{fn}")
    m["calculus.raise_frac"] = tr.raise_frac("calculus.")
    for fn in (
        "is_normal",
        "is_hyponormal",
        "is_positive",
        "is_self_adjoint",
        "commutes",
        "is_anti_symmetric",
    ):
        m[f"predicates.{fn}.calls"] = tr.count(f"predicates.{fn}")
        m[f"predicates.{fn}.us_per_call"] = tr.us_per_call(f"predicates.{fn}")
    m["predicates.self_s"] = tr.self_seconds("predicates.")
    for kind in kinds:
        m[f"generators.sample.us_per_call.{kind}"] = tr.us_per_call("generators.sample", kind)
    m["generators.seed.us_per_call"] = tr.us_per_call("generators.seed")
    for name in ("generate_s", "hypothesis_s", "conclusion_s", "runner_s"):
        m[f"claims.{name}"] = outcome.layers.get(f"claims.{name}", 0.0)
    for cid in claim_ids:
        m[trial_metric(cid)] = outcome.layers.get(trial_metric(cid), 0.0)
    m["claims.hypothesis_fail_frac"] = outcome.layers.get("claims.hypothesis_fail_frac", 0.0)
    m["claims.pool_efficiency"] = outcome.layers.get("claims.pool_efficiency", 0.0)
    m["claims.registry_us"] = tr.us_per_call("claims.check_registry_instance")
    m["cli.parse_us"] = tr.us_per_call("cli.parse_config")
    m["cli.execute_us"] = tr.us_per_call("cli.execute")
    m["cli.emit_us"] = tr.us_per_call("cli.emit_report")
    m["trace.overhead_frac"] = outcome.layers["trace.overhead_frac"]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "absval", "__init__.py")):
        sys.stderr.write("perfbench: no src/absval here; run from the root of an absval checkout\n")
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    sys.path.insert(0, src)
    import workloads  # imports absval, so only after src is on the path

    print("env " + json.dumps(environment(args)), flush=True)
    setup_s, setup_raw_s = measure_setup(src)
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.info["setup_s_raw"] = setup_raw_s
    outcome.info["failed_frac"] = outcome.failed / max(1, outcome.attempted)
    for key, value in outcome.info.items():
        print(f"info {key} {value} {INFO_UNITS.get(key, '')}".rstrip())
    for problem in outcome.problems[:20]:
        sys.stderr.write(f"check failed: {problem}\n")
    if args.trace and outcome.tracer is None:  # every call failed before the traced pass
        return 1

    if args.trace:
        declared = spec["per_layer"]
        values = layer_metrics(outcome, workloads.THEOREM_IDS, workloads.ENSEMBLE_KINDS)
        path = os.path.join(TRACE_DIR, f"spans-{args.workload}-{args.seed}")
        outcome.tracer.dump(path)
        print(f"info spans {len(outcome.tracer.span_start)} dropped {outcome.tracer.dropped} "
              f"written to {path}.npz")
    else:
        declared = spec["end_to_end"]
        values = {
            "setup_s": setup_s,
            "throughput_per_s": outcome.units_per_s,
            "peak_rss_mb": peak_rss_mb,
        }
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) ^ set(values))
        sys.stderr.write(f"perfbench: measured and declared metrics differ: {missing}\n")
        return 3
    for m in declared:
        print(f"metric {m['name']} {values[m['name']]} {m['unit']}")
    correct = not outcome.problems
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:  # restart with the fixed salt
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
