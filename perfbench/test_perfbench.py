"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``."""

import json
import os
import shutil
import subprocess
import sys

import signal
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import absval  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402
from spans import Tracer, installed  # noqa: E402


def _small_sweep():
    report = absval.run_suite(workloads.THEOREM_IDS, (2, 3), 4, 11, workloads.SUITE_POLICY)
    return workloads.fingerprint(report.claims)


def test_tracing_passes_values_through():
    untraced = _small_sweep()
    originals = (absval.abs_value, absval.claims.abs_value, np.linalg.eigh, absval.Seed.generator)
    tracer = Tracer()
    with installed(tracer):
        assert absval.claims.abs_value is not originals[1]
        traced = _small_sweep()
    assert traced == untraced
    assert (absval.abs_value, absval.claims.abs_value, np.linalg.eigh, absval.Seed.generator) == (
        originals
    )
    assert tracer.count("calculus.abs_value") > 0
    assert tracer.count("linalg.eigh") > 0
    assert tracer.count("generators.seed") > 0


def test_self_time_excludes_children():
    a = absval.gen_general(4, 3)
    tracer = Tracer()
    with installed(tracer):
        absval.is_hyponormal(a)
    (hypo,) = tracer._select("predicates.is_hyponormal")
    (order,) = tracer._select("calculus.loewner_leq")
    # loewner_leq is is_hyponormal's only traced child
    assert abs(tracer.self_time[hypo] - (tracer.total[hypo] - tracer.total[order])) < 1e-9
    assert tracer.span_name[0] == hypo and tracer.span_parent[0] == -1
    assert tracer.span_name[1] == order and tracer.span_parent[1] == 0


def test_host_clock_leaves_samples_out():
    clock = HostClock()
    handler = signal.getsignal(signal.SIGALRM)
    with clock.sampling():
        t0, wall0 = clock.now(), perf_counter()
        while perf_counter() - wall0 < 0.3:
            pass
        clock.add(clock.now() - t0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(clock._speeds) >= 5  # one on entry, then one per 25 ms
    assert 0.0 < clock.raw < 0.3 and clock.normalized > 0.0


def test_replay_stream_is_a_function_of_the_seed():
    def take(seed, count=300):
        stream = workloads.replay_argv(seed)
        return [next(stream) for _ in range(count)]

    assert take(5) == take(5)
    assert take(5) != take(6)
    assert workloads.REGISTRY_ARGV in take(5)


def test_oracle_inputs_are_a_function_of_the_seed():
    def flat(seed, cycle):
        cases = workloads.oracle_inputs(seed, cycle)
        return [c["gram"] for c in cases] + [a for c in cases for _, a, _ in c["ladder"]]

    for a, b in zip(flat(5, 2), flat(5, 2)):
        assert np.array_equal(a, b)
    assert not np.array_equal(flat(5, 2)[0], flat(6, 2)[0])
    assert [c["probe_master"] for c in workloads.oracle_inputs(5, 2)] == [
        c["probe_master"] for c in workloads.oracle_inputs(5, 2)
    ]


def test_oracle_exact_absolute_value():
    for case in workloads.oracle_inputs(1, 0):
        for _, a, exact in case["ladder"]:
            assert np.allclose(exact @ exact, a.conj().T @ a, atol=1e-12)


def test_declared_metrics_match_measured():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    outcome = workloads.Outcome(1.0, 1, 0, tracer=Tracer(), layers={"trace.overhead_frac": 0.0})
    values = run.layer_metrics(outcome, workloads.THEOREM_IDS, workloads.ENSEMBLE_KINDS)
    assert sorted(values) == sorted(m["name"] for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_golden_report_reproduces():
    assert workloads.golden_match()


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
