"""The batched non-vacuity probe counts exactly what a per-trial loop counts.

``probe_conclusions`` derives the seeds of every (claim, trial) pair in one
pass, draws each trial's matrices in one call, builds the trials of the
claims of one arity together and evaluates the trials of the claims that
share a conclusion as one stack.
``reference_probe`` below is the plain loop it replaced: one seed, ``arity``
general draws and one conclusion per trial.
"""

import numpy as np
import pytest

from absval import (
    DEFAULT_POLICY,
    ProbeStats,
    Seed,
    TolerancePolicy,
    catalog,
    gen_general,
    probe_conclusions,
)
from absval import claims as claims_module
from absval import generators

THEOREM_IDS = [cid for cid, c in catalog().items() if c.expect == "ALWAYS_HOLDS"]
MASTERS = (20170228, 2**64, 2**70 + 3)  # one 32-bit word; two wider than 64 bits


def reference_probe(claim_ids, dim, count, master_seed, pol=DEFAULT_POLICY, draw=gen_general):
    table = catalog()
    out = []
    for cid in claim_ids:
        claim = table[cid]
        arity = claim.arity if claim.arity > 0 else 3
        failures = errors = evaluated = 0
        first = None
        for trial in range(count):
            seed = Seed(master_seed, f"probe:{cid}:{dim}", trial)
            rng = seed.generator()
            mats = tuple(draw(dim, rng) for _ in range(arity))
            try:
                ok, _, _ = claim.conclusion(mats, pol)
            except Exception:
                errors += 1
                continue
            evaluated += 1
            if not ok:
                failures += 1
                if first is None:
                    first = seed.replay_master
        out.append(ProbeStats(cid, evaluated, failures, errors, first))
    return out


@pytest.fixture
def stack_sizes(monkeypatch):
    """Record the number of trials of every evaluated probe stack."""
    sizes = []
    real = claims_module._split_on_raise

    def recording(evaluate, stack, size):
        sizes.append(size)
        return real(evaluate, stack, size)

    monkeypatch.setattr(claims_module, "_split_on_raise", recording)
    return sizes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("master", MASTERS, ids=("20170228", "2**64", "2**70+3"))
@pytest.mark.parametrize("dim", (1, 2, 3, 8))
def test_batched_probe_matches_the_per_trial_loop(monkeypatch, stack_sizes, dim, master):
    assert probe_conclusions(THEOREM_IDS, dim, 1, master) == reference_probe(
        THEOREM_IDS, dim, 1, master
    )
    expected = reference_probe(THEOREM_IDS, dim, 40, master)
    assert any(ps.conclusion_failures for ps in expected)
    assert any(ps.errors for ps in expected)
    for cap in (generators.STACK_BYTES, 2048, 1):
        monkeypatch.setattr(generators, "STACK_BYTES", cap)
        stack_sizes.clear()
        assert probe_conclusions(THEOREM_IDS, dim, 40, master) == expected, cap
        assert sum(stack_sizes) == 40 * len(THEOREM_IDS)
        if cap == 1:  # one trial at a time
            assert set(stack_sizes) == {1}
        else:
            assert max(stack_sizes) > 1



# claims that share a conclusion, apart and out of catalog order (a
# repeated claim is a usage error).  (list, conclusions among them)
SHARED = (
    (["C-TRIMINUS", "L-ANTI", "C-TRI", "C-NEGCROSS"], 2),
    (["C-NORMDIFF-", "C-PRODNORM", "C-ABSDIFF+", "C-NORMDIFF+", "C-PRODSA", "C-ABSDIFF-"], 3),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("claim_ids, kernels", SHARED, ids=("triangle", "pairs"))
@pytest.mark.parametrize("dim", (1, 2, 8))
def test_claims_sharing_a_conclusion_share_its_stacks(stack_sizes, claim_ids, kernels, dim):
    for count in (1, 40):
        stack_sizes.clear()
        expected = reference_probe(claim_ids, dim, count, 11)
        assert probe_conclusions(claim_ids, dim, count, 11) == expected
        assert sum(stack_sizes) == count * len(claim_ids)
        if count == 1:  # one stack per conclusion
            assert len(stack_sizes) == kernels


def _poisoned(m):
    """``m`` with a NaN first entry where that entry's real part exceeds 1."""
    m[..., 0, 0] = np.where(m.real[..., 0, 0] > 1.0, np.nan, m[..., 0, 0])
    return m


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_a_shared_stack_that_raises_counts_each_trial_alone(monkeypatch, stack_sizes, dim):
    claim_ids = ["C-TRIMINUS", "C-ABSDIFF+", "C-TRI", "C-NEGCROSS", "C-ABSDIFF-"]
    real = claims_module.build

    def poisoned(spec, drawn):
        return tuple(map(_poisoned, real(spec, drawn)))

    monkeypatch.setattr(claims_module, "build", poisoned)
    expected = reference_probe(
        claim_ids, dim, 40, 13, draw=lambda n, rng: _poisoned(gen_general(n, rng).copy())
    )
    assert all(ps.errors and ps.evaluated for ps in expected)
    assert probe_conclusions(claim_ids, dim, 40, 13) == expected
    assert max(stack_sizes) == 3 * 40


FORCED = TolerancePolicy(rel=1e-15, abs=1e-300)


@pytest.mark.parametrize("pol", (DEFAULT_POLICY, FORCED), ids=("default", "forced"))
@pytest.mark.parametrize("dim", (1, 2, 3, 4, 8))
def test_a_reused_plan_counts_what_the_loop_counts(dim, pol):
    # the second call of each count runs on the plan the first one made
    claims_module._probe_plan.cache_clear()
    for count in (1, 7, 40):
        expected = reference_probe(THEOREM_IDS, dim, count, 5, pol)
        for _ in range(2):
            assert probe_conclusions(THEOREM_IDS, dim, count, 5, pol) == expected
    info = claims_module._probe_plan.cache_info()
    assert (info.misses, info.hits) == (3, 3)
