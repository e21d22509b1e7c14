"""The batched non-vacuity probe counts exactly what a per-trial loop counts.

``probe_conclusions`` derives the seeds of every (claim, trial) pair in one
pass, draws each trial's matrices in one call and evaluates a claim's trials
as stacks.  ``reference_probe`` below is the plain loop it replaced: one
seed, ``arity`` general draws and one conclusion per trial.
"""

import pytest

from absval import DEFAULT_POLICY, ProbeStats, Seed, catalog, gen_general, probe_conclusions
from absval import claims as claims_module

THEOREM_IDS = [cid for cid, c in catalog().items() if c.expect == "ALWAYS_HOLDS"]
MASTERS = (20170228, 2**64, 2**70 + 3)  # one 32-bit word; two wider than 64 bits


def reference_probe(claim_ids, dim, count, master_seed, pol=DEFAULT_POLICY):
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
            mats = tuple(gen_general(dim, rng) for _ in range(arity))
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
    for cap in (claims_module.STACK_BYTES, 2048, 1):
        monkeypatch.setattr(claims_module, "STACK_BYTES", cap)
        stack_sizes.clear()
        assert probe_conclusions(THEOREM_IDS, dim, 40, master) == expected, cap
        assert sum(stack_sizes) == 40 * len(THEOREM_IDS)
        if dim == 1 or cap == 1:  # one trial at a time
            assert set(stack_sizes) == {1}
        else:
            assert max(stack_sizes) > 1

