"""Seeded ensembles: hypotheses hold by construction, streams replay exactly."""

import hashlib
from collections import Counter
from itertools import product

import numpy as np
import pytest

from absval import (
    ConvergenceError,
    EnsembleSpec,
    Seed,
    TolerancePolicy,
    adjoint,
    catalog,
    commutes,
    condition_estimate,
    frobenius,
    gen_general,
    is_anti_symmetric,
    is_normal,
    is_positive,
    is_self_adjoint,
    loewner_leq,
    sample,
)
from absval import claims as claims_module
from absval import generators
from absval.generators import sample_block


UNITARY = EnsembleSpec("unitary")
SA_PAIR = EnsembleSpec("sa_pair_normal_product", dim=2)


class TestSeedStreams:
    def test_identical_tuples_identical_bits(self):
        a = gen_general(3, Seed(42, "x", 7))
        b = gen_general(3, Seed(42, "x", 7))
        assert a.tobytes() == b.tobytes()

    def test_distinct_tags_and_trials_differ(self):
        base = gen_general(3, Seed(42, "x", 7))
        assert gen_general(3, Seed(42, "y", 7)).tobytes() != base.tobytes()
        assert gen_general(3, Seed(42, "x", 8)).tobytes() != base.tobytes()
        assert gen_general(3, Seed(43, "x", 7)).tobytes() != base.tobytes()

    def test_replay_master_reproduces_stream(self):
        seed = Seed(123456789, "C-TRI:3", 41)
        replayed = Seed(seed.replay_master, "C-TRI:3", 0)
        a, b = gen_general(3, seed), gen_general(3, replayed)
        assert a.tobytes() == b.tobytes()

    def test_replay_master_is_identity_at_trial_zero(self):
        assert Seed(77, "t", 0).replay_master == 77

    @pytest.mark.parametrize(
        "master, trial",
        [(2.9, 0), (True, 0), ("5", 0), (-1, 0), (np.float64(3), 0), (1, 2.5), (1, True), (1, -1)],
    )
    def test_seeds_take_only_nonnegative_integers(self, master, trial):
        with pytest.raises(ValueError, match="nonnegative integers"):
            Seed(master, "t", trial)
        if trial == 0:
            with pytest.raises(ValueError, match="nonnegative integers"):
                sample(EnsembleSpec("normal"), 3, master)
            with pytest.raises(ValueError, match="nonnegative integers"):
                gen_general(3, master)

    @pytest.mark.parametrize("tag", [5, None, b"x"])
    def test_seed_tags_must_be_str(self, tag):
        with pytest.raises(ValueError, match="claim_tag must be a str"):
            Seed(1, tag)

    def test_numpy_integer_seeds_give_the_int_stream(self):
        seed = Seed(np.uint64(3), "t", np.int64(2))
        assert seed == Seed(3, "t", 2) and seed.replay_master == Seed(3, "t", 2).replay_master
        assert gen_general(3, seed).tobytes() == gen_general(3, Seed(3, "t", 2)).tobytes()
        assert gen_general(3, np.int64(4)).tobytes() == gen_general(3, 4).tobytes()


class TestUnitary:
    def test_unitarity_residual(self):
        for n in (1, 2, 5, 8):
            for seed in range(20):
                (u,) = sample(UNITARY, n, Seed(seed, f"u:{n}"))
                assert frobenius(adjoint(u) @ u - np.eye(n)) <= 1e-10 * n

    def test_scalar_case_has_unit_modulus(self):
        (u,) = sample(UNITARY, 1, 5)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


class TestCommutingNormalFamily:
    def test_pairwise_commuting_and_normal(self):
        for seed in range(50):
            fam = sample(EnsembleSpec("commuting_normal_family", k=3), 4, seed)
            for m in fam:
                res = is_normal(m)
                assert res.holds and res.residual <= 1e-9
            for i in range(3):
                for j in range(i + 1, 3):
                    res = commutes(fam[i], fam[j])
                    assert res.holds and res.residual <= 1e-10

    def test_invertible_flag_bounds_condition(self):
        for seed in range(20):
            (a,) = sample(EnsembleSpec("commuting_normal_family", k=1, invertible=True), 4, seed)
            assert condition_estimate(a) <= 11.0  # annulus 0.1..1 plus rounding


class TestOneNonNormalFamily:
    def test_structure(self):
        for seed in range(40):
            fam = sample(EnsembleSpec("commuting_family_one_nonnormal", k=3), 4, seed)
            non_normal = [m for m in fam if not is_normal(m)]
            assert len(non_normal) == 1
            # the non-normal member is robustly non-normal, not borderline
            assert is_normal(non_normal[0]).residual > 1e-3
            for i in range(len(fam)):
                for j in range(i + 1, len(fam)):
                    assert commutes(fam[i], fam[j]).residual <= 1e-10

    def test_needs_dimension_two(self):
        with pytest.raises(ValueError):
            sample(EnsembleSpec("commuting_family_one_nonnormal", k=3), 1, 0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_explicit_k_is_the_family_size(self, k):
        # k = 1 is a family of one; only an unset k draws 3 or 4
        spec = EnsembleSpec("commuting_family_one_nonnormal", k=k)
        for seed in range(10):
            assert len(sample(spec, 3, seed)) == k


class TestSelfAdjointPairNormalProduct:
    def test_hypotheses_hold(self):
        for seed in range(60):
            a, b = sample(SA_PAIR, 2, seed)
            assert a.shape == (2, 2)
            assert is_self_adjoint(a).residual <= 1e-12
            assert is_self_adjoint(b).residual <= 1e-12
            assert is_normal(a @ b).residual <= 1e-10

    def test_product_is_not_self_adjoint_nor_commuting(self):
        for seed in range(60):
            a, b = sample(SA_PAIR, 2, seed)
            prod = a @ b
            assert frobenius(prod - adjoint(prod)) > 1e-4
            assert not commutes(a, b)


class TestNegativeCrossPair:
    def test_cross_term_nonpositive_and_commuting(self):
        for seed in range(50):
            a, b = sample(EnsembleSpec("negative_cross_pair"), 3, seed)
            assert is_normal(a)
            assert commutes(a, b).residual <= 1e-12
            cross = adjoint(a) @ b + adjoint(b) @ a
            assert loewner_leq(cross, np.zeros_like(cross)).holds


class TestOrderedPsdPair:
    @pytest.mark.parametrize("commuting", [False, True])
    def test_order_and_positivity(self, commuting):
        for seed in range(50):
            a, b = sample(EnsembleSpec("ordered_psd_pair", commuting=commuting), 3, seed)
            assert is_positive(b)
            assert loewner_leq(b, a).holds
            if commuting:
                assert commutes(a, b).residual <= 1e-10

    def test_noncommuting_pairs_usually_do_not_commute(self):
        hits = sum(
            bool(commutes(*sample(EnsembleSpec("ordered_psd_pair"), 3, seed))) for seed in range(20)
        )
        assert hits == 0


class TestSandwichPair:
    def test_sandwich_holds(self):
        for seed in range(50):
            t, s = sample(EnsembleSpec("sandwich_pair"), 3, seed)
            assert is_self_adjoint(t) and is_self_adjoint(s)
            assert is_positive(s)
            assert loewner_leq(-s, t).holds
            assert loewner_leq(t, s).holds


@pytest.mark.parametrize(
    "spec", [EnsembleSpec("sandwich_pair"), EnsembleSpec("ordered_psd_pair", commuting=True)]
)
def test_builds_that_diagonalize_raise_convergence_errors(spec, monkeypatch):
    """The builds call the eigensolver through ``core.eigh_exact``, which looks
    ``np.linalg.eigh`` up at each call, so a LAPACK failure there is a
    ConvergenceError and a patched routine sees every build's call."""

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(ConvergenceError, match="eigensolver did not converge"):
        sample(spec, 3, 5)


class TestFugledePair:
    def test_both_truth_values_appear(self):
        verdicts = set()
        for seed in range(40):
            a, b = sample(EnsembleSpec("fuglede_pair"), 3, seed)
            assert is_normal(a)
            verdicts.add(bool(commutes(a, b)))
        assert verdicts == {True, False}


class TestHypothesisSoundness:
    """Every ensemble satisfies its claim's hypothesis, not just usually."""

    def test_all_claim_ensembles_pass_their_hypotheses(self):
        from absval import TolerancePolicy, catalog

        pol = TolerancePolicy(rel=1e-9, abs=1e-12)
        for cid, claim in catalog().items():
            if claim.expect != "ALWAYS_HOLDS":
                continue
            for n in (2, 3, 4, 8):
                for trial in range(40):
                    mats = sample(claim.ensemble, n, Seed(99, f"{cid}:{n}", trial))
                    ok, flags, _ = claim.hypothesis(mats, pol)
                    assert ok, (cid, n, trial, flags)


class TestGeneralAndSpecs:
    def test_finite_entries(self):
        assert np.all(np.isfinite(gen_general(2, 9)))

    def test_anti_symmetric_kind(self):
        assert is_anti_symmetric(*sample(EnsembleSpec("anti_symmetric"), 4, 3))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: EnsembleSpec("general", k=True), "family size k must be >= 1"),
            (lambda: EnsembleSpec("general", k=2.0), "family size k must be >= 1"),
            (lambda: EnsembleSpec("normal", dim=True), "dim must be >= 1"),
            (lambda: EnsembleSpec("normal", dim=2.0), "dim must be >= 1"),
            (lambda: sample(EnsembleSpec("normal"), True, 1), "dim must be >= 1"),
            (lambda: sample(EnsembleSpec("normal"), 2.0, 1), "dim must be >= 1"),
            (lambda: sample(EnsembleSpec("normal"), 0, 1), "dim must be >= 1"),
        ],
        ids=["k-bool", "k-float", "dim-bool", "dim-float", "n-bool", "n-float", "n-zero"],
    )
    def test_sizes_must_be_integers_and_not_bools(self, make, message):
        # a bool or a float used to construct, then fail inside numpy
        with pytest.raises(ValueError, match=message):
            make()

    def test_ensemble_spec_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(kind="nonsense")
        with pytest.raises(ValueError):
            EnsembleSpec(kind="general", k=0)
        with pytest.raises(ValueError):
            EnsembleSpec(kind="general", dim=0)

    @pytest.mark.parametrize("n", (1, 2, 4, 8))
    def test_general_family_is_successive_general_draws(self, n):
        family = sample(EnsembleSpec(kind="general", k=3), n, Seed(8, "family", 3))
        rng = Seed(8, "family", 3).generator()
        singles = [gen_general(n, rng) for _ in range(3)]
        # the route gen_general took before a family was drawn in one call
        rng = Seed(8, "family", 3).generator()
        two_calls = []
        for _ in range(3):
            re, im = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            two_calls.append(1.0 * (re + 1j * im) / np.sqrt(2))
        assert len(family) == 3
        for m, single, old in zip(family, singles, two_calls):
            assert m.dtype == single.dtype and m.shape == single.shape == (n, n)
            assert m.tobytes() == single.tobytes() == old.tobytes()

    @pytest.mark.parametrize("n", (1, 2, 4, 8))
    def test_general_stacks_are_family_samples(self, n):
        spec = EnsembleSpec(kind="general", k=3)
        seeds = [Seed(2, "stack", t) for t in range(5)]
        draw, _ = generators._KINDS["general"]
        stacks = generators.build(spec, draw([s.generator() for s in seeds], n, spec))
        one = generators.build(spec, draw([seeds[2].generator()], n, spec))
        for i, seed in enumerate(seeds):
            for m, single in zip(stacks, sample(spec, n, seed)):
                assert m.shape == (5, n, n) and m[i].tobytes() == single.tobytes()
        for m, single in zip(one, sample(spec, n, seeds[2])):
            assert m.shape == (1, n, n) and m[0].tobytes() == single.tobytes()
        if n > 1:  # sample_block draws the same trials, which build into the same bits
            ((_, drawn),) = suite_block(spec, n, 2, "stack", 0, 5)
            block = generators.build(spec, drawn)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(block, stacks))

    def test_sample_respects_pinned_dimension(self):
        spec = EnsembleSpec(kind="sa_pair_normal_product", dim=2)
        a, b = sample(spec, 8, Seed(3, "pin"))
        assert a.shape == b.shape == (2, 2)

    @pytest.mark.parametrize("dim", (None, 1, 3, 8))
    def test_sa_pair_exists_only_at_dim_two(self, dim):
        # its draw makes 2x2 matrices whatever n, which a run would label dim n
        with pytest.raises(ValueError, match="only at dim=2"):
            EnsembleSpec("sa_pair_normal_product", dim=dim)

    def test_sample_unitary_kind(self):
        (u,) = sample(EnsembleSpec(kind="unitary"), 3, Seed(1, "u"))
        assert frobenius(adjoint(u) @ u - np.eye(3)) <= 1e-10 * 3

    def test_sample_is_deterministic(self):
        spec = EnsembleSpec(kind="commuting_normal_family", k=2)
        first = sample(spec, 3, Seed(5, "det", 2))
        second = sample(spec, 3, Seed(5, "det", 2))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(first, second))


# ---------------------------------------------------------------------------
# seed derivation and block builds: bit-for-bit what sample gives one trial

MASTERS = (0, 7, 2**32 + 1, 2**63 + 5)  # of one (0, 7) and two (2**32 + 1, 2**63 + 5) 32-bit words
BLOCK_DIMS = (1, 2, 3, 4, 8)
SPECS = sorted({c.ensemble for c in catalog().values() if c.ensemble is not None}, key=repr)


def reference_generator(master, tag, trial):
    """The stream as numpy's own SeedSequence seeds it."""
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    replay = master
    if trial:
        replay = int(np.random.SeedSequence([master, trial]).generate_state(1, np.uint64)[0])
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([replay] + words)))


class TestSeedDerivation:
    TAGS = ("", "x", "C-TRI:3", "probe:L-ANTI:8")
    WIDE_MASTERS = MASTERS + (1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 + 3, 20170228)

    def test_int_route_matches_seed_sequence(self):
        checked = 0
        for master in self.WIDE_MASTERS:
            for tag in self.TAGS:
                for trial in (*range(60), 2**32 - 1, 2**32 + 5):
                    got = Seed(master, tag, trial).generator().bit_generator.state
                    assert got == reference_generator(master, tag, trial).bit_generator.state
                    checked += 1
        assert checked > 2000

    @pytest.mark.parametrize(
        "start,count", [(0, 60), (250, 37), (2**32 - 2, 5), (0, 1), (0, 2), (5, 4)]
    )
    def test_block_route_matches_seed_sequence(self, start, count):
        # one tag per call, as sample_block asks, and every tag in one call,
        # as the probe asks: (tag, trial) pairs tag by tag
        for master in self.WIDE_MASTERS:
            for tags in [[tag] for tag in self.TAGS] + [list(self.TAGS)]:
                rngs = list(generators._block_generators(master, tags, start, count))
                pairs = [(tag, trial) for tag in tags for trial in range(start, start + count)]
                assert len(rngs) == len(pairs)
                for (tag, trial), rng in zip(pairs, rngs):
                    ref = reference_generator(master, tag, trial)
                    assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("master", (0, 1, 2**32 - 1, 2**64 - 1, 2**70 + 3))
    def test_one_trial_probe_skips_the_trial_fold(self, monkeypatch, master):
        # trial 0 of every probe tag is the master itself: the one array pass
        # left is the tags' own, and a master wider than 64 bits takes the
        # Python-int route with none
        theorems = tuple(cid for cid, c in catalog().items() if c.expect == "ALWAYS_HOLDS")
        _, tags, _ = claims_module._probe_plan(theorems, 4, 1)
        passes = []
        real = generators._derived
        monkeypatch.setattr(generators, "_derived", lambda *a: passes.append(a[1]) or real(*a))
        rngs = list(generators._block_generators(master, tags, 0, 1))
        assert len(tags) == len(rngs) == 29
        for tag, rng in zip(tags, rngs):
            assert rng.bit_generator.state == Seed(master, tag, 0).generator().bit_generator.state
        folds = [] if master > 2**64 - 1 else [[master] * 29]  # the tags' pass, no trial fold
        assert [values.tolist() for values in passes] == folds

    def test_mixed_word_counts_in_one_pass(self):
        # replay masters of one and two 32-bit words, derived in one call,
        # with one tag for all of them or a tag of their own each
        values = np.array([0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, 12345], dtype=np.uint64)
        tags = ["C-EIGHT:4"] * len(values)
        got = generators._derived([], values, list(generators._tag_words(tags[0])), 8)
        own_tags = ["", "a", "C-TRI:3", "x", "probe:C-EIGHT:8", "C-EIGHT:4", "y"]
        words = np.array([generators._tag_words(t) for t in own_tags], dtype=np.uint64)
        got_own = generators._derived([], values, list(words.T), 8)
        for derived, tag_list in ((got, tags), (got_own, own_tags)):
            for v, row, tag in zip(values, derived, tag_list):
                entropy = [int(v), *generators._tag_words(tag)]
                ref = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
                assert row.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n_words", (2, 8))
    @pytest.mark.parametrize("lanes", (1, 2, 29, 250, 1000))
    def test_lane_kernel_matches_seed_sequence(self, lanes, n_words):
        # entropy of 1 to 7 words: a prefix every lane shares, the lane's
        # value (one word, two for a wide one), then suffix rows of one word
        # for every lane or of a word per lane
        rng = np.random.default_rng(lanes)
        special = [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]
        draws = rng.integers(0, 2**64, lanes, dtype=np.uint64, endpoint=False)
        values = np.where(rng.random(lanes) < 0.5, draws >> np.uint64(32), draws)
        value_sets = [np.array([v], dtype=np.uint64) for v in special] if lanes == 1 else [values]
        if lanes > 1:
            values[: len(special)] = special[:lanes]
        for extra in range(6):
            prefix = rng.integers(0, 2**32, extra // 2).tolist()
            suffix = [
                int(rng.integers(2**32)) if i % 2 else rng.integers(0, 2**32, lanes, dtype=np.uint32)
                for i in range(extra - extra // 2)
            ]
            for vals in value_sets:
                got = generators._derived(prefix, vals, suffix, n_words)
                assert got.shape == (len(vals), n_words // 2) and got.dtype == np.uint64
                for j, v in enumerate(vals):
                    tail = [int(w[j]) if isinstance(w, np.ndarray) else w for w in suffix]
                    seq = np.random.SeedSequence([*prefix, int(v), *tail])
                    assert got[j].tobytes() == seq.generate_state(n_words // 2, np.uint64).tobytes()

    def test_replay_master_matches_seed_sequence(self):
        for master in self.WIDE_MASTERS:
            for trial in (1, 2, 99, 2**32 + 5):
                ref = np.random.SeedSequence([master, trial]).generate_state(1, np.uint64)[0]
                assert Seed(master, "t", trial).replay_master == int(ref)


def suite_block(spec, n, master, tag, start, count):
    """``sample_block`` as the suite calls it for trials ``start .. start +
    count - 1`` of the stream ``(master, tag)``."""
    rngs = generators._block_generators(master, [tag], start, count)
    return sample_block(spec, n, rngs, np.arange(start, start + count))


def block_slices(spec, n, master, tag, count, start=0):
    """Every yielded stack of a block, built and checked slice by slice
    against sample; each trial's own row of the draws, built alone as the
    runner builds a trial that runs alone, checked the same way."""
    numbers, n = [], spec.dim or n  # the suite passes a pinned spec's own dim
    for trials, drawn in suite_block(spec, n, master, tag, start, count):
        assert isinstance(trials, np.ndarray) and all(len(x) == len(trials) for x in drawn)
        assert len(trials) <= generators.stack_depth(n)
        stack = generators.build(spec, drawn)
        numbers.extend(trials.tolist())
        for i, trial in enumerate(trials):
            seed = Seed(master, tag, int(trial))
            single = sample(spec, n, seed)
            alone = generators.build(spec, [x[i] for x in drawn])
            assert len(stack) == len(alone) == len(single)
            for m, a, s in zip(stack, alone, single):
                assert m[i].dtype == a.dtype == s.dtype and m[i].shape == a.shape == s.shape
                assert m[i].tobytes() == a.tobytes() == s.tobytes(), (spec, n, seed)
        yield trials, stack
    assert sorted(numbers) == list(range(start, start + count))


def spec_id(s):
    # an unset family size is labelled k1, which keeps the test ids stable
    return f"{s.kind}-k{s.k or 1}-{s.invertible}-{s.commuting}"


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_every_block_slice_is_sample(spec, monkeypatch):
    for n in BLOCK_DIMS:
        if spec.kind == "commuting_family_one_nonnormal" and n == 1:
            with pytest.raises(ValueError, match="n >= 2"):  # no 1x1 family has one
                sample(spec, n, Seed(5, "block:1"))
            continue
        for master in MASTERS:
            # trials 0 .. 11: trial 0 is the one whose seed is not folded
            yields = list(block_slices(spec, n, master, f"block:{n}", 12))
            assert any(len(trials) > 1 for trials, _ in yields)  # stacks, not single trials
        # every block size from 1 to 17, from trial 0 and from trial 5, in
        # stacks of up to STACK_BYTES and of up to 1 KiB (at n = 8 one trial,
        # so each trial alone)
        for cap in (generators.STACK_BYTES, 1024):
            with monkeypatch.context() as patch:
                patch.setattr(generators, "STACK_BYTES", cap)
                for count, start in product(range(1, 18), (0, 5)):
                    list(block_slices(spec, n, MASTERS[2], f"sizes:{n}", count, start))


def test_block_stacks_respect_the_byte_cap(monkeypatch):
    monkeypatch.setattr(generators, "STACK_BYTES", 8192)
    spec = EnsembleSpec(kind="commuting_normal_family", k=3)
    depths = []
    for trials, stack in block_slices(spec, 8, 5, "cap", 40):
        assert len(trials) == 1 or max(m.nbytes for m in stack) <= 8192
        depths.append(len(trials))
    assert depths == [8] * 5  # each 8x8 matrix stack holds 8 KiB, whatever the family size


def test_nfold_blocks_mix_family_sizes():
    spec = catalog()["C-NFOLD"].ensemble
    for n in BLOCK_DIMS[1:]:  # a non-normal member needs n >= 2
        sizes = Counter()
        for trials, stack in block_slices(spec, n, 20170228, f"C-NFOLD:{n}", 40):
            sizes[len(stack)] += len(trials)
        assert set(sizes) == {3, 4} and sum(sizes.values()) == 40


def test_fuglede_blocks_take_both_branches():
    spec = EnsembleSpec(kind="fuglede_pair")
    for n in BLOCK_DIMS[1:]:  # 1x1 matrices always commute
        verdicts = Counter()
        for trials, (a, b) in block_slices(spec, n, 3, f"L-FUG:{n}", 40):
            for i in range(len(trials)):
                verdicts[bool(commutes(a[i], b[i]))] += 1
        assert verdicts[True] > 1 and verdicts[False] > 1


# ---------------------------------------------------------------------------
# the stream contract: a draw makes one call per distribution, and its
# numbers are those of the sequence of per-array calls it replaced


def reference_draw(rng, n, spec):
    """A kind's draw as it was made before it was fused: each Gaussian
    matrix and each array of uniforms from a call of its own, the uniforms
    already on their ranges, returned as one array per call."""

    def gaussian():
        return [rng.standard_normal((n, n)), rng.standard_normal((n, n))]

    def diagonal(invertible):
        turns = rng.uniform(0.0, 1.0, n)
        return [turns, rng.uniform(0.1, 1.0, n) if invertible else rng.uniform(0.0, 1.0, n)]

    kind = spec.kind
    if kind in ("unitary", "self_adjoint", "anti_symmetric"):
        return gaussian()
    if kind in ("normal", "commuting_normal_family"):
        out = gaussian()
        for _ in range(spec.k or 1):
            out += diagonal(spec.invertible)
        return out
    if kind == "commuting_positive_pair":
        return gaussian() + [rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)]
    if kind == "commuting_family_one_nonnormal":
        k = spec.k or int(3 + rng.integers(2))
        if n < 2:
            raise ValueError("non-normal commuting families need n >= 2")
        out = gaussian()
        special = int(rng.integers(k))
        out.append(special)
        for i in range(k):
            out += diagonal(False)
            if i == special:
                corner = [rng.uniform(0.3, 1.0), rng.uniform()]
        return out + corner
    if kind == "sa_pair_normal_product":
        out = gaussian()
        while True:
            phi, psi = rng.uniform(0.0, np.pi, 2)
            if abs(np.sin(2 * (phi - psi))) >= 0.1:
                break
        while True:
            mags = rng.uniform(0.1, 1.0, 2)
            if abs(mags[0] - mags[1]) >= 0.05:
                break
        signs = rng.choice([-1.0, 1.0], 2)
        reflection = generators._plane_reflection
        return out + [signs[0] * mags[0] * reflection(phi), signs[1] * mags[1] * reflection(psi)]
    if kind == "negative_cross_pair":
        out = gaussian() + diagonal(False)
        return out + [complex(-rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0))]
    if kind == "ordered_psd_pair":
        return gaussian() + ([rng.uniform(0.0, 1.0, n)] if spec.commuting else gaussian())
    if kind == "fuglede_pair":
        out = gaussian() + diagonal(False)
        return out + (diagonal(False) if int(rng.integers(2)) else gaussian())
    raise AssertionError(f"no reference for {kind}")


def in_reference_layout(spec, drawn):
    """A fused draw in :func:`reference_draw`'s layout, each uniform put on
    its range the way ``rng.uniform`` puts it: ``lo + (hi - lo) * r``."""

    def on(r, lo=0.0, hi=1.0):
        return lo + (hi - lo) * r

    kind = spec.kind
    g, rest = drawn[0], drawn[1:]
    out = [g[0], g[1]]
    if kind in ("normal", "commuting_normal_family"):
        for turns, radii in rest[0]:
            out += [on(turns), on(radii, 0.1, 1.0) if spec.invertible else on(radii)]
    elif kind == "ordered_psd_pair" and not spec.commuting:
        out += list(rest[0])
    elif kind in ("commuting_positive_pair", "ordered_psd_pair"):
        out += [on(r, 0.0, 1.0) for r in np.atleast_2d(rest[0])]
    elif kind == "commuting_family_one_nonnormal":
        special, r = rest
        at = 2 * len(g[0]) * (special + 1)  # the corner's two uniforms follow its member's diagonal
        out += [special, *on(np.concatenate((r[:at], r[at + 2 :]))).reshape(-1, len(g[0]))]
        out += [on(r[at], 0.3, 1.0), on(r[at + 1])]
    elif kind == "sa_pair_normal_product":
        out += list(rest)
    elif kind == "negative_cross_pair":
        (r,) = rest
        out += [*on(r[:-2]).reshape(2, -1), complex(-on(r[-2]), on(r[-1], -1.0, 1.0))]
    elif kind == "fuglede_pair":
        r, commuting, diagonal, gaussian = rest
        out += [on(r[0]), on(r[1])]
        out += [on(diagonal[0]), on(diagonal[1])] if commuting else [gaussian[0], gaussian[1]]
    return out


FUSED_SPECS = sorted(
    {s for s in SPECS if s.kind not in ("general", "sandwich_pair")}
    | {
        EnsembleSpec("unitary"),
        EnsembleSpec("normal"),
        # pinned to a size the loop below does not reach; spec_id leaves dim
        # out, so these share their id with the catalog's spec and pytest
        # numbers the two
        EnsembleSpec("normal", invertible=True, dim=5),
        EnsembleSpec("commuting_normal_family", k=3, invertible=True),
        EnsembleSpec("commuting_normal_family", k=3),
        EnsembleSpec("commuting_family_one_nonnormal", k=3),
        EnsembleSpec("commuting_family_one_nonnormal", k=4),
        EnsembleSpec("ordered_psd_pair", commuting=True, dim=5),
    },
    key=repr,
)


def one_trial_draw(rng, n, spec):
    """A kind's draw over a list of one generator, as the row of that trial."""
    ((_, drawn),) = sample_block(spec, n, iter([rng]), np.arange(1))
    return [x[0] for x in drawn]


@pytest.mark.parametrize("spec", FUSED_SPECS, ids=spec_id)
def test_fused_draws_give_the_per_call_numbers(spec):
    seen = Counter()  # (family size, special) pairs, or the fuglede branch
    for n in sorted({spec.dim or n for n in (1, 2, 3, 4, 8)}):
        for master in MASTERS:
            for trial in range(10):
                seed = Seed(master, f"stream:{n}", trial)
                rng, ref_rng = seed.generator(), seed.generator()
                try:
                    expected = reference_draw(ref_rng, n, spec)
                except ValueError as exc:  # the draw does not raise; the build of its row does
                    drawn = one_trial_draw(rng, n, spec)
                    with pytest.raises(ValueError, match=str(exc)):
                        generators.build(spec, drawn)
                    continue
                drawn = one_trial_draw(rng, n, spec)
                got = in_reference_layout(spec, drawn)
                assert len(got) == len(expected)
                for x, y in zip(got, expected):
                    x, y = np.asarray(x), np.asarray(y)
                    assert x.dtype == y.dtype and x.shape == y.shape
                    assert x.tobytes() == y.tobytes(), (spec, n, master, trial)
                # the fused draw stops where the per-call draws stopped
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                if spec.kind == "commuting_family_one_nonnormal":
                    seen[(len(drawn[2]) - 2) // (2 * n), drawn[1]] += 1
                elif spec.kind == "fuglede_pair":  # the drawn tail's ndim
                    seen[2 if drawn[2] else 3] += 1
    if spec.kind == "commuting_family_one_nonnormal":  # every member has been the non-normal one
        sizes = (spec.k,) if spec.k else (3, 4)
        assert set(seen) == {(k, s) for k in sizes for s in range(k)}
    elif spec.kind == "fuglede_pair":  # the commuting branch and the general one
        assert set(seen) == {2, 3}


class _ZeroC:
    """A generator whose one standard_normal draw of a sandwich's four
    ``(n, n)`` parts has zeros in the last two (C); records the calls made."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def standard_normal(self, size=None, out=None):
        self.calls.append("standard_normal")
        x = self.rng.standard_normal(size, out=out)
        x[2:] = 0
        return x

    def uniform(self, *args):
        self.calls.append("uniform")
        return self.rng.uniform(*args)


def test_sandwich_draws_its_slack_only_for_nonzero_c():
    spec = EnsembleSpec(kind="sandwich_pair")
    draw, build = generators._KINDS["sandwich_pair"]
    for n in BLOCK_DIMS:
        zero = _ZeroC(Seed(1, "zero").generator())
        drawn = draw([zero], n, spec)
        assert zero.calls == ["standard_normal"]  # no slack drawn
        t, s = build(spec, *(x[0] for x in drawn))
        assert not t.any() and is_positive(s)
        # a stack mixing both branches, drawn as one: the trial whose C = 0
        # draws no slack and its generator stops where four separate
        # Gaussian draws would leave it, and each slice is its one-trial build
        zero = _ZeroC(Seed(1, "zero").generator())
        rngs = [Seed(1, "mixed", trial).generator() for trial in range(5)]
        rngs.insert(2, zero)
        stacked = build(spec, *draw(rngs, n, spec))
        assert zero.calls == ["standard_normal"]
        alone = Seed(1, "zero").generator()
        for _ in range(4):
            alone.standard_normal((n, n))
        assert zero.rng.bit_generator.state == alone.bit_generator.state
        singles = [sample(spec, n, Seed(1, "mixed", trial)) for trial in range(5)]
        singles.insert(2, (t, s))
        for i, single in enumerate(singles):
            for m, one in zip(stacked, single):
                assert m[i].tobytes() == one.tobytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_non_finite_draw_gives_the_one_trial_error_record(monkeypatch):
    # with its Gaussians times 1e308 about half of all 2x2 draws overflow
    draw, build = generators._KINDS["anti_symmetric"]
    huge = (draw, lambda spec, g: build(spec, g * 1e308))
    monkeypatch.setitem(generators._KINDS, "anti_symmetric", huge)
    spec = catalog()["L-ANTI"].ensemble
    pol = TolerancePolicy(rel=1e-8)
    _, block = claims_module._run_block("L-ANTI", 2, 0, 24, 9, pol)
    singles = [claims_module._run_block("L-ANTI", 2, t, 1, 9, pol)[1] for t in range(24)]
    finite = [r for r in block.errors if r["message"] == "matrix entries must be finite"]
    assert 0 < len(finite) < 24
    assert block.errors == [r for s in singles for r in s.errors]
    assert block.passes == sum(s.passes for s in singles)
    # the stack's build raises, and the build of a trial's own row of the
    # draws raises the record's error for exactly the trials that have one,
    # as sample does
    raised = []
    for trials, drawn in suite_block(spec, 2, 9, "L-ANTI:2", 0, 24):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            generators.build(spec, drawn)
        for i, trial in enumerate(trials.tolist()):
            try:
                generators.build(spec, [x[i] for x in drawn])
            except ValueError as exc:
                assert str(exc) == "matrix entries must be finite"
                raised.append(trial)
                with pytest.raises(ValueError, match=str(exc)):
                    sample(spec, 2, Seed(9, "L-ANTI:2", trial))
            else:
                sample(spec, 2, Seed(9, "L-ANTI:2", trial))
    assert raised == [r["trial"] for r in finite]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_a_stack_whose_build_raises_draws_no_trial_again(monkeypatch):
    # a block derives its seeds in one pass (trial 0 keeps the master, from
    # its own Seed); a stack whose build raises builds each trial from the
    # row it drew, so it makes no more Seed.generator calls than a clean block
    calls, real = [], Seed.generator
    monkeypatch.setattr(Seed, "generator", lambda seed: calls.append(seed.trial) or real(seed))
    pol = TolerancePolicy(rel=1e-8)
    _, clean = claims_module._run_block("L-ANTI", 2, 0, 24, 9, pol)
    assert not clean.errors and calls == [0]
    calls.clear()
    draw, build = generators._KINDS["anti_symmetric"]
    huge = (draw, lambda spec, g: build(spec, g * 1e308))
    monkeypatch.setitem(generators._KINDS, "anti_symmetric", huge)
    _, block = claims_module._run_block("L-ANTI", 2, 0, 24, 9, pol)
    assert block.errors and calls == [0]


def test_draws_never_raise():
    # every catalog spec's draw only calls its generators, over a stack of
    # trials or one, at every size (C-NFOLD's at n = 1 too, whose build raises)
    for spec in SPECS:
        draw, _ = generators._KINDS[spec.kind]
        for n in range(1, 9):
            for depth in (1, 5):
                rngs = [Seed(3, f"draw:{n}", t).generator() for t in range(depth)]
                drawn = draw(rngs, spec.dim or n, spec)
                groups = drawn if isinstance(drawn, list) else [(slice(None), drawn)]
                rows = np.concatenate([np.arange(depth)[r] for r, _ in groups])
                assert sorted(rows.tolist()) == list(range(depth)), (spec, n)
                for r, drawn in groups:
                    assert all(len(x) == len(np.arange(depth)[r]) for x in drawn), (spec, n)


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_sample_block_takes_one_generator_a_trial_and_none_ahead(spec, monkeypatch):
    # the probe calls sample_block once per arity on one shared iterator:
    # each call takes its trials' generators, stack by stack as it yields,
    # and leaves the rest to the next call, which then draws what it would
    # draw on an iterator of its own
    monkeypatch.setattr(generators, "STACK_BYTES", 1024)  # 16 trials a stack at n = 2
    for n in (1, 2, 8):
        n, taken, tags = spec.dim or n, [], ["shared:a", "shared:b"]
        depth = generators.stack_depth(n)

        def counted(rngs):
            for rng in rngs:
                taken.append(rng)
                yield rng

        shared = counted(generators._block_generators(5, tags, 0, 40))
        for call, tag in enumerate(tags):
            alone = list(suite_block(spec, n, 5, tag, 0, 40))
            got = []
            for trials, drawn in sample_block(spec, n, shared, np.arange(40)):
                stack_end = min((int(trials[-1]) // depth + 1) * depth, 40)
                assert len(taken) == 40 * call + stack_end, (spec, n)
                got.append((trials, drawn))
            assert len(got) == len(alone)
            for (trials, drawn), (trials_alone, drawn_alone) in zip(got, alone):
                assert trials.tolist() == trials_alone.tolist()
                assert [x.tobytes() for x in drawn] == [x.tobytes() for x in drawn_alone]
        assert next(shared, None) is None and len(taken) == 80


# ---------------------------------------------------------------------------
# the generated numbers themselves: one SHA-256 per spec over the bytes of
# sample(spec, n, Seed(7, "pin", t)) for n in 1, 2, 3, 8 and t in 0, 1, 5 (the
# message of a draw that raises in place of its matrices).  Every kind is
# pinned, with its invertible, commuting and family-size variants, 1x1 trials
# too, which the golden report does not cover.

GENERATION_PINS = [
    (EnsembleSpec("unitary"), "cd50a1a5a1f3a9c3f3fe197edd3039e7e6b9bdc467138e6387a5c51f8d2cc05e"),
    (
        EnsembleSpec("self_adjoint"),
        "313f768c1a659046c82de15e46816b4b62be01b53c7307f77e2a49d204c409b8",
    ),
    (EnsembleSpec("normal"), "3e8361e267838c9bd8b7bae6a13fbf80d46a4cf9e6a32a7c5cc8a79c09b1d871"),
    (
        EnsembleSpec("normal", invertible=True),
        "21a0baa3e4fde025faf4fe6add45e3f921a460d49eeed39c645c765c240d5c2c",
    ),
    (EnsembleSpec("general"), "011480ba563fd30b41fa191fe50d1f4081a66a0752b6116db2206a4a387c40e8"),
    (
        EnsembleSpec("general", k=3),
        "72189871da7d6260aabf9081517fcb5648a1a58e92f647ea0aa0b4515fb2fd67",
    ),
    (
        EnsembleSpec("anti_symmetric"),
        "148849a992d0c2e0ab120a5aed7c52c6d773889aaad1e13fc0a301909d5d9097",
    ),
    (
        EnsembleSpec("commuting_normal_family", k=2),
        "90bd36ef35d80ba058ae88201f66b27315ef2176d38338e448ef31121b5800c3",
    ),
    (
        EnsembleSpec("commuting_normal_family", k=2, invertible=True),
        "255f82772c67c600568cbb461145cccea4331fa5af6950e49081eb791b02da40",
    ),
    (
        EnsembleSpec("commuting_normal_family", k=3),
        "f4568b78afce056380aa8e476fb7a7663c3a080072667af3a08e0ba8e562b8ed",
    ),
    (
        EnsembleSpec("commuting_normal_family", k=3, invertible=True),
        "c9412bb46a5197d00114e5efee0f684bfbe31df3cf427b9aec82d0259a263629",
    ),
    (
        EnsembleSpec("commuting_family_one_nonnormal"),
        "417da9af7af9813cedb663f226818501991f9d9888aec940688f071a0a4d4d6a",
    ),
    (
        EnsembleSpec("commuting_family_one_nonnormal", k=3),
        "4b67855ab4f5d368301d53141588d0654e6ef3627f2af273c48fdeeae5e4680e",
    ),
    (
        EnsembleSpec("commuting_family_one_nonnormal", k=4),
        "3c21f7ba05667448f0e92d321b08f88bfa3442e9c664154239df46c16b309752",
    ),
    (
        EnsembleSpec("commuting_positive_pair"),
        "cdb7ac3ef02fb8c8e6b4051e694be590978b4acc9068f97551601fbf5db485c4",
    ),
    (SA_PAIR, "4b668fcf44b3910f49c7c691405f2613767be8ffa0655bac38db6b56064c607e"),
    (
        EnsembleSpec("negative_cross_pair"),
        "456a145017a063a019128d5b4ece8181abe2eb336a2f5774d581dc97032b6ee8",
    ),
    (
        EnsembleSpec("ordered_psd_pair"),
        "f6e2da7cee0aaae2cebce27db2326a20b28efd69e82a0df08696a1eec63cd31f",
    ),
    (
        EnsembleSpec("ordered_psd_pair", commuting=True),
        "607772fb26df1e542566e35dadc95e6e6242d4c2da486a8558e9b49ea5091f19",
    ),
    (
        EnsembleSpec("sandwich_pair"),
        "5bf57dccb799f11fb89a9454d5eea6fe997b89aa8b5d444d7ef99f868991d2e2",
    ),
    (
        EnsembleSpec("fuglede_pair"),
        "0c527d2535fc83703b8cf6a96dc60b9f3ed9587459082c3546c294c6f3f1e122",
    ),
]


def test_generation_pins_cover_every_kind():
    assert {spec.kind for spec, _ in GENERATION_PINS} == set(generators._KINDS)


@pytest.mark.parametrize(
    "spec,digest", GENERATION_PINS, ids=[spec_id(s) for s, _ in GENERATION_PINS]
)
def test_generated_numbers_are_pinned(spec, digest):
    h = hashlib.sha256()
    for n in (1, 2, 3, 8):
        for t in (0, 1, 5):
            try:
                matrices = sample(spec, n, Seed(7, "pin", t))
            except ValueError as exc:
                h.update(str(exc).encode())
                continue
            for m in matrices:
                h.update(m.tobytes())
    assert h.hexdigest() == digest
