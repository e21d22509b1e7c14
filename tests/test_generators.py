"""Seeded ensembles: hypotheses hold by construction, streams replay exactly."""

import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

from absval import (
    EnsembleSpec,
    Seed,
    TolerancePolicy,
    adjoint,
    catalog,
    commutes,
    condition_estimate,
    frobenius,
    gen_anti_symmetric,
    gen_commuting_family_one_nonnormal,
    gen_commuting_normal_family,
    gen_fuglede_pair,
    gen_general,
    gen_negative_cross_pair,
    gen_ordered_psd_pair,
    gen_sa_pair_normal_product,
    gen_sandwich_pair,
    gen_unitary,
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


class TestUnitary:
    def test_unitarity_residual(self):
        for n in (1, 2, 5, 8):
            for seed in range(20):
                u = gen_unitary(n, Seed(seed, f"u:{n}"))
                assert frobenius(adjoint(u) @ u - np.eye(n)) <= 1e-10 * n

    def test_scalar_case_has_unit_modulus(self):
        u = gen_unitary(1, 5)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


class TestCommutingNormalFamily:
    def test_pairwise_commuting_and_normal(self):
        for seed in range(50):
            fam = gen_commuting_normal_family(4, 3, seed)
            for m in fam:
                res = is_normal(m)
                assert res.holds and res.residual <= 1e-9
            for i in range(3):
                for j in range(i + 1, 3):
                    res = commutes(fam[i], fam[j])
                    assert res.holds and res.residual <= 1e-10

    def test_invertible_flag_bounds_condition(self):
        for seed in range(20):
            (a,) = gen_commuting_normal_family(4, 1, seed, invertible=True)
            assert condition_estimate(a) <= 11.0  # annulus 0.1..1 plus rounding


class TestOneNonNormalFamily:
    def test_structure(self):
        for seed in range(40):
            fam = gen_commuting_family_one_nonnormal(4, 3, seed)
            non_normal = [m for m in fam if not is_normal(m)]
            assert len(non_normal) == 1
            # the non-normal member is robustly non-normal, not borderline
            assert is_normal(non_normal[0]).residual > 1e-3
            for i in range(len(fam)):
                for j in range(i + 1, len(fam)):
                    assert commutes(fam[i], fam[j]).residual <= 1e-10

    def test_needs_dimension_two(self):
        with pytest.raises(ValueError):
            gen_commuting_family_one_nonnormal(1, 3, 0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_function_and_spec_draw_the_same_family(self, k):
        # k = 1 is a family of one on both routes; only an unset k draws 3 or 4
        spec = EnsembleSpec("commuting_family_one_nonnormal", k=k)
        for seed in range(10):
            family = gen_commuting_family_one_nonnormal(3, k, seed)
            assert len(family) == k
            assert [m.tobytes() for m in family] == [m.tobytes() for m in sample(spec, 3, seed)]


class TestSelfAdjointPairNormalProduct:
    def test_hypotheses_hold(self):
        for seed in range(60):
            a, b = gen_sa_pair_normal_product(seed)
            assert a.shape == (2, 2)
            assert is_self_adjoint(a).residual <= 1e-12
            assert is_self_adjoint(b).residual <= 1e-12
            assert is_normal(a @ b).residual <= 1e-10

    def test_product_is_not_self_adjoint_nor_commuting(self):
        for seed in range(60):
            a, b = gen_sa_pair_normal_product(seed)
            prod = a @ b
            assert frobenius(prod - adjoint(prod)) > 1e-4
            assert not commutes(a, b)


class TestNegativeCrossPair:
    def test_cross_term_nonpositive_and_commuting(self):
        for seed in range(50):
            a, b = gen_negative_cross_pair(3, seed)
            assert is_normal(a)
            assert commutes(a, b).residual <= 1e-12
            cross = adjoint(a) @ b + adjoint(b) @ a
            assert loewner_leq(cross, np.zeros_like(cross)).holds


class TestOrderedPsdPair:
    @pytest.mark.parametrize("commuting", [False, True])
    def test_order_and_positivity(self, commuting):
        for seed in range(50):
            a, b = gen_ordered_psd_pair(3, seed, commuting)
            assert is_positive(b)
            assert loewner_leq(b, a).holds
            if commuting:
                assert commutes(a, b).residual <= 1e-10

    def test_noncommuting_pairs_usually_do_not_commute(self):
        hits = sum(
            bool(commutes(*gen_ordered_psd_pair(3, seed, False))) for seed in range(20)
        )
        assert hits == 0


class TestSandwichPair:
    def test_sandwich_holds(self):
        for seed in range(50):
            t, s = gen_sandwich_pair(3, seed)
            assert is_self_adjoint(t) and is_self_adjoint(s)
            assert is_positive(s)
            assert loewner_leq(-s, t).holds
            assert loewner_leq(t, s).holds


class TestFugledePair:
    def test_both_truth_values_appear(self):
        verdicts = set()
        for seed in range(40):
            a, b = gen_fuglede_pair(3, seed)
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
    def test_zero_scale_gives_zero_matrix(self):
        assert frobenius(gen_general(3, 1, scale=0.0)) == 0.0

    def test_finite_entries(self):
        assert np.all(np.isfinite(gen_general(2, 9)))

    def test_anti_symmetric_kind(self):
        assert is_anti_symmetric(gen_anti_symmetric(4, 3))

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
        stacks = generators.sample_general(n, 3, [s.generator() for s in seeds])
        one = generators.sample_general(n, 3, [seeds[2].generator()])
        for i, seed in enumerate(seeds):
            for m, single in zip(stacks, sample(spec, n, seed)):
                assert m.shape == (5, n, n) and m[i].tobytes() == single.tobytes()
        for m, single in zip(one, sample(spec, n, seeds[2])):
            assert m.shape == (n, n) and m.tobytes() == single.tobytes()
        if n > 1:  # sample_block stacks the same trials into the same bits
            ((_, block),) = sample_block(spec, n, 2, "stack", 0, 5, 1 << 16)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(block, stacks))

    def test_sample_respects_pinned_dimension(self):
        spec = EnsembleSpec(kind="sa_pair_normal_product", dim=2)
        a, b = sample(spec, 8, Seed(3, "pin"))
        assert a.shape == b.shape == (2, 2)

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
BLOCK_DIMS = (2, 3, 4, 8)
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
        _, tags, _ = claims_module._probe_plan(theorems, 4, 1, claims_module.STACK_BYTES)
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


def block_slices(spec, n, master, tag, count, max_bytes=claims_module.STACK_BYTES):
    """Every yielded stack of a block, checked slice by slice against sample."""
    depths = []
    for seeds, stack in sample_block(spec, n, master, tag, 0, count, max_bytes):
        assert not isinstance(seeds, Seed), (seeds, stack)  # a stack, no trial alone
        depths.append(len(seeds))
        for i, seed in enumerate(seeds):
            single = sample(spec, n, seed)
            assert len(stack) == len(single)
            for m, s in zip(stack, single):
                assert m[i].dtype == s.dtype and m[i].shape == s.shape
                assert m[i].tobytes() == s.tobytes(), (spec, n, seed)
        yield seeds, stack
    assert sum(depths) == count


def spec_id(s):
    # an unset family size is labelled k1, which keeps the test ids stable
    return f"{s.kind}-k{s.k or 1}-{s.invertible}-{s.commuting}"


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_every_block_slice_is_sample(spec):
    for n in BLOCK_DIMS:
        for master in MASTERS:
            # trials 0 .. 11: trial 0 is the one whose seed is not folded
            yields = list(block_slices(spec, n, master, f"block:{n}", 12))
            assert any(len(seeds) > 1 for seeds, _ in yields)  # stacks, not single trials


def test_block_stacks_respect_the_byte_cap():
    spec = EnsembleSpec(kind="commuting_normal_family", k=3)
    for seeds, stack in block_slices(spec, 8, 5, "cap", 40, max_bytes=8192):
        assert len(seeds) == 1 or sum(m.nbytes for m in stack) <= 8192


def test_nfold_blocks_mix_family_sizes():
    spec = catalog()["C-NFOLD"].ensemble
    for n in BLOCK_DIMS:
        sizes = Counter()
        for seeds, stack in block_slices(spec, n, 20170228, f"C-NFOLD:{n}", 40):
            sizes[len(stack)] += len(seeds)
        assert set(sizes) == {3, 4} and sum(sizes.values()) == 40


def test_fuglede_blocks_take_both_branches():
    spec = EnsembleSpec(kind="fuglede_pair")
    for n in BLOCK_DIMS:
        verdicts = Counter()
        for seeds, (a, b) in block_slices(spec, n, 3, f"L-FUG:{n}", 40):
            for i in range(len(seeds)):
                verdicts[bool(commutes(a[i], b[i]))] += 1
        assert verdicts[True] > 1 and verdicts[False] > 1


# ---------------------------------------------------------------------------
# the stream contract: a draw makes one call per distribution, and its
# numbers are those of the sequence of per-array calls it replaced


def reference_draw(rng, n, spec):
    """A kind's draw as it was made before it was fused: each Gaussian
    matrix and each array of uniforms from a call of its own, the uniforms
    already on their ranges, returned as one array per call."""
    scale = spec.scale

    def gaussian():
        return [rng.standard_normal((n, n)), rng.standard_normal((n, n))]

    def diagonal(invertible):
        turns = rng.uniform(0.0, 1.0, n)
        return [turns, rng.uniform(0.1 * scale, scale, n) if invertible else rng.uniform(0.0, 1.0, n)]

    kind = spec.kind
    if kind in ("unitary", "self_adjoint", "anti_symmetric"):
        return gaussian()
    if kind in ("normal", "commuting_normal_family"):
        out = gaussian()
        for _ in range(spec.k or 1):
            out += diagonal(spec.invertible)
        return out
    if kind == "commuting_positive_pair":
        return gaussian() + [rng.uniform(0.0, scale, n), rng.uniform(0.0, scale, n)]
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
                corner = [rng.uniform(0.3 * scale, scale), rng.uniform()]
        return out + corner
    if kind == "sa_pair_normal_product":
        out = gaussian()
        while True:
            phi, psi = rng.uniform(0.0, np.pi, 2)
            if abs(np.sin(2 * (phi - psi))) >= 0.1:
                break
        while True:
            mags = rng.uniform(0.1 * scale, scale, 2)
            if abs(mags[0] - mags[1]) >= 0.05 * scale:
                break
        signs = rng.choice([-1.0, 1.0], 2)
        reflection = generators._plane_reflection
        return out + [signs[0] * mags[0] * reflection(phi), signs[1] * mags[1] * reflection(psi)]
    if kind == "negative_cross_pair":
        out = gaussian() + diagonal(False)
        return out + [complex(-rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0))]
    if kind == "ordered_psd_pair":
        return gaussian() + ([rng.uniform(0.0, scale, n)] if spec.commuting else gaussian())
    if kind == "fuglede_pair":
        out = gaussian() + diagonal(False)
        return out + (diagonal(False) if int(rng.integers(2)) else gaussian())
    raise AssertionError(f"no reference for {kind}")


def in_reference_layout(spec, drawn):
    """A fused draw in :func:`reference_draw`'s layout, each uniform put on
    its range the way ``rng.uniform`` puts it: ``lo + (hi - lo) * r``."""

    def on(r, lo=0.0, hi=1.0):
        return lo + (hi - lo) * r

    scale, kind = spec.scale, spec.kind
    g, rest = drawn[0], drawn[1:]
    out = [g[0], g[1]]
    if kind in ("normal", "commuting_normal_family"):
        for turns, radii in rest[0]:
            out += [on(turns), on(radii, 0.1 * scale, scale) if spec.invertible else on(radii)]
    elif kind == "ordered_psd_pair" and not spec.commuting:
        out += list(rest[0])
    elif kind in ("commuting_positive_pair", "ordered_psd_pair"):
        out += [on(r, 0.0, scale) for r in np.atleast_2d(rest[0])]
    elif kind == "commuting_family_one_nonnormal":
        special, r = rest
        at = 2 * len(g[0]) * (special + 1)  # the corner's two uniforms follow its member's diagonal
        out += [special, *on(np.concatenate((r[:at], r[at + 2 :]))).reshape(-1, len(g[0]))]
        out += [on(r[at], 0.3 * scale, scale), on(r[at + 1])]
    elif kind == "sa_pair_normal_product":
        out += list(rest)
    elif kind == "negative_cross_pair":
        (r,) = rest
        out += [*on(r[:-2]).reshape(2, -1), complex(-on(r[-2]), on(r[-1], -1.0, 1.0))]
    elif kind == "fuglede_pair":
        r, other = rest
        out += [on(r[0]), on(r[1])]
        out += [on(other[0]), on(other[1])] if other.ndim == 2 else [other[0], other[1]]
    return out


FUSED_SPECS = sorted(
    {s for s in SPECS if s.kind not in ("general", "sandwich_pair")}
    | {
        EnsembleSpec("unitary"),
        EnsembleSpec("normal"),
        EnsembleSpec("normal", invertible=True, scale=2.5),
        EnsembleSpec("commuting_normal_family", k=3, invertible=True, scale=0.5),
        EnsembleSpec("commuting_normal_family", k=3, scale=0.5),
        EnsembleSpec("commuting_family_one_nonnormal", k=3, scale=1.5),
        EnsembleSpec("commuting_family_one_nonnormal", k=4),
        EnsembleSpec("ordered_psd_pair", commuting=True, scale=3.0),
    },
    key=repr,
)


@pytest.mark.parametrize("spec", FUSED_SPECS, ids=spec_id)
def test_fused_draws_give_the_per_call_numbers(spec):
    draw, _ = generators._KINDS[spec.kind]
    seen = Counter()  # (family size, special) pairs, or the fuglede branch
    for n in (1, 2, 3, 4, 8):
        n = spec.dim or n
        for master in MASTERS:
            for trial in range(10):
                seed = Seed(master, f"stream:{n}", trial)
                rng, ref_rng = seed.generator(), seed.generator()
                try:
                    expected = reference_draw(ref_rng, n, spec)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        draw(rng, n, spec)
                    continue
                drawn = draw(rng, n, spec)
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
                elif spec.kind == "fuglede_pair":
                    seen[drawn[2].ndim] += 1
    if spec.kind == "commuting_family_one_nonnormal":  # every member has been the non-normal one
        sizes = (spec.k,) if spec.k else (3, 4)
        assert set(seen) == {(k, s) for k in sizes for s in range(k)}
    elif spec.kind == "fuglede_pair":  # the commuting branch and the general one
        assert set(seen) == {2, 3}


class _ZeroC:
    """A generator whose third and fourth standard_normal draws (the
    sandwich's C) are zeros; records the calls made."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def standard_normal(self, size):
        self.calls.append("standard_normal")
        x = self.rng.standard_normal(size)
        return np.zeros_like(x) if self.calls.count("standard_normal") in (3, 4) else x

    def uniform(self, *args):
        self.calls.append("uniform")
        return self.rng.uniform(*args)


def test_sandwich_draws_its_slack_only_for_nonzero_c():
    spec = EnsembleSpec(kind="sandwich_pair")
    draw, build = generators._KINDS["sandwich_pair"]
    for n in BLOCK_DIMS:
        zero = _ZeroC(Seed(1, "zero").generator())
        drawn = draw(zero, n, spec)
        assert zero.calls == ["standard_normal"] * 4  # no slack drawn
        t, s = build(spec, *drawn)
        assert not t.any() and is_positive(s)
        # a stack mixing both branches: each slice is its one-trial build
        rows = [draw(Seed(1, "mixed", t).generator(), n, spec) for t in range(5)]
        rows.insert(2, drawn)
        stacked = build(spec, *(np.stack(slot) for slot in zip(*rows)))
        for i, row in enumerate(rows):
            for m, single in zip(stacked, build(spec, *row)):
                assert m[i].tobytes() == single.tobytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_non_finite_draw_gives_the_one_trial_error_record(monkeypatch):
    # at scale 1e308 about half of all 2x2 draws overflow
    claim = catalog()["L-ANTI"]
    huge = dataclasses.replace(claim, ensemble=EnsembleSpec(kind="anti_symmetric", scale=1e308))
    monkeypatch.setitem(catalog(), "L-ANTI", huge)
    pol = TolerancePolicy(rel=1e-8)
    _, block = claims_module._run_block("L-ANTI", 2, 0, 24, 9, pol)
    singles = [claims_module._run_block("L-ANTI", 2, t, 1, 9, pol)[1] for t in range(24)]
    finite = [r for r in block.errors if r["message"] == "matrix entries must be finite"]
    assert 0 < len(finite) < 24
    assert block.errors == [r for s in singles for r in s.errors]
    assert block.passes == sum(s.passes for s in singles)
    # a stack whose build raises yields its trials alone, each with its Seed,
    # and sample raises the record's error for exactly the trials that have one
    raised = []
    for seeds, source in sample_block(huge.ensemble, 2, 9, "L-ANTI:2", 0, 24, 1 << 16):
        if isinstance(seeds, Seed):
            assert source == seeds
            try:
                sample(huge.ensemble, 2, source)
            except ValueError as exc:
                assert str(exc) == "matrix entries must be finite"
                raised.append(seeds.trial)
    assert raised == [r["trial"] for r in finite]
