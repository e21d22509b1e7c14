"""Seeded matrix ensembles that satisfy claim hypotheses by construction.

Commuting families share an eigenbasis, ordered pairs are built as
base-plus-increment, and so on: nothing is rejection-sampled, because exact
algebraic hypotheses (commutation, self-adjointness) are measure zero for
generic random matrices.  Every generator is a pure function of its
:class:`Seed`, so any trial can be replayed bit-for-bit.

Every ensemble kind is two phases, held in one table (``_KINDS``):

- a per-trial *draw* makes all of the kind's ``rng`` calls, in a fixed
  order, into plain arrays;
- a shape-polymorphic *build* turns drawn arrays into matrices: the QR,
  phase normalization, eigendecompositions and products.  It takes one
  trial's draws, or the draws of ``B`` trials stacked on a leading axis, and
  each slice of a stacked build is bit-for-bit the one-trial build.

:func:`sample` is the one-trial case; :func:`sample_block` derives the seeds
of a whole block of trials at once, draws trial by trial and builds stacks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import DimensionMismatch, as_matrix, symmetrize, adjoint, operator_norm

# ---------------------------------------------------------------------------
# seed streams
#
# A stream's PCG64 is seeded as numpy's SeedSequence would seed it: the
# entropy words are hashed into a pool of four 32-bit words, and the pool is
# hashed out into the generator's state (O'Neill's seed_seq hash, as numpy
# documents it).  It is written out here in arithmetic masked to 32 bits so
# that one function serves a single trial (Python ints) and a block of
# trials (uint64 arrays, one entry per trial); the hash constants never
# depend on the data, only on the number of entropy words.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _pool_words(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words, np.uint32)``, where
    ``entropy`` lists 32-bit words (Python ints, or uint64 arrays holding
    one word per trial)."""
    const = _INIT_A
    pool = []
    # hashmix(value): value ^= const; const *= MULT_A; value *= const;
    # value ^= value >> 16 -- inlined below; mix(x, y) likewise
    for i in range(_POOL_SIZE):
        value = (entropy[i] if i < len(entropy) else 0) ^ const
        const = (const * _MULT_A) & _MASK32
        value = (value * const) & _MASK32
        pool.append(value ^ (value >> 16))
    sources = [(i, None) for i in range(_POOL_SIZE)]  # mix every pool word into the others,
    sources += [(None, word) for word in entropy[_POOL_SIZE:]]  # then the remaining entropy
    for src, word in sources:
        for dst in range(_POOL_SIZE):
            if dst == src:
                continue
            value = (pool[src] if word is None else word) ^ const
            const = (const * _MULT_A) & _MASK32
            value = (value * const) & _MASK32
            mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ (value >> 16))) & _MASK32
            pool[dst] = mixed ^ (mixed >> 16)
    out = []
    const = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ const
        const = (const * _MULT_B) & _MASK32
        value = (value * const) & _MASK32
        out.append(value ^ (value >> 16))
    return out


def _int_words(value: int) -> list[int]:
    """A nonnegative integer as little-endian 32-bit words, at least one."""
    if value < 0:
        raise ValueError(f"seed values must be nonnegative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _derived(prefix: list, values: np.ndarray, suffix: list, n_words: int) -> np.ndarray:
    """``_pool_words(prefix + _int_words(v) + suffix, n_words)`` for every
    uint64 ``v`` in ``values``, packed into ``(len(values), n_words // 2)``
    64-bit words.  Values are grouped by their word count, which decides the
    hash constants."""
    out = np.empty((len(values), n_words // 2), dtype=np.uint64)
    wide = values > _MASK32
    for two_words in (False, True):
        idx = np.flatnonzero(wide == two_words)
        if idx.size:
            v = values[idx]
            words = [v & _MASK32, v >> 32] if two_words else [v]
            state = _pool_words(prefix + words + suffix, n_words)
            for j in range(n_words // 2):
                out[idx, j] = state[2 * j] | (state[2 * j + 1] << 32)
    return out


def _mix64(master: int, trial: int) -> int:
    """Fold a trial index into a master seed; identity when trial == 0.

    The identity case is what makes replay work: a violation found at
    (master, trial) is reported as the folded value m', and rerunning with
    master m' and a single trial regenerates the same stream.
    """
    if trial == 0:
        return int(master)
    lo, hi = _pool_words(_int_words(int(master)) + _int_words(int(trial)), 2)
    return lo | (hi << 32)


@cache
def _tag_words(tag: str) -> tuple[int, ...]:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


class _StateWords:
    """Already-derived PCG64 seed words: the four uint64 values that
    ``SeedSequence(entropy).generate_state(4, np.uint64)`` returns.  A
    BitGenerator seeds from any registered ``ISeedSequence``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("derived seed words serve PCG64 only")
        return self.words


@cache
def _pcg64():
    """numpy.random's PCG64, imported on first use: numpy loads numpy.random
    lazily, and importing absval need not wait for it."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StateWords)
    return np.random.PCG64


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(_pcg64()(_StateWords(words)))


@dataclass(frozen=True)
class Seed:
    """Deterministic substream address: (master, claim_tag, trial)."""

    master: int
    claim_tag: str = ""
    trial: int = 0

    @property
    def replay_master(self) -> int:
        """Single integer that reproduces this stream at trial 0."""
        return _mix64(self.master, self.trial)

    def generator(self) -> np.random.Generator:
        words = _pool_words(_int_words(self.replay_master) + list(_tag_words(self.claim_tag)), 8)
        packed = [words[2 * j] | (words[2 * j + 1] << 32) for j in range(4)]
        return _generator(np.array(packed, dtype=np.uint64))


def _block_generators(master: int, tag: str, start: int, count: int):
    """Yield ``Seed(master, tag, t).generator()`` for t in ``start .. start +
    count - 1``, with the seed words of all trials derived in one pass over
    arrays; each generator is made when it is asked for."""
    if start == 0 and count:  # trial 0 keeps the master, which may be any width
        yield Seed(master, tag, 0).generator()
        start, count = 1, count - 1
    if count <= 1:  # one trial's Python ints cost less than the array pass
        yield from (Seed(master, tag, t).generator() for t in range(start, start + count))
        return
    trials = np.arange(start, start + count, dtype=np.uint64)
    replay = _derived(_int_words(int(master)), trials, [], 2)[:, 0]
    yield from map(_generator, _derived([], replay, list(_tag_words(tag)), 8))


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, Seed):
        return seed.generator()
    return Seed(int(seed)).generator()


@dataclass(frozen=True)
class EnsembleSpec:
    """What to draw for one claim: a kind, a family size and a scale.

    ``dim`` pins the dimension for families that only exist at one size
    (the self-adjoint pair with normal product is inherently 2x2); None
    means the suite's requested dimension is used.  ``invertible`` moves
    normal spectra onto an annulus away from zero; ``commuting`` selects the
    commuting variant of the ordered-PSD ensemble.
    """

    kind: str
    k: int = 1
    scale: float = 1.0
    dim: int | None = None
    invertible: bool = False
    commuting: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("family size k must be >= 1")
        if self.dim is not None and self.dim < 1:
            raise ValueError("dim must be >= 1")


# ---------------------------------------------------------------------------
# draws (one trial, rng calls only) and builds (one trial or a stack)


def _checked(*mats) -> tuple:
    """:func:`as_matrix`'s checks on each built matrix, or on a whole stack."""
    out = []
    for m in mats:
        if m.ndim == 2:
            out.append(as_matrix(m))
            continue
        if m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
            raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        out.append(np.ascontiguousarray(m, dtype=complex))
    return tuple(out)


def _draw_gaussian(rng, n):
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _general(re, im, scale):
    """Complex Gaussian entries with standard deviation ``scale``."""
    return scale * (re + 1j * im) / np.sqrt(2)


def _skew(t):
    """A* = -A, built as the skew part of a general matrix."""
    return (t - t.conj().swapaxes(-1, -2)) / 2


def _per_column(x):
    """Entries scaling the columns of a matrix (or of a stack): ``x`` itself
    for one trial and ``x[..., None, :]`` on a stack.  At n = 1 numpy rounds
    the two forms of a complex product differently, and reports made before
    generation was stacked used the first."""
    return x if x.ndim == 1 else x[..., None, :]


def _unitary(re, im):
    """QR of a complex Gaussian matrix, the triangular factor's diagonal
    phases normalized away."""
    q, r = np.linalg.qr(re + 1j * im)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0  # measure-zero guard
    return q * _per_column(d / np.abs(d))


def _draw_diagonal(rng, n, scale, invertible):
    """Diagonal entries from a disk of radius scale, or an annulus
    0.1*scale <= |z| <= scale when invertibility is required: two drawn arrays."""
    turns = rng.uniform(0.0, 1.0, n)
    return turns, rng.uniform(0.1 * scale, scale, n) if invertible else rng.uniform(0.0, 1.0, n)


def _diagonal(first, second, scale, invertible):
    mag = second if invertible else scale * np.sqrt(second)
    return mag * np.exp(2j * np.pi * first)


def _conjugate(u, d):
    """``u diag(d) u*``."""
    return (u * _per_column(d)) @ u.conj().swapaxes(-1, -2)


def _draw_family(rng, n, k, scale, invertible):
    drawn = list(_draw_gaussian(rng, n))
    for _ in range(k):
        drawn += _draw_diagonal(rng, n, scale, invertible)
    return tuple(drawn)


def _build_family(drawn, scale, invertible):
    u = _unitary(*drawn[:2])
    return tuple(
        _conjugate(u, _diagonal(drawn[i], drawn[i + 1], scale, invertible))
        for i in range(2, len(drawn), 2)
    )


def _build_positive_pair(re, im, d1, d2):
    u = _unitary(re, im)
    return _conjugate(u, d1), _conjugate(u, d2)


def _draw_one_nonnormal(rng, n, k, scale):
    """The unitary, the index of the non-normal member, then per member its
    diagonal and, for the non-normal one, its off-diagonal entry."""
    if n < 2:
        raise ValueError("non-normal commuting families need n >= 2")
    drawn = list(_draw_gaussian(rng, n))
    special = int(rng.integers(k))
    drawn.append(special)
    corner = None
    for i in range(k):
        drawn += _draw_diagonal(rng, n, scale, False)
        if i == special:
            corner = (rng.uniform(0.3 * scale, scale), rng.uniform())
    return tuple(drawn) + corner


def _build_one_nonnormal(drawn, scale):
    """The non-normal member carries a 2x2 upper-triangular block on the
    first two basis vectors; every other member's diagonal is constant on
    that block, which is exactly what pairwise commutation requires."""
    u = _unitary(*drawn[:2])
    special = drawn[2]
    corner = drawn[-2] * np.exp(2j * np.pi * drawn[-1])
    adj = u.conj().swapaxes(-1, -2)
    n = u.shape[-1]
    out = []
    for member, i in enumerate(range(3, len(drawn) - 2, 2)):
        d = _diagonal(drawn[i], drawn[i + 1], scale, False)
        d[..., 1] = d[..., 0]
        inner = np.zeros(d.shape + (n,), dtype=complex)
        inner[..., range(n), range(n)] = d
        inner[..., 0, 1] = np.where(special == member, corner, 0)
        out.append((u @ inner) @ adj)
    return tuple(out)


def _plane_reflection(angle: float) -> np.ndarray:
    c, s = np.cos(2 * angle), np.sin(2 * angle)
    return np.array([[c, s], [s, -c]], dtype=complex)


def _draw_sa_pair(rng, scale):
    """The unitary, then A and B before conjugation: real multiples of plane
    reflections, drawn by rejection."""
    re, im = _draw_gaussian(rng, 2)
    while True:
        phi, psi = rng.uniform(0.0, np.pi, 2)
        if abs(np.sin(2 * (phi - psi))) >= 0.1:
            break
    while True:
        mags = rng.uniform(0.1 * scale, scale, 2)
        if abs(mags[0] - mags[1]) >= 0.05 * scale:
            break
    signs = rng.choice([-1.0, 1.0], 2)
    a = signs[0] * mags[0] * _plane_reflection(phi)
    b = signs[1] * mags[1] * _plane_reflection(psi)
    return re, im, a, b


def _build_sa_pair(re, im, a, b):
    u = _unitary(re, im)
    adj = u.conj().swapaxes(-1, -2)
    return u @ a @ adj, u @ b @ adj


def _draw_sandwich(rng, n, scale):
    """G and C's Gaussians, ||C|| and, when C != 0, the slack that squeezes C
    into a contraction: whether that uniform is drawn depends on C."""
    g = _draw_gaussian(rng, n)
    c = _draw_gaussian(rng, n)
    top = operator_norm(symmetrize(_general(*c, 1.0)))
    slack = rng.uniform(0.05, 1.0) if top > 0 else 0.0
    return *g, *c, top, slack


def _build_sandwich(g_re, g_im, c_re, c_im, top, slack, scale):
    """T = S^(1/2) C S^(1/2) with S = G* G >= 0 and C a Hermitian contraction."""
    g = _general(g_re, g_im, scale)
    s = symmetrize(adjoint(g) @ g)
    w, u = np.linalg.eigh(s)
    root = (u * _per_column(np.sqrt(np.clip(w, 0.0, None)))) @ u.conj().swapaxes(-1, -2)
    c = symmetrize(_general(c_re, c_im, 1.0))
    if np.ndim(top):  # a stack: squeeze every C that is not 0
        squeeze = top > 0
        denominator = np.where(squeeze, top * (1.0 + slack), 1.0)[..., None, None]
        c = np.where(squeeze[..., None, None], c / denominator, c)
    elif top > 0:
        c = c / (top * (1.0 + slack))
    return symmetrize(root @ c @ root), s


def _draw_ordered_psd(rng, n, scale, commuting):
    g = _draw_gaussian(rng, n)
    if commuting:
        return *g, rng.uniform(0.0, scale, n)
    return *g, *_draw_gaussian(rng, n)


def _build_ordered_psd(drawn, scale, commuting):
    """(A, B) with A >= B >= 0; the increment lives on B's eigenbasis when a
    commuting pair is requested."""
    g = _general(*drawn[:2], scale)
    b = symmetrize(adjoint(g) @ g)
    if commuting:
        _, u = np.linalg.eigh(b)
        a = b + (u * _per_column(drawn[2])) @ u.conj().swapaxes(-1, -2)
    else:
        h = _general(*drawn[2:], scale)
        a = b + symmetrize(adjoint(h) @ h)
    return symmetrize(a), b


def _draw_fuglede(rng, n, scale):
    """A's unitary and diagonal, then a branch: B's diagonal on A's basis
    (a drawn ``(n,)`` pair) or B's Gaussian (an ``(n, n)`` pair).  The two
    branches draw different shapes, so the runner stacks them apart."""
    drawn = (*_draw_gaussian(rng, n), *_draw_diagonal(rng, n, scale, False))
    if int(rng.integers(2)):
        return drawn + _draw_diagonal(rng, n, scale, False)
    return drawn + _draw_gaussian(rng, n)


def _build_fuglede(drawn, scale):
    u = _unitary(*drawn[:2])
    a = _conjugate(u, _diagonal(drawn[2], drawn[3], scale, False))
    if np.ndim(drawn[4]) == np.ndim(drawn[2]):  # the commuting branch
        return a, _conjugate(u, _diagonal(drawn[4], drawn[5], scale, False))
    return a, _general(drawn[4], drawn[5], scale)


def _draw_nfold(rng, n, spec):
    # k == 1 (unset) means: draw a family of 3 or 4 per trial
    k = spec.k if spec.k >= 2 else int(3 + rng.integers(2))
    return _draw_one_nonnormal(rng, n, k, spec.scale)


def _draw_negative_cross(rng, n, scale):
    drawn = _draw_family(rng, n, 1, scale, False)
    return drawn + (complex(-rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0)),)


def _build_negative_cross(drawn, scale):
    """(A, B) with A normal, B = c A for Re(c) <= 0, so A*B + B*A <= 0 and
    the pair commutes exactly."""
    (a,) = _build_family(drawn[:-1], scale, False)
    c = drawn[-1]
    return a, (np.asarray(c)[..., None, None] if np.ndim(c) else c) * a


# kind -> (draw(rng, n, spec) -> drawn arrays, build(spec, *drawn) -> matrices)
_KINDS = {
    "unitary": (
        lambda rng, n, spec: _draw_gaussian(rng, n),
        lambda spec, re, im: (_unitary(re, im),),
    ),
    "self_adjoint": (
        lambda rng, n, spec: _draw_gaussian(rng, n),
        lambda spec, re, im: (symmetrize(_general(re, im, spec.scale)),),
    ),
    "normal": (
        lambda rng, n, spec: _draw_family(rng, n, 1, spec.scale, spec.invertible),
        lambda spec, *drawn: _build_family(drawn, spec.scale, spec.invertible),
    ),
    "general": (
        lambda rng, n, spec: _draw_gaussian(rng, n),
        lambda spec, re, im: (_general(re, im, spec.scale),),
    ),
    "anti_symmetric": (
        lambda rng, n, spec: _draw_gaussian(rng, n),
        lambda spec, re, im: (_skew(_general(re, im, spec.scale)),),
    ),
    "commuting_normal_family": (
        lambda rng, n, spec: _draw_family(rng, n, spec.k, spec.scale, spec.invertible),
        lambda spec, *drawn: _build_family(drawn, spec.scale, spec.invertible),
    ),
    "commuting_family_one_nonnormal": (
        _draw_nfold,
        lambda spec, *drawn: _build_one_nonnormal(drawn, spec.scale),
    ),
    "commuting_positive_pair": (
        lambda rng, n, spec: (
            *_draw_gaussian(rng, n),
            rng.uniform(0.0, spec.scale, n),
            rng.uniform(0.0, spec.scale, n),
        ),
        lambda spec, *drawn: _build_positive_pair(*drawn),
    ),
    "sa_pair_normal_product": (
        lambda rng, n, spec: _draw_sa_pair(rng, spec.scale),
        lambda spec, *drawn: _build_sa_pair(*drawn),
    ),
    "negative_cross_pair": (
        lambda rng, n, spec: _draw_negative_cross(rng, n, spec.scale),
        lambda spec, *drawn: _build_negative_cross(drawn, spec.scale),
    ),
    "ordered_psd_pair": (
        lambda rng, n, spec: _draw_ordered_psd(rng, n, spec.scale, spec.commuting),
        lambda spec, *drawn: _build_ordered_psd(drawn, spec.scale, spec.commuting),
    ),
    "sandwich_pair": (
        lambda rng, n, spec: _draw_sandwich(rng, n, spec.scale),
        lambda spec, *drawn: _build_sandwich(*drawn, spec.scale),
    ),
    "fuglede_pair": (
        lambda rng, n, spec: _draw_fuglede(rng, n, spec.scale),
        lambda spec, *drawn: _build_fuglede(drawn, spec.scale),
    ),
}


# ---------------------------------------------------------------------------
# sampling


def sample(spec: EnsembleSpec, n: int, seed) -> tuple[np.ndarray, ...]:
    """Draw one tuple of matrices for ``spec`` at dimension ``n`` (or the
    spec's pinned dimension)."""
    n = spec.dim if spec.dim is not None else n
    draw, build = _KINDS[spec.kind]
    return _checked(*build(spec, *draw(_as_generator(seed), n, spec)))


def sample_block(
    spec: EnsembleSpec, n: int, master: int, tag: str, start: int, count: int, max_bytes: int
):
    """Generate trials ``start .. start + count - 1`` of the stream
    ``(master, tag)`` and yield them in stacks.

    Yields ``(seeds, matrices)``: a list of :class:`Seed` and, for them, a
    tuple of ``(B, n, n)`` stacks whose slice ``i`` is bit-for-bit
    ``sample(spec, n, seeds[i])``, at most ``max_bytes`` of matrices (and at
    least one trial) per yield.  A trial whose generation raises is yielded
    alone as ``([seed], exception)``.

    Trials are drawn one by one into buffers, one set per drawn shape (a
    family of 3 or 4, a branch taken), and a full set is built as one stack:
    a set holds as many trials as fit in ``max_bytes``, counting a trial's
    draws or its matrices, whichever is larger.  A stack whose build raises
    is built again trial by trial, so each failing trial reports its own
    error.  1x1 trials are built one at a time: numpy rounds the complex
    product ``u * d`` with a one-element ``d`` differently from the same
    product on a stack.
    """
    n = spec.dim if spec.dim is not None else n
    draw, build = _KINDS[spec.kind]
    end = start + count
    groups = {}  # drawn shapes -> (seeds, one buffer per drawn array)
    for trial, rng in zip(range(start, end), _block_generators(master, tag, start, count)):
        seed = Seed(master, tag, trial)
        try:
            drawn = draw(rng, n, spec)
        except Exception as exc:
            yield [seed], exc
            continue
        # from a list: tuple() of a generator allocates 10 slots and shrinks
        # the tuple, and CPython's free lists then keep such tuples by the
        # thousand, which showed as a megabyte of resident memory
        key = tuple([getattr(x, "shape", ()) for x in drawn])
        if key not in groups:
            arrays = [np.asarray(x) for x in drawn]
            depth = 1
            if n > 1 and end - trial > 1:
                per_trial = max(sum(a.nbytes for a in arrays), _matrix_bytes(spec, key))
                depth = max(1, min(end - trial, max_bytes // per_trial))
            groups[key] = ([], [np.empty((depth,) + a.shape, a.dtype) for a in arrays])
        seeds, slots = groups[key]
        for slot, x in zip(slots, drawn):
            slot[len(seeds)] = x
        seeds.append(seed)
        if len(seeds) == len(slots[0]):
            del groups[key]
            yield from _built_stacks(spec, build, seeds, slots)
    for seeds, slots in groups.values():
        yield from _built_stacks(spec, build, seeds, [s[: len(seeds)] for s in slots])


@cache
def _matrix_bytes(spec: EnsembleSpec, shapes: tuple) -> int:
    """Bytes of the matrices one trial makes from draws of these shapes, so
    that a stack of draws builds into one stack of matrices within the
    same bound; counted on a build from zeros."""
    _, build = _KINDS[spec.kind]
    return sum(m.nbytes for m in build(spec, *(np.zeros(shape) for shape in shapes)))


def _built_stacks(spec, build, seeds, slots):
    """Build one set of draws as one stack, or trial by trial when the
    stack's build raises."""
    try:
        if len(seeds) == 1:  # the one-trial build, as sample runs it
            row = (s[0].item() if s.ndim == 1 else s[0] for s in slots)
            mats = tuple(m[None] for m in _checked(*build(spec, *row)))
        else:
            mats = _checked(*build(spec, *slots))
    except Exception as exc:
        if len(seeds) == 1:
            yield seeds, exc
            return
        for i, seed in enumerate(seeds):
            yield from _built_stacks(spec, build, [seed], [s[i : i + 1] for s in slots])
        return
    yield seeds, mats


# ---------------------------------------------------------------------------
# the ensembles as functions of (n, seed)


def gen_general(n: int, seed, scale: float = 1.0) -> np.ndarray:
    """Independent complex Gaussian entries with standard deviation ``scale``."""
    return sample(EnsembleSpec("general", scale=scale), n, seed)[0]


def gen_unitary(n: int, seed) -> np.ndarray:
    """Haar-like random unitary: QR of a complex Gaussian matrix with the
    triangular factor's diagonal phases normalized away."""
    return sample(EnsembleSpec("unitary"), n, seed)[0]


def gen_self_adjoint(n: int, seed, scale: float = 1.0) -> np.ndarray:
    return sample(EnsembleSpec("self_adjoint", scale=scale), n, seed)[0]


def gen_anti_symmetric(n: int, seed, scale: float = 1.0) -> np.ndarray:
    """A* = -A, built as the skew part of a general matrix."""
    return sample(EnsembleSpec("anti_symmetric", scale=scale), n, seed)[0]


def gen_commuting_normal_family(
    n: int,
    k: int,
    seed,
    scale: float = 1.0,
    invertible: bool = False,
) -> tuple[np.ndarray, ...]:
    """k pairwise-commuting normal matrices sharing one random eigenbasis;
    the invertible flag keeps all eigenvalue moduli away from zero."""
    spec = EnsembleSpec("commuting_normal_family", k=k, scale=scale, invertible=invertible)
    return sample(spec, n, seed)


def gen_commuting_family_one_nonnormal(
    n: int, k: int, seed, scale: float = 1.0
) -> tuple[np.ndarray, ...]:
    """Pairwise-commuting family in which one random member is non-normal.

    The non-normal member carries a 2x2 upper-triangular block on the first
    two basis vectors; every other member's diagonal is constant on that
    block, which is exactly what pairwise commutation requires.  Needs n >= 2.
    """
    drawn = _draw_one_nonnormal(_as_generator(seed), n, k, scale)
    return _checked(*_build_one_nonnormal(drawn, scale))


def gen_commuting_positive_pair(n: int, seed, scale: float = 1.0):
    """Two commuting PSD matrices (shared eigenbasis, nonnegative diagonals)."""
    return sample(EnsembleSpec("commuting_positive_pair", scale=scale), n, seed)


def gen_sa_pair_normal_product(seed, scale: float = 1.0):
    """2x2 self-adjoint pair whose product is normal but not self-adjoint.

    A and B are real multiples of plane reflections (Hermitian unitaries)
    conjugated by one random unitary; the product of two reflections is a
    rotation, hence normal, and it fails to be self-adjoint or to commute
    whenever the two reflection axes are neither aligned nor perpendicular.
    The magnitudes are kept apart so |A| and |B| stay distinguishable.
    """
    return sample(EnsembleSpec("sa_pair_normal_product", scale=scale, dim=2), 2, seed)


def gen_negative_cross_pair(n: int, seed, scale: float = 1.0):
    """(A, B) with A normal, B = c A for Re(c) <= 0, so A*B + B*A <= 0 and
    the pair commutes exactly."""
    return sample(EnsembleSpec("negative_cross_pair", scale=scale), n, seed)


def gen_ordered_psd_pair(n: int, seed, commuting: bool, scale: float = 1.0):
    """(A, B) with A >= B >= 0; the increment lives on B's eigenbasis when a
    commuting pair is requested."""
    return sample(EnsembleSpec("ordered_psd_pair", scale=scale, commuting=commuting), n, seed)


def gen_sandwich_pair(n: int, seed, scale: float = 1.0):
    """(T, S) with S >= 0 and -S <= T <= S.

    T = S^(1/2) C S^(1/2) for a Hermitian contraction C; squeezing through
    the square root is what makes the sandwich exact rather than filtered.
    """
    return sample(EnsembleSpec("sandwich_pair", scale=scale), n, seed)


def gen_fuglede_pair(n: int, seed, scale: float = 1.0):
    """(A, B) with A normal; B commutes with A for half the seeds and is an
    unconstrained general matrix for the other half, so commutation-equivalence
    checks see both truth values."""
    return sample(EnsembleSpec("fuglede_pair", scale=scale), n, seed)
