"""Seeded matrix ensembles that satisfy claim hypotheses by construction.

Commuting families share an eigenbasis, ordered pairs are built as
base-plus-increment, and so on: nothing is rejection-sampled, because exact
algebraic hypotheses (commutation, self-adjointness) are measure zero for
generic random matrices.  Every generator is a pure function of its
:class:`Seed`, so any trial can be replayed bit-for-bit.

Every ensemble kind is two phases, held in one table (``_KINDS``):

- a per-trial *draw* makes all of the kind's ``rng`` calls, in a fixed
  order, into plain arrays: one call for all of its Gaussians and one for
  all of its uniforms (``integers``, rejection loops and the sandwich's
  draws stay apart, as the stream or the draw's own branching needs);
- a shape-polymorphic *build* turns drawn arrays into matrices: the maps
  of uniforms onto their ranges, the QR, phase normalization,
  eigendecompositions and products.  It takes one trial's draws, or the
  draws of ``B`` trials stacked on a leading axis, and each slice of a
  stacked build is bit-for-bit the one-trial build.

:func:`sample` is the one-trial case; :func:`sample_block` derives the seeds
of a whole block of trials at once, draws trial by trial and builds stacks.
:func:`sample_general` builds the unconstrained family of the conclusion
probe from generators derived beforehand.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import as_matrix, symmetrize, adjoint, operator_norm

# ---------------------------------------------------------------------------
# seed streams
#
# A stream's PCG64 is seeded by SeedSequence([replay master, *tag words]).
# One stream calls numpy's; a block of streams calls _pool_words, the same
# hash (O'Neill's seed_seq) on four uint32 lanes of N streams each, its
# constants uint32 arrays (legacy value-based casting keeps them uint32).

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.array([[0xCA01F9DD], [0x4973F715]], dtype=np.uint32)
_OTHERS = [np.array([d for d in range(_POOL_SIZE) if d != s]) for s in range(_POOL_SIZE)]


@cache
def _schedule(n_entropy: int, n_words: int) -> list:
    """The ``(xor, multiply)`` uint32 columns of each step of
    :func:`_pool_words` in turn: the pool's words, each pool word mixed into
    the three others, each entropy word past the pool mixed into all four,
    and the output words."""
    steps, sizes = [], [4, 3, 3, 3, 3] + [4] * (n_entropy - _POOL_SIZE)
    for const, mult, counts in ((_INIT_A, _MULT_A, sizes), (_INIT_B, _MULT_B, [n_words])):
        for size in counts:
            consts = [const]
            for _ in range(size):
                consts.append(consts[-1] * mult & _MASK32)
            const, column = consts[-1], np.array(consts, dtype=np.uint32)[:, None]
            steps.append((column[:-1], column[1:]))
    return steps


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


def _mix(x, y):
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> 16)


def _pool_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy[:, j]).generate_state(n_words, np.uint32)`` for
    every column ``j`` of the ``(E, N)`` uint32 ``entropy``, as rows."""
    steps = iter(_schedule(len(entropy), n_words))
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, *next(steps))
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(steps)))
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, *next(steps)))
    return _hashmix(pool[np.arange(n_words) % _POOL_SIZE], *next(steps))


def _int_words(value: int) -> list[int]:
    """A nonnegative integer as little-endian 32-bit words, at least one."""
    if value < 0:
        raise ValueError(f"seed values must be nonnegative, got {value}")
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _derived(prefix: list, values: np.ndarray, suffix, n_words: int) -> np.ndarray:
    """``SeedSequence(prefix + _int_words(v) + suffix).generate_state(n_words
    // 2, np.uint64)`` as the row of each uint64 ``v`` in ``values``.  A
    ``suffix`` row is one word for every entry, or an array of one per
    entry.  Values are grouped by word count, which decides the constants."""
    wide = values > _MASK32
    parts = [np.flatnonzero(~wide), np.flatnonzero(wide)] if wide.any() else [slice(None)]
    out = np.empty((len(values), n_words // 2), dtype=np.uint64)
    for idx, two_words in zip(parts, (False, True)):
        v = values[idx]
        if v.size:
            words = [v & _MASK32, v >> 32] if two_words else [v]
            rows = [*prefix, *words, *(w[idx] if isinstance(w, np.ndarray) else w for w in suffix)]
            entropy = np.empty((len(rows), v.size), dtype=np.uint32)
            for i, row in enumerate(rows):
                entropy[i] = row
            # numpy's own packing of 32-bit words into 64: little-endian pairs
            state = np.ascontiguousarray(_pool_words(entropy, n_words).T, dtype="<u4")
            out[idx] = state.view("<u8")
    return out


def _mix64(master: int, trial: int) -> int:
    """Fold a trial index into a master seed; identity when trial == 0.

    The identity case is what makes replay work: a violation found at
    (master, trial) is reported as the folded value m', and rerunning with
    master m' and a single trial regenerates the same stream.
    """
    if trial == 0:
        return int(master)
    return int(np.random.SeedSequence([int(master), int(trial)]).generate_state(1, np.uint64)[0])


@cache
def _tag_words(tag: str) -> tuple[int, ...]:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


class _StateWords:
    """What ``SeedSequence(entropy).generate_state(4, np.uint64)`` returns,
    derived already; a BitGenerator seeds from any ``ISeedSequence``."""

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
        entropy = [self.replay_master, *_tag_words(self.claim_tag)]
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _block_generators(master: int, tags, start: int, count: int):
    """Yield ``Seed(master, tag, t).generator()`` for every tag in ``tags``
    and, within a tag, t in ``start .. start + count - 1``, with the seed
    words of all (tag, trial) pairs derived in one pass over arrays; each
    generator is made when it is asked for."""
    # trial 0 keeps the master, which may be any width.  It joins the array
    # pass when it fits in 64 bits and several tags share it; alone, or
    # wider, it takes the Python-int route, once per tag
    head = start == 0 and (len(tags) == 1 or master > _MASK64)
    if len(tags) * (count - head) <= 1:  # one trial's Python ints cost less than the array pass
        for tag in tags:
            yield from (Seed(master, tag, t).generator() for t in range(start, start + count))
        return
    if start == 0 and count == 1:  # trial 0 alone, as a probe of one trial asks: no fold
        replay = np.array([master], dtype=np.uint64)
    else:
        trials = np.arange(max(start, 1), start + count, dtype=np.uint64)
        replay = _derived(_int_words(int(master)), trials, [], 2)[:, 0]
        if start == 0 and not head:
            replay = np.concatenate((np.array([master], dtype=np.uint64), replay))
    lanes = np.array([_tag_words(tag) for tag in tags], dtype=np.uint32).T.repeat(len(replay), 1)
    words = _derived([], np.tile(replay, len(tags)), lanes, 8)
    for i, tag in enumerate(tags):
        if head:
            yield Seed(master, tag, 0).generator()
        yield from map(_generator, words[i * len(replay) : (i + 1) * len(replay)])


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, Seed):
        return seed.generator()
    return Seed(int(seed)).generator()


@dataclass(frozen=True)
class EnsembleSpec:
    """What to draw for one claim: a kind, a family size and a scale.

    ``k`` is the family size; None leaves it to the kind: one matrix, or a
    family of 3 or 4, drawn per trial, for the commuting family with one
    non-normal member.  ``dim`` pins the dimension for families that only
    exist at one size (the self-adjoint pair with normal product is
    inherently 2x2); None means the suite's requested dimension is used.
    ``invertible`` moves normal spectra onto an annulus away from zero;
    ``commuting`` selects the commuting variant of the ordered-PSD ensemble.
    """

    kind: str
    k: int | None = None
    scale: float = 1.0
    dim: int | None = None
    invertible: bool = False
    commuting: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.k is not None and self.k < 1:
            raise ValueError("family size k must be >= 1")
        if self.dim is not None and self.dim < 1:
            raise ValueError("dim must be >= 1")


# ---------------------------------------------------------------------------
# draws (one trial, rng calls only) and builds (one trial or a stack)


def _draw_gaussian(rng, n):
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _general(re, im, scale):
    """Complex Gaussian entries with standard deviation ``scale``."""
    return scale * (re + 1j * im) / np.sqrt(2)


def _pair(g):
    """The real and imaginary parts of a ``(..., 2, n, n)`` Gaussian draw."""
    return g[..., 0, :, :], g[..., 1, :, :]


def _uniform(r, lo, hi):
    """``rng.uniform(lo, hi, size)`` bit for bit, from ``r = rng.random(size)``:
    numpy makes each uniform as ``lo + (hi - lo) * next_double``."""
    return lo + (hi - lo) * r


def _draw_general(rng, n, k):
    """A family of ``k`` complex Gaussians in one call: ``(k, 2, n, n)``
    entries, the same numbers as k successive (real, imaginary) pairs of
    :func:`_draw_gaussian`."""
    return rng.standard_normal((k, 2, n, n))


def _skew(t):
    """A* = -A, built as the skew part of a general matrix."""
    return (t - t.conj().swapaxes(-1, -2)) / 2


def _per_column(x):
    """Entries scaling the columns of a matrix (or of a stack): ``x`` itself
    for one trial and ``x[..., None, :]`` on a stack.  At n = 1 numpy rounds
    the two forms of a complex product differently, and reports made before
    generation was stacked used the first."""
    return x if x.ndim == 1 else x[..., None, :]


def _unitary(g):
    """QR of a complex Gaussian matrix, the triangular factor's diagonal
    phases normalized away."""
    re, im = _pair(g)
    q, r = np.linalg.qr(re + 1j * im)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0  # measure-zero guard
    return q * _per_column(d / np.abs(d))


def _diagonal(r, scale, invertible):
    """Diagonal entries from a disk of radius scale, or an annulus
    0.1*scale <= |z| <= scale when invertibility is required, made from
    ``(..., 2, n)`` uniforms on [0, 1): the turns, then the radii."""
    turns, radii = r[..., 0, :], r[..., 1, :]
    mag = _uniform(radii, 0.1 * scale, scale) if invertible else scale * np.sqrt(radii)
    return mag * np.exp(2j * np.pi * turns)


def _conjugate(u, d):
    """``u diag(d) u*``."""
    return (u * _per_column(d)) @ u.conj().swapaxes(-1, -2)


def _draw_family(rng, n, k):
    """The eigenbasis' Gaussians, then each member's diagonal."""
    return rng.standard_normal((2, n, n)), rng.random((k, 2, n))


def _build_family(g, r, scale, invertible):
    u = _unitary(g)
    return tuple(
        _conjugate(u, _diagonal(r[..., i, :, :], scale, invertible)) for i in range(r.shape[-3])
    )


def _build_positive_pair(g, d):
    u = _unitary(g)
    return _conjugate(u, d[..., 0, :]), _conjugate(u, d[..., 1, :])


def _draw_one_nonnormal(rng, n, k):
    """The unitary's Gaussians, the index of the non-normal member, then
    each member's diagonal with the non-normal member's off-diagonal entry
    right after its own: ``2kn + 2`` uniforms."""
    if n < 2:
        raise ValueError("non-normal commuting families need n >= 2")
    g = rng.standard_normal((2, n, n))
    special = int(rng.integers(k))
    return g, special, rng.random(2 * k * n + 2)


def _build_one_nonnormal(g, special, r, scale):
    """The non-normal member carries a 2x2 upper-triangular block on the
    first two basis vectors; every other member's diagonal is constant on
    that block, which is exactly what pairwise commutation requires."""
    u = _unitary(g)
    n = u.shape[-1]
    k = (r.shape[-1] - 2) // (2 * n)
    special = np.asarray(special, dtype=np.intp)
    at = 2 * n * (special[..., None] + 1)  # where each trial's corner entry sits
    j = np.arange(2 * k * n)
    diagonals = np.take_along_axis(r, j + 2 * (j >= at), -1).reshape(r.shape[:-1] + (k, 2, n))
    corner = np.take_along_axis(r, at + np.arange(2), -1)
    corner = _uniform(corner[..., 0], 0.3 * scale, scale) * np.exp(2j * np.pi * corner[..., 1])
    adj = u.conj().swapaxes(-1, -2)
    out = []
    for member in range(k):
        d = _diagonal(diagonals[..., member, :, :], scale, False)
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
    """The unitary's Gaussians, then A and B before conjugation: real
    multiples of plane reflections, drawn by rejection."""
    g = rng.standard_normal((2, 2, 2))
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
    return g, a, b


def _build_sa_pair(g, a, b):
    u = _unitary(g)
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


def _draw_ordered_psd(rng, n, commuting):
    """B's Gaussians, then the increment's eigenvalues or its Gaussians."""
    if commuting:
        return rng.standard_normal((2, n, n)), rng.random(n)
    return tuple(rng.standard_normal((2, 2, n, n)))


def _build_ordered_psd(g, other, scale, commuting):
    """(A, B) with A >= B >= 0; the increment lives on B's eigenbasis when a
    commuting pair is requested."""
    g = _general(*_pair(g), scale)
    b = symmetrize(adjoint(g) @ g)
    if commuting:
        _, u = np.linalg.eigh(b)
        a = b + (u * _per_column(_uniform(other, 0.0, scale))) @ u.conj().swapaxes(-1, -2)
    else:
        h = _general(*_pair(other), scale)
        a = b + symmetrize(adjoint(h) @ h)
    return symmetrize(a), b


def _draw_fuglede(rng, n):
    """A's Gaussians and diagonal, then a branch: B's diagonal on A's basis
    (``(2, n)`` uniforms) or B's Gaussians (``(2, n, n)``).  The two
    branches draw different shapes, so the runner stacks them apart."""
    g, r = rng.standard_normal((2, n, n)), rng.random((2, n))
    if int(rng.integers(2)):
        return g, r, rng.random((2, n))
    return g, r, rng.standard_normal((2, n, n))


def _build_fuglede(g, r, other, scale):
    u = _unitary(g)
    a = _conjugate(u, _diagonal(r, scale, False))
    if other.ndim == r.ndim:  # the commuting branch
        return a, _conjugate(u, _diagonal(other, scale, False))
    return a, _general(*_pair(other), scale)


def _build_negative_cross(g, r, scale):
    """(A, B) with A normal, B = c A for Re(c) <= 0, so A*B + B*A <= 0 and
    the pair commutes exactly.  ``r`` holds A's diagonal, then c's two
    uniforms."""
    (a,) = _build_family(g, r[..., :-2].reshape(r.shape[:-1] + (1, 2, -1)), scale, False)
    c = np.empty(r.shape[:-1], dtype=complex)
    c.real, c.imag = -r[..., -2], _uniform(r[..., -1], -1.0, 1.0)
    return a, (c[..., None, None] if c.ndim else c) * a


# kind -> (draw(rng, n, spec) -> drawn arrays, build(spec, *drawn) -> matrices)
_KINDS = {
    "unitary": (
        lambda rng, n, spec: (rng.standard_normal((2, n, n)),),
        lambda spec, g: (_unitary(g),),
    ),
    "self_adjoint": (
        lambda rng, n, spec: (rng.standard_normal((2, n, n)),),
        lambda spec, g: (symmetrize(_general(*_pair(g), spec.scale)),),
    ),
    "normal": (
        lambda rng, n, spec: _draw_family(rng, n, 1),
        lambda spec, g, r: _build_family(g, r, spec.scale, spec.invertible),
    ),
    "general": (
        lambda rng, n, spec: (_draw_general(rng, n, spec.k or 1),),
        lambda spec, drawn: tuple(np.moveaxis(_general(*_pair(drawn), spec.scale), -3, 0)),
    ),
    "anti_symmetric": (
        lambda rng, n, spec: (rng.standard_normal((2, n, n)),),
        lambda spec, g: (_skew(_general(*_pair(g), spec.scale)),),
    ),
    "commuting_normal_family": (
        lambda rng, n, spec: _draw_family(rng, n, spec.k or 1),
        lambda spec, g, r: _build_family(g, r, spec.scale, spec.invertible),
    ),
    "commuting_family_one_nonnormal": (
        lambda rng, n, spec: _draw_one_nonnormal(  # k unset: a family of 3 or 4 per trial
            rng, n, spec.k or int(3 + rng.integers(2))
        ),
        lambda spec, g, special, r: _build_one_nonnormal(g, special, r, spec.scale),
    ),
    "commuting_positive_pair": (
        lambda rng, n, spec: (rng.standard_normal((2, n, n)), rng.random((2, n))),
        lambda spec, g, r: _build_positive_pair(g, _uniform(r, 0.0, spec.scale)),
    ),
    "sa_pair_normal_product": (
        lambda rng, n, spec: _draw_sa_pair(rng, spec.scale),
        lambda spec, g, a, b: _build_sa_pair(g, a, b),
    ),
    "negative_cross_pair": (
        lambda rng, n, spec: (rng.standard_normal((2, n, n)), rng.random(2 * n + 2)),
        lambda spec, g, r: _build_negative_cross(g, r, spec.scale),
    ),
    "ordered_psd_pair": (
        lambda rng, n, spec: _draw_ordered_psd(rng, n, spec.commuting),
        lambda spec, g, other: _build_ordered_psd(g, other, spec.scale, spec.commuting),
    ),
    "sandwich_pair": (
        lambda rng, n, spec: _draw_sandwich(rng, n, spec.scale),
        lambda spec, *drawn: _build_sandwich(*drawn, spec.scale),
    ),
    "fuglede_pair": (
        lambda rng, n, spec: _draw_fuglede(rng, n),
        lambda spec, g, r, other: _build_fuglede(g, r, other, spec.scale),
    ),
}


# ---------------------------------------------------------------------------
# sampling


def sample(spec: EnsembleSpec, n: int, seed) -> tuple[np.ndarray, ...]:
    """Draw one tuple of matrices for ``spec`` at dimension ``n`` (or the
    spec's pinned dimension)."""
    n = spec.dim if spec.dim is not None else n
    draw, build = _KINDS[spec.kind]
    return tuple(map(as_matrix, build(spec, *draw(_as_generator(seed), n, spec))))


def sample_block(
    spec: EnsembleSpec, n: int, master: int, tag: str, start: int, count: int, max_bytes: int
):
    """Generate trials ``start .. start + count - 1`` of the stream
    ``(master, tag)`` and yield them in stacks, or alone.

    A stack is yielded as ``(seeds, matrices)``: a list of :class:`Seed` and
    a tuple of ``(B, n, n)`` stacks whose slice ``i`` is bit-for-bit
    ``sample(spec, n, seeds[i])``, at most ``max_bytes`` of matrices (and at
    least one trial).  A trial that runs alone is yielded as ``(seed,
    source)`` with ``sample(spec, n, source)`` its matrices.  The only trial
    of a block and every 1x1 trial come with their undrawn generator (numpy
    rounds the complex product ``u * d`` with a one-element ``d`` otherwise
    on a stack); a trial whose draw, or whose stack's build, raises comes
    with its Seed.

    Trials are drawn one by one into buffers, one set per drawn shape (a
    family of 3 or 4, a branch taken), and a full set is built as one stack:
    a set holds as many trials as fit in ``max_bytes``, counting a trial's
    draws or its matrices, whichever is larger.
    """
    if count == 1:  # the trial's Seed once, and its generator from it
        seed = Seed(master, tag, start)
        yield seed, seed.generator()
        return
    n = spec.dim if spec.dim is not None else n
    end = start + count
    rngs = zip(range(start, end), _block_generators(master, [tag], start, count))
    if n == 1:
        yield from ((Seed(master, tag, trial), rng) for trial, rng in rngs)
        return
    draw, build = _KINDS[spec.kind]
    groups = {}  # drawn shapes -> (seeds, one buffer per drawn array)
    for trial, rng in rngs:
        seed = Seed(master, tag, trial)
        try:
            drawn = draw(rng, n, spec)
        except Exception:
            yield seed, seed
            continue
        # from a list: tuple() of a generator allocates 10 slots and shrinks
        # the tuple, and CPython's free lists then keep such tuples by the
        # thousand, which showed as a megabyte of resident memory
        key = tuple([getattr(x, "shape", ()) for x in drawn])
        if key not in groups:
            arrays = [np.asarray(x) for x in drawn]
            per_trial = max(sum(a.nbytes for a in arrays), _matrix_bytes(spec, key))
            depth = max(1, min(end - trial, max_bytes // per_trial))
            groups[key] = ([], [np.empty((depth,) + a.shape, a.dtype) for a in arrays])
        seeds, slots = groups[key]
        for slot, x in zip(slots, drawn):
            slot[len(seeds)] = x
        seeds.append(seed)
        if len(seeds) == len(slots[0]):
            del groups[key]
            yield from _built_stack(spec, build, seeds, slots)
    for seeds, slots in groups.values():
        yield from _built_stack(spec, build, seeds, [s[: len(seeds)] for s in slots])


def sample_general(n: int, k: int, rngs: list) -> tuple[np.ndarray, ...]:
    """``sample(EnsembleSpec("general", k=k), n, rng)`` for every generator
    in ``rngs``, as one stack: the ``k`` matrices of a single generator, or
    ``k`` stacks of ``(B, n, n)`` whose slice ``i`` is bit-for-bit what
    ``rngs[i]`` gives.  One draw per generator, then one build and one
    finiteness check for all of them."""
    if len(rngs) == 1:
        drawn = _draw_general(rngs[0], n, k)
    else:  # (k, 2, B, n, n): each built matrix is a contiguous (B, n, n) stack
        drawn = np.stack([_draw_general(rng, n, k) for rng in rngs], axis=2)
    family = as_matrix(_general(drawn[:, 0], drawn[:, 1], 1.0))
    return tuple(family)


@cache
def _matrix_bytes(spec: EnsembleSpec, shapes: tuple) -> int:
    """Bytes of the matrices one trial makes from draws of these shapes, so
    that a stack of draws builds into one stack of matrices within the
    same bound; counted on a build from zeros."""
    _, build = _KINDS[spec.kind]
    return sum(m.nbytes for m in build(spec, *(np.zeros(shape) for shape in shapes)))


def _built_stack(spec, build, seeds, slots):
    """One set of draws built as one stack, or its trials yielded alone when
    the build raises."""
    try:
        mats = tuple(map(as_matrix, build(spec, *slots)))
    except Exception:
        yield from ((seed, seed) for seed in seeds)
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
    return sample(EnsembleSpec("commuting_family_one_nonnormal", k=k, scale=scale), n, seed)


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
