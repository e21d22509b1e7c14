"""Seeded matrix ensembles that satisfy claim hypotheses by construction.

Commuting families share an eigenbasis, ordered pairs are built as
base-plus-increment, and so on: nothing is rejection-sampled, because exact
algebraic hypotheses (commutation, self-adjointness) are measure zero for
generic random matrices.  Every generator is a pure function of its
:class:`Seed`, so any trial can be replayed bit-for-bit.

Every ensemble kind is two phases, ``draw(rngs, n, spec)`` and
``build(spec, *drawn)``, held in one table (``_KINDS``):

- a *draw* runs over a stack's generators, one per trial, and makes each
  trial's ``rng`` calls on its own generator, in a fixed order, into the
  stack's ``(B, ...)`` buffers with ``out=``: one call for all of a
  trial's Gaussians and one for all of its uniforms (``integers`` and the
  rejection loops stay apart, as the stream or the draw's own branching
  needs).  Draws that depend on earlier ones are made in stages over the
  same generators.  A draw only calls its generators and never raises;
  its row ``i`` is trial ``i``'s own draw;
- a shape-polymorphic *build* turns drawn arrays into matrices: the maps
  of uniforms onto their ranges, the QR, phase normalization, norms,
  eigendecompositions and products, and the checks that may raise.  It
  takes one trial's row of the draws, or a stack's, in one form (columns
  scale by ``x[..., None, :]``), so each slice of a stacked build is
  bit-for-bit the one-trial build, at every n.

:func:`sample_block` is the one cut of trials into stacks: it draws trials
over an iterator of their generators in stacks :func:`stack_depth` trials
deep, which the suite and the probe build with :func:`build`;
:func:`sample` is the block of one generator and the build of its row.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .core import _checked_int, _from_spectrum, _is_integer, adjoint, as_matrix
from .core import eigh_exact, operator_norm, symmetrize

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
    """Deterministic substream address (master, claim_tag, trial): ints >= 0 and a str tag."""

    master: int
    claim_tag: str = ""
    trial: int = 0

    def __post_init__(self):
        if not (_is_integer(self.master, 0) and _is_integer(self.trial, 0)):
            raise ValueError(f"seed master and trial must be nonnegative integers, got {self!r}")
        if not isinstance(self.claim_tag, str):
            raise ValueError(f"seed claim_tag must be a str, got {self.claim_tag!r}")

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
    # a probe of one trial has only trial 0, the master itself: no fold pass
    trials = np.arange(max(start, 1), start + count, dtype=np.uint64)
    replay = _derived(_int_words(int(master)), trials, [], 2)[:, 0] if trials.size else trials
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
    return Seed(seed).generator()


@dataclass(frozen=True)
class EnsembleSpec:
    """What to draw for one claim: a kind, and its family size and variants.

    ``k`` is the family size; None leaves it to the kind: one matrix, or a
    family of 3 or 4, drawn per trial, for the commuting family with one
    non-normal member.  ``dim`` pins the dimension for families that only
    exist at one size (the self-adjoint pair with normal product is
    inherently 2x2); None means the suite's requested dimension is used.
    ``invertible`` moves normal spectra from the unit disk onto the annulus
    0.1 <= |z| <= 1; ``commuting`` selects the commuting variant of the
    ordered-PSD ensemble.
    """

    kind: str
    k: int | None = None
    dim: int | None = None
    invertible: bool = False
    commuting: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.k is not None:
            _checked_int(self.k, "family size k")
        if self.dim is not None:
            _checked_int(self.dim, "dim")
        if self.kind == "sa_pair_normal_product" and self.dim != 2:
            raise ValueError(f"sa_pair_normal_product exists only at dim=2, got dim={self.dim!r}")


# ---------------------------------------------------------------------------
# draws (rng calls only, over a stack's generators) and builds (one trial or
# a stack)


def _fill(rngs, method: str, shape) -> np.ndarray:
    """A ``(len(rngs),) + shape`` buffer whose row ``i`` is one ``method``
    call (``standard_normal`` or ``random``) on ``rngs[i]``, made with ``out=``."""
    out = np.empty((len(rngs), *shape))
    for rng, row in zip(rngs, out):
        getattr(rng, method)(out=row)
    return out


def _general(re, im):
    """Complex Gaussian entries with standard deviation 1."""
    return (re + 1j * im) / np.sqrt(2)


def _pair(g):
    """The real and imaginary parts of a ``(..., 2, n, n)`` Gaussian draw."""
    return g[..., 0, :, :], g[..., 1, :, :]


def _uniform(r, lo, hi):
    """``rng.uniform(lo, hi, size)`` bit for bit, from ``r = rng.random(size)``:
    numpy makes each uniform as ``lo + (hi - lo) * next_double``."""
    return lo + (hi - lo) * r


def _skew(t):
    """A* = -A, built as the skew part of a general matrix."""
    return (t - t.conj().swapaxes(-1, -2)) / 2


def _unitary(g):
    """QR of a complex Gaussian matrix, the triangular factor's diagonal
    phases normalized away."""
    re, im = _pair(g)
    q, r = np.linalg.qr(re + 1j * im)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0  # measure-zero guard
    return q * (d / np.abs(d))[..., None, :]


def _diagonal(r, invertible):
    """Diagonal entries from the unit disk, or the annulus 0.1 <= |z| <= 1
    when invertibility is required, made from ``(..., 2, n)`` uniforms on
    [0, 1): the turns, then the radii."""
    turns, radii = r[..., 0, :], r[..., 1, :]
    mag = _uniform(radii, 0.1, 1.0) if invertible else np.sqrt(radii)
    return mag * np.exp(2j * np.pi * turns)


def _draw_family(rngs, n, spec):
    """The eigenbasis' Gaussians, then each member's diagonal."""
    return _fill(rngs, "standard_normal", (2, n, n)), _fill(rngs, "random", (spec.k or 1, 2, n))


def _build_family(spec, g, r):
    """Pairwise-commuting normal matrices sharing one random eigenbasis."""
    u = _unitary(g)
    return tuple(
        _from_spectrum(u, _diagonal(r[..., i, :, :], spec.invertible)) for i in range(r.shape[-3])
    )


def _build_positive_pair(spec, g, r):
    """Two commuting PSD matrices: one eigenbasis, diagonals on [0, 1)."""
    u, d = _unitary(g), _uniform(r, 0.0, 1.0)
    return _from_spectrum(u, d[..., 0, :]), _from_spectrum(u, d[..., 1, :])


def _draw_one_nonnormal(rngs, n, spec):
    """The unitary's Gaussians, the index of the non-normal member, then
    each member's diagonal with the non-normal member's off-diagonal entry
    right after its own: ``2kn + 2`` uniforms.  With ``k`` None each trial
    first draws a family of 3 or 4, and the trials of each size draw the
    rest together, as the group ``(rows, drawn)`` of a list."""
    if spec.k is None:
        sizes = np.array([3 + rng.integers(2) for rng in rngs])
        groups = [(np.flatnonzero(sizes == size), size) for size in (3, 4)]
        return [
            (rows, _draw_one_nonnormal([rngs[i] for i in rows], n, replace(spec, k=size)))
            for rows, size in groups
            if rows.size
        ]
    g = _fill(rngs, "standard_normal", (2, n, n))
    special = np.array([rng.integers(spec.k) for rng in rngs])
    return g, special, _fill(rngs, "random", (2 * spec.k * n + 2,))


def _build_one_nonnormal(spec, g, special, r):
    """The non-normal member carries a 2x2 upper-triangular block on the
    first two basis vectors; every other member's diagonal is constant on
    that block, which is exactly what pairwise commutation requires."""
    n = g.shape[-1]
    if n < 2:
        raise ValueError("non-normal commuting families need n >= 2")
    u = _unitary(g)
    k = (r.shape[-1] - 2) // (2 * n)
    special = np.asarray(special, dtype=np.intp)
    at = 2 * n * (special[..., None] + 1)  # where each trial's corner entry sits
    j = np.arange(2 * k * n)
    diagonals = np.take_along_axis(r, j + 2 * (j >= at), -1).reshape(r.shape[:-1] + (k, 2, n))
    corner = np.take_along_axis(r, at + np.arange(2), -1)
    corner = _uniform(corner[..., 0], 0.3, 1.0) * np.exp(2j * np.pi * corner[..., 1])
    adj = u.conj().swapaxes(-1, -2)
    out = []
    for member in range(k):
        d = _diagonal(diagonals[..., member, :, :], False)
        d[..., 1] = d[..., 0]
        inner = np.zeros(d.shape + (n,), dtype=complex)
        inner[..., range(n), range(n)] = d
        inner[..., 0, 1] = np.where(special == member, corner, 0)
        out.append((u @ inner) @ adj)
    return tuple(out)


def _draw_sa_pair(rngs, n, spec):
    """The unitary's Gaussians, then each trial's two reflection angles and
    two magnitudes, each pair drawn by rejection, and its two signs."""
    g = _fill(rngs, "standard_normal", (2, 2, 2))
    drawn = np.empty((3, len(rngs), 2))
    for i, rng in enumerate(rngs):
        while True:
            phi, psi = rng.uniform(0.0, np.pi, 2)
            if abs(np.sin(2 * (phi - psi))) >= 0.1:
                break
        while True:
            mags = rng.uniform(0.1, 1.0, 2)
            if abs(mags[0] - mags[1]) >= 0.05:
                break
        drawn[:, i] = (phi, psi), mags, rng.choice([-1.0, 1.0], 2)
    return g, *drawn


def _build_sa_pair(spec, g, angles, mags, signs):
    """A and B, signed real multiples of the plane reflections with the
    drawn angles, conjugated by one random unitary.  The product of two
    reflections is a rotation, hence normal; it is neither self-adjoint nor
    commuting while the axes are neither aligned nor perpendicular."""
    c, s = np.cos(2 * angles), np.sin(2 * angles)
    reflections = np.stack((c, s, s, -c), -1).reshape(angles.shape + (2, 2)).astype(complex)
    a, b = np.moveaxis((signs * mags)[..., None, None] * reflections, -3, 0)
    u = _unitary(g)
    adj = u.conj().swapaxes(-1, -2)
    return u @ a @ adj, u @ b @ adj


def _build_sandwich(spec, gc, r):
    """T = S^(1/2) C S^(1/2) with S = G* G >= 0 and C a Hermitian
    contraction, so -S <= T <= S exactly rather than by filtering.  ``gc``
    holds G's and C's Gaussians; C is squeezed into a contraction by
    ||C|| (1 + slack), the slack on [0.05, 1) from ``r``, unless C is 0."""
    g_re, g_im, c_re, c_im = np.moveaxis(gc, -3, 0)
    g = _general(g_re, g_im)
    s = symmetrize(adjoint(g) @ g)
    w, u = eigh_exact(s)
    root = _from_spectrum(u, np.sqrt(np.clip(w, 0.0, None)))
    c = symmetrize(_general(c_re, c_im))
    top = np.asarray(operator_norm(c))  # a lone trial's norm is a float
    squeeze = top > 0  # every C that is not 0
    denominator = np.where(squeeze, top * (1.0 + _uniform(r[..., 0], 0.05, 1.0)), 1.0)
    c = np.where(squeeze[..., None, None], c / denominator[..., None, None], c)
    return symmetrize(root @ c @ root), s


def _draw_ordered_psd(rngs, n, spec):
    """B's Gaussians, then the increment's eigenvalues or its Gaussians."""
    if spec.commuting:
        return _fill(rngs, "standard_normal", (2, n, n)), _fill(rngs, "random", (n,))
    g = _fill(rngs, "standard_normal", (2, 2, n, n))
    return g[:, 0], g[:, 1]


def _build_ordered_psd(spec, g, other):
    """(A, B) with A >= B >= 0; the increment lives on B's eigenbasis when a
    commuting pair is requested."""
    g = _general(*_pair(g))
    b = symmetrize(adjoint(g) @ g)
    if spec.commuting:
        _, u = eigh_exact(b)
        a = b + _from_spectrum(u, _uniform(other, 0.0, 1.0))
    else:
        h = _general(*_pair(other))
        a = b + symmetrize(adjoint(h) @ h)
    return symmetrize(a), b


def _draw_fuglede(rngs, n, spec):
    """A's Gaussians and diagonal, then a branch per trial and its tail: B's
    diagonal on A's basis (``(2, n)`` uniforms) or B's Gaussians
    (``(2, n, n)``).  Each tail buffer holds zeros for the other branch."""
    g, r = _fill(rngs, "standard_normal", (2, n, n)), _fill(rngs, "random", (2, n))
    commuting = np.array([rng.integers(2) for rng in rngs], dtype=bool)
    diagonal, gaussian = np.zeros((len(rngs), 2, n)), np.zeros((len(rngs), 2, n, n))
    for rng, branch, d, h in zip(rngs, commuting, diagonal, gaussian):
        if branch:
            rng.random(out=d)
        else:
            rng.standard_normal(out=h)
    return g, r, commuting, diagonal, gaussian


def _build_fuglede(spec, g, r, commuting, diagonal, gaussian):
    """A normal; B on A's eigenbasis, so commuting, or a general matrix:
    both are built, and each trial takes its branch's."""
    u = _unitary(g)
    a = _from_spectrum(u, _diagonal(r, False))
    b = _from_spectrum(u, _diagonal(diagonal, False))
    return a, np.where(commuting[..., None, None], b, _general(*_pair(gaussian)))


def _build_negative_cross(spec, g, r):
    """(A, B) with A normal, B = c A for Re(c) <= 0, so A*B + B*A <= 0 and
    the pair commutes exactly.  ``r`` holds A's diagonal, then c's two
    uniforms."""
    a = _from_spectrum(_unitary(g), _diagonal(r[..., :-2].reshape(r.shape[:-1] + (2, -1)), False))
    c = np.empty(r.shape[:-1], dtype=complex)
    c.real, c.imag = -r[..., -2], _uniform(r[..., -1], -1.0, 1.0)
    return a, c[..., None, None] * a


def _gaussian(rngs, n, spec):
    """One ``(2, n, n)`` Gaussian draw per trial: a kind's only draw."""
    return (_fill(rngs, "standard_normal", (2, n, n)),)


# kind -> (draw(rngs, n, spec) -> drawn stacks, build(spec, *drawn) -> matrices).
# A draw's arrays hold one row per generator; a kind whose trials draw
# different shapes returns a list of groups (rows, drawn) instead.
_KINDS = {
    "unitary": (_gaussian, lambda spec, g: (_unitary(g),)),
    "self_adjoint": (_gaussian, lambda spec, g: (symmetrize(_general(*_pair(g))),)),
    "normal": (_draw_family, _build_family),
    "general": (  # a family of k in one call: k successive (real, imaginary) pairs
        lambda rngs, n, spec: (_fill(rngs, "standard_normal", (spec.k or 1, 2, n, n)),),
        lambda spec, drawn: tuple(np.moveaxis(_general(*_pair(drawn)), -3, 0)),
    ),
    "anti_symmetric": (_gaussian, lambda spec, g: (_skew(_general(*_pair(g))),)),
    "commuting_normal_family": (_draw_family, _build_family),
    "commuting_family_one_nonnormal": (_draw_one_nonnormal, _build_one_nonnormal),
    "commuting_positive_pair": (
        lambda rngs, n, spec: (*_gaussian(rngs, n, spec), _fill(rngs, "random", (2, n))),
        _build_positive_pair,
    ),
    "sa_pair_normal_product": (_draw_sa_pair, _build_sa_pair),
    "negative_cross_pair": (
        lambda rngs, n, spec: (*_gaussian(rngs, n, spec), _fill(rngs, "random", (2 * n + 2,))),
        _build_negative_cross,
    ),
    "ordered_psd_pair": (_draw_ordered_psd, _build_ordered_psd),
    "sandwich_pair": (
        lambda rngs, n, spec: (
            _fill(rngs, "standard_normal", (4, n, n)), _fill(rngs, "random", (1,))
        ),
        _build_sandwich,
    ),
    "fuglede_pair": (_draw_fuglede, _build_fuglede),
}


# ---------------------------------------------------------------------------
# sampling


def build(spec: EnsembleSpec, drawn) -> tuple[np.ndarray, ...]:
    """The validated matrices of a stack's draw arrays, or of one trial's row of them."""
    return tuple(map(as_matrix, _KINDS[spec.kind][1](spec, *drawn)))


def sample(spec: EnsembleSpec, n: int, seed) -> tuple[np.ndarray, ...]:
    """Draw one tuple of matrices for ``spec`` at dimension ``n`` (or the
    spec's pinned dimension): :func:`sample_block` over one generator, and
    the build of its one row."""
    n = _checked_int(spec.dim if spec.dim is not None else n, "dim")
    ((_, drawn),) = sample_block(spec, n, iter([_as_generator(seed)]), np.arange(1))
    return build(spec, [x[0] for x in drawn])


# Cap on the bytes of one operand's (B, n, n) complex stack, which sets a
# stack's depth for every kind and claim: 64 trials at n = 8, and every trial
# of a 250-trial block at n <= 4.  A stack's live intermediates are a small
# multiple of its operands, so the cap bounds the memory a block adds (a
# 250-trial block peaks under 2 MiB traced at n = 4 and 8).
STACK_BYTES = 64 * 1024


def stack_depth(n: int) -> int:
    """How many trials a stack holds at dimension ``n``: as many as one
    ``(B, n, n)`` complex operand stack fits in ``STACK_BYTES``, at least one."""
    return max(1, STACK_BYTES // (16 * n * n))


def sample_block(spec: EnsembleSpec, n: int, rngs, trials: np.ndarray):
    """Draw the trials numbered ``trials`` at dimension ``n``, each from the
    next generator of the iterator ``rngs`` (taken in order, none ahead), in
    stacks of at most :func:`stack_depth` trials cut from the first, and
    yield each as ``(trials, drawn)``: its trial numbers and its draw's
    arrays, unbuilt, one entry per family size for a kind that draws
    several.  :func:`build` of row ``i`` of ``drawn`` is what :func:`sample`
    gives the generator of ``trials[i]``."""
    draw, depth = _KINDS[spec.kind][0], stack_depth(n)
    for at in range(0, len(trials), depth):
        stack = trials[at : at + depth]
        drawn = draw([next(rngs) for _ in range(len(stack))], n, spec)
        for rows, group in drawn if isinstance(drawn, list) else [(slice(None), drawn)]:
            yield stack[rows], group


def gen_general(n: int, seed) -> np.ndarray:
    """One matrix of independent complex Gaussian entries with standard
    deviation 1: ``sample(EnsembleSpec("general"), n, seed)[0]``.  Called
    in turn on one generator, it draws a probe trial's operands, as
    ``EnsembleSpec("general", k=k)`` does in one call."""
    return sample(EnsembleSpec("general"), n, seed)[0]
