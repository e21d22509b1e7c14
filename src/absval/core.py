"""Dense complex matrix primitives: adjoint, norms, Hermitian eigendecomposition.

Every matrix in this package is a square ``numpy.ndarray`` of complex128,
validated once on construction (see :func:`as_matrix`) and treated as
immutable afterwards.  All higher modules build on the handful of
operations here.

Every operation is shape-polymorphic over leading axes: it takes one
``(n, n)`` matrix, or a ``(..., n, n)`` stack of independent trials.  One
matrix gives Python scalars (``float``, ``bool``); a stack gives one array
entry per matrix, and each entry is bit-for-bit the value the single-matrix
call returns on that slice.  The ``trial_*`` helpers below combine such
per-trial values without caring which of the two forms they hold.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np


class NumericalError(Exception):
    """A computation failed on its input: the numbers, not the usage, are at fault."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NotSelfAdjoint(NumericalError, ValueError):
    """Input fails the self-adjointness gate of a Hermitian-only routine."""


class ConvergenceError(NumericalError, RuntimeError):
    """Iterative kernel failed to converge; ``residual`` holds the witness."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# per-trial values: Python scalars for one matrix, arrays for a stack


def _trial_extreme(name, pick, ufunc):
    """``pick(values)``, ``pick`` being max or min; elementwise by ``ufunc``
    when the values hold stacks of trials.  NaN where a value is NaN, for
    one trial as on a stack.  The function is called ``name``."""

    def extreme(*values):
        for v in values:
            if type(v) is np.ndarray or v != v:  # a stack, or a NaN
                if np.ndarray in map(type, values):
                    return reduce(ufunc, values)
                return next(v for v in values if v != v)  # max and min keep it only first
        return pick(values)

    extreme.__name__ = extreme.__qualname__ = name
    return extreme


trial_max = _trial_extreme("trial_max", max, np.maximum)
trial_min = _trial_extreme("trial_min", min, np.minimum)


def trial_sqrt(x):
    """``math.sqrt``; elementwise on a stack."""
    return np.sqrt(x) if type(x) is np.ndarray else math.sqrt(x)


def select(cond, if_true, if_false):
    """``if_true if cond else if_false``, per trial."""
    if type(cond) is np.ndarray:
        return np.where(cond, if_true, if_false)
    return if_true if cond else if_false


def failing(holds, values):
    """The value of the first trial whose ``holds`` is False, as a float;
    None if every trial holds.  The rules compare with ``<=`` or ``>=``,
    which is False where either side is NaN, so a gate that raises on a
    failing trial never admits a non-finite intermediate."""
    if type(holds) is np.ndarray:
        hits = np.flatnonzero(~holds)
        return float(np.broadcast_to(values, holds.shape).flat[hits[0]]) if hits.size else None
    return None if holds else values


def extreme_eigenvalues(w):
    """(lambda_min, lambda_max) of ascending eigenvalues ``w[..., :]``."""
    if w.ndim == 1:
        return float(w[0]), float(w[-1])
    return w[..., 0], w[..., -1]


@dataclass(frozen=True)
class PredicateResult:
    """The verdict of a predicate or an order comparison: ``holds`` and its
    numerical witness ``residual``, a bool and a float for one matrix and
    arrays with one entry per trial for a stack."""

    holds: bool
    residual: float

    def __bool__(self) -> bool:
        return bool(self.holds)


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative/absolute thresholds used by every approximate comparison."""

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self):
        # at a tolerance of 1 or more a unit-scale comparison admits anything
        # (N = [[0, 1], [0, 0]] passes as anti-symmetric at rel = 2), and an
        # infinite or NaN one makes every gate and conclusion vacuous
        if not all(0 < t < 1 for t in (self.rel, self.abs)):
            raise ValueError(
                f"tolerances must lie in (0, 1), got rel={self.rel}, abs={self.abs}"
            )

    def bound(self, *scales):
        """The threshold ``rel * max(1, *scales) + abs``, per trial: NaN
        where a scale is NaN, for one matrix as on a stack, so a rule judged
        at it fails closed."""
        for s in scales:  # trial_max's test, inlined: every comparison pays it
            if type(s) is np.ndarray or s != s:
                return self.rel * trial_max(1.0, *scales) + self.abs
        return self.rel * max(1.0, *scales) + self.abs


DEFAULT_POLICY = TolerancePolicy()


def as_matrix(entries) -> np.ndarray:
    """Validate and return a square complex128 matrix, or a stack of them.

    Accepts anything ``np.asarray`` does; rejects non-square shapes and
    non-finite entries.
    """
    a = np.array(entries, dtype=complex, order="C")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _is_integer(value, least: int = 1) -> bool:
    """The one integer rule of a size or seed argument: an int or numpy
    integer of at least ``least``, and not a bool (which Python counts as an int)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def _checked_int(value, name: str, least: int = 1) -> int:
    """``int(value)`` once :func:`_is_integer` admits it, so a numpy integer
    goes no further, else a ``ValueError`` that names the argument."""
    if not _is_integer(value, least):
        rule = "a nonnegative integer" if least == 0 else f">= {least}, an integer and not a bool"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose.  An exact involution: adjoint(adjoint(a)) == a bitwise."""
    star = a.swapaxes(-1, -2).copy()
    return np.conjugate(star, out=star)


def frobenius(a: np.ndarray):
    """Frobenius norm, bit-for-bit ``np.linalg.norm(a)`` on every matrix.

    ``np.linalg.norm`` sums ``re . re + im . im`` with BLAS dot products over
    the entries in memory order, and the rounding depends on that order.  A
    stack is therefore read slice by slice in each slice's memory order, and
    its dot products run through a batched ``(1, k) @ (k, 1)`` matmul, which
    calls the same BLAS dot.  An empty stack gives an empty array.
    """
    if a.ndim == 2:
        x = a.ravel("K")
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    if a.strides[-1] > a.strides[-2]:  # column-major slices
        a = a.swapaxes(-1, -2)
    x = a.reshape(a.shape[:-2] + (1, a.shape[-1] * a.shape[-2]))
    re, im = x.real, x.imag
    return np.sqrt((re @ re.swapaxes(-1, -2))[..., 0, 0] + (im @ im.swapaxes(-1, -2))[..., 0, 0])


def symmetrize(h: np.ndarray) -> np.ndarray:
    """Hermitian part (h + h*)/2, made in one new buffer; exactly equal to
    its own conjugate transpose."""
    out = adjoint(h).astype(np.result_type(h, 0.5), copy=False)  # an integer h halves to floats
    out += h
    out /= 2
    return out


def equality(x: np.ndarray, y: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY):
    """The one approximate-equality rule, as ``(holds, residual)`` from one
    set of norms: ``holds`` is ``||x - y||_F <= pol.bound(||x||_F, ||y||_F)``
    and ``residual`` is ``||x - y||_F / max(1, ||x||_F, ||y||_F)``."""
    gap, nx, ny = frobenius(x - y), frobenius(x), frobenius(y)
    return gap <= pol.bound(nx, ny), gap / trial_max(1.0, nx, ny)


def self_adjointness(x: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY):
    """The one self-adjointness rule, as ``(holds, residual, norm)``:
    ``holds`` is ``||x - x*||_F <= pol.bound(||x||_F)``, False where ``x``
    holds a NaN, and ``norm`` is the ``||x||_F`` it was judged at."""
    r, norm = frobenius(x - x.conj().swapaxes(-1, -2)), frobenius(x)
    return r <= pol.bound(norm), r, norm


def require_self_adjoint(x: np.ndarray, pol: TolerancePolicy, what: str):
    """Raise :class:`NotSelfAdjoint`, naming ``what`` and the first failing
    trial's residual, unless every trial passes :func:`self_adjointness`;
    return ``||x||_F``."""
    holds, r, norm = self_adjointness(x, pol)
    witness = failing(holds, r)
    if witness is not None:
        raise NotSelfAdjoint(f"{what} is not self-adjoint: ||x - x*||_F = {witness:.3e}")
    return norm


def require_same_shape(a: np.ndarray, b: np.ndarray, what: str):
    """Raise :class:`DimensionMismatch` unless ``a`` and ``b`` have one shape."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"{what} takes operands of one shape, got {a.shape} and {b.shape}")


def positivity(w: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY):
    """The one positive-semidefiniteness rule on ascending eigenvalues
    ``w[..., :]``, as ``(holds, lambda_min)``: ``holds`` is
    ``lambda_min >= -pol.bound(lambda_max)``, False where ``lambda_min`` is NaN."""
    lam_min, lam_max = extreme_eigenvalues(w)
    return lam_min >= -pol.bound(lam_max), lam_min


def commutation(gap, a, b, pol: TolerancePolicy = DEFAULT_POLICY):
    """The one commutator rule, as ``(holds, residual)``: ``holds`` is
    ``||gap||_F <= pol.bound(||a||_F ||b||_F)`` for a commutator ``gap`` of
    ``a`` and ``b``, and ``residual`` is ``||gap||_F``."""
    r = frobenius(gap)
    return r <= pol.bound(frobenius(a) * frobenius(b)), r


def _gram_extremes(a: np.ndarray):
    """(lambda_min, lambda_max) of a* a by ``eigvalsh``, NaN for a trial whose
    a* a is not finite: LAPACK may read it as finite numbers, NaN or an error."""
    gram = symmetrize(adjoint(a) @ a)
    if np.isfinite(gram).all():
        return extreme_eigenvalues(eigh_exact(gram, "eigvalsh"))
    finite = np.isfinite(gram).all(axis=(-2, -1))
    w = np.full(gram.shape[:-1], np.nan)
    w[finite] = eigh_exact(gram[finite], "eigvalsh")
    return extreme_eigenvalues(w)


def operator_norm(a: np.ndarray):
    """Largest singular value, sqrt(lambda_max(a* a)); NaN where a* a is not finite."""
    return trial_sqrt(trial_max(_gram_extremes(a)[1], 0.0))


def hermitian_eigen(h: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY):
    """Eigendecomposition ``(w, u)`` of self-adjoint input, as ``np.linalg.eigh``
    returns it: real ascending eigenvalues ``w`` and orthonormal eigenvectors
    as the columns of ``u``, so ``u diag(w) u*`` reconstructs the input.

    The input is symmetrized before factorization, but input that fails
    :func:`self_adjointness` is the caller's error and raises rather than
    being absorbed silently.
    """
    require_self_adjoint(h, pol, "input")
    return eigh_exact(symmetrize(h))


def _from_spectrum(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``u diag(d) u*``, for one matrix or a stack: f(A) = U f(Lambda) U*,
    the one form that the calculus and the ensembles share."""
    return (u * d[..., None, :]) @ u.conj().swapaxes(-1, -2)


def eigh_exact(h: np.ndarray, routine: str = "eigh"):
    """Eigendecomposition ``(w, u)`` of exactly Hermitian input, such as the
    output of :func:`symmetrize`, or ``w`` alone by ``routine="eigvalsh"``; no
    gate, no further symmetrization.  The package's one eigensolver call, looked
    up on ``np.linalg`` each time: a LAPACK failure is a :class:`ConvergenceError`."""
    try:
        return getattr(np.linalg, routine)(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigensolver did not converge: {exc}", float(np.max(frobenius(h)))
        ) from exc


def matrix_to_literal(a: np.ndarray) -> dict:
    """JSON-ready literal: ``{"dim": n, "entries": [[re, im], ...]}`` row-major."""
    n = a.shape[0]
    entries = [[float(z.real), float(z.imag)] for z in a.reshape(n * n)]
    return {"dim": n, "entries": entries}


def matrix_from_literal(obj: dict) -> np.ndarray:
    """Parse the literal produced by :func:`matrix_to_literal`.  A missing
    key, a ``dim`` that is not an int (``2.0`` and ``true`` included), or
    entries that are not ``dim * dim`` pairs of numbers (``true`` and
    ``false`` are not) raise ValueError."""
    try:
        n = operator.index(obj["dim"])
        flat = [complex(re, im) for re, im in obj["entries"]]
        if bool in {type(obj["dim"]), *(type(x) for pair in obj["entries"] for x in pair)}:
            raise TypeError("JSON true and false are not numbers")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix literal: {exc}") from exc
    if n < 1 or len(flat) != n * n:
        raise ValueError(f"literal claims dim {n} but carries {len(flat)} entries")
    return as_matrix(np.array(flat, dtype=complex).reshape(n, n))
