"""Dense complex matrix primitives: adjoint, products, norms, Hermitian eigen.

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


def trial_max(*values):
    """``max(values)``; elementwise when the values hold stacks of trials."""
    try:
        return max(values)
    except ValueError:  # the truth value of a comparison between stacks
        return reduce(np.maximum, values)


def trial_min(*values):
    """``min(values)``; elementwise when the values hold stacks of trials."""
    try:
        return min(values)
    except ValueError:
        return reduce(np.minimum, values)


def trial_sqrt(x):
    """``math.sqrt``; elementwise on a stack."""
    return np.sqrt(x) if type(x) is np.ndarray else math.sqrt(x)


def select(cond, if_true, if_false):
    """``if_true if cond else if_false``, per trial."""
    if type(cond) is np.ndarray:
        return np.where(cond, if_true, if_false)
    return if_true if cond else if_false


def exceeds(x, bound):
    """``x > bound``, per trial, failing closed: NaN exceeds every bound and
    every value exceeds a NaN bound, so a gate never admits a non-finite
    intermediate."""
    within = x <= bound
    return ~within if type(within) is np.ndarray else not within


def failing(bad, values):
    """The value of the first trial flagged ``bad``, as a float; None if no trial is."""
    if type(bad) is np.ndarray:
        hits = np.flatnonzero(bad)
        return float(np.broadcast_to(values, bad.shape).flat[hits[0]]) if hits.size else None
    return values if bad else None


def extreme_eigenvalues(w):
    """(lambda_min, lambda_max) of ascending eigenvalues ``w[..., :]``."""
    if w.ndim == 1:
        return float(w[0]), float(w[-1])
    return w[..., 0], w[..., -1]


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative/absolute thresholds used by every approximate comparison."""

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self):
        if not (self.rel > 0 and self.abs > 0):
            raise ValueError(f"tolerances must be positive, got rel={self.rel}, abs={self.abs}")

    def bound(self, *scales):
        """The threshold ``rel * max(1, *scales) + abs``, per trial."""
        try:
            return self.rel * max(1.0, *scales) + self.abs
        except ValueError:  # stacks of trials
            return self.rel * reduce(np.maximum, scales, 1.0) + self.abs


DEFAULT_POLICY = TolerancePolicy()


def as_matrix(entries) -> np.ndarray:
    """Validate and return a square complex128 matrix.

    Accepts anything ``np.asarray`` does; rejects non-square shapes and
    non-finite entries.
    """
    a = np.array(entries, dtype=complex, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose.  An exact involution: adjoint(adjoint(a)) == a bitwise."""
    return np.ascontiguousarray(a.conj().swapaxes(-1, -2))


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b`` with an explicit dimension check."""
    if a.shape[-1] != b.shape[-2]:
        raise DimensionMismatch(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


def frobenius(a: np.ndarray):
    """Frobenius norm, bit-for-bit ``np.linalg.norm(a)`` on every matrix.

    ``np.linalg.norm`` sums ``re . re + im . im`` with BLAS dot products over
    the entries in memory order, and the rounding depends on that order.  A
    stack is therefore read slice by slice in each slice's memory order, and
    its dot products run through a batched ``(1, k) @ (k, 1)`` matmul, which
    calls the same BLAS dot.
    """
    if a.ndim == 2:
        x = a.ravel("K")
        if x.dtype.kind != "c":
            return math.sqrt(x.dot(x))
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    if a.strides[-1] > a.strides[-2]:  # column-major slices
        a = a.swapaxes(-1, -2)
    x = a.reshape(a.shape[:-2] + (1, -1))
    if x.dtype.kind != "c":
        return np.sqrt((x @ x.swapaxes(-1, -2))[..., 0, 0])
    re, im = x.real, x.imag
    return np.sqrt((re @ re.swapaxes(-1, -2))[..., 0, 0] + (im @ im.swapaxes(-1, -2))[..., 0, 0])


def symmetrize(h: np.ndarray) -> np.ndarray:
    """Hermitian part (h + h*)/2; exactly equal to its own conjugate transpose."""
    return (h + h.conj().swapaxes(-1, -2)) / 2


def approx_eq(x: np.ndarray, y: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY):
    """The one shared approximate-equality rule:

    ``||x - y||_F <= rel * max(1, ||x||_F, ||y||_F) + abs``.
    """
    return frobenius(x - y) <= pol.bound(frobenius(x), frobenius(y))


def rel_residual(x: np.ndarray, y: np.ndarray):
    """Frobenius distance scaled the same way :func:`approx_eq` scales it."""
    return frobenius(x - y) / trial_max(1.0, frobenius(x), frobenius(y))


def operator_norm(a: np.ndarray):
    """Largest singular value, computed as sqrt(lambda_max(a* a))."""
    gram = symmetrize(adjoint(a) @ a)
    lam = extreme_eigenvalues(np.linalg.eigvalsh(gram))[1]
    return trial_sqrt(trial_max(lam, 0.0))


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    orthonormal eigenvectors as columns, so ``U diag(w) U*`` reconstructs
    the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues[..., None, :]) @ u.conj().swapaxes(-1, -2)


def hermitian_eigen(h: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> HermitianEigen:
    """Eigendecomposition for self-adjoint input.

    The input is symmetrized before factorization, but asymmetry beyond the
    policy's tolerance is the caller's error and raises rather than being
    absorbed silently.
    """
    asym = frobenius(h - h.conj().swapaxes(-1, -2))
    witness = failing(exceeds(asym, pol.bound(frobenius(h))), asym)
    if witness is not None:
        raise NotSelfAdjoint(f"input is not self-adjoint: ||h - h*||_F = {witness:.3e}")
    return eigh_exact(symmetrize(h))


def eigh_exact(h: np.ndarray) -> HermitianEigen:
    """Eigendecomposition of input that is exactly Hermitian, such as the
    output of :func:`symmetrize`; no gate, no further symmetrization."""
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigensolver did not converge: {exc}", float(np.max(frobenius(h)))
        ) from exc
    return HermitianEigen(w, u)


def matrix_to_literal(a: np.ndarray) -> dict:
    """JSON-ready literal: ``{"dim": n, "entries": [[re, im], ...]}`` row-major."""
    n = a.shape[0]
    entries = [[float(z.real), float(z.imag)] for z in a.reshape(n * n)]
    return {"dim": n, "entries": entries}


def matrix_from_literal(obj: dict) -> np.ndarray:
    """Parse the literal produced by :func:`matrix_to_literal`, validating shape."""
    try:
        n = int(obj["dim"])
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix literal: {exc}") from exc
    if n < 1 or len(entries) != n * n:
        raise ValueError(f"literal claims dim {n} but carries {len(entries)} entries")
    flat = [complex(re, im) for re, im in entries]
    return as_matrix(np.array(flat, dtype=complex).reshape(n, n))
