"""Registry values certified in exact rational arithmetic.

The registry's operands are small integers, but the library computes every
|M| in floating point and the registry compares it with its expected value
within 1e-10.  Here each |M| is enclosed exactly: the library's candidate
X = abs_value(M) is made Hermitian in ``Fraction`` arithmetic, shown to be
positive semidefinite by a rational LDL* whose pivots are all >= 0, and then

    ||X - |M|||_2 <= ||X^2 - M*M||_F^(1/2),

because t -> t^(1/2) is operator monotone (Bhatia, Matrix Analysis,
Thm X.1.1), applied to X^2 and M*M, whose square roots are X and |M|.  Every
expected value E must then satisfy ||E - X||_F + sqrt(n) ||X - |M|||_2 <=
1e-6 max(1, ||E||_F): a bound on ||E - |M|||_F that no rounding can move.
The product |A| |A| is certified as X X, within ||X - |A||| (2 ||X|| + ||X - |A|||).
"""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from absval import TolerancePolicy, abs_value, as_matrix, registry

TOLERANCE = Fraction(1, 10**6)

# what each registry value is the absolute value of, as a function of the
# operands; abs_a_squared, the product |A| |A|, is certified from |A|
OPERANDS = {
    "abs_a": lambda a, *rest: a,
    "abs_b": lambda a, b: b,
    "abs_product": operator.matmul,
    "abs_sum": operator.add,
    "abs_square": lambda a: a @ a,
}


class Q:
    """A complex matrix with ``Fraction`` real and imaginary parts."""

    def __init__(self, re, im):
        self.re, self.im = re, im

    @classmethod
    def of(cls, m):
        m = np.asarray(m, dtype=complex)
        parts = (m.real, m.imag)
        return cls(*([[Fraction(float(x)) for x in row] for row in part] for part in parts))

    def __len__(self):
        return len(self.re)

    def _map(self, other, op):
        pairs = ((self.re, other.re), (self.im, other.im))
        return Q(*([[op(x, y) for x, y in zip(*rows)] for rows in zip(*p)] for p in pairs))

    def __add__(self, other):
        return self._map(other, operator.add)

    def __sub__(self, other):
        return self._map(other, operator.sub)

    def __matmul__(self, other):
        n = range(len(self))
        dot = lambda a, b, i, j: sum(a[i][t] * b[t][j] for t in n)  # noqa: E731
        re = [[dot(self.re, other.re, i, j) - dot(self.im, other.im, i, j) for j in n] for i in n]
        im = [[dot(self.re, other.im, i, j) + dot(self.im, other.re, i, j) for j in n] for i in n]
        return Q(re, im)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def adjoint(self):
        return Q([list(col) for col in zip(*self.re)], [[-x for x in col] for col in zip(*self.im)])

    def hermitian_part(self):
        s = self + self.adjoint()
        return Q(*([[x / 2 for x in row] for row in part] for part in (s.re, s.im)))

    def frobenius_sq(self):
        return sum(x * x for part in (self.re, self.im) for row in part for x in row)

    def is_psd(self):
        """Exact LDL* of a Hermitian matrix: every pivot >= 0, and a zero
        pivot only above a zero column."""
        re, im = [row[:] for row in self.re], [row[:] for row in self.im]
        n = len(re)
        for k in range(n):
            d = re[k][k]
            if d < 0:
                return False
            if d == 0:
                if any(re[i][k] or im[i][k] for i in range(k + 1, n)):
                    return False
                continue
            for i in range(k + 1, n):
                for j in range(k + 1, n):  # a_ij -= a_ik conj(a_jk) / d
                    re[i][j] -= (re[i][k] * re[j][k] + im[i][k] * im[j][k]) / d
                    im[i][j] -= (im[i][k] * re[j][k] - re[i][k] * im[j][k]) / d
        return True


def sqrt_up(x: Fraction) -> Fraction:
    """A rational upper bound on sqrt(x), within 2**-64 / denominator."""
    scale = 1 << 64
    root = math.isqrt(x.numerator * x.denominator * scale * scale)
    return Fraction(root + 1, x.denominator * scale)


def certified_abs(m: Q, m_float):
    """The library's |M| as an exact Hermitian X and a rational bound on
    ||X - |M|||_2, once X is shown to be positive semidefinite."""
    assert Q.of(m_float) == m  # the library sees the exact operand
    x = Q.of(abs_value(m_float)).hermitian_part()
    assert x.is_psd()
    return x, sqrt_up(sqrt_up((x @ x - m.adjoint() @ m).frobenius_sq()))


def certified_values(inst):
    """Each registry value's exact candidate and a rational bound on its
    distance in the Frobenius norm from the true value."""
    exact, floats = [Q.of(m) for m in inst.matrices], inst.matrices
    root_n = sqrt_up(Fraction(len(exact[0])))
    out = {}
    for name in inst.values(inst.matrices, TolerancePolicy()):
        if name == "abs_a_squared":  # ||XX - |A||A|||_2 <= eps (2 ||X||_2 + eps)
            x, eps = certified_abs(exact[0], floats[0])
            out[name] = (x @ x, root_n * eps * (2 * sqrt_up(x.frobenius_sq()) + eps))
        else:
            x, eps = certified_abs(OPERANDS[name](*exact), OPERANDS[name](*floats))
            out[name] = (x, root_n * eps)
    return out


def certifies(expected, certified) -> bool:
    """||E - V||_F + enclosure <= TOLERANCE * max(1, ||E||_F), decided
    exactly on squares."""
    e = Q.of(expected)
    value, enclosure = certified
    gap = sqrt_up((e - value).frobenius_sq()) + enclosure
    return gap * gap <= TOLERANCE * TOLERANCE * max(Fraction(1), e.frobenius_sq())


@pytest.mark.parametrize("inst", registry(), ids=lambda inst: inst.ce_id)
def test_every_registry_value_is_certified(inst):
    certified = certified_values(inst)
    assert set(inst.expected_values) <= set(certified)
    for name, (_, enclosure) in certified.items():
        assert enclosure <= TOLERANCE, (inst.ce_id, name, float(enclosure))
    for name, expected in inst.expected_values.items():
        assert certifies(expected, certified[name]), (inst.ce_id, name)


def test_a_wrong_expected_value_is_refused():
    # diag(1, 2) is |B|, the value CE-2's caveat says is quoted for |AB|
    (ce2,) = [inst for inst in registry() if inst.ce_id == "CE-2"]
    certified = certified_values(ce2)["abs_product"]
    assert certifies(ce2.expected_values["abs_product"], certified)
    assert not certifies(as_matrix([[1, 0], [0, 2]]), certified)
