"""
The absolute value of a matrix
==============================

|A| = sqrt(A* A) is the unique positive square root of A* A.  This walk-through
computes it two independent ways, checks the norm identity ||A|| = || |A| ||,
and exercises fractional powers with the semidefinite order.
"""

from absval import (
    abs_value,
    adjoint,
    as_matrix,
    frobenius,
    gen_general,
    loewner_leq,
    operator_norm,
    psd_power,
    psd_sqrt,
    psd_sqrt_iterative,
    symmetrize,
)

# A diagonal matrix with a sign: the absolute value flips the sign, exactly as
# it would for a real number.
a = as_matrix([[2, 0], [0, -1]])
print("A =\n", a.real)
print("|A| =\n", abs_value(a).real)

# For a non-normal matrix the absolute value is genuinely two-sided business:
# |A| and |A*| differ (they are equal exactly when A is normal).
a = as_matrix([[0, 2], [1, 0]])
print("\nnon-normal A:\n", a.real)
print("|A|  =\n", abs_value(a).real)
print("|A*| =\n", abs_value(adjoint(a)).real)

# Two square-root routes that share no code: spectral, and a coupled Newton
# iteration with determinant scaling.  They agree to ~1e-11 on random PSD input.
g = gen_general(4, seed=7)
p = symmetrize(adjoint(g) @ g)
direct = psd_sqrt(p)
iterated = psd_sqrt_iterative(p)
print("\nsqrt route disagreement:", frobenius(direct - iterated))
print("square residual:", frobenius(direct @ direct - p))

# The norm identity ||A|| = || |A| || holds for every matrix.
a = gen_general(5, seed=21)
print("\n||A|| =", operator_norm(a), "  || |A| || =", operator_norm(abs_value(a)))

# Fractional powers are monotone for the semidefinite order: if A >= B >= 0
# then A^t >= B^t for t in [0, 1].  Squaring, by contrast, needs commutation.
b = symmetrize(adjoint(g := gen_general(3, seed=3)) @ g)
h = gen_general(3, seed=4)
a = b + symmetrize(adjoint(h) @ h)  # a >= b by construction
for t in (0.25, 0.5, 0.75):
    verdict = loewner_leq(psd_power(b, t), psd_power(a, t))
    print(f"t={t}: B^t <= A^t holds: {verdict.holds} (witness {verdict.residual:.2e})")
