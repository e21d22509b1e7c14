"""
When is |AB| = |A||B|?
======================

Never in general.  This script shows the two classic failures and then the
hypotheses that repair the identity: a normal commuting factor, or
self-adjoint factors with a normal product.
"""

import numpy as np

from absval import (
    EnsembleSpec,
    abs_value,
    as_matrix,
    frobenius,
    inverse,
    is_normal,
    is_self_adjoint,
    sample,
)

# Failure 1: self-adjoint A, B whose product is not normal.
a = as_matrix([[2, 0], [0, -1]])
b = as_matrix([[0, 1], [1, 0]])
print("|AB| =\n", abs_value(a @ b).real)
print("|A||B| =\n", (abs_value(a) @ abs_value(b)).real)
print("self-adjoint factors are not enough: AB normal?", bool(is_normal(a @ b)))

# Failure 2: non-normal A, B whose product is even self-adjoint.
a = as_matrix([[0, 1], [2, 0]])
b = as_matrix([[0, 2], [1, 0]])
print("\nAB =\n", (a @ b).real, "\n|AB| =\n", abs_value(a @ b).real)
print("|A||B| =\n", (abs_value(a) @ abs_value(b)).real)

# Repair 1: commuting factors with one of them normal.
a, b = sample(EnsembleSpec("commuting_normal_family", k=2), 3, seed=11)
gap = frobenius(abs_value(a @ b) - abs_value(a) @ abs_value(b))
print("\ncommuting normal pair: || |AB| - |A||B| || =", gap)

# With both factors normal, all eight products AB, A*B, AB*, A*B*, B*A*, B*A,
# BA*, BA share one absolute value.
from absval import adjoint

products = [a @ b, adjoint(a) @ b, a @ adjoint(b), adjoint(a) @ adjoint(b),
            adjoint(b) @ adjoint(a), adjoint(b) @ a, b @ adjoint(a), b @ a]
ref = abs_value(products[0])
print("eight-product spread:", max(frobenius(abs_value(p) - ref) for p in products))

# The identity survives inverses and integer powers of normal matrices.
(c,) = sample(EnsembleSpec("commuting_normal_family", k=1, invertible=True), 3, seed=5)
print("\n|| |C^-1| |C| - I || =", frobenius(abs_value(inverse(c)) @ abs_value(c) - np.eye(3)))
cube = c @ c @ c
abs_cube = abs_value(c) @ abs_value(c) @ abs_value(c)
print("|| |C^3| - |C|^3 || =", frobenius(abs_value(cube) - abs_cube))

# Repair 2: self-adjoint factors whose product happens to be normal.  Scaled
# reflections do this: the product of two reflections is a rotation.
a, b = sample(EnsembleSpec("sa_pair_normal_product", dim=2), 2, seed=2)
print("\nreflection pair: A, B self-adjoint:",
      bool(is_self_adjoint(a)), bool(is_self_adjoint(b)),
      "AB normal:", bool(is_normal(a @ b)),
      "AB self-adjoint:", bool(is_self_adjoint(a @ b)))
print("|| |AB| - |A||B| || =", frobenius(abs_value(a @ b) - abs_value(a) @ abs_value(b)))
