"""
Triangle inequalities for matrix absolute values
================================================

|A + B| <= |A| + |B| fails for plain matrices; commutation plus normality
restores it, and with it a family of consequences: |.|-reverse bounds,
norm bounds, and a sandwich lemma for operator norms.
"""

import numpy as np

from absval import (
    EnsembleSpec,
    abs_value,
    adjoint,
    as_matrix,
    loewner_leq,
    operator_norm,
    sample,
)

# The counterexample: two self-adjoint matrices that do not commute.
a = as_matrix([[-1, 1], [1, -1]])
b = as_matrix([[2, 0], [0, 0]])
gap = abs_value(a) + abs_value(b) - abs_value(a + b)
print("|A|+|B|-|A+B| eigenvalues:", np.linalg.eigvalsh(gap))
print("triangle inequality holds:", bool(loewner_leq(abs_value(a + b), abs_value(a) + abs_value(b))))

# Commuting normal matrices behave like complex numbers.
a, b = sample(EnsembleSpec("commuting_normal_family", k=2), 4, seed=3)
print("\ncommuting normals:")
for label, lhs in (("|A+B|", abs_value(a + b)), ("|A-B|", abs_value(a - b))):
    verdict = loewner_leq(lhs, abs_value(a) + abs_value(b))
    print(f"  {label} <= |A|+|B|: {verdict.holds} (witness {verdict.residual:.2e})")

# The reverse direction in the semidefinite order: ||A|-|B|| <= |A -+ B|.
gap = abs_value(a) - abs_value(b)
for label, rhs in (("|A-B|", abs_value(a - b)), ("|A+B|", abs_value(a + b))):
    verdict = loewner_leq(abs_value(gap), rhs)
    print(f"  ||A|-|B|| <= {label}: {verdict.holds}")

# And in the operator norm: || |A|-|B| || <= ||A +- B||.
print("  || |A|-|B| || =", operator_norm(gap),
      " ||A+B|| =", operator_norm(a + b), " ||A-B|| =", operator_norm(a - b))

# A normal T splits into commuting self-adjoint parts, so |T| <= |Re T| + |Im T|.
(t,) = sample(EnsembleSpec("commuting_normal_family", k=1), 4, seed=9)
re, im = (t + adjoint(t)) / 2, (t - adjoint(t)) / 2j
print("\n|T| <= |Re T| + |Im T|:",
      bool(loewner_leq(abs_value(t), abs_value(re) + abs_value(im))))

# Dropping commutation costs an extra condition: A*B + B*A <= 0 also suffices
# (here built as B = cA with Re c <= 0).
a, b = sample(EnsembleSpec("negative_cross_pair"), 3, seed=13)
cross = adjoint(a) @ b + adjoint(b) @ a
print("\nnegative cross pair: A*B+B*A <= 0:",
      bool(loewner_leq(cross, np.zeros_like(cross))),
      " triangle holds:",
      bool(loewner_leq(abs_value(a + b), abs_value(a) + abs_value(b))))

# The sandwich lemma: -S <= T <= S forces ||T|| <= ||S||.
t, s = sample(EnsembleSpec("sandwich_pair"), 4, seed=17)
print("\nsandwich: ||T|| =", operator_norm(t), " ||S|| =", operator_norm(s))
