#!/usr/bin/env python3
"""Walkthrough of the oracle: index, spectral idempotent, axiom residuals."""

import numpy as np

from gdrazin import AxiomViolation, check_drazin_axioms, drazin_oracle

np.set_printoptions(precision=4, suppress=True, linewidth=120)

# A matrix with an invertible part (eigenvalue 2) glued to a nilpotent
# chain of length 2. Its index is 2 and its Drazin inverse keeps only
# the invertible part.
a = np.array([[2, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
res = drazin_oracle(a)
print("a =\n", a.real)
print("index:", res.index)
print("a^d =\n", res.d.real)
print("spectral idempotent a^pi =\n", res.pi.real)

# The defining equations, checked numerically. Residuals are scaled
# absolute norms; ok means every one is below EPS_MATCH * scale.
report = check_drazin_axioms(a, res.d)
print("axiom residuals:", report.solution, report.commute, report.power)
print("all axioms hold:", report.ok)

# Core-nilpotent split: a = (core) + (nilpotent), the parts commute and
# multiply to zero, and the nilpotent part dies at the index.
core = a @ a @ res.d
nil = a @ res.pi
print("a - core - nil ~ 0:", np.linalg.norm(a - core - nil))
print("core @ nil ~ 0:", np.linalg.norm(core @ nil))
print("nil^index ~ 0:", np.linalg.norm(np.linalg.matrix_power(nil, res.index)))

# Two invariances worth knowing: scaling moves through as 1/alpha, and
# similarity conjugates the inverse.
alpha = 2.0 - 1.0j
print("scaling gap:", np.linalg.norm(drazin_oracle(alpha * a).d - res.d / alpha))
s = np.eye(3) + 0.2 * np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
lhs = drazin_oracle(s @ a @ np.linalg.inv(s)).d
rhs = s @ res.d @ np.linalg.inv(s)
print("similarity gap:", np.linalg.norm(lhs - rhs))

# The oracle refuses to guess. A singular value sitting inside the
# ambiguity band around the rank cutoff raises instead of returning
# something that might invert noise.
shaky = np.diag([1.0, 3e-10]).astype(complex)
try:
    drazin_oracle(shaky)
except AxiomViolation as exc:
    print("refused:", exc)
