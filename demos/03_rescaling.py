"""Rescaling equivalence: many cascades, one filter bank.

Run:  python3 demos/03_rescaling.py
"""

from fractions import Fraction

from liftbank import find_rescaling, rescale_cascade
from liftbank.banks import haar

a = haar()
b = rescale_cascade(a, Fraction(2))

print("Original Haar cascade:")
for s in a.steps:
    print(f"  update={s.update}  filter {s.filter}")
print(f"  K = {a.k}, base = identity")

print("\nRescaled by kappa = 2 (update-0 filters x4, update-1 filters x1/4):")
for s in b.steps:
    print(f"  update={s.update}  filter {s.filter}")
print(f"  K = {b.k}, base = diag({b.base.h00}, {b.base.h11})")

print("\nBoth evaluate to the same analysis matrix:",
      a.evaluate() == b.evaluate())

witness = find_rescaling(a, b)
print(f"find_rescaling: {witness.relation}, kappa = {witness.kappa}")

# The witness is constructive: applying it reproduces b exactly.
print("rescale_cascade(a, kappa) == b:",
      rescale_cascade(a, witness.kappa) == b)

# Inequivalence is detected, not assumed: rescaling multiplies K by kappa,
# so equal gains force kappa = 1, while the taps would need kappa^2 = 2;
# these two single-step cascades cannot be related.
from liftbank import LiftingCascade, LiftingStep, LaurentPoly

c1 = LiftingCascade([LiftingStep(0, LaurentPoly({0: 1}))])
c2 = LiftingCascade([LiftingStep(0, LaurentPoly({0: 2}))])
print(f"\nc1 vs c2 (would need kappa^2 = 2): "
      f"{find_rescaling(c1, c2).relation}")
