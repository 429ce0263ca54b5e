"""Factoring a polyphase matrix into lifting steps.

The factorizer runs a Euclidean reduction on the first column: each
division kills the extreme tap of one entry with a monomial multiple of
the other.  Strategy choices (which support end to attack, which channel
wins ties) produce genuinely different factorizations of the same bank,
and a reduction that ends in a delayed diagonal returns the delay as the
cascade's base.

Run:  python3 demos/05_factorization.py
"""

from liftbank import (
    FactorStrategy,
    HIGH_END,
    HIGHPASS_FIRST,
    LOW_END,
    LOWPASS_FIRST,
    LaurentPoly,
    PolyphaseMatrix,
    factor_lifting,
)
from liftbank.banks import five_three, haar_base

matrix = haar_base()
print("Factoring the Haar polyphase matrix [[1/2, 1/2], [-1, 1]]:\n")

for first in (LOWPASS_FIRST, HIGHPASS_FIRST):
    cascade = factor_lifting(matrix, FactorStrategy(first_channel=first))
    print(f"tie-break {first}: {cascade.n_steps} steps, K = {cascade.k}")
    for s in cascade.steps:
        print(f"    update={s.update}  filter {s.filter}")
    print(f"    evaluates back to the input: {cascade.evaluate() == matrix}\n")

# A pure channel swap also factors: three "swap lifting" steps.
swap = PolyphaseMatrix(
    LaurentPoly({}), LaurentPoly({0: 1}), LaurentPoly({0: -1}), LaurentPoly({})
)
cascade = factor_lifting(swap)
print(f"antidiagonal swap matrix: {cascade.n_steps} steps, "
      f"round trip {cascade.evaluate() == swap}\n")

# Every unimodular matrix factors.  When the reduction bottoms out in
# diag(c z^-d, z^d/c) with d != 0, that residual is diag(1/K, K) times the
# delay diag(z^-d, z^d): K = 1/c, and the delay becomes the cascade's base.
# The 5/3 analysis matrix is such a bank, and its two reductions give two
# different factorizations of it: lifting factorizations are not unique.
matrix = five_three().evaluate()
print("Factoring the 5/3 analysis matrix (two steps and K = 1 as built):\n")
for reduction in (HIGH_END, LOW_END):
    cascade = factor_lifting(matrix, FactorStrategy(reduction=reduction))
    print(f"reduction {reduction}: {cascade.n_steps} steps, K = {cascade.k}, "
          f"base diag({cascade.base.h00}, {cascade.base.h11})")
    for s in cascade.steps:
        print(f"    update={s.update}  filter {s.filter}")
    print(f"    evaluates back to the input: {cascade.evaluate() == matrix}\n")
