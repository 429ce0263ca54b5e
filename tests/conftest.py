"""Shared helpers: terse constructors and random cascade factories.

The random factories take an explicit ``random.Random`` so every suite that
uses them can freeze its own seed.
"""

import math
from fractions import Fraction as F

from liftbank import EXACT, LaurentPoly, LiftingCascade, LiftingStep

#: Each rounding rule by name, as a map from Fractions to ints.
REFERENCE_ROUNDING = {
    "half-up": lambda x: math.floor(x + F(1, 2)),
    "half-down": lambda x: math.ceil(x - F(1, 2)),
    "floor": math.floor,
    "ceiling": math.ceil,
    "half-even": round,
}


def lp(taps, mode=EXACT):
    return LaurentPoly(taps, mode)


def step(update, taps, mode=EXACT):
    return LiftingStep(update, LaurentPoly(taps, mode))


def random_dyadic(rng, max_num=8, max_shift=3):
    c = F(0)
    while c == 0:
        c = F(rng.randrange(-max_num, max_num + 1), 2 ** rng.randrange(0, max_shift + 1))
    return c


def random_filter(rng, max_taps=5, tap_range=(-3, 3), mode=EXACT):
    taps = {}
    for _ in range(rng.randrange(1, max_taps + 1)):
        taps[rng.randrange(tap_range[0], tap_range[1] + 1)] = random_dyadic(rng)
    if not taps:
        taps = {0: F(1)}
    if mode == EXACT:
        return LaurentPoly(taps)
    return LaurentPoly({n: float(c) for n, c in taps.items()}, mode)


def random_alternating_cascade(rng, max_steps=8, max_taps=5, k_pool=None, mode=EXACT):
    """Alternating identity-base irreversible cascade with dyadic filters."""
    n = rng.randrange(1, max_steps + 1)
    m = rng.randrange(2)
    steps = []
    for _ in range(n):
        steps.append(LiftingStep(m, random_filter(rng, max_taps, mode=mode)))
        m = 1 - m
    if k_pool is None:
        k = random_dyadic(rng, max_num=5, max_shift=2)
    else:
        k = rng.choice(k_pool)
    if mode != EXACT:
        k = float(k)
    return LiftingCascade(steps, k=k, mode=mode)


def random_constant_cascade(rng, max_steps=8):
    """Alternating cascade whose filters are single taps at index 0.

    Constant filters keep the Euclidean reduction scalar all the way down,
    so these always factor back without hitting a delayed diagonal.
    """
    n = rng.randrange(1, max_steps + 1)
    m = rng.randrange(2)
    steps = []
    for _ in range(n):
        steps.append(LiftingStep(m, LaurentPoly({0: random_dyadic(rng)})))
        m = 1 - m
    return LiftingCascade(steps, k=random_dyadic(rng, max_num=5, max_shift=2))


def random_reversible_cascade(rng, max_steps=6, max_taps=3, rounding=None):
    from liftbank import DEFAULT_ROUNDING

    n = rng.randrange(1, max_steps + 1)
    m = rng.randrange(2)
    steps = []
    for _ in range(n):
        steps.append(LiftingStep(m, random_filter(rng, max_taps, tap_range=(-2, 2))))
        m = 1 - m
    return LiftingCascade(
        steps, reversible=True, rounding=rounding or DEFAULT_ROUNDING
    )


def direct_filter(cascade, sig):
    """Classical filter-then-downsample reference implementation.

    y_i(n) = sum_k h_i(k) x(2n - k mod L) with the bank's scalar analysis
    filters; the lifting implementation must reproduce this exactly in
    exact arithmetic and to round-off in float.
    """
    from liftbank import SubbandPair

    pair = cascade.evaluate().to_filters()
    L = len(sig)
    half = L // 2
    bands = []
    for filt in (pair.lowpass, pair.highpass):
        taps = list(filt.items())
        bands.append(
            tuple(
                sum(c * sig[(2 * n - k) % L] for k, c in taps)
                for n in range(half)
            )
        )
    return SubbandPair(bands[0], bands[1])


def random_float_cascade(rng, max_steps=4, max_taps=3):
    """Small-coefficient float cascade; keeps round-off growth tame."""
    n = rng.randrange(1, max_steps + 1)
    m = rng.randrange(2)
    steps = []
    for _ in range(n):
        taps = {}
        for _ in range(rng.randrange(1, max_taps + 1)):
            taps[rng.randrange(-2, 3)] = rng.uniform(-1.5, 1.5) or 0.25
        steps.append(LiftingStep(m, LaurentPoly(taps, "float")))
        m = 1 - m
    return LiftingCascade(steps, k=rng.uniform(0.5, 2.0), mode="float")
