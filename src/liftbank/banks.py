"""Stock filter banks in lifting form.

These are the small classical examples used throughout the tests and demos:
the Haar bank, the 5/3 (LeGall) bank, the two textbook liftings of the
identity bank, a one-step bank violating the reversible DC normalization,
and a bank lifted from the Haar base by whole-sample antisymmetric filters.
"""

from __future__ import annotations

from .laurent import EXACT, FLOAT, LaurentPoly
from .lifting import LiftingCascade, LiftingStep, RoundingRule
from .normalization import renormalize
from .polyphase import PolyphaseMatrix


def _lp(taps, mode=EXACT):
    return LaurentPoly(taps, mode)


def haar(reversible: bool = False, rounding: RoundingRule | None = None) -> LiftingCascade:
    """Haar analysis bank: difference then half-sum update; K = 1.

    Evaluates to [[1/2, 1/2], [-1, 1]].
    """
    steps = [
        LiftingStep(1, _lp({0: -1})),
        LiftingStep(0, _lp({0: "1/2"})),
    ]
    return LiftingCascade(steps, k=1, reversible=reversible, rounding=rounding)


def five_three(reversible: bool = True, rounding: RoundingRule | None = None) -> LiftingCascade:
    """The 5/3 (LeGall) bank used for reversible coding; K = 1.

    Prediction -(1 + z)/2 on the highpass channel, update (1 + z^-1)/4 on
    the lowpass channel.
    """
    steps = [
        LiftingStep(1, _lp({-1: "-1/2", 0: "-1/2"})),
        LiftingStep(0, _lp({0: "1/4", 1: "1/4"})),
    ]
    return LiftingCascade(steps, k=1, reversible=reversible, rounding=rounding)


def dc_counterexample(reversible: bool = True) -> LiftingCascade:
    """One dyadic step, H(z) = [[1, 1 + z^-1], [0, 1]].

    Perfect reconstruction with integer taps, yet its lowpass DC gain is 3:
    dyadic lifting filters alone do not buy the reversible normalization.
    """
    step = LiftingStep(0, _lp({0: 1, 1: 1}))
    return LiftingCascade([step], k=1, reversible=reversible)


def identity_eight_step() -> LiftingCascade:
    """Eight constant lifting steps multiplying out to the identity bank."""
    data = [
        (0, {0: "-1/2"}),
        (1, {0: 1}),
        (0, {0: 1}),
        (1, {0: "-1/2"}),
        (0, {0: 2}),
        (1, {0: "1/2"}),
        (0, {0: -1}),
        (1, {0: -1}),
    ]
    return LiftingCascade([LiftingStep(u, _lp(t)) for u, t in data], k=1)


def identity_six_step() -> LiftingCascade:
    """Six FIR lifting steps multiplying out to the identity bank.

    The filters mix half-sample symmetric and half-sample antisymmetric
    shapes, so the cascade has no whole-sample group-lifting structure even
    though the bank it factors (the identity) is WS.
    """
    data = [
        (1, {2: 5, 3: 5}),              # 5z^-2 (1 + z^-1)
        (0, {-2: -1, -1: 1}),           # -z^2 (1 - z^-1)
        (1, {0: -1, 1: -1}),            # -(1 + z^-1)
        (0, {0: "5/4", 1: "-5/4"}),     # (5/4)(1 - z^-1)
        (1, {0: -4, 1: -4}),            # -4 (1 + z^-1)
        (0, {-2: "-1/4", -1: "1/4"}),   # (-z^2/4)(1 - z^-1)
    ]
    return LiftingCascade([LiftingStep(u, _lp(t)) for u, t in data], k=1)


def haar_base(mode: str = EXACT) -> PolyphaseMatrix:
    """The Haar polyphase matrix [[1/2, 1/2], [-1, 1]] as a base."""
    return PolyphaseMatrix(
        _lp({0: "1/2"}, mode), _lp({0: "1/2"}, mode), _lp({0: -1}, mode), _lp({0: 1}, mode)
    )


def wa_lifted_haar() -> LiftingCascade:
    """Whole-sample antisymmetric steps over the Haar base; K = 1.

    Each lifting filter vanishes at z = 1, so the lowpass DC gain stays at
    the base's value and the bank remains half-sample symmetric.
    """
    steps = [
        LiftingStep(0, _lp({-1: "1/4", 1: "-1/4"})),
        LiftingStep(1, _lp({-1: "-1/8", 1: "1/8"})),
    ]
    return LiftingCascade(steps, k=1, base=haar_base())


def cdf97() -> LiftingCascade:
    """The irrational 9/7 bank in float mode, gain normalized.

    Coefficients are the widely tabulated lifting constants; the gain is
    set by :func:`renormalize` so the lowpass DC gain is 1 to double
    precision.
    """
    alpha = -1.586134342059924
    beta = -0.052980118572961
    gamma = 0.882911075530934
    delta = 0.443506852043971
    steps = [
        LiftingStep(1, _lp({-1: alpha, 0: alpha}, FLOAT)),
        LiftingStep(0, _lp({0: beta, 1: beta}, FLOAT)),
        LiftingStep(1, _lp({-1: gamma, 0: gamma}, FLOAT)),
        LiftingStep(0, _lp({0: delta, 1: delta}, FLOAT)),
    ]
    return renormalize(LiftingCascade(steps, k=1.0, mode=FLOAT)).cascade
