"""Factoring unimodular polyphase matrices into lifting steps.

The exact det = 1 check runs first, so a matrix that cannot factor is
refused before any division.  The algorithm is then a Euclidean reduction
(Daubechies & Sweldens) on the first column alone.  Each step divides the
longer column entry by the other with :meth:`LaurentPoly.divided`, which
kills one extreme tap of the dividend at a time by an integer multiple of
the divisor's numerators, scaling its own by the part of the divisor's
extreme numerator that the killed one lacks; the remainder replaces the
entry and the step lifts that row by minus the quotient.  The roles then
swap, until one entry dies.  The right column follows under all the steps
in one :func:`~liftbank.laurent.lifted_rows` pass, and det = 1 fixes the
terminal in closed form:

* h10 died - h00 is a monomial c*z^-d and h11 = 1/h00; one step clears
  h01, leaving diag(c*z^-d, z^d/c).  The recorded ops with gain c form the
  reduction cascade R, with evaluate(R) @ matrix = diag(z^-d, z^d), so the
  factorization is R's synthesis over the delay diag(z^-d, z^d) as its
  base (none when d = 0): the inverted steps and K = 1/c come from
  :meth:`LiftingCascade.synthesis`.
* h00 died - h01 = -1/h10; clearing h11 leaves the antidiagonal
  [[0, -1/c], [c, 0]], and three more steps (the classical swap lifting)
  leave the identity.

Exact (rational) arithmetic only; floats have no well-defined support.
"""

from __future__ import annotations

from ._record import Record
from .laurent import EXACT, LaurentPoly, ModeError, clip_repr, lifted_rows
from .lifting import LiftingCascade, LiftingStep
from .polyphase import PolyphaseMatrix

HIGH_END = "high-end"
LOW_END = "low-end"
LOWPASS_FIRST = "lowpass-first"
HIGHPASS_FIRST = "highpass-first"


class FactorizationError(ValueError):
    """The matrix admits no lifting factorization of the supported shape."""


class FactorStrategy(Record):
    """Choices steering the Euclidean reduction.

    ``reduction`` picks the support extreme each division kills: "high-end"
    eliminates the highest power of z (the most negative tap index),
    "low-end" the lowest power.  ``first_channel`` breaks ties when both
    column entries have equal support length: "lowpass-first" reduces the
    lowpass-row entry, "highpass-first" the highpass-row entry.
    """

    __slots__ = ("reduction", "first_channel")

    def __init__(self, reduction: str = HIGH_END, first_channel: str = LOWPASS_FIRST):
        if reduction not in (HIGH_END, LOW_END):
            raise ValueError(f"unknown reduction strategy {clip_repr(reduction)}")
        if first_channel not in (LOWPASS_FIRST, HIGHPASS_FIRST):
            raise ValueError(f"unknown channel preference {clip_repr(first_channel)}")
        Record.__init__(self, reduction, first_channel)


DEFAULT_STRATEGY = FactorStrategy()


def factor_lifting(
    matrix: PolyphaseMatrix, strategy: FactorStrategy = DEFAULT_STRATEGY
) -> LiftingCascade:
    """Factor an exact unimodular polyphase matrix into a lifting cascade.

    The result is an irreversible cascade whose evaluation reproduces
    ``matrix`` exactly; its base is the residual delay diag(z^-d, z^d), or
    None when the reduction ends in a scalar diagonal.  The identity factors
    into zero steps.  Raises :class:`FactorizationError` for non-unimodular
    input.
    """
    if matrix.mode != EXACT:
        raise ModeError("factorization requires exact arithmetic")
    if not matrix.is_unimodular():
        raise FactorizationError(f"matrix is not unimodular: det {matrix.describe_determinant()}")

    h00, h10 = matrix.h00, matrix.h10
    low = strategy.reduction == HIGH_END
    # the applied left factors (update, filter), first-applied-first
    ops = []
    while h00 and h10:
        # divide the longer column entry; on equal spans, the strategy's channel
        span0, span1 = h00.span(), h10.span()
        if span0 < span1 or span0 == span1 and strategy.first_channel == HIGHPASS_FIRST:
            quotient, h10 = h10.divided(h00, low)
            ops.append((1, -quotient))
        else:
            quotient, h00 = h00.divided(h10, low)
            ops.append((0, -quotient))

    zero = LaurentPoly()
    _, h01, _, h11 = lifted_rows((zero, matrix.h01, zero, matrix.h11), ops)
    if h00:  # h10 died, and det = h00 * h11 = 1: h00 = c z^-d and h11 = 1/h00
        cleanup = [(0, -(h01 * h00))]
        (tap, coeff), = h00.items()
    else:
        # h00 died, and h01 = -1/h10.  Clearing h11 leaves the antidiagonal
        # [[0, w], [c, 0]] with w*c = -1, and three steps lift the swap away
        # to the identity; the first two leave h01 = w untouched.
        cleanup = [(1, h11 * h10), (0, -h01), (1, -h10), (0, -h01)]
        tap, coeff = 0, 1
    steps = [LiftingStep(u, g) for u, g in ops + cleanup if g]
    # the gain c leaves the delay diag(z^-d, z^d)
    base = PolyphaseMatrix(LaurentPoly({tap: 1}), zero, zero, LaurentPoly({-tap: 1})) if tap else None
    return LiftingCascade(steps, k=coeff).synthesis().replace(base=base)
