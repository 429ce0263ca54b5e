"""Factoring unimodular polyphase matrices into lifting steps.

The algorithm is a Euclidean reduction on the first column.  Each step
divides the longer column entry by the other with
:meth:`LaurentPoly.divided`: monomial multiples of the divisor kill one
extreme tap of the dividend at a time until the remainder is shorter than
the divisor.  The division reads the column alone.  The step then lifts the
dividend's row once by the whole quotient Q, left-multiplying by
[[1, -Q], [0, 1]] (or its lower-triangular twin): the column entry becomes
the remainder and the right entry gains -Q times the other row's, one
polynomial product per step.  The roles then swap.  det = 1 guarantees the
survivor is a monomial once the other entry dies, so a final quotient
clears the remaining off-diagonal entry.

Terminal shapes:

* diag(c*z^-d, z^d/c) - done.  The recorded ops with gain c form the
  reduction cascade R, with evaluate(R) @ matrix = diag(z^-d, z^d), so the
  factorization is R's synthesis over the delay diag(z^-d, z^d) as its
  base (none when d = 0): the inverted steps and K = 1/c come from
  :meth:`LiftingCascade.synthesis`.
* an antidiagonal [[0, -1/c], [c, 0]] - converted exactly into three more
  lifting steps (the classical swap lifting), leaving the identity.

Exact (rational) arithmetic only; floats have no well-defined support.
"""

from __future__ import annotations

from ._record import Record
from .laurent import EXACT, LaurentPoly, ModeError, clip_repr
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

    m = matrix
    # the applied left factors, first-applied-first
    ops: list[LiftingStep] = []
    low = strategy.reduction == HIGH_END

    # Euclidean phase: divide the longer column entry by the other, and lift
    # its row once by the quotient, until one entry dies.
    while not m.h00.is_zero and not m.h10.is_zero:
        # divide the longer column entry; on equal spans, the strategy's channel
        span0, span1 = m.h00.span(), m.h10.span()
        u = int(span0 < span1 or span0 == span1 and strategy.first_channel == HIGHPASS_FIRST)
        a, b, c, d = m.entries()
        quotient, r = a.divided(c, low) if u == 0 else c.divided(a, low)
        g = -quotient
        if u == 0:
            m = PolyphaseMatrix(r, b.plus_product(g, d), c, d)
        else:
            m = PolyphaseMatrix(a, b, r, d.plus_product(g, b, True))
        ops.append(LiftingStep(u, g))

    # Cleanup phase: clear the remaining off-diagonal entry.
    h00, h01, h10, h11 = m.entries()
    if h10.is_zero:
        # det = h00 * h11 = 1, so h00 is a unit (a monomial) and h11 = 1/h00
        cleanup = [(0, -(h01 * h00))]
    else:
        # first column is (0, h10); det forces h01 = -1/h10.  Clearing h11
        # leaves the antidiagonal [[0, w], [c, 0]] with w*c = -1, and three
        # steps lift the swap away; the first two leave h01 = w untouched.
        cleanup = [(1, h11 * h10), (0, -h01), (1, -h10), (0, -h01)]
    for u, g in cleanup:
        if not g.is_zero:
            m = m.lifted(u, g)
            ops.append(LiftingStep(u, g))

    # the cleanup leaves a diagonal, and det = 1 makes it diag(c z^-d, z^d/c);
    # the gain c leaves the delay
    (tap, coeff), = m.h00.items()
    delay, advance, zero = LaurentPoly({tap: 1}), LaurentPoly({-tap: 1}), LaurentPoly()
    base = PolyphaseMatrix(delay, zero, zero, advance) if tap else None
    return LiftingCascade(ops, k=coeff).synthesis().replace(base=base)
