"""Factoring unimodular polyphase matrices into lifting steps.

The algorithm is a Euclidean reduction on the first column: left-multiplying
by [[1, -Q], [0, 1]] subtracts Q times the highpass row from the lowpass row
(and vice versa for the lower-triangular op), and a well-chosen monomial
kills one extreme tap of the longer column entry.  Monomials accumulate into
the quotient Q until the reduced entry's support is strictly shorter than
the divisor's, at which point the roles swap.  det = 1 guarantees the
survivor is a monomial once the other entry dies, so a final quotient clears
the remaining off-diagonal entry.

Terminal shapes:

* diag(1/K, K) with scalar K - done; recorded ops invert and gamma-scale
  into lifting steps S_i with the gain on the left.
* an antidiagonal [[0, -1/c], [c, 0]] - converted exactly into three more
  lifting steps (the classical swap lifting), leaving the identity.
* diag(c*z^d, ...) with d != 0 - rejected: such a bank needs delay
  normalization, which is out of scope here.

Exact (rational) arithmetic only; floats have no well-defined support.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import EXACT, LaurentPoly, ModeError
from .lifting import LiftingCascade, LiftingStep
from .polyphase import PolyphaseMatrix

HIGH_END = "high-end"
LOW_END = "low-end"
LOWPASS_FIRST = "lowpass-first"
HIGHPASS_FIRST = "highpass-first"


class FactorizationError(ValueError):
    """The matrix admits no lifting factorization of the supported shape."""


@dataclass(frozen=True)
class FactorStrategy:
    """Choices steering the Euclidean reduction.

    ``reduction`` picks the support extreme each division kills: "high-end"
    eliminates the highest power of z (the most negative tap index),
    "low-end" the lowest power.  ``first_channel`` breaks ties when both
    column entries have equal support length: "lowpass-first" reduces the
    lowpass-row entry, "highpass-first" the highpass-row entry.
    """

    reduction: str = HIGH_END
    first_channel: str = LOWPASS_FIRST

    def __post_init__(self):
        if self.reduction not in (HIGH_END, LOW_END):
            raise ValueError(f"unknown reduction strategy {self.reduction!r}")
        if self.first_channel not in (LOWPASS_FIRST, HIGHPASS_FIRST):
            raise ValueError(f"unknown channel preference {self.first_channel!r}")


DEFAULT_STRATEGY = FactorStrategy()


def _monomial_quotient(
    p: LaurentPoly, q: LaurentPoly, reduction: str
) -> LaurentPoly:
    """The monomial m with p - m*q lacking p's chosen extreme tap."""
    p_lo, p_hi = p.support()
    q_lo, q_hi = q.support()
    if reduction == HIGH_END:
        tap = p_lo - q_lo
        coeff = p.coeff(p_lo) / q.coeff(q_lo)
    else:
        tap = p_hi - q_hi
        coeff = p.coeff(p_hi) / q.coeff(q_hi)
    return LaurentPoly.monomial(coeff, tap, p.mode)


def _is_monomial(p: LaurentPoly) -> bool:
    return p.span() == 1


def factor_lifting(
    matrix: PolyphaseMatrix, strategy: FactorStrategy = DEFAULT_STRATEGY
) -> LiftingCascade:
    """Factor an exact unimodular polyphase matrix into a lifting cascade.

    The result is an irreversible identity-base cascade whose evaluation
    reproduces ``matrix`` exactly.  The identity factors into zero steps.
    Raises :class:`FactorizationError` for non-unimodular input or when the
    reduction terminates in a delayed diagonal.
    """
    if matrix.mode != EXACT:
        raise ModeError("factorization requires exact arithmetic")
    if not matrix.is_unimodular():
        raise FactorizationError(
            f"matrix is not unimodular: det = {matrix.determinant()}"
        )

    m = matrix
    # ops hold (update, g): the applied left factor had off-diagonal filter g
    ops: list[tuple[int, LaurentPoly]] = []

    # Euclidean phase: shrink the first column until one entry dies.
    column = (m.h00, m.h10)
    while not column[0].is_zero and not column[1].is_zero:
        span0, span1 = column[0].span(), column[1].span()
        if span0 != span1:
            u = 0 if span0 > span1 else 1
        else:
            u = 0 if strategy.first_channel == LOWPASS_FIRST else 1
        quotient = LaurentPoly.zero()
        while not column[u].is_zero and column[u].span() >= column[1 - u].span():
            q = _monomial_quotient(column[u], column[1 - u], strategy.reduction)
            quotient = quotient + q
            m = m.lifted(u, -q)
            column = (m.h00, m.h10)
        if not quotient.is_zero:
            ops.append((u, -quotient))

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
            ops.append((u, g))
    h00, h01, h10, h11 = m.entries()

    if not (h01.is_zero and h10.is_zero):
        raise FactorizationError("reduction failed to diagonalize")

    if not _is_monomial(h00):
        raise FactorizationError(
            f"residual diagonal entry {h00} is not a monomial"
        )
    (tap, coeff), = h00.items()
    if tap != 0:
        raise FactorizationError(
            f"residual diagonal diag({h00}, {h11}) carries a delay: "
            "requires delay normalization (out of scope)"
        )
    k = 1 / coeff  # residual is diag(1/K, K)

    k2 = k * k
    steps = []
    for update, g in reversed(ops):
        filt = (-g).scaled(k2 if update == 0 else 1 / k2)
        if not filt.is_zero:
            steps.append(LiftingStep(update, filt))
    return LiftingCascade(steps, k=k, mode=EXACT)


@dataclass(frozen=True)
class RenormalizationResult:
    cascade: LiftingCascade
    changed: bool
    note: str | None


def renormalize(cascade: LiftingCascade) -> RenormalizationResult:
    """Set K to the unnormalized lowpass DC gain E_0(1) so compliance holds.

    Reversible cascades come back unchanged with a note (their gain is
    pinned to 1); a vanishing E_0(1) is an error since no gain can fix it.
    """
    if cascade.n_steps == 0:
        raise ValueError("renormalize needs at least one lifting step")
    if not cascade.is_alternating():
        raise ValueError(
            "renormalize applies to alternating cascades only; "
            "the DC recursion does not select a B value otherwise"
        )
    if cascade.base is not None:
        raise ValueError("renormalize applies to identity-base cascades only")
    if cascade.reversible:
        return RenormalizationResult(
            cascade, False, "reversible cascade: gain is fixed at 1"
        )
    e0_dc = cascade.dc_trace().vector_at(cascade.n_steps - 1)[0]
    if e0_dc == 0:
        raise ValueError(
            "unnormalized lowpass DC gain is 0; no gain choice can "
            "normalize this cascade"
        )
    if e0_dc == cascade.k:
        return RenormalizationResult(cascade, False, None)
    return RenormalizationResult(cascade.replace(k=e0_dc), True, None)
