"""Rescaling equivalence between lifting factorizations.

Conjugating by the gain matrix D_K = diag(1/K, K) is an inner automorphism
of the polyphase matrix group, :func:`liftbank.polyphase.gamma`:

    gamma_K(A) = D_K A D_K^-1,   [[a, b], [c, d]] -> [[a, b/K^2], [c*K^2, d]]

Two irreversible cascades are *equivalent modulo rescaling* when one turns
into the other by pushing a diagonal factor through the steps: for any
nonzero kappa, negative included, the rescaled cascade multiplies update-0
filters by kappa^2, update-1 filters by 1/kappa^2, the gain K by kappa and
the base B's rows by kappa and 1/kappa: diag(kappa, 1/kappa) @ B as one row
scaling, ``rows_scaled``.
Both cascades evaluate to the same analysis matrix.
"""

from __future__ import annotations

from math import inf
from typing import Optional

from ._record import Record
from .laurent import EXACT, Scalar, as_scalar
from .lifting import LiftingCascade, LiftingStep
from .polyphase import PolyphaseMatrix

#: Absolute tolerance of the float comparisons in :func:`find_rescaling`.
RESCALING_TOL = 1e-9

IDENTICAL = "identical"
EQUIVALENT = "equivalent-modulo-rescaling"
INEQUIVALENT = "inequivalent"


def rescale_cascade(cascade: LiftingCascade, kappa) -> LiftingCascade:
    """Push diag(kappa, 1/kappa) through the cascade; evaluation is unchanged.

    Only irreversible cascades rescale (a reversible bank has no gain to
    trade against its steps).  kappa = 1 returns the cascade untouched;
    any other kappa materializes the base, so an identity base becomes the
    explicit matrix diag(kappa, 1/kappa).  A float kappa that scales a
    step's filter to 0 or infinity, through its factor or through its
    taps, or the gain or the base to 0 or infinity, raises ValueError.
    """
    if cascade.reversible:
        raise ValueError("reversible cascades do not admit rescaling")
    kk = as_scalar(kappa, cascade.mode)
    if kk == 0:
        raise ValueError("kappa must be nonzero")
    if kk == 1:
        return cascade
    k2 = kk * kk
    factors = (k2, 1 / k2 if k2 else inf)  # by update characteristic
    steps = []
    for i, s in enumerate(cascade.steps):
        try:  # an infinite factor, or a filter scaled to 0 or a non-finite tap
            steps.append(LiftingStep(s.update, s.filter.scaled(factors[s.update])))
        except ValueError as exc:
            raise ValueError(f"kappa = {kk!r} scales the filter of step {i} "
                             f"to 0 or infinity ({exc})") from None
    base = cascade.base if cascade.base is not None else PolyphaseMatrix.identity(cascade.mode)
    try:  # K * kappa, 1/kappa or an entry of the scaled base is 0 or infinite
        return cascade.replace(steps=steps, k=cascade.k * kk, base=base.rows_scaled(kk, 1 / kk))
    except ValueError as exc:
        raise ValueError(f"kappa = {kk!r} scales the gain or the base "
                         f"to 0 or infinity ({exc})") from None


class RescalingWitness(Record):
    relation: str
    kappa: Optional[Scalar]
    __slots__ = ("relation", "kappa")

    @property
    def equivalent(self) -> bool:
        return self.relation in (IDENTICAL, EQUIVALENT)


def _cascades_match(a: LiftingCascade, b: LiftingCascade) -> bool:
    """Structural equality, a missing base as the identity; floats within
    ``RESCALING_TOL``."""
    base_a = a.base if a.base is not None else PolyphaseMatrix.identity(a.mode)
    base_b = b.base if b.base is not None else PolyphaseMatrix.identity(b.mode)
    return (
        a.n_steps == b.n_steps
        and abs(a.k - b.k) <= (0 if a.mode == EXACT else RESCALING_TOL)
        and all(
            sa.update == sb.update and sa.filter.approx_eq(sb.filter, RESCALING_TOL)
            for sa, sb in zip(a.steps, b.steps)
        )
        and base_a.approx_eq(base_b, RESCALING_TOL)
    )


def find_rescaling(a: LiftingCascade, b: LiftingCascade) -> RescalingWitness:
    """Decide identical / equivalent-modulo-rescaling / inequivalent.

    The returned kappa satisfies ``rescale_cascade(a, kappa) == b`` (up to
    tolerance in float mode); it is K_b / K_a, the only value that maps a's
    gain to b's, and b is inequivalent when that rescaling is refused.
    Reversible cascades compare as identical when structurally equal and
    inequivalent otherwise; rescaling is an irreversible-only notion.
    """
    if a.mode != b.mode:
        return RescalingWitness(INEQUIVALENT, None)
    # a rule is None exactly when its cascade is irreversible
    if a.rounding == b.rounding and _cascades_match(a, b):
        return RescalingWitness(IDENTICAL, as_scalar(1, a.mode))
    if a.reversible or b.reversible:
        return RescalingWitness(INEQUIVALENT, None)

    # rescaling multiplies K by kappa, so kappa can only be K_b / K_a (nonzero, either sign)
    kappa = b.k / a.k
    try:
        rescaled = rescale_cascade(a, kappa)
    except ValueError:  # kappa takes a out of the doubles, so b, inside them, differs
        return RescalingWitness(INEQUIVALENT, None)
    if _cascades_match(rescaled, b):
        return RescalingWitness(EQUIVALENT, kappa)
    return RescalingWitness(INEQUIVALENT, None)
