"""Rescaling equivalence between lifting factorizations.

Conjugating by the gain matrix D_K = diag(1/K, K) is an inner automorphism
of the polyphase matrix group, :func:`liftbank.polyphase.gamma`:

    gamma_K(A) = D_K A D_K^-1,   [[a, b], [c, d]] -> [[a, b/K^2], [c*K^2, d]]

Two irreversible cascades are *equivalent modulo rescaling* when one turns
into the other by pushing a diagonal factor through the steps: for kappa > 0
the rescaled cascade multiplies update-0 filters by kappa^2, update-1
filters by 1/kappa^2, replaces the base B by diag(kappa, 1/kappa) @ B and
the gain K by K*kappa.  Both cascades evaluate to the same analysis matrix.
"""

from __future__ import annotations

from typing import Optional

from ._record import Record
from .laurent import EXACT, Scalar, as_scalar
from .lifting import LiftingCascade, LiftingStep
from .polyphase import PolyphaseMatrix

IDENTICAL = "identical"
EQUIVALENT = "equivalent-modulo-rescaling"
INEQUIVALENT = "inequivalent"


def rescale_cascade(cascade: LiftingCascade, kappa) -> LiftingCascade:
    """Push diag(kappa, 1/kappa) through the cascade; evaluation is unchanged.

    Only irreversible cascades rescale (a reversible bank has no gain to
    trade against its steps).  kappa = 1 returns the cascade untouched;
    any other kappa materializes the base, so an identity base becomes the
    explicit matrix diag(kappa, 1/kappa).
    """
    if cascade.reversible:
        raise ValueError("reversible cascades do not admit rescaling")
    kk = as_scalar(kappa, cascade.mode)
    if kk == 0:
        raise ValueError("kappa must be nonzero")
    if kk == 1:
        return cascade
    k2 = kk * kk
    steps = tuple(
        LiftingStep(s.update, s.filter.scaled(k2 if s.update == 0 else 1 / k2))
        for s in cascade.steps
    )
    diag = PolyphaseMatrix.diagonal(kk, 1 / kk, cascade.mode)
    base = cascade.base if cascade.base is not None else PolyphaseMatrix.identity(cascade.mode)
    return cascade.replace(steps=steps, k=cascade.k * kk, base=diag @ base)


class RescalingWitness(Record):
    relation: str
    kappa: Optional[Scalar]
    __slots__ = ("relation", "kappa")

    @property
    def equivalent(self) -> bool:
        return self.relation in (IDENTICAL, EQUIVALENT)


def _cascades_match(a: LiftingCascade, b: LiftingCascade, tol: float) -> bool:
    """Structural equality, a missing base as the identity; floats within ``tol``."""
    base_a = a.base if a.base is not None else PolyphaseMatrix.identity(a.mode)
    base_b = b.base if b.base is not None else PolyphaseMatrix.identity(b.mode)
    return (
        a.n_steps == b.n_steps
        and abs(a.k - b.k) <= (0 if a.mode == EXACT else tol)
        and all(
            sa.update == sb.update and sa.filter.approx_eq(sb.filter, tol)
            for sa, sb in zip(a.steps, b.steps)
        )
        and base_a.approx_eq(base_b, tol)
    )


def find_rescaling(
    a: LiftingCascade, b: LiftingCascade, tol: float = 1e-9
) -> RescalingWitness:
    """Decide identical / equivalent-modulo-rescaling / inequivalent.

    The returned kappa satisfies ``rescale_cascade(a, kappa) == b`` (up to
    tolerance in float mode); it is K_b / K_a, the only value that maps a's
    gain to b's.  Reversible cascades compare as identical when
    structurally equal and inequivalent otherwise; rescaling is an
    irreversible-only notion.
    """
    if a.mode != b.mode:
        return RescalingWitness(INEQUIVALENT, None)
    same_flavor = a.reversible == b.reversible and (
        not a.reversible or a.rounding == b.rounding
    )
    if same_flavor and _cascades_match(a, b, tol):
        return RescalingWitness(IDENTICAL, as_scalar(1, a.mode))
    if a.reversible or b.reversible:
        return RescalingWitness(INEQUIVALENT, None)

    # rescaling multiplies K by kappa, so kappa can only be K_b / K_a
    kappa = b.k / a.k
    if not kappa > 0:
        return RescalingWitness(INEQUIVALENT, None)
    if _cascades_match(rescale_cascade(a, kappa), b, tol):
        return RescalingWitness(EQUIVALENT, kappa)
    return RescalingWitness(INEQUIVALENT, None)
