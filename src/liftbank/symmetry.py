"""Linear-phase classification of filters, filter pairs and cascades.

Whole-sample (WS) banks have odd-length filters symmetric about integer
positions; half-sample (HS) banks have even-length filters with a symmetric
lowpass and an antisymmetric highpass centered on half-integers.  The
structural counterparts for cascades:

* a cascade is *WS-group* when it has no base matrix and every lifting
  filter is half-sample symmetric about +1/2 (lowpass updates) or -1/2
  (highpass updates);
* a cascade is *HS-group* when it is lifted from a unimodular base whose
  scalar filters are equal-length, concentric, HS symmetric (lowpass) /
  HS antisymmetric (highpass), using whole-sample antisymmetric (WA)
  lifting filters centered on 0.

Centers always land on the support midpoint, so classification only has to
test the reflection through (lo + hi) / 2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from ._record import Record
from .laurent import DEFAULT_FLOAT_TOL, EXACT, LaurentPoly
from .polyphase import FilterPair

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"
NONE = "none"

WS = "WS"
HS = "HS"
WS_GROUP = "WS-group"
HS_GROUP = "HS-group"
NEITHER = "neither"

Center = Union[Fraction, float, None]


class SymmetryClass(Record):
    kind: str
    center: Center
    __slots__ = ("kind", "center")


class GroupLiftingClass(Record):
    kind: str
    detail: tuple[str, ...]
    __slots__ = ("kind", "detail")


def classify_filter(p: LaurentPoly, tol: float = DEFAULT_FLOAT_TOL) -> SymmetryClass:
    """Symmetry of one filter about its support midpoint.

    The filter is compared with its mirror through the midpoint and with
    the mirror's negation by ``approx_eq``: within ``tol`` for floats, by
    ``==`` for exact filters.  The zero polynomial has no support and is
    rejected.  A single tap is symmetric (it can never be antisymmetric:
    the coefficient would have to be its own negation).
    """
    sup = p.support()
    if sup is None:
        raise ValueError("the zero filter has no symmetry class")
    lo, hi = sup
    mirror = p.reindexed(-1, lo + hi)
    center: Center = Fraction(lo + hi, 2) if p.mode == EXACT else (lo + hi) / 2.0
    if p.approx_eq(mirror, tol):
        return SymmetryClass(SYMMETRIC, center)
    if p.approx_eq(-mirror, tol):
        return SymmetryClass(ANTISYMMETRIC, center)
    return SymmetryClass(NONE, None)


def classify_ws_group(cascade) -> GroupLiftingClass:
    """Does the cascade have whole-sample group-lifting structure?

    Requires an absent base and, per step, an HS-symmetric filter centered
    on +1/2 for lowpass updates and -1/2 for highpass updates.  The empty
    step list passes vacuously (the identity bank is WS).
    """
    detail: list[str] = []
    if cascade.base is not None:
        detail.append("cascade carries a base matrix")
    for i, step in enumerate(cascade.steps):
        cls = classify_filter(step.filter)
        want = 1 - 2 * step.update  # twice the center: +1/2 or -1/2
        if cls.kind != SYMMETRIC or sum(step.filter.support()) != want:
            got = f"{cls.kind} about {cls.center}" if cls.kind != NONE else "not symmetric"
            detail.append(
                f"step {i} (update {step.update}): filter is {got}, "
                f"needs symmetric about {want}/2"
            )
    if detail:
        return GroupLiftingClass(NEITHER, tuple(detail))
    return GroupLiftingClass(WS_GROUP, ())


def classify_hs_group(cascade) -> GroupLiftingClass:
    """Does the cascade have half-sample group-lifting structure?

    The base must be present and extract to equal-length concentric scalar
    filters, HS symmetric (lowpass) and HS antisymmetric (highpass); every
    lifting filter must be whole-sample antisymmetric about 0.
    """
    detail: list[str] = []
    if cascade.base is None:
        return GroupLiftingClass(NEITHER, ("cascade has no base matrix",))

    pair = cascade.base.to_filters()
    # det 1 (within tolerance, for floats) gives each base row a nonzero entry,
    # so neither filter is zero and both have a support
    lo_sup = pair.lowpass.support()
    hi_sup = pair.highpass.support()
    if (lo_sup[1] - lo_sup[0]) != (hi_sup[1] - hi_sup[0]):
        detail.append(f"base filters differ in length: supports {lo_sup} vs {hi_sup}")
    if sum(lo_sup) != sum(hi_sup):
        detail.append(f"base filters are not concentric: supports {lo_sup} vs {hi_sup}")
    lo_cls = classify_filter(pair.lowpass)
    hi_cls = classify_filter(pair.highpass)
    if lo_cls.kind != SYMMETRIC or sum(lo_sup) % 2 == 0:
        detail.append("base lowpass is not half-sample symmetric")
    if hi_cls.kind != ANTISYMMETRIC or sum(hi_sup) % 2 == 0:
        detail.append("base highpass is not half-sample antisymmetric")

    for i, step in enumerate(cascade.steps):
        if classify_filter(step.filter) != SymmetryClass(ANTISYMMETRIC, 0):
            detail.append(
                f"step {i}: filter is not whole-sample antisymmetric about 0"
            )

    if detail:
        return GroupLiftingClass(NEITHER, tuple(detail))
    return GroupLiftingClass(HS_GROUP, ())


def classify_linear_phase(pair: FilterPair) -> str:
    """WS / HS / neither for a scalar filter pair.

    WS: both filters symmetric about whole-sample (integer) centers.
    HS: lowpass symmetric and highpass antisymmetric about half-sample
    centers.  Anything else (including a zero filter): neither.
    """
    return _classify_bands(pair)[2]


def _classify_bands(pair: FilterPair) -> tuple[SymmetryClass, SymmetryClass, str]:
    # each band's class (none for a zero band, which has no support) and the
    # linear-phase verdict read from the two; a class's center % 1 is 0 or 1/2
    lo, hi = (SymmetryClass(NONE, None) if p.is_zero else classify_filter(p)
              for p in (pair.lowpass, pair.highpass))
    ws = lo.kind == hi.kind == SYMMETRIC and lo.center % 1 == hi.center % 1 == 0
    hs = lo.kind == SYMMETRIC and hi.kind == ANTISYMMETRIC and lo.center % 1 and hi.center % 1
    return lo, hi, WS if ws else HS if hs else NEITHER
