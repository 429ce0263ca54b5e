"""JPEG 2000 Part 2 gain-normalization compliance for lifting cascades.

Part 2 of the standard transmits user-defined wavelet transforms as lifting
steps and requires the lowpass channel to come out with unit DC gain.  For a
cascade whose steps alternate channels, the requirement pins a single value
in the DC recursion:

* irreversible: B_{N-1} = K when the final step updates the lowpass channel
  (m_init = 0), B_{N-2} = K when it updates the highpass channel;
* reversible: the same value must equal 1 (and K is 1 by construction).

Either way the selected B equals the unnormalized lowpass DC gain E_0(1),
the lowpass entry of the last DC vector, so compliance is exactly "lowpass
DC gain of the full bank is 1".  For N = 1 with m_init = 1 the selected
value is B_{-1}, the initial lowpass DC gain: 1 without a base, which
forces K = 1.  :func:`renormalize` sets K to that value.

Cascades whose steps do not alternate are outside the recursion's premises
and get the verdict "not-applicable".
"""

from __future__ import annotations

from typing import Optional

from ._record import Record
from .laurent import EXACT, LaurentPoly, Scalar, _echo, as_scalar
from .lifting import DCTrace, LiftingCascade
from .polyphase import FilterPair
from . import symmetry

COMPLIANT = "compliant"
NON_COMPLIANT = "non-compliant"
NOT_APPLICABLE = "not-applicable"

#: |B - K| tolerance admitting float-mode cascades as compliant.
FLOAT_COMPLIANCE_TOL = 1e-9


class ComplianceReport(Record):
    verdict: str
    required_value: Optional[Scalar]
    actual_b: Optional[Scalar]
    k: Scalar
    m_init: Optional[int]
    selected_index: Optional[int]
    alternation_ok: bool
    dyadic_ok: bool
    tolerance_qualified: bool
    reasons: tuple[str, ...]
    __slots__ = (
        "verdict", "required_value", "actual_b", "k", "m_init", "selected_index",
        "alternation_ok", "dyadic_ok", "tolerance_qualified", "reasons",
    )

    @property
    def compliant(self) -> bool:
        return self.verdict == COMPLIANT


def check_part2(cascade: LiftingCascade) -> ComplianceReport:
    """Verdict on the gain-normalization requirement for one cascade."""
    return _compliance(cascade, cascade.dc_trace())


def _compliance(cascade: LiftingCascade, trace: DCTrace) -> ComplianceReport:
    steps = cascade.steps
    m_init = cascade.m_init() if steps else None
    alternation_ok = cascade.is_alternating()
    # float filters have no dyadicity; an empty cascade is vacuously dyadic
    dyadic_ok = not steps or (
        cascade.mode == EXACT and all(s.filter.is_dyadic() for s in steps)
    )
    required = actual = idx = None
    qualified = False
    if not steps:
        verdict, reasons = NOT_APPLICABLE, ["cascade has no lifting steps"]
    elif not alternation_ok:
        seq = [s.update for s in steps]
        verdict = NOT_APPLICABLE
        reasons = [f"update characteristics do not alternate: {seq}"]
    else:
        # the rule pins B_{N-1} (m_init = 0) or B_{N-2} (m_init = 1); both
        # are the lowpass entry of the last DC vector, E_0(1)
        idx = len(steps) - 1 - m_init
        actual = trace.vectors[-1][0]
        required = as_scalar(1, cascade.mode) if cascade.reversible else cascade.k
        reasons = []
        qualified = cascade.mode != EXACT
        if qualified:
            ok = abs(actual - required) <= FLOAT_COMPLIANCE_TOL
            reasons.append(
                f"float arithmetic: verdict within |B - K| <= {FLOAT_COMPLIANCE_TOL:g}"
            )
        else:
            ok = actual == required
        if not ok:
            kind = "reversible" if cascade.reversible else "irreversible"
            reasons.insert(
                0,
                f"B_{idx} = {_echo(actual)} != {_echo(required)}"
                f" ({kind} requirement)",
            )
        verdict = COMPLIANT if ok else NON_COMPLIANT

    return ComplianceReport(
        verdict=verdict,
        required_value=required,
        actual_b=actual,
        k=cascade.k,
        m_init=m_init,
        selected_index=idx,
        alternation_ok=alternation_ok,
        dyadic_ok=dyadic_ok,
        tolerance_qualified=qualified,
        reasons=tuple(reasons),
    )


class RenormalizationResult(Record):
    cascade: LiftingCascade
    changed: bool
    note: str | None
    __slots__ = ("cascade", "changed", "note")


def renormalize(cascade: LiftingCascade) -> RenormalizationResult:
    """Set K to the unnormalized lowpass DC gain E_0(1) so compliance holds.

    Reversible cascades come back unchanged with a note (their gain is
    pinned to 1); a vanishing E_0(1) is an error since no gain can fix it.
    A base is kept, and E_0(1) starts from its DC vector.
    """
    if cascade.n_steps == 0:
        raise ValueError("renormalize needs at least one lifting step")
    if not cascade.is_alternating():
        raise ValueError(
            "renormalize applies to alternating cascades only; "
            "the DC recursion does not select a B value otherwise"
        )
    if cascade.reversible:
        return RenormalizationResult(
            cascade, False, "reversible cascade: gain is fixed at 1"
        )
    e0_dc = check_part2(cascade).actual_b
    if e0_dc == 0:
        raise ValueError(
            "unnormalized lowpass DC gain is 0; no gain choice can "
            "normalize this cascade"
        )
    if e0_dc == cascade.k:
        return RenormalizationResult(cascade, False, None)
    return RenormalizationResult(cascade.replace(k=e0_dc), True, None)


class AnalysisReport(Record):
    """Everything worth knowing about one cascade, in one place."""

    filters: FilterPair
    dc_lowpass: Scalar
    nyquist_lowpass: Scalar
    dc_highpass: Scalar
    nyquist_highpass: Scalar
    determinant: LaurentPoly
    b_sequence: tuple[Scalar, ...]
    dc_trace: DCTrace
    m_init: Optional[int]
    k: Scalar
    reversible: bool
    mode: str
    lowpass_symmetry: symmetry.SymmetryClass
    highpass_symmetry: symmetry.SymmetryClass
    linear_phase: str
    group_lifting: str
    compliance: ComplianceReport
    __slots__ = (
        "filters", "dc_lowpass", "nyquist_lowpass", "dc_highpass", "nyquist_highpass",
        "determinant", "b_sequence", "dc_trace", "m_init", "k", "reversible", "mode",
        "lowpass_symmetry", "highpass_symmetry", "linear_phase", "group_lifting", "compliance",
    )


def analyze(cascade: LiftingCascade) -> AnalysisReport:
    """Evaluate, extract filters, run the DC recursion and classify."""
    matrix = cascade.evaluate()
    pair = matrix.to_filters()
    trace = cascade.dc_trace()
    compliance = _compliance(cascade, trace)

    ws = symmetry.classify_ws_group(cascade)
    hs = symmetry.classify_hs_group(cascade)
    lo_sym, hi_sym = (symmetry.SymmetryClass(symmetry.NONE, None) if p.is_zero
                      else symmetry.classify_filter(p) for p in (pair.lowpass, pair.highpass))
    if ws.kind == symmetry.WS_GROUP:
        group = ws.kind
    elif hs.kind == symmetry.HS_GROUP:
        group = hs.kind
    else:
        group = symmetry.NEITHER

    return AnalysisReport(
        filters=pair,
        dc_lowpass=pair.lowpass.evaluate(1),
        nyquist_lowpass=pair.lowpass.evaluate(-1),
        dc_highpass=pair.highpass.evaluate(1),
        nyquist_highpass=pair.highpass.evaluate(-1),
        determinant=matrix.determinant(),
        b_sequence=trace.b,
        dc_trace=trace,
        m_init=compliance.m_init,
        k=cascade.k,
        reversible=cascade.reversible,
        mode=cascade.mode,
        lowpass_symmetry=lo_sym,
        highpass_symmetry=hi_sym,
        linear_phase=symmetry.classify_linear_phase(pair),
        group_lifting=group,
        compliance=compliance,
    )
