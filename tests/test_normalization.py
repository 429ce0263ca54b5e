import random
from fractions import Fraction as F

import pytest

from liftbank import (
    COMPLIANT,
    FLOAT,
    NON_COMPLIANT,
    NOT_APPLICABLE,
    LaurentPoly,
    LiftingCascade,
    LiftingStep,
    PolyphaseMatrix,
    analyze,
    check_part2,
)
from liftbank.banks import (
    cdf97,
    dc_counterexample,
    five_three,
    haar,
    haar_base,
    wa_lifted_haar,
)

from conftest import lp, random_alternating_cascade, random_filter, step


def test_haar_compliant():
    r = check_part2(haar())
    assert r.verdict == COMPLIANT
    assert r.selected_index == 1           # m_init = 0 selects B_{N-1}
    assert r.actual_b == 1 and r.required_value == 1
    assert not r.tolerance_qualified


def test_five_three_compliant_reversible():
    r = check_part2(five_three())
    assert r.compliant
    assert r.required_value == 1
    assert r.dyadic_ok


def test_counterexample_verdict_and_reason():
    r = check_part2(dc_counterexample())
    assert r.verdict == NON_COMPLIANT
    assert r.actual_b == 3
    assert r.selected_index == 0
    assert "B_0 = 3 != 1 (reversible requirement)" in r.reasons


def test_counterexample_is_dyadic_but_noncompliant():
    # dyadicity alone does not buy compliance
    r = check_part2(dc_counterexample())
    assert r.dyadic_ok and not r.compliant


def test_irreversible_requirement_uses_k():
    c = dc_counterexample(reversible=False).replace(k=F(3))
    r = check_part2(c)
    assert r.compliant and r.required_value == F(3)
    r2 = check_part2(dc_counterexample(reversible=False).replace(k=F(2)))
    assert not r2.compliant
    assert "B_0 = 3 != 2 (irreversible requirement)" in r2.reasons


def test_highpass_final_step_selects_previous_b():
    # m_init = 1: the requirement pins B_{N-2}
    c = LiftingCascade([step(0, {0: 1}), step(1, {0: -1})], k=F(2))
    r = check_part2(c)
    assert r.m_init == 1
    assert r.selected_index == 0
    assert r.actual_b == 2
    assert r.compliant


def test_single_highpass_step_pins_b_minus_one():
    # N = 1, m_init = 1 selects B_{-1} = 1, forcing K = 1
    c = LiftingCascade([step(1, {0: 5})])
    r = check_part2(c)
    assert r.selected_index == -1 and r.compliant
    assert not check_part2(c.replace(k=F(2))).compliant


def test_single_highpass_step_over_a_base_decides_on_lowpass_dc():
    # the step leaves the lowpass entry at the base's DC gain 2, which seeds
    # B_{-1} (the entry step 0 does not modify)
    base = PolyphaseMatrix.diagonal(2, F(1, 2))
    c = LiftingCascade([step(1, {0: -1})], base=base)
    assert analyze(c).dc_lowpass == 2
    r = check_part2(c)
    assert r.verdict == NON_COMPLIANT
    assert r.selected_index == -1 and r.actual_b == 2
    assert r.reasons == ("B_-1 = 2 != 1 (irreversible requirement)",)
    assert check_part2(c.replace(k=2)).compliant


@pytest.mark.parametrize("seed", range(30))
def test_verdict_is_lowpass_dc_gain_over_a_base(seed):
    rng = random.Random(seed)
    c = random_alternating_cascade(rng, max_steps=8)
    # the same filters with every update flipped end on the other channel
    flipped = c.replace(steps=[LiftingStep(1 - s.update, s.filter) for s in c.steps])
    assert {c.m_init(), flipped.m_init()} == {0, 1}
    scale = rng.choice((F(1), F(2), F(-1, 3)))
    bases = (
        PolyphaseMatrix.diagonal(scale, 1 / scale),
        haar_base(),
        PolyphaseMatrix.identity().lifted(rng.randrange(2), random_filter(rng, max_taps=3)),
    )
    for cascade in (c, flipped):
        for base in bases:
            cb = cascade.replace(base=base)
            h = cb.evaluate()
            # the unnormalized lowpass DC gain, from the polynomials
            e0 = cb.k * (h.h00.evaluate(1) + h.h01.evaluate(1))
            for k in (cb.k, e0) if e0 else (cb.k,):
                r = check_part2(cb.replace(k=k))
                assert r.actual_b == e0
                assert r.compliant == (analyze(cb.replace(k=k)).dc_lowpass == 1)


def test_non_alternating_not_applicable():
    c = LiftingCascade([step(0, {0: 1}), step(0, {0: 1})])
    r = check_part2(c)
    assert r.verdict == NOT_APPLICABLE
    assert not r.alternation_ok
    assert "do not alternate" in r.reasons[0]
    assert "[0, 0]" in r.reasons[0]


def test_empty_cascade_not_applicable():
    r = check_part2(LiftingCascade([]))
    assert r.verdict == NOT_APPLICABLE
    assert r.reasons == ("cascade has no lifting steps",)


def test_float_verdict_is_tolerance_qualified():
    r = check_part2(cdf97())
    assert r.compliant and r.tolerance_qualified
    assert any("1e-09" in reason for reason in r.reasons)


def test_float_near_miss_is_compliant():
    c = LiftingCascade(
        [LiftingStep(0, LaurentPoly({0: 1.0 + 5e-10}, FLOAT))], mode=FLOAT, k=2.0
    )
    assert check_part2(c).compliant            # B_0 = 2 + 1e-9-ish vs K = 2
    c2 = LiftingCascade(
        [LiftingStep(0, LaurentPoly({0: 1.001}, FLOAT))], mode=FLOAT, k=2.0
    )
    assert not check_part2(c2).compliant


def test_report_is_deterministic():
    a, b = check_part2(dc_counterexample()), check_part2(dc_counterexample())
    assert a == b


# -- the full analysis report -------------------------------------------------


def test_analyze_five_three():
    rep = analyze(five_three())
    assert rep.filters.lowpass == lp(
        {-2: F(-1, 8), -1: F(1, 4), 0: F(3, 4), 1: F(1, 4), 2: F(-1, 8)}
    )
    assert rep.filters.highpass == lp({-2: F(-1, 2), -1: F(1), 0: F(-1, 2)})
    assert rep.dc_lowpass == 1 and rep.nyquist_lowpass == 0
    assert rep.dc_highpass == 0 and rep.nyquist_highpass == -2
    assert rep.determinant == LaurentPoly.one()
    assert rep.b_sequence == (1, 1, 0, 1)
    assert rep.m_init == 0
    assert rep.linear_phase == "WS"
    assert rep.group_lifting == "WS-group"
    assert rep.compliance.compliant


def test_analyze_wa_lifted_haar_is_hs():
    rep = analyze(wa_lifted_haar())
    assert rep.group_lifting == "HS-group"
    assert rep.linear_phase == "HS"
    assert rep.compliance.compliant


def test_analyze_counterexample_dc():
    rep = analyze(dc_counterexample())
    assert rep.dc_lowpass == 3          # unnormalized lowpass DC leaks through
    assert not rep.compliance.compliant
