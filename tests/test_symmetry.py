"""Filter symmetry classes and group-lifting structure."""

from fractions import Fraction as F

import pytest

from liftbank import (
    ANTISYMMETRIC,
    FLOAT,
    HS,
    HS_GROUP,
    NEITHER,
    SYMMETRIC,
    WS,
    WS_GROUP,
    FilterPair,
    LaurentPoly,
    LiftingCascade,
    classify_filter,
    classify_hs_group,
    classify_linear_phase,
    classify_ws_group,
)
from liftbank.banks import (
    five_three,
    haar,
    identity_eight_step,
    identity_six_step,
    wa_lifted_haar,
)

from conftest import lp, step


def test_classify_filter_basic():
    c = classify_filter(lp({0: 1, 1: 1}))
    assert c.kind == SYMMETRIC and c.center == F(1, 2)

    c = classify_filter(lp({-1: 1, 1: -1}))
    assert c.kind == ANTISYMMETRIC and c.center == 0

    c = classify_filter(lp({0: 1, 1: 2}))
    assert c.kind == "none" and c.center is None


def test_single_tap_is_symmetric():
    c = classify_filter(lp({5: F(-3, 4)}))
    assert c.kind == SYMMETRIC and c.center == 5


def test_zero_filter_rejected():
    with pytest.raises(ValueError):
        classify_filter(lp({}))


def test_float_classification_uses_tolerance():
    p = LaurentPoly({0: 0.5, 2: 0.5 + 1e-13}, FLOAT)
    c = classify_filter(p)
    assert c.kind == SYMMETRIC and c.center == 1.0
    assert classify_filter(p, tol=1e-15).kind == "none"


def test_five_three_filters_are_ws():
    pair = five_three().to_filters()
    lo = classify_filter(pair.lowpass)
    hi = classify_filter(pair.highpass)
    assert lo.kind == SYMMETRIC and lo.center == 0
    assert hi.kind == SYMMETRIC and hi.center == -1
    assert classify_linear_phase(pair) == WS


def test_five_three_is_ws_group():
    g = classify_ws_group(five_three())
    assert g.kind == WS_GROUP and g.detail == ()


def test_haar_is_not_ws_group():
    g = classify_ws_group(haar())
    assert g.kind == NEITHER
    assert any("needs symmetric about" in line for line in g.detail)


def test_identity_liftings_classify_neither():
    for c in (identity_eight_step(), identity_six_step()):
        assert classify_ws_group(c).kind == NEITHER
        assert classify_hs_group(c).kind == NEITHER


def test_wa_lifted_haar_is_hs_group():
    g = classify_hs_group(wa_lifted_haar())
    assert g.kind == HS_GROUP and g.detail == ()


def test_hs_group_requires_base():
    g = classify_hs_group(five_three())
    assert g.kind == NEITHER
    assert g.detail == ("cascade has no base matrix",)


def test_ws_group_rejects_base():
    g = classify_ws_group(wa_lifted_haar())
    assert g.kind == NEITHER
    assert "carries a base matrix" in g.detail[0]


def test_ws_group_center_depends_on_update():
    # update 0 wants symmetry about +1/2, update 1 about -1/2
    c0 = LiftingCascade([step(0, {0: F(1, 4), 1: F(1, 4)})])
    assert classify_ws_group(c0).kind == WS_GROUP
    c1 = LiftingCascade([step(1, {0: F(1, 4), 1: F(1, 4)})])
    assert classify_ws_group(c1).kind == NEITHER
    c2 = LiftingCascade([step(1, {-1: F(1, 4), 0: F(1, 4)})])
    assert classify_ws_group(c2).kind == WS_GROUP


def test_linear_phase_pairs():
    # trivial lazy bank: both single taps at integer centers
    assert classify_linear_phase(FilterPair(lp({0: 1}), lp({-1: 1}))) == WS

    # haar pair: symmetric + antisymmetric about half-integers
    pair = haar().to_filters()
    assert classify_linear_phase(pair) == HS

    # asymmetric lowpass
    assert classify_linear_phase(FilterPair(lp({0: 1, 1: 2}), lp({-1: 1}))) == NEITHER

    # zero filter
    assert classify_linear_phase(FilterPair(lp({}), lp({0: 1}))) == NEITHER


def test_hs_group_detail_lines():
    # concentric but wrong step symmetry
    c = wa_lifted_haar()
    bad = LiftingCascade(
        [step(0, {0: F(1, 4), 1: F(1, 4)})], base=c.base
    )
    g = classify_hs_group(bad)
    assert g.kind == NEITHER
    assert any("whole-sample antisymmetric" in line for line in g.detail)


def test_ws_group_details_name_each_step_and_its_wanted_center():
    c = LiftingCascade([step(1, {0: F(1, 4), 1: F(1, 4)}), step(0, {-1: 1, 0: 1})])
    assert classify_ws_group(c).detail == (
        "step 0 (update 1): filter is symmetric about 1/2, needs symmetric about -1/2",
        "step 1 (update 0): filter is symmetric about -1/2, needs symmetric about 1/2",
    )
    f = LiftingCascade([step(1, {0: 0.25, 1: 0.25}, FLOAT)], mode=FLOAT)
    assert classify_ws_group(f).detail == (
        "step 0 (update 1): filter is symmetric about 0.5, needs symmetric about -1/2",
    )
