import os
import random
from fractions import Fraction as F

import pytest

from liftbank import (
    COMPLIANT,
    EXACT,
    FLOAT,
    NON_COMPLIANT,
    NOT_APPLICABLE,
    LaurentPoly,
    LiftingCascade,
    LiftingStep,
    PolyphaseMatrix,
    analyze,
    check_part2,
    classify_filter,
    classify_linear_phase,
    load_spec,
)
from liftbank import symmetry
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


def _group_cascades(rng, mode, count=40):
    # cascades over every base case (none, the identity, the Haar base) with
    # 0-5 steps, drawn at random or WS (symmetric about +-1/2) or WA
    # (antisymmetric about 0) with at most one step broken, so that either
    # group test can fail at its base, at any step or nowhere
    def taps(t):
        return LaurentPoly({n: c if mode == EXACT else float(c) for n, c in t.items()}, mode)

    out = []
    for i in range(count):
        base = (None, PolyphaseMatrix.identity(mode), haar_base(mode))[i % 3]
        kind, steps = i // 3 % 3, []
        n = rng.randrange(6)
        broken = rng.randrange(n + 1)
        for j in range(n):
            u, a = rng.randrange(2), random_filter(rng).coeff(0) or F(1, 4)
            if kind == 0 or j == broken:
                steps.append(LiftingStep(u, random_filter(rng, mode=mode)))
            elif kind == 1:
                steps.append(LiftingStep(u, taps({-u: a, 1 - u: a})))
            else:
                k = rng.randrange(1, 3)
                steps.append(LiftingStep(u, taps({-k: a, k: -a})))
        out.append(LiftingCascade(steps, k=1 if mode == EXACT else 1.0, base=base, mode=mode))
    return out


def _specs():
    here = os.path.join(os.path.dirname(__file__), "..", "specs")
    for name in sorted(os.listdir(here)):
        if name != "haar_matrix.json":  # a matrix, not a cascade
            yield load_spec(os.path.join(here, name))


def test_group_kind_is_the_one_the_public_classifiers_give():
    rng = random.Random("group kinds")
    cascades = [haar(), five_three(), five_three(False), cdf97(), wa_lifted_haar(), *_specs()]
    cascades += _group_cascades(rng, EXACT, 90) + _group_cascades(rng, FLOAT, 45)
    cascades += [LiftingCascade([], k=k, base=base, mode=mode) for mode, k in ((EXACT, 1), (FLOAT, 1.0))
                 for base in (None, PolyphaseMatrix.identity(mode), haar_base(mode))]
    kinds = []
    for c in cascades:
        ws, hs = symmetry.classify_ws_group(c), symmetry.classify_hs_group(c)
        want = ws.kind if ws.kind != symmetry.NEITHER else hs.kind
        kinds.append(want)
        assert analyze(c).group_lifting == want
    assert {*kinds} == {symmetry.WS_GROUP, symmetry.HS_GROUP, symmetry.NEITHER}


def _first_failing_step(detail, n_steps):
    # how many steps a test that stops at its first failure classifies: none
    # when a base line comes first, up to the first failing step, else all
    if not detail:
        return n_steps
    line = detail[0]
    return int(line.split()[1].rstrip(":")) + 1 if line.startswith("step ") else 0


def test_analyze_classifies_each_band_once(monkeypatch):
    seen = []

    def counted(p, *args):
        seen.append(p)
        return classify_filter(p, *args)

    rng = random.Random("bands")
    cascades = [haar(), five_three(), five_three(False), cdf97(), wa_lifted_haar()]
    cascades += [random_alternating_cascade(rng).replace(base=base)
                 for base in (None, haar_base(), PolyphaseMatrix.identity()) for _ in range(10)]
    cascades += _group_cascades(rng, EXACT) + _group_cascades(rng, FLOAT, 15)
    cascades.append(LiftingCascade([*five_three(False).steps, step(0, {0: 1}), *five_three(False).steps]))
    stops = set()
    for c in cascades:
        # WS stops at a base, else at its first failing step; over a base, HS
        # stops at its first failing base test or step
        ws, hs = symmetry.classify_ws_group(c), symmetry.classify_hs_group(c)
        steps = _first_failing_step(ws.detail if c.base is None else hs.detail, c.n_steps)
        stops.add((c.base is None, steps == 0, steps == c.n_steps))
        monkeypatch.setattr(symmetry, "classify_filter", counted)
        seen.clear()
        report = analyze(c)
        monkeypatch.undo()
        bands = (report.filters.lowpass, report.filters.highpass)
        assert [sum(p is band for p in seen) for band in bands] == [1, 1]
        assert [sum(p is s.filter for p in seen) for s in c.steps] == (
            [1] * steps + [0] * (c.n_steps - steps))
        # the classes and the verdict are the ones the public classifiers give
        assert [report.lowpass_symmetry, report.highpass_symmetry] == [*map(classify_filter, bands)]
        assert report.linear_phase == classify_linear_phase(report.filters)
    # a base that fails HS, a WS or HS test failing at a later step, and a pass
    assert {(False, True, False), (True, False, False), (False, False, False)} <= stops
    assert {(True, False, True), (False, False, True)} <= stops


def test_group_details_list_the_base_then_every_failing_step():
    steps = [step(0, {0: 1, 1: 1}), step(1, {0: 1, 1: 2}), step(0, {-1: 1, 1: -1}),
             step(1, {-1: 1, 0: 1}), step(0, {-2: 1, 2: 1})]
    c = LiftingCascade(steps, base=PolyphaseMatrix.identity())
    assert symmetry.classify_ws_group(c).detail == (
        "cascade carries a base matrix",
        "step 1 (update 1): filter is not symmetric, needs symmetric about -1/2",
        "step 2 (update 0): filter is antisymmetric about 0, needs symmetric about 1/2",
        "step 4 (update 0): filter is symmetric about 0, needs symmetric about 1/2",
    )
    assert symmetry.classify_hs_group(c).detail == (
        "base filters are not concentric: supports (0, 0) vs (-1, -1)",
        "base lowpass is not half-sample symmetric",
        "base highpass is not half-sample antisymmetric",
        "step 0: filter is not whole-sample antisymmetric about 0",
        "step 1: filter is not whole-sample antisymmetric about 0",
        "step 3: filter is not whole-sample antisymmetric about 0",
        "step 4: filter is not whole-sample antisymmetric about 0",
    )
