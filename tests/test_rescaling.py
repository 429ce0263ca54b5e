"""The rescaling group action and equivalence detection."""

import random
import re
from fractions import Fraction as F

import pytest

from liftbank import (
    EQUIVALENT,
    EXACT,
    FLOAT,
    IDENTICAL,
    INEQUIVALENT,
    LaurentPoly,
    LiftingCascade,
    LiftingStep,
    PolyphaseMatrix,
    ROUND_FLOOR,
    RescalingWitness,
    find_rescaling,
    gamma,
    rescale_cascade,
)
from liftbank.banks import cdf97, five_three, haar, haar_base, wa_lifted_haar
from liftbank.rescaling import RESCALING_TOL

from conftest import lp, random_alternating_cascade, random_float_cascade, step

KAPPAS = [F(2), F(1, 2), F(3, 2), F(5)]


def test_gamma_oracle():
    m = PolyphaseMatrix(lp({0: 1}), lp({0: 3}), lp({0: 5}), lp({0: 7}))
    g = gamma(m, F(2))
    assert g.h00 == lp({0: 1}) and g.h11 == lp({0: 7})
    assert g.h01 == lp({0: F(3, 4)})    # off-diagonals scale by K^-2 / K^2
    assert g.h10 == lp({0: 20})


def test_gamma_requires_a_nonzero_gain():
    with pytest.raises(ValueError, match="nonzero K"):
        gamma(haar_base(), 0)


@pytest.mark.parametrize(
    "k, h01, h10",
    [(1e-200, 0.0, 0.0), (1e-160, 0.0, 0.0), (1e200, 0.0, 0.0),
     (1e100, 1e-300, 0.0), (1e10, 0.0, 1e300)],
    ids=["square-to-0", "square-subnormal", "square-to-inf", "entry-to-0", "entry-to-inf"],
)
def test_gamma_refuses_a_float_k_that_scales_to_0_or_infinity(k, h01, h10):
    # K^2 or 1/K^2 is 0 or infinite, or it takes a nonzero entry there
    def entry(c):
        return LaurentPoly({0: c} if c else {}, FLOAT)

    m = PolyphaseMatrix(entry(1.0), entry(h01), entry(h10), entry(1.0))
    with pytest.raises(ValueError, match=re.escape(f"K = {k!r}")):
        gamma(m, k)


@pytest.mark.parametrize("kappa", [1e-200, 1e-160, 1e200])
def test_rescale_refuses_a_kappa_that_scales_a_filter_to_0_or_infinity(kappa):
    # step 0 of the 9/7 is an update-1 step: its factor is 1/kappa^2
    text = f"kappa = {kappa!r} scales the filter of step 0 "
    with pytest.raises(ValueError, match=f"^{re.escape(text)}"):
        rescale_cascade(cdf97(), kappa)


#: One-step float cascades whose gain, or whose base times diag(kappa, 1/kappa),
#: leaves the doubles at kappa = 1e10 (the base rows scale by 1e10 and 1e-10).
_FLOAT_STEP = [LiftingStep(0, LaurentPoly({0: 0.5}, FLOAT))]
_OVERFLOWING = {
    "base": LiftingCascade(_FLOAT_STEP, base=PolyphaseMatrix.diagonal(1e300, 1e-300, FLOAT),
                           mode=FLOAT),
    "gain": LiftingCascade(_FLOAT_STEP, k=1e300, mode=FLOAT),
}


@pytest.mark.parametrize("part", sorted(_OVERFLOWING))
def test_rescale_refuses_a_kappa_that_scales_the_base_or_gain_to_infinity(part):
    text = "kappa = 10000000000.0 scales the gain or the base to 0 or infinity"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}"):
        rescale_cascade(_OVERFLOWING[part], 1e10)
    # a kappa that keeps every entry finite rescales as before
    rescaled = rescale_cascade(_OVERFLOWING[part], 1e-10)
    assert rescaled.k == _OVERFLOWING[part].k * 1e-10


def test_find_rescaling_answers_inequivalent_where_kappa_cannot_rescale():
    # kappa = K_b / K_a = 8.1e199 scales the 9/7's first filter to 0
    a = cdf97()
    assert find_rescaling(a, a.replace(k=1e200)) == RescalingWitness(INEQUIVALENT, None)
    # and a base scaled out of the doubles
    a = _OVERFLOWING["base"]
    assert find_rescaling(a, a.replace(k=1e10)) == RescalingWitness(INEQUIVALENT, None)


def test_gamma_is_an_automorphism():
    a = haar_base()
    b = PolyphaseMatrix(lp({0: 1}), lp({1: F(1, 2)}), lp({}), lp({0: 1}))
    k = F(3, 2)
    assert gamma(a @ b, k) == gamma(a, k) @ gamma(b, k)
    assert gamma(gamma(a, k), 1 / k) == a


def test_rescale_haar_by_two_oracle():
    r = rescale_cascade(haar(), F(2))
    assert r.k == F(2)
    assert r.steps[0].update == 1 and r.steps[0].filter == lp({0: F(-1, 4)})
    assert r.steps[1].update == 0 and r.steps[1].filter == lp({0: 2})
    assert r.base is not None
    assert r.base.h00 == lp({0: 2}) and r.base.h11 == lp({0: F(1, 2)})
    assert r.base.h01.is_zero and r.base.h10.is_zero


def test_rescaling_preserves_evaluation():
    rng = random.Random(11)
    for _ in range(40):
        c = random_alternating_cascade(rng, max_steps=5, max_taps=4)
        for kappa in KAPPAS:
            assert rescale_cascade(c, kappa).evaluate() == c.evaluate()


def test_rescaling_composes():
    c = haar()
    a = rescale_cascade(rescale_cascade(c, F(2)), F(3, 2))
    b = rescale_cascade(c, F(3))
    assert a == b


def test_rescale_by_one_is_identity():
    c = haar()
    assert rescale_cascade(c, F(1)) == c


def test_rescale_rejects_reversible_and_zero():
    with pytest.raises(ValueError):
        rescale_cascade(five_three(), F(2))
    with pytest.raises(ValueError):
        rescale_cascade(haar(), F(0))


def test_find_rescaling_recovers_kappa():
    rng = random.Random(13)
    for _ in range(30):
        c = random_alternating_cascade(rng, max_steps=5, max_taps=4)
        for kappa in KAPPAS:
            w = find_rescaling(c, rescale_cascade(c, kappa))
            assert w.relation == EQUIVALENT
            assert w.kappa == kappa


def test_find_rescaling_inverts_every_accepted_kappa():
    # one group, the nonzero scalars: whatever kappa rescale_cascade accepts,
    # negative ones included, find_rescaling recovers from the pair
    rng = random.Random("every kappa")
    bases = {EXACT: [None, PolyphaseMatrix.identity(), haar_base(), wa_lifted_haar().base],
             FLOAT: [None, PolyphaseMatrix.identity(FLOAT), haar_base(FLOAT)]}
    kappas = {EXACT: [F(1), F(-1), F(2), F(-3, 2), F(1, 7), F(-5, 3), F(-1, 2)],
              FLOAT: [1.0, -1.0, 0.75, -1.3, 2.5, -0.2]}
    for mode in (EXACT, FLOAT):
        cascades = [haar()] if mode == EXACT else [cdf97(), cdf97().replace(k=-cdf97().k)]
        for _ in range(30):
            c = (random_alternating_cascade(rng, max_steps=6, max_taps=4) if mode == EXACT
                 else random_float_cascade(rng))
            cascades.append(c.replace(base=rng.choice(bases[mode])))
        for a in cascades:
            for kappa in kappas[mode]:
                w = find_rescaling(a, rescale_cascade(a, kappa))
                assert w.relation == (IDENTICAL if kappa == 1 else EQUIVALENT), (a, kappa)
                if mode == EXACT:
                    assert w.kappa == kappa
                else:
                    assert abs(w.kappa - kappa) <= RESCALING_TOL


def test_find_rescaling_identical():
    w = find_rescaling(haar(), haar())
    assert w.relation == IDENTICAL and w.kappa == 1


def test_haar_pair_compares_at_kappa_two():
    w = find_rescaling(haar(), rescale_cascade(haar(), F(2)))
    assert w.relation == EQUIVALENT and w.kappa == 2


def test_inequivalent_step_counts():
    a = LiftingCascade([step(0, {0: 1})])
    b = LiftingCascade([step(0, {0: 1}), step(1, {0: 1})])
    assert find_rescaling(a, b).relation == INEQUIVALENT


def test_inequivalent_update_sequences():
    a = LiftingCascade([step(0, {0: 1})])
    b = LiftingCascade([step(1, {0: 1})])
    assert find_rescaling(a, b).relation == INEQUIVALENT


def test_inequivalent_tap_sets():
    a = LiftingCascade([step(0, {0: 1})])
    b = LiftingCascade([step(0, {1: 1})])
    assert find_rescaling(a, b).relation == INEQUIVALENT


def test_irrational_ratio_is_inequivalent():
    # kappa^2 = 2 has no rational square root, so no exact witness exists
    a = LiftingCascade([step(0, {0: 1})])
    b = LiftingCascade([step(0, {0: 2})])
    assert find_rescaling(a, b).relation == INEQUIVALENT


def test_consistent_first_step_but_mismatched_rest():
    a = LiftingCascade([step(0, {0: 1}), step(1, {0: 1})])
    b = LiftingCascade([step(0, {0: 4}), step(1, {0: 1})])  # kappa^2=4 but step 1 unscaled
    assert find_rescaling(a, b).relation == INEQUIVALENT


def test_gain_only_difference():
    # equal steps, different K: kappa = k_b / k_a must verify end to end
    a = LiftingCascade([step(0, {0: 1})], k=F(1))
    b = a.replace(k=F(2))
    assert find_rescaling(a, b).relation == INEQUIVALENT  # steps would need scaling too


def test_reversible_pairs():
    assert find_rescaling(five_three(), five_three()).relation == IDENTICAL
    w = find_rescaling(five_three(), five_three(rounding=ROUND_FLOOR))
    assert w.relation == INEQUIVALENT
    # reversible never participates in a nontrivial rescaling
    assert find_rescaling(five_three(), haar()).relation == INEQUIVALENT


def test_opposite_gains_are_inequivalent():
    # only kappa = -1 maps K to -K, and its rescaling of a carries the base -I, which b lacks
    a = haar().replace(k=F(2))
    b = haar().replace(k=F(-2))
    assert a.evaluate() != b.evaluate()
    assert find_rescaling(a, b).relation == INEQUIVALENT
    assert find_rescaling(b, a).kappa is None


def test_mode_mismatch_inequivalent():
    a = haar()
    float_steps = [
        step(s.update, {n: float(c) for n, c in s.filter.items()}, FLOAT)
        for s in a.steps
    ]
    b = LiftingCascade(float_steps, k=1.0, mode=FLOAT)
    assert find_rescaling(a, b).relation == INEQUIVALENT


def test_eight_vs_six_step_identities_inequivalent():
    from liftbank.banks import identity_eight_step, identity_six_step

    assert (
        find_rescaling(identity_eight_step(), identity_six_step()).relation
        == INEQUIVALENT
    )
