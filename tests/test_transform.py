"""Signal-domain transforms: reversible bit-exactness, float accuracy,
and agreement with direct filtering."""

import random
from fractions import Fraction as F

import pytest

from liftbank import (
    FLOAT,
    ROUNDING_RULES,
    LaurentPoly,
    LiftingCascade,
    LiftingStep,
    PolyphaseMatrix,
    SubbandPair,
    analyze_signal,
    synthesize_signal,
)
from liftbank.banks import cdf97, five_three, haar, wa_lifted_haar

from conftest import (
    direct_filter,
    random_alternating_cascade,
    random_float_cascade,
    random_reversible_cascade,
)


def test_haar_reversible_oracle():
    out = analyze_signal(haar(reversible=True), [2, 3])
    assert out.lowpass == (3,)
    assert out.highpass == (1,)
    assert synthesize_signal(haar(reversible=True), out) == [2, 3]


def test_haar_irreversible_oracle():
    out = analyze_signal(haar(), [2, 3])
    assert out.lowpass == (F(5, 2),)
    assert out.highpass == (1,)


def test_five_three_known_signal():
    # difference step sees both neighbours, so a ramp has small highpass
    sig = [10, 12, 14, 16, 18, 20, 22, 24]
    out = analyze_signal(five_three(), sig)
    assert len(out.lowpass) == len(out.highpass) == 4
    assert synthesize_signal(five_three(), out) == sig


@pytest.mark.parametrize("rule", sorted(ROUNDING_RULES))
def test_reversible_round_trip_every_rule(rule):
    rng = random.Random(sum(map(ord, rule)))
    rounding = ROUNDING_RULES[rule]
    for _ in range(25):
        cascade = random_reversible_cascade(rng, rounding=rounding)
        length = rng.choice([2, 4, 8, 64])
        sig = [rng.randint(-(1 << 15), 1 << 15) for _ in range(length)]
        bands = analyze_signal(cascade, sig)
        assert all(isinstance(v, int) for v in bands.lowpass + bands.highpass)
        assert synthesize_signal(cascade, bands) == sig


def test_exact_irreversible_round_trip_is_exact():
    rng = random.Random(23)
    for _ in range(25):
        cascade = random_alternating_cascade(rng, max_steps=5, max_taps=4)
        sig = [F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(16)]
        bands = analyze_signal(cascade, sig)
        assert synthesize_signal(cascade, bands) == sig


def test_float_round_trip_accuracy():
    rng = random.Random(29)
    for _ in range(25):
        cascade = random_float_cascade(rng)
        sig = [rng.uniform(-100.0, 100.0) for _ in range(32)]
        recovered = synthesize_signal(cascade, analyze_signal(cascade, sig))
        assert max(abs(a - b) for a, b in zip(recovered, sig)) <= 1e-9


def test_cdf97_round_trip():
    rng = random.Random(31)
    sig = [rng.uniform(-1.0, 1.0) for _ in range(64)]
    recovered = synthesize_signal(cdf97(), analyze_signal(cdf97(), sig))
    assert max(abs(a - b) for a, b in zip(recovered, sig)) <= 1e-9


@pytest.mark.parametrize(
    "make",
    [haar, lambda: five_three(reversible=False), wa_lifted_haar],
    ids=["haar", "five_three", "wa_lifted_haar"],
)
def test_lifting_agrees_with_direct_filtering(make):
    cascade = make()
    rng = random.Random(37)
    sig = [F(rng.randint(-20, 20)) for _ in range(12)]
    assert analyze_signal(cascade, sig) == direct_filter(cascade, sig)


def test_random_cascades_agree_with_direct_filtering():
    rng = random.Random(41)
    for _ in range(20):
        cascade = random_alternating_cascade(rng, max_steps=4, max_taps=4)
        sig = [F(rng.randint(-20, 20)) for _ in range(16)]
        assert analyze_signal(cascade, sig) == direct_filter(cascade, sig)


def test_odd_length_rejected():
    with pytest.raises(ValueError, match="even"):
        analyze_signal(haar(), [1, 2, 3])
    with pytest.raises(ValueError, match="even"):
        analyze_signal(haar(), [])


def test_reversible_rejects_non_integers():
    with pytest.raises(ValueError, match="integer samples"):
        analyze_signal(five_three(), [F(1, 2), 0])
    with pytest.raises(ValueError, match="integer samples"):
        analyze_signal(five_three(), [True, 0])


def test_synthesis_input_validation():
    with pytest.raises(ValueError, match="empty subbands"):
        synthesize_signal(haar(), SubbandPair((), ()))
    with pytest.raises(ValueError, match="lengths differ"):
        synthesize_signal(haar(), SubbandPair((1, 2), (3,)))
    with pytest.raises(ValueError, match="integer subbands"):
        synthesize_signal(five_three(), SubbandPair((F(1, 2),), (1,)))


def test_only_periodic_boundary():
    with pytest.raises(ValueError, match="boundary"):
        analyze_signal(haar(), [1, 2], boundary="symmetric")
    with pytest.raises(ValueError, match="boundary"):
        synthesize_signal(haar(), SubbandPair((1,), (1,)), boundary="zero")


def test_float_transforms_reject_non_finite_samples():
    with pytest.raises(ValueError, match="finite"):
        analyze_signal(cdf97(), [1.0, float("nan")])
    with pytest.raises(ValueError, match="finite"):
        synthesize_signal(cdf97(), SubbandPair((float("inf"),), (0.0,)))


def test_float_base_admitted_by_the_cascade_is_invertible():
    # det = 1 + 1e-10 is within the cascade's tolerance; synthesis must agree
    base = PolyphaseMatrix(
        LaurentPoly({0: 1.0 + 1e-10}, FLOAT),
        LaurentPoly({}, FLOAT),
        LaurentPoly({0: 0.5}, FLOAT),
        LaurentPoly({0: 1.0}, FLOAT),
    )
    cascade = LiftingCascade(
        [LiftingStep(0, LaurentPoly({0: 0.25, 1: -0.5}, FLOAT))], base=base, mode=FLOAT
    )
    sig = [1.0, -2.0, 3.5, 0.25]
    recovered = synthesize_signal(cascade, analyze_signal(cascade, sig))
    assert max(abs(a - b) for a, b in zip(recovered, sig)) <= 1e-9
