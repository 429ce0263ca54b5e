"""Signal-domain transforms: reversible bit-exactness, float accuracy,
and agreement with direct filtering."""

import functools
import hashlib
import operator
import random
import re
import tracemalloc
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftbank import (
    EXACT,
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
import liftbank.laurent as laurent
from liftbank.laurent import as_ratio
import liftbank.transform as transform
from liftbank.banks import cdf97, five_three, haar, haar_base, wa_lifted_haar
from liftbank.transform import _BLOCK

from conftest import (
    REFERENCE_ROUNDING,
    direct_filter,
    lp,
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
    assert len(out.lowpass) == len(out.highpass) == 4 and len(out) == 8
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
    # a gain past Python's int->str digit limit transforms; no message echoes it
    huge = LiftingCascade([LiftingStep(0, LaurentPoly({0: 1}))], k=F(10**5000))
    bands = analyze_signal(huge, [1, 2])
    assert bands == SubbandPair((F(3, 10**5000),), (2 * 10**5000,))
    assert synthesize_signal(huge, bands) == [1, 2]


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
    # the first bad sample in signal order, not the first of its channel
    with pytest.raises(ValueError, match=r"integer samples, got Fraction\(1, 2\)$"):
        analyze_signal(five_three(), [0, F(1, 2), F(3, 2), 0])
    # a long sample is echoed cut to MAX_ECHO_CHARS
    with pytest.raises(ValueError, match=f"^samples\\[1\\]: .* got '{'7' * 60}\\.\\.\\.$"):
        analyze_signal(five_three(), [0, "7" * 5000])


def test_synthesis_input_validation():
    with pytest.raises(ValueError, match="empty subbands"):
        synthesize_signal(haar(), SubbandPair((), ()))
    with pytest.raises(ValueError, match="lengths differ"):
        synthesize_signal(haar(), SubbandPair((1, 2), (3,)))
    with pytest.raises(ValueError, match="integer subbands"):
        synthesize_signal(five_three(), SubbandPair((F(1, 2),), (1,)))
    # the lowpass band is read before the highpass band
    with pytest.raises(ValueError, match=r"integer subbands, got Fraction\(1, 4\)$"):
        synthesize_signal(five_three(), SubbandPair((0, F(1, 4)), (F(1, 2), 0)))


def test_float_transforms_reject_non_finite_samples():
    with pytest.raises(ValueError, match="finite"):
        analyze_signal(cdf97(), [1.0, float("nan")])
    with pytest.raises(ValueError, match="finite"):
        synthesize_signal(cdf97(), SubbandPair((float("inf"),), (0.0,)))
    with pytest.raises(ValueError, match="finite, got inf$"):
        analyze_signal(cdf97(), [1.0, float("inf"), float("nan"), 0.0])


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


def _reference(cascade, x0, x1, inverse):
    """Lifting written out sample by sample, one IEEE operation order.

    An update sums ``c * src[i - n]`` over ascending taps starting from 0;
    a reversible cascade rounds that exact sum by its rule's ``Fraction``
    reference.  An inverse step subtracts the update its forward step added.
    """
    L = len(x0)
    rnd = REFERENCE_ROUNDING[cascade.rounding.name] if cascade.reversible else None

    def filtered(filt, src):
        out = []
        for i in range(L):
            acc = 0
            for n, c in filt.items():
                acc += c * src[(i - n) % L]
            out.append(rnd(acc) if rnd else acc)
        return out

    def based(m, a, b):
        return tuple(
            [u + v for u, v in zip(filtered(p, a), filtered(q, b))]
            for p, q in ((m.h00, m.h01), (m.h10, m.h11))
        )

    k, base = cascade.k, cascade.base
    if inverse:
        x0, x1 = [v * k for v in x0], [v / k for v in x1]
        for s in reversed(cascade.steps):
            if s.update == 0:
                x0 = [a - u for a, u in zip(x0, filtered(s.filter, x1))]
            else:
                x1 = [a - u for a, u in zip(x1, filtered(s.filter, x0))]
        return based(base.inverse(), x0, x1) if base is not None else (x0, x1)
    if base is not None:
        x0, x1 = based(base, x0, x1)
    for s in cascade.steps:
        if s.update == 0:
            x0 = [a + u for a, u in zip(x0, filtered(s.filter, x1))]
        else:
            x1 = [a + u for a, u in zip(x1, filtered(s.filter, x0))]
    return [v / k for v in x0], [v * k for v in x1]


@pytest.mark.parametrize("seed", range(20))
def test_float_transform_is_bit_identical_to_the_written_out_order(seed):
    rng = random.Random(seed)
    cascade = cdf97() if seed == 0 else random_float_cascade(rng)
    if seed % 2:
        cascade = cascade.replace(base=haar_base(FLOAT))
    sig = [rng.uniform(-100.0, 100.0) for _ in range(2 * rng.randrange(1, 20))]
    bands = analyze_signal(cascade, sig)
    ref = _reference(cascade, sig[0::2], sig[1::2], inverse=False)
    assert (list(bands.lowpass), list(bands.highpass)) == ref
    y0, y1 = _reference(cascade, sig[0::2], sig[1::2], inverse=True)
    out = synthesize_signal(cascade, SubbandPair(tuple(sig[0::2]), tuple(sig[1::2])))
    assert out[0::2] == y0 and out[1::2] == y1


# -- the fused update kernel -----------------------------------------------------


def _check_against_reference(cascade, sig):
    """Analysis of sig, and synthesis of its two halves as subbands, equal
    the written-out reference: the update added, and the update subtracted."""
    x0, x1 = sig[0::2], sig[1::2]
    bands = analyze_signal(cascade, sig)
    assert (list(bands.lowpass), list(bands.highpass)) == _reference(cascade, x0, x1, False)
    y0, y1 = _reference(cascade, x0, x1, inverse=True)
    out = synthesize_signal(cascade, SubbandPair(tuple(x0), tuple(x1)))
    assert out[0::2] == y0 and out[1::2] == y1


def _taps(rng, count, reach, mode=EXACT, dens=(1, 2, 4, 8, 16)):
    """``count`` distinct taps in [-reach, reach] with random coefficients."""
    taps = {}
    for n in rng.sample(range(-reach, reach + 1), count):
        c = F(rng.choice([-1, 1]) * rng.randrange(1, 40), rng.choice(dens))
        taps[n] = c if mode == EXACT else float(c)
    return LaurentPoly(taps, mode)


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("rule", sorted(ROUNDING_RULES))
def test_reversible_kernel_matches_the_rounded_fraction_reference(rule, L):
    # 1 to 8 taps, reaching well beyond +-L, under every rounding rule
    rng = random.Random(f"{rule}/{L}")
    for k in range(1, 9):
        for m in (0, 1):
            steps = [LiftingStep(m, _taps(rng, k, 3 * L + 3)),
                     LiftingStep(1 - m, _taps(rng, rng.randrange(1, 9), 3 * L + 3))]
            cascade = LiftingCascade(steps, reversible=True, rounding=ROUNDING_RULES[rule])
            _check_against_reference(cascade, [rng.randint(-999, 999) for _ in range(2 * L)])


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_irreversible_kernel_matches_the_reference(mode, L):
    # a step matrix as the base gives each row a zero-tap update; the other
    # steps have 1 to 8 taps with non-dyadic coefficients
    rng = random.Random(f"{mode}/{L}")
    dens = (1, 2, 3, 5, 6, 7)
    for k in range(1, 9):
        m = k % 2
        base = LiftingStep(1 - m, _taps(rng, rng.randrange(1, 4), L, mode, dens)).matrix()
        steps = [LiftingStep(m, _taps(rng, k, 3 * L + 3, mode, dens)),
                 LiftingStep(1 - m, _taps(rng, rng.randrange(1, 9), 3 * L + 3, mode, dens))]
        gain = F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 3, 4]))
        cascade = LiftingCascade(steps, k=gain if mode == EXACT else float(gain),
                                 base=base, mode=mode)
        sig = [F(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(2 * L)]
        _check_against_reference(cascade, sig if mode == EXACT else [float(v) for v in sig])


@pytest.mark.parametrize(
    "L, rule", [(_BLOCK - 1, "ceiling"), (_BLOCK + 1, "floor"), (2 * _BLOCK + 1, "half-even")]
)
def test_kernel_matches_the_reference_across_block_edges(L, rule):
    # taps that read across a block edge and around the channel's end
    rng = random.Random(L)
    far = [0, 1, -2, _BLOCK + 1, -_BLOCK - 2, L + 3]

    def filt(mode=EXACT):
        taps = {n: F(rng.randrange(1, 40) * rng.choice([-1, 1]), 8) for n in rng.sample(far, 4)}
        return LaurentPoly(taps if mode == EXACT else {n: float(c) for n, c in taps.items()}, mode)

    for mode, rounding in ((EXACT, ROUNDING_RULES[rule]), (EXACT, None), (FLOAT, None)):
        cascade = LiftingCascade([LiftingStep(0, filt(mode)), LiftingStep(1, filt(mode))],
                                 mode=mode, reversible=rounding is not None, rounding=rounding)
        sig = [rng.randint(-999, 999) for _ in range(2 * L)]
        _check_against_reference(cascade, sig if mode == EXACT else [float(v) for v in sig])


def _circular(taps, x, lo, hi):
    """Samples lo..hi-1 of x filtered circularly, tap by tap over rotated runs."""
    L, m = len(x), hi - lo
    out = [0] * m
    for n, c in taps:
        s = (lo - n) % L
        run = x[s:s + m] if s + m <= L else x[s:] + x[: s + m - L]
        out = [a + c * v for a, v in zip(out, run)]
    return out


def _circular_lift(cascade, x0, x1, inverse):
    """The float transform composed from ``_circular``, one pass per tap."""
    L, k, base = len(x0), cascade.k, cascade.base

    def update(dst, filt, src, sign):
        signed = [(n, sign * c) for n, c in filt.items()]
        return [a + u for a, u in zip(dst, _circular(signed, src, 0, L))]

    def apply_base(matrix, c0, c1):
        rows = ((matrix.h00, matrix.h01), (matrix.h10, matrix.h11))
        return tuple(update(update([0] * L, a, c0, 1), b, c1, 1) for a, b in rows)

    if inverse:
        x0, x1 = [v * k for v in x0], [v / k for v in x1]
    elif base is not None:
        x0, x1 = apply_base(base, x0, x1)
    sign = -1 if inverse else 1
    for s in reversed(cascade.steps) if inverse else cascade.steps:
        if s.update == 0:
            x0 = update(x0, s.filter, x1, sign)
        else:
            x1 = update(x1, s.filter, x0, sign)
    if not inverse:
        return [v / k for v in x0], [v * k for v in x1]
    return apply_base(base.adjugate(), x0, x1) if base is not None else (x0, x1)


#: Bases with a zero entry, whose row lifts that entry with no tap
_ZERO_ENTRY_BASES = {
    "swap": ({}, {0: -1.0}, {0: 1.0}, {}),
    "delays": ({1: 1.0}, {}, {}, {-1: 1.0}),
}


@pytest.mark.parametrize("seed", [*range(40), *_ZERO_ENTRY_BASES])
def test_float_kernel_keeps_the_signed_zeros_of_the_tap_by_tap_order(seed):
    # +-0.0 and subnormal samples and taps whose products are -0.0; a -0.0
    # tap is dropped
    rng = random.Random(seed)
    values = [0.0, -0.0] * 3 + [0.5, -1.0, 3.0, 5e-324, -(2.0 ** -1060)]
    L = rng.choice([1, 2, 3, 5])

    def filt(k):
        taps = {n: rng.choice([1.0, -1.0, -0.5, 2.0]) for n in rng.sample(range(-7, 8), k)}
        return LaurentPoly({**taps, 8: -0.0}, FLOAT)

    # one-tap steps most often: a sum of one -0.0 product is where the
    # leading 0 shows
    steps = [LiftingStep(i % 2, filt(rng.choice([1, 1, 1, 2, 4, 7])))
             for i in range(rng.randrange(1, 4))]
    if seed in _ZERO_ENTRY_BASES:
        base = PolyphaseMatrix(*(LaurentPoly(t, FLOAT) for t in _ZERO_ENTRY_BASES[seed]))
    else:
        base = LiftingStep(1, filt(rng.randrange(1, 3))).matrix() if seed % 2 else None
    cascade = LiftingCascade(steps, k=rng.choice([1.0, -1.0, 0.5]), base=base, mode=FLOAT)
    x0 = [rng.choice(values) for _ in range(L)]
    x1 = [rng.choice(values) for _ in range(L)]
    bands = analyze_signal(cascade, [v for pair in zip(x0, x1) for v in pair])
    assert repr((list(bands.lowpass), list(bands.highpass))) == repr(
        _circular_lift(cascade, x0, x1, inverse=False))
    out = synthesize_signal(cascade, SubbandPair(tuple(x0), tuple(x1)))
    assert repr((out[0::2], out[1::2])) == repr(_circular_lift(cascade, x0, x1, inverse=True))


# -- the packed reversible update ----------------------------------------------

#: The rules written out: u / 2**d rounds to (u + bias(h) [+ the low bit of
#: u >> d]) >> d with h = 2**(d-1); at d = 0 the update is u itself.
_BIASES = {
    "half-up": (lambda h: h, False),
    "half-down": (lambda h: h - 1, False),
    "floor": (lambda h: 0, False),
    "ceiling": (lambda h: 2 * h - 1, False),
    "half-even": (lambda h: h - 1, True),
}


def _per_sample(cascade, x0, x1, inverse):
    """A reversible cascade one sample at a time: dst[i] +- R(sum of c * src[(i - n) % L])."""
    bias, even = _BIASES[cascade.rounding.name]
    channels = [list(x0), list(x1)]
    for s in reversed(cascade.steps) if inverse else cascade.steps:
        taps, q = s.filter.numerators()
        d, dst, src = q.bit_length() - 1, channels[s.update], channels[1 - s.update]
        for i in range(len(src)):
            u = sum(c * src[(i - n) % len(src)] for n, c in taps)
            r = (u + bias(q // 2) + (even and (u >> d) & 1)) >> d if d else u
            dst[i] += -r if inverse else r
    return channels


def _check_per_sample(cascade, x0, x1):
    """Both directions against the per-sample reference (``_reference`` for
    exact irreversible cascades), the round trip, and the output type: ints,
    or Fractions in lowest terms over a positive denominator."""
    sig = [v for pair in zip(x0, x1) for v in pair]
    ref = _per_sample if cascade.reversible else _reference
    bands = analyze_signal(cascade, sig)
    assert [list(bands.lowpass), list(bands.highpass)] == list(ref(cascade, x0, x1, False))
    out = synthesize_signal(cascade, SubbandPair(tuple(x0), tuple(x1)))
    assert [out[0::2], out[1::2]] == list(ref(cascade, x0, x1, True))
    assert synthesize_signal(cascade, bands) == sig
    values = (*bands.lowpass, *bands.highpass, *out)
    if cascade.reversible:
        assert all(type(v) is int for v in values)
    else:
        assert all(type(v) is F and v.denominator > 0 and gcd(v.numerator, v.denominator) == 1
                   for v in values)


@pytest.fixture
def slot_widths(monkeypatch):
    """The slot widths the transforms pack channels at."""
    widths, pack = set(), transform._pack
    monkeypatch.setattr(transform, "_pack", lambda nums, width, *rest: widths.add(width)
                        or pack(nums, width, *rest))
    return widths


@pytest.mark.parametrize("L", [1, 2, 3, 4097])
@pytest.mark.parametrize("rule", sorted(ROUNDING_RULES))
def test_packed_update_matches_the_per_sample_reference(rule, L, slot_widths):
    # 1 to 8 taps reaching beyond +-L, d = 0 to 4, samples on both sides of
    # what 64-bit slots hold
    rng = random.Random(f"packed/{rule}/{L}")
    for k in range(1, 9) if L < 99 else (1, 4, 8):
        for bits in (12, 44, 56, 70):
            steps = [LiftingStep(m, _taps(rng, j, 3 * L + 3)) for m, j in
                     ((k % 2, k), (1 - k % 2, rng.randrange(1, 9)), (k % 2, rng.randrange(1, 9)))]
            cascade = LiftingCascade(steps, reversible=True, rounding=ROUNDING_RULES[rule])
            x0, x1 = ([rng.randint(-(1 << bits), 1 << bits) for _ in range(L)] for _ in range(2))
            _check_per_sample(cascade, x0, x1)
    # both sides of the array route: words within 64 bits, and wide slots
    assert min(slot_widths) < 64 < max(slot_widths)


@pytest.mark.parametrize("rule", sorted(ROUNDING_RULES))
def test_slots_widen_where_only_the_last_step_outgrows_64_bits(rule, slot_widths):
    # 16-bit samples; each step multiplies their bound by about 2**20, so two
    # steps stay within 64-bit slots and the third needs 128
    rng = random.Random(rule)
    x0, x1 = ([rng.randint(-(1 << 15), 1 << 15) for _ in range(37)] for _ in range(2))
    steps = [LiftingStep(m, lp({-1: F(-(1 << 21) + 1, 2), 0: F(1, 2), 2: F(3, 4)}))
             for m in (0, 1, 0)]
    for n, width in ((2, 64), (3, 128)):
        cascade = LiftingCascade(steps[:n], reversible=True, rounding=ROUNDING_RULES[rule])
        slot_widths.clear()
        bands = analyze_signal(cascade, [v for pair in zip(x0, x1) for v in pair])
        assert slot_widths == {width}
        assert max(map(abs, bands.lowpass if n % 2 else bands.highpass)).bit_length() > 20 * n + 8
        _check_per_sample(cascade, x0, x1)


# -- the packed exact update -----------------------------------------------------


@pytest.mark.parametrize("L", [1, 2, 3, 4097])
def test_packed_exact_update_matches_the_per_sample_reference(L, slot_widths):
    # taps over 3, 5 and 7 (and their products), a base, a negative rational gain
    rng = random.Random(f"packed-exact/{L}")
    dens = (1, 3, 5, 7, 15, 21)
    for k in range(1, 9) if L < 99 else (1, 5):
        m = k % 2
        base = LiftingStep(1 - m, _taps(rng, rng.randrange(1, 4), 3 * L + 3, dens=dens)).matrix()
        steps = [LiftingStep(j % 2 ^ m, _taps(rng, rng.randrange(1, 9), 3 * L + 3, dens=dens))
                 for j in range(1 + k % 3)]
        gain = F(-rng.randrange(1, 30), rng.choice((1, 3, 5, 7)))
        cascade = LiftingCascade(steps, k=gain, base=base if k % 4 else None)
        x0, x1 = ([F(rng.randint(-999, 999), rng.choice((1, 2, 3, 4))) for _ in range(L)]
                  for _ in range(2))
        _check_per_sample(cascade, x0, x1)
    assert 64 in slot_widths


def test_a_16_step_rational_cascade_packs_into_wide_slots(slot_widths):
    # each step grows the numerators by about 2**10, so the bound passes 2**61
    rng = random.Random(16)
    steps = [LiftingStep(i % 2, _taps(rng, 3, 4, dens=(3, 5, 7))) for i in range(16)]
    cascade = LiftingCascade(steps, k=F(-5, 7))
    x0, x1 = ([F(rng.randint(-999, 999), rng.choice((1, 3))) for _ in range(37)] for _ in range(2))
    _check_per_sample(cascade, x0, x1)
    assert min(slot_widths) > 64


@pytest.mark.parametrize("k, steps, bits", [
    (1, [(0, {1: F(1, 8193)})], 50),  # the destination, scaled by 8193
    (8193, [], 8),  # the highpass band, times the gain
    (1, [(0, {1: F(1, 8193)}), (0, {0: 1})], 8),  # the taps, over the destination's 8193
])
def test_exact_slots_widen_where_a_scaled_channel_outgrows_64_bits(k, steps, bits, slot_widths):
    # 51-bit samples times 8193 pass 2**63, which 64-bit slots cannot hold
    rng = random.Random(f"{k}/{len(steps)}")
    x0 = [rng.randint(-(1 << bits), 1 << bits) for _ in range(37)]
    x1 = [rng.randint(-(1 << 50), 1 << 50) for _ in range(37)]
    x0[5], x1[7] = 1 << bits, 1 << 50
    cascade = LiftingCascade([LiftingStep(m, lp(taps)) for m, taps in steps], k=F(k))
    _check_per_sample(cascade, x0, x1)
    assert 128 in slot_widths


@pytest.mark.parametrize("L", [1, 2, 3, 4097])
@pytest.mark.parametrize("rule", [*sorted(ROUNDING_RULES), None])
def test_every_byte_width_round_trips_at_its_edge(rule, L, slot_widths):
    # Samples of k bytes (the bytes above repeat the sign byte): |v| <= 2**(8k),
    # -2**(8k) the most negative, which sign extension must restore.  The bound
    # walk of one reversible step, tap c/2 (c odd), reads c * 2**(8k) + 4; of
    # one exact step, tap 1, then the gain -31/q, max(2q, 31) * 2**(8k).  Just
    # below 2**(W-3) the analysis packs at W bits, from 2**(W-3) on at W + 8
    # (128 after 64).
    rng = random.Random(f"edge/{rule}/{L}")
    for width in range(8, 72, 8):
        k = width // 8 - 1
        lo = -(1 << 8 * k)
        for above in (False, True):
            x0, x1 = ([lo, -lo - 1, *(rng.randint(lo, -lo - 1) for _ in range(L - 2))][:L]
                      for _ in range(2))
            n = rng.randint(-2 * L, 2 * L)
            if rule is None:
                cascade = LiftingCascade([LiftingStep(0, lp({n: 1}))], k=F(-31, 15 + above))
            else:
                c = ((1 << width - 3) - 5 >> 8 * k) + 2 * above
                step = LiftingStep(rng.randrange(2), lp({n: F(rng.choice((-1, 1)) * c, 2)}))
                cascade = LiftingCascade([step], reversible=True, rounding=ROUNDING_RULES[rule])
            slot_widths.clear()
            analyze_signal(cascade, [v for pair in zip(x0, x1) for v in pair])
            assert slot_widths == {width + 8 if above and width < 64 else 128 if above else width}
            _check_per_sample(cascade, x0, x1)


# A digest of seeded reversible and exact analyses, and syntheses of the same
# samples taken as bands, whose channels pack at every byte width from 8 to 64
# bits and at 128: a slot codec or kernel change that alters any band or
# synthesized sample changes it.

TRANSFORM_DIGEST = "6f46c2abe35a6f3b3c92c19d02017a1a1f2c72acc33f206bddcf51341e2a2253"


def test_round_trips_are_bit_identical_to_the_pinned_digest(slot_widths):
    rng = random.Random("transform digest")
    digest, rules = hashlib.sha256(), sorted(ROUNDING_RULES)
    for i in range(300):
        bits, L = i % 14 * 5, rng.randint(1, 60)  # bits 0: samples -1 and 0
        if i % 3:
            cascade = random_reversible_cascade(rng, max_steps=3, max_taps=2,
                                                rounding=ROUNDING_RULES[rules[i % 5]])
            sig = [rng.randint(-(1 << bits), (1 << bits) - 1) for _ in range(2 * L)]
        else:
            cascade = random_alternating_cascade(rng, max_steps=3, max_taps=2,
                                                 k_pool=(F(-3, 5), F(7, 3), F(-1, 2), 1))
            sig = [F(rng.randint(-(1 << bits), 1 << bits), rng.choice((1, 3, 4)))
                   for _ in range(2 * L)]
        bands = analyze_signal(cascade, sig)
        assert synthesize_signal(cascade, bands) == sig
        out = synthesize_signal(cascade, SubbandPair(tuple(sig[0::2]), tuple(sig[1::2])))
        digest.update(repr((bands.lowpass, bands.highpass, out)).encode())
    assert slot_widths == {*range(8, 72, 8), 128}
    assert digest.hexdigest() == TRANSFORM_DIGEST


# -- properties over random cascades -------------------------------------------

# denominators 3, 5 and 7 keep the exact kernel off the dyadic special case
_coeffs = st.builds(
    F, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 4, 5, 7])
)
_gains = st.builds(F, st.integers(-7, 7).filter(bool), st.integers(1, 7))
_filters = st.dictionaries(st.integers(-2, 2), _coeffs, min_size=1, max_size=3).map(lp)
_steps = st.builds(LiftingStep, st.integers(0, 1), _filters)


def _diagonal(a, b):
    return PolyphaseMatrix(a, lp({}), lp({}), b)


# unimodular base factors: a lifting step, diag(c, 1/c), diag(z^-d, z^d)
_base_factors = (
    _steps.map(LiftingStep.matrix)
    | _gains.map(lambda c: _diagonal(lp({0: c}), lp({0: 1 / c})))
    | st.integers(-2, 2).map(lambda d: _diagonal(lp({d: 1}), lp({-d: 1})))
)
_exact_cascades = st.builds(
    LiftingCascade,
    st.lists(_steps, max_size=4),
    k=_gains,
    base=st.none()
    | st.lists(_base_factors, min_size=1, max_size=2).map(
        lambda ms: functools.reduce(operator.matmul, ms)
    ),
)


def _signals(samples):
    """Even-length signals of 2 to 32 samples."""
    return st.integers(1, 16).flatmap(
        lambda n: st.lists(samples, min_size=2 * n, max_size=2 * n)
    )


@settings(max_examples=200, deadline=None)
@given(
    _exact_cascades,
    _signals(st.integers(-999, 999) | st.fractions(-999, 999, max_denominator=60)),
)
def test_exact_transform_matches_direct_filtering_and_inverts(cascade, sig):
    bands = analyze_signal(cascade, sig)
    assert bands == direct_filter(cascade, sig)
    assert all(type(v) is F for v in bands.lowpass + bands.highpass)
    assert synthesize_signal(cascade, bands) == sig


_float_filters = st.dictionaries(
    st.integers(-2, 2), st.floats(-1.5, 1.5).filter(bool), min_size=1, max_size=3
).map(lambda taps: LaurentPoly(taps, FLOAT))
_float_cascades = st.builds(
    lambda steps, k: LiftingCascade(steps, k=k, mode=FLOAT),
    st.lists(st.builds(LiftingStep, st.integers(0, 1), _float_filters), max_size=4),
    st.floats(0.5, 2.0) | st.floats(-2.0, -0.5),
)


@settings(max_examples=200, deadline=None)
@given(
    _float_cascades,
    # no magnitudes where products underflow and round-off stops being relative
    _signals(st.floats(-1e3, 1e3).filter(lambda v: v == 0 or abs(v) >= 1e-6)),
)
def test_float_round_trip_within_amplitude(cascade, sig):
    recovered = synthesize_signal(cascade, analyze_signal(cascade, sig))
    amplitude = max(abs(v) for v in sig)
    assert max(abs(a - b) for a, b in zip(recovered, sig)) <= 1e-9 * amplitude


@pytest.mark.parametrize("bank", [five_three(), cdf97()], ids=["5/3", "9/7"])
def test_synthesis_peak_stays_below_analysis_peak(bank):
    # synthesis drops its coerced 2L-sample list once it holds the two bands,
    # so its traced peak stays under that of the analysis it inverts
    rng = random.Random(15)
    x = [rng.randint(-2048, 2047) if bank.reversible else rng.uniform(-1, 1) for _ in range(1 << 16)]
    synthesize_signal(bank, analyze_signal(bank, x[:64]))  # compile the kernels first

    def traced_peak(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bands, analysis_peak = traced_peak(lambda: analyze_signal(bank, x))
    _, synthesis_peak = traced_peak(lambda: synthesize_signal(bank, bands))
    assert synthesis_peak < analysis_peak


# -- exact samples and bands: one read, one Fraction each -------------------------


class _Half(F):
    """A Fraction subclass: read as the plain Fraction it equals."""


@pytest.mark.parametrize("samples, error, message", [
    ([F(1, 2), True], TypeError, "bool is not a scalar"),
    ([F(1, 2), "x"], ValueError, "invalid scalar literal 'x'"),
    ([F(1, 2), "x", True, 0.5], ValueError, "invalid scalar literal 'x'"),
    ([F(1, 2), 1.5], ValueError,
     "float given in exact mode; write non-integer values as strings ('-1/2', '0.25') "
     "or Fractions"),
])
def test_mixed_exact_samples_are_refused_at_the_first_bad_one(samples, error, message):
    h = len(samples) // 2
    with pytest.raises(error) as analysis:
        analyze_signal(haar(), samples)
    with pytest.raises(error) as synthesis:
        synthesize_signal(haar(), SubbandPair(tuple(samples[:h]), tuple(samples[h:])))
    # each refusal names the sample, in the signal or in its band
    i = next(j for j, v in enumerate(samples) if type(v) is not F)
    assert str(analysis.value) == f"samples[{i}]: {message}"
    band = f"lowpass[{i}]" if i < h else f"highpass[{i - h}]"
    assert str(synthesis.value) == f"{band}: {message}"


@pytest.mark.parametrize("cascade, samples, error, analysis, synthesis", [
    (five_three(reversible=False), [F(1, 2), 2.5, 3, 4], ValueError, "samples[1]", "lowpass[1]"),
    (five_three(reversible=False), [F(1, 2), 3, None, 4], TypeError, "samples[2]", "highpass[0]"),
    (haar(), [0, 1, 2, 3, 4, 5.0], ValueError, "samples[5]", "highpass[2]"),
    (cdf97(), [1.0, 2.0, 3.0, None], TypeError, "samples[3]", "highpass[1]"),
    (cdf97(), [1.0, "x", float("nan"), 0.0], ValueError, "samples[1]", "lowpass[1]"),
    (cdf97(), [1.0, 2.0, 3.0, 4.0, 5.0, float("inf")], ValueError, "samples[5]", "highpass[2]"),
    (five_three(), [0, 1, 2, None], ValueError, "samples[3]", "highpass[1]"),
])
def test_refusals_name_the_sample(cascade, samples, error, analysis, synthesis):
    # the same refusal text as a lone scalar gets, after the sample's place
    # in the signal, or in its band
    h = len(samples) // 2
    with pytest.raises(error) as got:
        analyze_signal(cascade, samples)
    where, _, text = str(got.value).partition(": ")
    assert where == analysis and text
    with pytest.raises(error) as got:
        synthesize_signal(cascade, SubbandPair(tuple(samples[:h]), tuple(samples[h:])))
    if cascade.reversible:  # which bands, where analysis takes samples
        text = text.replace("integer samples", "integer subbands")
    assert str(got.value) == f"{synthesis}: {text}"
    if not cascade.reversible:
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            as_ratio(samples[int(where[8:-1])], cascade.mode)


@pytest.mark.parametrize("samples", [
    [_Half(1, 2), F(3)], [F(1, 2), 3], [4, -2], ["1/2", "0.25"], [F(1, 3), _Half(5, 7), 2, "3/4"],
])
def test_mixed_exact_samples_read_as_the_plain_fractions_they_equal(samples):
    plain = [F(v) for v in samples]
    bands = analyze_signal(haar(), samples)
    assert repr(bands) == repr(analyze_signal(haar(), plain))
    assert {type(v) for v in bands.lowpass + bands.highpass} == {F}
    h = len(samples) // 2
    y, z = (synthesize_signal(haar(), SubbandPair(tuple(x[:h]), tuple(x[h:]))) for x in (samples, plain))
    assert repr(y) == repr(z)


def test_exact_transform_is_the_same_on_the_public_fraction_api(monkeypatch):
    rng = random.Random(16)
    cascades = [random_alternating_cascade(rng, max_steps=4) for _ in range(6)]
    x = [F(rng.randint(-99, 99), rng.choice((1, 2, 3, 12))) for _ in range(40)]

    def trips():
        out = []
        for c in cascades:
            bands = analyze_signal(c, x)
            out.append((bands, synthesize_signal(c, bands), [*c.steps[0].filter.items()]))
        return out

    fast = trips()
    monkeypatch.setattr(laurent, "_SLOTTED", False)
    slow = trips()
    assert repr(fast) == repr(slow)
    assert all(y == x for _, y, _ in fast)


# -- float overflow is refused where it happens ---------------------------------


def test_a_gain_that_overflows_the_bands_is_named():
    with pytest.raises(ValueError, match=r"^float analysis overflows: a sample is not "
                                         r"finite after the gain K = 1e\+308$"):
        analyze_signal(cdf97().replace(k=1e308), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=r"^float synthesis overflows: .* the gain K = 1e\+308$"):
        synthesize_signal(cdf97().replace(k=1e308), SubbandPair((2.0, 1.0), (1.0, 1.0)))


def test_a_step_that_overflows_a_channel_is_named():
    steps = [LiftingStep(0, lp({0: 1.0}, FLOAT)), LiftingStep(1, lp({0: 1e308}, FLOAT))]
    big = LiftingCascade(steps, mode=FLOAT)
    with pytest.raises(ValueError, match=r"analysis overflows: .* after step 1 \(update 1\)$"):
        analyze_signal(big, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=r"synthesis overflows: .* after step 3 \(update 0\)$"):
        synthesize_signal(cdf97(), SubbandPair((1e308, -1e308), (1e308, 1e308)))


def test_finite_bands_whose_sum_overflows_pass():
    tiny = LiftingCascade([LiftingStep(0, lp({0: 1e-300}, FLOAT))], mode=FLOAT)
    x = [1e308, 0.0, 1e308, 0.0]
    bands = analyze_signal(tiny, x)
    assert bands.lowpass == (1e308, 1e308) and synthesize_signal(tiny, bands) == x
