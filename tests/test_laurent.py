"""Ring axioms and representation invariants for LaurentPoly.

Exact mode gets hypothesis-driven algebra checks; float mode only needs the
tolerance comparisons since its arithmetic is plain IEEE.
"""

import math
import operator
import pickle
import random
import sys
from array import array
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liftbank.laurent as laurent

from liftbank import (
    EXACT,
    FLOAT,
    LaurentPoly,
    LiftingCascade,
    LiftingStep,
    ModeError,
    PolyphaseMatrix,
    analyze,
    as_scalar,
    format_scalar,
    parse_scalar,
    scalar_is_dyadic,
    serialize_matrix,
    serialize_spec,
)
from liftbank.banks import haar_base
from liftbank.laurent import MAX_ECHO_CHARS, MAX_SCALAR_DIGITS, as_ratio, tap_index
from liftbank.specio import serialize_report

from conftest import lp

coeffs = st.fractions(min_value=-64, max_value=64, max_denominator=64)
tap_maps = st.dictionaries(st.integers(-6, 6), coeffs, max_size=6)
polys = tap_maps.map(LaurentPoly)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polys)
def test_additive_structure(p):
    zero = LaurentPoly.zero()
    one = LaurentPoly.one()
    assert p + zero == p
    assert p - p == zero
    assert p + (-p) == zero
    assert p * one == p
    assert p * zero == zero


@given(polys, st.integers(-5, 5))
def test_shift_is_monomial_multiplication(p, d):
    assert p.reindexed(1, d) == p * LaurentPoly.monomial(1, d)
    assert p.reindexed(1, d).reindexed(1, -d) == p
    assert p.reindexed(1) == p


@given(polys, st.sampled_from([-2, -1, 2, 3]), st.integers(-5, 5),
       st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8))
def test_reindexed_is_a_substitution(p, scale, offset, x):
    # z^-offset * S(z^scale), evaluated at x
    assert p.reindexed(scale, offset).evaluate(x) == x ** -offset * p.evaluate(x ** scale)
    assert p.reindexed(-1, offset).reindexed(-1, offset) == p


@given(polys, st.sampled_from([-2, -1, 2, 3]), st.integers(-5, 5))
def test_decimated_inverts_reindexed(p, scale, offset):
    assert p.reindexed(scale, offset).decimated(scale, offset) == p
    # the even and odd polyphase components add back up to p
    assert p.decimated(2).reindexed(2) + p.decimated(2, -1).reindexed(2, -1) == p
    with pytest.raises(ValueError, match="scale 0"):
        p.decimated(0)


def test_reindexed_refuses_a_zero_scale():
    with pytest.raises(ValueError, match="scale 0"):
        lp({0: 1, 1: 2}).reindexed(0)


@given(polys, coeffs)
def test_scaling(p, c):
    assert p.scaled(c) == LaurentPoly.monomial(c, 0) * p == p * c == c * p


@given(polys, polys, st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8))
def test_evaluation_is_a_homomorphism(a, b, x):
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


def test_zero_coefficients_never_stored():
    p = lp({0: 1, 1: 0, 2: F(0)})
    assert p.taps() == {0: F(1)}
    q = lp({0: 1, 1: -2}) + lp({1: 2})
    assert q.taps() == {0: F(1)}
    assert (lp({3: 5}) - lp({3: 5})).is_zero
    assert not lp({0: 0}) and lp({0: 1})


def test_support_and_span():
    assert lp({}).support() is None
    assert lp({}).span() == 0
    assert lp({-2: 1, 3: 1}).support() == (-2, 3)
    assert lp({-2: 1, 3: 1}).span() == 6
    assert lp({7: F(1, 2)}).span() == 1


def test_coeff_lookup_matches_mode():
    assert lp({1: F(1, 2)}).coeff(0) == F(0)
    assert isinstance(lp({}, FLOAT).coeff(5), float)


def test_evaluate_at_zero():
    # only taps <= 0 (nonnegative powers of z) may be evaluated at 0
    assert lp({-2: 3, 0: 1}).evaluate(0) == 1
    with pytest.raises(ZeroDivisionError):
        lp({1: 1}).evaluate(0)


def test_evaluate_respects_sign_convention():
    # S(z) = z^2 lives at tap -2
    p = lp({-2: 1})
    assert p.evaluate(3) == 9
    assert lp({1: 1}).evaluate(2) == F(1, 2)


def test_tap_indices_beyond_64_bits_are_refused_by_the_constructor():
    assert lp({2**63 - 1: 1}).support() == (2**63 - 1, 2**63 - 1)
    for n in (2**63, -(2**63), 10**400):
        for mode, c in ((EXACT, 1), (FLOAT, 1.0)):
            with pytest.raises(ValueError, match=r"is beyond \+-\(2\*\*63 - 1\)"):
                LaurentPoly({n: c}, mode)
    with pytest.raises(TypeError, match="must be an integer, got True"):
        lp({True: 1})
    # past Python's int->str digit limit, the index is named by its size
    with pytest.raises(ValueError, match=r"^tap index a 16610-bit integer is beyond \+-\(2"):
        tap_index(10**5000)


def test_float_evaluation_overflow_is_a_located_value_error():
    p = LaurentPoly({-(2**62): 1.0}, FLOAT)  # 2.0 ** 2**62 overflows
    with pytest.raises(ValueError, match=r"^float evaluation at 2\.0 overflows$"):
        p.evaluate(2.0)
    assert p.evaluate(1.0) == 1.0 and p.evaluate(-1.0) == 1.0
    assert LaurentPoly({2**62: 1.0}, FLOAT).evaluate(2.0) == 0.0  # underflow is no error


def test_exact_evaluation_refuses_unbounded_powers_away_from_plus_minus_one():
    # 2 ** 10**7 finishes in milliseconds, guarded or not
    far = lp({10**7: 1})
    for point in (2, F(1, 2), -3, F(-2, 3)):
        with pytest.raises(ValueError, match=r"^exact evaluation at .* needs over 65536 bits$"):
            far.evaluate(point)
    assert lp({1000: 1, -1000: 3}).evaluate(2) == F(1, 2**1000) + 3 * 2**1000
    # +-1, the points the library evaluates at, stay unguarded
    huge = lp({2**62: 3, -(2**62) + 1: -1})
    assert huge.evaluate(1) == 2 and huge.evaluate(-1) == 4


def _divided_oracle(p, d, low):
    """Kill p's extreme tap by a monomial multiple of d until p is shorter than d,
    one whole-polynomial update per monomial."""
    q = LaurentPoly.zero()
    while not p.is_zero and p.span() >= d.span():
        (p_lo, p_hi), (d_lo, d_hi) = p.support(), d.support()
        t, e = (p_lo, d_lo) if low else (p_hi, d_hi)
        m = LaurentPoly.monomial(p.coeff(t) / d.coeff(e), t - e)
        q, p = q + m, p - m * d
    return q, p


@settings(max_examples=300)
@given(polys, polys.filter(lambda d: not d.is_zero), st.booleans())
def test_division_matches_the_per_monomial_loop(p, d, low):
    q, r = p.divided(d, low)
    assert (q, r) == _divided_oracle(p, d, low)
    assert r == p - q * d
    assert r.is_zero or r.span() < d.span()


def test_division_cancels_and_refuses():
    # killing tap 0 of 1 + 2z^-1 + 3z^-2 cancels tap 1 too: one monomial suffices
    p, d = lp({0: 1, 1: 2, 2: 3}), lp({0: 1, 1: 2})
    assert p.divided(d) == (lp({0: 1}), lp({2: 3}))
    assert p.divided(d, low=False) == (lp({0: F(1, 4), 1: F(3, 2)}), lp({0: F(3, 4)}))
    assert lp({0: 1}).divided(lp({0: 1, 1: 1})) == (lp({}), lp({0: 1}))
    with pytest.raises(ZeroDivisionError):
        lp({0: 1}).divided(lp({}))
    with pytest.raises(ModeError):
        lp({0: 1.0}, FLOAT).divided(lp({0: 1.0}, FLOAT))


def test_mode_mixing_rejected():
    with pytest.raises(ModeError):
        lp({0: 1}) + lp({0: 1.0}, FLOAT)
    with pytest.raises(ModeError):
        lp({0: 1}) * lp({0: 1.0}, FLOAT)
    with pytest.raises(ModeError):
        lp({0: 0.5}, FLOAT).is_dyadic()


def test_exact_mode_rejects_floats():
    with pytest.raises(ModeError):
        lp({0: 0.5})
    with pytest.raises(ModeError):
        as_scalar(0.5, EXACT)


def test_dyadic_detection():
    assert lp({0: F(3, 8), 1: F(-1, 2)}).is_dyadic()
    assert not lp({0: F(1, 3)}).is_dyadic()
    assert scalar_is_dyadic(F(5, 16))
    assert not scalar_is_dyadic(F(1, 6))
    with pytest.raises(ModeError):
        scalar_is_dyadic(0.5)


@given(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6))
def test_scalar_text_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_parse_scalar_forms():
    assert parse_scalar("-1/2") == F(-1, 2)
    assert parse_scalar("0.25") == F(1, 4)
    assert parse_scalar("7") == F(7)
    assert parse_scalar("0.1", FLOAT) == 0.1
    with pytest.raises(ValueError):
        parse_scalar("1/0")
    with pytest.raises(ValueError):
        parse_scalar("pi")


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_parse_scalar_bounds_the_decimal_size(mode):
    for text in ("1e4000000", "-2.5E-4000000", "1" * 3000 + "." + "1" * 3000):
        with pytest.raises(ValueError, match="digits"):
            parse_scalar(text, mode)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_invalid_literal_error_is_bounded(mode):
    with pytest.raises(ValueError) as info:
        parse_scalar("1e" + "9" * 5000, mode)
    assert str(info.value).startswith("invalid scalar literal '1e999")
    assert len(str(info.value)) <= len("invalid scalar literal ") + MAX_ECHO_CHARS
    with pytest.raises(ValueError, match="^invalid scalar literal 'pi'$"):
        parse_scalar("pi", mode)


@pytest.mark.parametrize("value", [F(1, 2), 3, "1/2", 0.5])
def test_unknown_mode_is_refused_for_every_value(value):
    with pytest.raises(ModeError, match="unknown arithmetic mode"):
        as_scalar(value, "decimal")
    # the mode is echoed bounded: cut, or past the digit limit named by its size
    with pytest.raises(ModeError, match=f"^unknown arithmetic mode '{'x' * 60}\\.\\.\\.$"):
        as_scalar(value, "x" * 5000)
    with pytest.raises(ModeError, match="^unknown arithmetic mode a 16610-bit integer$"):
        as_scalar(value, 10**5000)
    # neither an int nor a Fraction, whose repr passes the limit: named by its type
    with pytest.raises(ModeError, match="^unknown arithmetic mode a value of type list$"):
        as_scalar(value, [10**5000])


def test_largest_accepted_literals_serialize():
    for text in ("1e4299", "1e-4299", "9" * MAX_SCALAR_DIGITS, "7/" + "3" * 4300):
        x = parse_scalar(text)
        assert parse_scalar(format_scalar(x)) == x
    # a value past Python's int->str digit limit is refused by its size
    for x, bits in ((F(10**5000), 16610), (F(1, 3**9100), 14424)):
        with pytest.raises(ValueError, match=f"^a {bits}-bit rational is past Python's int->str"):
            format_scalar(x)


def test_approx_eq():
    a = LaurentPoly({0: 1.0, 1: 0.5}, FLOAT)
    b = LaurentPoly({0: 1.0 + 1e-13, 1: 0.5}, FLOAT)
    assert a.approx_eq(b)
    assert not a.approx_eq(LaurentPoly({0: 1.1}, FLOAT))
    with pytest.raises(TypeError, match="expects a LaurentPoly"):
        a.approx_eq(1.0)


def test_exact_approx_eq_is_equality():
    one, near = lp({0: 1}), lp({0: "1000000000000001/1000000000000000"})
    assert not one.approx_eq(near)
    assert not one.approx_eq(near, tol=1)
    assert one.approx_eq(lp({0: F(2, 2)}), tol=0)
    zero = lp({})
    assert not PolyphaseMatrix(one, zero, zero, one).approx_eq(PolyphaseMatrix(near, zero, zero, one))
    assert not PolyphaseMatrix(near, zero, zero, one).is_identity(tol=1)


def test_structural_equality_includes_mode():
    assert lp({0: 1}) != LaurentPoly({0: 1.0}, FLOAT)
    assert lp({0: 1}) == lp({0: F(1)})
    assert lp({0: 1}).__eq__(1) is NotImplemented and lp({0: 1}) != 1
    with pytest.raises(TypeError):
        lp({0: 1}) + 1


def test_str_forms():
    assert str(lp({})) == "0"
    assert str(lp({0: F(1, 2), 1: F(1, 2)})) == "1/2 + 1/2*z^-1"
    assert str(lp({-1: 1, 0: -1})) == "z - 1"
    assert str(lp({-2: F(-1, 8)})) == "-1/8*z^2"


def test_immutability():
    p = lp({0: 1})
    with pytest.raises(AttributeError):
        p.taps_ = {}


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), float("-inf"), 10**400, F(10**400), "1e400"],
    ids=["nan", "inf", "-inf", "big-int", "big-fraction", "big-string"],
)
def test_float_scalars_must_be_finite(value):
    with pytest.raises(ValueError, match="finite"):
        as_scalar(value, FLOAT)


def test_approx_eq_fails_closed_on_nan():
    big = LaurentPoly({0: 1e200}, FLOAT)
    nan = big * big - big * big  # inf - inf
    one = LaurentPoly({0: 1.0}, FLOAT)
    assert not nan.approx_eq(one)
    assert not one.approx_eq(nan)


# -- the integer-numerator form against the Fraction-dict algorithm ------------
#
# LaurentPoly once stored a dict of Fractions (or floats) and ran the loops
# below on it.  The numerator form must give the same values, the same
# types and, in float mode, the same bits in the same tap order.


def _ref_clean(t):
    return {n: c for n, c in t.items() if c != 0}


def ref_add(a, b):
    t = dict(a)
    for n, c in b.items():
        t[n] = t.get(n, 0) + c
    return _ref_clean(t)


def ref_mul(a, b):
    t = {}
    for n1, c1 in a.items():
        for n2, c2 in b.items():
            t[n1 + n2] = t.get(n1 + n2, 0) + c1 * c2
    return _ref_clean(t)


def ref_neg(a):
    return {n: -c for n, c in a.items()}


def ref_evaluate(a, x, total):
    for n, c in a.items():
        total += c * x ** (-n)
    return total


def ref_str(a):
    out = ""
    for n, c in sorted(a.items()):
        z, mag = ("" if n == 0 else "z" if n == -1 else f"z^{-n}"), format_scalar(abs(c))
        mag = mag if not z else z if abs(c) == 1 else f"{mag}*{z}"
        out += (" - " if c < 0 else " + ") + mag if out else ("-" if c < 0 else "") + mag
    return out or "0"


def assert_canonical(p):
    from math import gcd

    nums, den = p._num, p._den
    assert all(c for c in nums.values())
    if p.mode == EXACT:
        assert type(den) is int and den > 0
        assert all(type(c) is int for c in nums.values())
        assert gcd(den, *nums.values()) == 1
    else:
        assert den == 1 and all(type(c) is float for c in nums.values())
    return p


def assert_agrees(p, ref):
    """``p`` is canonical and reads back exactly as the reference tap map."""
    assert_canonical(p)
    zero = F(0) if p.mode == EXACT else 0.0
    assert repr(list(p.taps().items())) == repr(list(ref.items()))
    assert repr(list(p.items())) == repr(sorted(ref.items()))
    assert all(type(c) is type(zero) for c in p.taps().values())
    for n in range(-8, 9):
        assert repr(p.coeff(n)) == repr(ref.get(n, zero))
    assert p.support() == ((min(ref), max(ref)) if ref else None)
    assert p.span() == (max(ref) - min(ref) + 1 if ref else 0)
    assert str(p) == ref_str(ref)
    assert p == LaurentPoly(ref, p.mode)


mixed_coeffs = st.one_of(
    coeffs,
    st.fractions(max_denominator=10**9),
    st.builds(F, st.integers(-(10**40), 10**40), st.sampled_from([1, 2, 3, 6, 7**12, 2**64])),
)
mixed_maps = st.dictionaries(st.integers(-6, 6), mixed_coeffs, max_size=6)


@st.composite
def cancelling_pairs(draw):
    # b repeats or negates some of a's taps, so sums and differences cancel
    a = draw(mixed_maps)
    b = draw(mixed_maps)
    for n in draw(st.lists(st.sampled_from(sorted(a)), unique=True)) if a else []:
        b[n] = draw(st.sampled_from([a[n], -a[n]]))
    return a, b


scalars = st.one_of(
    mixed_coeffs,
    st.integers(-(10**60), 10**60),
    st.just(F(-(10**50) - 1, 3**40)),
)


@given(cancelling_pairs(), scalars, st.integers(-5, 5))
def test_exact_ops_agree_with_the_fraction_reference(pair, v, d):
    a, b = pair
    p, q = LaurentPoly(a), LaurentPoly(b)
    ra, rb = _ref_clean({n: F(c) for n, c in a.items()}), _ref_clean({n: F(c) for n, c in b.items()})
    assert_agrees(p, ra)
    assert_agrees(p + q, ref_add(ra, rb))
    assert_agrees(p - q, ref_add(ra, ref_neg(rb)))
    assert_agrees(-p, ref_neg(ra))
    assert_agrees(p * q, ref_mul(ra, rb))
    assert_agrees(p.scaled(v), _ref_clean({n: F(v) * c for n, c in ra.items()}))
    for scale in (1, -1, 2):  # a shift, a mirror about d/2, an upsampling
        assert_agrees(p.reindexed(scale, d), {scale * n + d: c for n, c in sorted(ra.items())})
    assert_agrees(p - p, {})
    assert (p == q) == (ra == rb)
    assert p.is_dyadic() == all(c.denominator & (c.denominator - 1) == 0 for c in ra.values())


@given(mixed_maps, st.one_of(st.sampled_from([F(1), F(-1), F(0)]), mixed_coeffs))
def test_exact_evaluate_agrees_with_the_fraction_reference(a, x):
    p = LaurentPoly(a)
    ra = _ref_clean({n: F(c) for n, c in a.items()})
    try:
        want = ref_evaluate(ra, x, F(0))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            p.evaluate(x)
        return
    got = p.evaluate(x)
    assert type(got) is F and got == want


def _float_map(rng):
    return {
        rng.randrange(-4, 5): rng.choice([rng.uniform(-2, 2), rng.uniform(-1e6, 1e6), 0.5, -1.0])
        for _ in range(rng.randrange(0, 6))
    }


def test_float_ops_keep_the_reference_bits():
    import random

    rng = random.Random(20261018)
    for _ in range(400):
        a, b = _float_map(rng), _float_map(rng)
        for n in list(a)[: rng.randrange(0, 3)]:
            b[n] = rng.choice([a[n], -a[n]])  # exact cancellations
        p, q = LaurentPoly(a, FLOAT), LaurentPoly(b, FLOAT)
        ra, rb = _ref_clean(a), _ref_clean(b)
        v, x, d = rng.uniform(-3, 3), rng.uniform(0.5, 2), rng.randrange(-3, 4)
        assert_agrees(p + q, ref_add(ra, rb))
        assert_agrees(p - q, ref_add(ra, ref_neg(rb)))
        assert_agrees(-p, ref_neg(ra))
        assert_agrees(p * q, ref_mul(ra, rb))
        assert_agrees(p.scaled(v), _ref_clean({n: v * c for n, c in ra.items()}))
        for scale in (1, -1, 2):
            assert_agrees(p.reindexed(scale, d), {scale * n + d: c for n, c in sorted(ra.items())})
        assert repr(p.evaluate(x)) == repr(ref_evaluate(ra, x, 0.0))
        assert repr((p * q - q).evaluate(-x)) == repr(
            ref_evaluate(ref_add(ref_mul(ra, rb), ref_neg(rb)), -x, 0.0)
        )


def _outcome(read, value):
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(
    st.text("0123456789+-/ _.e\u0661\u0662\t", max_size=9)
    | st.from_regex(r" ?[-+]{0,2}[0-9\u0661_]{1,3}(/[-+ ]?[0-9_]{0,3})? ?", fullmatch=True)
    | st.integers(-(10**30), 10**30)
    | st.fractions()
    | st.sampled_from([True, 0.5, None, "1/0", "0/5", "2/4"])
)
def test_as_ratio_reads_what_as_scalar_reads(value):
    # the int fast path agrees with Fraction's literal on every value it
    # takes, and leaves every refusal, with its message, to as_scalar
    try:
        p, q = as_ratio(value)
    except (TypeError, ValueError) as exc:
        got = type(exc), str(exc)
    else:
        assert q > 0 and math.gcd(p, q) == 1  # in lowest terms, as from_ratios takes them
        got = F(p, q)
    assert got == _outcome(as_scalar, value)
    assert _outcome(lambda v: as_ratio(v, FLOAT), value) == _outcome(
        lambda v: (as_scalar(v, FLOAT), 1), value
    )


@given(st.one_of(
    st.tuples(st.dictionaries(st.integers(-4, 4), coeffs, max_size=5), st.just(EXACT)),
    st.tuples(st.dictionaries(st.integers(-4, 4), st.floats(-9, 9), max_size=5), st.just(FLOAT)),
))
def test_from_ratios_builds_what_the_constructor_builds(case):
    taps, mode = case
    p = LaurentPoly.from_ratios({n: as_ratio(c, mode) for n, c in taps.items()}, mode)
    q = LaurentPoly(taps, mode)
    assert p == q and list(p.taps()) == list(q.taps())


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_plus_product_is_the_two_operation_form(mode):
    rng = random.Random(mode)
    for _ in range(300):
        x, y, z = (lp({n: rng.randint(-3, 3) for n in rng.sample(range(-2, 3), 3)}, mode) for _ in range(3))
        for out, ref in ((x.plus_product(y, z), x + y * z), (x.plus_product(y, z, True), y * z + x)):
            assert out == ref and list(out.taps().items()) == list(ref.taps().items())


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_as_ratio_under_a_lowered_int_digit_limit_refuses_as_as_scalar_does():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for text in ("1" * 1000, "1/" + "3" * 1000):
            assert _outcome(as_ratio, text) == _outcome(as_scalar, text)
            assert _outcome(as_ratio, text)[1].startswith("invalid scalar literal")
    finally:
        sys.set_int_max_str_digits(limit)


# -- the Fraction builder ------------------------------------------------------


_big = st.integers(10**60, 10**80)


@settings(max_examples=300)
@given(
    st.integers(-(10**6), 10**6) | _big | _big.map(operator.neg),
    st.just(1) | st.integers(1, 10**6) | _big,
)
@example(-3, 1)
@example(-(10**60) - 7, 10**61)
@example(0, 5)
def test_the_builder_gives_the_fraction_of_its_ratio(p, q):
    got, want = laurent._fractions((p,), q)[0], F(p, q)
    assert type(got) is F and got == want and hash(got) == hash(want)
    assert (repr(got), str(got)) == (repr(want), str(want))
    g = math.gcd(p, q)
    assert (got.numerator, got.denominator) == (p // g, q // g)
    back = pickle.loads(pickle.dumps(got))
    assert type(back) is F and back == want and repr(back) == repr(want)


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="the slots are CPython's")
def test_cpython_fractions_take_the_slot_builder():
    # CPython's Fraction keeps two slots (3.10-3.13, the versions the tests run
    # on); a release without them would fall back to Fraction(p, q) silently,
    # every result the same, the exact transform about half as fast
    assert laurent._SLOTTED


def test_the_fallback_builder_and_reader_give_the_same_values(monkeypatch):
    p = LaurentPoly({-1: F(-3, 4), 0: 2, 2: F(5, 6)})
    x = [F(1, 2), F(-3), F(7, 4), F(0)]
    based = LiftingCascade([LiftingStep(1, p), LiftingStep(0, lp({0: F(2, 9)}))],
                           k=F(-5, 3), base=haar_base())

    def results():  # the writers too, which read the taps through the builder
        return (list(p.items()), p.coeff(2), p.coeff(9), p.evaluate(F(-2, 3)), str(p),
                as_scalar("6/4"), laurent._parts(x), laurent._parts([3, F(1, 2)], False),
                serialize_spec(based), serialize_matrix(based.evaluate()),
                serialize_report(analyze(based)))

    fast = results()
    monkeypatch.setattr(laurent, "_SLOTTED", False)
    slow = results()
    assert repr(fast) == repr(slow)
    assert [type(v) for _, v in fast[0]] == [type(v) for _, v in slow[0]] == [F] * 3


def test_the_batch_builder_gives_lowest_terms_on_both_paths(monkeypatch):
    # what the exact transform builds its output from: ints (or an array of
    # them) over one positive denominator, each reduced by its own gcd
    nums, den = [6, -4, 0, 9, -12, 7, 35 * 2**70], 12

    def results():
        return laurent._fractions(nums, den), laurent._fractions(array("q", nums[:-1]), 1)

    fast = results()
    monkeypatch.setattr(laurent, "_SLOTTED", False)
    slow = results()
    assert repr(fast) == repr(slow) == repr(([F(v, den) for v in nums], [F(v) for v in nums[:-1]]))
    assert all(type(v) is F and v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1
               for v in fast[0] + fast[1])


@settings(max_examples=300)
@given(st.from_regex(r" ?[-+]{0,2}[0-9١]{1,4}(/[-+]?[0-9]{0,3})?(\.[0-9]?)?(e-?[0-9])? ?",
                     fullmatch=True))
def test_literals_read_as_fraction_reads_them(text):
    # the int fast path for integer and "p/q" literals against Fraction itself
    try:
        want = F(text.strip())
    except (ValueError, ZeroDivisionError):
        want = None
    got = _outcome(as_ratio, text)
    if want is None:
        assert got == (ValueError, f"invalid scalar literal {text!r}")
    else:
        assert got == (want.numerator, want.denominator)


# -- exact kernels on large coefficients ---------------------------------------
#
# Seeded polynomials whose numerators have 1,000+ bits over denominators built
# from a few small primes, so that scalings, sums and products share primes
# with them and cancel taps.  Each result is checked against Fraction
# arithmetic on ``taps()``, in canonical form and in the two-operation form's
# tap order.

_PRIMES = (2, 3, 5, 7, 11)


def _big_taps(rng, taps=range(-3, 4)):
    out = {}
    for n in rng.sample(list(taps), rng.randint(1, len(taps))):
        den = math.prod(rng.choice(_PRIMES) ** rng.randint(0, 40) for _ in range(3))
        num = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1000, 1400)) * rng.choice(_PRIMES)
        out[n] = F(num or 1, den)
    return out


def _big_cases(seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        x, y, z = (_big_taps(rng) for _ in range(3))
        if rng.random() < 0.5:  # x cancels some taps of y * z
            for n, c in ref_mul(y, z).items():
                if rng.random() < 0.6:
                    x[n] = -c
        yield rng, _ref_clean(x), y, z


def test_exact_scaled_on_large_coefficients_agrees_with_fraction_arithmetic():
    for rng, x, _, _ in _big_cases("scaled"):
        # a second polynomial whose numerators share 3^5 * 11 over a 2^a 5^b denominator
        shared = {n: F(3**5 * 11 * (rng.getrandbits(1100) | 1) * rng.choice((-1, 1)),
                       2 ** rng.randint(0, 30) * 5 ** rng.randint(0, 9)) for n in range(-2, 3)}
        for taps in (x, shared):
            p = LaurentPoly(taps)
            # p shares primes with the denominator (or is negative, or 0), q with the numerators
            for c in (F(p._den * rng.randint(1, 30), 3**7 * 11**2), F(-p._den, 33),
                      F(-(rng.choice(_PRIMES) ** 5), math.gcd(*p._num.values()) * 7),
                      F(rng.getrandbits(1200) | 1, 3**40 * 7), F(0), F(0, 5)):
                want = _ref_clean({n: c * v for n, v in taps.items()})
                assert_agrees(p.scaled(c), want)
                assert_agrees(p * c, want)


def test_exact_negation_on_large_coefficients_agrees_with_fraction_arithmetic():
    for _, x, _, _ in _big_cases("neg"):
        p = LaurentPoly(x)
        assert_agrees(-p, ref_neg(x))
        assert (-p)._den == p._den and list((-p)._num) == list(p._num)


def test_exact_plus_product_on_large_coefficients_is_the_two_operation_form():
    for _, x, y, z in _big_cases("plus_product"):
        px, py, pz = LaurentPoly(x), LaurentPoly(y), LaurentPoly(z)
        product = ref_mul(y, z)
        for out, ref, two_ops in ((px.plus_product(py, pz), ref_add(x, product), px + py * pz),
                                  (px.plus_product(py, pz, True), ref_add(product, x), py * pz + px)):
            assert_agrees(out, ref)
            assert out == two_ops and list(out.taps()) == list(two_ops.taps())


def test_exact_plus_product_cancels_inside_the_product():
    # (a + a z^-1)(b - b z^-1) = ab - ab z^-2: tap 1 cancels within y * z
    rng = random.Random("inner cancel")
    for _ in range(20):
        a, b = (F(rng.getrandbits(1100) + 1, 3 ** rng.randint(0, 30)) for _ in range(2))
        y, z = {0: a, 1: a}, {0: b, 1: -b}
        # x also cancels tap 2, holds the cancelled tap 1, or holds it beside a tap of its own
        for x in ({2: a * b, 1: F(5, 7)}, {3: F(1, 2), 2: a * b}, {1: F(5, 7), 3: -a}):
            px, py, pz = LaurentPoly(x), LaurentPoly(y), LaurentPoly(z)
            assert_agrees(px.plus_product(py, pz), ref_add(x, ref_mul(y, z)))
            assert_agrees(px.plus_product(py, pz, True), ref_add(ref_mul(y, z), x))


# -- long exact products: both sides of the Kronecker threshold ---------------
#
# Two exact factors of at least KRONECKER_TAPS taps each, over supports at
# most twice that long, multiply as packed big ints and fill their taps in
# ascending order.  Each case is checked against ref_mul and ref_add on the
# Fraction tap maps, which never pack, by value and in canonical form.


def assert_values(p, ref):
    assert_canonical(p)
    assert repr(list(p.items())) == repr(sorted(ref.items()))
    assert p == LaurentPoly(ref)


def _long_taps(rng, count, bits):
    # count taps of either sign from a random offset, negative taps included, with
    # gaps inside a support of count (no gap), 2 * count - 1 (packable) or 3 * count taps
    lo = rng.randint(-40, 20)
    span = count + rng.choice((0, count - 1, 2 * count))
    return {n: F(rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1), rng.choice(_PRIMES) ** rng.randint(0, 20))
            for n in rng.sample(range(lo, lo + span), count)}


def test_exact_products_on_both_sides_of_the_kronecker_threshold():
    rng = random.Random("kronecker")
    t = laurent.KRONECKER_TAPS
    packed = []
    for _ in range(300):
        y, z = (_long_taps(rng, rng.choice((1, 2, 5, t - 1, t, t + 1, 20, 27, 40)),
                           rng.choice((1, 2, 31, 64, 65, 200, 1100, 3000))) for _ in range(2))
        if rng.random() < 0.2:  # y(z) * y(-z) is even: every odd tap of the product is 0
            z = {n: -c if n % 2 else c for n, c in y.items()}
        x = _long_taps(rng, rng.choice((1, t, 30)), rng.choice((1, 64, 1100)))
        product = ref_mul(y, z)
        for n, c in product.items():  # x cancels some taps of y * z
            if rng.random() < 0.3:
                x[n] = -c
        px, py, pz = LaurentPoly(x), LaurentPoly(y), LaurentPoly(z)
        assert_values(py * pz, product)
        assert_values(px.plus_product(py, pz), ref_add(x, product))
        assert_values(px.plus_product(py, pz, True), ref_add(product, x))
        packed.append(all(len(m) >= t and max(m) - min(m) < 2 * len(m) for m in (y, z)))
    assert 50 <= sum(packed) <= 250


def test_exact_products_on_both_sides_of_the_kronecker_bits_bound(monkeypatch):
    # numerators at the bound and one bit past it, KRONECKER_BITS at
    # KRONECKER_TAPS taps and growing with the square of the shorter factor's
    # taps, take the packed and the per-tap product, with the same values
    kronecker, packed = laurent._kronecker, []

    def spy(*args):
        packed.append(kronecker(*args))
        return packed[-1]

    monkeypatch.setattr(laurent, "_kronecker", spy)
    rng = random.Random("kronecker bits")
    t0, b0 = laurent.KRONECKER_TAPS, laurent.KRONECKER_BITS
    for taps, longer in ((t0, t0), (t0, 30), (20, 20), (40, 40)):
        bound = b0 * taps**2 // t0**2
        for bits, want in ((bound, True), (bound + 1, False)):
            wide = {n: F(rng.choice((-1, 1)) * (rng.getrandbits(bits - 1) | 1 << (bits - 1)))
                    for n in range(taps)}
            narrow = {n: F(rng.randint(-99, 99) or 1) for n in range(-3, longer - 3)}
            x = {n: F(1, 3) for n in range(0, taps)}
            for y, z in ((wide, narrow), (narrow, wide)):
                px, py, pz = LaurentPoly(x), LaurentPoly(y), LaurentPoly(z)
                packed.clear()
                assert_values(py * pz, ref_mul(y, z))
                assert_values(px.plus_product(py, pz), ref_add(x, ref_mul(y, z)))
                assert packed == [want, want]


def _check_division(p, d):
    for low in (True, False):
        q, r = p.divided(d, low)
        assert (q, r) == _divided_oracle(p, d, low)
        assert_canonical(q)
        assert_canonical(r)
        assert r == p - q * d and (r.is_zero or r.span() < d.span())
        yield q, r


def test_division_with_a_growing_denominator_matches_the_per_monomial_loop():
    # leading divisor numerators of primes the dividend's numerators lack make
    # each quotient monomial's denominator new to the remainder's
    rng = random.Random("growing denominator")
    for _ in range(40):
        p = LaurentPoly(_big_taps(rng, range(-4, 5)))
        lead = rng.choice((3**7 * 11, -(7**5), 13 * 17 * 19, F(3**9, 2**11)))
        d = LaurentPoly({0: lead, rng.randint(1, 2): F(rng.getrandbits(1000) + 1, 5**9)})
        list(_check_division(p, d))

    def smooth(bits):  # a numerator sharing some, all or none of the leads' primes
        return rng.choice((-1, 1)) * math.prod(rng.choice((1, 2, 3, 5, 7)) for _ in range(6)) * (
            rng.getrandbits(bits) | 1)

    # negative and composite leads whose primes recur in later kills: a kill
    # scales by the part of the lead its tap lacks, or by nothing
    grew = []
    for _ in range(60):
        lead = rng.choice((-12, -(2**5 * 3**3), 2 * 3 * 5 * 7, -(6**8), 45))
        p = LaurentPoly({n: F(smooth(64), rng.choice((1, 4, 9, 25))) for n in range(rng.randint(3, 9))})
        d = LaurentPoly({0: lead, rng.randint(1, 2): F(smooth(40), rng.choice((1, 7))), 3: -lead})
        grew += [p._den % q._den != 0 for q, _ in _check_division(p, d)]
    assert any(grew) and not all(grew)

    # leads that divide every killed numerator: +-1 over any denominator, and
    # +-3 where every numerator of the dividend and the divisor is a multiple of
    # 3; the working denominator stays the dividend's
    for _ in range(40):
        if rng.random() < 0.5:
            p = LaurentPoly(_big_taps(rng, range(-4, 5)))
            d = LaurentPoly({0: F(rng.choice((-1, 1)), 9), 1: F(smooth(40), 3), 2: F(rng.choice((-1, 1)), 9)})
        else:
            p = LaurentPoly({n: F(3 * smooth(300), 5 ** rng.randint(0, 9)) for n in range(-4, 5)})
            d = LaurentPoly({0: rng.choice((-3, 3)), 1: 3 * smooth(40), 2: rng.choice((-3, 3))})
        for q, r in _check_division(p, d):
            assert p._den % q._den == 0 and p._den % r._den == 0
