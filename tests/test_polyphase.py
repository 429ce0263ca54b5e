import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liftbank import (
    EXACT,
    FLOAT,
    CascadeError,
    FilterPair,
    LaurentPoly,
    LiftingCascade,
    LiftingStep,
    PolyphaseMatrix,
)
from liftbank.banks import haar_base

from conftest import lp

coeffs = st.fractions(min_value=-32, max_value=32, max_denominator=32)
polys = st.dictionaries(st.integers(-4, 4), coeffs, max_size=4).map(LaurentPoly)
matrices = st.tuples(polys, polys, polys, polys).map(lambda t: PolyphaseMatrix(*t))
float_coeffs = st.floats(-32, 32, allow_nan=False).filter(lambda x: x != 0)
float_polys = st.dictionaries(st.integers(-4, 4), float_coeffs, max_size=4).map(
    lambda d: LaurentPoly(d, FLOAT)
)
float_matrices = st.tuples(float_polys, float_polys, float_polys, float_polys).map(
    lambda t: PolyphaseMatrix(*t)
)


def test_haar_matrix_entries():
    b = haar_base()
    assert b.h00 == lp({0: F(1, 2)})
    assert b.h01 == lp({0: F(1, 2)})
    assert b.h10 == lp({0: -1})
    assert b.h11 == lp({0: 1})
    assert b.determinant() == LaurentPoly.one()


def test_identity_and_gain():
    i = PolyphaseMatrix.identity()
    assert i.is_identity()
    # the gain diag(1/K, K) is what a cascade without steps evaluates to
    g = LiftingCascade([], k=F(2)).evaluate()
    assert g == PolyphaseMatrix.diagonal(F(1, 2), 2)
    assert g.h00 == lp({0: F(1, 2)}) and g.h11 == lp({0: 2})
    assert g.h01.is_zero and g.h10.is_zero
    with pytest.raises(ValueError):
        LiftingCascade([], k=0)


@given(matrices, matrices)
def test_determinant_is_multiplicative(a, b):
    assert (a @ b).determinant() == a.determinant() * b.determinant()


@given(matrices)
def test_adjugate_inverse(m):
    # only unimodular matrices are invertible here
    if m.determinant() != LaurentPoly.one():
        with pytest.raises(ValueError):
            m.inverse()
        return
    assert (m.inverse() @ m).is_identity()
    assert (m @ m.inverse()).is_identity()


def test_matmul_oracle():
    # [[1, s],[0,1]] @ [[1,0],[t,1]] = [[1+st, s],[t, 1]]
    s, t = lp({1: F(1, 2)}), lp({-1: 3})
    u = PolyphaseMatrix(lp({0: 1}), s, lp({}), lp({0: 1}))
    l = PolyphaseMatrix(lp({0: 1}), lp({}), t, lp({0: 1}))
    p = u @ l
    assert p.h00 == lp({0: 1}) + s * t
    assert p.h01 == s
    assert p.h10 == t
    assert p.h11 == lp({0: 1})
    assert str(u) == "[[1, 1/2*z^-1], [0, 1]]"
    with pytest.raises(TypeError):
        u @ s


@given(
    st.one_of(
        st.tuples(matrices, polys),
        st.tuples(float_matrices, float_polys),
    ).filter(lambda t: not t[1].is_zero),
    st.sampled_from((0, 1)),
)
def test_lifted_is_the_step_matrix_product(pair, update):
    m, g = pair
    step = LiftingStep(update, g).matrix()
    for out, ref in ((m.lifted(update, g), step @ m), (m.colifted(update, g), m @ step)):
        assert out == ref
        # same taps inserted in the same order: later float sums accumulate
        # their terms in that order, so this is what keeps them bit-identical
        assert [[(n, repr(c)) for n, c in e.taps().items()] for e in out.entries()] == [
            [(n, repr(c)) for n, c in e.taps().items()] for e in ref.entries()
        ]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_row_and_column_updates_drop_cancelled_taps_in_place(mode):
    # g * c cancels at tap 1, where a has a tap: the update must neither keep
    # a zero there nor move a's tap 1 ahead of the product's tap 2
    a = lp({1: 5, 2: 3}, mode)
    g, c = lp({0: 1, 1: 1}, mode), lp({0: 1, 1: -1}, mode)
    m = PolyphaseMatrix(a, a, c, c)
    for update in (0, 1):
        step = LiftingStep(update, g).matrix()
        for out, ref in ((m.lifted(update, g), step @ m), (m.colifted(update, g), m @ step)):
            assert [list(e.taps().items()) for e in out.entries()] == [
                list(e.taps().items()) for e in ref.entries()
            ]


def _random_matrix(rng, mode):
    def entry():
        taps = {}
        for n in rng.sample(range(-3, 4), rng.randint(0, 4)):
            if mode == FLOAT:
                x = math.ldexp(rng.uniform(0.5, 1), rng.randint(-1070, 1020))
                taps[n] = rng.choice((-1, 1)) * x
            else:
                taps[n] = F(rng.randint(-40, 40), rng.randint(1, 40))
        return LaurentPoly(taps, mode)
    return PolyphaseMatrix(entry(), entry(), entry(), entry())


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_rows_scaled_is_the_diagonal_product_bit_for_bit(mode):
    # taps, tap order and float bits of diagonal(a, b) @ m, underflow to 0 or
    # a subnormal and overflow to inf included, and the same refusal of a
    # factor that is not a finite scalar
    rng = random.Random(mode)
    if mode == FLOAT:
        factors = [1.0, -2.5, 0.0, -0.0, 1e-300, 1e300, 5e-324, 2.2e-308, 1.7976931348623157e308,
                   -3.3e-200, math.inf, -math.inf, math.nan]
    else:
        factors = [F(1), F(-3, 2), F(0), F(7, 12), F(2**70, 3), 5, "1/3"]

    def outcome(f):
        try:
            return [(e, repr(e.taps())) for e in f().entries()]
        except Exception as exc:
            return type(exc), str(exc)

    for _ in range(300):
        m = _random_matrix(rng, mode)
        a, b = rng.choice(factors), rng.choice(factors)
        got = outcome(lambda: m.rows_scaled(a, b))
        assert got == outcome(lambda: PolyphaseMatrix.diagonal(a, b, mode) @ m), (a, b)


def test_filter_extraction_oracle():
    # H0 = h00(z^2) + z*h01(z^2): even taps from column 0, odd from column 1
    pair = haar_base().to_filters()
    assert pair.lowpass == lp({0: F(1, 2), -1: F(1, 2)})   # 1/2 + (1/2)z
    assert pair.highpass == lp({0: -1, -1: 1})             # -1 + z
    assert pair.mode == EXACT


@given(matrices)
def test_filter_round_trip(m):
    assert PolyphaseMatrix.from_filters(m.to_filters()) == m


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_from_filters_inverts_to_filters_in_tap_order(mode):
    # entries filled out of tap order come back in ascending order, bit for bit
    rng = random.Random(mode)
    for _ in range(300):
        entries = []
        for _ in range(4):
            taps = {}
            for n in rng.sample(range(-6, 7), rng.randrange(0, 6)):
                c = F(rng.randrange(-99, 100), rng.choice([1, 2, 3, 12]))
                taps[n] = c if mode == EXACT else float(c) * 10.0 ** rng.randrange(-30, 30)
            entries.append(LaurentPoly(taps, mode))
        m = PolyphaseMatrix(*entries)
        back = PolyphaseMatrix.from_filters(m.to_filters())
        assert back == m
        for got, want in zip(back.entries(), m.entries()):
            assert repr(list(got.taps().items())) == repr(sorted(want.taps().items()))


@given(polys, polys)
def test_pair_round_trip(h0, h1):
    pair = FilterPair(h0, h1)
    assert PolyphaseMatrix.from_filters(pair).to_filters() == pair


def test_evaluate_at_one():
    rows = haar_base().evaluate(1)
    assert rows == ((F(1, 2), F(1, 2)), (F(-1), F(1)))


def test_mode_consistency_enforced():
    with pytest.raises(ValueError):
        PolyphaseMatrix(lp({0: 1}), lp({0: 1.0}, FLOAT), lp({}), lp({0: 1}))
    with pytest.raises(ValueError):
        FilterPair(lp({0: 1}), lp({0: 1.0}, FLOAT))


def test_adjugate_is_unchecked_and_inverse_checks_first():
    skew = PolyphaseMatrix(lp({0: 2}), lp({1: 3}), lp({-1: 5}), lp({0: 7}))
    adj = skew.adjugate()
    assert adj == PolyphaseMatrix(lp({0: 7}), lp({1: -3}), lp({-1: -5}), lp({0: 2}))
    # det(skew) = -1: the adjugate is taken, the inverse refused
    with pytest.raises(ValueError, match="not unimodular"):
        skew.inverse()
    assert haar_base().inverse() == haar_base().adjugate()


def test_float_base_det_tolerance_scales_with_coefficients():
    def base(h00, h01, h10, h11):
        entries = (h00, h01, h10, h11)
        return PolyphaseMatrix(*(lp({0: c} if c else {}, FLOAT) for c in entries))

    # terms of det at most 1: the tolerance is BASE_DET_TOL itself
    assert base(1.0, 0.5, -1e-9, 1.0).is_unimodular()  # det = 1 + 0.5e-9
    assert not base(1.0, 0.5, -4e-9, 1.0).is_unimodular()  # det = 1 + 2e-9
    # terms |h00 h11| + |h01 h10| = 2001: the tolerance is about 2e-6
    assert base(1000.0, 1000.0, 1.0, 1.001 + 1e-10).is_unimodular()  # det ~ 1 + 1e-7
    assert not base(1000.0, 1000.0, 1.0, 1.001 + 1e-8).is_unimodular()  # det ~ 1 + 1e-5
    # one large coefficient does not loosen the check: the terms stay near 1
    refused = (
        base(1e5, 0.0, 0.0, 0.0),  # singular
        base(1e5, 0.0, 0.0, 1.5e-5),  # det = 1.5
        base(1.0, 0.5, -4e-9, 1.0),
        base(1000.0, 1000.0, 1.0, 1.001 + 1e-8),
        base(1e100, 0.0, 0.0, 1e-100 * (1 + 1e-8)),  # det = 1 + 1e-8
    )
    for m in refused:
        assert not m.is_unimodular()
        with pytest.raises(ValueError, match="not unimodular"):
            m.inverse()
        with pytest.raises(CascadeError, match="det 1"):
            LiftingCascade([], base=m, mode=FLOAT)
    # terms whose product overflows decide nothing: det overflows with them
    assert not base(1e200, 0.0, 0.0, 1e200).is_unimodular()
    # an entry that is itself infinite, as a float product can make it, is
    # refused the same way, and a cascade over it names the base
    infinite = PolyphaseMatrix.diagonal(1e300, 1e-300, FLOAT) @ PolyphaseMatrix.diagonal(
        1e10, 1e-10, FLOAT
    )
    assert infinite.h00.coeff(0) == float("inf")
    assert not infinite.is_unimodular()
    with pytest.raises(CascadeError, match="det 1"):
        LiftingCascade([], base=infinite, mode=FLOAT)
    LiftingCascade([], base=base(1000.0, 1000.0, 1.0, 1.001 + 1e-10), mode=FLOAT)


def test_float_identity_within_tolerance():
    near = PolyphaseMatrix(
        lp({0: 1 + 1e-13}, FLOAT), lp({1: 1e-13}, FLOAT), lp({}, FLOAT), lp({0: 1.0}, FLOAT)
    )
    assert near.is_identity()
    assert not near.is_identity(tol=1e-14)
    assert not PolyphaseMatrix.diagonal(1.0, 1.5, FLOAT).is_identity()


def test_float_inverse_within_tolerance():
    m = haar_base(FLOAT)
    p = m.inverse() @ m
    assert p.approx_eq(PolyphaseMatrix.identity(FLOAT), 1e-12)


def test_haar_inverse_oracle():
    # adjugate of [[1/2,1/2],[-1,1]] is [[1,-1/2],[1,1/2]]
    inv = haar_base().inverse()
    assert inv.h00 == lp({0: 1})
    assert inv.h01 == lp({0: F(-1, 2)})
    assert inv.h10 == lp({0: 1})
    assert inv.h11 == lp({0: F(1, 2)})


def test_determinant_is_described_by_size_not_digits():
    big = 7 * 10**3000
    m = PolyphaseMatrix.diagonal(big, big)
    with pytest.raises(ValueError, match="span 1 with 19938-bit coefficients"):
        m.inverse()
    # det = 1/3 + (2/3) z^-2
    skew = PolyphaseMatrix(lp({0: F(1, 3)}), lp({1: 5}), lp({}), lp({0: 1, 2: 2}))
    assert skew.describe_determinant() == "of span 3 with 2-bit coefficients"
    assert PolyphaseMatrix.diagonal(0, 1).describe_determinant() == "0"
    flt = PolyphaseMatrix.diagonal(2.0, 1.5, FLOAT)
    assert flt.describe_determinant() == "of span 1 with coefficients up to 3 in magnitude"


def _fraction_det(m):
    # h00*h11 - h01*h10 on the Fraction tap maps, in the two-operation form's tap order
    def mul(a, b):
        t = {}
        for n1, c1 in a.taps().items():
            for n2, c2 in b.taps().items():
                t[n1 + n2] = t.get(n1 + n2, 0) + c1 * c2
        return {n: c for n, c in t.items() if c}
    t = mul(m.h00, m.h11)
    for n, c in mul(m.h01, m.h10).items():
        t[n] = t.get(n, 0) - c
    return {n: c for n, c in t.items() if c}


def test_exact_determinant_on_large_coefficients_agrees_with_fraction_arithmetic():
    rng = random.Random("determinant")

    def big(taps):
        return LaurentPoly({n: F(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1000, 1300)) + 1,
                                 3 ** rng.randint(0, 30) * 2 ** rng.randint(0, 40))
                            for n in rng.sample(taps, rng.randint(1, len(taps)))})

    for _ in range(40):
        h00, h01, h10, h11 = (big(range(-2, 3)) for _ in range(4))
        k = big(range(0, 2))
        for m in (PolyphaseMatrix(h00, h01, h10, h11),
                  PolyphaseMatrix(h00, h01, h00 * k, h01 * k),  # proportional rows: det 0
                  # det -h01 * e: the other taps of the two products cancel
                  PolyphaseMatrix(h00, h01, h00 * k + LaurentPoly({1: F(5, 3)}), h01 * k)):
            det = m.determinant()
            nums, den = det._num, det._den
            assert all(nums.values()) and den > 0 and math.gcd(den, *nums.values()) == 1
            two_ops = m.h00 * m.h11 - m.h01 * m.h10
            assert det == two_ops and list(det.taps().items()) == list(_fraction_det(m).items())
            assert list(det.taps()) == list(two_ops.taps())
        # a unimodular product of large lifting steps has det exactly 1
        steps = [LiftingStep(i % 2, big(range(-1, 2))) for i in range(4)]
        assert LiftingCascade(steps, k=F(rng.getrandbits(1000) + 1, 7**9)).evaluate().determinant() \
            == LaurentPoly.one()
