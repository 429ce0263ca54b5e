"""Euclidean lifting factorization and gain renormalization."""

import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftbank import (
    FLOAT,
    FilterPair,
    LaurentPoly,
    FactorStrategy,
    FactorizationError,
    HIGH_END,
    HIGHPASS_FIRST,
    LOW_END,
    LOWPASS_FIRST,
    LiftingCascade,
    LiftingStep,
    ModeError,
    PolyphaseMatrix,
    check_part2,
    factor_lifting,
    renormalize,
    serialize_spec,
)
from liftbank import factorization, laurent
from liftbank.banks import dc_counterexample, five_three, haar, haar_base

from conftest import (
    lp, random_alternating_cascade, random_constant_cascade, random_dyadic, random_filter, step)

ALL_STRATEGIES = [
    FactorStrategy(reduction=r, first_channel=c)
    for r in (HIGH_END, LOW_END)
    for c in (LOWPASS_FIRST, HIGHPASS_FIRST)
]


def test_identity_factors_to_nothing():
    out = factor_lifting(PolyphaseMatrix.identity())
    assert out.n_steps == 0
    assert out.k == 1
    assert out.evaluate() == PolyphaseMatrix.identity()


def test_haar_base_lowpass_first_oracle():
    out = factor_lifting(haar_base(), FactorStrategy(first_channel=LOWPASS_FIRST))
    got = [(s.update, s.filter) for s in out.steps]
    assert got == [
        (0, lp({0: 1})),
        (1, lp({0: -1})),
        (0, lp({0: 1})),
        (1, lp({0: 1})),
        (0, lp({0: F(-1, 2)})),
    ]
    assert out.k == 1
    assert out.evaluate() == haar_base()


def test_haar_base_highpass_first_oracle():
    out = factor_lifting(haar_base(), FactorStrategy(first_channel=HIGHPASS_FIRST))
    got = [(s.update, s.filter) for s in out.steps]
    assert got == [(0, lp({0: 1})), (1, lp({0: F(-1, 2)}))]
    assert out.k == 2
    assert out.evaluate() == haar_base()


def test_constant_cascades_always_round_trip():
    rng = random.Random(43)
    for _ in range(40):
        matrix = random_constant_cascade(rng).evaluate()
        for strategy in ALL_STRATEGIES:
            assert factor_lifting(matrix, strategy).evaluate() == matrix


def _is_delay(base):
    """None, or diag(z^-d, z^d) with d != 0."""
    if base is None:
        return True
    (d, c), = base.h00.items()
    return d != 0 and c == 1 and base == PolyphaseMatrix(
        lp({d: 1}), lp({}), lp({}), lp({-d: 1})
    )


def test_fir_cascades_round_trip_when_accepted():
    """Every FIR matrix factors: a reduction ending in a delayed diagonal
    returns the delay as the base, and the result reproduces the input."""
    rng = random.Random(47)
    delayed = 0
    for _ in range(60):
        matrix = random_alternating_cascade(rng, max_steps=5, max_taps=4).evaluate()
        for strategy in ALL_STRATEGIES:
            out = factor_lifting(matrix, strategy)
            assert out.evaluate() == matrix
            assert _is_delay(out.base)
            delayed += out.base is not None
    assert delayed > 0  # the family reaches the delayed diagonal


def test_five_three_matrix_needs_delay_normalization():
    # the 5/3 reduction ends in diag(c z^-d, z^d/c): K = 1/c, base the delay
    matrix = five_three().evaluate()
    for strategy in ALL_STRATEGIES:
        out = factor_lifting(matrix, strategy)
        assert out.evaluate() == matrix
        assert out.base is not None and _is_delay(out.base)


def test_delayed_diagonal_becomes_the_base():
    matrix = PolyphaseMatrix(lp({-1: 1}), lp({}), lp({}), lp({1: 1}))
    out = factor_lifting(matrix)
    assert out.n_steps == 0 and out.k == 1 and out.base == matrix
    scaled = PolyphaseMatrix(lp({2: F(-3, 2)}), lp({}), lp({}), lp({-2: F(-2, 3)}))
    out = factor_lifting(scaled)
    assert out.k == F(-2, 3) and out.base.h00 == lp({2: 1})
    assert out.evaluate() == scaled


_coeffs = st.builds(F, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 5]))
_steps = st.builds(
    LiftingStep,
    st.integers(0, 1),
    st.dictionaries(st.integers(-2, 2), _coeffs, min_size=1, max_size=3).map(lp),
)
_delayed_diagonals = st.builds(
    lambda c, d: PolyphaseMatrix(lp({d: c}), lp({}), lp({}), lp({-d: 1 / c})),
    _coeffs,
    st.integers(-3, 3),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_steps, max_size=5),
    _coeffs,
    _delayed_diagonals,
    st.sampled_from(ALL_STRATEGIES),
)
def test_factor_round_trips_over_delayed_diagonal_bases(steps, k, base, strategy):
    matrix = LiftingCascade(steps, k=k, base=base).evaluate()
    out = factor_lifting(matrix, strategy)
    assert out.evaluate() == matrix
    assert _is_delay(out.base)


def test_antidiagonal_swap():
    matrix = PolyphaseMatrix(lp({}), lp({0: 1}), lp({0: -1}), lp({}))
    out = factor_lifting(matrix)
    assert out.n_steps == 3
    assert out.evaluate() == matrix


def test_non_unimodular_rejected():
    matrix = PolyphaseMatrix.diagonal(1, 2)
    with pytest.raises(FactorizationError, match="not unimodular"):
        factor_lifting(matrix)


@pytest.mark.parametrize("entries, det", [
    (({}, {0: 1}, {}, {0: 1}), "0"),  # a zero first column
    (({0: 1, 1: 2}, {0: 3, 1: 6}, {0: 2, 1: 4}, {0: 6, 1: 12}), "0"),  # proportional columns
    (({0: 1}, {}, {}, {0: 2}), "of span 1 with 2-bit coefficients"),  # det 2
    (({1: 1}, {}, {}, {0: 1}), "of span 1 with 1-bit coefficients"),  # z^-1: a unit, not 1
    (({0: 1, 1: 1}, {}, {0: F(1, 3)}, {0: 1, 1: F(5, 2)}),
     "of span 3 with 3-bit coefficients"),  # 1 + 7/2 z^-1 + 5/2 z^-2
])
def test_non_unimodular_refusals_name_the_determinant(entries, det):
    matrix = PolyphaseMatrix(*(lp(e) for e in entries))
    with pytest.raises(FactorizationError) as info:
        factor_lifting(matrix)
    assert str(info.value) == f"matrix is not unimodular: det {det}"


def test_float_matrix_rejected():
    with pytest.raises(ModeError):
        factor_lifting(haar_base(FLOAT))


def test_strategy_validation():
    with pytest.raises(ValueError, match="reduction"):
        FactorStrategy(reduction="sideways")
    with pytest.raises(ValueError, match="channel"):
        FactorStrategy(first_channel="both")


def test_renormalize_counterexample():
    out = renormalize(dc_counterexample(reversible=False))
    assert out.changed and out.note is None
    assert out.cascade.k == 3
    assert check_part2(out.cascade).compliant


def test_renormalize_fixes_wrong_gain():
    out = renormalize(haar().replace(k=7))
    assert out.changed
    assert out.cascade.k == 1
    assert out.cascade == haar()


def test_renormalize_keeps_compliant_cascade():
    out = renormalize(haar())
    assert not out.changed and out.note is None
    assert out.cascade == haar()


def test_renormalize_reversible_is_a_no_op():
    out = renormalize(five_three())
    assert not out.changed
    assert out.cascade == five_three()
    assert "fixed at 1" in out.note


def test_renormalize_error_cases():
    with pytest.raises(ValueError, match="at least one"):
        renormalize(LiftingCascade([]))
    with pytest.raises(ValueError, match="alternating"):
        renormalize(LiftingCascade([step(0, {0: 1}), step(0, {0: 1})]))
    with pytest.raises(ValueError, match="DC gain is 0"):
        renormalize(LiftingCascade([step(0, {0: -1})]))


def test_a_dc_gain_past_the_int_str_limit_is_judged_and_renormalized():
    # E_0(1) = 1 + 2 * 10**4400 has more digits than str() writes by default
    dc = 1 + 2 * 10**4400
    c = LiftingCascade([step(1, {0: 1}), step(0, {0: 10**4400})])
    report = check_part2(c)
    assert report.verdict == "non-compliant" and report.actual_b == dc
    # "a 14618-bit rational" where str() refuses it, its first digits where not
    reason = report.reasons[0]
    assert reason.startswith("B_1 = ") and reason.endswith(" != 1 (irreversible requirement)")
    assert len(reason) < 120
    out = renormalize(c)
    assert out.changed and out.cascade.k == dc
    assert check_part2(out.cascade).compliant


def test_renormalize_over_a_base_is_compliant():
    base = haar_base() @ PolyphaseMatrix.diagonal(F(-2, 3), F(-3, 2))
    for c in (
        LiftingCascade([step(0, {0: 1})], base=base),
        LiftingCascade([step(1, {-1: 1, 0: 2})], base=base),
        LiftingCascade([step(1, {0: -1}), step(0, {1: F(1, 3)})], k=5, base=base),
    ):
        assert not check_part2(c).compliant
        out = renormalize(c)
        assert out.changed and out.cascade.base == base
        assert check_part2(out.cascade).compliant
        assert out.cascade.evaluate().to_filters().lowpass.evaluate(1) == 1


def test_factored_cascades_are_canonical_inputs():
    # factor output is irreversible, identity-base, exact: the compliance
    # check accepts it directly, and this particular one lands compliant
    out = factor_lifting(haar_base(), FactorStrategy(first_channel=HIGHPASS_FIRST))
    assert check_part2(out).compliant


def _per_monomial_factor(matrix, strategy):
    """The Euclidean reduction lifting the whole matrix once per quotient
    monomial, with the same cleanup and synthesis as ``factor_lifting``."""
    m, ops = matrix, []
    while not m.h00.is_zero and not m.h10.is_zero:
        span0, span1 = m.h00.span(), m.h10.span()
        if span0 != span1:
            u = 0 if span0 > span1 else 1
        else:
            u = 0 if strategy.first_channel == LOWPASS_FIRST else 1
        quotient = lp({})
        column = (m.h00, m.h10)
        while not column[u].is_zero and column[u].span() >= column[1 - u].span():
            (p_lo, p_hi), (q_lo, q_hi) = column[u].support(), column[1 - u].support()
            t, e = (p_lo, q_lo) if strategy.reduction == HIGH_END else (p_hi, q_hi)
            q = LaurentPoly.monomial(column[u].coeff(t) / column[1 - u].coeff(e), t - e)
            quotient = quotient + q
            m = m.lifted(u, -q)
            column = (m.h00, m.h10)
        ops.append(LiftingStep(u, -quotient))
    h00, h01, h10, h11 = m.entries()
    if h10.is_zero:
        cleanup = [(0, -(h01 * h00))]
    else:
        cleanup = [(1, h11 * h10), (0, -h01), (1, -h10), (0, -h01)]
    for u, g in cleanup:
        if not g.is_zero:
            m = m.lifted(u, g)
            ops.append(LiftingStep(u, g))
    (tap, coeff), = m.h00.items()
    base = PolyphaseMatrix(lp({tap: 1}), lp({}), lp({}), lp({-tap: 1})) if tap else None
    return LiftingCascade(ops, k=coeff).synthesis().replace(base=base)


def test_one_division_per_step_matches_the_per_monomial_reduction(monkeypatch):
    # the oracle lifts the whole matrix; its first column dies at h00 exactly
    # when the reduction ends in the antidiagonal, else in the diagonal
    lifted, seen, shapes = PolyphaseMatrix.lifted, [], set()

    def spy(m, u, g):
        seen.append(lifted(m, u, g))
        return seen[-1]

    monkeypatch.setattr(PolyphaseMatrix, "lifted", spy)
    rng = random.Random(17)
    draws = [random_alternating_cascade(rng, max_steps=6, max_taps=3) for _ in range(60)]
    draws += [LiftingCascade([LiftingStep((i + u) % 2, random_filter(rng, 3)) for i in range(8)],
                             k=random_dyadic(rng)) for u in (0, 1) for _ in range(6)]
    for cascade in draws:
        matrix = cascade.evaluate()
        for strategy in ALL_STRATEGIES:
            out = factor_lifting(matrix, strategy)
            assert out.evaluate() == matrix
            seen[:] = [matrix]
            want = _per_monomial_factor(matrix, strategy)
            assert (out.steps, out.k, out.base) == (want.steps, want.k, want.base)
            shapes.add("antidiagonal" if any(m.h00.is_zero for m in seen) else "diagonal")
    assert shapes == {"diagonal", "antidiagonal"}


def _jpeg2000_five_three():
    # the 5/3 analysis pair as printed: det z^-1, a unit but not 1
    h0 = lp({-2: F(-1, 8), -1: F(2, 8), 0: F(6, 8), 1: F(2, 8), 2: F(-1, 8)})
    h1 = lp({0: F(-1, 2), 1: F(2, 2), 2: F(-1, 2)})
    return PolyphaseMatrix.from_filters(FilterPair(h0, h1))


def _random_matrix(rng, taps):
    return PolyphaseMatrix(*(lp({n: F(rng.randint(-99, 99), rng.randint(1, 9)) for n in range(taps)})
                             for _ in range(4)))


@pytest.mark.parametrize("matrix", [
    PolyphaseMatrix.diagonal(2, 1),
    PolyphaseMatrix(lp({}), lp({0: 1}), lp({}), lp({0: 1})),  # a zero first column
    _jpeg2000_five_three(),
    _random_matrix(random.Random(128), 128),
], ids=["diag(2, 1)", "zero first column", "JPEG 2000 5/3", "128 taps"])
def test_non_unimodular_input_is_refused_before_any_division(monkeypatch, matrix):
    want = f"matrix is not unimodular: det {matrix.describe_determinant()}"

    def fail(*args, **kwargs):
        raise AssertionError("the reduction ran before the determinant check")

    monkeypatch.setattr(LaurentPoly, "divided", fail)
    monkeypatch.setattr(laurent, "lifted_rows", fail)
    monkeypatch.setattr(factorization, "lifted_rows", fail)
    with pytest.raises(FactorizationError) as info:
        factor_lifting(matrix)
    assert str(info.value) == want


# -- bit-identical factorizations ----------------------------------------------
#
# A digest of the serialized factorizations of 150 seeded 4-12-step cascades,
# under all four strategies, pins every quotient, remainder and right-column
# entry the reduction forms: a kernel change that alters any tap, tap order or
# denominator changes it.

FACTORIZATION_DIGEST = "2cf01a87631572f2de799bb4194b21597e54d5147a660dd81c0d2dd3d0cf5c5d"


def _digest_cascade(rng, n_steps):
    # alternating steps of 1-3 contiguous taps; dyadic, /3 and /5 coefficients
    m = rng.randrange(2)
    steps = []
    for i in range(n_steps):
        lo = rng.randint(-2, 1)
        taps = {n: F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 4, 8, 3, 5)))
                for n in range(lo, lo + rng.randint(1, 3))}
        steps.append(LiftingStep((m + i) % 2, LaurentPoly(taps)))
    return LiftingCascade(steps, k=F(rng.randint(1, 5), rng.choice((1, 2, 4))))


def test_factorizations_are_bit_identical_to_the_pinned_digest():
    rng = random.Random("factorization digest")
    digest = hashlib.sha256()
    for i in range(150):
        c = _digest_cascade(rng, rng.randint(4, 12))
        digest.update(serialize_spec(factor_lifting(c.evaluate(), ALL_STRATEGIES[i % 4])).encode())
    assert digest.hexdigest() == FACTORIZATION_DIGEST
    for strategy in ALL_STRATEGIES[:2]:  # two 16-step draws, whose steps reach thousands of bits
        matrix = _digest_cascade(rng, 16).evaluate()
        assert factor_lifting(matrix, strategy).evaluate() == matrix
