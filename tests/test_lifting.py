"""Cascade evaluation, DC recursion and synthesis.

The two identity cascades (8 constant steps / 6 FIR steps) were multiplied
out by hand before this module existed; reproducing the identity exactly is
the strongest single check on step ordering and the matrix conventions.
"""

import copy
import functools
import operator
import pickle
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftbank import (
    EXACT,
    FLOAT,
    DEFAULT_ROUNDING,
    ROUND_FLOOR,
    ROUNDING_RULES,
    CascadeError,
    LaurentPoly,
    LiftingCascade,
    LiftingStep,
    ModeError,
    PolyphaseMatrix,
    RoundingRule,
    SpecFormatError,
    analyze,
    analyze_signal,
    check_part2,
    factor_lifting,
    find_rescaling,
    parse_spec,
    renormalize,
    rescale_cascade,
    scalar_dc_recursion,
    serialize_spec,
    synthesize_signal,
)
from liftbank.banks import (
    cdf97,
    dc_counterexample,
    five_three,
    haar,
    haar_base,
    identity_eight_step,
    identity_six_step,
    wa_lifted_haar,
)
from liftbank.laurent import KRONECKER_TAPS
from liftbank.polyphase import gamma

from conftest import (
    REFERENCE_ROUNDING,
    lp,
    random_alternating_cascade,
    random_dyadic,
    random_filter,
    random_float_cascade,
    step,
)


def test_step_matrices():
    s = lp({0: F(1, 2), 1: F(1, 2)})
    u = LiftingStep(0, s).matrix()
    assert u.h00 == lp({0: 1}) and u.h01 == s and u.h10.is_zero
    l = LiftingStep(1, s).matrix()
    assert l.h10 == s and l.h01.is_zero


def test_step_validation():
    with pytest.raises(ValueError):
        LiftingStep(2, lp({0: 1}))
    with pytest.raises(ValueError):
        LiftingStep(0, lp({}))


def test_haar_evaluation_oracle():
    m = haar().evaluate()
    assert m == haar_base()


def test_haar_partial_products():
    c = haar()
    p0 = c.partial_product(-1)
    assert p0.is_identity()
    p1 = c.partial_product(0)           # just the highpass update
    assert p1.h10 == lp({0: -1}) and p1.h00 == lp({0: 1})
    assert c.partial_product(1) == haar_base()  # K = 1, so E = H
    with pytest.raises(IndexError):
        c.partial_product(2)


def test_identity_cascades_reproduce_identity():
    assert identity_eight_step().evaluate().is_identity()
    assert identity_six_step().evaluate().is_identity()


def test_step_order_is_first_applied_first():
    # reversing the Haar steps gives a different matrix
    c = haar()
    r = LiftingCascade(tuple(reversed(c.steps)), k=c.k)
    assert r.evaluate() != c.evaluate()


def _reference_evaluate(c):
    """diag(1/K, K) @ M(S_{N-1}) @ ... @ M(S_0) @ B from full step matrices."""
    acc = c.base if c.base is not None else PolyphaseMatrix.identity(c.mode)
    for s in c.steps:
        acc = s.matrix() @ acc
    return PolyphaseMatrix.diagonal(1 / c.k, c.k, c.mode) @ acc


def _left_to_right(c):
    factors = [PolyphaseMatrix.diagonal(1 / c.k, c.k, c.mode)]
    factors += [s.matrix() for s in reversed(c.steps)]
    if c.base is not None:
        factors.append(c.base)
    return functools.reduce(operator.matmul, factors)


@pytest.mark.parametrize("seed", range(40))
def test_evaluate_matches_step_matrix_product(seed):
    rng = random.Random(seed)
    c = random_alternating_cascade(rng)
    if seed % 2:
        c = c.replace(base=wa_lifted_haar().base)
    assert c.evaluate() == _left_to_right(c) == _reference_evaluate(c)
    f = random_float_cascade(rng)
    if seed % 2:
        f = f.replace(base=haar_base(FLOAT))
    # float: the products in application order are reproduced bit for bit;
    # any other association only to round-off
    assert f.evaluate() == _reference_evaluate(f)
    assert f.evaluate().approx_eq(_left_to_right(f), 1e-9)
    for n in range(-1, c.n_steps):
        partial = c.replace(steps=c.steps[: n + 1], k=1)
        assert c.partial_product(n) == _reference_evaluate(partial)
    if seed < 4:  # 16 long steps, with and without a base
        long = _long_cascade(rng, wa_lifted_haar().base if seed % 2 else None)
        upper = long.replace(steps=long.steps[8:], base=None).evaluate()
        lower = long.replace(steps=long.steps[:8], k=1).evaluate()
        # every entry of both halves has at least KRONECKER_TAPS taps, so each product
        # of the halves' entries is one packed multiply
        assert min(len(e.taps()) for e in upper.entries() + lower.entries()) >= KRONECKER_TAPS
        assert long.evaluate() == _reference_evaluate(long) == upper @ lower
        if seed == 0:
            assert [e.taps() for e in long.evaluate().entries()] == _fraction_evaluate(long)


def _long_cascade(rng, base=None):
    # alternating steps of 3 to 5 contiguous taps: after 8 of them every entry
    # has at least 14 taps
    steps = [LiftingStep(i % 2, LaurentPoly({n: random_dyadic(rng) for n in range(-2, rng.randint(1, 3))}))
             for i in range(16)]
    return LiftingCascade(steps, k=F(rng.randint(1, 9), 4), base=base)


def _fraction_evaluate(c):
    """The entries of ``c.evaluate()`` as Fraction tap maps, each step's row
    update by the plain loops on ``taps()``: no Laurent product."""
    def updated(x, g, y):
        t = dict(x)
        for n1, c1 in g.items():
            for n2, c2 in y.items():
                t[n1 + n2] = t.get(n1 + n2, 0) + c1 * c2
        return {n: v for n, v in t.items() if v}

    base = c.base if c.base is not None else PolyphaseMatrix.identity(c.mode)
    rows = [[base.h00.taps(), base.h01.taps()], [base.h10.taps(), base.h11.taps()]]
    for s in c.steps:
        g, src = s.filter.taps(), rows[1 - s.update]
        rows[s.update] = [updated(x, g, y) for x, y in zip(rows[s.update], src)]
    return [{n: v * f for n, v in e.items()} for row, f in zip(rows, (1 / c.k, c.k)) for e in row]


def test_evaluate_of_a_factorization_with_thousand_bit_coefficients():
    # an 8-step draw factors into 19 steps with coefficients of over 2000 bits,
    # whose products cancel back to the input's small ones
    c = random_alternating_cascade(random.Random(9), max_steps=8)
    matrix = c.evaluate()
    out = factor_lifting(matrix)
    bits = max(max(abs(x.numerator), x.denominator).bit_length()
               for s in out.steps for _, x in s.filter.items())
    assert bits >= 1000
    assert out.evaluate() == matrix == _reference_evaluate(out)
    assert [e.taps() for e in out.evaluate().entries()] == _fraction_evaluate(out)


def test_m_init_and_alternation():
    c = haar()
    assert c.m_init() == 0           # last step updates the lowpass channel
    assert c.is_alternating()
    nonalt = LiftingCascade([step(0, {0: 1}), step(0, {0: 1})])
    assert not nonalt.is_alternating()
    with pytest.raises(ValueError):
        LiftingCascade([]).m_init()


def test_dc_trace_haar():
    t = haar().dc_trace()
    assert t.vectors == ((F(1), F(1)), (F(1), F(0)), (F(1), F(0)))
    assert t.b == (F(1), F(1), F(0), F(1))
    assert t.b[0] == 1 and t.b[1] == 1
    assert t.b[2] == 0 and t.b[3] == 1
    assert t.vectors[0] == (F(1), F(1))
    assert t.vectors[2] == (F(1), F(0))


def test_dc_trace_counterexample():
    # single update-0 step with filter 1 + z^-1: DC gain 2, so B_0 = 2*1 + 1 = 3
    t = dc_counterexample().dc_trace()
    assert t.b == (F(1), F(1), F(3))


def test_dc_trace_with_base():
    # base row sums seed the vector: haar base gives (1, 0)
    t = wa_lifted_haar().dc_trace()
    assert t.vectors[0] == (F(1), F(0))
    assert t.b[2] == F(1)


def test_scalar_recursion_matches_vector_form():
    rng = random.Random(2024)
    for _ in range(80):
        c = random_alternating_cascade(rng, max_steps=6, max_taps=4)
        t = c.dc_trace()
        gains = [s.dc_gain() for s in c.steps]
        assert scalar_dc_recursion(gains) == t.b


def test_scalar_recursion_seed_values():
    assert scalar_dc_recursion([]) == (F(1), F(1))
    assert scalar_dc_recursion([F(2)]) == (F(1), F(1), F(3))


# -- synthesis ----------------------------------------------------------------


def test_haar_synthesis_shape():
    s = haar().synthesis()
    assert [st_.update for st_ in s.steps] == [0, 1]
    assert s.steps[0].filter == lp({0: F(-1, 2)})
    assert s.steps[1].filter == lp({0: 1})
    assert s.k == 1


def test_synthesis_inverts_exact():
    rng = random.Random(7)
    for _ in range(60):
        c = random_alternating_cascade(rng, max_steps=6, max_taps=4)
        p = c.synthesis().evaluate() @ c.evaluate()
        assert p.is_identity()


def test_synthesis_inverts_with_base():
    c = wa_lifted_haar()
    p = c.synthesis().evaluate() @ c.evaluate()
    assert p.is_identity()


def _random_base(rng, kind):
    if kind == "lifted":
        base = PolyphaseMatrix.identity()
        for _ in range(rng.randrange(1, 4)):
            base = base.lifted(rng.randrange(2), random_filter(rng, max_taps=3))
        return base
    if kind == "diagonal":
        c = random_dyadic(rng)
        return PolyphaseMatrix.diagonal(c, 1 / c)
    d = rng.choice([-2, -1, 1, 2, 3])  # diag(z^-d, z^d)
    return PolyphaseMatrix(lp({d: 1}), lp({}), lp({}), lp({-d: 1}))


def _based_cascades(kind, seed=23):
    """Seeded exact cascades over one kind of base, with negative and
    non-unit gains."""
    rng = random.Random(seed)
    for k in [F(-3, 2), F(-1), F(2, 5), F(7, 3), F(1)] * 4:
        c = random_alternating_cascade(rng, max_steps=5, max_taps=3)
        yield c.replace(k=k, base=_random_base(rng, kind))


@pytest.mark.parametrize("kind", ["lifted", "diagonal", "delay"])
def test_synthesis_inverts_over_random_bases(kind):
    ident = PolyphaseMatrix.identity()
    for c in _based_cascades(kind):
        s = c.synthesis()
        h, g = c.evaluate(), s.evaluate()
        assert g @ h == ident and h @ g == ident
        # reference: the base solved from the product, (inverted steps)^-1 @ H^-1
        steps_only = LiftingCascade(s.steps, s.k)
        assert s.base == steps_only.evaluate().inverse() @ h.inverse()


def _float_filter(rng):
    return LaurentPoly({n: rng.uniform(-2, 2) for n in (-1, 0, 1)}, FLOAT)


def test_float_synthesis_over_a_lifted_base():
    # the derived base's det is 1 only up to rounding: it must not be refused
    rng = random.Random(61)
    ident = PolyphaseMatrix.identity(FLOAT)
    for _ in range(100):
        base = ident.lifted(rng.randrange(2), _float_filter(rng))
        m = rng.randrange(2)
        steps = [LiftingStep((m + i) % 2, _float_filter(rng)) for i in range(6)]
        c = LiftingCascade(steps, rng.uniform(0.5, 2), base, FLOAT)
        h = c.evaluate()
        p = c.synthesis().evaluate() @ h
        worst = max(
            (abs(x) for a, b in zip(p.entries(), ident.entries()) for _, x in (a - b).items()),
            default=0.0,
        )
        scale = max(1.0, max(abs(x) for e in h.entries() for _, x in e.items()))
        assert worst <= 1e-9 * scale**2


@pytest.mark.parametrize("n_steps", [6, 10, 16])
def test_float_synthesis_cascades_rebuild_and_round_trip(n_steps):
    # the derived base passes the constructor's det check, so the synthesis
    # cascade survives replace(), a spec round trip and a transform
    rng = random.Random(61)
    ident = PolyphaseMatrix.identity(FLOAT)
    x = [3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0] * 2
    for _ in range(100):
        base = ident.lifted(rng.randrange(2), _float_filter(rng))
        m = rng.randrange(2)
        steps = [LiftingStep((m + i) % 2, _float_filter(rng)) for i in range(n_steps)]
        s = LiftingCascade(steps, rng.uniform(0.5, 2), base, FLOAT).synthesis()
        assert s.replace() == s
        assert parse_spec(serialize_spec(s)) == s
        back = synthesize_signal(s, analyze_signal(s, x))
        # rounding grows with the intermediate channels, i.e. the partial products
        scale = max(
            [1.0]
            + [abs(c) for n in range(-1, s.n_steps) for e in s.partial_product(n).entries()
               for _, c in e.items()]
        )
        assert max(abs(a - b) for a, b in zip(back, x)) <= 1e-9 * scale**2


def test_synthesis_and_transforms_take_no_checked_inverse(monkeypatch):
    # a cascade's base passed the det check once, at construction
    def refuse(self):
        raise AssertionError("checked inverse taken of a validated base")

    monkeypatch.setattr(PolyphaseMatrix, "inverse", refuse)
    for c in (wa_lifted_haar(), wa_lifted_haar().replace(k=F(3, 2))):
        s = c.synthesis()
        assert (s.evaluate() @ c.evaluate()).is_identity()
        x = [3, -1, 4, 1, -5, 9]
        assert synthesize_signal(c, analyze_signal(c, x)) == x


def test_the_library_forms_no_full_polyphase_product(monkeypatch):
    # every product inside the library is a row or column update, a row
    # scaling or gamma; @, diagonal() and matrix() are the tests' references
    def refuse(*args, **kwargs):
        raise AssertionError("full polyphase product formed inside the library")

    banks = [haar(), five_three(), five_three(reversible=False), wa_lifted_haar(), cdf97()]
    monkeypatch.setattr(PolyphaseMatrix, "__matmul__", refuse)
    monkeypatch.setattr(PolyphaseMatrix, "diagonal", refuse)
    monkeypatch.setattr(LiftingStep, "matrix", refuse)
    x = [3, -1, 4, 1, -5, 9]
    for c in banks:
        assert analyze(c).compliance == check_part2(c)
        r = renormalize(c).cascade
        assert r.reversible or check_part2(r).compliant
        assert c.synthesis().evaluate().approx_eq(c.evaluate().adjugate(), 1e-9)
        back = synthesize_signal(c, analyze_signal(c, x))
        assert back == (x if c.mode == EXACT else pytest.approx(x))
        assert find_rescaling(c, c).relation == "identical"
        if not c.reversible:
            kappa = 2.0 if c.mode == FLOAT else F(3, 2)
            rescaled = rescale_cascade(c, kappa)
            assert rescaled.evaluate().approx_eq(c.evaluate(), 1e-12)
            assert find_rescaling(c, rescaled).kappa == kappa
        if c.mode == EXACT:
            assert factor_lifting(c.evaluate()).evaluate() == c.evaluate()


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_identity_base_synthesis_equals_the_conjugated_base(mode):
    # synthesis() keeps an identity base as it is; conjugating it through
    # every step and the gain gives the same matrix, field for field
    rng = random.Random(mode)
    cascades = [random_alternating_cascade(rng, mode=mode) for _ in range(20)]
    if mode == FLOAT:
        cascades += [cdf97()] + [random_float_cascade(rng) for _ in range(20)]
    for c in cascades:
        c = c.replace(base=PolyphaseMatrix.identity(mode))
        x = c.base.adjugate()
        for s in c.steps:
            x = x.lifted(s.update, s.filter).colifted(s.update, -s.filter)
        conjugated = gamma(x, c.k)
        got = c.synthesis()
        assert got.base.entries() == conjugated.entries()
        assert [repr(e.taps()) for e in got.base.entries()] == [
            repr(e.taps()) for e in conjugated.entries()]
        assert serialize_spec(got) == serialize_spec(got.replace(base=conjugated))


def test_float_synthesis_with_an_extreme_gain_fails_at_k():
    # K^2 overflows to inf or underflows to 0, so a step's factor (1/K^2 for
    # update 0, K^2 for update 1) is 0 or infinite
    def one_step(k, update):
        return LiftingCascade([LiftingStep(update, LaurentPoly({0: 2.0}, FLOAT))], k, mode=FLOAT)

    for k, update in [(1e200, 0), (1e200, 1), (1e-200, 0), (1e-200, 1)]:
        with pytest.raises(CascadeError, match="synthesis step") as info:
            one_step(k, update).synthesis()
        assert info.value.field == ("k",)
    # K^2 = 1e-310 is subnormal but nonzero: the step keeps its factor
    assert one_step(1e-155, 1).synthesis().steps[0].filter.taps() == {0: -2e-310}


def test_float_synthesis_whose_scaled_filter_under_or_overflows_fails_at_k():
    # the factor K^2 is finite and nonzero, but times the step-1 tap it
    # underflows to 0 (1e-308 * 1e-300) or overflows (1e300 * 1e10)
    for k, tap in [(1e-154, 1e-300), (1e150, 1e10)]:
        steps = [LiftingStep(0, LaurentPoly({0: 1.0}, FLOAT)),
                 LiftingStep(1, LaurentPoly({0: tap}, FLOAT))]
        cascade = LiftingCascade(steps, k, mode=FLOAT)
        text = f"gain K = {k!r} scales the synthesis step for step 1 to 0 or infinity"
        with pytest.raises(CascadeError, match=f"^{re.escape(text)}$") as info:
            cascade.synthesis()
        assert info.value.field == ("k",)


@pytest.mark.parametrize("k", [1e-200, 1e-160, 1e200])
def test_float_synthesis_whose_gain_scales_the_base_to_0_or_infinity_fails_at_k(k):
    # K^2 underflows to 0 or to a subnormal whose reciprocal overflows, or
    # overflows to inf: conjugating the base by the gain has no finite factor
    cascade = LiftingCascade([], k=k, base=PolyphaseMatrix.identity(FLOAT), mode=FLOAT)
    with pytest.raises(CascadeError, match="synthesis base") as info:
        cascade.synthesis()
    assert info.value.field == ("k",)


def test_repr_names_steps_gain_base_and_kind():
    assert repr(haar()) == "<LiftingCascade 2 steps, K=1, exact irreversible>"
    assert repr(five_three()) == "<LiftingCascade 2 steps, K=1, reversible>"
    assert repr(wa_lifted_haar().replace(k=F(3, 2))) == (
        "<LiftingCascade 2 steps, K=3/2, base, exact irreversible>"
    )
    assert repr(LiftingCascade([], k=2.0, mode=FLOAT)) == (
        "<LiftingCascade 0 steps, K=2.0, float irreversible>"
    )


def test_synthesis_inverts_float():
    p = cdf97().synthesis().evaluate() @ cdf97().evaluate()
    assert p.approx_eq(PolyphaseMatrix.identity(FLOAT), 1e-9)


def test_synthesis_preserves_reversibility():
    s = five_three().synthesis()
    assert s.reversible
    assert s.k == 1


def test_synthesis_nontrivial_gain():
    # K != 1 exercises the gamma scaling of the reversed steps
    c = haar().replace(k=F(3, 2))
    p = c.synthesis().evaluate() @ c.evaluate()
    assert p.is_identity()


# -- construction-time validation -------------------------------------------


def test_reversible_constraints():
    good = five_three()
    assert good.reversible and good.k == 1 and good.base is None
    with pytest.raises(ValueError):
        LiftingCascade([step(0, {0: F(1, 3)})], reversible=True)
    with pytest.raises(ValueError):
        LiftingCascade([step(0, {0: F(1, 2)})], k=2, reversible=True)
    with pytest.raises(ValueError):
        LiftingCascade(
            [step(0, {0: F(1, 2)})], base=haar_base(), reversible=True
        )
    with pytest.raises(ValueError):
        LiftingCascade(
            [LiftingStep(0, LaurentPoly({0: 0.5}, FLOAT))],
            mode=FLOAT,
            reversible=True,
        )


def test_base_must_be_unimodular():
    bad = PolyphaseMatrix(lp({0: 2}), lp({}), lp({}), lp({0: 1}))
    with pytest.raises(ValueError):
        LiftingCascade([step(0, {0: 1})], base=bad)


def test_zero_gain_rejected():
    with pytest.raises(ValueError):
        LiftingCascade([step(0, {0: 1})], k=0)


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        LiftingCascade([step(0, {0: 1})], mode=FLOAT)
    with pytest.raises(ModeError, match="base matrix mode"):
        LiftingCascade([step(0, {0: 1})], base=PolyphaseMatrix.identity(FLOAT))
    with pytest.raises(TypeError, match="LiftingStep"):
        LiftingCascade([lp({0: 1})])


def test_replace():
    c = haar()
    d = c.replace(k=F(2))
    assert d.k == F(2) and d.steps == c.steps and c.k == 1
    e = five_three().replace(rounding=ROUND_FLOOR)
    assert e.rounding is ROUND_FLOOR and e.reversible


def test_equality_includes_rounding():
    assert five_three() == five_three()
    assert five_three() != five_three(rounding=ROUND_FLOOR)
    assert haar() != haar(reversible=True)


# -- rounding rules: reversible cascades only, one of the registered five -------


@pytest.mark.parametrize(
    "rule",
    [RoundingRule("odd", 0, 0, False), RoundingRule("half-up", 0, 0, False), "floor"],
    ids=["new-name", "registered-name-other-bias", "name-string"],
)
def test_reversible_cascades_refuse_an_unregistered_rule(rule):
    # a rule whose fields no registered rule has could not be written to a
    # spec and read back: the spec stores the name alone
    with pytest.raises(CascadeError, match="rounding must be one of") as info:
        LiftingCascade(five_three().steps, reversible=True, rounding=rule)
    assert info.value.field == ("rounding",)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_irreversible_cascades_refuse_any_rule(mode):
    with pytest.raises(CascadeError, match="reversible cascades only") as info:
        LiftingCascade([step(0, {0: 1}, mode)], mode=mode, rounding=DEFAULT_ROUNDING)
    assert info.value.field == ("rounding",)
    with pytest.raises(CascadeError) as info:
        haar(rounding=ROUND_FLOOR)
    assert info.value.field == ("rounding",)
    assert haar().rounding is None and five_three().rounding == DEFAULT_ROUNDING


_dyadic = st.builds(F, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 4, 8]))
_api_steps = st.lists(
    st.tuples(st.integers(0, 1), st.dictionaries(st.integers(-2, 2), _dyadic, min_size=1)),
    max_size=4,
)


def _api_cascade(kind, steps, k, with_base):
    """A cascade built through the API: reversible under a rule name, or irreversible."""
    if kind in ROUNDING_RULES:
        return LiftingCascade([step(u, t) for u, t in steps], reversible=True,
                              rounding=ROUNDING_RULES[kind])
    mode = kind
    cast = (lambda c: c) if mode == EXACT else float
    return LiftingCascade(
        [step(u, {n: cast(c) for n, c in t.items()}, mode) for u, t in steps],
        k=cast(k),
        base=haar_base(mode).lifted(1, LaurentPoly({1: cast(k)}, mode)) if with_base else None,
        mode=mode,
    )


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(ROUNDING_RULES) + [EXACT, FLOAT]),
    _api_steps,
    _dyadic,
    st.booleans(),
    st.lists(st.integers(-99, 99), min_size=1, max_size=6),
)
def test_api_cascades_survive_spec_pickle_and_deepcopy(kind, steps, k, with_base, half):
    cascade = _api_cascade(kind, steps, k, with_base)
    x = [v if kind != FLOAT else v / 4 for v in half + half[::-1]]
    bands = analyze_signal(cascade, x)
    twins = [
        parse_spec(serialize_spec(cascade)),
        pickle.loads(pickle.dumps(cascade)),
        copy.deepcopy(cascade),
    ]
    for twin in twins:
        assert twin == cascade and twin.rounding == cascade.rounding
        # repr keeps the float bits and signed zeros that == would let pass
        assert repr(analyze_signal(twin, x)) == repr(bands)
        assert repr(synthesize_signal(twin, bands)) == repr(synthesize_signal(cascade, bands))


# -- rounding kernels against Fraction references ------------------------------


@pytest.mark.parametrize("name", sorted(ROUNDING_RULES))
def test_rounding_kernel_matches_fraction_reference(name):
    assert set(REFERENCE_ROUNDING) == set(ROUNDING_RULES)
    rule, ref = ROUNDING_RULES[name], REFERENCE_ROUNDING[name]

    def rounded(nums, shift):
        # every num / 2**shift rounded as one reversible step adds it to a zero sample
        step = LiftingStep(0, LaurentPoly({0: F(1, 1 << shift)}))
        cascade = LiftingCascade([step], reversible=True, rounding=rule)
        return list(analyze_signal(cascade, [v for num in nums for v in (0, num)]).lowpass)

    for shift in range(6):
        # every residue, ties (num = odd * 2**(shift-1)) and negatives included
        nums = range(-(3 << shift) - 1, (3 << shift) + 2)
        assert rounded(nums, shift) == [ref(F(num, 1 << shift)) for num in nums], shift
        for num in nums:  # one sample at a time, as a block of one
            assert rounded((num,), shift) == [ref(F(num, 1 << shift))], (num, shift)
    big = (1 << 70) + (1 << 9)  # a tie far beyond float precision
    assert rounded([big, -big], 10) == [ref(F(big, 1 << 10)), ref(F(-big, 1 << 10))]


# -- constructor validation: one check, one place -------------------------------


@pytest.mark.parametrize("update", [True, False, 1.0, 0.0, "0"])
def test_step_update_must_be_int_zero_or_one(update):
    with pytest.raises(ValueError, match="update must be 0 or 1"):
        LiftingStep(update, lp({0: 1}))


def test_nan_base_rejected():
    big = LaurentPoly({0: 1e200}, FLOAT)
    base = PolyphaseMatrix(big, big, big, big)  # det = inf - inf = NaN
    with pytest.raises(ValueError, match="det 1"):
        LiftingCascade([], base=base, mode=FLOAT)


def test_float_step_rejects_non_finite_taps():
    big = LaurentPoly({0: 1e200, 1: 1.0}, FLOAT)
    with pytest.raises(CascadeError, match="non-finite") as info:
        LiftingStep(0, big * big)  # 1e400 overflows to inf
    assert info.value.field == ("filter",)
    with pytest.raises(CascadeError, match="non-finite"):
        LiftingStep(1, big * big - big * big)  # inf - inf = NaN


def test_cascade_errors_name_the_field():
    with pytest.raises(CascadeError) as info:
        LiftingCascade([step(0, {0: 1}), step(1, {0: F(1, 3)})], reversible=True)
    assert info.value.field == ("steps", 1, "filter")
    with pytest.raises(CascadeError) as info:
        LiftingCascade([], k=0)
    assert info.value.field == ("k",)
    # a K past Python's int->str digit limit is named by its size
    with pytest.raises(CascadeError, match="require K = 1, got a 16610-bit rational$") as info:
        LiftingCascade([], k=F(10**5000), reversible=True)
    assert info.value.field == ("k",)


@pytest.mark.parametrize("k", [float("inf"), float("-inf"), float("nan"), "1e400", "two"])
def test_unusable_float_gain_is_refused_at_k(k):
    # like the other gain refusals, and unlike a bare ValueError, it names K
    with pytest.raises(CascadeError, match="^gain K: ") as info:
        LiftingCascade([], k=k, mode=FLOAT)
    assert info.value.field == ("k",)
    assert SpecFormatError.located(info.value).where == "$.k"


def test_float_gain_in_exact_mode_stays_a_mode_error():
    with pytest.raises(ModeError):
        LiftingCascade([], k=0.5)
