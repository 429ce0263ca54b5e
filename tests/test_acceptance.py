"""Acceptance gate: the contract this package is built against.

Each test covers one numbered criterion and prints a single
``criterion N: PASS/FAIL`` line directly to the real stdout (bypassing
pytest capture) so the verdicts are visible in any test log.  Timed
criteria print their wall time; those with a budget of seconds assert it,
while the sub-millisecond evaluations of criteria 1 and 2 only report it,
because a budget that small fails under machine load.
"""

import functools
import glob
import json
import os
import random
import sys
import time
from fractions import Fraction as F

import pytest

from liftbank import (
    FactorStrategy,
    HIGH_END,
    LOW_END,
    LaurentPoly,
    PolyphaseMatrix,
    ROUNDING_RULES,
    analyze,
    analyze_signal,
    check_part2,
    factor_lifting,
    find_rescaling,
    load_spec,
    parse_spec,
    renormalize,
    rescale_cascade,
    scalar_dc_recursion,
    serialize_spec,
    synthesize_signal,
)
from liftbank.banks import (
    dc_counterexample,
    five_three,
    haar,
    identity_eight_step,
    identity_six_step,
    wa_lifted_haar,
)
from liftbank.cli import main

from conftest import (
    direct_filter,
    lp,
    random_alternating_cascade,
    random_constant_cascade,
    random_float_cascade,
)

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "specs")

_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_channel(capsys):
    """Stash the capture fixture so report() can step around it."""
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def report(number, ok, label, elapsed=None):
    timing = "" if elapsed is None else f" ({elapsed * 1000:.1f} ms)"
    line = f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} — {label}{timing}\n"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
    assert ok, line.strip()


def test_criterion_01_haar_evaluation():
    cascade = haar()
    t0 = time.perf_counter()
    matrix = cascade.evaluate()
    pair = matrix.to_filters()
    elapsed = time.perf_counter() - t0
    expected = PolyphaseMatrix(
        lp({0: F(1, 2)}), lp({0: F(1, 2)}), lp({0: -1}), lp({0: 1})
    )
    ok = matrix == expected and pair.lowpass.evaluate(1) == 1
    report(1, ok, "Haar cascade evaluates to [[1/2,1/2],[-1,1]] with H0(1)=1", elapsed)


def test_criterion_02_identity_liftings():
    eye = PolyphaseMatrix.identity()
    eight_cascade = identity_eight_step()
    six_cascade = identity_six_step()
    t0 = time.perf_counter()
    eight = eight_cascade.evaluate()
    six = six_cascade.evaluate()
    elapsed = time.perf_counter() - t0
    ok = eight == eye and six == eye
    report(2, ok, "8-step and 6-step identity liftings multiply out to I", elapsed)


def test_criterion_03_compliance_verdicts():
    bad = check_part2(dc_counterexample())
    ok = (
        not bad.compliant
        and bad.actual_b == 3
        and any("B_0 = 3 != 1" in r for r in bad.reasons)
        and check_part2(haar()).compliant
        and check_part2(five_three()).compliant
        and five_three().reversible
    )
    report(3, ok, "counterexample non-compliant with B_0 = 3; Haar and 5/3 compliant")


@functools.lru_cache(maxsize=1)
def _equivalence_population():
    rng = random.Random(0xC4)
    return tuple(random_alternating_cascade(rng) for _ in range(500))


@functools.lru_cache(maxsize=1)
def _equivalence_matrices():
    return tuple(c.evaluate() for c in _equivalence_population())


def test_criterion_04_compliance_equivalences():
    t0 = time.perf_counter()
    seen_compliant = seen_noncompliant = 0
    ok = True
    for cascade in _equivalence_population():
        trace = cascade.dc_trace()
        variants = [cascade]
        if trace.vectors[cascade.n_steps][0] != 0:
            variants.append(renormalize(cascade).cascade)
        for v in variants:
            vtrace = v.dc_trace()
            gains = [s.dc_gain() for s in v.steps]
            if scalar_dc_recursion(gains) != vtrace.b:
                ok = False
            e0_dc = vtrace.vectors[v.n_steps][0]
            h0_dc = v.evaluate().to_filters().lowpass.evaluate(1)
            compliant = check_part2(v).compliant
            if compliant != (e0_dc == v.k) or compliant != (h0_dc == 1):
                ok = False
            if compliant:
                seen_compliant += 1
            else:
                seen_noncompliant += 1
    elapsed = time.perf_counter() - t0
    ok = ok and seen_compliant >= 100 and seen_noncompliant >= 100 and elapsed < 5.0
    report(
        4,
        ok,
        f"500 random cascades: compliant <=> E0(1)=K <=> H0(1)=1, both DC "
        f"recursions agree ({seen_compliant} compliant / {seen_noncompliant} not)",
        elapsed,
    )


def test_criterion_05_perfect_reconstruction():
    t0 = time.perf_counter()
    one = LaurentPoly.one()
    ok = all(m.determinant() == one for m in _equivalence_matrices())
    elapsed = time.perf_counter() - t0
    report(5, ok, "det(evaluate(c)) = 1 for every criterion-4 cascade", elapsed)


def test_criterion_06_rescaling():
    t0 = time.perf_counter()
    rng = random.Random(0xC6)
    kappas = (F(2), F(1, 2), F(3, 2), F(5))
    ok = True
    for _ in range(100):
        cascade = random_alternating_cascade(rng)
        matrix = cascade.evaluate()
        for kappa in kappas:
            scaled = rescale_cascade(cascade, kappa)
            witness = find_rescaling(cascade, scaled)
            if scaled.evaluate() != matrix:
                ok = False
            if not witness.equivalent or witness.kappa != kappa:
                ok = False
    haar_pair = find_rescaling(haar(), rescale_cascade(haar(), F(2)))
    ok = ok and haar_pair.equivalent and haar_pair.kappa == 2
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 2.0
    report(
        6,
        ok,
        "rescaling by {2, 1/2, 3/2, 5} is evaluation-invariant and recoverable; "
        "Haar pair gives kappa = 2",
        elapsed,
    )


def test_criterion_07_reversible_bit_perfection():
    t0 = time.perf_counter()
    rng = random.Random(0xC7)
    split = ((2, 400), (4, 300), (64, 200), (1024, 100))
    trips = 0
    ok = True
    for name in sorted(ROUNDING_RULES):
        rule = ROUNDING_RULES[name]
        for cascade in (
            five_three(rounding=rule),
            haar(reversible=True, rounding=rule),
        ):
            for length, count in split:
                for _ in range(count):
                    sig = [rng.randint(-(1 << 20), 1 << 20) for _ in range(length)]
                    if synthesize_signal(cascade, analyze_signal(cascade, sig)) != sig:
                        ok = False
                    trips += 1
    elapsed = time.perf_counter() - t0
    ok = ok and trips == 10000 and elapsed < 5.0
    report(
        7,
        ok,
        "5/3 and Haar reversible: 1000 signals x 5 rounding rules x 2 banks, "
        "bit-exact round trips",
        elapsed,
    )


def test_criterion_08_direct_filtering_agreement():
    t0 = time.perf_counter()
    rng = random.Random(0xC8)
    worst = 0.0
    for _ in range(50):
        cascade = random_float_cascade(rng)
        sig = [rng.uniform(-10.0, 10.0) for _ in range(32)]
        lifted = analyze_signal(cascade, sig)
        direct = direct_filter(cascade, sig)
        worst = max(
            worst,
            max(
                abs(a - b)
                for a, b in zip(
                    lifted.lowpass + lifted.highpass,
                    direct.lowpass + direct.highpass,
                )
            ),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 2.0
    report(
        8,
        ok,
        f"lifting vs direct filtering on 50 float cascades: max |diff| = {worst:.2e}",
        elapsed,
    )


def test_criterion_09_factorization_round_trip():
    t0 = time.perf_counter()
    strategies = [FactorStrategy(reduction=r) for r in (HIGH_END, LOW_END)]
    ok = True

    rng = random.Random(0xC9)
    for _ in range(100):
        matrix = random_constant_cascade(rng).evaluate()
        for strategy in strategies:
            if factor_lifting(matrix, strategy).evaluate() != matrix:
                ok = False

    # wider FIR population: every draw factors (a delayed diagonal becomes
    # the base) and must round-trip exactly
    rng = random.Random(0x5EED)
    successes = draws = 0
    while draws < 100:
        draws += 1
        matrix = random_alternating_cascade(rng, max_steps=5, max_taps=4).evaluate()
        factored = [factor_lifting(matrix, s) for s in strategies]
        if all(f.evaluate() == matrix for f in factored):
            successes += 1

    empty = factor_lifting(PolyphaseMatrix.identity())
    elapsed = time.perf_counter() - t0
    ok = ok and successes == 100 and empty.n_steps == 0 and elapsed < 10.0
    report(
        9,
        ok,
        f"factor/evaluate round-trips: 100 constant cascades under both "
        f"reductions, {successes} FIR matrices in {draws} draws; factor(I) empty",
        elapsed,
    )


def test_criterion_10_symmetry_classification():
    ft = analyze(five_three())
    wa = analyze(wa_lifted_haar())
    eight = analyze(identity_eight_step())
    six = analyze(identity_six_step())
    ok = (
        ft.group_lifting == "WS-group"
        and ft.linear_phase == "WS"
        and wa.group_lifting == "HS-group"
        and eight.group_lifting == "neither"
        and six.group_lifting == "neither"
    )
    report(
        10,
        ok,
        "5/3 is WS-group with WS filters, WA-over-Haar is HS-group, "
        "identity liftings are neither",
    )


def test_criterion_11_cli_end_to_end(capsys):
    fixtures = sorted(
        p
        for p in glob.glob(os.path.join(SPEC_DIR, "*.json"))
        if not p.endswith("haar_matrix.json")
    )
    ok = len(fixtures) >= 10
    for path in fixtures:
        cascade = load_spec(path)
        verdict = analyze(cascade).compliance
        code = main(["validate", path])
        capsys.readouterr()
        if code != (0 if verdict.compliant else 1):
            ok = False

        text = serialize_spec(cascade)
        with open(path, "r", encoding="utf-8") as fh:
            if fh.read() != text or parse_spec(text) != cascade:
                ok = False

        for fmt in ("text", "json"):
            main(["analyze", path, "--format", fmt])
            first = capsys.readouterr().out
            main(["analyze", path, "--format", fmt])
            if capsys.readouterr().out != first:
                ok = False
        doc = json.loads(text)
        if json.loads(serialize_spec(parse_spec(json.dumps(doc)))) != doc:
            ok = False
    report(
        11,
        ok,
        f"CLI validate/analyze over {len(fixtures)} fixtures: exit codes match "
        "library verdicts, reports and spec files byte-stable",
    )
