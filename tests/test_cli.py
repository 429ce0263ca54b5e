"""End-to-end command-line checks, driven through ``cli.main`` so exit
codes and stream routing are exercised without spawning processes."""

import json
import os
import random
import re
from fractions import Fraction as F

import pytest

from liftbank import (
    FLOAT,
    LaurentPoly,
    LiftingCascade,
    LiftingStep,
    PolyphaseMatrix,
    load_spec,
    parse_matrix,
    parse_spec,
    rescale_cascade,
    serialize_matrix,
    serialize_spec,
    write_signal,
)
from liftbank.banks import five_three, haar, haar_base
from liftbank.cli import main

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "specs")


def spec(name):
    return os.path.join(SPEC_DIR, name)


def test_validate_compliant_exits_zero(capsys):
    assert main(["validate", spec("haar.json")]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == "compliant"
    assert out.err == ""


def test_validate_noncompliant_exits_one(capsys):
    assert main(["validate", spec("counterexample.json")]) == 1
    out = capsys.readouterr()
    assert out.out.strip() == "non-compliant"
    assert "B_0 = 3 != 1 (reversible requirement)" in out.err


def test_validate_clips_huge_values_in_its_reason(tmp_path, capsys):
    with open(spec("haar.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["k"] = "1e400"
    path = tmp_path / "huge_k.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "non-compliant\n"
    assert out.err == f"B_1 = 1 != {'1' + '0' * 60}... (irreversible requirement)\n"


def test_validate_missing_file_exits_two(capsys):
    assert main(["validate", spec("no_such.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert main(["validate", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["analyze"], b'{"mode": "irreversible", "steps": []}'),
        (["factor"], b"[[[], []], [[], []]]"),
        (["transform", spec("haar.json")], b"1\n2\n"),
    ],
    ids=["spec", "matrix", "signal"],
)
def test_file_that_is_not_utf8_exits_two_at_its_path(tmp_path, capsys, argv, text):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(text + b"\n\xe9\n")  # a Latin-1 e-acute
    assert main([*argv, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: not UTF-8 text (invalid continuation byte)\n"


def test_analyze_text_is_deterministic(capsys):
    assert main(["analyze", spec("fivethree.json")]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", spec("fivethree.json")]) == 0
    assert capsys.readouterr().out == first
    assert "lowpass:" in first
    assert "part 2" in first or "part2:" in first


def test_analyze_json_report(capsys):
    assert main(["analyze", spec("wa_lifted_haar.json"), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["group_lifting"] == "HS-group"
    assert doc["compliance"]["verdict"] == "compliant"


def test_compare_identical(capsys):
    assert main(["compare", spec("haar.json"), spec("haar_lifted_a.json")]) == 0
    assert capsys.readouterr().out.strip() == "identical"


def test_compare_equivalent(capsys):
    code = main(["compare", spec("haar_lifted_a.json"), spec("haar_lifted_b.json")])
    assert code == 0
    assert capsys.readouterr().out.strip() == (
        "equivalent modulo rescaling, kappa = 2"
    )


def test_compare_inequivalent(capsys):
    assert main(["compare", spec("haar.json"), spec("fivethree.json")]) == 1
    assert capsys.readouterr().out.strip() == "inequivalent"


def test_transform_round_trip(tmp_path):
    sig = tmp_path / "sig.txt"
    bands = tmp_path / "bands.txt"
    back = tmp_path / "back.txt"
    write_signal([12, -7, 3, 44, 0, 5], sig)
    assert main([
        "transform", spec("fivethree.json"), str(sig), "-o", str(bands),
    ]) == 0
    assert main([
        "transform", spec("fivethree.json"), str(bands),
        "--direction", "synthesize", "-o", str(back),
    ]) == 0
    assert back.read_text() == sig.read_text()


def test_transform_round_trip_of_samples_beyond_64_bits(tmp_path):
    # a 2**70 sample takes the reversible transform onto wider slots
    sig, bands, back = tmp_path / "sig.txt", tmp_path / "bands.txt", tmp_path / "back.txt"
    write_signal([2**70, -5, 3, -(2**70) + 1, 7, 0, -1, 2**69], sig)
    assert main(["transform", spec("fivethree.json"), str(sig), "-o", str(bands)]) == 0
    assert max(abs(int(v)) for v in bands.read_text().split()) > 2**69
    assert main([
        "transform", spec("fivethree.json"), str(bands),
        "--direction", "synthesize", "-o", str(back),
    ]) == 0
    assert back.read_text() == sig.read_text()


def test_transform_irreversible_to_stdout(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    write_signal([2, 3], sig)
    assert main(["transform", spec("haar.json"), str(sig)]) == 0
    assert capsys.readouterr().out == "2.5\n1\n"


def test_transform_odd_subband_file_fails(tmp_path, capsys):
    bands = tmp_path / "bands.txt"
    write_signal([1, 2, 3], bands)
    code = main([
        "transform", spec("fivethree.json"), str(bands),
        "--direction", "synthesize",
    ])
    assert code == 1
    out, err = capsys.readouterr()
    assert "lowpass then highpass" in err and str(bands) in err
    assert out == ""


@pytest.mark.parametrize("direction", ["analyze", "synthesize"])
@pytest.mark.parametrize("samples", [[1, 2, 3], []], ids=["odd", "empty"])
def test_transform_length_refusal_names_the_file(tmp_path, capsys, direction, samples):
    sig = tmp_path / "sig.txt"
    write_signal(samples, sig)
    assert main(["transform", spec("fivethree.json"), str(sig), "--direction", direction]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {sig}: got {len(samples)} samples")
    assert out == ""


def test_transform_reversible_rejects_fractions(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    sig.write_text("0.5\n1\n")
    assert main(["transform", spec("fivethree.json"), str(sig)]) == 2
    assert "integer samples" in capsys.readouterr().err


def test_factor_default_strategy(capsys):
    assert main(["factor", spec("haar_matrix.json")]) == 0
    cascade = parse_spec(capsys.readouterr().out)
    assert cascade.evaluate() == haar_base()
    assert cascade.n_steps == 5 and cascade.k == 1


def test_factor_highpass_first(tmp_path):
    out = tmp_path / "factored.json"
    assert main([
        "factor", spec("haar_matrix.json"), "--first", "highpass",
        "-o", str(out),
    ]) == 0
    cascade = load_spec(out)
    assert cascade.evaluate() == haar_base()
    assert cascade.n_steps == 2 and cascade.k == 2


def test_factor_delayed_diagonal_writes_a_delay_base(tmp_path, capsys):
    matrix = tmp_path / "delayed.json"
    matrix.write_text(json.dumps(
        [[[{"n": -1, "c": 1}], []], [[], [{"n": 1, "c": 1}]]]
    ))
    assert main(["factor", str(matrix)]) == 0
    cascade = parse_spec(capsys.readouterr().out)
    assert cascade.n_steps == 0 and cascade.k == 1
    assert cascade.base == parse_matrix(matrix.read_text())

    # the 5/3 bank: K and a delay base under every strategy
    matrix.write_text(serialize_matrix(five_three().evaluate()))
    for options in ([], ["--first", "highpass"], ["--reduction", "low-end"]):
        assert main(["factor", str(matrix), *options]) == 0
        cascade = parse_spec(capsys.readouterr().out)
        assert cascade.evaluate() == five_three().evaluate()
        assert cascade.base is not None


_BIG = "7" * 3000  # within MAX_SCALAR_DIGITS; its square has 6000 digits


def _big_diagonal():
    entry = [{"n": 0, "c": _BIG}]
    return [[entry, []], [[], entry]]


def test_base_with_a_huge_determinant_exits_two_at_the_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"mode": "irreversible", "base": _big_diagonal(), "steps": []}
    ))
    for command in ("analyze", "validate"):
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: $: base matrix must have det 1, got det "), err[:200]
        assert "span 1 with 19931-bit coefficients" in err and len(err) < 200


def test_factor_huge_determinant_gives_a_bounded_error(tmp_path, capsys):
    matrix = tmp_path / "big.json"
    matrix.write_text(json.dumps(_big_diagonal()))
    assert main(["factor", str(matrix)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: matrix is not unimodular: det "), err[:200]
    assert len(err) < 200


def test_rescale_writes_equivalent_spec(tmp_path, capsys):
    out = tmp_path / "scaled.json"
    assert main([
        "rescale", spec("haar.json"), "--kappa", "3/2", "-o", str(out),
    ]) == 0
    scaled = load_spec(out)
    assert scaled.k == F(3, 2)
    assert main(["compare", spec("haar.json"), str(out)]) == 0
    assert "kappa = 3/2" in capsys.readouterr().out


def test_rescale_takes_a_negative_ratio_after_an_equals_sign(capsys):
    # "--kappa -1/2" reads to argparse as a second option; "--kappa=-1/2" does not
    assert main(["rescale", spec("haar.json"), "--kappa=-1/2"]) == 0
    assert capsys.readouterr().out == serialize_spec(rescale_cascade(haar(), F(-1, 2)))


def test_rescale_bad_kappa_exits_two(capsys):
    assert main(["rescale", spec("haar.json"), "--kappa", "lots"]) == 2
    assert "error:" in capsys.readouterr().err


def test_rescale_reversible_exits_one(capsys):
    assert main(["rescale", spec("fivethree.json"), "--kappa", "2"]) == 1
    assert "reversible" in capsys.readouterr().err


_STEPS = '"steps": [{"update": 0, "taps": [{"n": 0, "c": 1}]}]'
_FLOAT = '{"mode": "irreversible", "arithmetic": "float", %s, ' + _STEPS + "}"
_EXACT = '{"mode": "irreversible", %s, ' + _STEPS + "}"


@pytest.mark.parametrize(
    "text, where",
    [
        (_FLOAT % '"k": NaN', "$.k"),
        (_FLOAT % '"k": 1e400', "$.k"),
        (_EXACT % ('"k": ' + "7" * 5000), "$"),
        (_EXACT % '"rounding": []', "$.rounding"),
        (_EXACT % '"rounding": {}', "$.rounding"),
        (_EXACT % '"rounding": "floor"', "$.rounding"),
        (_EXACT % '"k": "1e4000000"', "$.k"),
        (
            '{"mode": "irreversible", '
            '"steps": [{"update": 1.0, "taps": [{"n": 0, "c": 1}]}]}',
            "$.steps[0].update",
        ),
    ],
    ids=[
        "nan", "overflow", "5000-digit-int", "rounding-list", "rounding-object",
        "rounding-irreversible", "huge-exponent", "update-float",
    ],
)
def test_malformed_spec_exits_two_with_a_path(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for command in ("analyze", "validate"):
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: "), err


def test_rescale_overflowing_kappa_exits_two(capsys):
    assert main(["rescale", spec("cdf97.json"), "--kappa", "1e400"]) == 2
    assert "--kappa: " in capsys.readouterr().err


def test_rescale_overflowing_taps_exits_one_and_writes_nothing(tmp_path, capsys):
    # a finite kappa whose kappa^-2 overflows the 9/7's update-1 taps
    out = tmp_path / "scaled.json"
    argv = ["rescale", spec("cdf97.json"), "--kappa", "9e-155", "-o", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and len(err) < 200, err[:200]
    assert not out.exists()


@pytest.mark.parametrize("kappa", ["1e-200", "1e-160", "1e200"])
def test_rescale_kappa_whose_square_under_or_overflows_exits_one(kappa, capsys):
    assert main(["rescale", spec("cdf97.json"), f"--kappa={kappa}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: kappa = ") and "step 0" in lines[0]


def test_compare_against_a_gain_no_rescaling_reaches_says_inequivalent(tmp_path, capsys):
    # kappa = K_b / K_a = 8.1e199 would scale the 9/7's first filter to 0
    far = tmp_path / "far.json"
    far.write_text(serialize_spec(load_spec(spec("cdf97.json")).replace(k=1e200)))
    assert main(["compare", spec("cdf97.json"), str(far)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("inequivalent\n", "")


def test_rescale_overflowing_base_exits_one_and_writes_nothing(tmp_path, capsys):
    based = tmp_path / "based.json"
    based.write_text(serialize_spec(LiftingCascade(
        [LiftingStep(0, LaurentPoly({0: 0.5}, FLOAT))],
        base=PolyphaseMatrix.diagonal(1e300, 1e-300, FLOAT), mode=FLOAT,
    )))
    out = tmp_path / "scaled.json"
    assert main(["rescale", str(based), "--kappa", "1e10", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: kappa = 10000000000.0 scales the gain or the base ")
    assert not out.exists()


def test_transform_overflowing_output_exits_one_and_writes_nothing(tmp_path, capsys):
    # 1 + 2*2 = 5 over K = 1e-308 overflows the float lowpass band
    tiny = tmp_path / "tiny.json"
    tiny.write_text(
        '{"mode": "irreversible", "arithmetic": "float", "k": 1e-308,'
        ' "steps": [{"update": 0, "taps": [{"n": 0, "c": 2}]}]}'
    )
    sig = tmp_path / "sig.txt"
    sig.write_text("1\n2\n")
    assert main(["transform", str(tiny), str(sig)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err and len(captured.err) < 200, captured.err[:200]
    out = tmp_path / "bands.txt"
    assert main(["transform", str(tiny), str(sig), "-o", str(out)]) == 1
    assert not out.exists()


def test_transform_output_past_the_int_str_limit_exits_two_at_its_line(tmp_path, capsys):
    # K = 10**4000 times a 1000-digit sample: the highpass sample has about 5000 digits
    big = tmp_path / "big.json"
    big.write_text('{"mode": "irreversible", "arithmetic": "exact", "k": "1' + "0" * 4000 + '",'
                   ' "steps": [{"update": 0, "taps": [{"n": 0, "c": "1"}]}]}')
    sig = tmp_path / "sig.txt"
    sig.write_text("1\n" + "9" * 1000 + "\n")
    assert main(["transform", str(big), str(sig)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: <stdout>:2: a \d+-bit rational is past Python's int->str "
                        r"digit limit\n", captured.err), captured.err[:200]
    out = tmp_path / "bands.txt"
    assert main(["transform", str(big), str(sig), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}:2: a ")
    assert not out.exists()


def test_rescale_huge_exponent_kappa_exits_two(capsys):
    assert main(["rescale", spec("haar.json"), "--kappa", "1e4000000"]) == 2
    assert "--kappa: " in capsys.readouterr().err


def test_transform_huge_exponent_sample_exits_two(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    sig.write_text("1\n1e4000000\n")
    assert main(["transform", spec("haar.json"), str(sig)]) == 2
    assert f"{sig}:2: " in capsys.readouterr().err


_LONG = "1e" + "9" * 5000  # a 5002-character literal


@pytest.mark.parametrize(
    "text, where",
    [
        (_EXACT % f'"k": "{_LONG}"', "$.k"),
        (_FLOAT % f'"k": "{_LONG}"', "$.k"),
        (_EXACT % f'"k": "{"x" * 4000}"', "$.k"),
        (_EXACT % f'"{"x" * 5000}": 1', "$"),
        ('{"mode": "%s", %s}' % ("x" * 5000, _STEPS), "$.mode"),
    ],
    ids=["exact-k", "float-k", "garbage-k", "key", "mode"],
)
def test_long_spec_literal_gives_a_bounded_error(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: "), err[:200]
    assert len(err) < 200, err[:200]


@pytest.mark.parametrize(
    "name, literal",
    [("haar.json", _LONG), ("cdf97.json", _LONG), ("fivethree.json", "9" * 5000 + "x")],
    ids=["exact", "float", "reversible"],
)
def test_long_sample_gives_a_bounded_error(tmp_path, capsys, name, literal):
    sig = tmp_path / "sig.txt"
    sig.write_text(f"1\n{literal}\n")
    assert main(["transform", spec(name), str(sig)]) == 2
    err = capsys.readouterr().err
    assert f"{sig}:2: " in err
    assert len(err) < 200 + len(str(sig)), err[:200]


def test_long_kappa_gives_a_bounded_error(capsys):
    assert main(["rescale", spec("haar.json"), "--kappa", _LONG]) == 2
    err = capsys.readouterr().err
    assert "--kappa: " in err and len(err) < 200, err[:200]


@pytest.mark.parametrize("k", ["1e-308", "1e-320"])
def test_analyze_overflowing_gain_exits_two_at_k(tmp_path, capsys, k):
    # 1/K = 1e308 times the tap 2 overflows; 1/K of a subnormal K is inf
    tiny = tmp_path / "tiny.json"
    tiny.write_text(
        f'{{"mode":"irreversible","arithmetic":"float","k":{k},'
        '"steps":[{"update":0,"taps":[{"n":0,"c":2}]}]}'
    )
    assert main(["analyze", str(tiny)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: $.k: "), captured.err


def test_analyze_overflowing_step_products_exits_two_at_steps(tmp_path, capsys):
    # K = 1 scales nothing; the product's entry 1 + 1e300 * 1e300 is inf
    big = tmp_path / "big.json"
    big.write_text(
        '{"mode":"irreversible","arithmetic":"float","k":1.0,'
        '"steps":[{"update":1,"taps":[{"n":0,"c":1e300}]},'
        '{"update":0,"taps":[{"n":0,"c":1e300}]}]}'
    )
    assert main(["analyze", str(big)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: $.steps: "), captured.err


def test_transform_names_the_gain_that_overflows_finite_samples(tmp_path, capsys):
    # every sample is finite; the gain K = 1e308 takes the highpass band to inf
    doc = json.loads(serialize_spec(load_spec(spec("cdf97.json"))))
    big = tmp_path / "big.json"
    big.write_text(json.dumps({**doc, "k": 1e308}))
    sig = tmp_path / "sig.txt"
    sig.write_text("1\n2\n3\n4\n")
    assert main(["transform", str(big), str(sig)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: float analysis overflows: a sample is not finite after the gain K = 1e+308\n"
    )


def _digit_limit_refusal(code, capsys) -> str:
    # a valid input whose result has a value past Python's int->str digit
    # limit: exit 2, nothing on stdout, and a bounded message, returned
    assert code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.endswith(" is past Python's int->str digit limit\n")
    assert len(out.err) < 200 and "set_int_max_str_digits" not in out.err
    return out.err


def test_rescale_past_the_digit_limit_exits_two_at_the_tap(capsys):
    # kappa**2 = 10**4400 scales the Haar predict tap past 4300 digits
    code = main(["rescale", spec("haar.json"), "--kappa", "1" + "0" * 2200])
    err = _digit_limit_refusal(code, capsys)
    assert err.startswith("error: $.steps[0].taps[0].c: a 14617-bit rational ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_analyze_past_the_digit_limit_exits_two_at_the_report_key(tmp_path, capsys, fmt):
    # two 3000-digit taps, each readable; the lowpass filter holds their product
    nines = "9" * 3000
    path = tmp_path / "nines.json"
    path.write_text(json.dumps({"mode": "irreversible", "steps": [
        {"update": u, "taps": [{"n": 0, "c": nines}]} for u in (1, 0)]}))
    err = _digit_limit_refusal(main(["analyze", str(path), "--format", fmt]), capsys)
    assert err.startswith("error: $.lowpass[1].c: a 19932-bit rational ")


def test_factor_past_the_digit_limit_exits_two_at_the_tap(tmp_path, capsys):
    # a 14-step cascade with small taps; its factorization grows past 4300 digits
    # (to 15925 bits), but which tap passes the limit first is the factorization's
    rng = random.Random(1)
    steps = []
    for i in range(14):
        first, n = rng.randint(-2, 0), rng.randint(2, 4)
        steps.append(LiftingStep(i % 2, LaurentPoly({t: F(rng.choice([-3, -2, -1, 1, 2, 3]),
                                                          rng.choice([3, 5, 7]))
                                                     for t in range(first, first + n)})))
    path = tmp_path / "matrix.json"
    path.write_text(serialize_matrix(LiftingCascade(steps).evaluate()))
    err = _digit_limit_refusal(main(["factor", str(path)]), capsys)
    assert re.match(r"error: \$\.steps\[\d+\]\.taps\[\d+\]\.c: a \d+-bit rational ", err)
