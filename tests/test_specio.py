"""Spec-file, matrix-file and signal-file round trips plus the rejection
diagnostics (message + JSON-path position)."""

import gc
import glob
import json
import os
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftbank import (
    EXACT,
    FLOAT,
    LaurentPoly,
    LiftingCascade,
    LiftingStep,
    SpecFormatError,
    analyze,
    load_spec,
    parse_matrix,
    parse_spec,
    read_signal,
    save_spec,
    serialize_matrix,
    serialize_spec,
    write_signal,
)
from liftbank.banks import cdf97, five_three, haar, haar_base, wa_lifted_haar
from liftbank.specio import (
    _dumps, format_sample, parse_sample, render_text_report, serialize_report,
)

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "specs")
FIXTURES = sorted(
    p for p in glob.glob(os.path.join(SPEC_DIR, "*.json"))
    if not p.endswith("haar_matrix.json")
)


@pytest.mark.parametrize("path", FIXTURES, ids=[os.path.basename(p) for p in FIXTURES])
def test_fixture_round_trips_canonically(path):
    cascade = load_spec(path)
    text = serialize_spec(cascade)
    assert parse_spec(text) == cascade
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == text  # fixtures are stored in canonical form


def test_serialize_known_cascades():
    for cascade in (haar(), five_three(), wa_lifted_haar()):
        assert parse_spec(serialize_spec(cascade)) == cascade


def test_document_key_order_is_stable():
    doc = json.loads(serialize_spec(wa_lifted_haar()))
    assert list(doc) == ["mode", "arithmetic", "k", "base", "steps"]
    rev = json.loads(serialize_spec(five_three()))
    assert list(rev) == ["mode", "arithmetic", "k", "rounding", "steps"]


def spec_error(text):
    with pytest.raises(SpecFormatError) as info:
        parse_spec(text)
    return info.value


def test_bad_json_reports_position():
    err = spec_error("{ not json")
    assert "invalid JSON" in str(err)
    assert "line 1" in err.where


def test_float_literal_in_exact_document():
    err = spec_error(json.dumps({
        "mode": "irreversible",
        "k": 1,
        "steps": [{"update": 0, "taps": [{"n": 0, "c": 0.5}]}],
    }))
    assert "as strings" in str(err)
    assert err.where == "$.steps[0].taps[0].c"


def test_reversible_k_must_be_one():
    err = spec_error(json.dumps({
        "mode": "reversible",
        "k": 2,
        "steps": [{"update": 0, "taps": [{"n": 0, "c": 1}]}],
    }))
    assert err.where == "$.k"


def test_reversible_taps_must_be_dyadic():
    err = spec_error(json.dumps({
        "mode": "reversible",
        "steps": [{"update": 0, "taps": [{"n": 0, "c": "1/3"}]}],
    }))
    assert "dyadic" in str(err)
    assert err.where == "$.steps[0].taps"


def test_zero_filter_rejected():
    err = spec_error(json.dumps({
        "mode": "irreversible",
        "steps": [{"update": 0, "taps": [{"n": 0, "c": 0}]}],
    }))
    assert "zero lifting filter" in str(err)


def test_unknown_rounding_rule():
    err = spec_error(json.dumps({
        "mode": "reversible",
        "rounding": "stochastic",
        "steps": [{"update": 0, "taps": [{"n": 0, "c": 1}]}],
    }))
    assert "unknown rounding rule" in str(err)
    assert "floor" in str(err)  # the message lists the known rules
    assert err.where == "$.rounding"


@pytest.mark.parametrize(
    "mode, rounding, message",
    [
        ("irreversible", "floor", "reversible cascades only"),
        ("reversible", [], "unknown rounding rule"),
    ],
    ids=["irreversible-floor", "reversible-list"],
)
def test_rounding_key_only_in_reversible_documents(mode, rounding, message):
    # an irreversible cascade never rounds, and serialization drops the key,
    # so accepting it would break parse(serialize(c)) == c
    err = spec_error(json.dumps({
        "mode": mode,
        "rounding": rounding,
        "steps": [{"update": 0, "taps": [{"n": 0, "c": 1}]}],
    }))
    assert message in str(err) and err.where == "$.rounding"


def test_huge_decimal_exponent_located():
    err = spec_error(json.dumps({
        "mode": "irreversible",
        "k": "1e4000000",
        "steps": [{"update": 0, "taps": [{"n": 0, "c": "-1e-5000"}]}],
    }))
    assert "digits" in str(err) and err.where == "$.k"
    err = spec_error(json.dumps({
        "mode": "irreversible",
        "steps": [{"update": 0, "taps": [{"n": 0, "c": "-1e-5000"}]}],
    }))
    assert err.where == "$.steps[0].taps[0].c"


def test_unknown_top_level_key():
    err = spec_error(json.dumps({"mode": "reversible", "steps": [], "color": "red"}))
    assert "unknown key" in str(err) and err.where == "$"


def test_duplicate_tap_index():
    err = spec_error(json.dumps({
        "mode": "irreversible",
        "steps": [{"update": 0, "taps": [{"n": 0, "c": 1}, {"n": 0, "c": 2}]}],
    }))
    assert "duplicate tap index 0" in str(err)
    assert err.where.startswith("$.steps[0].taps[1]")


def test_reversible_base_rejected():
    err = spec_error(json.dumps({
        "mode": "reversible",
        "base": [[[{"n": 0, "c": 1}], []], [[], [{"n": 0, "c": 1}]]],
        "steps": [{"update": 0, "taps": [{"n": 0, "c": 1}]}],
    }))
    assert err.where == "$.base"


def test_reversible_requires_exact_arithmetic():
    err = spec_error(json.dumps({
        "mode": "reversible",
        "arithmetic": "float",
        "steps": [{"update": 0, "taps": [{"n": 0, "c": 1}]}],
    }))
    assert err.where == "$.arithmetic"


def test_update_flag_validation():
    err = spec_error(json.dumps({
        "mode": "irreversible",
        "steps": [{"update": 2, "taps": [{"n": 0, "c": 1}]}],
    }))
    assert "update must be 0 or 1" in str(err)
    err = spec_error(json.dumps({
        "mode": "irreversible",
        "steps": [{"update": True, "taps": [{"n": 0, "c": 1}]}],
    }))
    assert "update must be 0 or 1" in str(err)


def test_step_shape_validation():
    err = spec_error(json.dumps({
        "mode": "irreversible",
        "steps": [{"update": 0, "taps": [], "extra": 1}],
    }))
    assert 'keys "update" and "taps"' in str(err)


def test_non_unimodular_base_rejected():
    err = spec_error(json.dumps({
        "mode": "irreversible",
        "base": [[[{"n": 0, "c": 2}], []], [[], [{"n": 0, "c": 1}]]],
        "steps": [],
    }))
    assert "det" in str(err) and err.where == "$"


def test_matrix_file_round_trip():
    text = serialize_matrix(haar_base())
    again = parse_matrix(text)
    assert again == haar_base()
    assert serialize_matrix(again) == text


def test_matrix_file_shape_error():
    with pytest.raises(SpecFormatError, match="2x2"):
        parse_matrix("[[[], []]]")


def test_float_spec_round_trip():
    from liftbank.banks import cdf97

    c = cdf97()
    assert parse_spec(serialize_spec(c)) == c
    doc = json.loads(serialize_spec(c))
    assert doc["arithmetic"] == "float"
    assert isinstance(doc["steps"][0]["taps"][0]["c"], float)


def test_format_sample_shapes():
    assert format_sample(7) == "7"
    assert format_sample(F(1, 4)) == "0.25"
    assert format_sample(F(-3, 8)) == "-0.375"
    assert format_sample(F(1, 10)) == "0.1"
    assert format_sample(F(1, 3)) == "1/3"
    assert format_sample(F(8, 2)) == "4"
    assert format_sample(F(-8, 2)) == "-4"
    assert format_sample(F(-7, 40)) == "-0.175"
    assert format_sample(F(1, 80)) == "0.0125"
    assert format_sample(0.1) == "0.1"
    with pytest.raises(TypeError):
        format_sample(True)
    with pytest.raises(TypeError, match="cannot format str"):
        format_sample("7")


def test_format_sample_refuses_non_finite_floats(tmp_path):
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="not finite"):
            format_sample(bad)
    path = tmp_path / "sig.txt"
    with pytest.raises(ValueError, match="not finite"):
        write_signal([1.0, float("inf")], path)
    assert not path.exists()


def test_samples_past_the_int_str_limit_are_refused_at_their_line(tmp_path):
    # an int, an integer Fraction and a p/q past Python's int->str digit limit
    for value, kind, bits in ((10**5000, "integer", 16610), (F(10**5000), "rational", 16610),
                              (F(1, 3**9100), "rational", 14424)):
        with pytest.raises(ValueError, match=f"^a {bits}-bit {kind} is past Python's int->str"):
            format_sample(value)
    path = tmp_path / "sig.txt"
    with pytest.raises(SpecFormatError, match=f"^{re.escape(str(path))}:2: a 16610-bit integer "):
        write_signal([1, -(10**5000), 2], path)
    assert not path.exists()
    with pytest.raises(SpecFormatError, match="^<stdout>:1: a 16607-bit rational "):
        write_signal([F(10**5000, 2**3)], None)  # a decimal whose head is past the limit


def test_decimal_samples_past_a_readers_length_fall_back_to_p_over_q(tmp_path):
    # 2**-5000 has 5000 decimal places, 10**4299 + 1/2 one more than a reader takes;
    # as p/q both read back
    values = [F(1, 2**5000), F(-(10**4299) * 2 - 1, 2), F(10**4298 - 1, 2), F(1, 10**4299)]
    texts = [format_sample(v) for v in values]
    assert ["/" in t for t in texts] == [True, True, False, True]
    path = tmp_path / "sig.txt"
    write_signal(values, path)
    assert read_signal(path) == values


def test_parse_sample_modes():
    assert parse_sample("0.25", EXACT, False, "x") == F(1, 4)
    assert parse_sample("1/3", EXACT, False, "x") == F(1, 3)
    assert parse_sample("-5", EXACT, True, "x") == -5
    assert parse_sample("0.5", FLOAT, False, "x") == 0.5
    with pytest.raises(SpecFormatError, match="integer samples"):
        parse_sample("0.5", EXACT, True, "x")
    with pytest.raises(SpecFormatError, match="invalid sample"):
        parse_sample("pi", EXACT, False, "x")


def test_signal_file_round_trip(tmp_path):
    path = tmp_path / "sig.txt"
    samples = [3, F(-1, 4), F(1, 3)]
    write_signal(samples, path)
    assert read_signal(path) == samples
    assert path.read_text() == "3\n-0.25\n1/3\n"


def test_save_spec_writes_the_canonical_text(tmp_path):
    path = tmp_path / "spec.json"
    save_spec(wa_lifted_haar(), path)
    assert path.read_bytes() == serialize_spec(wa_lifted_haar()).encode("utf-8")
    assert load_spec(path) == wa_lifted_haar()


def test_files_that_are_not_utf8_are_refused_at_the_path(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1\n2\n\xe9\n")
    for read in (load_spec, read_signal):
        with pytest.raises(SpecFormatError, match="not UTF-8") as info:
            read(path)
        assert info.value.where == str(path)


def test_signal_file_skips_blank_lines(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("1\n\n2\n")
    assert read_signal(path, reversible=True) == [1, 2]


def test_signal_file_error_names_line(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("1\n\nbad\n")
    with pytest.raises(SpecFormatError) as info:
        read_signal(path, reversible=True)
    assert info.value.where.endswith(":3")


def test_signal_file_huge_exponent_names_line(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("1\n1e4000000\n")
    for mode in (EXACT, FLOAT):
        with pytest.raises(SpecFormatError) as info:
            read_signal(path, mode)
        assert info.value.where == f"{path}:2"


# -- non-finite floats and malformed documents: located errors, never tracebacks


def _float_doc(k=1.0, c=0.5):
    return {
        "mode": "irreversible",
        "arithmetic": "float",
        "k": k,
        "steps": [{"update": 0, "taps": [{"n": 0, "c": c}]}],
    }


@pytest.mark.parametrize(
    "doc, where",
    [
        (_float_doc(k=float("nan")), "$.k"),
        (_float_doc(k=float("inf")), "$.k"),
        (_float_doc(c=float("-inf")), "$.steps[0].taps[0].c"),
        (_float_doc(c=float("nan")), "$.steps[0].taps[0].c"),
    ],
)
def test_float_documents_reject_non_finite(doc, where):
    err = spec_error(json.dumps(doc))  # json.dumps writes NaN / Infinity
    assert "finite" in str(err) and err.where == where


def test_float_overflow_rejected():
    err = spec_error(json.dumps(_float_doc(k=10**400)))  # an integer literal
    assert "finite" in str(err) and err.where == "$.k"


def test_float_samples_reject_non_finite():
    with pytest.raises(SpecFormatError, match="invalid sample"):
        parse_sample("1e400", FLOAT, False, "x")


_json_leaf = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["1/2", "1/0", "nan", "1e400", "floor", ""])
)
_json = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "c", "update", "taps"]), inner, max_size=3),
    max_leaves=8,
)


def _mostly(valid, junk=_json):
    """Draws from ``valid`` seven times in eight, otherwise from ``junk``."""
    return st.integers(0, 7).flatmap(lambda i: junk if i == 0 else valid)


_scalar = _mostly(st.sampled_from([1, -1, 2, "1/2", "-1/4", "3/8", "1/3", 0.5, -0.25]))
_taps = _mostly(
    st.lists(
        st.fixed_dictionaries({"n": _mostly(st.integers(-2, 2)), "c": _scalar}),
        min_size=1,
        max_size=3,
    )
)
_step = _mostly(
    st.fixed_dictionaries({"update": _mostly(st.sampled_from([0, 1])), "taps": _taps})
)
_base = st.lists(st.lists(_taps, min_size=2, max_size=2), min_size=2, max_size=2)
_documents = _mostly(
    st.fixed_dictionaries(
        {
            "mode": _mostly(st.sampled_from(["reversible", "irreversible"])),
            "steps": _mostly(st.lists(_step, max_size=4)),
        },
        optional={
            "arithmetic": _mostly(st.sampled_from(["exact", "float"])),
            "k": _scalar,
            "rounding": _mostly(st.sampled_from(["half-up", "floor", "half-even"])),
            "base": _mostly(st.just(None) | _base),
        },
    )
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_fuzzed_documents_parse_to_a_fixed_point_or_a_located_error(doc):
    try:
        cascade = parse_spec(json.dumps(doc))
    except SpecFormatError as exc:
        assert exc.where
        return
    text = serialize_spec(cascade)
    assert serialize_spec(parse_spec(text)) == text



# -- the JSON emitter and the numerator codec ----------------------------------

_emitted_text = st.text(st.characters(codec=None), max_size=6) | st.sampled_from(
    ["", "é", " ", "\x00\x1f\x7f", '"\\/', "\U0001f600", "n", "c"]
)
_emitted = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**40), 10**40)
    | st.sampled_from([-0.0, 1e-07, 1e16, 0.1, -2.5, 1e300])
    | st.floats()
    | _emitted_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(_emitted_text, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=500, deadline=None)
@given(_emitted)
def test_emitter_writes_what_json_dumps_indent_2_writes(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2) + "\n"


def test_emitter_refuses_what_json_refuses():
    for bad in ({"k": F(1, 2)}, [object()], {1j: 0}):
        with pytest.raises(TypeError):
            _dumps(bad)


def test_serializers_leave_no_garbage():
    cascade, report = cdf97(), analyze(wa_lifted_haar())
    matrix = cascade.evaluate()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(10):
            serialize_spec(cascade)
            serialize_matrix(matrix)
            serialize_report(report)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _seeded_cascade(rng, mode):
    def poly():
        taps = {}
        for n in rng.sample(range(-4, 5), rng.randint(1, 4)):
            if mode == EXACT:
                taps[n] = F(rng.randint(-(10**12), 10**12) or 1, rng.choice([1, 2, 3, 8, 5, 7 * 2**40]))
            else:
                taps[n] = rng.uniform(-4, 4) * 10.0 ** rng.randint(-20, 20)
        return LaurentPoly(taps, mode)

    def steps(count):
        return [LiftingStep(rng.randint(0, 1), poly()) for _ in range(count)]

    base = None
    if rng.random() < 0.5:
        base = LiftingCascade(steps(rng.randint(1, 3)), mode=mode).evaluate()
    pool = [1, -1, 3, F(-7, 3), 10**40, F(-1, 10**30)] if mode == EXACT else [1.0, -2.5, 1e150, -1e-100, 0.1]
    return LiftingCascade(steps(rng.randint(0, 6)), k=rng.choice(pool), base=base, mode=mode)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_seeded_cascades_round_trip_through_the_codec(mode):
    rng = random.Random(f"codec/{mode}")
    for _ in range(150):
        cascade = _seeded_cascade(rng, mode)
        text = serialize_spec(cascade)
        parsed = parse_spec(text)
        assert parsed == cascade
        assert serialize_spec(parsed) == text
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def _text_scalars(text):
    # K, the gains, the B values and the symmetry centers (None without one) of a text report
    fields = dict(line.split(":", 1) for line in text.splitlines())
    fields = {key: value.strip() for key, value in fields.items()}
    gains = [re.fullmatch(r"lowpass (\S+), highpass (\S+)", fields[key]).groups()
             for key in ("dc gain", "nyquist gain")]
    centers = [fields[f"{band} sym"].partition(" about ")[2] or None
               for band in ("lowpass", "highpass")]
    b = [item.split(" = ")[1] for item in fields["b sequence"].split(", ")]
    return [fields["k"], *gains[0], *gains[1], *b, *centers]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_text_report_scalars_are_the_json_reports(mode):
    # a string as it is, a float by repr: both reports read one document
    rng = random.Random(f"report/{mode}")
    for _ in range(150):
        report = analyze(_seeded_cascade(rng, mode))
        doc = json.loads(serialize_report(report))
        want = [doc["k"], *doc["dc_gain"].values(), *doc["nyquist_gain"].values(),
                *doc["b_sequence"], *(sym["center"] for sym in doc["symmetry"].values())]
        assert all(isinstance(x, str if mode == EXACT else float) for x in want[:-2])
        assert _text_scalars(render_text_report(report)) == [
            x if x is None or isinstance(x, str) else repr(x) for x in want]


#: Tap literals and what parsing makes of them: the value, or the message
#: (after the path) of the refusal at ``$.steps[0].taps[0].c``.
_LITERALS = [
    ("1/0", "invalid scalar literal '1/0'"),
    ("+-1", "invalid scalar literal '+-1'"),
    ("3/-4", "invalid scalar literal '3/-4'"),
    ("-12/-3", "invalid scalar literal '-12/-3'"),
    ("3/", "invalid scalar literal '3/'"),
    ("/4", "invalid scalar literal '/4'"),
    ("-", "invalid scalar literal '-'"),
    ("", "invalid scalar literal ''"),
    ("1__0", "invalid scalar literal '1__0'"),
    ("1e5000000", "decimal scalar literal needs more than 4300 digits"),
    ("1" * 4301, "decimal scalar literal needs more than 4300 digits"),
    ("+3/4", F(3, 4)),
    (" 3/4 ", F(3, 4)),
    ("1_000", 1000),
    ("١", 1),
    ("١/٢", F(1, 2)),
    ("-0/7", 0),
    ("2/4", F(1, 2)),
    ("-12/3", -4),
    ("007", 7),
    ("0.25", F(1, 4)),
    ("-1.5e3", -1500),
    ("1" * 4300, int("1" * 4300)),
    ("1/" + "3" * 4300, F(1, int("3" * 4300))),
]


@pytest.mark.parametrize("literal, expected", _LITERALS, ids=[f"{i}:{t[:8]}" for i, (t, _) in enumerate(_LITERALS)])
def test_tap_literals_parse_or_refuse_at_their_path(literal, expected):
    doc = {"mode": "irreversible", "steps": [{"update": 0, "taps": [{"n": 0, "c": literal}, {"n": 1, "c": "1/3"}]}]}
    if isinstance(expected, str):
        with pytest.raises(SpecFormatError) as info:
            parse_spec(json.dumps(doc))
        assert info.value.where == "$.steps[0].taps[0].c"
        assert str(info.value) == f"$.steps[0].taps[0].c: {expected}"
    else:
        assert parse_spec(json.dumps(doc)).steps[0].filter.taps() == {
            n: c for n, c in {0: F(expected), 1: F(1, 3)}.items() if c
        }


@pytest.mark.parametrize("n", [2**63, -(2**63), 10**400 - 1],
                         ids=["2**63", "-2**63", "400 digits"])
def test_tap_indices_beyond_64_bits_are_refused_at_their_path(n):
    # a float filter with such a tap could not be evaluated (the power
    # overflows), and a det span of 400 digits would make an unbounded message
    doc = json.loads(serialize_spec(cdf97()))
    doc["steps"][1]["taps"][0]["n"] = n
    err = spec_error(json.dumps(doc))
    assert err.where == "$.steps[1].taps[0]" and "is beyond +-(2**63 - 1)" in str(err)
    assert len(str(err)) < 200
    doc["steps"][1]["taps"][0]["n"] = 2**63 - 1  # the largest index stays readable
    assert parse_spec(json.dumps(doc)).steps[1].filter.support()[1] == 2**63 - 1


@pytest.mark.parametrize("far, n", [
    (LaurentPoly({2**62: 1}) * LaurentPoly({2**62: 1}), 2**63),
    (LaurentPoly({2**62: 1}).reindexed(4), 2**64),
    (LaurentPoly({-(2**62): 1}).reindexed(2, 1), -(2**63) + 1),
], ids=["product", "reindexed", "lowest readable"])
def test_specs_are_written_only_where_they_read_back(far, n):
    # arithmetic can leave the tap bound the reader keeps; the writers refuse
    # such a tap at its path instead of writing a document the reader refuses
    assert far.support() == (n, n)
    one = LaurentPoly.one()
    documents = [  # (what is written, its writer and reader, the path of the far tap)
        (LiftingCascade([LiftingStep(1, one), LiftingStep(0, far)]), serialize_spec, parse_spec,
         "$.steps[1].taps[0]"),
        (LiftingCascade([], base=LiftingStep(1, far).matrix()), serialize_spec, parse_spec,
         "$.base[1][0][0]"),
        (LiftingStep(0, one + far).matrix(), serialize_matrix, parse_matrix,
         "$[0][1][1]" if n > 0 else "$[0][1][0]"),
    ]
    for obj, write, read, where in documents:
        if -(2**63) < n < 2**63:
            assert read(write(obj)) == obj
            continue
        with pytest.raises(SpecFormatError) as info:
            write(obj)
        assert info.value.where == where and "is beyond +-(2**63 - 1)" in str(info.value)
        assert len(str(info.value)) < 200


@pytest.mark.parametrize("doc, where, start", [
    ({"mode": "irreversible", "steps": [{"update": 10**400, "taps": [{"n": 0, "c": 1}]}]},
     "$.steps[0].update", "update must be 0 or 1, got 1000"),
    ({"mode": "reversible", "k": "1e400", "steps": []},
     "$.k", "reversible cascades require K = 1, got 1000"),
])
def test_huge_values_are_echoed_clipped(doc, where, start):
    err = spec_error(json.dumps(doc))
    assert err.where == where and str(err).startswith(f"{where}: {start}")
    assert str(err).endswith("...") and len(str(err)) < 120
