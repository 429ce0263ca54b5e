"""The package surface: lazy imports, the public names and the record classes.

``import liftbank`` loads no submodule and each CLI subcommand imports only
the modules it runs; those checks run in fresh interpreters and measure no
time.  The public-name list and the records' constructors, equality, hash,
repr, immutability and refusals are pinned to the values they had when the
records were frozen dataclasses.
"""

import ast
import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F

import pytest

import liftbank
from liftbank import (
    HIGH_END,
    HIGHPASS_FIRST,
    AnalysisReport,
    CascadeError,
    ComplianceReport,
    DCTrace,
    FactorStrategy,
    FilterPair,
    GroupLiftingClass,
    LaurentPoly,
    LiftingStep,
    ModeError,
    PolyphaseMatrix,
    ROUNDING_RULES,
    RenormalizationResult,
    RescalingWitness,
    RoundingRule,
    SubbandPair,
    SymmetryClass,
    analyze,
    check_part2,
    renormalize,
)
from liftbank.banks import cdf97, five_three, haar, haar_base, wa_lifted_haar

ROOT = os.path.join(os.path.dirname(__file__), "..")
SIGNAL = "".join(f"{v}\n" for v in (3, -1, 4, 1, -5, 9, 2, -6))


# ---------------------------------------------------------------------------
# import set per subcommand

#: Run in a fresh interpreter: the modules that ``argv`` (run through
#: ``liftbank.cli.main``, or a bare ``import liftbank`` when empty) loads
#: beyond the ones the interpreter had at start.
CHILD = """
import contextlib, io, json, sys
before = set(sys.modules)
argv = json.loads(sys.argv[1])
if argv:
    from liftbank.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
else:
    import liftbank
    code = 0
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""

SUBCOMMANDS = {
    "analyze": (["analyze", "specs/cdf97.json", "--format", "json"], 0),
    "validate": (["validate", "specs/counterexample.json"], 1),
    "rescale": (["rescale", "specs/haar.json", "--kappa", "3/2"], 0),
    "compare": (["compare", "specs/haar_lifted_a.json", "specs/haar_lifted_b.json"], 0),
    "transform": (["transform", "specs/fivethree.json", "{tmp}/signal.txt"], 0),
    "factor": (["factor", "specs/haar_matrix.json"], 0),
}


def _loaded(argv, tmp_path) -> set[str]:
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_imports_only_what_it_runs(name, tmp_path):
    (tmp_path / "signal.txt").write_text(SIGNAL, encoding="utf-8")
    argv, code = SUBCOMMANDS[name]
    result = _loaded(argv, tmp_path)
    assert result["code"] == code
    loaded = set(result["loaded"])
    assert "liftbank.specio" in loaded
    assert not loaded & {"dataclasses", "inspect"}
    # the package depends on nothing outside the standard library
    outside = {m for m in loaded if m.split(".")[0] not in {"liftbank", *sys.stdlib_module_names}}
    assert not outside
    if name in ("analyze", "validate"):
        for module in ("transform", "factorization", "rescaling", "banks"):
            assert f"liftbank.{module}" not in loaded
    else:  # the gain report and its symmetry checks load only where they run
        assert not loaded & {"liftbank.normalization", "liftbank.symmetry"}
    if name == "factor":
        assert "liftbank.factorization" in loaded
        assert "liftbank.transform" not in loaded


def test_bare_import_loads_no_submodule(tmp_path):
    loaded = set(_loaded([], tmp_path)["loaded"])
    assert "liftbank" in loaded
    assert not {m for m in loaded if m.startswith("liftbank.")}
    assert not loaded & {"dataclasses", "inspect"}


# ---------------------------------------------------------------------------
# public names

#: ``liftbank.__all__`` as it was when the package imported every module.
ALL = [
    "ANTISYMMETRIC", "AnalysisReport", "COMPLIANT", "CascadeError", "ComplianceReport",
    "DCTrace", "DEFAULT_FLOAT_TOL", "DEFAULT_ROUNDING", "EQUIVALENT", "EXACT", "FLOAT",
    "FactorStrategy", "FactorizationError", "FilterPair", "GroupLiftingClass",
    "HIGHPASS_FIRST", "HIGH_END", "HS", "HS_GROUP", "IDENTICAL", "INEQUIVALENT",
    "LOWPASS_FIRST", "LOW_END", "LaurentPoly", "LiftingCascade", "LiftingStep",
    "ModeError", "NEITHER", "NON_COMPLIANT", "NOT_APPLICABLE", "PolyphaseMatrix",
    "ROUNDING_RULES", "ROUND_CEILING", "ROUND_FLOOR", "ROUND_HALF_DOWN",
    "ROUND_HALF_EVEN", "ROUND_HALF_UP", "RenormalizationResult", "RescalingWitness",
    "RoundingRule", "SYMMETRIC", "SpecFormatError", "SubbandPair", "SymmetryClass",
    "WS", "WS_GROUP", "analyze", "analyze_signal", "as_scalar", "cascade_to_document",
    "check_part2", "classify_filter", "classify_hs_group", "classify_linear_phase",
    "classify_ws_group", "document_to_cascade", "factor_lifting", "find_rescaling",
    "format_scalar", "gamma", "load_spec", "parse_matrix", "parse_scalar", "parse_spec",
    "read_signal", "renormalize", "rescale_cascade", "save_spec", "scalar_dc_recursion",
    "scalar_is_dyadic", "serialize_matrix", "serialize_spec", "synthesize_signal",
    "write_signal", "banks", "__version__",
]

#: The submodule that defines each public name.
DEFINED_IN = {
    "laurent": "DEFAULT_FLOAT_TOL EXACT FLOAT LaurentPoly ModeError as_scalar "
    "format_scalar parse_scalar scalar_is_dyadic",
    "polyphase": "FilterPair PolyphaseMatrix gamma",
    "lifting": "DEFAULT_ROUNDING ROUND_CEILING ROUND_FLOOR ROUND_HALF_DOWN "
    "ROUND_HALF_EVEN ROUND_HALF_UP ROUNDING_RULES CascadeError DCTrace "
    "LiftingCascade LiftingStep RoundingRule scalar_dc_recursion",
    "normalization": "COMPLIANT NON_COMPLIANT NOT_APPLICABLE AnalysisReport "
    "ComplianceReport RenormalizationResult analyze check_part2 renormalize",
    "symmetry": "ANTISYMMETRIC HS HS_GROUP NEITHER SYMMETRIC WS WS_GROUP "
    "GroupLiftingClass SymmetryClass classify_filter classify_hs_group "
    "classify_linear_phase classify_ws_group",
    "rescaling": "EQUIVALENT IDENTICAL INEQUIVALENT RescalingWitness find_rescaling "
    "rescale_cascade",
    "transform": "SubbandPair analyze_signal synthesize_signal",
    "factorization": "HIGH_END HIGHPASS_FIRST LOW_END LOWPASS_FIRST FactorizationError "
    "FactorStrategy factor_lifting",
    "specio": "SpecFormatError cascade_to_document document_to_cascade load_spec "
    "parse_matrix parse_spec read_signal save_spec serialize_matrix serialize_spec "
    "write_signal",
}


def test_all_is_unchanged():
    assert liftbank.__all__ == ALL
    assert len(ALL) == 76
    defined = [n for names in DEFINED_IN.values() for n in names.split()]
    assert sorted(defined) == ALL[:-2]


def test_every_public_name_is_its_modules_object():
    for module, names in DEFINED_IN.items():
        mod = importlib.import_module(f"liftbank.{module}")
        for name in names.split():
            assert getattr(liftbank, name) is getattr(mod, name), name
    assert liftbank.banks is importlib.import_module("liftbank.banks")
    assert liftbank.__version__ == "0.1.0"


def test_submodules_resolve_as_attributes():
    for module in [*DEFINED_IN, "banks", "cli"]:
        assert getattr(liftbank, module) is importlib.import_module(f"liftbank.{module}")
    # in a fresh interpreter, where the attribute imports the submodule
    code = (
        "import sys, liftbank\n"
        "assert liftbank.rescaling.__name__ == 'liftbank.rescaling'\n"
        "assert liftbank.LiftingStep.__module__ == 'liftbank.lifting'\n"
        "print(sorted(m for m in sys.modules if m.startswith('liftbank.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "liftbank.transform" not in proc.stdout and "liftbank.rescaling" in proc.stdout


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from liftbank import *", namespace)
    for name in ALL:
        assert namespace[name] is getattr(liftbank, name), name
    assert set(ALL) <= set(dir(liftbank))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        liftbank.no_such_name
    with pytest.raises(ImportError):
        exec("from liftbank import no_such_name", {})
    assert not hasattr(liftbank, "dataclass")


# ---------------------------------------------------------------------------
# records

P = LaurentPoly
ONE = P({0: 1})


def _fields(record, names):
    return {name: getattr(record, name) for name in names.split()}


#: (class, fields in order, repr at the time the class was a frozen dataclass)
RECORDS = [
    (
        FilterPair,
        {"lowpass": P({0: F(1, 2), 1: F(1, 2)}), "highpass": P({0: -1, 1: 1})},
        "FilterPair(lowpass=LaurentPoly(1/2 + 1/2*z^-1), highpass=LaurentPoly(-1 + z^-1))",
    ),
    (
        PolyphaseMatrix,
        {"h00": ONE, "h01": P({}), "h10": P({-1: F(3, 4)}), "h11": ONE},
        "PolyphaseMatrix(h00=LaurentPoly(1), h01=LaurentPoly(0), "
        "h10=LaurentPoly(3/4*z), h11=LaurentPoly(1))",
    ),
    (
        RoundingRule,
        {"name": "odd", "halves": 2, "below": 3, "to_even": False},
        "RoundingRule(name='odd', halves=2, below=3, to_even=False)",
    ),
    (
        LiftingStep,
        {"update": 1, "filter": P({0: F(-1, 2), 1: F(-1, 2)})},
        "LiftingStep(update=1, filter=LaurentPoly(-1/2 - 1/2*z^-1))",
    ),
    (
        DCTrace,
        {"vectors": ((1, 1), (F(1, 2), 1)), "b": (1, 1, F(1, 2))},
        "DCTrace(vectors=((1, 1), (Fraction(1, 2), 1)), b=(1, 1, Fraction(1, 2)))",
    ),
    (
        ComplianceReport,
        _fields(
            check_part2(haar()),
            "verdict required_value actual_b k m_init selected_index alternation_ok "
            "dyadic_ok tolerance_qualified reasons",
        ),
        "ComplianceReport(verdict='compliant', required_value=Fraction(1, 1), "
        "actual_b=Fraction(1, 1), k=Fraction(1, 1), m_init=0, selected_index=1, "
        "alternation_ok=True, dyadic_ok=True, tolerance_qualified=False, reasons=())",
    ),
    (
        RenormalizationResult,
        _fields(renormalize(haar()), "cascade changed note"),
        "RenormalizationResult(cascade=<LiftingCascade 2 steps, K=1, "
        "exact irreversible>, changed=False, note=None)",
    ),
    (
        AnalysisReport,
        _fields(
            analyze(haar()),
            "filters dc_lowpass nyquist_lowpass dc_highpass nyquist_highpass determinant "
            "b_sequence dc_trace m_init k reversible mode lowpass_symmetry "
            "highpass_symmetry linear_phase group_lifting compliance",
        ),
        "AnalysisReport(filters=FilterPair(lowpass=LaurentPoly(1/2*z + 1/2), "
        "highpass=LaurentPoly(z - 1)), dc_lowpass=Fraction(1, 1), "
        "nyquist_lowpass=Fraction(0, 1), dc_highpass=Fraction(0, 1), "
        "nyquist_highpass=Fraction(-2, 1), determinant=LaurentPoly(1), "
        "b_sequence=(Fraction(1, 1), Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)), "
        "dc_trace=DCTrace(vectors=((Fraction(1, 1), Fraction(1, 1)), (Fraction(1, 1), "
        "Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1))), b=(Fraction(1, 1), "
        "Fraction(1, 1), Fraction(0, 1), Fraction(1, 1))), m_init=0, k=Fraction(1, 1), "
        "reversible=False, mode='exact', "
        "lowpass_symmetry=SymmetryClass(kind='symmetric', center=Fraction(-1, 2)), "
        "highpass_symmetry=SymmetryClass(kind='antisymmetric', center=Fraction(-1, "
        "2)), linear_phase='HS', group_lifting='neither', "
        "compliance=ComplianceReport(verdict='compliant', required_value=Fraction(1, "
        "1), actual_b=Fraction(1, 1), k=Fraction(1, 1), m_init=0, selected_index=1, "
        "alternation_ok=True, dyadic_ok=True, tolerance_qualified=False, reasons=()))",
    ),
    (
        SymmetryClass,
        {"kind": "symmetric", "center": F(1, 2)},
        "SymmetryClass(kind='symmetric', center=Fraction(1, 2))",
    ),
    (
        GroupLiftingClass,
        {"kind": "WS-group", "detail": ("a", "b")},
        "GroupLiftingClass(kind='WS-group', detail=('a', 'b'))",
    ),
    (
        RescalingWitness,
        {"relation": "equivalent-modulo-rescaling", "kappa": F(3, 2)},
        "RescalingWitness(relation='equivalent-modulo-rescaling', kappa=Fraction(3, 2))",
    ),
    (
        SubbandPair,
        {"lowpass": (1, 2), "highpass": (F(3, 2), 4.5)},
        "SubbandPair(lowpass=(1, 2), highpass=(Fraction(3, 2), 4.5))",
    ),
    (
        FactorStrategy,
        {"reduction": "high-end", "first_channel": "lowpass-first"},
        "FactorStrategy(reduction='high-end', first_channel='lowpass-first')",
    ),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, text):
    values = tuple(fields.values())
    record = cls(*values)
    assert cls(**fields) == record
    assert repr(record) == text
    assert tuple(getattr(record, name) for name in fields) == values
    # equal only to a record of the same class
    assert record != values
    assert record.__eq__(values) is NotImplemented
    try:
        expected = hash(values)
    except TypeError:  # a LiftingCascade field is unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(**fields, extra=1)
    with pytest.raises(TypeError):
        cls(*values[:1], **fields)


def test_records_of_different_classes_never_compare_equal():
    assert SymmetryClass("x", None) != GroupLiftingClass("x", None)
    assert FilterPair(ONE, ONE) != SubbandPair(ONE, ONE)
    assert SubbandPair((1,), (2,)) == SubbandPair((1,), (2,))


def test_record_defaults_and_copies():
    rule = RoundingRule("odd", 2, 3, False)
    assert rule.to_even is False
    assert rule == RoundingRule(name="odd", halves=2, below=3, to_even=False)
    assert RoundingRule("odd", 2, 3, True).to_even is True
    assert RoundingRule("half-up", 1, 0, False) == ROUNDING_RULES["half-up"]
    assert FactorStrategy() == FactorStrategy(HIGH_END)
    assert FactorStrategy(first_channel=HIGHPASS_FIRST).reduction == HIGH_END
    with pytest.raises(TypeError):  # a rule has no default fields
        RoundingRule("odd", 2, 3)
    with pytest.raises(TypeError):
        LiftingStep(0)
    symmetry = SymmetryClass("symmetric", F(1, 2))
    assert copy.copy(symmetry) == symmetry
    assert copy.deepcopy(symmetry) == symmetry


def test_record_refusals_are_unchanged():
    flt = P({0: 1.0}, "float")
    with pytest.raises(ModeError, match="^filter pair mixes arithmetic modes$"):
        FilterPair(ONE, flt)
    with pytest.raises(ModeError, match="^polyphase matrix mixes arithmetic modes$"):
        PolyphaseMatrix(ONE, ONE, ONE, flt)
    for update, text in ((2, "2"), (True, "True"), (0.0, "0.0")):
        with pytest.raises(CascadeError, match=f"^update must be 0 or 1, got {text}$") as info:
            LiftingStep(update, ONE)
        assert info.value.field == ("update",)
    with pytest.raises(CascadeError, match="^zero lifting filter$") as info:
        LiftingStep(0, P({}))
    assert info.value.field == ("filter",)
    overflowed = P({0: 1e308}, "float").scaled(10.0)
    with pytest.raises(CascadeError, match="^lifting filter has a non-finite tap$") as info:
        LiftingStep(1, overflowed)
    assert info.value.field == ("filter",)
    with pytest.raises(ValueError, match="^unknown reduction strategy 'middle'$"):
        FactorStrategy("middle")
    with pytest.raises(ValueError, match="^unknown channel preference 'left'$"):
        FactorStrategy(first_channel="left")
    # API input is echoed bounded: cut, or past the digit limit named by its size
    with pytest.raises(ValueError, match=f"^unknown reduction strategy '{'x' * 60}\\.\\.\\.$"):
        FactorStrategy("x" * 5000)
    with pytest.raises(ValueError, match="^unknown channel preference a 16610-bit integer$"):
        FactorStrategy(first_channel=10**5000)


def test_records_built_by_the_library_compare_by_value():
    assert analyze(five_three()) == analyze(five_three())
    assert analyze(five_three()) != analyze(haar())
    assert five_three().steps == tuple(LiftingStep(s.update, s.filter) for s in five_three().steps)


def test_cascades_share_the_record_contract_but_stay_unhashable():
    cascade = haar()
    assert cascade == haar() and cascade != cascade.replace(k=2)
    assert cascade.replace(k=2).replace(k=1) == cascade
    assert cascade.__eq__(cascade.steps) is NotImplemented
    with pytest.raises(TypeError):
        hash(cascade)
    with pytest.raises(AttributeError):
        cascade.k = 2
    assert repr(cascade) == "<LiftingCascade 2 steps, K=1, exact irreversible>"


# ---------------------------------------------------------------------------
# copies and pickles


def _round_trips(value) -> list:
    return [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]


#: Float taps inserted out of tap order, one of them near the bottom of the double range.
FLOAT_POLY = P({2: 0.1, -1: -1e-300, 0: 3.0}, "float")


@pytest.mark.parametrize(
    "poly",
    [P({1: F(1, 3), -2: 5, 0: F(-7, 6)}), P({}), FLOAT_POLY, FLOAT_POLY * FLOAT_POLY],
    ids=["exact", "zero", "float", "float-product"],
)
def test_polynomials_copy_and_pickle_with_their_taps_in_order(poly):
    for twin in _round_trips(poly):
        assert type(twin) is LaurentPoly and twin == poly and twin.mode == poly.mode
        assert repr(list(twin.taps().items())) == repr(list(poly.taps().items()))


@pytest.mark.parametrize(
    "value",
    [
        LiftingStep(1, P({-1: F(-1, 2), 0: F(-1, 2)})),
        haar_base(),
        PolyphaseMatrix(FLOAT_POLY, P({}, "float"), P({}, "float"), FLOAT_POLY),
        haar_base().to_filters(),
        cdf97(),
        wa_lifted_haar(),
        analyze(cdf97()),
        analyze(wa_lifted_haar()),
    ],
    ids=["step", "matrix", "float-matrix", "filter-pair", "cdf97", "wa-lifted-haar",
         "report-cdf97", "report-wa-lifted-haar"],
)
def test_records_holding_polynomials_copy_and_pickle(value):
    for twin in _round_trips(value):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def test_overflowed_float_polynomials_copy_and_pickle():
    # arithmetic may overflow a tap to inf, which the constructor refuses
    poly = P({2: 0.5, 0: 1e308, -1: -3.0}, "float").scaled(10.0)
    assert list(poly.taps().items()) == [(2, 5.0), (0, float("inf")), (-1, -30.0)]
    matrix = PolyphaseMatrix(poly, P({}, "float"), P({}, "float"), poly)
    for twin in _round_trips(poly):
        assert type(twin) is LaurentPoly and twin == poly and twin.mode == poly.mode
        assert repr(list(twin.taps().items())) == repr(list(poly.taps().items()))
    for twin in _round_trips(matrix):
        assert type(twin) is PolyphaseMatrix and twin == matrix and repr(twin) == repr(matrix)


@pytest.mark.parametrize("name", sorted(ROUNDING_RULES))
def test_cascades_copy_and_pickle_to_the_registered_rounding_rule(name):
    cascade = five_three(rounding=ROUNDING_RULES[name])
    for twin in _round_trips(cascade):
        assert twin == cascade and twin.rounding == ROUNDING_RULES[name]
        assert twin.rounding != ROUNDING_RULES["half-up" if name != "half-up" else "floor"]


def test_unregistered_rounding_rules_copy_and_pickle_by_their_fields():
    # rules are plain data: a copy has the fields, whatever the name says
    for rule in (RoundingRule("odd", 0, 0, False), RoundingRule("half-up", 0, 0, False)):
        for twin in _round_trips(rule):
            assert twin == rule and (twin.halves, twin.below) == (0, 0)
            assert twin != ROUNDING_RULES["half-up"]
            assert not any(callable(getattr(twin, f)) for f in RoundingRule.__slots__)


def test_only_laurent_reads_the_stored_numerators():
    src = os.path.join(ROOT, "src", "liftbank")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "laurent.py":
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                text = fh.read()
            assert "._num" not in text and "._den" not in text, name


def test_only_cli_imports_a_sibling_module_inside_a_function():
    # the CLI imports each subcommand's modules on first use; every other module
    # imports its siblings, relatively, at the top
    src = os.path.join(ROOT, "src", "liftbank")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "cli.py":
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            inner = [ast.unparse(node) for f in ast.walk(tree)
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for node in ast.walk(f) if isinstance(node, ast.ImportFrom) and node.level]
            assert not inner, name
