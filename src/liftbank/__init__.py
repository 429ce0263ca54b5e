"""Two-channel FIR filter banks specified by lifting factorizations.

The package evaluates lifting cascades to polyphase matrices, checks perfect
reconstruction and gain normalization, classifies linear-phase structure,
runs reversible (integer, bit-exact) and irreversible transforms, applies
and detects rescaling equivalences, and factors unimodular polyphase
matrices back into lifting steps.

Importing the package loads none of its modules: a public name, or a
submodule reached as an attribute, imports its module on first use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Public name -> the submodule that defines it; a submodule maps to itself.
_MODULES = {
    name: module
    for module, names in {
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
        "rescaling": "EQUIVALENT IDENTICAL INEQUIVALENT RescalingWitness "
        "find_rescaling rescale_cascade",
        "transform": "SubbandPair analyze_signal synthesize_signal",
        "factorization": "HIGH_END HIGHPASS_FIRST LOW_END LOWPASS_FIRST "
        "FactorizationError FactorStrategy factor_lifting",
        "specio": "SpecFormatError cascade_to_document document_to_cascade load_spec "
        "parse_matrix parse_spec read_signal save_spec serialize_matrix "
        "serialize_spec write_signal",
        "banks": "", "cli": "",
    }.items()
    for name in [module, *names.split()]
}

#: The public names: every name the submodules export, the fixtures module
#: and the version.  Other submodules resolve as attributes but are not listed.
__all__ = sorted(name for name, module in _MODULES.items() if name != module)
__all__ += ["banks", "__version__"]


def __getattr__(name):
    # Read from the module on every access, never cached here, so callers see
    # what the module holds now; a submodule already imported is a global.
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = globals().get(module) or _import_module(f".{module}", __name__)
    return mod if module == name else getattr(mod, name)


def __dir__():
    return sorted(set(globals()) | set(_MODULES))
