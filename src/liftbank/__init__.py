"""Two-channel FIR filter banks specified by lifting factorizations.

The package evaluates lifting cascades to polyphase matrices, checks perfect
reconstruction and gain normalization, classifies linear-phase structure,
runs reversible (integer, bit-exact) and irreversible transforms, applies
and detects rescaling equivalences, and factors unimodular polyphase
matrices back into lifting steps.
"""

from types import ModuleType as _ModuleType

from .laurent import (
    DEFAULT_FLOAT_TOL,
    EXACT,
    FLOAT,
    LaurentPoly,
    ModeError,
    as_scalar,
    format_scalar,
    parse_scalar,
    scalar_is_dyadic,
)
from .polyphase import FilterPair, PolyphaseMatrix, gamma
from .lifting import (
    DEFAULT_ROUNDING,
    ROUND_CEILING,
    ROUND_FLOOR,
    ROUND_HALF_DOWN,
    ROUND_HALF_EVEN,
    ROUND_HALF_UP,
    ROUNDING_RULES,
    CascadeError,
    DCTrace,
    LiftingCascade,
    LiftingStep,
    RoundingRule,
    scalar_dc_recursion,
)
from .normalization import (
    COMPLIANT,
    NON_COMPLIANT,
    NOT_APPLICABLE,
    AnalysisReport,
    ComplianceReport,
    RenormalizationResult,
    analyze,
    check_part2,
    renormalize,
)
from .symmetry import (
    ANTISYMMETRIC,
    HS,
    HS_GROUP,
    NEITHER,
    SYMMETRIC,
    WS,
    WS_GROUP,
    GroupLiftingClass,
    SymmetryClass,
    classify_filter,
    classify_hs_group,
    classify_linear_phase,
    classify_ws_group,
)
from .rescaling import (
    EQUIVALENT,
    IDENTICAL,
    INEQUIVALENT,
    RescalingWitness,
    find_rescaling,
    rescale_cascade,
)
from .transform import SubbandPair, analyze_signal, synthesize_signal
from .factorization import (
    HIGH_END,
    HIGHPASS_FIRST,
    LOW_END,
    LOWPASS_FIRST,
    FactorizationError,
    FactorStrategy,
    factor_lifting,
)
from .specio import (
    SpecFormatError,
    cascade_to_document,
    document_to_cascade,
    load_spec,
    parse_matrix,
    parse_spec,
    read_signal,
    save_spec,
    serialize_matrix,
    serialize_spec,
    write_signal,
)
from . import banks

__version__ = "0.1.0"

#: The public names: everything imported above, the fixtures module and the
#: version.  Submodules are reached through their own names, not listed.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
) + ["banks", "__version__"]
