"""Every file and text form the command line reads or writes: cascade spec
files, matrix files, signal files and analysis reports.

Spec files are JSON documents:

    {
      "mode": "reversible" | "irreversible",
      "arithmetic": "exact" | "float",          (default "exact")
      "k": "..." | number,                      (default 1)
      "rounding": "half-up" | ...,              (reversible only)
      "base": [[taps, taps], [taps, taps]],     (optional, row-major)
      "steps": [{"update": 0|1, "taps": [{"n": int, "c": scalar}, ...]}, ...]
    }

Exact scalars travel as strings ("-1/2", "3", "0.25") so nothing is forced
through binary floating point; float-mode documents use plain JSON numbers.
Serialization is canonical (taps sorted by index, fixed key order), which
makes parse -> serialize -> parse the identity.

Signal files are one sample per line.  Subband files produced by the
command-line transform hold the lowpass block first, then the highpass
block.  Every file is read through ``_lines`` as UTF-8 (other bytes are a
``SpecFormatError`` at the path) and written through ``_write`` as UTF-8
with LF endings, or to stdout.  ``analyze`` reports are rendered here as
text and as JSON.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import Any

from .laurent import (
    EXACT, FLOAT, MAX_SCALAR_DIGITS, LaurentPoly, Scalar, as_ratio, as_scalar, clip_repr,
    format_scalar, parse_scalar, tap_index,
)
from .lifting import ROUNDING_RULES, CascadeError, LiftingCascade, LiftingStep
from .polyphase import PolyphaseMatrix

REVERSIBLE = "reversible"
IRREVERSIBLE = "irreversible"


class SpecFormatError(ValueError):
    """A spec document failed to parse; ``where`` locates the offender."""

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)

    @classmethod
    def located(cls, exc: CascadeError, *prefix) -> "SpecFormatError":
        """A cascade refusal at the JSON path of its field, after ``prefix``."""
        return cls(str(exc), "$" + "".join(
            f"[{p}]" if isinstance(p, int) else "." + _SPEC_KEYS.get(p, p)
            for p in prefix + exc.field
        ))


def _lines(path):
    """The lines of the UTF-8 text file at ``path``, read one at a time."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise SpecFormatError(f"not UTF-8 text ({exc.reason})", f"{path}") from None


def _write(text: str, path=None) -> None:
    """``text`` to the file at ``path`` as UTF-8 with LF endings, or to stdout."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _scalar_from_json(value: Any, mode: str, where: str, read=as_scalar) -> Any:
    try:
        return read(value, mode)
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(str(exc), where) from None


def _scalar_to_json(value: Scalar | None, where: str) -> Any:
    """Exact scalars as strings, float scalars as numbers, None as null; an
    exact value that no document could hold is refused at ``where``."""
    if not isinstance(value, Fraction):
        return None if value is None else float(value)
    try:
        return format_scalar(value)
    except ValueError as exc:  # past Python's int->str digit limit
        raise SpecFormatError(str(exc), where) from None


def _taps_from_json(value: Any, mode: str, where: str) -> LaurentPoly:
    if not isinstance(value, list):
        raise SpecFormatError("taps must be a list of {n, c} objects", where)
    taps: dict[int, tuple] = {}  # n -> as_ratio(c)
    for i, item in enumerate(value):
        spot = f"{where}[{i}]"
        if not isinstance(item, dict) or set(item) != {"n", "c"}:
            raise SpecFormatError('tap must be an object with keys "n" and "c"', spot)
        try:
            n = tap_index(item["n"])
        except (TypeError, ValueError) as exc:
            raise SpecFormatError(str(exc), spot) from None
        if n in taps:
            raise SpecFormatError(f"duplicate tap index {n}", spot)
        taps[n] = _scalar_from_json(item["c"], mode, f"{spot}.c", as_ratio)
    return LaurentPoly.from_ratios(taps, mode)


def _taps_to_json(p: LaurentPoly, where: str, read_back: bool = True) -> list[dict[str, Any]]:
    items = list(p.items())
    for i in (0, len(items) - 1) if read_back and items else ():  # a spec must read back:
        try:  # the taps ascend, so the two ends bound the rest
            tap_index(items[i][0])
        except ValueError as exc:
            raise SpecFormatError(str(exc), f"{where}[{i}]") from None
    return [{"n": n, "c": _scalar_to_json(c, f"{where}[{i}].c")} for i, (n, c) in enumerate(items)]


#: Spec keys for the cascade attribute names that differ from them.
_SPEC_KEYS = {"mode": "arithmetic", "filter": "taps"}


def document_to_cascade(doc: Any) -> LiftingCascade:
    """Build a cascade from a parsed JSON document.

    This function checks the document's shape and keys only; the cascade
    invariants are the constructors', whose refusals come back located.
    """
    if not isinstance(doc, dict):
        raise SpecFormatError("spec document must be a JSON object", "$")

    known = {"mode", "arithmetic", "k", "rounding", "base", "steps"}
    for key in doc:
        if key not in known:
            raise SpecFormatError(f"unknown key {clip_repr(key)}", "$")

    mode_txt = doc.get("mode")
    if mode_txt not in (REVERSIBLE, IRREVERSIBLE):
        raise SpecFormatError(
            f'"mode" must be "{REVERSIBLE}" or "{IRREVERSIBLE}", got {clip_repr(mode_txt)}',
            "$.mode",
        )

    arithmetic = doc.get("arithmetic", EXACT)
    if arithmetic not in (EXACT, FLOAT):
        raise SpecFormatError(
            f'"arithmetic" must be "{EXACT}" or "{FLOAT}", got {clip_repr(arithmetic)}',
            "$.arithmetic",
        )

    k = _scalar_from_json(doc.get("k", 1), arithmetic, "$.k")

    name = doc.get("rounding")
    if "rounding" in doc and (not isinstance(name, str) or name not in ROUNDING_RULES):
        raise SpecFormatError(
            f"unknown rounding rule {clip_repr(name)}; known: "
            + ", ".join(sorted(ROUNDING_RULES)),
            "$.rounding",
        )

    base = None
    if doc.get("base") is not None:
        base = _matrix_from_json(doc["base"], arithmetic, "$.base")

    steps_doc = doc.get("steps")
    if not isinstance(steps_doc, list):
        raise SpecFormatError('"steps" must be a list', "$.steps")
    steps = []
    for i, sd in enumerate(steps_doc):
        if not isinstance(sd, dict) or set(sd) != {"update", "taps"}:
            raise SpecFormatError(
                'step must be an object with keys "update" and "taps"',
                f"$.steps[{i}]",
            )
        filt = _taps_from_json(sd["taps"], arithmetic, f"$.steps[{i}].taps")
        try:
            steps.append(LiftingStep(sd["update"], filt))
        except CascadeError as exc:
            raise SpecFormatError.located(exc, "steps", i)

    try:
        return LiftingCascade(
            steps,
            k=k,
            base=base,
            mode=arithmetic,
            reversible=mode_txt == REVERSIBLE,
            rounding=ROUNDING_RULES.get(name),
        )
    except CascadeError as exc:
        raise SpecFormatError.located(exc)


def cascade_to_document(cascade: LiftingCascade) -> dict:
    """Canonical JSON-ready form of a cascade (m_init is never stored)."""
    doc: dict[str, Any] = {
        "mode": REVERSIBLE if cascade.reversible else IRREVERSIBLE,
        "arithmetic": cascade.mode,
        "k": _scalar_to_json(cascade.k, "$.k"),
    }
    if cascade.reversible:
        doc["rounding"] = cascade.rounding.name
    if cascade.base is not None:
        doc["base"] = _matrix_to_json(cascade.base, "$.base")
    doc["steps"] = [{"update": s.update, "taps": _taps_to_json(s.filter, f"$.steps[{i}].taps")}
                    for i, s in enumerate(cascade.steps)]
    return doc


def _json_loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        )
    except (ValueError, RecursionError) as exc:
        # e.g. an integer literal beyond Python's int-conversion digit limit
        raise SpecFormatError(f"invalid JSON: {exc}", "$") from None


def parse_spec(text: str) -> LiftingCascade:
    return document_to_cascade(_json_loads(text))


def _dumps(doc: Any) -> str:
    """The one JSON text form of spec, matrix and report documents: what
    ``json.dumps(doc, indent=2)`` writes, and a newline, without the
    pure-Python encoder, whose closures form a cycle only the collector frees."""
    return _json(doc, "\n") + "\n"


def _json(o: Any, nl: str) -> str:
    # o as json.dumps(o, indent=2) writes it, nested at the indent ``nl`` ends in
    if isinstance(o, str):
        return _quote(o)
    if type(o) is int:
        return str(o)
    if not (o and isinstance(o, (list, tuple, dict))):
        return json.dumps(o)  # None, bools, floats and empty containers
    inner = nl + "  "
    if isinstance(o, dict):
        items = [f"{_quote(k)}: {_json(v, inner)}" for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return "[" + inner + ("," + inner).join([_json(v, inner) for v in o]) + nl + "]"


def serialize_spec(cascade: LiftingCascade) -> str:
    return _dumps(cascade_to_document(cascade))


def load_spec(path) -> LiftingCascade:
    return parse_spec("".join(_lines(path)))


def save_spec(cascade: LiftingCascade, path) -> None:
    _write(serialize_spec(cascade), path)


# -- matrix files -------------------------------------------------------------


def _matrix_from_json(rows: Any, mode: str, where: str) -> PolyphaseMatrix:
    if (
        not isinstance(rows, list)
        or len(rows) != 2
        or any(not isinstance(r, list) or len(r) != 2 for r in rows)
    ):
        raise SpecFormatError("expected a 2x2 array of tap lists", where)
    return PolyphaseMatrix(*(_taps_from_json(rows[i][j], mode, f"{where}[{i}][{j}]")
                             for i in range(2) for j in range(2)))


def parse_matrix(text: str, mode: str = EXACT) -> PolyphaseMatrix:
    """A matrix file is a JSON 2x2 array of tap lists."""
    return _matrix_from_json(_json_loads(text), mode, "$")


def _matrix_to_json(m: PolyphaseMatrix, where: str) -> list:
    return [[_taps_to_json(p, f"{where}[{i}][{j}]") for j, p in enumerate(row)]
            for i, row in enumerate(((m.h00, m.h01), (m.h10, m.h11)))]


def serialize_matrix(matrix: PolyphaseMatrix) -> str:
    return _dumps(_matrix_to_json(matrix, "$"))


# -- analysis reports ---------------------------------------------------------


def _symmetry(sym) -> str:
    return sym.kind + ("" if sym.center is None else f" about {format_scalar(sym.center)}")


def render_text_report(report) -> str:
    """An ``AnalysisReport`` as text: what ``liftbank analyze`` prints.  A value
    past Python's int->str digit limit is refused at its JSON report key."""
    c = report.compliance
    try:
        lines = [
            f"arithmetic:    {report.mode}",
            f"type:          {'reversible' if report.reversible else 'irreversible'}",
            f"k:             {format_scalar(report.k)}",
            f"steps:         {len(report.b_sequence) - 2}"
            + (f" (m_init = {report.m_init})" if report.m_init is not None else ""),
            f"lowpass:       {report.filters.lowpass}",
            f"highpass:      {report.filters.highpass}",
            f"dc gain:       lowpass {format_scalar(report.dc_lowpass)}, "
            f"highpass {format_scalar(report.dc_highpass)}",
            f"nyquist gain:  lowpass {format_scalar(report.nyquist_lowpass)}, "
            f"highpass {format_scalar(report.nyquist_highpass)}",
            f"determinant:   {report.determinant}",
            "b sequence:    "
            + ", ".join(
                f"B_{i - 2} = {format_scalar(b)}" for i, b in enumerate(report.b_sequence)
            ),
            f"lowpass sym:   {_symmetry(report.lowpass_symmetry)}",
            f"highpass sym:  {_symmetry(report.highpass_symmetry)}",
            f"linear phase:  {report.linear_phase}",
            f"group lifting: {report.group_lifting}",
            f"part2:         {c.verdict}"
            + (f" ({'; '.join(c.reasons)})" if c.reasons else ""),
        ]
    except ValueError:  # format_scalar's refusal, located by the JSON report writer
        serialize_report(report)
        raise
    return "\n".join(lines) + "\n"


def serialize_report(report) -> str:
    """An ``AnalysisReport`` as JSON: what ``liftbank analyze --format json`` prints."""
    c = report.compliance
    return _dumps({
        "arithmetic": report.mode,
        "reversible": report.reversible,
        "k": _scalar_to_json(report.k, "$.k"),
        "steps": len(report.b_sequence) - 2,
        "m_init": report.m_init,
        "lowpass": _taps_to_json(report.filters.lowpass, "$.lowpass", False),
        "highpass": _taps_to_json(report.filters.highpass, "$.highpass", False),
        "dc_gain": {
            "lowpass": _scalar_to_json(report.dc_lowpass, "$.dc_gain.lowpass"),
            "highpass": _scalar_to_json(report.dc_highpass, "$.dc_gain.highpass"),
        },
        "nyquist_gain": {
            "lowpass": _scalar_to_json(report.nyquist_lowpass, "$.nyquist_gain.lowpass"),
            "highpass": _scalar_to_json(report.nyquist_highpass, "$.nyquist_gain.highpass"),
        },
        "determinant": _taps_to_json(report.determinant, "$.determinant", False),
        "b_sequence": [_scalar_to_json(b, f"$.b_sequence[{i}]")
                       for i, b in enumerate(report.b_sequence)],
        "symmetry": {band: {"kind": sym.kind,
                            "center": _scalar_to_json(sym.center, f"$.symmetry.{band}.center")}
                     for band, sym in (("lowpass", report.lowpass_symmetry),
                                       ("highpass", report.highpass_symmetry))},
        "linear_phase": report.linear_phase,
        "group_lifting": report.group_lifting,
        "compliance": {
            "verdict": c.verdict,
            "required_value": _scalar_to_json(c.required_value, "$.compliance.required_value"),
            "actual_b": _scalar_to_json(c.actual_b, "$.compliance.actual_b"),
            "selected_index": c.selected_index,
            "tolerance_qualified": c.tolerance_qualified,
            "reasons": list(c.reasons),
        },
    })


# -- signal files -------------------------------------------------------------


def format_sample(value) -> str:
    """One sample as text: integers bare, dyadics as finite decimals.

    Exact rationals with a 2^a * 5^b denominator print as exact decimals;
    anything else, and a decimal longer than the :data:`MAX_SCALAR_DIGITS`
    a reader takes back, falls back to "p/q".  Exact values are written by
    ``format_scalar``, which refuses one past Python's int->str digit limit by
    its bit size.  Floats use repr (shortest round-tripping form); a
    non-finite float is refused, as no sample reader would take it back.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a sample")
    if isinstance(value, int):
        return format_scalar(value)
    if isinstance(value, Fraction):
        den = value.denominator
        twos = (den & -den).bit_length() - 1  # the power of 2 in den
        fives = 0
        while den % 5 == 0:
            den //= 5
            fives += 1
        num, digits = value.numerator, max(twos, fives)  # value * 10**digits is an integer
        if den >> twos != 1 or digits > MAX_SCALAR_DIGITS:
            return format_scalar(value)  # p/q fallback
        head, tail = divmod(abs(num) * 10**digits // value.denominator, 10**digits)
        sign = "-" if num < 0 else ""
        try:  # head past the int->str digit limit, or the whole text past a reader's
            text = f"{sign}{head}.{tail:0{digits}}" if digits else f"{sign}{head}"
        except ValueError:
            text = ""
        return text if 0 < len(text) <= MAX_SCALAR_DIGITS else format_scalar(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"float sample is not finite: {value!r}")
        return repr(value)
    raise TypeError(f"cannot format {type(value).__name__} as a sample")


def parse_sample(text: str, mode: str, reversible: bool, where: str):
    t = text.strip()
    if reversible:
        try:
            return int(t)
        except ValueError:
            raise SpecFormatError(
                f"reversible signals need integer samples, got {clip_repr(t)}", where
            )
    try:
        return parse_scalar(t, mode)
    except ValueError:
        raise SpecFormatError(f"invalid sample {clip_repr(t)}", where) from None


def read_signal(path, mode: str = EXACT, reversible: bool = False) -> list:
    samples = []
    for lineno, line in enumerate(_lines(path), start=1):
        if line.strip() == "":
            continue
        samples.append(parse_sample(line, mode, reversible, f"{path}:{lineno}"))
    return samples


def write_signal(samples, path) -> None:
    # every sample is formatted, and one that cannot be written refused at its line
    # of the file (or of stdout), before the file opens
    lines = []
    for lineno, s in enumerate(samples, start=1):
        try:
            lines.append(format_sample(s) + "\n")
        except ValueError as exc:
            raise SpecFormatError(str(exc), f"{path or '<stdout>'}:{lineno}") from None
    _write("".join(lines), path)
