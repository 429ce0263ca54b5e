"""Running lifting cascades on finite signals with periodic extension.

The analysis side demultiplexes x into even samples x0 and odd samples x1,
applies each lifting step in order (update-0 steps add a filtered copy of
x1 to x0, update-1 steps the other way around), then scales the channels by
1/K and K.  All filtering is circular at the subband rate: tap n of a
lifting filter reads the neighbor (i - n) mod L.

Reversible cascades keep every intermediate as an exact dyadic rational and
round each update to an integer before adding it; the synthesis side
recomputes the identical rounded update and subtracts it, which is what
makes the transform bit-exact on integers.  Internally the dyadic
arithmetic runs on integer numerators with a power-of-two shift - never on
binary floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .laurent import LaurentPoly, Scalar, as_scalar
from .lifting import LiftingCascade
from .polyphase import PolyphaseMatrix


@dataclass(frozen=True)
class SubbandPair:
    """Output of one analysis pass: half-rate lowpass and highpass bands."""

    lowpass: tuple
    highpass: tuple

    def __len__(self) -> int:
        return len(self.lowpass) + len(self.highpass)


def _coerce(cascade: LiftingCascade, values: Sequence, what: str) -> list:
    """Samples as the cascade's scalars; reversible cascades take ints only."""
    if cascade.reversible:
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(
                    f"reversible transforms take integer {what}, got {v!r}"
                )
        return list(values)
    return [as_scalar(v, cascade.mode) for v in values]


def _circular(taps: list[tuple[int, Scalar]], x: list, L: int) -> list:
    out = []
    for i in range(L):
        acc = 0
        for n, c in taps:
            acc += c * x[(i - n) % L]
        out.append(acc)
    return out


def _apply_base(matrix: PolyphaseMatrix, x0: list, x1: list, L: int) -> tuple[list, list]:
    t00 = list(matrix.h00.items())
    t01 = list(matrix.h01.items())
    t10 = list(matrix.h10.items())
    t11 = list(matrix.h11.items())
    y0 = [a + b for a, b in zip(_circular(t00, x0, L), _circular(t01, x1, L))]
    y1 = [a + b for a, b in zip(_circular(t10, x0, L), _circular(t11, x1, L))]
    return y0, y1


# -- reversible integer path -------------------------------------------------


def _shifted_taps(filt: LaurentPoly) -> tuple[list[tuple[int, int]], int]:
    """Taps as integer numerators over a common power-of-two denominator."""
    items = list(filt.items())
    shift = 0
    for _, c in items:
        shift = max(shift, c.denominator.bit_length() - 1)
    scale = 1 << shift
    return [(n, int(c * scale)) for n, c in items], shift


def _reversible_pass(
    cascade: LiftingCascade, x0: list[int], x1: list[int], inverse: bool
) -> tuple[list[int], list[int]]:
    L = len(x0)
    rnd = cascade.rounding.apply_shifted
    plans = [(s.update,) + _shifted_taps(s.filter) for s in cascade.steps]
    order = reversed(plans) if inverse else plans
    sign = -1 if inverse else 1
    for update, taps, shift in order:
        src = x1 if update == 0 else x0
        dst = x0 if update == 0 else x1
        for i in range(L):
            acc = 0
            for n, c in taps:
                acc += c * src[(i - n) % L]
            dst[i] += sign * rnd(acc, shift)
    return x0, x1


def _irreversible_pass(
    cascade: LiftingCascade, x0: list, x1: list, inverse: bool
) -> tuple[list, list]:
    """Base, steps, gain; or, inverted, their inverses in reverse order.

    An inverse step adds the update of its negated filter, so the taps are
    negated once per step instead of once per sample.
    """
    L = len(x0)
    k = cascade.k
    if inverse:
        x0 = [v * k for v in x0]
        x1 = [v / k for v in x1]
    elif cascade.base is not None:
        x0, x1 = _apply_base(cascade.base, x0, x1, L)
    for step in reversed(cascade.steps) if inverse else cascade.steps:
        taps = list((-step.filter if inverse else step.filter).items())
        if step.update == 0:
            x0 = [a + u for a, u in zip(x0, _circular(taps, x1, L))]
        else:
            x1 = [a + u for a, u in zip(x1, _circular(taps, x0, L))]
    if not inverse:
        return [v / k for v in x0], [v * k for v in x1]
    if cascade.base is not None:
        x0, x1 = _apply_base(cascade.base.inverse(), x0, x1, L)
    return x0, x1


# -- public API ----------------------------------------------------------------


def analyze_signal(
    cascade: LiftingCascade, samples: Sequence, boundary: str = "periodic"
) -> SubbandPair:
    """Forward transform: demultiplex, lift, scale.

    Parameters
    ----------
    cascade : LiftingCascade
        Analysis cascade; reversible cascades require integer samples.
    samples : sequence
        Even-length signal.
    boundary : str
        Only "periodic" is implemented.

    Returns
    -------
    SubbandPair
        Lowpass and highpass bands, each of length len(samples) / 2.
    """
    if boundary != "periodic":
        raise ValueError(f"unsupported boundary handling {boundary!r}")
    n = len(samples)
    if n == 0 or n % 2 != 0:
        raise ValueError(
            f"signal length must be even and nonzero, got {n} "
            "(periodic extension needs whole sample pairs)"
        )
    x = _coerce(cascade, samples, "samples")
    run = _reversible_pass if cascade.reversible else _irreversible_pass
    x0, x1 = run(cascade, x[0::2], x[1::2], inverse=False)
    return SubbandPair(tuple(x0), tuple(x1))


def synthesize_signal(
    cascade: LiftingCascade, subbands: SubbandPair, boundary: str = "periodic"
) -> list:
    """Inverse transform; exact inverse of :func:`analyze_signal`.

    Takes the *analysis* cascade and undoes it: gain first, then the steps
    in reverse with subtracted updates, then the base.  Reversible cascades
    reproduce the original integers bit for bit.
    """
    if boundary != "periodic":
        raise ValueError(f"unsupported boundary handling {boundary!r}")
    L = len(subbands.lowpass)
    if L != len(subbands.highpass):
        raise ValueError(
            f"subband lengths differ: {L} vs {len(subbands.highpass)}"
        )
    if L == 0:
        raise ValueError("empty subbands")
    y0 = _coerce(cascade, subbands.lowpass, "subbands")
    y1 = _coerce(cascade, subbands.highpass, "subbands")
    run = _reversible_pass if cascade.reversible else _irreversible_pass
    y0, y1 = run(cascade, y0, y1, inverse=True)
    out = [None] * (2 * L)
    out[0::2] = y0
    out[1::2] = y1
    return out
