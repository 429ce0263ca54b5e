"""Running lifting cascades on finite signals with periodic extension.

The analysis side demultiplexes x into even samples x0 and odd samples x1,
applies each lifting step in order (update-0 steps add a filtered copy of
x1 to x0, update-1 steps the other way around), then scales the channels by
1/K and K.  All filtering is circular at the subband rate: tap n of a
lifting filter reads the neighbor (i - n) mod L.

Both exact paths run on integer numerators - never on binary floats or
per-sample ``Fraction`` arithmetic.  A filter becomes integer taps over the
least common denominator of its coefficients.

Reversible cascades keep every intermediate as an exact dyadic rational and
round each update to an integer before adding it; the synthesis side
recomputes the identical rounded update and subtracts it, which is what
makes the transform bit-exact on integers.  Their taps share a power-of-two
denominator, so the rounding is a shift.

Exact irreversible cascades hold each channel as integer numerators over
one positive common denominator.  A step puts the destination and the
filtered source over the lcm of their denominators and reduces by one gcd
over the whole channel; ``Fraction`` objects are built only for the output
samples.  Float cascades run the same lifting order on floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .laurent import EXACT, LaurentPoly, Scalar, as_scalar
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


# -- exact paths: integer numerators ----------------------------------------


def _int_taps(filt: LaurentPoly) -> tuple[list[tuple[int, int]], int]:
    """Taps as integer numerators over the lcm of their denominators."""
    items = list(filt.items())
    den = lcm(*(c.denominator for _, c in items))
    return [(n, c.numerator * (den // c.denominator)) for n, c in items], den


def _reversible_pass(
    cascade: LiftingCascade, x0: list[int], x1: list[int], inverse: bool
) -> tuple[list[int], list[int]]:
    L = len(x0)
    rnd = cascade.rounding.apply_shifted
    plans = [(s.update,) + _int_taps(s.filter) for s in cascade.steps]
    order = reversed(plans) if inverse else plans
    sign = -1 if inverse else 1
    for update, taps, den in order:
        shift = den.bit_length() - 1  # den is a power of two: the taps are dyadic
        src = x1 if update == 0 else x0
        dst = x0 if update == 0 else x1
        for i in range(L):
            acc = 0
            for n, c in taps:
                acc += c * src[(i - n) % L]
            dst[i] += sign * rnd(acc, shift)
    return x0, x1


#: An exact channel: integer numerators over one positive denominator.
_Channel = tuple[list[int], int]


def _channel(values: list[Fraction]) -> _Channel:
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _filtered(taps: list[tuple[int, int]], q: int, x: _Channel, L: int) -> _Channel:
    """Channel ``x`` filtered by integer taps over the denominator ``q``."""
    nums, den = x
    return _circular(taps, nums, L), q * den


def _sum(a: _Channel, b: _Channel) -> _Channel:
    """a + b over the lcm of their denominators, reduced by one gcd."""
    (na, da), (nb, db) = a, b
    den = lcm(da, db)
    sa, sb = den // da, den // db
    nums = [u * sa + v * sb for u, v in zip(na, nb)]
    g = gcd(den, *nums)
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    return nums, den


def _scaled(x: _Channel, r: Fraction) -> _Channel:
    # a Fraction's denominator is positive, so a negative gain keeps den > 0
    nums, den = x
    return [v * r.numerator for v in nums], den * r.denominator


def _exact_base(
    matrix: PolyphaseMatrix, x0: _Channel, x1: _Channel, L: int
) -> tuple[_Channel, _Channel]:
    rows = ((matrix.h00, matrix.h01), (matrix.h10, matrix.h11))
    y0, y1 = (
        _sum(_filtered(*_int_taps(a), x0, L), _filtered(*_int_taps(b), x1, L))
        for a, b in rows
    )
    return y0, y1


def _exact_pass(
    cascade: LiftingCascade, x0: list[Fraction], x1: list[Fraction], inverse: bool
) -> tuple[list[Fraction], list[Fraction]]:
    """The irreversible lifting order of :func:`_irreversible_pass`, exactly."""
    L = len(x0)
    k = cascade.k
    c0, c1 = _channel(x0), _channel(x1)
    if inverse:
        c0, c1 = _scaled(c0, k), _scaled(c1, 1 / k)
    elif cascade.base is not None:
        c0, c1 = _exact_base(cascade.base, c0, c1, L)
    for step in reversed(cascade.steps) if inverse else cascade.steps:
        taps, q = _int_taps(step.filter)
        if inverse:
            taps = [(n, -c) for n, c in taps]
        if step.update == 0:
            c0 = _sum(c0, _filtered(taps, q, c1, L))
        else:
            c1 = _sum(c1, _filtered(taps, q, c0, L))
    if not inverse:
        c0, c1 = _scaled(c0, 1 / k), _scaled(c1, k)
    elif cascade.base is not None:
        c0, c1 = _exact_base(cascade.base.inverse(), c0, c1, L)
    (n0, d0), (n1, d1) = c0, c1
    return [Fraction(v, d0) for v in n0], [Fraction(v, d1) for v in n1]


# -- float path ----------------------------------------------------------------


def _apply_base(matrix: PolyphaseMatrix, x0: list, x1: list, L: int) -> tuple[list, list]:
    t00 = list(matrix.h00.items())
    t01 = list(matrix.h01.items())
    t10 = list(matrix.h10.items())
    t11 = list(matrix.h11.items())
    y0 = [a + b for a, b in zip(_circular(t00, x0, L), _circular(t01, x1, L))]
    y1 = [a + b for a, b in zip(_circular(t10, x0, L), _circular(t11, x1, L))]
    return y0, y1


def _irreversible_pass(
    cascade: LiftingCascade, x0: list, x1: list, inverse: bool
) -> tuple[list, list]:
    """Base, steps, gain; or, inverted, their inverses in reverse order.

    Serves float cascades; exact ones run :func:`_exact_pass`.  An inverse
    step adds the update of its negated filter, so the taps are negated once
    per step instead of once per sample.
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


def _pass_for(cascade: LiftingCascade):
    if cascade.reversible:
        return _reversible_pass
    return _exact_pass if cascade.mode == EXACT else _irreversible_pass


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
    run = _pass_for(cascade)
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
    run = _pass_for(cascade)
    y0, y1 = run(cascade, y0, y1, inverse=True)
    out = [None] * (2 * L)
    out[0::2] = y0
    out[1::2] = y1
    return out
