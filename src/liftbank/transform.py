"""Running lifting cascades on finite signals with periodic extension.

The analysis side demultiplexes x into even samples x0 and odd samples x1,
applies each lifting step in order (update-0 steps add a filtered copy of
x1 to x0, update-1 steps the other way around), then scales the channels by
1/K and K.  All filtering is circular at the subband rate: tap n of a
lifting filter reads the neighbor (i - n) mod L.

Every transform runs one lifting order: base, steps, gain; the synthesis
side undoes the gain, then each step in reverse by subtracting the update
that step added, then the base.  Only the channel arithmetic differs, and it
is picked once per transform.  Neither exact arithmetic touches binary
floats or per-sample ``Fraction`` arithmetic: a filter is read through
``numerators()``, as the integer tap numerators and the one denominator its
polynomial stores.  Filtering runs tap by tap over whole rotated channels.

Reversible cascades keep every intermediate as an exact dyadic rational and
round each update to an integer before adding it in place; the synthesis
side recomputes the identical rounded update and subtracts it, which is what
makes the transform bit-exact on integers.  Their taps share a power-of-two
denominator, so the rounding is a shift.

Exact irreversible cascades hold each channel as integer numerators over
one positive common denominator.  A step puts the destination and the
filtered source over the lcm of their denominators and reduces by one gcd
over the whole channel; ``Fraction`` objects are built only for the output
samples.  Float cascades hold plain lists of floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Sequence

from ._record import Record
from .laurent import EXACT, FLOAT, LaurentPoly, Scalar, as_scalar
from .lifting import LiftingCascade
from .polyphase import PolyphaseMatrix


class SubbandPair(Record):
    """Output of one analysis pass: half-rate lowpass and highpass bands."""

    lowpass: tuple
    highpass: tuple
    __slots__ = ("lowpass", "highpass")

    def __len__(self) -> int:
        return len(self.lowpass) + len(self.highpass)


def _coerce(cascade: LiftingCascade, values: Sequence, what: str) -> list:
    """Samples as the cascade's scalars; reversible cascades take ints only.

    An all-int sequence (reversible) or an all-finite-float one (float mode)
    passes in one pass; anything else is checked sample by sample.
    """
    kinds = set(map(type, values))
    if cascade.reversible and not kinds <= {int}:
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(
                    f"reversible transforms take integer {what}, got {v!r}"
                )
    if cascade.reversible or (
        cascade.mode == FLOAT and kinds <= {float} and isfinite(sum(values))
    ):
        return list(values)
    return [as_scalar(v, cascade.mode) for v in values]


#: Samples per block of an in-place reversible update: short lists keep the
#: transient memory of a step small.
_BLOCK = 4096


def _circular(taps: list[tuple[int, Scalar]], x: list, lo: int, hi: int) -> list:
    """Samples lo..hi-1 of x filtered circularly: tap n reads x[(i - n) % L].

    Tap by tap, over runs of x rotated by n; the first term is 0 + c*x, so
    a float sum keeps its order and its signed zeros.
    """
    L, m = len(x), hi - lo
    out = [0] * m
    for n, c in taps:
        s = (lo - n) % L
        run = x[s:s + m] if s + m <= L else x[s:] + x[: s + m - L]
        out = [a + c * v for a, v in zip(out, run)]
    return out


# -- exact paths: integer numerators ----------------------------------------


#: An exact channel: integer numerators over one positive denominator.
_Channel = tuple[list[int], int]


def _channel(values: list[Fraction]) -> _Channel:
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


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


def _lift(
    cascade: LiftingCascade, x0: list, x1: list, inverse: bool
) -> tuple[list, list]:
    """Base, steps, gain; or, inverted, their inverses in reverse order.

    This is the lifting order of every transform.  The channel arithmetic
    is picked once: ``update(dst, filt, src, sign)`` returns ``dst`` plus
    ``sign`` times ``src`` filtered by ``filt``, and ``mul``/``div`` scale
    a channel by K.  An inverse step subtracts its forward step's update.
    """
    L = len(x0)
    load = out = lambda x: x
    if cascade.reversible:  # K = 1 and no base, by the cascade invariant
        rounded = cascade.rounding.rounded

        def update(
            dst: list[int], filt: LaurentPoly, src: list[int], sign: int
        ) -> list[int]:
            # in place, a block at a time; the inverse recomputes the same
            # rounded update and subtracts it
            taps, den = filt.numerators()
            shift = den.bit_length() - 1  # den is a power of two: the taps are dyadic
            for lo in range(0, L, _BLOCK):
                hi = min(lo + _BLOCK, L)
                u = rounded(_circular(taps, src, lo, hi), shift)
                dst[lo:hi] = [a + sign * v for a, v in zip(dst[lo:hi], u)]
            return dst

        mul = div = lambda x, k: x
    elif cascade.mode == EXACT:

        def update(
            dst: _Channel, filt: LaurentPoly, src: _Channel, sign: int
        ) -> _Channel:
            taps, q = filt.numerators()
            nums, den = src
            signed = [(n, sign * c) for n, c in taps]
            return _sum(dst, (_circular(signed, nums, 0, L), q * den))

        load, zero = _channel, ([0] * L, 1)
        out = lambda x: [Fraction(v, x[1]) for v in x[0]]
        mul, div = _scaled, lambda x, k: _scaled(x, 1 / k)
    else:

        def update(dst: list, filt: LaurentPoly, src: list, sign: int) -> list:
            signed = [(n, sign * c) for n, c in filt.numerators()[0]]
            return [a + u for a, u in zip(dst, _circular(signed, src, 0, L))]

        zero = [0] * L
        mul = lambda x, k: [v * k for v in x]
        div = lambda x, k: [v / k for v in x]

    def apply_base(matrix: PolyphaseMatrix, c0, c1) -> tuple:
        # each row sums two updates of a zero channel; 0 + u is exactly u,
        # as a circular sum is never -0.0
        rows = ((matrix.h00, matrix.h01), (matrix.h10, matrix.h11))
        return tuple(update(update(zero, a, c0, 1), b, c1, 1) for a, b in rows)

    k, base = cascade.k, cascade.base
    c0, c1 = load(x0), load(x1)
    if inverse:
        c0, c1 = mul(c0, k), div(c1, k)
    elif base is not None:
        c0, c1 = apply_base(base, c0, c1)
    sign = -1 if inverse else 1
    for step in reversed(cascade.steps) if inverse else cascade.steps:
        if step.update == 0:
            c0 = update(c0, step.filter, c1, sign)
        else:
            c1 = update(c1, step.filter, c0, sign)
    if not inverse:
        c0, c1 = div(c0, k), mul(c1, k)
    elif base is not None:
        c0, c1 = apply_base(base.adjugate(), c0, c1)
    return out(c0), out(c1)


# -- public API ----------------------------------------------------------------


def analyze_signal(cascade: LiftingCascade, samples: Sequence) -> SubbandPair:
    """Forward transform: demultiplex, lift, scale.

    Parameters
    ----------
    cascade : LiftingCascade
        Analysis cascade; reversible cascades require integer samples.
    samples : sequence
        Even-length signal.

    Returns
    -------
    SubbandPair
        Lowpass and highpass bands, each of length len(samples) / 2.
    """
    n = len(samples)
    if n == 0 or n % 2 != 0:
        raise ValueError(
            f"signal length must be even and nonzero, got {n} "
            "(periodic extension needs whole sample pairs)"
        )
    x = _coerce(cascade, samples, "samples")
    x0, x1 = _lift(cascade, x[0::2], x[1::2], inverse=False)
    return SubbandPair(tuple(x0), tuple(x1))


def synthesize_signal(cascade: LiftingCascade, subbands: SubbandPair) -> list:
    """Inverse transform; exact inverse of :func:`analyze_signal`.

    Takes the *analysis* cascade and undoes it: gain first, then the steps
    in reverse with subtracted updates, then the base.  Reversible cascades
    reproduce the original integers bit for bit.
    """
    L = len(subbands.lowpass)
    if L != len(subbands.highpass):
        raise ValueError(
            f"subband lengths differ: {L} vs {len(subbands.highpass)}"
        )
    if L == 0:
        raise ValueError("empty subbands")
    y0 = _coerce(cascade, subbands.lowpass, "subbands")
    y1 = _coerce(cascade, subbands.highpass, "subbands")
    y0, y1 = _lift(cascade, y0, y1, inverse=True)
    out = [None] * (2 * L)
    out[0::2] = y0
    out[1::2] = y1
    return out
