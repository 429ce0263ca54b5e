"""Running lifting cascades on finite signals with periodic extension.

The analysis side demultiplexes x into even samples x0 and odd samples x1,
applies each lifting step in order (update-0 steps add a filtered copy of
x1 to x0, update-1 steps the other way around), then scales the channels by
1/K and K.  All filtering is circular at the subband rate: tap n of a
lifting filter reads the neighbor (i - n) mod L.

Every transform runs one lifting order: base, steps, gain; the synthesis
side undoes the gain, then each step in reverse by subtracting the update
that step added, then the base.  Every update, in every arithmetic, is one
fused pass: ``dst[i] ± R(c0*x0[i] + ... + c{k-1}*x{k-1}[i])``, where x_j is
the source rotated by tap j, computed by one comprehension compiled once
per tap count, rounding kind and sign, a block of samples at a time.  The
sum runs left to right from 0, as a tap-by-tap loop does, so float results
keep their bits and signed zeros.  Filters are read through
``numerators()``: integer tap numerators over one denominator.

Every channel is one pair (numerators, denominator), built once from the
whole sample sequence.  Reversible cascades hold integers over 1 and round
each update before adding it in place: their taps share a power-of-two
denominator 2**d, so R is the rounding rule's ``(u + bias) >> d``, and the
synthesis side subtracts the identical rounded update, which makes the
transform bit-exact on integers.  Any other step folds the scale factors
onto the lcm of the two denominators into the taps and the destination,
then reduces by one gcd.  Exact irreversible channels hold integers over a
positive denominator: plain ``Fraction`` samples are read once, from their
slots, over the lcm of their distinct denominators, and each output sample
is v / den reduced by one gcd into a ``Fraction`` built without another
(``laurent._coprime``).  Float channels hold doubles over 1, so the step is
the plain sum; each output channel is checked once for a non-finite value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isfinite, lcm
from typing import Callable, Sequence

from ._record import Record
from .laurent import EXACT, FLOAT, LaurentPoly, _coprime, _parts, as_ratio
from .lifting import LiftingCascade
from .polyphase import PolyphaseMatrix


class SubbandPair(Record):
    """Output of one analysis pass: half-rate lowpass and highpass bands."""

    lowpass: tuple
    highpass: tuple
    __slots__ = ("lowpass", "highpass")

    def __len__(self) -> int:
        return len(self.lowpass) + len(self.highpass)


def _coerce(cascade: LiftingCascade, values: Sequence, what: str) -> tuple[list, int]:
    """Samples as one channel (numerators, denominator) of the cascade's scalars.

    Reversible cascades take ints only.  An all-int sequence (reversible),
    an all-finite-float one (float mode) or an all-int-and-``Fraction`` one
    (exact) is read in one pass; anything else goes through ``as_ratio``
    sample by sample, so a refusal names the first bad sample.  Exact
    samples share the lcm of their distinct denominators, the others 1.
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
        return list(values), 1
    if cascade.mode == EXACT and kinds <= {Fraction, int}:
        nums, dens = _parts(values, int not in kinds)
    else:
        nums, dens = zip(*[as_ratio(v, cascade.mode) for v in values])
    den = lcm(*set(dens))
    return [p * (den // q) for p, q in zip(nums, dens)] if den > 1 else list(nums), den


#: Samples per kernel call: a step's transient memory is one block per tap.
_BLOCK = 4096

#: An update of destination sample a by filtered sum u: as is (the leading
#: 0 turns a sum of -0.0 products into +0.0), over a destination scaled by
#: s, or rounded as (u + b) >> d, plus the low bit of u >> d for "even".
_FORMS = {
    "sum": "a {op} (0 + {u})",
    "scaled": "a * s {op} ({u})",
    "bias": "a {op} (({u} + b) >> d)",
    "even": "a {op} (((u := {u}) + b + ((u >> d) & 1)) >> d)",
}


@cache
def _kernel(k: int, form: str, subtract: bool) -> Callable:
    """The comprehension of a k-tap update, compiled as namedtuple compiles.

    Its source holds only the tap numbers 0..k-1, one of ``_FORMS`` and
    + or -.  Products are summed left to right, as a tap-by-tap loop sums.
    """
    cs, xs = [f"c{j}" for j in range(k)], [f"x{j}" for j in range(k)]
    u = " + ".join(f"{c}*{x}" for c, x in zip(cs, xs)) or "0"
    update = _FORMS[form].format(op="-" if subtract else "+", u=u)
    namespace = {"__builtins__": {}, "zip": zip}
    exec(
        f"def kernel({', '.join(['dst', 'runs', 's', 'b', 'd', *cs])}):\n"
        f"    return [{update} for {', '.join(['a', *xs])}, in zip(dst, *runs)]\n",
        namespace,
    )
    return namespace["kernel"]


def _lifting_update(dst: list, taps: list, src: list, sign: int = 1,
                    rounding=None, d: int = 0, s: int = 1) -> None:
    """dst[i] = s * dst[i] + sign * R(sum of c * src[(i - n) % L]), in place.

    ``taps`` are (n, c) pairs.  R rounds num / 2**d by the ``rounding``
    rule's bias ``halves * 2**(d-1) - below`` and its ``to_even`` flag;
    without a rule, or at d = 0, R is the identity, s may scale dst, and
    the sign goes into the taps, since a float a - u is -0.0 where
    a + (-u) is +0.0.
    """
    coeffs = [c for _, c in taps]
    if rounding is not None and d:
        form = "even" if rounding.to_even else "bias"
        b = (rounding.halves << (d - 1)) - rounding.below
    else:
        form, b, coeffs, sign = "sum" if s == 1 else "scaled", 0, [sign * c for c in coeffs], 1
    kernel, L = _kernel(len(taps), form, sign < 0), len(src)
    for lo in range(0, L, _BLOCK):
        m = min(_BLOCK, L - lo)
        runs = [src[i:i + m] if i + m <= L else src[i:] + src[: i + m - L]
                for i in [(lo - n) % L for n, _ in taps]]
        dst[lo:lo + m] = kernel(dst[lo:lo + m], runs, s, b, d, *coeffs)


def _lift(cascade: LiftingCascade, channels: Callable[[], tuple], inverse: bool,
          locate: bool = False) -> tuple[list, list]:
    """Base, steps, gain; or, inverted, their inverses in reverse order.

    ``channels()`` gives the two (numerators, denominator) channels from
    :func:`_coerce`; ``update(dst, filt, src, sign)`` adds ``sign`` times
    ``src`` filtered by ``filt`` to ``dst``, ``gain(x, k, divide)`` scales
    a channel by K or 1/K, and an inverse step subtracts its update.  A
    float result is checked once per channel; if it is not finite, a second
    pass (``locate``) names the stage where a sample first went non-finite.
    """
    c0, c1 = channels()
    L = len(c0[0])

    def check(where: str, c0: tuple, c1: tuple) -> tuple:
        if locate and not all(isfinite(v) for nums, _ in (c0, c1) for v in nums):
            raise ValueError(f"float {'synthesis' if inverse else 'analysis'} "
                             f"overflows: a sample is not finite after {where}")
        return c0, c1

    def update(dst: tuple, filt: LaurentPoly, src: tuple, sign: int) -> tuple:
        (nums, da), (nb, db) = dst, src
        taps, q = filt.numerators()
        if cascade.rounding is not None:  # reversible: integers over 1, taps over 2**d
            _lifting_update(nums, taps, nb, sign, cascade.rounding, q.bit_length() - 1)
            return dst
        den = lcm(da, q * db)
        sb = den // (q * db)
        _lifting_update(nums, [(n, c * sb) for n, c in taps], nb, sign, s=den // da)
        g = gcd(den, *nums) if den > 1 else 1  # a float channel stays over 1
        return (nums, den) if g == 1 else ([v // g for v in nums], den // g)

    def gain(x: tuple, k, divide: bool) -> tuple:
        # K = 1, as every reversible cascade has, leaves the channel alone
        if k == 1:
            return x
        nums, den = x
        if cascade.mode == FLOAT:
            return [v / k for v in nums] if divide else [v * k for v in nums], 1
        # a Fraction's denominator is positive, so a negative gain keeps den > 0
        p, q = as_ratio(1 / k if divide else k)
        return [v * p for v in nums], den * q

    def apply_base(matrix: PolyphaseMatrix, c0: tuple, c1: tuple) -> tuple:
        # a row sums two updates of a fresh zero channel (0 + u is u: u is never -0.0)
        rows = ((matrix.h00, matrix.h01), (matrix.h10, matrix.h11))
        return tuple(update(update(([0] * L, 1), a, c0, 1), b, c1, 1) for a, b in rows)

    k, base = cascade.k, cascade.base
    at_gain, at_base = f"the gain K = {k!r}", "the base matrix"
    if inverse:
        c0, c1 = check(at_gain, gain(c0, k, False), gain(c1, k, True))
    elif base is not None:
        c0, c1 = check(at_base, *apply_base(base, c0, c1))
    sign, steps = -1 if inverse else 1, list(enumerate(cascade.steps))
    for i, step in reversed(steps) if inverse else steps:
        if step.update == 0:
            c0 = update(c0, step.filter, c1, sign)
        else:
            c1 = update(c1, step.filter, c0, sign)
        c0, c1 = check(f"step {i} (update {step.update})", c0, c1)
    if not inverse:
        c0, c1 = check(at_gain, gain(c0, k, True), gain(c1, k, False))
    elif base is not None:
        c0, c1 = check(at_base, *apply_base(base.adjugate(), c0, c1))
    if cascade.mode == FLOAT and not (locate or isfinite(sum(c0[0])) and isfinite(sum(c1[0]))):
        return _lift(cascade, channels, inverse, locate=True)  # a mere overflowed sum passes it
    if cascade.mode != EXACT or cascade.reversible:
        return c0[0], c1[0]
    # exact channels become Fractions here, each by one gcd
    return tuple([_coprime(v // (g := gcd(v, den)), den // g) for v in nums]
                 for nums, den in (c0, c1))


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
    x, den = _coerce(cascade, samples, "samples")
    x0, x1 = _lift(cascade, lambda: ((x[0::2], den), (x[1::2], den)), inverse=False)
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

    def halves() -> tuple:  # 2L samples need not stay alive while _lift works
        y, den = _coerce(cascade, [*subbands.lowpass, *subbands.highpass], "subbands")
        return (y[:L], den), (y[L:], den)

    y0, y1 = _lift(cascade, halves, inverse=True)
    out = [None] * (2 * L)
    out[0::2] = y0
    out[1::2] = y1
    return out
