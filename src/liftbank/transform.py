"""Running lifting cascades on finite signals with periodic extension.

Analysis splits x into even samples x0 and odd samples x1, then runs the
base, each step (update 0 adds a filtered copy of x1 to x0, update 1 the
other way) and the gain 1/K, K; tap n reads the neighbor (i - n) mod L.
Synthesis undoes the gain, each step by subtracting its update, the base.

A reversible cascade (K = 1, no base, taps over 2**d) runs on packed
channels: L integers in one int of L W-bit slots, v stored as v + 2**(W-1).
A tap rotates the source by whole slots, so a step is a few big-int
operations, and ``(u + bias) >> d`` rounds every slot at once; synthesis
subtracts the same rounded update, so the round trip is bit-exact.  W is
64, through ``array('q')``, while a bound on every channel and update stays
below 2**61, else the next multiple of 64 with as much room.

Other channels are (numerators, denominator), doubles over 1 or integers
over one lcm, and an update is one comprehension of ``dst[i] + (c0*x0[i]
+ ...)`` over the source rotated by each tap, summed left to right from 0
so floats keep their bits and signed zeros; an exact step reduces by one
gcd, and each output v / den is a ``Fraction`` built without another.
"""

from __future__ import annotations

import sys
from array import array
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
    (exact) is read in one pass, a list of the first two kinds uncopied;
    anything else goes through ``as_ratio`` sample by sample, so a refusal
    names the first bad sample.  Exact samples share one lcm denominator.
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
        return values if type(values) is list else list(values), 1
    if cascade.mode == EXACT and kinds <= {Fraction, int}:
        nums, dens = _parts(values, int not in kinds)
    else:
        nums, dens = zip(*[as_ratio(v, cascade.mode) for v in values])
    den = lcm(*set(dens))
    return [p * (den // q) for p, q in zip(nums, dens)] if den > 1 else list(nums), den


#: Samples per kernel call: a step's transient memory is one block per tap.
_BLOCK = 4096

#: An update of destination sample a by filtered sum u: as is (the leading
#: 0 turns a sum of -0.0 products into +0.0), or over a destination scaled by s.
_FORMS = {"sum": "a + (0 + {u})", "scaled": "a * s + ({u})"}


@cache
def _kernel(k: int, form: str) -> Callable:
    """The comprehension of a k-tap update, compiled as namedtuple compiles.

    Its source holds only the tap numbers 0..k-1 and one of ``_FORMS``.
    Products are summed left to right, as a tap-by-tap loop sums.
    """
    cs, xs = [f"c{j}" for j in range(k)], [f"x{j}" for j in range(k)]
    u = " + ".join(f"{c}*{x}" for c, x in zip(cs, xs)) or "0"
    update, namespace = _FORMS[form].format(u=u), {"__builtins__": {}, "zip": zip}
    exec(
        f"def kernel({', '.join(['dst', 'runs', 's', *cs])}):\n"
        f"    return [{update} for {', '.join(['a', *xs])}, in zip(dst, *runs)]\n",
        namespace,
    )
    return namespace["kernel"]


def _lifting_update(dst: list, taps: list, src: list, s: int = 1) -> None:
    """dst[i] = s * dst[i] + sum of c * src[(i - n) % L] over (n, c) ``taps``, in place."""
    kernel, L = _kernel(len(taps), "sum" if s == 1 else "scaled"), len(src)
    for lo in range(0, L, _BLOCK):
        m = min(_BLOCK, L - lo)
        runs = [src[i:i + m] if i + m <= L else src[i:] + src[: i + m - L]
                for i in [(lo - n) % L for n, _ in taps]]
        dst[lo:lo + m] = kernel(dst[lo:lo + m], runs, s, *[c for _, c in taps])


#: Whether 64-bit slots can go through ``array('q')``: 8-byte little-endian words.
_QWORDS = array("q").itemsize == 8 and sys.byteorder == "little"


def _bounded(nums: list) -> tuple:
    """(samples, bound on their magnitudes): an ``array('q')`` where they fit,
    bounded by 2**(8k) where the high 8 - k bytes of every word just repeat
    its sign byte, 0x00 or 0xff, and exactly from 2**48 up; else the list."""
    try:
        words = array("q", nums) if _QWORDS else None
    except OverflowError:
        words = None
    if words is None:
        return nums, max(max(nums), -min(nums))
    data = words.tobytes()
    top = data[7::8]
    k = 8 if top.translate(None, b"\0\xff") else max(
        (j + 1 for j in range(7) if data[j::8] != top), default=0)
    return words, 1 << 8 * k if k < 7 else max(max(words), -min(words))


def _pack(nums: Sequence[int], width: int, offsets: int) -> int:
    """One int holding nums[i] + 2**(width-1) in bits [i*width, (i+1)*width);
    ``offsets`` has bit width-1 of every slot set."""
    if width == 64 and isinstance(nums, array):
        return int.from_bytes(nums.tobytes(), "little") ^ offsets
    w, half = width // 8, 1 << (width - 1)
    return int.from_bytes(b"".join((v + half).to_bytes(w, "little") for v in nums), "little")


def _unpack(x: int, L: int, width: int, offsets: int) -> Sequence[int]:
    """The L samples of a packed channel, as an ``array('q')`` or a list."""
    if width == 64 and _QWORDS:
        return array("q", (x ^ offsets).to_bytes(8 * L, "little"))
    w, half = width // 8, 1 << (width - 1)
    data = x.to_bytes(w * L, "little")
    return [int.from_bytes(data[i:i + w], "little") - half for i in range(0, w * L, w)]


def _packed_update(dst: int, taps: list, src: int, sign: int, rule, d: int,
                   width: int, ones: int, full: int, offsets: int) -> int:
    """dst[i] + sign * R(sum of c * src[(i - n) % L]) on packed channels.

    ``ones``, ``offsets``, ``full``: bit 0, bit W-1, every bit of L slots.
    The tap sum u carries sum(c) * 2**(W-1) per slot; rounding trades that
    for 2**(W-1) plus the bias, keeping slots in [0, 2**W), and half-even
    adds each slot's bit d, the low bit of u >> d wherever it can decide.
    Cleared of low d bits and offsets, every slot shifts by d exactly.
    """
    lw, bias = full.bit_length(), (rule.halves << (d - 1)) - rule.below if d else 0
    u = bias * ones + (bool(d) - sum(c for _, c in taps)) * offsets
    for n, c in taps:
        k = n * width % lw
        if 2 * k <= lw:  # up by k bits, the top slots wrapped to the bottom
            u += c * (((src << k) & full) | (src >> (lw - k)))
        else:  # down by lw - k bits, the bottom slots wrapped to the top
            u += c * ((src >> (lw - k)) | ((src & ((1 << (lw - k)) - 1)) << k))
    if d:
        if rule.to_even:
            u += (u >> d) & ones
        u = ((u & (full ^ ones * ((1 << d) - 1))) - offsets) >> d
    return dst + u if sign > 0 else dst - u


def _lift(cascade: LiftingCascade, coerced: Callable[[], tuple], inverse: bool,
          locate: bool = False) -> tuple[Sequence, Sequence]:
    """Base, steps, gain; or, inverted, their inverses in reverse order.

    ``coerced()`` gives the samples (or both bands) from :func:`_coerce`, split
    here into two channels; ``update(dst, filt, src, sign)`` adds ``sign``
    times ``src`` filtered by ``filt`` to ``dst``, ``gain(x, k, divide)``
    scales a channel by K or 1/K, and an inverse step subtracts its update.
    A float result is checked once per channel; if it is not finite, a second
    pass (``locate``) names the stage where a sample first went non-finite.
    """
    x, den = coerced()
    L, rule = len(x) // 2, cascade.rounding
    c0, c1 = ((x[:L], den), (x[L:], den)) if inverse else ((x[0::2], den), (x[1::2], den))
    del x  # 2L samples need not stay alive while the channels lift
    if rule is not None:  # reversible: each channel packed in one int of L slots
        (c0, b0), (c1, b1) = _bounded(c0[0]), _bounded(c1[0])
        bounds, top = [b0, b1], max(b0, b1)
        for s in cascade.steps[::-1] if inverse else cascade.steps:
            # taps c over q = 2**d: the tap sum and bias stay below t, dst gains at most t >> d
            (taps, q), m = s.filter.numerators(), s.update
            t = sum(abs(c) for _, c in taps) * bounds[1 - m] + 2 * q
            bounds[m] += t // q
            top = max(top, t, bounds[m])
        width = 64 * ((top.bit_length() + 66) // 64)  # every bound below 2**(width-3)
        ones = int.from_bytes((b"\1" + bytes(width // 8 - 1)) * L, "little")
        full, offsets = (1 << L * width) - 1, ones << (width - 1)
        c0 = _pack(c0, width, offsets)  # each array goes as soon as it is packed
        c1 = _pack(c1, width, offsets)

    def check(where: str, c0: tuple, c1: tuple) -> tuple:
        if locate and not all(isfinite(v) for nums, _ in (c0, c1) for v in nums):
            raise ValueError(f"float {'synthesis' if inverse else 'analysis'} "
                             f"overflows: a sample is not finite after {where}")
        return c0, c1

    def update(dst: tuple, filt: LaurentPoly, src: tuple, sign: int) -> tuple:
        taps, q = filt.numerators()
        if rule is not None:  # reversible: packed integers, taps over 2**d
            d = q.bit_length() - 1
            return _packed_update(dst, taps, src, sign, rule, d, width, ones, full, offsets)
        (nums, da), (nb, db) = dst, src
        den = lcm(da, q * db)
        sb = den // (q * db)
        # the sign goes into the taps: a float a - u is -0.0 where a + (-u) is +0.0
        _lifting_update(nums, [(n, sign * (c * sb)) for n, c in taps], nb, s=den // da)
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
        return _lift(cascade, coerced, inverse, locate=True)  # a mere overflowed sum passes it
    if rule is not None:
        return _unpack(c0, L, width, offsets), _unpack(c1, L, width, offsets)
    if cascade.mode != EXACT:
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
        raise ValueError(f"signal length must be even and nonzero, got {n} "
                         "(periodic extension needs whole sample pairs)")
    x0, x1 = _lift(cascade, lambda: _coerce(cascade, samples, "samples"), inverse=False)
    return SubbandPair(tuple(x0), tuple(x1))


def synthesize_signal(cascade: LiftingCascade, subbands: SubbandPair) -> list:
    """Inverse transform; exact inverse of :func:`analyze_signal`.

    Takes the *analysis* cascade and undoes it: gain first, then the steps
    in reverse with subtracted updates, then the base.  Reversible cascades
    reproduce the original integers bit for bit.
    """
    L = len(subbands.lowpass)
    if L != len(subbands.highpass):
        raise ValueError(f"subband lengths differ: {L} vs {len(subbands.highpass)}")
    if L == 0:
        raise ValueError("empty subbands")
    bands = list(_lift(cascade, lambda: _coerce(
        cascade, [*subbands.lowpass, *subbands.highpass], "subbands"), inverse=True))
    out = [None] * (2 * L)
    for parity in (0, 1):  # one band, then the other, dropped once interleaved,
        y = bands.pop(0)  # a block at a time: a whole-band slice copies L pointers aside
        for lo in range(0, L, _BLOCK):
            out[2 * lo + parity:2 * (lo + _BLOCK):2] = y[lo:lo + _BLOCK]
    return out
