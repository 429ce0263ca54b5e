"""Running lifting cascades on finite signals with periodic extension.

Analysis splits x into even samples x0 and odd samples x1, then runs the
base, each step (update 0 adds a filtered copy of x1 to x0, update 1 the
other way) and the gain 1/K, K; tap n reads the neighbor (i - n) mod L.
Synthesis undoes the gain, each step by subtracting its update, the base.

Exact channels, reversible or not, are integers over one denominator, run
packed: L integers in one int of L W-bit slots, v stored as v + 2**(W-1),
by ``laurent._pack`` and read back by ``laurent._unpack``.
A tap rotates the source by whole slots, so a step is a few big-int
operations; a reversible one rounds ``(u + bias) >> d`` in every slot at
once, an irreversible one folds both denominators onto their lcm.  W is
the fewest whole bytes, 8 to 64 bits, that keep a bound walk of the stages
below 2**(W-3), else the next multiple of 64 with as much room; channels
go in and out as byte columns of machine words.  Each output v / den
becomes a ``Fraction`` by one gcd.  A float update is one comprehension of
``dst[i] + (0.0 + c0*x0[i] + ...)`` over lists of doubles rotated by each
tap, summed left to right so results keep their bits and signed zeros.  The
sum starts from 0.0, not 0, and a base row from a channel of 0.0: an int
operand would send every add down CPython's generic path.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import cache
from math import isfinite, lcm
from typing import Callable, Sequence

from ._record import Record
from .laurent import (
    EXACT, FLOAT, LaurentPoly, _WORDS, _fractions, _pack, _parts, _unpack, as_ratio, clip_repr)
from .lifting import LiftingCascade
from .polyphase import PolyphaseMatrix


class SubbandPair(Record):
    """Output of one analysis pass: half-rate lowpass and highpass bands."""

    lowpass: tuple
    highpass: tuple
    __slots__ = ("lowpass", "highpass")

    def __len__(self) -> int:
        return len(self.lowpass) + len(self.highpass)


def _located(name: str, values: Sequence, mode: str):
    """``as_ratio`` of each of ``values``; a refusal is prefixed ``name[i]: ``."""
    for i, v in enumerate(values):
        try:
            yield as_ratio(v, mode)
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"{name}[{i}]: {exc}") from None


def _coerce(cascade: LiftingCascade, parts: tuple, names: tuple) -> tuple[list, int]:
    """The parts of a signal, ``(samples,)`` or ``(lowpass, highpass)``, as
    lists of numerators over one denominator (one lcm, for exact samples).

    Reversible cascades take ints only.  All-int parts (reversible), all-
    finite-float ones (float mode) or all-int-and-``Fraction`` ones (exact)
    are read in one pass, reversible parts and a lone float list uncopied;
    anything else goes through ``as_ratio`` sample by sample.  A refusal
    names the first bad sample in signal order: ``samples[i]: ...``, or
    ``lowpass[i]``, ``highpass[i]``.
    """
    kinds, mode = set().union(*[map(type, p) for p in parts]), cascade.mode
    if cascade.reversible and not kinds <= {int}:
        for name, i, v in ((n, i, v) for n, p in zip(names, parts) for i, v in enumerate(p)):
            if not isinstance(v, int) or isinstance(v, bool):
                kind = "samples" if len(parts) == 1 else "subbands"
                raise ValueError(f"{name}[{i}]: reversible transforms take integer {kind}, "
                                 f"got {clip_repr(v)}")
    if cascade.reversible or (
        mode == FLOAT and kinds <= {float} and all(isfinite(sum(p)) for p in parts)
    ):
        # the float kernel updates its lists in place: a caller's list only where split
        return [p if cascade.reversible or type(p) is list and len(parts) == 1 else list(p)
                for p in parts], 1
    if mode == EXACT and kinds <= {Fraction, int}:
        ratios = [_parts(p, int not in kinds) for p in parts]
    else:
        ratios = [tuple(zip(*_located(name, p, mode))) for name, p in zip(names, parts)]
    den = lcm(*set().union(*[dens for _, dens in ratios]))
    return [[p * (den // q) for p, q in zip(nums, dens)] if den > 1 else list(nums)
            for nums, dens in ratios], den


#: Samples per kernel call: a step's transient memory is one block per tap.
_BLOCK = 4096

@cache
def _kernel(k: int) -> Callable:
    """The comprehension of a k-tap float update, compiled as namedtuple compiles.

    Its source holds only the tap numbers 0..k-1.  Products are summed left to
    right, as a tap-by-tap loop sums; a leading 0.0 makes a -0.0 sum +0.0, as
    0 would, and keeps every add float + float, which CPython specializes.
    """
    cs, xs = [f"c{j}" for j in range(k)], [f"x{j}" for j in range(k)]
    u = " + ".join(f"{c}*{x}" for c, x in zip(cs, xs)) or "0.0"
    namespace = {"__builtins__": {}, "zip": zip}
    exec(
        f"def kernel({', '.join(['dst', 'runs', *cs])}):\n"
        f"    return [a + (0.0 + {u}) for {', '.join(['a', *xs])}, in zip(dst, *runs)]\n",
        namespace,
    )
    return namespace["kernel"]


def _lifting_update(dst: list, filt: LaurentPoly, src: list, sign: int) -> list:
    """dst[i] + sign * (sum of c * src[(i - n) % L] over the taps of ``filt``), in place."""
    # the sign goes into the taps: a float a - u is -0.0 where a + (-u) is +0.0
    taps = [(n, sign * c) for n, c in filt.numerators()[0]]
    kernel, L = _kernel(len(taps)), len(src)
    for lo in range(0, L, _BLOCK):
        m = min(_BLOCK, L - lo)
        runs = [src[i:i + m] if i + m <= L else src[i:] + src[: i + m - L]
                for i in [(lo - n) % L for n, _ in taps]]
        dst[lo:lo + m] = kernel(dst[lo:lo + m], runs, *[c for _, c in taps])
    return dst


def _bounded(nums: list) -> tuple:
    """(samples, bound on their magnitudes): an ``array('q')`` where they fit,
    bounded by 2**(8k) where the high 8 - k bytes of every word just repeat
    its sign byte, 0x00 or 0xff, and exactly from 2**48 up; else the list.
    ``_pack`` copies the array's low bytes, as many as a slot has, into slots."""
    try:
        words = array("q", nums) if _WORDS else None
    except OverflowError:
        words = None
    if words is None:
        return nums, max(max(nums), -min(nums))
    data = words.tobytes()
    top = data[7::8]
    k = 8 if top.translate(None, b"\0\xff") else max(
        (j + 1 for j in range(7) if data[j::8] != top), default=0)
    return words, 1 << 8 * k if k < 7 else max(max(words), -min(words))


def _packed_update(dst: int, taps: list, src: int, sign: int, width: int, ones: int,
                   full: int, offsets: int, rule=None, d: int = 0) -> int:
    """dst[i] + sign * R(sum of c * src[(i - n) % L]) on packed channels.

    ``ones``, ``offsets``, ``full``: bit 0, bit W-1, every bit of L slots.
    R(u) is u without a ``rule`` (exact channels) or at d = 0, else u / 2**d
    rounded: the tap sum carries sum(c) * 2**(W-1) per slot, which rounding
    trades for 2**(W-1) plus the bias, keeping slots in [0, 2**W); half-even
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

    ``coerced()`` gives :func:`_coerce`'s parts: the samples, split here into
    two channels, or both bands.  ``run`` walks the stages over a channel form:
    ``update(dst, filt, src, sign)`` adds ``sign`` times ``src`` filtered by
    ``filt`` to ``dst``, ``gain(x, divide)`` scales by K or 1/K.  Exact channels
    are walked as (bound, den) to size the slots, then packed.  A float result
    is checked once per channel; if not finite, a second pass (``locate``)
    names the stage where a sample first was not.
    """
    parts, den = coerced()
    c0, c1 = (parts[0][0::2], parts[0][1::2]) if len(parts) == 1 else parts
    del parts  # 2L samples need not stay alive while the channels lift
    L, rule, k, base = len(c0), cascade.rounding, cascade.k, cascade.base
    at_gain, at_base = f"the gain K = {clip_repr(k)}", "the base matrix"

    def run(c0, c1, update, gain, zero, check=lambda where, c0, c1: (c0, c1)) -> tuple:
        def apply_base(matrix: PolyphaseMatrix, c0, c1) -> tuple:
            # a row sums two updates of a fresh zero channel
            rows = ((matrix.h00, matrix.h01), (matrix.h10, matrix.h11))
            return tuple(update(update(zero(), a, c0, 1), b, c1, 1) for a, b in rows)

        scale = gain if k != 1 else lambda x, divide: x  # K = 1 (every reversible cascade)
        if inverse:
            c0, c1 = check(at_gain, scale(c0, False), scale(c1, True))
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
            return check(at_gain, scale(c0, True), scale(c1, False))
        return (c0, c1) if base is None else check(at_base, *apply_base(base.adjugate(), c0, c1))

    if cascade.mode == FLOAT:  # lists of doubles, updated in place by the kernel
        def check(where: str, c0: list, c1: list) -> tuple:
            if locate and not all(isfinite(v) for c in (c0, c1) for v in c):
                raise ValueError(f"float {'synthesis' if inverse else 'analysis'} "
                                 f"overflows: a sample is not finite after {where}")
            return c0, c1

        c0, c1 = run(c0, c1, _lifting_update, lambda x, divide: [v / k for v in x] if divide
                     else [v * k for v in x], lambda: [0.0] * L, check)  # 0.0 + u is never -0.0
        if not (locate or isfinite(sum(c0)) and isfinite(sum(c1))):
            return _lift(cascade, coerced, inverse, locate=True)  # a mere overflowed sum passes it
        return c0, c1

    # exact: integers over den, each channel packed in one int of L slots
    (c0, b0), (c1, b1) = _bounded(c0), _bounded(c1)
    top, ratios = [b0, b1], {d: as_ratio(1 / k if d else k) for d in (False, True)}

    def bound(dst: tuple, filt: LaurentPoly, src: tuple, sign: int) -> tuple:
        (a, da), (b, db), (taps, q) = dst, src, filt.numerators()
        t = sum(abs(c) for _, c in taps) * b
        if rule is not None:  # taps over q = 2**d: the tap sum and bias stay
            top.append(t + 2 * q)  # below t + 2q, and dst gains at most that >> d
            return a + top[-1] // q, 1
        den = lcm(da, q * db)  # dst is scaled by den / da, the taps by den / (q * db)
        return den // da * a + den // (q * db) * t, den

    def seen(where: str, c0: tuple, c1: tuple) -> tuple:  # the bounds after every stage
        top.extend((c0[0], c1[0]))
        return c0, c1

    run((b0, den), (b1, den), bound, lambda x, divide: (abs(ratios[divide][0]) * x[0],
        x[1] * ratios[divide][1]), lambda: (0, 1), seen)
    w = (max(top).bit_length() + 10) // 8  # whole bytes: every bound below 2**(width-3)
    width = 8 * w if w <= 8 else 64 * ((w + 7) // 8)
    ones = int.from_bytes((b"\1" + bytes(width // 8 - 1)) * L, "little")
    full, offsets = (1 << L * width) - 1, ones << (width - 1)
    slots = (width, ones, full, offsets)

    def update(dst: tuple, filt: LaurentPoly, src: tuple, sign: int) -> tuple:
        (x, da), (y, db), (taps, q) = dst, src, filt.numerators()
        if rule is not None:  # taps over 2**d, rounded
            return _packed_update(x, taps, y, sign, *slots, rule, q.bit_length() - 1), 1
        den = lcm(da, q * db)
        s, sb = den // da, den // (q * db)
        if s > 1:  # v + 2**(W-1) becomes s * v + 2**(W-1)
            x = x * s - (s - 1) * offsets
        return _packed_update(x, [(n, c * sb) for n, c in taps], y, sign, *slots), den

    def gain(x: tuple, divide: bool) -> tuple:
        # a Fraction's denominator is positive, so a negative gain keeps den > 0
        (p, q), (v, den) = ratios[divide], x
        return v * p - (p - 1) * offsets, den * q

    c0 = _pack(c0, width, offsets), den  # each array goes as soon as it is packed
    c1 = _pack(c1, width, offsets), den
    c0, c1 = run(c0, c1, update, gain, lambda: (offsets, 1))
    if rule is not None:
        return _unpack(c0[0], L, width, offsets), _unpack(c1[0], L, width, offsets)
    return tuple(_fractions(_unpack(v, L, width, offsets), den) for v, den in (c0, c1))


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
    x0, x1 = _lift(cascade, lambda: _coerce(cascade, (samples,), ("samples",)), inverse=False)
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
        cascade, (subbands.lowpass, subbands.highpass), ("lowpass", "highpass")), inverse=True))
    out = [None] * (2 * L)
    for parity in (0, 1):  # one band, then the other, dropped once interleaved,
        y = bands.pop(0)  # a block at a time: a whole-band slice copies L pointers aside
        for lo in range(0, L, _BLOCK):
            out[2 * lo + parity:2 * (lo + _BLOCK):2] = y[lo:lo + _BLOCK]
    return out
