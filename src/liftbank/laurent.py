"""Laurent polynomials in z^-1 over exact rationals, with a float mode.

Tap convention
--------------
A polynomial is a finite map ``n -> s(n)`` representing

    S(z) = sum_n s(n) * z**(-n)

so positive powers of z (advances) sit at *negative* tap indices: the
coefficient of z^2 is the tap at n = -2, and a one-sample delay z^-1 is the
tap at n = 1.  Under this convention "symmetric about 1/2" reads
``s(n) == s(1 - n)`` and "antisymmetric about 0" reads ``s(n) == -s(-n)``.

Two arithmetic modes exist and are never mixed inside one computation:
``EXACT`` (rational coefficients) and ``FLOAT`` (binary doubles).  Exact
mode is the default and is required for reversible transforms and for
factorization.

Both modes store one map, tap -> numerator, over one denominator.  Exact
numerators are ints over a positive denominator, canonical (no zero
numerator, ``gcd(den, *numerators) == 1``), so ``==`` compares structure.
Each exact kernel makes one pass and reduces each result once: negation
needs no gcd, a scaling by p/q divides out ``gcd(den, p) * gcd(q,
*numerators)``, ``divided`` works on raw numerator maps, and
``lifted_rows`` (a cascade's steps) on rows of primitive maps times p/q.
Row and column updates and the determinant are plain ``+`` and ``*``.  An
exact product of two factors of at least ``KRONECKER_TAPS`` taps, over
supports at most twice that long and with numerators within
``KRONECKER_BITS``, is one big-int multiply of slots (Kronecker
substitution; ``_pack`` and ``_unpack``, the exact transform's slots);
elsewhere the per-tap loop costs less.  Float numerators are doubles over
1, never reduced, and summed in the plain loops' order, so float results
keep their bits.  Only the transform kernels read the numerators, through
``numerators()``; other modules build from (p, q) pairs through
``from_ratios``.  Exact scalars have one reader, ``as_ratio``, one builder,
``_fractions`` (one gcd each), and one writer, ``format_scalar``, which
alone knows Python's int->str digit limit.
"""

from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
from math import gcd, inf, isfinite, lcm
from typing import Iterator, Mapping, Sequence, Union

EXACT = "exact"
FLOAT = "float"

#: Default absolute tolerance for float-mode coefficient comparisons.
DEFAULT_FLOAT_TOL = 1e-12

Scalar = Union[Fraction, float]

#: Most characters a decimal scalar literal's mantissa plus the size of its
#: exponent may add up to.  ``Fraction`` expands the exponent eagerly
#: ("1e4000000" costs seconds of CPU), and a value with more digits than
#: Python's default int->str limit (4300) could not be written back out.
MAX_SCALAR_DIGITS = 4300

#: The integer and "p/q" literals, a subset of ``Fraction``'s, that ``int`` reads.
_RATIO = re.compile(r"\s*([-+]?\d+)(?:/(\d+))?\s*")


#: Most characters of an offending input that an error message echoes.
MAX_ECHO_CHARS = 64


def clip(text: str) -> str:
    """``text`` cut to :data:`MAX_ECHO_CHARS` characters for a message."""
    return text if len(text) <= MAX_ECHO_CHARS else text[: MAX_ECHO_CHARS - 3] + "..."


def clip_repr(value) -> str:
    """``repr(value)`` cut by :func:`clip`, or named as :func:`_echo` names it."""
    return _echo(value, repr)


def _echo(value, text=None) -> str:
    # text(value), format_scalar's by default, cut by clip; for a non-scalar or a value past
    # the int->str digit limit, its size instead (an int's or Fraction's bits, else its
    # type): no echo fails
    try:
        return clip((text or format_scalar)(value))
    except (TypeError, ValueError):
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            return f"a value of type {type(value).__name__}"
        kind = "rational" if isinstance(value, Fraction) else "integer"
        return f"a {max(abs(value.numerator), value.denominator).bit_length()}-bit {kind}"


#: Most bits an exact evaluation away from z = +-1 may raise its point's
#: numerator and denominator to: the powers of a far tap would not finish.
MAX_EVAL_BITS = 1 << 16


def tap_index(n) -> int:
    """``n`` as a tap index, the one check: an int within +-(2**63 - 1), so
    that evaluation and messages stay bounded."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"tap index must be an integer, got {clip_repr(n)}")
    if not -(2**63) < n < 2**63:
        raise ValueError(f"tap index {clip_repr(n)} is beyond +-(2**63 - 1)")
    return n


class ModeError(ValueError):
    """Raised when exact and float arithmetic would be mixed."""


def _check_mode(mode: str) -> None:
    if mode not in (EXACT, FLOAT):
        raise ModeError(f"unknown arithmetic mode {clip_repr(mode)}")


def as_ratio(value, mode: str = EXACT) -> tuple[Scalar, int]:
    """``value`` as (numerator, denominator): the one reader of scalars.

    Exact mode gives ints in lowest terms over a positive int, from ints,
    Fractions and literals ("3", "-1/2", "0.25"); floats are rejected so
    binary rounding never sneaks into exact data.  Float mode gives a
    finite double over 1 from any real number or literal: NaN, infinities
    and overflows are rejected here, once.
    """
    if mode == EXACT and type(value) in (Fraction, int):  # the common cases, checked first
        return value.numerator, value.denominator
    _check_mode(mode)
    if isinstance(value, str):
        p, q = _literal(value)
        if mode == EXACT:
            return p, q
        value = _fractions((p,), q)[0]
    if mode == FLOAT:
        if type(value) is float:  # the per-sample case, checked first
            x = value
        elif isinstance(value, (int, float, Fraction)) and not isinstance(value, bool):
            try:
                x = float(value)
            except OverflowError:
                x = inf
        else:
            raise TypeError(f"cannot use {type(value).__name__} as a float scalar")
        if not isfinite(x):
            raise ValueError(f"float scalars must be finite, got {x!r}")
        return x, 1
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, (int, Fraction)):  # what Fraction(value) would read
        return value.numerator, value.denominator
    if isinstance(value, float):
        raise ModeError(
            "float given in exact mode; write non-integer values as strings "
            "('-1/2', '0.25') or Fractions"
        )
    raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")


def _literal(text: str) -> tuple[int, int]:
    # integer and "p/q" literals read by int and one gcd, the rest by Fraction;
    # an int digit limit set below MAX_SCALAR_DIGITS is Fraction's refusal
    m = _RATIO.fullmatch(text) if len(text) <= MAX_SCALAR_DIGITS else None
    try:
        if m and (q := int(m[2] or 1)):
            g = gcd(p := int(m[1]), q)
            return p // g, q // g
    except ValueError:
        pass
    t = text.strip()
    if ("e" in t or "E" in t or len(t) > MAX_SCALAR_DIGITS) and "/" not in t:
        mantissa, _, exponent = t.lower().partition("e")
        try:
            size = len(mantissa) + abs(int(exponent or 0))
        except ValueError:
            size = 0  # not a literal; Fraction refuses it below
        if size > MAX_SCALAR_DIGITS:
            raise ValueError(
                f"decimal scalar literal needs more than {MAX_SCALAR_DIGITS} digits"
            )
    try:
        value = Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid scalar literal {clip_repr(text)}") from exc
    return value.numerator, value.denominator


def as_scalar(value, mode: str = EXACT) -> Scalar:
    """``value`` as what :func:`as_ratio` reads: a ``Fraction`` or a float."""
    if mode == EXACT and type(value) is Fraction:  # immutable: shared, not rebuilt
        return value
    p, q = as_ratio(value, mode)
    return _fractions((p,), q)[0] if mode == EXACT else p


def parse_scalar(text: str, mode: str = EXACT) -> Scalar:
    """A scalar literal, "p/q", an integer or a decimal, as :func:`as_scalar`.

    In exact mode decimals parse exactly ("0.25" -> 1/4); in float mode
    everything collapses to a finite double.  A decimal whose mantissa and
    exponent need more than :data:`MAX_SCALAR_DIGITS` digits is refused.
    """
    return as_scalar(text, mode)


#: Whether ``Fraction`` keeps its lowest-terms parts in just these two slots,
#: as CPython's does (3.12's own lowest-terms constructor fills them); if not,
#: the builder and ``_parts`` use its public constructor and properties.
_SLOTTED = set(getattr(Fraction, "__slots__", ())) == {"_numerator", "_denominator"}


def _fractions(nums, den: int) -> list[Fraction]:
    # every v / den of ``nums`` (den > 0) as a Fraction in lowest terms, by one
    # gcd each, in one loop, without Fraction's own gcd and sign normalisation
    if not _SLOTTED:
        return [Fraction(v, den) for v in nums]
    out, new = [], object.__new__
    for v in nums:
        f, g = new(Fraction), gcd(v, den)
        f._numerator, f._denominator = v // g, den // g
        out.append(f)
    return out


def _parts(values: list, slots: bool = True) -> tuple[list, list]:
    # numerators and denominators of ints and plain Fractions, read from the
    # slots when ``slots`` says every value is a Fraction
    if slots and _SLOTTED:
        return [v._numerator for v in values], [v._denominator for v in values]
    return [v.numerator for v in values], [v.denominator for v in values]


def _is_exact(x) -> bool:
    # True for ints (not bools) and Fractions, False for floats, as as_ratio reads
    # them; anything else is no scalar
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return True
    if isinstance(x, float):
        return False
    raise TypeError(f"cannot use {type(x).__name__} as a scalar")


def format_scalar(x: Scalar) -> str:
    """Canonical text form: "p/q" or "n" for Fractions and ints, repr for floats.  An
    exact value past Python's int->str digit limit is a ``ValueError`` naming its bit
    size; a bool or a non-number is a ``TypeError``."""
    if not _is_exact(x):
        return repr(float(x))
    try:
        return str(x)
    except ValueError:  # str() refuses it again, so _echo names its size
        raise ValueError(f"{_echo(x, str)} is past Python's int->str digit limit") from None


def scalar_is_dyadic(x: Scalar) -> bool:
    """True iff ``x``, an int or a ``Fraction``, has a power-of-2 denominator.  A
    float is a ``ModeError``; a bool or a non-number is a ``TypeError``."""
    if not _is_exact(x):
        raise ModeError("dyadicity is undefined for float scalars")
    d = x.denominator
    return d & (d - 1) == 0


class LaurentPoly:
    """Immutable Laurent polynomial: nonzero tap numerators over one denominator."""

    __slots__ = ("_num", "_den", "_mode")

    def __init__(self, taps: Mapping[int, object] | None = None, mode: str = EXACT):
        _check_mode(mode)
        ratios = {}
        for n, c in (taps or {}).items():
            ratios[tap_index(n)] = as_ratio(c, mode)
        self._set(*_over_lcm(ratios), mode)

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("LaurentPoly is immutable")

    def _set(self, num: dict, den: int, mode: str) -> "LaurentPoly":
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_mode", mode)
        return self

    def _new(self, num: dict, den: int) -> "LaurentPoly":
        return LaurentPoly.__new__(LaurentPoly)._set(*_reduced(num, den), self._mode)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, mode: str = EXACT) -> "LaurentPoly":
        return cls({}, mode)

    @classmethod
    def one(cls, mode: str = EXACT) -> "LaurentPoly":
        return cls({0: 1}, mode)

    @classmethod
    def from_ratios(cls, ratios: Mapping[int, tuple], mode: str = EXACT) -> "LaurentPoly":
        """The polynomial with tap n = p/q for each ``n: (p, q)`` of :func:`as_ratio`
        (in lowest terms, q > 0)."""
        return cls.__new__(cls)._set(*_over_lcm(ratios), mode)

    @classmethod
    def monomial(cls, coeff, tap: int = 0, mode: str = EXACT) -> "LaurentPoly":
        """The single-term polynomial coeff * z^(-tap)."""
        return cls({tap: coeff}, mode)

    # -- inspection --------------------------------------------------------

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def is_zero(self) -> bool:
        return not self._num

    def _edge(self, pairs) -> list[tuple[int, Scalar]]:
        # (tap, numerator) pairs as (tap, coefficient): exact ones by _fractions
        if self._mode != EXACT:
            return list(pairs)
        taps, nums = zip(*pairs) if pairs else ((), ())
        return list(zip(taps, _fractions(nums, self._den)))

    def coeff(self, n: int) -> Scalar:
        c = self._num.get(n, 0)
        return _fractions((c,), self._den)[0] if self._mode == EXACT else float(c)

    def items(self) -> Iterator[tuple[int, Scalar]]:
        """Taps in ascending index order."""
        return iter(self._edge(sorted(self._num.items())))

    def numerators(self) -> tuple[list[tuple[int, Scalar]], int]:
        """(tap, numerator) pairs in ascending tap order, and the one denominator.

        Exact numerators are ints over a positive int; floats are over 1.
        """
        return sorted(self._num.items()), self._den

    def taps(self) -> dict[int, Scalar]:
        """A copy of the tap map."""
        return dict(self._edge(self._num.items()))

    def support(self) -> tuple[int, int] | None:
        """(min tap, max tap), or None for the zero polynomial."""
        return (min(self._num), max(self._num)) if self._num else None

    def span(self) -> int:
        """Length of the support interval (0 for the zero polynomial)."""
        return max(self._num) - min(self._num) + 1 if self._num else 0

    # -- algebra -----------------------------------------------------------

    def _require_same_mode(self, other: "LaurentPoly") -> None:
        if self._mode != other._mode:
            raise ModeError(
                f"cannot mix {self._mode} and {other._mode} polynomials"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, -1)

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        # self + sign * other over the lcm of the denominators, self's taps first;
        # a float c * -1 is exactly -c, so a - b keeps the bits of a + (-b)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._require_same_mode(other)
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        num = dict(self._num) if sa == 1 else {n: c * sa for n, c in self._num.items()}
        get = num.get
        for n, c in other._num.items():
            num[n] = get(n, 0) + c * sb
        return self._new(num, den)

    def __neg__(self) -> "LaurentPoly":  # canonical in, canonical out: no gcd
        return _restored({n: -c for n, c in self._num.items()}, self._den, self._mode)

    def __mul__(self, other) -> "LaurentPoly":
        # zero numerators kept until _new reduces them; two long exact factors
        # by one big-int multiply, which adds no zero
        if not isinstance(other, LaurentPoly):
            return self.scaled(other)
        self._require_same_mode(other)
        num, a, b = {}, self._num, other._num
        if self._mode != EXACT or not _kronecker(a, b, num):
            get = num.get
            for n1, c1 in a.items():
                for n2, c2 in b.items():
                    n = n1 + n2
                    num[n] = get(n, 0) + c1 * c2
        return self._new(num, self._den * other._den)

    def divided(self, d: "LaurentPoly", low: bool = True) -> tuple["LaurentPoly", "LaurentPoly"]:
        """(q, r) with ``self == q * d + r``, r zero or shorter than ``d``: monomial
        multiples of ``d`` kill r's lowest tap (``low``) or its highest, one at
        a time, a tap that cancels on the way included.  Exact only.  Tap t dies
        by ``num[t] // lead`` times ``d``'s numerators, lead ``d``'s at its killed
        end, once the numerators, q's and their one denominator are scaled by
        ``|lead| // gcd(num[t], lead)`` if lead does not divide num[t].  q and r
        are reduced once, at the end: a mid-loop gcd, once the denominator had
        1-2x its starting bits, made ``factor`` (seeds 1, 2) 6-12% slower."""
        if self._mode != EXACT or d._mode != EXACT:
            raise ModeError("Laurent division requires exact arithmetic")
        if not d._num:
            raise ZeroDivisionError("Laurent division by the zero polynomial")
        dn, dd = d._num, d._den
        end, width = (min(dn) if low else max(dn)), max(dn) - min(dn)
        lead, num, den, killed = dn[end], dict(self._num), self._den, {}
        while num and max(num) - min(num) >= width:
            t = min(num) if low else max(num)
            if rest := num[t] % lead:
                k = abs(lead) // gcd(rest, lead)
                num, den = {n: c * k for n, c in num.items()}, den * k
                killed = {n: c * k for n, c in killed.items()}
            # num -= a * z^-s * dn, q's monomial a * dd / den at s; a tap at 0 leaves
            s, a = t - end, num[t] // lead
            killed[s] = a
            for n, c in dn.items():
                if v := num.get(n + s, 0) - a * c:
                    num[n + s] = v
                else:
                    del num[n + s]
        return self._new({s: a * dd for s, a in killed.items()}, den), self._new(num, den)

    def __rmul__(self, other) -> "LaurentPoly":
        return self.scaled(other)

    def scaled(self, c) -> "LaurentPoly":
        p, q = as_ratio(c, self._mode)
        if self._mode != EXACT or not p:  # float bits as the plain loop's; 0 reduces to 0
            return self._new({n: p * x for n, x in self._num.items()}, q)
        # canonical self and p/q in lowest terms: the gcd is gcd(den, p) * gcd(q, *nums)
        g, h = gcd(self._den, p), gcd(q, *self._num.values())
        p, q = p // g, q // h
        return _restored({n: p * (x // h if h != 1 else x) for n, x in self._num.items()},
                         self._den // g * q, EXACT)

    def reindexed(self, scale: int, offset: int = 0) -> "LaurentPoly":
        """z^(-offset) * S(z^scale): tap n moves to scale * n + offset.

        ``reindexed(1, d)`` delays by d taps, ``reindexed(-1, c)`` mirrors
        the taps about c/2 and ``reindexed(2)`` upsamples by two.  The new
        map is filled in ascending order of n.
        """
        if not scale:
            raise ValueError("reindexing by scale 0 would merge every tap into one")
        num = {scale * n + offset: c for n, c in sorted(self._num.items())}
        return LaurentPoly.__new__(LaurentPoly)._set(num, self._den, self._mode)

    def decimated(self, scale: int, offset: int = 0) -> "LaurentPoly":
        """The taps n = scale * m + offset, each moved to m: the inverse of
        ``reindexed(scale, offset)`` on the taps it fills.

        ``decimated(2)`` and ``decimated(2, -1)`` are the even and odd
        polyphase components.  The new map is filled in ascending order of n.
        """
        if not scale:
            raise ValueError("decimating by scale 0 would keep one tap for every m")
        num = {(n - offset) // scale: c for n, c in sorted(self._num.items())
               if (n - offset) % scale == 0}
        return self._new(num, self._den)

    def evaluate(self, point) -> Scalar:
        """Value of S at z = point: sum of s(n) * point**(-n).

        point = 0 is only legal when no tap needs a negative exponent there,
        i.e. when every tap index is <= 0.  An exact value at z = 1 is the
        sum of the numerators over the denominator, at z = -1 the same sum
        with odd taps negated.  Elsewhere, at point = p/q, it is
        sum(num(n) * p**(hi - n) * q**(n - lo)) * q**lo / (den * p**hi), for
        taps in [lo, hi], summed over integers.  There an exact evaluation
        whose powers need more than :data:`MAX_EVAL_BITS` bits, and a float
        one that overflows, raise ``ValueError``.  Floats take the per-tap sum
        at every point.
        """
        p, q = as_ratio(point, self._mode)
        if p == 0:
            if any(n > 0 for n in self._num):
                raise ZeroDivisionError(
                    "evaluation at 0 with delay taps (negative exponents)"
                )
            return self.coeff(0)
        if self._mode == EXACT and q == 1 and p * p == 1:  # the DC and Nyquist values
            odd = 0 if p == 1 else sum(c for n, c in self._num.items() if n & 1)
            return _fractions((sum(self._num.values()) - 2 * odd,), self._den)[0]
        if self._mode != EXACT:
            total = 0.0
            try:
                for n, c in self._num.items():
                    total += c * p ** (-n)
            except OverflowError:
                raise ValueError(f"float evaluation at {clip_repr(point)} overflows") from None
            return total
        lo, hi = min(self._num, default=0), max(self._num, default=0)
        bits = (hi - lo + max(-lo, hi)) * (abs(p).bit_length() + q.bit_length())
        if bits > MAX_EVAL_BITS:
            raise ValueError(
                f"exact evaluation at {clip_repr(point)} needs over {MAX_EVAL_BITS} bits")
        t = sum(c * p ** (hi - n) * q ** (n - lo) for n, c in self._num.items())
        a = t * q ** max(lo, 0) * p ** max(-hi, 0)
        b = self._den * p ** max(hi, 0) * q ** max(-lo, 0)
        if b < 0:  # p < 0 can make it negative
            a, b = -a, -b
        return _fractions((a,), b)[0]

    def is_dyadic(self) -> bool:
        """True iff every coefficient has a power-of-two denominator."""
        if self._mode != EXACT:
            raise ModeError("dyadicity is undefined in float mode")
        # canonical: the denominator is the lcm of the reduced ones
        return self._den & (self._den - 1) == 0

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (
            self._mode == other._mode
            and self._den == other._den
            and self._num == other._num
        )

    __hash__ = None  # mutable-dict backed; not hashable

    def __reduce__(self):  # copy and pickle restore the stored map as it is
        return _restored, (self._num, self._den, self._mode)

    def approx_eq(self, other: "LaurentPoly", tol: float = DEFAULT_FLOAT_TOL) -> bool:
        """Float coefficients within an absolute tolerance; exact ones by ``==``."""
        if not isinstance(other, LaurentPoly):
            raise TypeError("approx_eq expects a LaurentPoly")
        self._require_same_mode(other)
        if self._mode == EXACT:
            return self == other
        a, b = self._num, other._num  # a NaN difference fails
        return all(abs(a.get(n, 0.0) - b.get(n, 0.0)) <= tol for n in a.keys() | b.keys())

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._num:
            return "0"
        terms = []
        for n, c in self.items():  # descending powers of z
            a, z = abs(c), "z" if n == -1 else f"z^{-n}"
            mag = format_scalar(a) if n == 0 else z if a == 1 else f"{format_scalar(a)}*{z}"
            terms.append(("- " if c < 0 else "+ ") + mag)
        text = " ".join(terms)  # "+ a - b": the first sign loses its space, a + its sign
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _reduced(num: dict, den: int) -> tuple[dict, int]:
    # drop zero numerators, reduce by one gcd (a float polynomial's
    # denominator is 1, so floats are never divided)
    if 0 in num.values():  # == 0 exactly when falsy, -0.0 included
        num = {n: c for n, c in num.items() if c}
    if den != 1 and (g := gcd(den, *num.values())) != 1:
        return {n: c // g for n, c in num.items()}, den // g
    return num, den


def _over_lcm(ratios: Mapping[int, tuple[Scalar, int]]) -> tuple[dict, int]:
    # nonzero (p, q) pairs in lowest terms over the lcm of their q: canonical
    # without a gcd, since no prime of that lcm divides every numerator
    den = lcm(*[q for _, q in ratios.values()])
    return {n: p * (den // q) for n, (p, q) in ratios.items() if p}, den


#: Fewest taps each factor of an exact product needs, over a support at most
#: twice that long, for the one-multiply Kronecker branch of ``*``, and the
#: widest numerator in bits it takes at that many taps; the bits bound grows
#: with the square of the shorter factor's taps (16 taps: 167 bits, 28: 512).
KRONECKER_TAPS, KRONECKER_BITS = 14, 128


#: Whether ``array`` words of type b, h, i and q are 1, 2, 4 and 8 bytes,
#: little-endian: byte j of word i sits at byte ``size * i + j``.
_WORDS = [array(t).itemsize for t in "bhiq"] == [1, 2, 4, 8] and sys.byteorder == "little"

#: ``bytes.translate`` table of a two's complement top byte to its sign byte.
_SIGN = bytes(128) + b"\xff" * 128


def _pack(nums: Sequence[int], width: int, offsets: int) -> int:
    """One int holding nums[i] + 2**(width-1) in bits [i*width, (i+1)*width);
    ``offsets`` has bit width-1 of every slot set, and every |nums[i]| is below
    2**(width-1).  An ``array('q')`` is copied a byte column at a time: the
    low width/8 bytes of each word, or all 8 and then its sign byte."""
    w = width // 8
    if not isinstance(nums, array):
        half = 1 << (width - 1)
        return int.from_bytes(b"".join((v + half).to_bytes(w, "little") for v in nums), "little")
    data = nums.tobytes()
    if w != 8:
        cols, sign = bytearray(w * len(nums)), data[7::8].translate(_SIGN) if w > 8 else b""
        for j in range(w):
            cols[j::w] = data[j::8] if j < 8 else sign
        data = cols
    return int.from_bytes(data, "little") ^ offsets


def _unpack(x: int, L: int, width: int, offsets: int) -> Sequence[int]:
    """The L values of :func:`_pack`'s slots: up to 64 bits, an ``array`` of
    the narrowest 1, 2, 4 or 8-byte words that holds a slot, the higher bytes
    filled with the sign of its top byte; else a list."""
    w = width // 8
    data = (x ^ offsets).to_bytes(w * L, "little")
    size = 1 << (w - 1).bit_length()
    if size > 8 or not _WORDS:
        return [int.from_bytes(data[i:i + w], "little", signed=True) for i in range(0, w * L, w)]
    if size > w:
        words, sign = bytearray(size * L), data[w - 1::w].translate(_SIGN)
        for j in range(size):
            words[j::size] = data[j::w] if j < w else sign
        data = words
    return array("bhiq"[size.bit_length() - 1], data)


def _kronecker(a: dict, b: dict, num: dict) -> bool:
    # the empty num filled with a * b by one multiply of big ints, z^-1 -> 2**width
    # (Kronecker substitution): each factor is its taps over its support in _pack's
    # slots, less their offsets, each slot wide enough for any product tap and its
    # sign; _unpack reads the product's taps back.  False, num untouched, for
    # factors that the KRONECKER_ bounds leave to the cheaper per-tap loop
    taps = min(len(a), len(b))
    if taps < KRONECKER_TAPS or any(max(m) - min(m) >= 2 * len(m) for m in (a, b)):
        return False
    wa, wb = (max(map(int.bit_length, m.values())) for m in (a, b))
    if max(wa, wb) * KRONECKER_TAPS**2 > KRONECKER_BITS * taps**2:
        return False
    bits = wa + wb + 1 + taps.bit_length()
    width = 8 * (bits // 8 + 1)  # every |tap| < 2**(width - 1)
    sign = bytes(width // 8 - 1) + b"\x80"
    product = 1
    for m in (a, b):
        get, lo, taps = m.get, min(m), max(m) - min(m) + 1
        offsets = int.from_bytes(sign * taps, "little")
        product *= _pack([get(n, 0) for n in range(lo, lo + taps)], width, offsets) - offsets
    lo, taps = min(a) + min(b), max(a) + max(b) - min(a) - min(b) + 1
    offsets = int.from_bytes(sign * taps, "little")
    for n, c in enumerate(_unpack(product + offsets, taps, width, offsets), lo):
        if c:
            num[n] = c
    return True


def lifted_rows(entries, steps) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
    """h00, h01, h10, h11 of ``M(S_k) ... M(S_0) [[h00, h01], [h10, h11]]`` for
    the exact ``entries`` and ``(update, filter)`` steps, first-applied-first:
    each adds its filter times the other row to row ``update``.  A row is two
    numerator maps, updated in place, times p/q in lowest terms (1/den at the
    start); a step leaves its row's maps jointly primitive (gcd 1 over all
    numerators), so by Gauss's lemma g * src is content(g) * p_src / (g's den *
    q_src) times primitive maps.  A step lifts its row to the lcm of q and that
    reduced denominator before it multiplies, not to the product of the two
    (4x slower on 16-step factorizations); one gcd moves the content into p."""
    rows = []
    for x, y in (entries[:2], entries[2:]):
        den = lcm(x._den, y._den)
        maps = [{n: c * (den // e._den) for n, c in e._num.items()} for e in (x, y)]
        rows.append((maps, 1 if maps[0] or maps[1] else 0, den))
    for u, g in steps:
        dst, p, q = rows[u]
        src, ps, qs = rows[1 - u]
        gnum, gden = g._num, g._den
        if not ps or not gnum:  # g * src is zero
            continue
        # g * src = a/b times integer maps, lowest terms once src was stepped: g and
        # ps/qs are canonical, so gcd(content(g) * ps, gden * qs) splits in two
        e1, e2 = gcd(qs, *gnum.values()), gcd(ps, gden)
        b = gden * qs // (e1 * e2)
        den = lcm(q, b)
        if (k := p * (den // q)) != 1:
            for m in dst:
                for n, c in m.items():
                    m[n] = c * k
        k = ps // e2 * (den // b)
        if e1 != 1:
            gnum = {n: c // e1 * k for n, c in gnum.items()}
        elif k != 1:
            gnum = {n: c * k for n, c in gnum.items()}
        for m, o in zip(dst, src):
            get = m.get
            for n1, c1 in gnum.items():
                for n2, c2 in o.items():
                    n = n1 + n2
                    m[n] = get(n, 0) + c1 * c2
            if 0 in m.values():
                for n in [n for n, c in m.items() if not c]:
                    del m[n]
        d = gcd(*dst[0].values(), *dst[1].values())
        if d > 1:
            for m in dst:
                for n, c in m.items():
                    m[n] = c // d
        e = gcd(d, den)  # the zero row is 0/1
        rows[u] = dst, d // e, den // e
    out = []
    for maps, p, q in rows:
        for m in maps:  # m * p / q, canonical since p/q is
            if (h := gcd(q, *m.values())) != 1 or p != 1:
                m = {n: c // h * p for n, c in m.items()}
            out.append(_restored(m, q // h, EXACT))
    return tuple(out)


def _restored(num: dict, den: int, mode: str) -> LaurentPoly:
    # a copy, an unpickled polynomial or a remainder: the stored map, unchecked, as it was
    return LaurentPoly.__new__(LaurentPoly)._set(num, den, mode)
