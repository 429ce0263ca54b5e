"""2x2 polyphase matrices and the scalar-filter correspondence.

A two-channel analysis bank is represented by

    H(z) = [[h00, h01],
            [h10, h11]]

acting on the subsampled signal vector [x0; x1] with x0(n) = x(2n) and
x1(n) = x(2n+1).  Row 0 is the lowpass channel.  The scalar filters are
recovered through

    H_0(z) = h00(z^2) + z * h01(z^2)
    H_1(z) = h10(z^2) + z * h11(z^2)

which in tap indices reads: even tap 2m of H_i comes from tap m of the
left column entry, odd tap 2m-1 from tap m of the right column entry.
"""

from __future__ import annotations

from math import isfinite

from ._record import Record, set_field
from .laurent import (
    DEFAULT_FLOAT_TOL,
    EXACT,
    LaurentPoly,
    ModeError,
    Scalar,
    as_scalar,
)

#: Tolerance admitting float-mode matrices as unimodular (det = 1), relative
#: to the largest coefficient of the terms the det sums (at least 1).
BASE_DET_TOL = 1e-9


class FilterPair(Record):
    """Scalar lowpass/highpass analysis filters of a two-channel bank."""

    __slots__ = ("lowpass", "highpass")

    def __init__(self, lowpass: LaurentPoly, highpass: LaurentPoly):
        if lowpass.mode != highpass.mode:
            raise ModeError("filter pair mixes arithmetic modes")
        Record.__init__(self, lowpass, highpass)

    @property
    def mode(self) -> str:
        return self.lowpass.mode


class PolyphaseMatrix(Record):
    __slots__ = ("h00", "h01", "h10", "h11")

    def __init__(self, h00: LaurentPoly, h01: LaurentPoly, h10: LaurentPoly, h11: LaurentPoly):
        if not h00.mode == h01.mode == h10.mode == h11.mode:
            raise ModeError("polyphase matrix mixes arithmetic modes")
        set_field(self, "h00", h00)
        set_field(self, "h01", h01)
        set_field(self, "h10", h10)
        set_field(self, "h11", h11)

    def entries(self) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
        return (self.h00, self.h01, self.h10, self.h11)

    @property
    def mode(self) -> str:
        return self.h00.mode

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, mode: str = EXACT) -> "PolyphaseMatrix":
        one = LaurentPoly.one(mode)
        zero = LaurentPoly.zero(mode)
        return cls(one, zero, zero, one)

    @classmethod
    def diagonal(cls, a, b, mode: str = EXACT) -> "PolyphaseMatrix":
        zero = LaurentPoly.zero(mode)
        return cls(LaurentPoly.monomial(a, 0, mode), zero, zero, LaurentPoly.monomial(b, 0, mode))

    @classmethod
    def from_filters(cls, pair: FilterPair) -> "PolyphaseMatrix":
        """Invert the scalar-filter correspondence (exact round-trip):
        h_i0 and h_i1 are the even and odd polyphase components of H_i."""
        lo, hi = pair.lowpass, pair.highpass
        return cls(lo.decimated(2), lo.decimated(2, -1), hi.decimated(2), hi.decimated(2, -1))

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "PolyphaseMatrix") -> "PolyphaseMatrix":
        if not isinstance(other, PolyphaseMatrix):
            return NotImplemented
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        return PolyphaseMatrix(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def lifted(self, update: int, g: LaurentPoly) -> "PolyphaseMatrix":
        """``LiftingStep(update, g).matrix() @ self`` as one row update.

        Row ``update`` gains ``g`` times the other row: 2 polynomial products
        instead of the 8 of a full ``@``.  The operands keep the order of
        that product, so float results are bit-identical to it.
        """
        a, b, c, d = self.entries()
        if update == 0:
            return PolyphaseMatrix(a + g * c, b + g * d, c, d)
        return PolyphaseMatrix(a, b, g * a + c, g * b + d)

    def colifted(self, update: int, g: LaurentPoly) -> "PolyphaseMatrix":
        """``self @ LiftingStep(update, g).matrix()`` as one column update: 2
        polynomial products, in the operand order, so the float bits, of the 8."""
        a, b, c, d = self.entries()
        if update == 0:
            return PolyphaseMatrix(a, a * g + b, c, c * g + d)
        return PolyphaseMatrix(a + b * g, b, c + d * g, d)

    def rows_scaled(self, a, b) -> "PolyphaseMatrix":
        """``diagonal(a, b) @ self`` as four scalings, with that product's taps,
        tap order, float bits and refusal of a non-finite factor."""
        h00, h01, h10, h11 = self.entries()
        return PolyphaseMatrix(h00.scaled(a), h01.scaled(a), h10.scaled(b), h11.scaled(b))

    def determinant(self) -> LaurentPoly:
        return self.h00 * self.h11 - self.h01 * self.h10

    def is_unimodular(self) -> bool:
        """det = 1: exactly, or for float matrices within a scaled tolerance.

        Rounding in h00*h11 - h01*h10 is bounded by the terms it sums: the
        tolerance is ``BASE_DET_TOL`` * max(1, largest coefficient of
        |h00|*|h11| + |h01|*|h10|); a matrix whose terms overflow is refused.
        """
        det = self.determinant()
        one = LaurentPoly.one(self.mode)
        if self.mode == EXACT:
            return det == one
        a, b, c, d = (LaurentPoly.from_ratios({n: (abs(x), 1) for n, x in e.items()}, self.mode)
                      for e in self.entries())  # non-finite taps give a non-finite tol
        tol = BASE_DET_TOL * max([1.0] + [x for _, x in (a * d + b * c).items()])
        return isfinite(tol) and det.approx_eq(one, tol)

    def describe_determinant(self) -> str:
        """det by its span and coefficient size, never by its digits.

        Exact coefficients are sized by the longer bit length of numerator
        and denominator, float ones by magnitude, so the text stays short
        however large the entries are.
        """
        det = self.determinant()
        if det.is_zero:
            return "0"
        coeffs = [c for _, c in det.items()]
        if self.mode == EXACT:
            bits = max(max(abs(c.numerator), c.denominator).bit_length() for c in coeffs)
            size = f"{bits}-bit coefficients"
        else:
            size = f"coefficients up to {max(abs(c) for c in coeffs):.3g} in magnitude"
        return f"of span {det.span()} with {size}"

    def adjugate(self) -> "PolyphaseMatrix":
        """[[h11, -h01], [-h10, h00]]: the inverse of a det-1 matrix, unchecked.

        For matrices whose det is 1 by construction, such as a cascade's
        base; :meth:`inverse` checks the det first.
        """
        return PolyphaseMatrix(self.h11, -self.h01, -self.h10, self.h00)

    def inverse(self) -> "PolyphaseMatrix":
        """Adjugate inverse, valid only for unimodular (det = 1) matrices."""
        if not self.is_unimodular():
            raise ValueError(
                f"matrix is not unimodular (det {self.describe_determinant()}); "
                "no FIR inverse taken"
            )
        return self.adjugate()

    def evaluate(self, point) -> tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]:
        """Entry-wise evaluation at z = point."""
        rows = ((self.h00, self.h01), (self.h10, self.h11))
        return tuple((a.evaluate(point), b.evaluate(point)) for a, b in rows)

    def to_filters(self) -> FilterPair:
        """H_i(z) = h_i0(z^2) + z * h_i1(z^2) for each row i."""
        return FilterPair(
            self.h00.reindexed(2) + self.h01.reindexed(2, -1),
            self.h10.reindexed(2) + self.h11.reindexed(2, -1),
        )

    # -- comparison --------------------------------------------------------

    def approx_eq(self, other: "PolyphaseMatrix", tol: float = DEFAULT_FLOAT_TOL) -> bool:
        return all(
            a.approx_eq(b, tol) for a, b in zip(self.entries(), other.entries())
        )

    def is_identity(self, tol: float = DEFAULT_FLOAT_TOL) -> bool:
        return self.approx_eq(PolyphaseMatrix.identity(self.mode), tol)

    def __str__(self) -> str:
        return f"[[{self.h00}, {self.h01}], [{self.h10}, {self.h11}]]"


def gamma(matrix: PolyphaseMatrix, k) -> PolyphaseMatrix:
    """The inner automorphism D_K A D_K^-1.

    A float K whose factor 1/K^2 or K^2 is 0 or infinite, or that scales an
    off-diagonal entry to 0 or a non-finite tap, raises ValueError.
    """
    kk = as_scalar(k, matrix.mode)
    k2 = kk * kk
    if not k2 or (matrix.mode != EXACT and not (isfinite(k2) and isfinite(1 / k2))):
        raise ValueError(f"gamma requires a nonzero K with finite K^2 and 1/K^2, "
                         f"got K = {kk!r}")
    h01, h10 = matrix.h01.scaled(1 / k2), matrix.h10.scaled(k2)
    if matrix.mode != EXACT:
        for entry, scaled in ((matrix.h01, h01), (matrix.h10, h10)):
            if scaled.is_zero != entry.is_zero or not all(map(isfinite, scaled.taps().values())):
                raise ValueError(f"K = {kk!r} scales an off-diagonal entry to 0 or infinity")
    return PolyphaseMatrix(matrix.h00, h01, h10, matrix.h11)
