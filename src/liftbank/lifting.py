"""Lifting cascades: structured factorizations of two-channel filter banks.

A cascade holds lifting steps S_0 .. S_{N-1}, a gain K and an optional base
matrix B(z), and denotes the analysis polyphase matrix

    H(z) = diag(1/K, K) * M(S_{N-1}) * ... * M(S_1) * M(S_0) * B(z)

where a step with update characteristic 0 contributes the upper-triangular
matrix [[1, S], [0, 1]] (it adds a filtered version of the highpass channel
to the lowpass channel) and a step with update characteristic 1 contributes
[[1, 0], [S, 1]].  Steps are stored first-applied-first, i.e. S_0 acts first
on the demultiplexed signal.

The DC trace follows the lowpass/highpass DC gains through the cascade:
starting from the vector B(1) @ [1, 1]^T, each step multiplies by its matrix
evaluated at z = 1.  The running value B_n is the entry most recently
modified, which for alternating cascades coincides with the two-term scalar
recursion B_n = D_n * B_{n-1} + B_{n-2} (D_n the step's DC gain).  The
seeds are the initial vector's entries: B_{-2} the one step 0 modifies,
B_{-1} the other, so B_{-1} = B_{-2} = 1 without a base.

Only a reversible cascade rounds, mapping integers to integers (Calderbank,
Daubechies, Sweldens and Yeo, 1998) by one of the five plain-data
``ROUNDING_RULES``; an irreversible cascade carries no rule.
"""

from __future__ import annotations

from math import inf, isfinite
from typing import Iterable, Sequence

from ._record import Record, set_field
from .laurent import (
    EXACT, LaurentPoly, ModeError, Scalar, _echo, as_scalar, clip_repr, lifted_rows)
from .polyphase import FilterPair, PolyphaseMatrix, gamma


class CascadeError(ValueError):
    """A lifting step or cascade refused one of its arguments.

    ``field`` is the path to the offending argument in attribute names,
    e.g. ``("k",)`` or ``("steps", 2, "filter")``, so that callers reading
    a document can point at the part at fault; it is empty when the fault
    is the whole cascade's (a base with det != 1).
    """

    def __init__(self, message: str, *field):
        super().__init__(message)
        self.field = field


# ---------------------------------------------------------------------------
# rounding rules


class RoundingRule(Record):
    """A deterministic map from dyadic rationals to integers, as plain data.

    Every rule rounds num / 2**d as ``(num + bias) >> d`` in integer
    arithmetic, with the bias ``halves * h - below`` for d >= 1 and
    h = 2**(d-1): h for half-up, h - 1 for half-down, 0 for floor and
    2h - 1 for ceiling; half-even (``to_even``) adds the low bit of
    num >> d to h - 1, so a tie goes to the even neighbour.  d = 0 needs no
    rounding.  Only reversible cascades round, by one of ``ROUNDING_RULES``.
    """

    __slots__ = ("name", "halves", "below", "to_even")


ROUND_HALF_UP = RoundingRule("half-up", 1, 0, False)
ROUND_HALF_DOWN = RoundingRule("half-down", 1, 1, False)
ROUND_FLOOR = RoundingRule("floor", 0, 0, False)
ROUND_CEILING = RoundingRule("ceiling", 2, 1, False)
ROUND_HALF_EVEN = RoundingRule("half-even", 1, 1, True)

ROUNDING_RULES = {r.name: r for r in (
    ROUND_HALF_UP, ROUND_HALF_DOWN, ROUND_FLOOR, ROUND_CEILING, ROUND_HALF_EVEN)}

DEFAULT_ROUNDING = ROUND_HALF_UP


# ---------------------------------------------------------------------------
# steps and cascades


class LiftingStep(Record):
    """One lifting step: which channel it updates (0 = lowpass, 1 = highpass)
    and the FIR update filter."""

    __slots__ = ("update", "filter")

    def __init__(self, update: int, filter: LaurentPoly):
        if type(update) is not int or update not in (0, 1):
            raise CascadeError(f"update must be 0 or 1, got {clip_repr(update)}", "update")
        if filter.is_zero:
            raise CascadeError("zero lifting filter", "filter")
        if filter.mode != EXACT and not all(map(isfinite, filter.taps().values())):
            raise CascadeError("lifting filter has a non-finite tap", "filter")
        set_field(self, "update", update)  # set_field, not Record.__init__: steps are built per op
        set_field(self, "filter", filter)

    @property
    def mode(self) -> str:
        return self.filter.mode

    def matrix(self) -> PolyphaseMatrix:
        one = LaurentPoly.one(self.mode)
        zero = LaurentPoly.zero(self.mode)
        if self.update == 0:
            return PolyphaseMatrix(one, self.filter, zero, one)
        return PolyphaseMatrix(one, zero, self.filter, one)

    def dc_gain(self) -> Scalar:
        return self.filter.evaluate(1)


class DCTrace(Record):
    """DC vectors and running normalization values along a cascade.

    ``vectors[i]`` is the DC vector after step i-1 (``vectors[0]`` is the
    initial vector, before any step).  ``b[i]`` is B_{i-2}: the list starts
    with the initial vector's entry that step 0 modifies (B_{-2}) and then
    the other entry (B_{-1}), both 1 without a base.
    """

    __slots__ = ("vectors", "b")


def scalar_dc_recursion(dc_gains: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """The two-term recursion B_i = D_i * B_{i-1} + B_{i-2}.

    Returns (B_{-2}, B_{-1}, B_0, ..., B_{N-1}).  For alternating cascades
    this agrees with the most-recently-modified entry of the DC vector
    recursion; for non-alternating cascades only the vector form is
    meaningful.
    """
    b: list[Scalar] = [1, 1]
    for dcg in dc_gains:
        b.append(dcg * b[-1] + b[-2])
    return tuple(b)


def _finite(m: PolyphaseMatrix) -> bool:
    return all(isfinite(x) for e in m.entries() for _, x in e.items())


class LiftingCascade(Record):
    """An ordered list of lifting steps with gain, optional base and mode.

    Invariants enforced at construction: a reversible cascade has K = 1, no
    base, exact arithmetic, dyadic filters and one of ``ROUNDING_RULES``
    (``DEFAULT_ROUNDING`` if none is given), an irreversible one no rule;
    all parts share one arithmetic mode; K is nonzero; a base, when present,
    is unimodular so that det(evaluate()) = 1 holds by construction.  A
    broken invariant raises :class:`CascadeError`, a mode mismatch
    :class:`ModeError`.  Cascades compare by their fields but are not hashable.
    """

    __slots__ = ("steps", "k", "base", "mode", "reversible", "rounding")
    __hash__ = None

    def __init__(
        self,
        steps: Iterable[LiftingStep],
        k=1,
        base: PolyphaseMatrix | None = None,
        mode: str = EXACT,
        reversible: bool = False,
        rounding: RoundingRule | None = None,
    ):
        steps = tuple(steps)
        for s in steps:
            if not isinstance(s, LiftingStep):
                raise TypeError("steps must be LiftingStep instances")
            if s.mode != mode:
                raise ModeError(
                    f"step filter mode {s.mode!r} does not match cascade mode {mode!r}"
                )
        if reversible and mode != EXACT:
            raise CascadeError("reversible cascades require exact arithmetic", "mode")
        if reversible:
            rounding = DEFAULT_ROUNDING if rounding is None else rounding
            if rounding not in ROUNDING_RULES.values():
                raise CascadeError(f"rounding must be one of {', '.join(ROUNDING_RULES)}, "
                                   f"got {clip_repr(rounding)}", "rounding")
        elif rounding is not None:
            raise CascadeError("rounding applies to reversible cascades only", "rounding")
        try:
            kk = as_scalar(k, mode)
        except ModeError:
            raise
        except ValueError as exc:  # a malformed or non-finite gain
            raise CascadeError(f"gain K: {exc}", "k") from None
        if kk == 0:
            raise CascadeError("gain K must be nonzero", "k")
        if mode != EXACT and not isfinite(1 / kk):
            raise CascadeError(f"gain K = {kk!r} has no finite reciprocal", "k")
        if reversible and kk != 1:
            raise CascadeError(f"reversible cascades require K = 1, got {_echo(kk)}", "k")
        if base is not None:
            if reversible:
                raise CascadeError(
                    "reversible cascades cannot carry a base matrix", "base"
                )
            if base.mode != mode:
                raise ModeError("base matrix mode does not match cascade mode")
            if not base.is_unimodular():
                raise CascadeError(
                    f"base matrix must have det 1, got det {base.describe_determinant()}"
                )
        if reversible:
            for i, s in enumerate(steps):
                if not s.filter.is_dyadic():
                    raise CascadeError(
                        f"step {i} filter is not dyadic; reversible cascades "
                        "need power-of-two denominators",
                        "steps", i, "filter",
                    )
        Record.__init__(self, steps, kk, base, mode, reversible, rounding)

    # -- basics --------------------------------------------------------------

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def m_init(self) -> int:
        """Update characteristic of the final (most recent) analysis step."""
        if not self.steps:
            raise ValueError("m_init is undefined for an empty cascade")
        return self.steps[-1].update

    def is_alternating(self) -> bool:
        """True iff consecutive steps update opposite channels."""
        return all(
            self.steps[i + 1].update == 1 - self.steps[i].update
            for i in range(len(self.steps) - 1)
        )

    def replace(self, **kwargs) -> "LiftingCascade":
        """A copy with the given fields replaced (re-validated)."""
        return LiftingCascade(**{**dict(zip(self.__slots__, self._fields())), **kwargs})

    def __repr__(self) -> str:
        parts = [f"{len(self.steps)} steps", f"K={self.k}"]
        if self.base is not None:
            parts.append("base")
        parts.append("reversible" if self.reversible else f"{self.mode} irreversible")
        return f"<LiftingCascade {', '.join(parts)}>"

    # -- evaluation ------------------------------------------------------------

    def partial_product(self, n: int) -> PolyphaseMatrix:
        """M(S_n) * ... * M(S_0) * B(z), without the gain matrix.

        n = -1 gives the base alone (or the identity when there is none);
        n = n_steps - 1 gives the full unnormalized cascade E(z).  Exact steps
        run in one row kernel, :func:`~liftbank.laurent.lifted_rows`, which
        keeps each row as jointly primitive numerator maps times a reduced
        p/q, so each step's denominator is known from the contents before it
        multiplies.  Float steps are row updates, ``lifted``, in that order,
        so their bits stay those of the step matrix product.
        """
        if not -1 <= n < len(self.steps):
            raise IndexError(f"partial product index {n} out of range")
        acc = self.base if self.base is not None else PolyphaseMatrix.identity(self.mode)
        steps = self.steps[: n + 1]
        if self.mode == EXACT:
            return PolyphaseMatrix(*lifted_rows(acc.entries(), [(s.update, s.filter) for s in steps]))
        for s in steps:
            acc = acc.lifted(s.update, s.filter)
        return acc

    def evaluate(self) -> PolyphaseMatrix:
        """The analysis polyphase matrix diag(1/K, K) * steps * base.

        The steps run as in :meth:`partial_product`, exact ones in the row
        kernel over primitive numerator maps times a reduced p/q per row.
        A non-finite float coefficient raises :class:`CascadeError`: at
        ``("k",)`` when only the gain scaling overflows, else at ``("steps",)``.
        """
        e = self.partial_product(len(self.steps) - 1)
        h = e.rows_scaled(1 / self.k, self.k)
        if self.mode != EXACT and not _finite(h):
            if _finite(e):
                raise CascadeError(f"gain K = {self.k!r} overflows the polyphase matrix", "k")
            raise CascadeError("the lifting step products overflow", "steps")
        return h

    def to_filters(self) -> FilterPair:
        return self.evaluate().to_filters()

    # -- DC recursion ------------------------------------------------------------

    def dc_trace(self) -> DCTrace:
        """Track the DC vector E^(n)(1) and the running values B_n."""
        if self.base is not None:
            (a, b_), (c, d_) = self.base.evaluate(1)
            vec = (a + b_, c + d_)
        else:
            one = as_scalar(1, self.mode)
            vec = (one, one)
        vectors = [vec]
        # B_-2 is the entry step 0 modifies, B_-1 the other one
        first = self.steps[0].update if self.steps else 0
        bvals: list[Scalar] = [vec[first], vec[1 - first]]
        for s in self.steps:
            dcg = s.dc_gain()
            lo, hi = vectors[-1]
            if s.update == 0:
                lo = lo + dcg * hi
            else:
                hi = hi + dcg * lo
            vectors.append((lo, hi))
            bvals.append(lo if s.update == 0 else hi)
        return DCTrace(tuple(vectors), tuple(bvals))

    # -- synthesis ------------------------------------------------------------

    def synthesis(self) -> "LiftingCascade":
        """The inverse bank as a cascade: evaluate(synthesis) @ evaluate(self) = I.

        Steps come back reversed and negated; moving the gain matrix to the
        left of the inverted product additionally scales update-0 filters by
        1/K^2 and update-1 filters by K^2.  A base B becomes, in closed form,
        adj(B) conjugated by the steps and the gain: (D S) adj(B) (D S)^-1
        with D = diag(1/K, K) and S = M(S_{N-1}) * ... * M(S_0).  Its det is
        1 up to rounding, which the constructor's scaled tolerance admits.
        A float K that scales a step's filter or the base to 0 or infinity,
        through its factor or through its taps, raises :class:`CascadeError`
        at ``("k",)``.
        """
        k2 = self.k * self.k
        factors = (1 / k2 if k2 else inf, k2)  # by update characteristic
        inv_steps = []
        for i in reversed(range(len(self.steps))):
            s = self.steps[i]
            try:  # an infinite factor, or a filter scaled to 0 or a non-finite tap
                inv_steps.append(LiftingStep(s.update, s.filter.scaled(-factors[s.update])))
            except ValueError:
                raise CascadeError(f"gain K = {self.k!r} scales the synthesis step for step {i} "
                                   "to 0 or infinity", "k") from None
        base = None
        if self.base is not None:
            # the identity, conjugated by anything, stays the identity; every bench design
            # input's base is the identity, so each design op skips 4 updates per step here
            x = self.base.adjugate()
            for s in self.steps if x != PolyphaseMatrix.identity(self.mode) else ():
                x = x.lifted(s.update, s.filter).colifted(s.update, -s.filter)
            try:
                base = gamma(x, self.k)
            except ValueError:
                raise CascadeError(f"gain K = {self.k!r} scales the synthesis base "
                                   "to 0 or infinity", "k") from None
        return self.replace(steps=inv_steps, k=1 / self.k, base=base)
