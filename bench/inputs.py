"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same cascades, signals and files, byte for byte.  ``digest`` hashes the
serialized inputs so two runs can show they measured identical data.  The
generator builds inputs through the public ``liftbank`` constructors and
codecs only; the stock banks in ``liftbank.banks`` are fixture data.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import liftbank as lb

#: Seeded cascades per step count in the design pool (4, 8 and 16 steps).
DESIGN_PER_SIZE = 40
DESIGN_SIZES = (4, 8, 16)

#: Seeded cascades per step count in the factor pool (4, 6 and 8 steps).
FACTOR_PER_SIZE = 500
FACTOR_SIZES = (4, 6, 8)

REV_SAMPLES = 1 << 16
FLOAT_SAMPLES = 1 << 16
EXACT_SAMPLES = 1 << 13
#: Seeded non-dyadic cascades in the signal-exact stream.
EXACT_CASCADES = 120
CLI_SAMPLES = 1 << 14

TAP_RANGE = (-3, 3)
MAX_TAPS = 5


def _dyadic(rng: random.Random, max_num: int = 8, max_shift: int = 3) -> Fraction:
    c = Fraction(0)
    while c == 0:
        c = Fraction(rng.randint(-max_num, max_num), 1 << rng.randint(0, max_shift))
    return c


def _rational(rng: random.Random) -> Fraction:
    c = Fraction(0)
    while c == 0:
        c = Fraction(rng.randint(-8, 8), rng.choice((3, 5)))
    return c


def _tap_counts(rng: random.Random, n_steps: int) -> list[int]:
    # every count 1..MAX_TAPS appears equally often along the cascade, so
    # the cost of a draw varies less from seed to seed than with
    # independent counts while the per-filter distribution stays uniform
    counts = [1 + i % MAX_TAPS for i in range(n_steps)]
    rng.shuffle(counts)
    return counts


def _lowpass_dc(updates: list[int], gains: list[Fraction]) -> Fraction:
    """The unnormalized lowpass DC gain, by the scalar DC recursion."""
    lo, hi = Fraction(1), Fraction(1)
    for u, d in zip(updates, gains):
        if u == 0:
            lo += d * hi
        else:
            hi += d * lo
    return lo


def alternating_cascade(
    rng: random.Random, n_steps: int, rational: bool = False, base=None, normalize: bool = False
) -> lb.LiftingCascade:
    """An exact alternating cascade with 1..MAX_TAPS contiguous taps per filter.

    Coefficients are dyadic; with ``rational`` one in three of them (exactly,
    per cascade) has denominator 3 or 5 instead.  ``normalize`` sets K to
    the lowpass DC gain, which makes the cascade compliant.
    """
    counts = _tap_counts(rng, n_steps)
    total = sum(counts)
    kinds = [rational and i % 3 == 0 for i in range(total)]
    rng.shuffle(kinds)
    kind = iter(kinds)
    m = rng.randrange(2)
    updates, filters = [], []
    for n_taps in counts:
        first = rng.randint(TAP_RANGE[0], TAP_RANGE[1] - n_taps + 1)
        taps = range(first, first + n_taps)
        filters.append(lb.LaurentPoly({n: _rational(rng) if next(kind) else _dyadic(rng) for n in taps}))
        updates.append(m)
        m = 1 - m
    k = _dyadic(rng, max_num=5, max_shift=2)
    if normalize:
        dc = _lowpass_dc(updates, [sum(f.taps().values()) for f in filters])
        if dc != 0:
            k = dc
    steps = [lb.LiftingStep(u, f) for u, f in zip(updates, filters)]
    return lb.LiftingCascade(steps, k=k, base=base)


# -- design -------------------------------------------------------------------


def design_inputs(seed: int) -> list[str]:
    """Serialized identity-base cascades, interleaved 4/8/16 steps.

    Half the cascades carry K equal to their lowpass DC gain, so the
    compliance verdict is split between compliant and non-compliant.
    """
    rng = random.Random(f"design/{seed}")
    specs = []
    for i in range(DESIGN_PER_SIZE):
        for n in DESIGN_SIZES:
            c = alternating_cascade(
                rng, n, rational=True, base=lb.PolyphaseMatrix.identity(), normalize=i % 2 == 0
            )
            specs.append(lb.serialize_spec(c))
    return specs


# -- signal -------------------------------------------------------------------


def signal_inputs(seed: int, mode: str) -> list[tuple[str, lb.LiftingCascade, list]]:
    """(label, cascade, samples) round trips for one signal mode.

    ``mode`` is "rev" (integer samples through reversible cascades),
    "float" (the 9/7 bank) or "exact" (Fraction samples through exact
    irreversible cascades).
    """
    rng = random.Random(f"signal-{mode}/{seed}")
    if mode == "rev":
        samples = [rng.randint(-2048, 2047) for _ in range(REV_SAMPLES)]
        steps = alternating_cascade(rng, 4).steps
        out = [("5/3", lb.banks.five_three(), samples)]
        for name in sorted(lb.ROUNDING_RULES):
            rule = lb.ROUNDING_RULES[name]
            out.append((f"dyadic4/{name}", lb.LiftingCascade(steps, reversible=True, rounding=rule), samples))
        return out
    if mode == "float":
        samples = [rng.uniform(-1.0, 1.0) for _ in range(FLOAT_SAMPLES)]
        return [("9/7", lb.banks.cdf97(), samples)]
    if mode == "exact":
        samples = [Fraction(rng.randint(-2048, 2047), 1 << rng.randint(0, 2)) for _ in range(EXACT_SAMPLES)]
        # a stream of distinct short non-dyadic cascades, with 5/3 every
        # fourth op: they cost about what 5/3 does, so the median and p90 do
        # not sit on a gap between two cost levels, and a run's percentiles
        # come from many draws rather than from one cascade's cost
        five_three = lb.banks.five_three(reversible=False)
        out = []
        for i in range(EXACT_CASCADES):
            if i % 3 == 0:
                out.append(("5/3-irreversible", five_three, samples))
            out.append((f"rational2/{i}", alternating_cascade(rng, 2, rational=True), samples))
        return out
    raise ValueError(f"unknown signal mode {mode!r}")


# -- factor -------------------------------------------------------------------


def factor_inputs(seed: int) -> list[tuple[str, lb.LiftingCascade]]:
    """Cascades whose evaluated matrices are factored, interleaved 4/6/8."""
    rng = random.Random(f"factor/{seed}")
    out = [
        ("haar", lb.banks.haar()),
        ("identity6", lb.banks.identity_six_step()),
        ("5/3-irreversible", lb.banks.five_three(reversible=False)),
    ]
    for i in range(FACTOR_PER_SIZE):
        for n in FACTOR_SIZES:
            out.append((f"random{n}/{i}", alternating_cascade(rng, n)))
    return out


# -- cli ----------------------------------------------------------------------


def cli_inputs(seed: int) -> dict[str, str]:
    """Generated files for the cli workload: name -> text.

    Two random irreversible specs (8 and 16 steps), a 3/2-rescaled copy of
    the 8-step one, the 8-step matrix for ``factor``, and a 2^14-sample
    integer signal with its 5/3 subbands.
    """
    rng = random.Random(f"cli/{seed}")
    c8 = alternating_cascade(rng, 8, rational=True, normalize=True)
    c16 = alternating_cascade(rng, 16, rational=True)
    signal = [rng.randint(-2048, 2047) for _ in range(CLI_SAMPLES)]
    bands = lb.analyze_signal(lb.banks.five_three(), signal)
    return {
        "gen8.json": lb.serialize_spec(c8),
        "gen16.json": lb.serialize_spec(c16),
        "gen8_rescaled.json": lb.serialize_spec(lb.rescale_cascade(c8, Fraction(3, 2))),
        "gen4_matrix.json": lb.serialize_matrix(
            alternating_cascade(rng, 4).evaluate()
        ),
        "signal.txt": "".join(f"{s}\n" for s in signal),
        "bands.txt": "".join(f"{s}\n" for s in bands.lowpass + bands.highpass),
    }


def digest(obj) -> str:
    """sha256 over a canonical rendering of generated inputs."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, lb.LiftingCascade):
            h.update(lb.serialize_spec(x).encode())
        elif isinstance(x, list) and all(isinstance(v, (int, float, Fraction)) for v in x):
            h.update(("[" + ",".join(map(str, x)) + "]").encode())  # samples
        elif isinstance(x, (list, tuple)):
            h.update(b"[%d" % len(x))
            for y in x:
                feed(y)
            h.update(b"]")
        elif isinstance(x, dict):
            feed(sorted(x.items()))
        else:
            h.update(json.dumps(str(x)).encode())

    feed(obj)
    return h.hexdigest()
