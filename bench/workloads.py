"""The benchmark workloads: seeded inputs, the timed op and its checks.

Every workload is a closed loop with one caller: the next op is sent only
after the previous one returned.  ``run`` is the timed op; ``check`` runs
after the clock stops and returns False for a wrong result.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import liftbank as lb
import liftbank.cli as lb_cli

import calib
import inputs

KAPPA = Fraction(3, 2)
#: Float round trips must agree to this share of the signal's amplitude.
FLOAT_RTOL = 1e-9
STRATEGIES = (lb.FactorStrategy(reduction=lb.HIGH_END), lb.FactorStrategy(reduction=lb.LOW_END))


class Workload:
    """One workload; ``BENCHMARK.json`` records why each exists."""

    name = ""
    #: Stop only at the end of a whole pass over ``items`` (mixed-cost
    #: pools whose partial passes would bias the mix); otherwise the items
    #: are an i.i.d. stream and any prefix is representative.
    whole_passes = False
    #: At least this many ops per run, so that ten samples lie beyond p90.
    min_ops = 100
    #: Reference task that calibrates ``run`` for machine speed.
    calibrator = calib.KERNEL

    def setup(self, seed: int, root: Path) -> None:
        raise NotImplementedError

    def traced_items(self) -> list:
        """The fixed prefix one traced pass runs; counts are per pass."""
        return self.items

    def run(self, item):
        raise NotImplementedError

    def run_traced(self, item):
        return self.run(item)

    def check(self, item, result) -> bool:
        raise NotImplementedError

    def samples(self, item) -> int:
        """Signal samples an op carries through the round trip."""
        return 0

    def counts(self, item, result) -> dict:
        """Per-op counters for the traced run, computed after the clock."""
        return {}

    def digest_source(self):
        return self.items

    def peak_rss_kb(self) -> int:
        """Peak resident set of the process that runs the ops, in KiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Design(Workload):
    name = "design"

    def setup(self, seed, root):
        self.items = inputs.design_inputs(seed)

    def traced_items(self):
        return self.items[: 4 * len(inputs.DESIGN_SIZES)]

    def run(self, text):
        c = lb.parse_spec(text)
        report = lb.analyze(c)
        synthesis = c.synthesis().evaluate()
        witness = lb.find_rescaling(c, lb.rescale_cascade(c, KAPPA))
        return report, synthesis, witness, lb.serialize_spec(c)

    def check(self, text, result):
        report, synthesis, witness, out = result
        analysis = lb.PolyphaseMatrix.from_filters(report.filters)
        return (
            report.determinant == lb.LaurentPoly.one()
            and (synthesis @ analysis).is_identity()
            and report.compliance.compliant == (report.dc_lowpass == 1)
            and witness.relation == lb.EQUIVALENT
            and witness.kappa == KAPPA
            and out == text
        )


class Signal(Workload):
    def __init__(self, mode: str):
        self.mode = mode
        self.name = f"signal-{mode}"
        # the exact inputs are a stream of distinct cascades; rev and float
        # repeat one pass of nearly equal ops.  The rev p90 is steady without
        # 100 ops, which would take up to half a minute on a slowed core; the
        # float p90 is not
        self.whole_passes = mode != "exact"
        if mode == "rev":
            self.min_ops = 1

    def setup(self, seed, root):
        self.items = inputs.signal_inputs(seed, self.mode)

    def traced_items(self):
        return self.items if self.whole_passes else self.items[:4]

    def run(self, item):
        _, cascade, x = item
        return lb.synthesize_signal(cascade, lb.analyze_signal(cascade, x))

    def check(self, item, y):
        x = item[2]
        if self.mode != "float":
            return y == x
        amplitude = max(abs(v) for v in x)
        return len(y) == len(x) and all(abs(a - b) <= FLOAT_RTOL * amplitude for a, b in zip(x, y))

    def samples(self, item):
        return len(item[2])


class Factor(Workload):
    name = "factor"

    def setup(self, seed, root):
        self.items = [
            (label, c, STRATEGIES[i % 2])
            for i, (label, c) in enumerate(inputs.factor_inputs(seed))
        ]

    def traced_items(self):
        return self.items[:120]

    def run(self, item):
        matrix = item[1].evaluate()
        try:
            return matrix, lb.factor_lifting(matrix, item[2])
        except lb.FactorizationError as exc:
            return matrix, exc

    def check(self, item, result):
        matrix, out = result
        if isinstance(out, lb.FactorizationError):
            # the documented refusal: a unimodular input whose reduction
            # ends in a delayed diagonal; any other refusal is wrong
            return matrix.determinant() == lb.LaurentPoly.one() and "carries a delay" in str(out)
        return out.evaluate() == matrix

    def counts(self, item, result):
        if isinstance(result[1], lb.FactorizationError):
            return {"factorization.obstructed": 1}
        return {
            "factorization.steps_in": item[1].n_steps,
            "factorization.steps_out": result[1].n_steps,
        }

    def digest_source(self):
        return [(label, c, s.reduction) for label, c, s in self.items]


def _cli_ops(spec_dir: Path, gen: Path) -> list[list[str]]:
    corpus = sorted(p.name for p in spec_dir.glob("*.json") if not p.name.endswith("_matrix.json"))
    s = lambda name: str(spec_dir / name)  # noqa: E731
    g = lambda name: str(gen / name)  # noqa: E731
    ops = [["analyze", s(name)] for name in corpus]
    ops += [
        ["analyze", g("gen8.json")],
        ["analyze", g("gen16.json"), "--format", "json"],
        ["analyze", s("cdf97.json"), "--format", "json"],
        ["validate", g("gen8.json")],
        ["validate", s("haar.json")],
        ["validate", s("counterexample.json")],
        ["compare", s("haar_lifted_a.json"), s("haar_lifted_b.json")],
        ["compare", g("gen8.json"), g("gen8_rescaled.json")],
        ["rescale", g("gen8.json"), "--kappa", "3/2"],
        ["transform", s("fivethree.json"), g("signal.txt")],
        ["transform", s("fivethree.json"), g("bands.txt"), "--direction", "synthesize"],
        ["factor", s("haar_matrix.json")],
        ["factor", g("gen4_matrix.json"), "--reduction", "low-end"],
        ["factor", g("gen4_matrix.json")],
    ]
    return ops


def in_process_main(argv: list[str]) -> tuple[int, bytes]:
    """``liftbank.cli.main`` in this process: (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lb_cli.main(argv)
    return code, out.getvalue().encode("utf-8")


class Cli(Workload):
    name = "cli"
    whole_passes = True
    calibrator = calib.STARTUP

    def setup(self, seed, root):
        gen = root / "bench" / "out" / f"cli-{seed}"
        gen.mkdir(parents=True, exist_ok=True)
        self.files = inputs.cli_inputs(seed)
        for name, text in self.files.items():
            (gen / name).write_text(text, encoding="utf-8")
        self.items = _cli_ops(root / "specs", gen)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.references: dict[tuple, tuple[int, bytes]] = {}
        self.peak_child_kb = 0

    def run(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "liftbank.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self.env,
        )
        with proc.stdout:
            out = proc.stdout.read()
        # wait4 gives this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return proc.returncode, out

    def run_traced(self, argv):
        return in_process_main(argv)

    def peak_rss_kb(self):
        return self.peak_child_kb

    def check(self, argv, result):
        key = tuple(argv)
        if key not in self.references:
            self.references[key] = in_process_main(argv)
        return result == self.references[key]

    def digest_source(self):
        return [sorted(self.files.items()), [a[0] for a in self.items]]


WORKLOADS = {
    w.name: w
    for w in (
        Design(),
        Signal("rev"),
        Signal("float"),
        Signal("exact"),
        Factor(),
        Cli(),
    )
}
