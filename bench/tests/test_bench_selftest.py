"""Self-tests of the benchmark harness: seeded inputs and traced counts."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _digest(name, seed, root):
    w = workloads.WORKLOADS[name]
    w.setup(seed, root)
    return inputs.digest(w.digest_source())


def test_same_seed_gives_identical_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        first = _digest(name, 7, tmp_path / "a")
        assert _digest(name, 7, tmp_path / "b") == first, name
        assert _digest(name, 8, tmp_path / "a") != first, name


def test_digest_sees_every_coefficient():
    items = inputs.factor_inputs(2)
    label, cascade = items[10]
    step = cascade.steps[0]
    bumped = step.filter + inputs.lb.LaurentPoly({99: 1})
    changed = inputs.lb.LiftingCascade(
        (inputs.lb.LiftingStep(step.update, bumped),) + cascade.steps[1:], k=cascade.k
    )
    assert inputs.digest(items) != inputs.digest(items[:10] + [(label, changed)] + items[11:])


def test_generated_files_are_byte_identical():
    assert inputs.cli_inputs(3) == inputs.cli_inputs(3)
    assert inputs.design_inputs(3) == inputs.design_inputs(3)


class _Prefix:
    """A workload restricted to a short traced prefix, to keep the test fast."""

    def __init__(self, w, n):
        self._w, self._n = w, n

    def __getattr__(self, attr):
        return getattr(self._w, attr)

    def traced_items(self):
        return self._w.traced_items()[: self._n]


def _traced_counts(name, n):
    w = workloads.WORKLOADS[name]
    w.setup(5, ROOT)
    _, traced, snapshots = bench_run.measure_traced(_Prefix(w, n), 0, Tracer())
    assert traced.wrong == 0
    return snapshots[0]


def test_traced_counts_repeat_exactly():
    for name, n, expected in (
        ("design", 3, ("laurent.mul.term_products", "laurent.max_coeff_bits", "specio.bytes")),
        ("factor", 12, ("factorization.max_coeff_bits", "factorization.steps_in")),
        ("signal-rev", 1, ("transform.macs", "transform.samples")),
    ):
        calls, counts = _traced_counts(name, n)
        assert (calls, counts) == _traced_counts(name, n), name
        for key in expected:
            assert counts[key] > 0, (name, key)


def test_tracer_restores_the_library():
    import liftbank as lb

    originals = (lb.analyze, lb.LaurentPoly.__mul__, lb.cli.analyze)
    tracer = Tracer()
    tracer.install()
    assert lb.analyze is not originals[0]
    assert lb.cli.analyze is lb.normalization.analyze
    tracer.uninstall()
    assert (lb.analyze, lb.LaurentPoly.__mul__, lb.cli.analyze) == originals
