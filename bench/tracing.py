"""Spans around liftbank's public functions and methods, from outside.

``Tracer.install`` wraps every public function and method that a layer
module of ``src/liftbank/`` defines, and patches each wrapper in wherever a
caller looks the name up: the defining module, every other layer module
that imported the name, and the ``liftbank`` package namespace (so both
``normalization.analyze`` and ``cli.analyze`` are traced).  Methods are
patched on their class.  ``uninstall`` restores the originals.

Each span keeps its name, start, end, parent span and op id in memory;
``write`` stores them at exit.  Self time is a span's duration minus the
time its child spans cover, accumulated online, minus the measured cost
the tracer adds around each child call (``calibrate``).  A call whose span name
equals the enclosing span's (``a - b`` calling ``a + (-b)``) is folded into
that span, so ``calls`` counts entries into a layer operation, not its
internal re-dispatch.

Counters the per-layer metrics need (Laurent term products, transform
multiply-accumulates, coefficient bit lengths, spec bytes) are computed by
hooks after a span closes; the time a hook takes is charged to no span.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter
from fractions import Fraction

import liftbank as lb

LAYERS = (
    "laurent",
    "polyphase",
    "lifting",
    "normalization",
    "symmetry",
    "rescaling",
    "specio",
    "transform",
    "factorization",
    "cli",
)

#: Dunder methods that are layer operations; other dunders are plumbing.
DUNDERS = {"__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__"}

#: Per-element scalar helpers, called once per sample or coefficient: a
#: span each would cost more than the work it times, so their time counts
#: in the caller.  ``specio.format_sample`` is per sample too but is a
#: named metric, so it stays traced.
UNTRACED = {
    "laurent.as_scalar",
    "laurent.parse_scalar",
    "laurent.format_scalar",
    "laurent.scalar_is_dyadic",
    "specio.parse_sample",
}

#: Span names used by the per-layer metrics.  Every other public name
#: becomes "<layer>.<function>" or "<layer>.<Class>.<method>".
NAMES = {
    "laurent.LaurentPoly.__add__": "laurent.addsub",
    "laurent.LaurentPoly.__sub__": "laurent.addsub",
    "laurent.LaurentPoly.__neg__": "laurent.addsub",
    "laurent.LaurentPoly.__rmul__": "laurent.scaled",
    "laurent.LaurentPoly.scaled": "laurent.scaled",
    "polyphase.PolyphaseMatrix.__matmul__": "polyphase.matmul",
    "polyphase.PolyphaseMatrix.determinant": "polyphase.determinant",
    "polyphase.PolyphaseMatrix.to_filters": "polyphase.to_filters",
    "lifting.LiftingCascade.__init__": "lifting.construct",
    "lifting.LiftingCascade.evaluate": "lifting.evaluate",
    "lifting.LiftingCascade.dc_trace": "lifting.dc_trace",
    "lifting.dc_trace": "lifting.dc_trace",
    "lifting.LiftingCascade.synthesis": "lifting.synthesis",
    "lifting.cascade_synthesis": "lifting.synthesis",
    "normalization.analyze": "normalization.analyze",
    "normalization.check_part2": "normalization.check_part2",
    "symmetry.classify_filter": "symmetry.classify",
    "symmetry.classify_ws_group": "symmetry.classify",
    "symmetry.classify_hs_group": "symmetry.classify",
    "symmetry.classify_linear_phase": "symmetry.classify",
    "rescaling.rescale_cascade": "rescaling.rescale",
    "rescaling.find_rescaling": "rescaling.find",
    "specio.parse_spec": "specio.parse",
    "specio.serialize_spec": "specio.serialize",
    "specio.read_signal": "specio.read_signal",
    "specio.format_sample": "specio.format_sample",
    "transform.analyze_signal": "transform.analyze",
    "transform.synthesize_signal": "transform.synthesize",
    "factorization.factor_lifting": "factorization.factor",
}


def coeff_bits(p) -> int:
    """Largest numerator or denominator bit length among exact coefficients."""
    best = 0
    for c in p.taps().values():
        if isinstance(c, Fraction):
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def _laurent_result(t: "Tracer", args, result) -> None:
    if isinstance(result, lb.LaurentPoly):
        t.maximum("laurent.max_coeff_bits", coeff_bits(result))


def _mul_hook(t: "Tracer", args, result) -> None:
    a, b = args
    t.count("laurent.mul.term_products", len(a.taps()) * len(b.taps()))
    _laurent_result(t, args, result)


def _spec_text_hook(t: "Tracer", args, result) -> None:
    text = args[0] if isinstance(args[0], str) else result
    t.count("specio.bytes", len(text.encode("utf-8")))


def _macs(cascade, half: int) -> int:
    taps = sum(len(s.filter.taps()) for s in cascade.steps)
    if cascade.base is not None:
        taps += sum(len(e.taps()) for e in cascade.base.entries())
    return taps * half


def _analyze_signal_hook(t: "Tracer", args, result) -> None:
    cascade, samples = args[0], args[1]
    t.count("transform.samples", len(samples))
    t.count("transform.macs", _macs(cascade, len(samples) // 2))


def _synthesize_signal_hook(t: "Tracer", args, result) -> None:
    cascade, bands = args[0], args[1]
    t.count("transform.samples", len(bands))
    t.count("transform.macs", _macs(cascade, len(bands.lowpass)))


def _factor_hook(t: "Tracer", args, result) -> None:
    k = result.k
    bits = max(k.numerator.bit_length(), k.denominator.bit_length())
    for s in result.steps:
        bits = max(bits, coeff_bits(s.filter))
    t.maximum("factorization.max_coeff_bits", bits)


HOOKS = {
    "laurent.addsub": _laurent_result,
    "laurent.scaled": _laurent_result,
    "specio.parse": _spec_text_hook,
    "specio.serialize": _spec_text_hook,
    "transform.analyze": _analyze_signal_hook,
    "transform.synthesize": _synthesize_signal_hook,
    "factorization.factor": _factor_hook,
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.active = False
        #: Spans go into the table only while this is set; self time and
        #: calls accumulate regardless.
        self.keep_spans = True
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # span table, one column per field, filled when a span closes
        self.span_id = array("q")
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, name id, child ns, children]
        #: Wall ns a traced call costs its caller outside the callee's span;
        #: subtracted from the caller's self time once per child span.
        self.span_cost_ns = 0.0
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- counters -------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def maximum(self, name: str, value) -> None:
        if value > self.counts[name]:
            self.counts[name] = value

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active or (stack and stack[-1][1] == nid):
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, nid, 0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, start, clock(), parent)
                raise
            self._close(frame, start, clock(), parent)
            if hook is not None:
                h0 = clock()
                hook(self, args, result)
                if stack:
                    stack[-1][2] += clock() - h0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _close(self, frame, start: int, end: int, parent: int) -> None:
        stack = self._stack
        stack.pop()
        sid, nid, child, children = frame
        dur = end - start
        # the cost estimate can exceed a thin caller's own work; never below 0
        self.self_ns[nid] += max(dur - child - children * self.span_cost_ns, 0)
        self.total_ns[nid] += dur
        self.calls[nid] += 1
        if stack:
            stack[-1][2] += dur
            stack[-1][3] += 1
        if not self.keep_spans:
            return
        self.span_id.append(sid)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)

    # -- patching -------------------------------------------------------------

    def calibrate(self, calls: int = 20000) -> float:
        """Measure ``span_cost_ns`` with a traced no-op under a dummy parent."""

        def noop():
            return None

        traced = self.wrap("tracer.calibration", noop)
        clock = time.perf_counter_ns
        best = float("inf")
        self.active, keep, self.keep_spans = True, self.keep_spans, False
        try:
            for _ in range(5):
                t0 = clock()
                for _ in range(calls):
                    noop()
                plain = clock() - t0
                parent = [-1, -1, 0, 0]
                self._stack.append(parent)
                t0 = clock()
                for _ in range(calls):
                    traced()
                wrapped = clock() - t0
                self._stack.pop()
                best = min(best, (wrapped - plain - parent[2]) / calls)
        finally:
            self.active, self.keep_spans = False, keep
        nid = self._name_ids["tracer.calibration"]
        for counter in (self.self_ns, self.total_ns, self.calls):
            counter.pop(nid, None)
        self.span_cost_ns = max(best, 0.0)
        return self.span_cost_ns

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"liftbank.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [lb]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if f"{layer}.{attr}" in UNTRACED:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap_named(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        if vars(ns).get(attr) is obj:
                            self._patch(ns, attr, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)

    def _install_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if attr == "__init__" and f"{layer}.{cls.__name__}.__init__" not in NAMES:
                continue  # dataclass constructors are plumbing
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self._wrap_named(key, member.__func__)))
            elif isinstance(member, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap_named(key, member.__func__)))
            elif inspect.isfunction(member):
                if key == "laurent.LaurentPoly.__mul__":
                    self._patch(cls, attr, self._wrap_mul(member))
                else:
                    self._patch(cls, attr, self._wrap_named(key, member))

    def _wrap_named(self, key: str, fn):
        name = NAMES.get(key, key)
        return self.wrap(name, fn, HOOKS.get(name))

    def _wrap_mul(self, fn):
        # poly * poly is a multiply; poly * scalar delegates to scaled()
        poly = self.wrap("laurent.mul", fn, _mul_hook)
        scalar = self.wrap("laurent.scaled", fn, _laurent_result)

        def mul(a, b):
            return poly(a, b) if isinstance(b, lb.LaurentPoly) else scalar(a, b)

        return mul

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def self_ms(self, prefix: str) -> float:
        """Summed self time of spans named ``prefix`` or ``prefix.*``, in ms."""
        total = 0
        for nid, ns in self.self_ns.items():
            name = self.names[nid]
            if name == prefix or name.startswith(prefix + "."):
                total += ns
        return total / 1e6

    def span_ms(self, name: str, inclusive: bool = False) -> float:
        """Self (or, with ``inclusive``, whole) time of one span name, in ms."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0
        return (self.total_ns if inclusive else self.self_ns)[nid] / 1e6

    def write(self, path) -> int:
        """Write the span table as gzipped tab-separated text; returns rows."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            names = self.names
            for row in zip(
                self.span_id, self.span_name, self.span_start,
                self.span_end, self.span_parent, self.span_op,
            ):
                fh.write(f"{row[0]}\t{names[row[1]]}\t{row[2]}\t{row[3]}\t{row[4]}\t{row[5]}\n")
        return len(self.span_id)
