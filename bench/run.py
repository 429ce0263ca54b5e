"""Layered liftbank benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload design --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes over a fixed prefix of
the inputs and reports the per-layer metrics, plus the tracing overhead.
Metric names and units come from ``BENCHMARK.json``.  Times are calibrated
for machine speed (see ``calib.py``); wall-clock figures are printed too.
The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

#: Fresh interpreters started per run to time set-up and start-up.
PROBES = 7



def _probe(cmd: list[str], env=None) -> float:
    """Calibrated wall seconds of one run of ``cmd``, or the float it prints."""
    before = calib.KERNEL.timings()
    t0 = time.perf_counter()
    done = subprocess.run(cmd, check=True, capture_output=True, text=True, env=env)
    elapsed = time.perf_counter() - t0
    speed = calib.KERNEL.speed(before + calib.KERNEL.timings())
    return (float(done.stdout) if done.stdout.strip() else elapsed) * speed


def median_probe(cmd: list[str], env=None) -> tuple[float, list[float]]:
    """Median of PROBES calibrated probes, after one warm-up run."""
    subprocess.run(cmd, check=True, capture_output=True, env=env)
    samples = [_probe(cmd, env) for _ in range(PROBES)]
    return statistics.median(samples), samples


def startup_ms() -> tuple[float, float]:
    """(bare interpreter ms, ``import liftbank.cli`` ms beyond it)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    interp, _ = median_probe([sys.executable, "-c", "pass"])
    imported, _ = median_probe([sys.executable, "-c", "import liftbank.cli"], env)
    return interp * 1e3, (imported - interp) * 1e3


def environment(interp_ms: float, cpus: list[int]) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "liftbank").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(cpus),
        "pinned_cpu": cpus[-1],
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "cli.interp_ms": interp_ms,
    }


class Tally:
    """Latencies and outcomes of the ops of one phase."""

    def __init__(self):
        self.latencies: list[float] = []  # calibrated seconds
        self.wall: list[float] = []
        self.verified = 0
        self.wrong = 0
        self.samples = 0
        self.counts: collections.Counter = collections.Counter()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self, wall: bool = False) -> float:
        return self.verified / sum(self.wall if wall else self.latencies)

    def samples_per_s(self, wall: bool = False) -> float:
        return self.samples / sum(self.wall if wall else self.latencies)


def run_op(w, fn, item, tally: Tally, clock, before: list[float], tracer=None):
    """One closed-loop op: time it between two calibrations, then check it.

    ``clock`` is the calibrator; ``before`` holds its timings taken just
    before the op (the previous op's ``after``).  Returns (result, after).
    """
    if tracer is not None:
        tracer.op_id = tally.attempted
        tracer.active = True
    t0 = time.perf_counter()
    result = fn(item)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    after = clock.timings()
    tally.wall.append(elapsed)
    tally.latencies.append(elapsed * clock.speed(before + after))
    if w.check(item, result):
        tally.verified += 1
        tally.samples += w.samples(item)
        tally.counts.update(w.counts(item, result))
    else:
        tally.wrong += 1
    return result, after


def measure(w, seconds: float) -> Tally:
    """Ops until their wall time adds up to ``seconds`` (and ``w.min_ops``)."""
    tally = Tally()
    items = w.items
    i = timed = 0
    clock = w.calibrator
    samples = clock.timings()
    while True:
        _, samples = run_op(w, w.run, items[i % len(items)], tally, clock, samples)
        timed += tally.wall[-1]
        i += 1
        if (
            timed >= seconds
            and tally.attempted >= w.min_ops
            and (not w.whole_passes or i % len(items) == 0)
        ):
            return tally


def measure_traced(w, seconds: float, tracer):
    """Alternate untraced and traced passes over ``w.traced_items()``.

    Returns (untraced tally, traced tally, per-pass call/count snapshots).
    Counters restart every traced pass, so each snapshot covers the same
    inputs and must repeat exactly.  Later passes repeat the first one's
    inputs, so only the first pass's spans are kept.
    """
    prefix = w.traced_items()
    untraced, traced, snapshots = Tally(), Tally(), []
    tracer.calibrate()
    tracer.install()
    start = time.perf_counter()
    clock = calib.KERNEL  # traced ops all run in this process
    samples = clock.timings()
    try:
        while not snapshots or time.perf_counter() - start < seconds:
            for item in prefix:
                _, samples = run_op(w, w.run_traced, item, untraced, clock, samples)
            tracer.calls.clear()
            tracer.counts.clear()
            for item in prefix:
                result, samples = run_op(w, w.run_traced, item, traced, clock, samples, tracer)
                for name, n in w.counts(item, result).items():
                    tracer.count(name, n)
            tracer.keep_spans = False
            calls = {tracer.names[nid]: n for nid, n in tracer.calls.items()}
            snapshots.append((calls, dict(tracer.counts)))
    finally:
        tracer.uninstall()
    return untraced, traced, snapshots


def percentile_ms(latencies: list[float], pct: int) -> float:
    if len(latencies) < 2:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1] * 1e3


def layer_metrics(names, layers, tracer, traced: Tally, calls: dict, counts: dict, startup, main_ms) -> dict:
    """Resolve each per-layer metric name from BENCHMARK.json to a value.

    ``<layer>.self_ms`` sums every span of the layer; ``<span>.self_ms`` is
    one span name and ``<span>.total_ms`` the same span with its children;
    all are calibrated ms per traced op.  ``<span>.calls`` and the counters
    are per traced pass.
    """
    # span times are wall ns; rescale them like the ops that contain them
    scale = sum(traced.latencies) / sum(traced.wall) / traced.attempted
    interp_ms, import_ms = startup
    special = {
        "cli.interp_ms": interp_ms,
        "cli.import_ms": import_ms,
        "cli.main_ms": main_ms,
        "factorization.steps_out_per_in": counts.get("factorization.steps_out", 0)
        / max(counts.get("factorization.steps_in", 0), 1),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".self_ms"):
            span = name[: -len(".self_ms")]
            ms = tracer.self_ms(span) if span in layers else tracer.span_ms(span)
            out[name] = ms * scale
        elif name.endswith(".total_ms"):
            out[name] = tracer.span_ms(name[: -len(".total_ms")], inclusive=True) * scale
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        else:
            out[name] = counts.get(name, 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help='a workload of BENCHMARK.json, or "all"')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "liftbank" / "__init__.py").is_file():
        print(f"error: no liftbank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        # one process per workload, as the single-workload runs get
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", wl["name"], "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for wl in spec["workloads"]
        ]
        return max(codes)
    sys.path.insert(0, str(ROOT / "src"))

    import inputs
    import workloads
    from tracing import LAYERS, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    # one CPU for this process and its children, so the calibration kernel
    # runs on the core that runs the op (cli children included)
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})

    setup_s, setup_samples = median_probe([sys.executable, str(BENCH / "probe.py"), w.name, str(args.seed)])
    startup = startup_ms()
    env = environment(startup[0], cpus)
    w.setup(args.seed, ROOT)
    digest = inputs.digest(w.digest_source())
    print(f"# workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# inputs sha256 {digest} ({len(w.items)} items)")
    print(f"# setup_s samples {[round(t, 4) for t in setup_samples]}")

    record = {"workload": w.name, "seed": args.seed, "trace": args.trace, "env": env, "inputs_sha256": digest}
    if args.trace == 0:
        tally = measure(w, args.seconds)
        n = attempted = tally.attempted
        wrong = failed = tally.wrong
        values = {
            "setup_s": setup_s,
            "ops_per_s": tally.ops_per_s(),
            "p50_ms": percentile_ms(tally.latencies, 50),
            "p90_ms": percentile_ms(tally.latencies, 90),
            "peak_rss_mb": w.peak_rss_kb() / 1024,
        }
        metrics = spec["end_to_end"]
        print(f"# ops_attempted {n} ops_failed {failed}")
        if "factorization.obstructed" in tally.counts:
            k = tally.counts["factorization.obstructed"]
            print(f"# factorization.obstructed {k} of {n} ops ({k / n:.1%}): verified delayed-diagonal refusals")
        print(f"# latency samples {n}; {n - int(0.9 * n)} lie beyond p90")
        print(
            f"# wall clock: {sum(tally.wall):.3f} s timed, ops_per_s {tally.ops_per_s(wall=True):.4f},"
            f" p50_ms {percentile_ms(tally.wall, 50):.4f}, p90_ms {percentile_ms(tally.wall, 90):.4f}"
        )
        if tally.samples:
            print(
                f"# {w.mode}_samples_per_s {tally.samples_per_s():.1f} samples/s"
                f" (wall clock {tally.samples_per_s(wall=True):.1f})"
            )
    else:
        tracer = Tracer()
        untraced, traced, snapshots = measure_traced(w, args.seconds, tracer)
        calls, counts = snapshots[0]
        steady = all(s == snapshots[0] for s in snapshots)
        attempted = untraced.attempted + traced.attempted
        wrong = untraced.wrong + traced.wrong + (0 if steady else 1)
        failed = untraced.wrong + traced.wrong
        main_ms = sum(untraced.latencies) / untraced.attempted * 1e3 if w.name == "cli" else 0.0
        metrics = spec["per_layer"]
        values = layer_metrics(
            [m["name"] for m in metrics], LAYERS, tracer, traced, calls, counts, startup, main_ms
        )
        spans = OUT / f"spans-{w.name}-{args.seed}.tsv.gz"
        rows = tracer.write(spans)
        record["spans"] = {"path": str(spans.relative_to(ROOT)), "rows": rows}
        record["counts_per_pass"] = counts
        print(f"# traced passes {len(snapshots)} of {len(w.traced_items())} ops; counts repeat exactly: {steady}")
        print(f"# spans of the first traced pass: {rows} written to {spans.relative_to(ROOT)}")
        print(f"# tracer cost per child span, taken off its parent's self time: {tracer.span_cost_ns:.0f} ns")
        layers_ms = sum(values[f"{layer}.self_ms"] for layer in LAYERS)
        op_ms = sum(traced.latencies) / traced.attempted * 1e3
        print(f"# layer self time {layers_ms:.3f} ms of {op_ms:.3f} ms per traced op; the rest is outside liftbank or tracer cost")
        print(f"# ops_attempted {attempted} ops_failed {failed}")
        print(
            f"# tracing overhead: ops_per_s untraced {untraced.ops_per_s():.4f}"
            f" traced {traced.ops_per_s():.4f} ({sum(traced.latencies) / sum(untraced.latencies):.2f}x time)"
        )
        if untraced.samples:
            print(
                f"# tracing overhead: {w.mode}_samples_per_s untraced {untraced.samples_per_s():.1f}"
                f" traced {traced.samples_per_s():.1f}"
            )

    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}
    for name, m in result.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    record["metrics"] = result
    (OUT / f"result-{w.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
