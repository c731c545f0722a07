"""Fixed-seed benchmark for ctlz.

    python3 bench/run.py --workload sat-suites --seed 1 --seconds 30 --trace 0

Runs one workload (``sat-suites``, ``big-inputs`` or ``hom-oracles``, see
bench/README.md) as a closed loop in this process: one operation at a
time, whole rounds until ``--seconds`` have passed.  Every verdict is
checked against an independent reference outside the timed spans.  The
report lines name every end-to-end metric with its unit; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

``--trace 1`` spends the first half of the time untraced and the second
half with timing wrappers installed (bench/tracer.py); the difference in
throughput between the halves is the tracing overhead.  ``--quick`` runs
one trimmed round, for the harness self-test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
)


def _per_layer_names() -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


# ---------------------------------------------------------------------------
# Set-up


def _import_program():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ctlz
    import ctlz.cli  # noqa: F401

    return ctlz


def _setup_sample(workload: str) -> None:
    """Child-process entry: time a fresh import plus the one-time calls."""
    t0 = perf_counter()
    ctlz = _import_program()
    workloads.Runner(ctlz).one_time(workload)
    print(json.dumps({"setup_s": perf_counter() - t0}))


def _setup_children(workload: str, count: int) -> list:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-sample", "--workload", workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# Statistics


def percentile(latencies: list, p: int) -> float:
    """The p-th percentile, interpolated between order statistics."""
    if len(latencies) < 2:
        return latencies[0] if latencies else 0.0
    return statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]


def _geomean(values: list) -> float:
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Tally:
    """Outcomes and latencies of one operation group."""

    def __init__(self):
        self.latencies: list = []
        self.time_s = 0.0
        self.correct = 0
        self.positive = 0
        self.negative = 0
        self.wrong = 0
        self.crashed = 0
        self.elements = 0  # elements of correctly decided structures

    def add(self, seconds: float, outcome: str, positive: bool, size: int) -> None:
        self.latencies.append(seconds)
        self.time_s += seconds
        if outcome == "ok":
            self.correct += 1
            self.elements += size
            if positive:
                self.positive += 1
            else:
                self.negative += 1
        elif outcome == "crash":
            self.crashed += 1
        else:
            self.wrong += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def rate(self) -> float:
        return self.correct / self.time_s if self.time_s else 0.0


# ---------------------------------------------------------------------------
# The closed loop


class Session:
    def __init__(self, workload: str, seed: int, runner, tracer, quick: bool):
        self.workload = workload
        self.seed = seed
        self.runner = runner
        self.tracer = tracer
        self.quick = quick
        self.next_round = 0
        self.next_op = 0
        self.failures: list = []

    def execute(self, spec: dict, phase: int, tallies: dict) -> None:
        """Run one operation, time it, check it, and record the outcome."""
        runner, tracer = self.runner, self.tracer
        prepared = runner.prepare(spec)
        tracer.current_op = self.next_op
        self.next_op += 1
        tracer.current_phase = phase if tracer.enabled else None
        t0 = perf_counter()
        try:
            result = runner.run(spec, prepared)
            error = None
        except Exception as exc:  # an operation must not stop the run
            result, error = None, exc
        seconds = perf_counter() - t0
        tracer.current_phase = tracing.REF if tracer.enabled else None
        positive = False
        if error is not None:
            outcome, detail = "crash", type(error).__name__
        else:
            try:
                positive = runner.check(spec, prepared, result)
                outcome, detail = "ok", ""
            except workloads.Failure as exc:
                outcome, detail = exc.kind, str(exc)
            except Exception as exc:  # the reference itself failed
                outcome, detail = "reference_crash", type(exc).__name__
        tracer.current_phase = None
        groups = [spec["group"]]
        if spec["type"] == "find":
            # the per-outcome split of the report: expected model or miss
            groups.append("sat_hit" if runner.expects_model(spec) else "sat_miss")
        for group in groups:
            tallies.setdefault(group, Tally()).add(seconds, outcome, positive, spec.get("size", 0))
        if outcome != "ok":
            self.failures.append((spec["id"], outcome, detail))

    def loop(self, seconds: float, tallies: dict) -> None:
        """Whole rounds until the time is up."""
        begin = perf_counter()
        while True:
            specs = workloads.round_specs(self.workload, self.seed, self.next_round)
            self.next_round += 1
            self.runner.write_files(specs["files"])
            ops = specs["specs"]
            if self.quick:
                ops = [s for s in ops if workloads.quick(s)]
            for spec in ops:
                self.execute(spec, tracing.OP, tallies)
            if self.quick or perf_counter() - begin >= seconds:
                return


def summarize(workload: str, tallies: dict) -> dict:
    """Composite end-to-end metrics over the workload's timing groups:
    geometric means, so a change to any one group moves them."""
    groups = [(tallies.get(g, Tally()), p) for g, p in workloads.GROUPS[workload].items()]
    return {
        "ops_per_s": _geomean([t.rate() for t, _ in groups]),
        "p50_ms": _geomean([1000 * percentile(t.latencies, 50) for t, _ in groups]),
        "tail_ms": _geomean([1000 * percentile(t.latencies, p) for t, p in groups]),
    }


def _type_metrics(workload: str, tallies: dict) -> list:
    """The report's per-operation-type metrics: (name, value, unit, note)."""
    rows = []

    def per_s(name, tally, count, what):
        value = count / tally.time_s if tally.time_s else 0.0
        rows.append((name, value, "1/s", f"{count} {what} in {tally.time_s:.3f} s"))

    def latencies(name, tally):
        p = workloads.GROUPS[workload][name]
        value = percentile(tally.latencies, p)
        above = sum(1 for x in tally.latencies if x > value)
        rows.append((f"{name}_p50_ms", 1000 * percentile(tally.latencies, 50), "ms",
                     f"n={tally.attempted}"))
        rows.append((f"{name}_tail_ms", 1000 * value, "ms",
                     f"p{p} of n={tally.attempted}, {above} above"))

    for name in ("sat_hit", "sat_miss", "mc", "homcheck", "mso", "hom_small"):
        tally = tallies.get(name)
        if tally is None:
            continue
        if name == "homcheck":
            per_s("homcheck_elems_per_s", tally, tally.elements, "elements")
        elif name == "hom_small":
            per_s("hom_small_per_s", tally, tally.attempted, "operations")
        else:
            per_s(f"{name}_per_s", tally, tally.correct, "correct")
        if name in ("mc", "homcheck", "mso"):
            latencies(name, tally)
    return rows


# ---------------------------------------------------------------------------
# Main


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one trimmed round, one set-up sample")
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ctlz", "__init__.py")):
        print(f"error: no ctlz sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_sample:
        _setup_sample(args.workload)
        return 0

    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    wall0 = time.monotonic()
    tracer = tracing.Tracer()

    # set-up: the fresh import plus the program's one-time calls
    t0 = perf_counter()
    ctlz = _import_program()
    import_s = perf_counter() - t0
    if args.trace:
        tracer.install(ctlz)
        tracer.enable()
    runner = workloads.Runner(ctlz, workdir)
    tracer.current_phase = tracing.SETUP if tracer.enabled else None
    t0 = perf_counter()
    runner.one_time(args.workload)
    setup_samples = [import_s + perf_counter() - t0]
    tracer.current_phase = None
    if not args.quick:
        setup_samples += _setup_children(args.workload, SETUP_SAMPLES - 1)
    setup_s = statistics.median(setup_samples)

    session = Session(args.workload, args.seed, runner, tracer, args.quick)

    # known-defect probes, outside the timed loop
    probes = workloads.probe_specs(args.workload, args.seed)
    runner.write_files(probes["files"])
    probe_tallies: dict = {}
    for spec in probes["specs"]:
        session.execute(spec, tracing.PROBE, probe_tallies)
    probe_failures = list(session.failures)
    session.failures.clear()

    tallies: dict = {}
    untraced: dict = {}
    if args.trace:
        tracer.disable()
        session.loop(args.seconds / 2, untraced)
        tracer.enable()
        session.loop(args.seconds / 2, tallies)
        tracer.disable()
    else:
        session.loop(args.seconds, tallies)
    # fixed heavy operations, after the timed loop so that they leave its
    # allocator state alone: they set the peak RSS
    timed_failures = len(session.failures)
    for spec in workloads.heavy_specs(args.workload):
        session.execute(spec, tracing.PROBE, probe_tallies)
    probe_failures += session.failures[timed_failures:]
    del session.failures[timed_failures:]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the end-to-end figures come from untraced operations only
    measured = untraced if args.trace else tallies
    attempted = sum(t.attempted for t in tallies.values()) + sum(t.attempted for t in untraced.values())
    failed = len(session.failures)
    probe_attempted = sum(t.attempted for t in probe_tallies.values())
    all_attempted = attempted + probe_attempted
    failed_share = (failed + len(probe_failures)) / all_attempted if all_attempted else 0.0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"timed operations {attempted} in {session.next_round} rounds; "
          f"wall {time.monotonic() - wall0:.1f} s")
    print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in setup_samples)}")
    for name in list(workloads.GROUPS[args.workload]) + ["sat_hit", "sat_miss"]:
        t = measured.get(name)
        if t is not None:
            print(f"group {name}: attempted {t.attempted}, correct {t.correct} "
                  f"(positive {t.positive}, negative {t.negative}), wrong {t.wrong}, "
                  f"crashed {t.crashed}, operation time {t.time_s:.3f} s")
    print(f"untimed operations (known-defect probes, fixed heavy operations): "
          f"{probe_attempted} run, {len(probe_failures)} failed")
    for op_id, outcome, detail in probe_failures + session.failures:
        print(f"FAIL {op_id} {outcome}: {detail}")

    e2e = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, **summarize(args.workload, measured)}
    print("end-to-end metrics" + (" (untraced half)" if args.trace else "") + ":")
    for name, unit in END_TO_END:
        print(f"  {name} = {e2e[name]:.6g} {unit}")
    print(f"  failed_share = {failed_share:.6g} ratio  ({failed + len(probe_failures)} of "
          f"{all_attempted}, untimed operations included)")
    for name, value, unit, note in _type_metrics(args.workload, measured):
        print(f"  {name} = {value:.6g} {unit}  ({note})")

    if args.trace:
        metrics = _traced_metrics(args.workload, tracer, untraced, tallies)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _traced_metrics(workload: str, tracer, untraced: dict, traced: dict) -> dict:
    layers = tracer.layer_metrics()
    before = summarize(workload, untraced)["ops_per_s"]
    after = summarize(workload, traced)["ops_per_s"]
    layers["trace.untraced_ops_per_s"] = (before, "1/s")
    layers["trace.traced_ops_per_s"] = (after, "1/s")
    layers["trace.overhead_ops_per_s"] = (after - before, "1/s")
    print(f"tracing: {tracer.span_count()} spans; overhead (traced minus untraced throughput):")
    for g in workloads.GROUPS[workload]:
        a, b = untraced.get(g), traced.get(g)
        if a and b:
            print(f"  {g}: {b.rate() - a.rate():+.6g} 1/s  (untraced {a.rate():.6g}, traced {b.rate():.6g})")
    metrics, absent = {}, []
    for name in _per_layer_names():
        if name in layers:
            value, unit = layers[name]
            metrics[name] = {"value": value, "unit": unit}
        else:
            absent.append(name)
    absent.extend(tracer.absent)
    print("per-layer metrics:")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if absent:
        print(f"absent from the package: {' '.join(absent)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
