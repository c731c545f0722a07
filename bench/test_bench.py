"""Self-tests for the benchmark harness.

    python3 -m unittest discover -s bench -p "test_*.py"

They check that inputs depend on the seed alone, that metric names are
well formed, that every operation type has a reference check which
rejects a wrong answer, and that the quick mode finishes in seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _generated(workload: str, seed: int) -> str:
    parts = [workloads.round_specs(workload, seed, k) for k in range(2)]
    parts.append(workloads.probe_specs(workload, seed))
    return json.dumps(parts, sort_keys=True)


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class GeneratedInputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = _generated(workload, 7)
                self.assertEqual(first, _generated(workload, 7))
                self.assertNotEqual(first, _generated(workload, 8))

    def test_rounds_keep_their_composition(self):
        def shape(specs):
            return sorted((s["type"], s.get("size", 0), s.get("max_nodes", 0)) for s in specs)

        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                a = workloads.round_specs(workload, 1, 0)["specs"]
                b = workloads.round_specs(workload, 2, 5)["specs"]
                self.assertEqual(shape(a), shape(b))


class MetricNames(unittest.TestCase):
    def test_names_use_the_allowed_characters(self):
        bench = _benchmark()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def test_harness_reports_the_declared_end_to_end_metrics(self):
        declared = [(m["name"], m["unit"]) for m in _benchmark()["end_to_end"]]
        self.assertEqual(declared, list(run.END_TO_END))

    def test_timing_groups_match_the_specs(self):
        for workload, groups in workloads.GROUPS.items():
            spec_groups = {s["group"] for s in workloads.round_specs(workload, 1, 0)["specs"]}
            self.assertEqual(spec_groups, set(groups))
            for p in groups.values():
                self.assertTrue(50 < p < 100)


class ReferenceChecks(unittest.TestCase):
    """Each operation type's check rejects a deliberately wrong answer."""

    @classmethod
    def setUpClass(cls):
        cls.ctlz = run._import_program()
        os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
        cls.workdir = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
        cls.runner = workloads.Runner(cls.ctlz, cls.workdir)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def _spec(self, workload: str, kind: str, **match) -> dict:
        for k in range(3):
            for spec in workloads.round_specs(workload, 3, k)["specs"]:
                if spec["type"] == kind and all(spec.get(key) == v for key, v in match.items()):
                    return spec
        self.fail(f"no {kind} spec in {workload}")

    def test_every_operation_type_has_a_reference(self):
        kinds = set()
        for workload in workloads.WORKLOADS:
            kinds.update(s["type"] for s in workloads.round_specs(workload, 1, 0)["specs"])
            kinds.update(s["type"] for s in workloads.probe_specs(workload, 1)["specs"])
            kinds.update(s["type"] for s in workloads.heavy_specs(workload))
        # each of these has a test below feeding its check a wrong answer
        self.assertEqual(kinds, {"find", "mc", "homcheck", "mso", "hom_small"})

    def test_find_rejects_a_missed_model(self):
        spec = self._spec("sat-suites", "find", expect=True, domain="Z", interp=None)
        f = self.ctlz.parse_formula(spec["formula"])
        with self.assertRaises(workloads.Failure):
            self.runner.check(spec, None, (f, self.ctlz.Z_DOMAIN, None))

    def test_cli_checks_reject_wrong_output(self):
        for workload, kind in (("big-inputs", "mc"), ("big-inputs", "homcheck")):
            with self.subTest(kind=kind):
                files = workloads.round_specs(workload, 3, 0)
                self.runner.write_files(files["files"])
                spec = next(s for s in files["specs"] if s["type"] == kind and s["size"] <= 200)
                result = self.runner.run(spec, None)
                self.runner.check(spec, None, result)
                code, out = result
                for wrong in ((1 - code, out), (code, out[:-3]), (code, "{}")):
                    with self.assertRaises(workloads.Failure):
                        self.runner.check(spec, None, wrong)

    def test_oracle_checks_reject_a_flipped_verdict(self):
        for kind in ("mso", "hom_small"):
            with self.subTest(kind=kind):
                self.runner.one_time("hom-oracles")
                spec = self._spec("hom-oracles", kind, size=2)
                prepared = self.runner.prepare(spec)
                result = self.runner.run(spec, prepared)
                self.runner.check(spec, prepared, result)
                if kind == "mso":
                    wrong = not result
                else:
                    decision, brute = result
                    wrong = (decision, None if brute is not None else {e: 0 for e in prepared.elements})
                with self.assertRaises(workloads.Failure):
                    self.runner.check(spec, prepared, wrong)


class QuickMode(unittest.TestCase):
    def test_quick_runs_finish_in_seconds(self):
        per_layer = {m["name"] for m in _benchmark()["per_layer"]}
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    t0 = time.monotonic()
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                         "--seed", "5", "--trace", str(trace), "--quick"],
                        capture_output=True, text=True, timeout=120, cwd=ROOT,
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertLess(time.monotonic() - t0, 30)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    expected = per_layer if trace else {name for name, _ in run.END_TO_END}
                    self.assertEqual(set(result["metrics"]), expected)


class Tracing(unittest.TestCase):
    def test_self_times_partition_the_outer_spans(self):
        ctlz = run._import_program()
        t = tracing.Tracer()
        t.install(ctlz)
        t.enable()
        try:
            t.current_phase = tracing.OP
            ctlz.find_model(ctlz.parse_formula("E F eqc[1](x)"), ctlz.Z_DOMAIN, 2, 2)
        finally:
            t.current_phase = None
            t.disable()
        self.assertFalse(hasattr(ctlz.find_model, "__wrapped__"))
        roots = sum(t.end[i] - t.start[i] for i in range(t.span_count()) if t.parent[i] < 0)
        metrics = t.layer_metrics()
        self_total = sum(metrics[f"{layer}.self_s"][0] for layer in t.names)
        self.assertAlmostEqual(self_total, roots, places=9)
        self.assertEqual(metrics["satsearch.find_model.calls"][0], 1)
        checked = metrics["satsearch.models_checked"][0]
        self.assertGreater(checked, 0)
        self.assertEqual(checked, metrics["modelcheck.check_ctlstar.calls"][0])
        self.assertEqual(t.absent, [])


if __name__ == "__main__":
    unittest.main()
