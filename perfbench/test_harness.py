"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        for n in range(20, 400):
            p = run.tail_percentile(n)
            values = list(range(n))
            beyond = sum(v > run.nearest_rank(values, p) for v in values)
            self.assertGreaterEqual(beyond, 10, n)
            if p < 99:
                above = sum(v > run.nearest_rank(values, p + 1)
                            for v in values)
                self.assertLess(above, 10, n)

    def test_known_values(self):
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(25), 60)
        self.assertEqual(run.tail_percentile(5000), 99)

    def test_small_samples_fall_back_to_the_median(self):
        for n in range(1, 20):
            self.assertEqual(run.tail_percentile(n), 50)
        self.assertEqual(run.nearest_rank([3.0, 1.0, 2.0], 50), 2.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = layertrace.Tracer(clock)

        def leaf():
            clock.advance(1.0)

        def inner():
            clock.advance(2.0)
            leaf()
            leaf()

        def outer():
            clock.advance(4.0)
            inner()
            clock.advance(8.0)
            inner()

        leaf = tracer.wrap("leaf", leaf)
        inner = tracer.wrap("inner", inner)
        outer = tracer.wrap("outer", outer)
        outer()
        self.assertEqual(tracer.spans["leaf"], [4, 4.0])
        self.assertEqual(tracer.spans["inner"], [2, 4.0])
        self.assertEqual(tracer.spans["outer"], [1, 12.0])
        total = sum(self_s for _, self_s in tracer.spans.values())
        self.assertEqual(total, clock.now)

    def test_recursion_and_exceptions(self):
        clock = FakeClock()
        tracer = layertrace.Tracer(clock)

        def rec(n):
            clock.advance(1.0)
            if n == 0:
                raise ValueError("bottom")
            rec(n - 1)

        rec = tracer.wrap("rec", rec)
        with self.assertRaises(ValueError):
            rec(3)
        self.assertEqual(tracer.spans["rec"], [4, 4.0])


class InstallRestoreTest(unittest.TestCase):
    def test_wrappers_restore_the_originals(self):
        import grifcalc.cli
        import grifcalc.jacobian
        import grifcalc.linalg
        import grifcalc.report
        import grifcalc.scalar

        def snapshot():
            owners = [m for name, m in sys.modules.items()
                      if name.startswith("grifcalc")]
            owners += [grifcalc.scalar.Scalar,
                       grifcalc.jacobian.HypersurfaceRing,
                       grifcalc.linalg.RowReducer, grifcalc.cache.Cache]
            return {(id(o), k): v for o in owners
                    for k, v in list(vars(o).items())}

        argv = ["nl", "det", "--a", "2", "--b", "3"]
        grifcalc.cli.run_command(argv)  # fill the program's own memos first
        before = snapshot()
        original_det = grifcalc.linalg.determinant
        tracer = layertrace.Tracer()
        restore = layertrace.install(tracer)
        try:
            # import sites bound by name are wrapped too
            self.assertIsNot(grifcalc.jacobian._det_rows, original_det)
            self.assertIs(grifcalc.report.span_equals_kernel,
                          grifcalc.mulkernel.span_equals_kernel)
            self.assertTrue(hasattr(grifcalc.report.span_equals_kernel,
                                    "__wrapped__"))
            self.assertEqual(grifcalc.cli.run_command(argv)[0], 0)
        finally:
            restore()
        self.assertEqual(tracer.spans["cli.run_command"][0], 1)
        self.assertGreater(tracer.spans["invariant.iso_det"][0], 0)
        self.assertGreater(tracer.spans["scalar.from_fraction"][0], 0)
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])
        self.assertIs(grifcalc.jacobian._det_rows, original_det)


class MetricNamesTest(unittest.TestCase):
    def test_every_benchmark_metric_is_computed(self):
        spec = _benchmark_spec()
        good = run.Outcome(1.0, True, None, 20.0,
                           timings={c: 0.1 for c in workloads.CHECK_IDS},
                           stats={"import_s": 0.03, "elapsed_s": 0.9,
                                  "spans": {"cli.run_command": [1, 0.8]},
                                  "counters": {}})
        layer = run.per_layer([good], [good])
        for m in spec["per_layer"]:
            self.assertIn(m["name"], layer)
        e2e, _ = run.end_to_end([good], 1.0, [2.0])
        self.assertEqual(sorted(e2e), sorted(m["name"]
                                             for m in spec["end_to_end"]))


class LoopTest(unittest.TestCase):
    def test_set_ups_are_spread_over_the_loop_and_not_timed_as_loop(self):
        clock = FakeClock()
        starts = []

        class Workload:
            workdir = None

            @staticmethod
            def next_request():
                return None

        def fake_request(req, env, workdir, traced=False):
            clock.advance(3.0)
            return run.Outcome(3.0, True, None, 20.0)

        def set_up_again():
            starts.append(clock.now)
            clock.advance(1.0)
            return 1.0

        real_time, real_request = run.time, run.run_request
        run.time = type("Clock", (), {"perf_counter": staticmethod(clock)})
        run.run_request = fake_request
        try:
            untraced, traced, loop_wall, setups = run.loop(
                Workload, None, 30.0, False, set_up_again, 4)
        finally:
            run.time, run.run_request = real_time, real_request
        self.assertEqual(len(untraced), 10)
        self.assertEqual(traced, [])
        self.assertEqual(setups, [1.0] * 4)
        self.assertEqual(loop_wall, 30.0)
        # due at 6, 12, 18 and 24 s of loop time; 3 s requests end at
        # loop times 6, 12, 18 and 24, and set-ups before them add 1 s each
        self.assertEqual(starts, [6.0, 13.0, 20.0, 27.0])


class GateTest(unittest.TestCase):
    def test_empty_report_output_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            wl = workloads.ReportWorkload(0, tmp, warm=False)
            req = wl.next_request()
            for bad in ("", "\n", "not json"):
                with self.assertRaises(workloads.GateError):
                    req.check(bad)

    def test_hilbert_function(self):
        self.assertEqual(workloads.hilbert_function(4, 3), [1, 4, 6, 4, 1])
        self.assertEqual(sum(workloads.hilbert_function(4, 4)), 3 ** 4)


class UntracedPathTest(unittest.TestCase):
    def test_untraced_request_never_loads_the_tracer(self):
        script = """
import json, sys, tempfile
sys.path.insert(0, %r)
import run, workloads
seen = []
real_spawn = run.spawn
def spawn(argv, *rest):
    seen.append(argv)
    return real_spawn(argv, *rest)
run.spawn = spawn
req = workloads.Request("cli", ["hodge", "hypersurface", "--degree", "3",
                                "--dim", "3", "--json"],
                        lambda out: None, None)
with tempfile.TemporaryDirectory() as tmp:
    out = run.run_request(req, run.child_env(), tmp)
print(json.dumps({"ok": out.ok, "loaded": "layertrace" in sys.modules,
                  "argv": seen}))
""" % HERE
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["ok"])
        self.assertFalse(result["loaded"])
        self.assertNotIn("layertrace", " ".join(result["argv"][0]))


if __name__ == "__main__":
    unittest.main()
