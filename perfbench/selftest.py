"""Self-tests of the benchmark's tracing and output checks.

    python3 perfbench/selftest.py

They run real decayalg commands on the benchmark's workloads (about a
minute on a 2-core box), writing only under .perfbench_work/selftest.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.prepare_environment()

from checks import check_output, differing_files  # noqa: E402
from layers import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = run.WORK / "selftest"


class BenchTestCase(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def bench(self, name: str, seed: int = 5) -> run.Bench:
        os.environ["DECAYALG_THREADS"] = str(WORKLOADS[name].threads)
        return run.Bench(WORKLOADS[name], seed, WORK)


class TracingTest(BenchTestCase):
    def test_counts_repeat_across_traced_runs_at_one_seed(self):
        counted = [k for k, unit in PER_LAYER_UNITS.items() if unit == "count"]
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, _, results = run.traced_run(self.bench(name), 2)
                second, _, _ = run.traced_run(self.bench(name), 2)
                self.assertEqual(run.failed_trials(results), 0)
                self.assertEqual({k: first[k] for k in counted},
                                 {k: second[k] for k in counted})
                self.assertGreater(first["rng.normals"], 0)
                self.assertGreater(first["lattice.calls"], 0)
                self.assertGreater(first["harness.pool.busy_frac"], 0.0)
                self.assertLessEqual(first["harness.pool.busy_frac"], 1.0)

    def test_self_times_add_up_to_command_wall(self):
        bench = self.bench("kernel-2d")  # serial: every timed call is on one thread
        tracer = Tracer()
        main = tracer.timed("cli.main", bench.cli_main, record=True)
        with tracer:
            result = bench.run_and_discard(0, main)
        self.assertEqual(result.failures, {})
        stats = tracer.stats()
        wall = stats["cli.main"][1]
        unattributed = stats["cli.main"][2]
        attributed = sum(s for n, (_, _, s) in stats.items() if n != "cli.main")
        self.assertGreaterEqual(unattributed, 0.0)
        self.assertAlmostEqual(attributed + unattributed, wall, delta=1e-9 * wall)
        self.assertLessEqual(abs(result.wall_s - wall), 0.01 * wall)

    def test_uninstall_restores_every_original(self):
        import numpy as np
        from decayalg import cd_operator, harness

        before = (np.linalg.svd, harness.fit_envelope, cd_operator.densify)
        with Tracer():
            self.assertIsNot(np.linalg.svd, before[0])
            self.assertIsNot(harness.fit_envelope, before[1])
        self.assertEqual((np.linalg.svd, harness.fit_envelope, cd_operator.densify), before)


class OutputCheckTest(BenchTestCase):
    def run_into(self, name: str) -> tuple[run.Bench, Path]:
        bench = self.bench(name)
        out = WORK / "out"
        self.assertEqual(bench.run(0, out).failures, {})
        return bench, out

    def recheck(self, bench: run.Bench, out: Path) -> dict:
        return check_output(bench.workload.command, out, bench.workload.trials, 0)

    def edit_report(self, out: Path, edit) -> None:
        path = out / "report.json"
        report = json.loads(path.read_text())
        edit(report)
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")

    def test_corrupted_residual_is_counted_failed(self):
        bench, out = self.run_into("invert-1d")
        self.edit_report(out, lambda r: r["records"][0].update(residual=1.0))
        failures = self.recheck(bench, out)
        # verify_report sees max_residual disagree with the records: every trial fails
        self.assertIn("verify-report", failures[0][0])
        result = run.CommandResult(0, 0, 1.0, 0, bench.workload.trials, failures)
        self.assertEqual(run.failed_trials([result]), bench.workload.trials)

    def test_weighted_total_off_the_envelope_csv_is_counted_failed(self):
        bench, out = self.run_into("invert-1d")
        self.edit_report(out, lambda r: r["records"][2].update(weighted_total=123.0))
        self.assertEqual(list(self.recheck(bench, out)), [2])

    def test_inexact_kernel_round_trip_is_counted_failed(self):
        bench, out = self.run_into("kernel-2d")
        self.edit_report(out, lambda r: r["records"][0].update(round_trip_exact=False))
        self.assertEqual(list(self.recheck(bench, out)), [0])

    def test_nonzero_exit_fails_every_trial(self):
        bench, out = self.run_into("invert-1d")
        failures = check_output("invert", out, bench.workload.trials, 3)
        self.assertEqual(sorted(failures), list(range(bench.workload.trials)))

    def test_rerun_comparison_sees_one_changed_byte(self):
        bench, out = self.run_into("invert-1d")
        again = WORK / "again"
        bench.run(0, again)
        self.assertEqual(differing_files(out, again), [])
        csv = next(again.glob("*.csv"))
        data = bytearray(csv.read_bytes())
        data[-2] ^= 1
        csv.write_bytes(bytes(data))
        self.assertEqual(differing_files(out, again), [csv.name])


if __name__ == "__main__":
    unittest.main()
