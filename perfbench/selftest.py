"""Self-tests of the benchmark: seconds-long miniatures of every workload, plus
the output checks fed deliberately corrupted files.

    python3 perfbench/selftest.py

Run from the root of a source checkout, like ``run.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

import numpy as np

import gen
import layers
import run
import tracer
from plycheck import CheckError, check_cloud, read_vertices

sys.path.insert(0, str(run.ROOT / "src"))

SEED = 3
MINI = {
    "colour-pass": dataclasses.replace(run.WORKLOADS["colour-pass"], gaussians=600,
                                       views=2, width=64, height=48, num_points=20_000),
    "dense-sample": dataclasses.replace(run.WORKLOADS["dense-sample"], gaussians=2_000,
                                        num_points=50_000),
    "mesh-prep": dataclasses.replace(run.WORKLOADS["mesh-prep"], gaussians=600, views=2,
                                     width=64, height=48, num_points=20_000,
                                     surface_points=5_000),
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_mini(name: str, trace: int) -> tuple[int, list[str]]:
    """run.main on a miniature workload: (exit code, stdout lines)."""
    out = io.StringIO()
    with mock.patch.dict(run.WORKLOADS, MINI), contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace)])
    return code, out.getvalue().splitlines()


class MiniatureWorkloads(unittest.TestCase):
    def check_report(self, trace: int, declared: list[dict]) -> dict[str, dict]:
        """Every declared metric is in the result and printed; returns the metrics."""
        reported = {}
        for name in MINI:
            with self.subTest(workload=name):
                code, lines = run_mini(name, trace)
                result = json.loads(lines[-1])
                self.assertEqual(code, 0, lines)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in declared))
                for metric in declared:
                    entry = result["metrics"][metric["name"]]
                    self.assertEqual(entry["unit"], metric["unit"])
                    self.assertIsInstance(entry["value"], float)
                    printed = [line for line in lines
                               if line.split()[:1] == [metric["name"]]]
                    self.assertEqual(len(printed), 1, metric["name"])
                    self.assertIn(f" {metric['unit']} ", printed[0])
                    self.assertIn("median of n=", printed[0])
                self.assertIn("failed_frac 0.0000", lines[0])
                reported[name] = result["metrics"]
        return reported

    def test_end_to_end_metrics_printed_with_unit_and_count(self):
        self.check_report(0, BENCHMARK["end_to_end"])

    def test_per_layer_metrics_printed_and_layers_run_only_where_expected(self):
        metrics = self.check_report(1, BENCHMARK["per_layer"])
        self.assertEqual(metrics["dense-sample"]["renderer.composite_busy_s"]["value"], 0.0)
        self.assertEqual(metrics["dense-sample"]["renderer.tiles"]["value"], 0.0)
        self.assertGreater(metrics["colour-pass"]["renderer.tile_px_evals"]["value"], 0.0)
        self.assertEqual(metrics["colour-pass"]["surface.sor_knn_queries"]["value"], 0.0)
        self.assertGreater(metrics["mesh-prep"]["surface.sor_knn_queries"]["value"], 0.0)
        self.assertGreater(metrics["mesh-prep"]["formats.write_surface_s"]["value"], 0.0)

    def test_layer_self_times_account_for_traced_wall(self):
        workload = MINI["mesh-prep"]
        scene, cameras = run.ensure_inputs(workload, SEED)
        conversion = run.convert(workload, scene, cameras, SEED, 0, traced=True)
        self.assertIsNone(conversion.error)
        parts = {k: v for k, v in conversion.account.items() if k != "wall"}
        self.assertEqual(set(parts) - {"setup"},
                         {"formats", "pipeline", "renderer", "sampler", "scene", "surface"})
        self.assertAlmostEqual(sum(parts.values()), conversion.account["wall"], places=6)
        self.assertGreater(min(parts.values()), 0.0)


class Declarations(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        for declared in BENCHMARK["workloads"]:
            self.assertEqual(declared["why"], run.WORKLOADS[declared["name"]].why)
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]},
                         {name: spec[:2] for name, spec in layers.METRICS.items()})

    def test_inputs_depend_only_on_the_seed(self):
        first = gen.sphere_scene(np.random.default_rng([SEED, 500]), 500)
        again = gen.sphere_scene(np.random.default_rng([SEED, 500]), 500)
        other = gen.sphere_scene(np.random.default_rng([SEED + 1, 500]), 500)
        for key in first:
            np.testing.assert_array_equal(first[key], again[key])
        self.assertFalse(np.array_equal(first["position"], other["position"]))

    def test_missing_wrapped_function_reports_layer_unmeasured(self):
        gone = (("splatcloud.renderer", "no_such_function", "renderer.project", None),
                ("splatcloud.no_such_module", "run", "surface.select_surface", None))
        with mock.patch.object(tracer, "TARGETS", gone):
            traced = tracer.Tracer("selftest")
            traced.install()
        self.assertEqual(traced.unmeasured, ["renderer.project", "surface.select_surface"])
        metrics = layers.layer_metrics([], traced.unmeasured, 1.0, run.THREADS)
        self.assertNotIn("renderer.project_s", metrics)
        self.assertNotIn("renderer.inbox_frac", metrics)
        self.assertNotIn("surface.selected", metrics)
        self.assertIn("renderer.tile_s", metrics)


class CorruptedOutputs(unittest.TestCase):
    """A corrupted copy of a real output must count as a failed conversion."""

    @classmethod
    def setUpClass(cls):
        cls.workload = MINI["mesh-prep"]
        scene, cameras = run.ensure_inputs(cls.workload, SEED)
        cls.dir = run.WORK / "selftest" / "corrupt"
        shutil.rmtree(cls.dir, ignore_errors=True)
        cls.dir.mkdir(parents=True)
        output = (cls.dir / "cloud.ply").relative_to(run.ROOT)
        args = run.cli_arguments(cls.workload, scene, cameras, output, SEED)
        stem = cls.dir / "plain"
        _, _, code = run.launch([sys.executable, "-m", "splatcloud.cli", *args], stem)
        if code != 0:
            raise RuntimeError(stem.with_suffix(".err").read_text())
        cls.stats = json.loads(stem.with_suffix(".out").read_text())

    def copy_outputs(self, corrupt_main=None, corrupt_surface=None) -> Path:
        """Copy both outputs, corrupt them, and write a stats file pointing at them."""
        stats = dict(self.stats)
        for key, corrupt in (("output", corrupt_main), ("surface_output", corrupt_surface)):
            source = run.ROOT / self.stats[key]
            target = self.dir / f"copy-{source.name}"
            data = bytearray(source.read_bytes())
            if corrupt is not None:
                data = corrupt(data)
            target.write_bytes(bytes(data))
            stats[key] = str(target.relative_to(run.ROOT))
        stdout = self.dir / "copy.out"
        stdout.write_text(json.dumps(stats))
        return stdout

    def checked(self, stdout: Path) -> run.Conversion:
        conversion = run.Conversion(wall=1.0, rss_mb=1.0)
        run.check_conversion(conversion, 0, stdout, self.workload)
        return conversion

    @staticmethod
    def body_offset(data: bytearray) -> int:
        return data.index(b"end_header\n") + len(b"end_header\n")

    def nan_first_x(self, data: bytearray) -> bytearray:
        offset = self.body_offset(data)
        data[offset:offset + 4] = np.float32(np.nan).tobytes()
        return data

    def shrink_first_normal(self, data: bytearray) -> bytearray:
        offset = self.body_offset(data) + 3 * 4 + 3  # after x, y, z and red, green, blue
        data[offset:offset + 4] = np.float32(0.5).tobytes()
        return data

    def test_untouched_copy_passes(self):
        conversion = self.checked(self.copy_outputs())
        self.assertIsNone(conversion.error)
        self.assertEqual(conversion.points, self.stats["points"]["emitted"]
                         + self.stats["surface"]["after_cleanup"])

    def test_nan_coordinate_fails(self):
        conversion = self.checked(self.copy_outputs(corrupt_main=self.nan_first_x))
        self.assertIn("non-finite", conversion.error)

    def test_truncated_body_fails(self):
        conversion = self.checked(self.copy_outputs(corrupt_surface=lambda d: d[:-7]))
        self.assertIn("body holds", conversion.error)

    def test_non_unit_normal_fails(self):
        conversion = self.checked(self.copy_outputs(corrupt_surface=self.shrink_first_normal))
        self.assertIn("unit length", conversion.error)

    def test_count_mismatch_fails(self):
        path = self.dir / "copy-count.ply"
        path.write_bytes((run.ROOT / self.stats["output"]).read_bytes())
        with self.assertRaises(CheckError):
            check_cloud(path, len(read_vertices(path)) + 1, normals=False)

    def test_failed_conversion_is_counted(self):
        good = self.checked(self.copy_outputs())
        bad = self.checked(self.copy_outputs(corrupt_main=self.nan_first_x))
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.report(self.workload, SEED, False, [(False, good), (False, bad)])
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertFalse(result["correct"])


class WithoutTheProgram(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        bare = run.WORK / "selftest" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "dense-sample",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
