"""Seeded end-to-end benchmark of splatcloud conversions through the real CLI.

    python3 perfbench/run.py --workload colour-pass --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` of that checkout, and inputs, outputs and traces go to
``.bench_work/`` there. Every conversion is a fresh
``python -m splatcloud.cli ... --stats-json`` process (a closed loop: one
conversion at a time, the next starts when the previous one exits) and its
outputs are checked with the benchmark's own PLY reader.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced conversions with traced ones (``tracer.py``) and reports the
per-layer metrics, including the tracing overhead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every conversion
passed its checks. ``--workload all`` runs every workload in turn, each
with its own report and JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import layers
from plycheck import CheckError, check_cloud, sha256
from tracer import read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
THREADS = 2
CHILD_TIMEOUT_S = 150.0
MIN_CONVERSIONS = 3
MIN_TRACED = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gaussians: int
    scene_format: str             # "ply" (62-property 3DGS layout) or "splat"
    cameras: str | None           # None, "colmap" (binary model) or "nerf"
    views: int
    width: int
    height: int
    num_points: int
    surface_points: int | None    # None: no --mesh-prep

    @property
    def focal(self) -> float:
        return 0.9375 * self.width  # the shell fills about 90% of the image height


WORKLOADS = {w.name: w for w in (
    Workload("colour-pass",
             "colour pass over 5 orbit views dominates; compositor work shows in wall_s",
             12_000, "ply", "colmap", 5, 320, 240, 500_000, None),
    Workload("dense-sample",
             "no cameras, 4M points from 100k Gaussians: loader, activation, sampler and "
             "writer only; the renderer must not move it",
             100_000, "ply", None, 0, 0, 0, 4_000_000, None),
    Workload("mesh-prep",
             ".splat + NeRF cameras with --mesh-prep: surface selection, normals and "
             "outlier removal dominate",
             10_000, "splat", "nerf", 2, 240, 180, 500_000, 600_000),
)}

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "points_per_s": "1/s", "points_emitted": "count",
}


@dataclass
class Conversion:
    """One child process: what the parent measured and what the checks found."""

    wall: float
    rss_mb: float
    setup: float = 0.0
    points: int = 0
    digest: str = ""
    error: str | None = None
    layer: dict | None = None     # per-layer metrics of a traced conversion
    account: dict | None = None   # self time per layer of a traced conversion


def ensure_inputs(workload: Workload, seed: int) -> tuple[Path, Path | None]:
    """Generate (or reuse) the scene and camera files for (workload, seed)."""
    key = (f"{workload.name}-n{workload.gaussians}-{workload.scene_format}"
           f"-v{workload.views}x{workload.width}x{workload.height}-s{seed}")
    directory = WORK / "inputs" / key
    scene = directory / f"scene.{workload.scene_format}"
    cameras = None
    if workload.cameras == "colmap":
        cameras = directory / "sparse"
    elif workload.cameras == "nerf":
        cameras = directory / "transforms.json"
    if (directory / "complete").exists():
        return scene, cameras

    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    rng = np.random.default_rng([seed, workload.gaussians])
    columns = gen.sphere_scene(rng, workload.gaussians)
    if workload.scene_format == "ply":
        gen.write_gaussians_ply(columns, scene)
    else:
        gen.write_gaussians_splat(columns, scene)
    if cameras is not None:
        poses = gen.orbit_views(rng, workload.views)
        if workload.cameras == "colmap":
            gen.write_colmap_bin(cameras, poses, workload.width, workload.height,
                                 workload.focal)
        else:
            gen.write_nerf_transforms(cameras, poses, workload.width, workload.height,
                                      workload.focal)
    (directory / "complete").write_text("")
    return scene, cameras


def cli_arguments(workload: Workload, scene: Path, cameras: Path | None,
                  output: Path, seed: int) -> list[str]:
    args = [str(scene), str(output), "--num-points", str(workload.num_points),
            "--seed", str(seed), "--threads", str(THREADS), "--stats-json"]
    if cameras is not None:
        args += ["--cameras", str(cameras)]
    if workload.surface_points is not None:
        args += ["--mesh-prep", "--surface-points", str(workload.surface_points)]
    return args


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(command: list[str], log_stem: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code).

    Wall time runs from just before the launch to the moment the child is
    reaped; peak RSS is the child's own ``ru_maxrss``.
    """
    with open(log_stem.with_suffix(".out"), "wb") as out, \
            open(log_stem.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def check_conversion(conversion: Conversion, code: int, stdout: Path,
                     workload: Workload) -> None:
    """Fill in points, setup and digest, or set ``error`` on the first failed check."""
    try:
        if code != 0:
            raise CheckError(f"exit code {code}")
        try:
            stats = json.loads(stdout.read_text())
            outputs = [(ROOT / stats["output"], stats["points"]["emitted"], False)]
            if workload.surface_points is not None:
                outputs.append((ROOT / stats["surface_output"],
                                stats["surface"]["after_cleanup"], True))
            total = float(stats["timings_seconds"]["total"])
        except (ValueError, KeyError, TypeError) as err:
            raise CheckError(f"unreadable --stats-json output: {err!r}") from err
        points = 0
        digests = []
        for path, expected, normals in outputs:
            points += check_cloud(path, expected, normals)
            digests.append(sha256(path))
    except (CheckError, OSError) as err:
        conversion.error = str(err)
        return
    conversion.points = points
    conversion.digest = "+".join(digests)
    conversion.setup = conversion.wall - total


def convert(workload: Workload, scene: Path, cameras: Path | None, seed: int,
            index: int, traced: bool) -> Conversion:
    out_dir = WORK / "out" / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    output = out_dir / "cloud.ply"
    args = cli_arguments(workload, scene, cameras, output.relative_to(ROOT), seed)
    stem = out_dir / f"{'traced' if traced else 'plain'}-{index:03d}"
    spans_path = WORK / "trace" / f"{workload.name}-s{seed}-{index:03d}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    if traced:
        command = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                   f"{workload.name}-s{seed}-{index}", "--", *args]
    else:
        command = [sys.executable, "-m", "splatcloud.cli", *args]
    wall, rss, code = launch(command, stem)
    conversion = Conversion(wall=wall, rss_mb=rss)
    check_conversion(conversion, code, stem.with_suffix(".out"), workload)
    if traced and conversion.error is None:
        spans, unmeasured = read_spans(spans_path)
        conversion.layer = layers.layer_metrics(spans, unmeasured, wall, THREADS)
        conversion.account = layers.account(spans, wall)
    return conversion


def warm_up() -> None:
    """Compile and page in the package once, so the first timed import is typical."""
    subprocess.run([sys.executable, "-c", "import splatcloud.cli"], cwd=ROOT,
                   env=child_env(), check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def run_conversions(workload: Workload, seed: int, seconds: float,
                    trace: bool) -> list[tuple[bool, Conversion]]:
    """Convert until the next conversion would end past ``seconds``.

    With ``trace`` the conversions alternate untraced, traced. At least
    ``MIN_CONVERSIONS`` untraced (or ``MIN_TRACED`` pairs) run regardless.
    """
    scene, cameras = ensure_inputs(workload, seed)
    warm_up()
    done: list[tuple[bool, Conversion]] = []
    started = time.perf_counter()
    pattern = (False, True) if trace else (False,)
    minimum = MIN_TRACED * 2 if trace else MIN_CONVERSIONS
    while True:
        elapsed = time.perf_counter() - started
        if len(done) >= minimum:
            step = elapsed / len(done)
            if elapsed + step * len(pattern) > seconds:
                break
        for traced in pattern:
            done.append((traced, convert(workload, scene, cameras, seed, len(done), traced)))
    # a conversion whose output differs from the first good one is a failure
    reference = next((c.digest for _, c in done if c.error is None), None)
    for _, c in done:
        if c.error is None and c.digest != reference:
            c.error = f"output sha256 {c.digest[:16]} differs from {reference[:16]}"
    return done


def _spread(values: list[float]) -> str:
    return (f"median of n={len(values)} (min {min(values):.6g}, max {max(values):.6g})"
            if values else "n=0")


def end_to_end(done: list[tuple[bool, Conversion]]) -> dict[str, tuple[float, list[float]]]:
    good = [c for traced, c in done if not traced and c.error is None]
    if not good:
        return {}
    wall = [c.wall for c in good]
    points = good[0].points
    return {
        "wall_s": (statistics.median(wall), wall),
        "setup_s": (statistics.median(c.setup for c in good), [c.setup for c in good]),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in good), [c.rss_mb for c in good]),
        "points_per_s": (points / statistics.median(wall), [points / w for w in wall]),
        "points_emitted": (float(points), [float(c.points) for c in good]),
    }


def per_layer(done: list[tuple[bool, Conversion]]) -> dict[str, tuple[float, list[float]]]:
    plain = [c.wall for traced, c in done if not traced and c.error is None]
    traced = [c for t, c in done if t and c.error is None]
    if not plain or not traced:
        return {}
    names = set.intersection(*(set(c.layer) for c in traced))
    out = {}
    for name in layers.METRICS:
        if name in names:
            values = [c.layer[name] for c in traced]
            out[name] = (statistics.median(values), values)
    overhead = [c.wall - statistics.median(plain) for c in traced]
    out["trace.overhead_s"] = (statistics.median(overhead), overhead)
    return out


def baseline_digest(workload: Workload, seed: int) -> str | None:
    baseline = json.loads((HERE / "baseline.json").read_text())
    entry = baseline.get("digests", {}).get(workload.name)
    if entry and entry["seed"] == seed:
        return entry["sha256"]
    return None


def report(workload: Workload, seed: int, trace: bool,
           done: list[tuple[bool, Conversion]]) -> dict:
    """Print the human-readable report and return the result object."""
    failed = [c for _, c in done if c.error is not None]
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: "
          f"{len(done)} conversions, {len(failed)} failed "
          f"(failed_frac {len(failed) / len(done):.4f})")
    for c in failed:
        print(f"  FAILED: {c.error}")
    if trace:
        metrics = per_layer(done)
        units = {name: spec[0] for name, spec in layers.METRICS.items()}
        missing = [name for name in layers.METRICS if name not in metrics]
        if missing:
            print(f"  unmeasured (wrapped function missing): {', '.join(missing)}")
        accounts = [c.account for t, c in done if t and c.account]
        if accounts:
            last = accounts[-1]
            parts = " + ".join(f"{k} {v:.3f}" for k, v in last.items() if k != "wall")
            print(f"  account of the last traced conversion: {parts} "
                  f"= traced wall {last['wall']:.3f} s")
    else:
        metrics = end_to_end(done)
        units = END_TO_END
    for name, (value, values) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]:6s} {_spread(values)}")
    digests = {c.digest for _, c in done if c.error is None}
    if digests:
        digest = digests.pop()
        recorded = baseline_digest(workload, seed)
        verdict = ("not recorded for this seed" if recorded is None
                   else "matches baseline" if recorded == digest else "DIFFERS from baseline")
        print(f"  output sha256 {digest} ({verdict})")
    return {
        "correct": not failed,
        "attempted": len(done),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }


def program_present() -> bool:
    return (ROOT / "src" / "splatcloud" / "cli.py").is_file()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: no splatcloud sources under {ROOT / 'src'}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        done = run_conversions(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        result = report(WORKLOADS[name], args.seed, bool(args.trace), done)
        shutil.rmtree(WORK / "out" / name, ignore_errors=True)
        print(json.dumps(result))
        correct &= result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
