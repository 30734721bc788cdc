"""The benchmark's span tracer wraps program functions by module and name.

A function that is renamed or moved would leave its per-layer metrics
unmeasured without failing any conversion, so every name the tracer's wrap
table lists must still resolve to a callable. A return value that changes
shape makes the tracer's counter reader fail, which it records as
``counters_missing`` and the layer metric then reads 0, so a traced
conversion must read every counter.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import SRC, random_records, write_colmap_bin, write_scene_ply

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def wrap_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module_name, attr_path", [
    pytest.param(module_name, attr_path, id=span)
    for module_name, attr_path, span, _ in wrap_table()
])
def test_every_traced_name_resolves(module_name, attr_path):
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        assert hasattr(owner, part), f"{module_name}.{attr_path} is gone"
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{attr_path} is not callable"


def test_traced_conversion_reads_every_counter(tmp_path, rng):
    # cameras, --mesh-prep and a --bbox, so every wrapped stage runs
    scene = tmp_path / "scene.ply"
    write_scene_ply(random_records(rng, 40, spread=1.0, opacity_logit_range=(1.0, 3.0)),
                    scene)
    cameras = [{"id": 1, "model": "SIMPLE_PINHOLE", "width": 48, "height": 40,
                "params": (45.0, 24.0, 20.0)}]
    images = [{"id": 1, "qvec": (1.0, 0.0, 0.0, 0.0), "tvec": (0.0, 0.0, 5.0),
               "camera_id": 1, "name": "front.png"},
              {"id": 2, "qvec": (np.sqrt(0.5), 0.0, np.sqrt(0.5), 0.0),
               "tvec": (0.0, 0.0, 5.0), "camera_id": 1, "name": "side.png"}]
    write_colmap_bin(tmp_path / "sparse", cameras, images)
    spans_path = tmp_path / "spans.jsonl"
    command = [sys.executable, str(TRACER), str(spans_path), "guard", "--",
               str(scene), str(tmp_path / "cloud.ply"), "--cameras", str(tmp_path / "sparse"),
               "--mesh-prep", "--bbox=-10,-10,-10,10,10,10", "--num-points", "2000",
               "--surface-points", "500", "--threads", "1", "--stats-json"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(command, env=env, capture_output=True, timeout=120, check=True)

    records = [json.loads(line) for line in spans_path.read_text().splitlines()]
    (meta,) = [r for r in records if r["kind"] == "meta"]
    assert meta["unmeasured"] == []
    spans = [r for r in records if r["kind"] == "span"]
    assert [s["name"] for s in spans if s.get("counters_missing")] == []
    counted = {s["name"] for s in spans if "counters" in s}
    readers = {span for _, _, span, counters in wrap_table() if counters is not None}
    assert readers <= counted, f"never read: {sorted(readers - counted)}"

    # the outlier-removal counters read the filter's arguments and result, so
    # a change of its shape must not leave them counting something else
    surface = json.loads(run.stdout)["surface"]
    (sor,) = [s for s in spans if s["name"] == "surface.remove_statistical_outliers"]
    assert sor["counters"]["queries"] == surface["emitted"]
    assert sor["counters"]["removed"] == surface["emitted"] - surface["after_cleanup"]
