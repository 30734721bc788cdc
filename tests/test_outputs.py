"""Output files appear complete or not at all."""

import builtins
import errno
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from splatcloud.formats import write_gaussians_ply, write_gaussians_splat, write_pointcloud_ply
from splatcloud.renderer import write_ppm
from splatcloud.types import PointCloud

from conftest import SRC, random_records

WRITERS = {
    "pointcloud.ply": lambda rng, path: write_pointcloud_ply(
        PointCloud(points=rng.normal(size=(8, 3)), colours=rng.integers(0, 256, (8, 3))), path),
    "gaussians.ply": lambda rng, path: write_gaussians_ply(random_records(rng, 8), path),
    "gaussians.splat": lambda rng, path: write_gaussians_splat(random_records(rng, 8), path),
    "render.ppm": lambda rng, path: write_ppm(path, rng.uniform(0.0, 1.0, (4, 5, 3))),
}


class _FullDisk:
    """A file that takes half of the first write, then fails as a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_the_previous_file(tmp_path, rng, monkeypatch, name):
    path = tmp_path / name
    WRITERS[name](rng, path)
    before = path.read_bytes()

    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if "w" in mode and Path(file).parent == tmp_path else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[name](rng, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_killed_writer_leaves_no_file(tmp_path):
    # Only its own temporary is left, under the name the README gives; nothing
    # sweeps it, since a pid cannot tell a dead writer from a live one in
    # another pid namespace that shares the directory.
    path = tmp_path / "cloud.ply"
    script = textwrap.dedent("""
        import builtins, os, signal, sys
        import numpy as np
        from splatcloud.formats import write_pointcloud_ply
        from splatcloud.types import PointCloud

        real_open = builtins.open

        class KilledAfterFirstWrite:
            def __init__(self, fh):
                self.fh = fh
            def __enter__(self):
                return self
            def __exit__(self, *exc):
                self.fh.close()
            def write(self, data):  # the header
                self.fh.write(data)
                self.fh.flush()
                os.kill(os.getpid(), signal.SIGKILL)

        def killing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return KilledAfterFirstWrite(fh) if "w" in mode else fh

        builtins.open = killing_open
        write_pointcloud_ply(PointCloud(points=np.zeros((10, 3)), colours=np.zeros((10, 3))),
                             sys.argv[1])
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.Popen([sys.executable, "-c", script, str(path)], env=env)
    assert child.wait(timeout=60) == -signal.SIGKILL
    assert not path.exists()
    assert [p.name for p in tmp_path.iterdir()] == [f".cloud.ply.{child.pid}.tmp"]
