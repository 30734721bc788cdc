"""CLI behaviour: format detection, exit codes, config files, stats output."""

import gc
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from reference import read_cloud
from splatcloud import cli, pipeline, renderer
from splatcloud.cli import main
from splatcloud.errors import DomainError, UsageError
from splatcloud.pipeline import detect_format, surface_output_path
from splatcloud.scene import activate

from conftest import (
    SRC,
    assert_no_child_left,
    perfbench_gen,
    random_records,
    write_colmap_bin,
    write_colmap_txt,
    write_scene_ply,
)


@pytest.fixture
def scene_ply(tmp_path, rng):
    records = random_records(rng, 25, spread=1.0,
                             opacity_logit_range=(1.0, 3.0))
    path = tmp_path / "scene.ply"
    write_scene_ply(records, path)
    return path


@pytest.fixture
def colmap_dir(tmp_path):
    cameras = [{"id": 1, "model": "SIMPLE_PINHOLE", "width": 64, "height": 64,
                "params": (60.0, 32.0, 32.0)}]
    images = [
        {"id": 1, "qvec": (1.0, 0.0, 0.0, 0.0), "tvec": (0.0, 0.0, 5.0),
         "camera_id": 1, "name": "front.png"},
        {"id": 2, "qvec": (np.sqrt(0.5), 0.0, np.sqrt(0.5), 0.0),
         "tvec": (0.0, 0.0, 5.0), "camera_id": 1, "name": "side.png"},
    ]
    directory = tmp_path / "sparse"
    write_colmap_bin(directory, cameras, images)
    return directory


# ---------------------------------------------------------------------------
# detect_format


def test_detect_by_extension(tmp_path):
    splat = tmp_path / "scene.splat"
    splat.write_bytes(b"\x00" * 32)
    assert detect_format(splat) == "splat"
    transforms = tmp_path / "transforms.json"
    transforms.write_text("{}")
    assert detect_format(transforms) == "nerf-json"


def test_detect_colmap_directory(tmp_path, colmap_dir):
    assert detect_format(colmap_dir) == "colmap-dir"


def test_detect_ply_magic_without_extension(tmp_path):
    odd = tmp_path / "scene.model"
    odd.write_bytes(b"ply\nformat ascii 1.0\nend_header\n")
    assert detect_format(odd) == "ply"


def test_detect_unknown_is_usage_error(tmp_path):
    notes = tmp_path / "notes.txt"
    notes.write_text("hello")
    with pytest.raises(UsageError):
        detect_format(notes)


# ---------------------------------------------------------------------------
# happy paths


def test_happy_path_with_cameras(tmp_path, scene_ply, colmap_dir, capsys):
    out = tmp_path / "cloud.ply"
    code = main([str(scene_ply), str(out), "--cameras", str(colmap_dir),
                 "--num-points", "2000", "--exact", "--seed", "7",
                 "--threads", "1", "--stats-json"])
    assert code == 0
    assert out.exists()
    stats = json.loads(capsys.readouterr().out)
    assert stats["points"]["requested"] == 2000
    emitted = stats["points"]["emitted"]
    assert 0.98 * 2000 <= emitted <= 2000
    cloud = read_cloud(out)
    assert len(cloud) == emitted
    assert stats["render"]["images"] == 2
    assert stats["render"]["pairs_evaluated"] > 0
    assert stats["render"]["pixels_terminated"] >= 0


def test_without_cameras_uses_base_colours(tmp_path, scene_ply, caplog):
    out = tmp_path / "cloud.ply"
    code = main([str(scene_ply), str(out), "--num-points", "500", "--exact",
                 "--threads", "1", "--seed", "3"])
    assert code == 0
    assert any("no camera poses" in message for message in caplog.messages)

    # colours must be the quantised per-gaussian base colours
    from splatcloud.formats import load_gaussians_ply
    from splatcloud.sampler import quantize_colours
    scene = activate(load_gaussians_ply(scene_ply))
    allowed = {tuple(c) for c in quantize_colours(scene.base_colour).tolist()}
    cloud = read_cloud(out)
    got = {tuple(c) for c in cloud.colours.tolist()}
    assert got <= allowed


def test_byte_identical_across_runs_and_threads(tmp_path, scene_ply, colmap_dir):
    out1 = tmp_path / "a.ply"
    out2 = tmp_path / "b.ply"
    base = ["--cameras", str(colmap_dir), "--num-points", "1500",
            "--seed", "11"]
    assert main([str(scene_ply), str(out1), *base, "--threads", "1"]) == 0
    assert main([str(scene_ply), str(out2), *base, "--threads", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_mesh_prep_writes_surface_file(tmp_path, scene_ply, colmap_dir):
    out = tmp_path / "cloud.ply"
    code = main([str(scene_ply), str(out), "--cameras", str(colmap_dir),
                 "--num-points", "800", "--mesh-prep", "--surface-points", "900",
                 "--sor-k", "8", "--threads", "1"])
    assert code == 0
    surface = surface_output_path(out)
    assert surface.exists()
    cloud = read_cloud(surface)
    assert cloud.normals is not None
    assert len(cloud) > 0


# ---------------------------------------------------------------------------
# failure modes


def test_num_points_zero_is_usage_error(tmp_path, scene_ply):
    out = tmp_path / "cloud.ply"
    assert main([str(scene_ply), str(out), "--num-points", "0"]) == 2
    assert not out.exists()


def test_missing_input_is_usage_error():
    assert main([]) == 2


def test_nonexistent_input(tmp_path):
    assert main([str(tmp_path / "nope.ply"), str(tmp_path / "o.ply")]) == 2


def test_bad_ply_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.ply"
    bad.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                   "property float x\nproperty float y\nproperty float z\n"
                   "end_header\n0 0 0\n")
    out = tmp_path / "cloud.ply"
    assert main([str(bad), str(out)]) == 1
    err = capsys.readouterr().err
    assert "load-gaussians" in err and "missing property" in err
    assert not out.exists()


def test_bad_ply_element_count_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.ply"
    bad.write_text("ply\nformat ascii 1.0\nelement vertex abc\n"
                   "property float x\nend_header\n")
    out = tmp_path / "cloud.ply"
    assert main([str(bad), str(out)]) == 1
    err = capsys.readouterr().err
    assert "load-gaussians" in err and "'element vertex abc'" in err
    assert "invalid literal" not in err


def test_non_finite_gaussians_never_reach_the_output(tmp_path, rng):
    records = random_records(rng, 50)
    records.position[5, 0] = np.nan
    records.logit_opacity[17] = np.nan
    records.sh_dc[33, 1] = np.nan
    path = tmp_path / "scene.ply"
    write_scene_ply(records, path)
    out = tmp_path / "cloud.ply"
    assert main([str(path), str(out), "--num-points", "1000", "--threads", "1"]) == 0
    cloud = read_cloud(out)
    assert len(cloud) > 0
    assert np.isfinite(cloud.points).all()


@pytest.mark.parametrize("sigma", ["3", "inf"])
def test_gaussian_at_the_float32_limit_writes_only_finite_points(tmp_path, rng, sigma):
    # the first Gaussian is so large that it takes nearly every point, and
    # about a third of its draws land past float32's largest value
    records = random_records(rng, 3)
    records.position[0] = (3.4028e38, 0.0, 0.0)
    records.log_scale[0] = 78.0
    path = tmp_path / "scene.ply"
    write_scene_ply(records, path)
    out = tmp_path / "cloud.ply"
    assert main([str(path), str(out), "--num-points", "999", "--sigma", sigma,
                 "--threads", "1"]) == 0
    cloud = read_cloud(out)
    assert 0 < len(cloud) < 999
    assert np.isfinite(cloud.points).all()


@pytest.mark.parametrize("broken, named", [
    ({"tvec": (0.0, float("nan"), 5.0)}, "pose 2"),
    ({"params": (float("inf"), 60.0, 32.0, 32.0)}, "pose 1"),
    ({"qvec": (0.0, 0.0, 0.0, 0.0)}, "image 'front.png'"),
], ids=["nan-tvec", "inf-fx", "zero-qvec"])
def test_non_finite_camera_fails_at_load(tmp_path, scene_ply, capsys, broken, named):
    camera = {"id": 1, "model": "PINHOLE", "width": 64, "height": 64,
              "params": (60.0, 60.0, 32.0, 32.0)}
    images = [
        {"id": 1, "qvec": (1.0, 0.0, 0.0, 0.0), "tvec": (0.0, 0.0, 5.0),
         "camera_id": 1, "name": "front.png"},
        {"id": 2, "qvec": (1.0, 0.0, 0.0, 0.0), "tvec": (0.0, 0.0, 6.0),
         "camera_id": 1, "name": "side.png"},
    ]
    if "params" in broken:
        camera.update(broken)
    else:
        images[0 if "qvec" in broken else 1].update(broken)
    write_colmap_txt(tmp_path / "sparse", [camera], images)
    out = tmp_path / "cloud.ply"
    assert main([str(scene_ply), str(out), "--cameras", str(tmp_path / "sparse"),
                 "--num-points", "200", "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert "[load-cameras]" in err and named in err
    assert not out.exists()


def write_oversized_cameras(directory, reader):
    """A one-image model of ``reader``'s format whose image is too large."""
    camera = {"id": 1, "model": "SIMPLE_PINHOLE", "width": 64, "height": 64,
              "params": (60.0, 32.0, 32.0)}
    images = [{"id": 7, "qvec": (1.0, 0.0, 0.0, 0.0), "tvec": (0.0, 0.0, 5.0),
               "camera_id": 1, "name": "front.png"}]
    if reader == "colmap-bin":
        write_colmap_bin(directory, [dict(camera, width=2**40)], images)
        return directory, "pose 7: image size 1099511627776x64"
    if reader == "colmap-txt":
        write_colmap_txt(directory, [dict(camera, height=2**40)], images)
        return directory, "pose 7: image size 64x1099511627776"
    directory.mkdir()
    path = directory / "transforms.json"
    path.write_text(json.dumps({"fl_x": 60.0, "w": 65536, "h": 64, "cx": 32.0, "frames": [
        {"file_path": "front", "transform_matrix": np.eye(4).tolist()}]}))
    return path, "pose 0: image size 65536x64"


@pytest.mark.parametrize("reader", ["colmap-bin", "colmap-txt", "nerf"])
def test_oversized_camera_fails_at_load(tmp_path, scene_ply, capsys, reader):
    cameras, named = write_oversized_cameras(tmp_path / "cameras", reader)
    out = tmp_path / "cloud.ply"
    assert main([str(scene_ply), str(out), "--cameras", str(cameras),
                 "--num-points", "200", "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert "[load-cameras]" in err and named in err
    assert not out.exists()


def test_mesh_prep_without_cameras_fails_and_cleans_up(tmp_path, scene_ply):
    out = tmp_path / "cloud.ply"
    code = main([str(scene_ply), str(out), "--num-points", "200",
                 "--mesh-prep", "--threads", "1"])
    assert code == 2
    assert not out.exists()  # partial output removed


@pytest.mark.parametrize("zero_poses", [False, True], ids=["no-cameras", "zero-poses"])
def test_mesh_prep_without_poses_fails_before_sampling(tmp_path, scene_ply, monkeypatch,
                                                       zero_poses):
    sampled = []
    monkeypatch.setattr(pipeline, "generate_pointcloud", lambda *args: sampled.append(args))
    argv = [str(scene_ply), str(tmp_path / "cloud.ply"), "--mesh-prep", "--threads", "1"]
    if zero_poses:
        transforms = tmp_path / "transforms.json"
        transforms.write_text(json.dumps({"camera_angle_x": 0.9, "frames": []}))
        argv += ["--cameras", str(transforms)]
    assert main(argv) == 2
    assert sampled == []


def test_surface_failure_keeps_the_complete_main_cloud(tmp_path, scene_ply, colmap_dir,
                                                       monkeypatch, capsys):
    def failing_surface(*args):
        raise DomainError("surface selection is empty")

    monkeypatch.setattr(pipeline, "export_surface_cloud", failing_surface)
    out = tmp_path / "cloud.ply"
    assert main([str(scene_ply), str(out), "--cameras", str(colmap_dir),
                 "--num-points", "200", "--mesh-prep", "--threads", "1"]) == 1
    assert "[surface]" in capsys.readouterr().err
    assert len(read_cloud(out)) > 0
    assert not surface_output_path(out).exists()
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("failing_rank", [0, 1], ids=["first", "second"])
def test_failing_view_worker_is_a_render_error(tmp_path, scene_ply, colmap_dir, monkeypatch,
                                               capsys, forks, failing_rank):
    # at 2 workers the first forked child renders view 0 and the second view 1
    real_render_image = renderer.render_image

    def render_image(scene, pose, config, image_rank=0, contributions=None, **options):
        if image_rank == failing_rank:
            raise DomainError(f"view {image_rank} cannot be rendered")
        return real_render_image(scene, pose, config, image_rank, contributions, **options)

    monkeypatch.setattr(renderer, "render_image", render_image)
    out = tmp_path / "cloud.ply"
    assert main([str(scene_ply), str(out), "--cameras", str(colmap_dir),
                 "--num-points", "200", "--threads", "2"]) == 1
    assert len(forks) == 2
    assert f"[render] view {failing_rank} cannot be rendered" in capsys.readouterr().err
    assert not out.exists()
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    assert_no_child_left()


def test_cameras_empty_json_warns(tmp_path, scene_ply, caplog):
    transforms = tmp_path / "transforms.json"
    transforms.write_text(json.dumps({"camera_angle_x": 0.9, "frames": []}))
    out = tmp_path / "cloud.ply"
    code = main([str(scene_ply), str(out), "--cameras", str(transforms),
                 "--num-points", "200", "--threads", "1"])
    assert code == 0
    assert any("no camera poses" in message for message in caplog.messages)


# ---------------------------------------------------------------------------
# config file


def test_config_file_supplies_flags(tmp_path, scene_ply, colmap_dir, capsys):
    out = tmp_path / "cloud.ply"
    config = tmp_path / "run.cfg"
    config.write_text(
        f"input = {scene_ply}\n"
        f"output = {out}\n"
        f"cameras = {colmap_dir}\n"
        "num-points = 400\n"
        "exact = true\n"
        "seed = 5\n"
        "threads = 1\n"
        "stats-json = true\n"
        "# a comment line\n"
    )
    code = main(["--config", str(config)])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["points"]["requested"] == 400


def test_cli_overrides_config_file(tmp_path, scene_ply, capsys):
    out = tmp_path / "cloud.ply"
    config = tmp_path / "run.cfg"
    config.write_text("num-points = 400\nexact = true\nthreads = 1\nstats-json = true\n")
    code = main([str(scene_ply), str(out), "--config", str(config),
                 "--num-points", "250"])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["points"]["requested"] == 250


def test_config_file_unknown_key(tmp_path, scene_ply):
    config = tmp_path / "run.cfg"
    config.write_text("nonsense = 1\n")
    assert main([str(scene_ply), "out.ply", "--config", str(config)]) == 2


def test_background_flag_validation(tmp_path, scene_ply):
    with pytest.raises(SystemExit) as excinfo:
        main([str(scene_ply), "o.ply", "--background", "300,0,0"])
    assert excinfo.value.code == 2


def test_filter_flags_apply(tmp_path, rng, capsys):
    records = random_records(rng, 30, spread=3.0)
    path = tmp_path / "scene.ply"
    write_scene_ply(records, path)
    out = tmp_path / "cloud.ply"
    code = main([str(path), str(out), "--num-points", "300", "--threads", "1",
                 "--bbox=-1,-1,-1,1,1,1", "--stats-json"])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["gaussians"]["after_filters"] < 30


def test_inverted_bbox_fails_before_any_input_is_read(tmp_path, capsys):
    # the scene does not exist, so only a check made before loading can name the box
    code = main([str(tmp_path / "absent.ply"), str(tmp_path / "cloud.ply"),
                 "--bbox=1,1,1,-1,-1,-1"])
    assert code == 2
    assert "--bbox min corner must not exceed the max corner" in capsys.readouterr().err


# (arguments, error text), run in a directory holding scene.ply, a hard link
# and a symlink to it, a copy named x_surface.ply, transforms.json, the
# COLMAP model sparse/, the file notes.txt and the directories outdir and
# y_surface.ply
BAD_OUTPUTS = {
    "scene": (["scene.ply", "scene.ply"], "the output would replace the input scene.ply"),
    "scene-symlink": (["scene.ply", "link.ply"], "the output would replace the input"),
    "scene-hard-link": (["scene.ply", "hard.ply"], "the output would replace the input"),
    "cameras": (["scene.ply", "transforms.json", "--cameras", "transforms.json"],
                "the output would replace the input transforms.json"),
    "surface-is-scene": (["x_surface.ply", "x.ply", "--cameras", "transforms.json",
                          "--mesh-prep"],
                         "x_surface.ply: the output would replace the input x_surface.ply"),
    "no-directory": (["scene.ply", "nodir/out.ply"], "no such directory nodir"),
    "dot": (["scene.ply", "."], ".: the output is a directory"),
    "directory": (["scene.ply", "outdir"], "outdir: the output is a directory"),
    "surface-is-directory": (["scene.ply", "y.ply", "--cameras", "transforms.json",
                              "--mesh-prep"], "y_surface.ply: the output is a directory"),
    "colmap-model-file": (["scene.ply", "sparse/images.bin", "--cameras", "sparse"],
                          "the output would replace the input sparse/images.bin"),
    "save-renders-is-file": (["scene.ply", "out.ply", "--cameras", "transforms.json",
                              "--save-renders", "notes.txt"],
                             "notes.txt: --save-renders needs a directory; notes.txt is a file"),
    "save-renders-under-file": (["scene.ply", "out.ply", "--cameras", "transforms.json",
                                 "--save-renders", "notes.txt/views"],
                                "notes.txt/views: --save-renders needs a directory; "
                                "notes.txt is a file"),
}


@pytest.mark.parametrize("case", sorted(BAD_OUTPUTS))
def test_bad_output_fails_before_any_input_is_read(tmp_path, scene_ply, colmap_dir,
                                                   monkeypatch, capsys, case):
    argv, message = BAD_OUTPUTS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "transforms.json").write_text(json.dumps({
        "camera_angle_x": 0.9, "w": 32, "h": 32,
        "frames": [{"file_path": "a", "transform_matrix": np.eye(4).tolist()}]}))
    (tmp_path / "x_surface.ply").write_bytes(scene_ply.read_bytes())
    (tmp_path / "link.ply").symlink_to("scene.ply")
    os.link(scene_ply, tmp_path / "hard.ply")
    (tmp_path / "notes.txt").write_text("not a directory\n")
    (tmp_path / "outdir").mkdir()
    (tmp_path / "y_surface.ply").mkdir()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    loaded = []
    monkeypatch.setattr(pipeline, "_load_gaussians", loaded.append)
    monkeypatch.setattr(pipeline, "_load_cameras", loaded.append)

    assert main([*argv, "--num-points", "200", "--threads", "1"]) == 2
    assert message in capsys.readouterr().err
    assert loaded == []
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config-file"])
def test_negative_seed_is_usage_error(tmp_path, scene_ply, capsys, from_config):
    out = tmp_path / "cloud.ply"
    if from_config:
        config = tmp_path / "run.cfg"
        config.write_text("seed = -1\n")
        argv = [str(scene_ply), str(out), "--config", str(config)]
    else:
        argv = [str(scene_ply), str(out), "--seed", "-1"]
    assert main(argv) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: this one has imported scipy for the tests already
    script = ("import splatcloud.cli, sys; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# process exit


@pytest.mark.parametrize("code", [0, 1, 2])
def test_entry_freezes_only_after_main_returns(monkeypatch, code):
    # gc.freeze and signal.signal are replaced, so the test process never
    # freezes its own heap or changes its own handlers
    calls = []
    monkeypatch.setattr(signal, "signal", lambda signum, handler: calls.append(signum))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    assert cli.entry() == code
    assert calls == [signal.SIGTERM, "main", "freeze"]


def test_main_never_freezes(tmp_path, scene_ply, colmap_dir, monkeypatch):
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    handler = signal.getsignal(signal.SIGTERM)
    out = tmp_path / "cloud.ply"
    assert main([str(scene_ply), str(out), "--cameras", str(colmap_dir), "--mesh-prep",
                 "--num-points", "500", "--surface-points", "300", "--threads", "1"]) == 0
    assert main([str(scene_ply), str(out), "--num-points", "0"]) == 2
    assert frozen == []
    assert signal.getsignal(signal.SIGTERM) is handler


def run_module(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "splatcloud.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_module_run_exits_with_complete_output(tmp_path, scene_ply, colmap_dir):
    # --mesh-prep loads scipy, so the process exits with its largest heap frozen
    out = tmp_path / "cloud.ply"
    done = run_module(scene_ply, out, "--cameras", colmap_dir, "--mesh-prep",
                      "--num-points", "500", "--surface-points", "300", "--threads", "1",
                      "--stats-json")
    assert done.returncode == 0, done.stderr
    stats = json.loads(done.stdout)
    assert list(stats) == ["gaussians", "cameras", "render", "points", "surface", "output",
                           "surface_output", "timings_seconds"]
    assert stats["timings_seconds"]["total"] > 0
    assert len(read_cloud(out)) == stats["points"]["emitted"] > 0
    assert len(read_cloud(surface_output_path(out))) == stats["surface"]["after_cleanup"] > 0


def test_module_run_usage_error_exits_2(tmp_path, scene_ply):
    done = run_module(scene_ply, tmp_path / "cloud.ply", "--num-points", "0")
    assert done.returncode == 2
    assert "--num-points must be >= 1, got 0" in done.stderr
    assert not (tmp_path / "cloud.ply").exists()


def test_sigterm_mid_write_removes_the_temporary_file(tmp_path):
    # main is replaced by a write that terminates itself halfway through
    script = ("import os, signal, sys, time\n"
              "from splatcloud import cli\n"
              "from splatcloud.formats.atomic import atomic_write\n"
              "def main():\n"
              "    with atomic_write(sys.argv[1]) as fh:\n"
              "        fh.write(b'partial')\n"
              "        os.kill(os.getpid(), signal.SIGTERM)\n"
              "        time.sleep(60)\n"
              "cli.main = main\n"
              "sys.exit(cli.entry())\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "cloud.ply")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 128 + signal.SIGTERM, done.stderr
    assert list(tmp_path.iterdir()) == []


def test_sigterm_during_colour_pass_takes_its_workers_with_it(tmp_path):
    gen = perfbench_gen()
    rng = np.random.default_rng(7)
    gen.write_gaussians_ply(gen.sphere_scene(rng, 12_000), tmp_path / "scene.ply")
    gen.write_colmap_bin(tmp_path / "sparse", gen.orbit_views(rng, 8), 640, 480, 600.0)
    out = tmp_path / "out"
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # its own session, so the process group holds the run and its workers only
    proc = subprocess.Popen(
        [sys.executable, "-m", "splatcloud.cli", tmp_path / "scene.ply", out / "cloud.ply",
         "--cameras", tmp_path / "sparse", "--threads", "2", "--num-points", "1000"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        for line in proc.stderr:
            if "rendered view 1/8" in line:
                proc.send_signal(signal.SIGTERM)
                break
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 128 + signal.SIGTERM, err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        assert list(out.iterdir()) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
