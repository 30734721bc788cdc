"""Options: the flags, config-file keys and checks derived from the config fields."""

import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from splatcloud import cli
from splatcloud.config import PipelineConfig, option_flag, option_key
from splatcloud.errors import UsageError
from splatcloud.pipeline import PipelineStats
from splatcloud.renderer import RenderStats
from splatcloud.sampler import SampleStats

from conftest import SRC

# Every flag and its metavar as `--help` lists them ("" for a bare flag).
HELP_FLAGS = {
    "-h": "", "--cameras": "PATH", "--num-points": "N", "--sigma": "S", "--exact": "",
    "--max-resample-rounds": "N", "--seed": "SEED", "--render-scale": "F",
    "--skip-cameras": "K", "--background": "R,G,B",
    "--save-renders": "DIR", "--bbox": "X0,Y0,Z0,X1,Y1,Z1", "--max-scale": "S",
    "--min-opacity": "O", "--mesh-prep": "", "--surface-points": "N", "--sor-k": "K",
    "--sor-std": "R", "--threads": "N", "--config": "PATH", "--stats-json": "",
    "--verbose": "",
}

# A value other than the default for every option, as it is written on the command
# line (None: a bare flag, "true" in a config file).
OPTION_VALUES = {
    "cameras": "sparse/0", "num-points": "1234", "sigma": "2.5", "exact": None,
    "max-resample-rounds": "3", "seed": "9", "render-scale": "0.5", "skip-cameras": "2",
    "background": "10,20,30", "save-renders": "renders",
    "bbox": "-1,-2,-3,1,2,3", "max-scale": "0.3", "min-opacity": "0.1", "mesh-prep": None,
    "surface-points": "77", "sor-k": "7", "sor-std": "1.5", "threads": "3",
}

# Other flags an option is only valid with.
REQUIRED_WITH = {"mesh-prep": ["--cameras", "sparse/0"]}

CHECKED = [f for f in fields(PipelineConfig) if f.metadata.get("check")]


def flag_of(f):
    return option_flag(option_key(f))

# Out-of-range values and today's messages for them.
OUT_OF_RANGE = {
    "--num-points": ("0", "--num-points must be >= 1, got 0"),
    "--render-scale": ("1.5", "--render-scale must be in (0, 1], got 1.5"),
    "--sigma": ("0", "--sigma must be > 0, got 0.0"),
    "--max-resample-rounds": ("0", "--max-resample-rounds must be >= 1, got 0"),
    "--skip-cameras": ("-1", "--skip-cameras must be >= 0, got -1"),
    "--surface-points": ("0", "--surface-points must be >= 1, got 0"),
    "--sor-k": ("0", "--sor-k must be >= 1, got 0"),
    "--sor-std": ("-1", "--sor-std must be > 0, got -1.0"),
    "--threads": ("-1", "--threads must be >= 0, got -1"),
    "--seed": ("-1", "--seed must be >= 0, got -1"),
    "--background": ("256,0,0", "background channels must be within 0-255"),
    "--max-scale": ("0", "--max-scale must be > 0, got 0.0"),
    "--min-opacity": ("1.5", "--min-opacity must be within 0..1, got 1.5"),
    "--bbox": ("0,0,0,1,1,inf",
               "--bbox values must be finite and six in number, "
               "got (0.0, 0.0, 0.0, 1.0, 1.0, inf)"),
}

# NaN as written for the checked flags that take several numbers.
NAN_TEXT = {"--background": "nan,nan,nan", "--bbox": "nan,0,0,1,1,1"}


def exit_code(argv) -> int:
    """main()'s exit code, including argparse's own exit on a bad flag value."""
    try:
        return cli.main(argv)
    except SystemExit as exit_:
        return exit_.code


@pytest.fixture
def captured_config(monkeypatch):
    """Configs that main() would run, without running them."""
    seen = []

    def fake_run(config):
        seen.append(config)
        return PipelineStats()

    monkeypatch.setattr(cli, "run", fake_run)
    return seen


def test_help_lists_the_same_flags_and_metavars():
    usage = cli.build_parser().format_usage()
    listed = dict(re.findall(r"\[(-[\w-]+)(?: ([^\]\s]+))?\]", usage))
    assert listed == HELP_FLAGS
    assert usage.rstrip().endswith("[input] [output]")


def test_readme_options_block_lists_the_parser_flags():
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("Options (`splatcloud --help` prints the same list):")[1]
    block = block.split("```")[1]
    listed = re.findall(r"^(--[\w-]+)", block, re.MULTILINE)
    parser_flags = [s for action in cli.build_parser()._actions
                    for s in action.option_strings if s.startswith("--")]
    assert sorted(listed) == sorted(parser_flags)


def test_every_option_has_a_test_value():
    flags = {flag for flag in HELP_FLAGS if flag not in ("-h", "--config", "--stats-json",
                                                         "--verbose")}
    assert {f"--{name}" for name in OPTION_VALUES} == flags


@pytest.mark.parametrize("name", sorted(OPTION_VALUES))
def test_flag_and_config_file_build_equal_configs(tmp_path, captured_config, name):
    value = OPTION_VALUES[name]
    flag = f"--{name}" if value is None else f"--{name}={value}"
    args = ["scene.ply", "cloud.ply", *REQUIRED_WITH.get(name, [])]
    assert cli.main([*args, flag]) == 0
    for key in (name, name.replace("-", "_")):
        config_file = tmp_path / f"{key}.cfg"
        config_file.write_text(f"{key} = {'true' if value is None else value}\n")
        assert cli.main([*args, "--config", str(config_file)]) == 0

    by_flag, by_file, by_underscored_key = captured_config
    assert by_flag == by_file == by_underscored_key
    assert by_flag != PipelineConfig(input_gaussians=Path("scene.ply"),
                                     output=Path("cloud.ply"))


def test_positionals_as_config_file_keys(tmp_path, captured_config):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("input = scene.ply\noutput = cloud.ply\n")
    assert cli.main(["--config", str(config_file)]) == 0
    assert cli.main(["scene.ply", "cloud.ply"]) == 0
    by_file, by_args = captured_config
    assert by_file == by_args == PipelineConfig(input_gaussians=Path("scene.ply"),
                                                output=Path("cloud.ply"))


def test_bbox_splits_into_filter_corners(captured_config):
    assert cli.main(["scene.ply", "cloud.ply", "--bbox=-1,-2,-3,1,2,3"]) == 0
    (config,) = captured_config
    assert config.bbox == (-1.0, -2.0, -3.0, 1.0, 2.0, 3.0)


def test_checked_options_include_sigma_and_sor_std():
    assert {"sigma", "sor_std"} <= {f.name for f in CHECKED}
    assert {flag_of(f) for f in CHECKED} == set(OUT_OF_RANGE)


@pytest.mark.parametrize("flag", [flag_of(f) for f in CHECKED])
def test_nan_is_rejected_as_flag_and_config_line(tmp_path, capsys, captured_config, flag):
    nan = NAN_TEXT.get(flag, "nan")
    assert exit_code(["scene.ply", "cloud.ply", flag, nan]) == 2
    assert flag in capsys.readouterr().err

    config_file = tmp_path / "run.cfg"
    config_file.write_text(f"{flag[2:]} = {nan}\n")
    assert exit_code(["scene.ply", "cloud.ply", "--config", str(config_file)]) == 2
    assert flag in capsys.readouterr().err
    assert captured_config == []


@pytest.mark.parametrize("flag", sorted(OUT_OF_RANGE))
def test_out_of_range_value_keeps_its_message(capsys, captured_config, flag):
    value, message = OUT_OF_RANGE[flag]
    assert exit_code(["scene.ply", "cloud.ply", f"{flag}={value}"]) == 2
    assert message in capsys.readouterr().err
    assert captured_config == []


@pytest.mark.parametrize("override, message", [
    ({"sigma": math.nan}, "--sigma must be > 0, got nan"),
    ({"sor_std": math.nan}, "--sor-std must be > 0, got nan"),
    ({"num_points": math.nan}, "--num-points must be >= 1, got nan"),
    ({"background": (0.0, 2.0, 0.0)}, "--background channels must be within 0..1"),
    ({"background": (math.nan, 0.0, 0.0)}, "--background channels must be within 0..1"),
    ({"max_scale": math.nan}, "--max-scale must be > 0, got nan"),
    ({"min_opacity": math.nan}, "--min-opacity must be within 0..1"),
    ({"mesh_prep": True}, "--mesh-prep requires camera poses"),
    ({"bbox": (math.nan, 0.0, 0.0, 1.0, 1.0, 1.0)}, "--bbox values must be finite"),
    ({"bbox": (0.0, 0.0, 0.0, 1.0, math.inf, 1.0)}, "--bbox values must be finite"),
    ({"bbox": (0.0, 0.0, 0.0)}, "--bbox values must be finite and six in number"),
    ({"bbox": 1.0}, "--bbox values must be finite and six in number"),
    ({"bbox": (1.0, 1.0, 1.0, -1.0, -1.0, -1.0)}, "--bbox min corner must not exceed"),
    ({"bbox": (0.0, 2.0, 0.0, 1.0, 1.0, 1.0)}, "--bbox min corner must not exceed"),
])
def test_python_api_validation(override, message):
    config = PipelineConfig(input_gaussians="scene.ply", output="cloud.ply", **override)
    with pytest.raises(UsageError) as caught:
        config.validate()
    assert message in str(caught.value)


def test_sigma_inf_still_disables_the_guard():
    PipelineConfig(input_gaussians="scene.ply", output="cloud.ply", sigma=math.inf).validate()


def test_stats_report_schema():
    render = RenderStats(images_rendered=2, tiles=3, tiles_subdivided=1, max_tile_product=40,
                         singular_skips=0, pairs_evaluated=100, pixels_terminated=7)
    stats = PipelineStats(
        gaussians_loaded=10, gaussians_invalid=4, gaussians_after_activate=10,
        gaussians_after_filters=9, gaussians_after_cull=8, cameras=2,
        render=render, points=SampleStats(100, 99, 98, 5),
        surface_points=SampleStats(50, 49, 48, 3), surface_points_after_cleanup=40,
        output="cloud.ply", surface_output="cloud_surface.ply", timings_seconds={"total": 1.0})
    report = stats.as_dict()
    assert list(report) == ["gaussians", "cameras", "render", "points", "surface", "output",
                            "surface_output", "timings_seconds", "dropped"]
    # items, not dicts, so the key order of the JSON body is pinned too
    assert list(report["gaussians"].items()) == [
        ("loaded", 10), ("after_filters", 9), ("after_cull", 8)]
    assert list(report["render"].items()) == [
        ("images", 2), ("tiles", 3), ("tiles_subdivided", 1), ("max_tile_product", 40),
        ("singular_skips", 0), ("pairs_evaluated", 100), ("pixels_terminated", 7)]
    assert list(report["points"].items()) == [
        ("requested", 100), ("allocated", 99), ("emitted", 98), ("rejected_draws", 5)]
    assert list(report["surface"].items()) == [
        ("requested", 50), ("allocated", 49), ("emitted", 48), ("rejected_draws", 3),
        ("after_cleanup", 40)]
    assert report["output"] == "cloud.ply"
    assert report["surface_output"] == "cloud_surface.ply"
    assert report["timings_seconds"] == {"total": 1.0}
    assert list(report["dropped"].items()) == [
        ("invalid_at_load", 4), ("degenerate_at_activate", 0), ("filtered", 1), ("culled", 1),
        ("rejected_draws", 5), ("surface_rejected_draws", 3), ("outliers_removed", 8)]


def test_stats_report_without_stages():
    report = PipelineStats().as_dict()
    assert report["render"] is None and report["points"] is None
    assert report["surface"] is None and report["surface_output"] is None
    assert report["dropped"]["rejected_draws"] is None
    assert report["dropped"]["surface_rejected_draws"] is None
    assert report["dropped"]["outliers_removed"] is None
