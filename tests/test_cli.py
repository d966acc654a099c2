from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from resnap.cli import main
from resnap.reporting import load_records


def write_fixture_csv(path: Path, n_resources: int = 12, events_each: int = 6) -> None:
    rng = np.random.default_rng(99)
    lines = ["case,activity,resource,when"]
    stamp = 0
    for r in range(n_resources):
        # deterministic-ish cycles with a random phase keep targets learnable
        phase = int(rng.integers(0, 3))
        for j in range(events_each):
            activity = "ABC"[(phase + j // 2) % 3]
            lines.append(f"c{r},{activity},r{r:02d},2024-03-01 10:{stamp // 60:02d}:{stamp % 60:02d}")
            stamp += 1
    path.write_text("\n".join(lines) + "\n")


FAST_GRIDS = {
    "forest": {
        "n_estimators": [3],
        "max_depth": [3],
        "min_samples_split": [2],
        "min_samples_leaf": [1],
        "bootstrap": [True],
    }
}


def write_config(tmp_path: Path, data_path: Path, **overrides) -> Path:
    config = {
        "output_dir": str(tmp_path / "out"),
        "seed": 5,
        "datasets": [
            {
                "id": "fixture",
                "path": str(data_path),
                "format": "csv",
                "prefix_candidates": [3],
                "csv_mapping": {
                    "case": "case",
                    "activity": "activity",
                    "resource": "resource",
                    "timestamp": "when",
                    "timestamp_format": "%Y-%m-%d %H:%M:%S",
                },
            }
        ],
        "experiment": {
            "encodings": ["SeqOnly", "SCap", "S2g", "S2gR"],
            "models": ["majority", "forest"],
            "min_resources": 5,
            "cv_folds": 2,
            "grids": FAST_GRIDS,
            "workers": 1,
        },
    }
    for key, value in overrides.items():
        if key in ("encodings", "models", "min_resources", "cv_folds"):
            config["experiment"][key] = value
        elif key == "prefix_candidates":
            config["datasets"][0]["prefix_candidates"] = value
        else:
            config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


@pytest.fixture
def fixture_env(tmp_path):
    data = tmp_path / "fixture.csv"
    write_fixture_csv(data)
    return tmp_path, data


def test_profile_writes_files_and_exits_zero(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    assert main(["profile", "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert (out / "fixture_profile.json").exists()
    assert (out / "fixture_profile.csv").exists()
    payload = json.loads((out / "fixture_profile.json").read_text())
    assert payload["n_resources"] == 12


def test_profile_missing_file_exits_two(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    data.unlink()
    assert main(["profile", "--config", str(config)]) == 2
    assert "error" in capsys.readouterr().err


def test_profile_quiet_emits_machine_json(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    assert main(["profile", "--config", str(config), "--quiet"]) == 0
    stdout = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(stdout[-1])
    assert payload["dataset"] == "fixture"


def test_run_emits_product_of_records(fixture_env):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    assert main(["run", "--config", str(config), "--quiet"]) == 0
    records = load_records(tmp_path / "out" / "records.json")
    assert len(records) == 4 * 2  # 4 encodings x 2 models, single prefix length
    assert all(r.status == "ok" for r in records)


def test_run_repeated_seed_is_byte_identical(fixture_env):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(config), "--quiet", "--out", str(out_a), "--seed", "3"]) == 0
    assert main(["run", "--config", str(config), "--quiet", "--out", str(out_b), "--seed", "3"]) == 0
    for name in (
        "records.csv",
        "records.json",
        "accuracy_by_model.csv",
        "accuracy_by_model.json",
        "improvement_over_baseline.csv",
        "improvement_over_baseline.json",
    ):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_unknown_encoding_exits_two(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data, encodings=["SeqOnly", "Bogus"])
    assert main(["run", "--config", str(config)]) == 2
    assert "Bogus" in capsys.readouterr().err


def test_grid_prints_counts_and_admissible(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data, prefix_candidates=[3, 5])
    assert main(["grid", "--config", str(config), "--quiet"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["admissible"] == [3, 5]
    assert payload["counts"]["3"] == 12


def test_grid_all_inadmissible_warns_but_exits_zero(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data, min_resources=999)
    assert main(["grid", "--config", str(config), "--quiet"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out.strip().splitlines()[-1])["admissible"] == []
    assert "warning" in captured.err


def test_grid_non_ascending_exits_two(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data, prefix_candidates=[5, 3])
    assert main(["grid", "--config", str(config)]) == 2


def test_unknown_dataset_exits_two(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    assert main(["profile", "--config", str(config), "--dataset", "nope"]) == 2


def test_report_reaggregates_records(fixture_env):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    assert main(["run", "--config", str(config), "--quiet"]) == 0
    out = tmp_path / "out"
    (out / "accuracy_by_model.csv").unlink()
    assert main(["report", "--config", str(config), "--quiet"]) == 0
    assert (out / "accuracy_by_model.csv").exists()


def test_report_missing_records_exits_two(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    assert main(["report", "--config", str(config)]) == 2


def test_run_failed_cell_exits_one(fixture_env, capsys):
    tmp_path, data = fixture_env
    config_path = write_config(tmp_path, data)
    config = json.loads(config_path.read_text())
    config["experiment"]["cell_timeout"] = 1e-9  # spent before the first fit
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path), "--quiet"]) == 1
    records = load_records(tmp_path / "out" / "records.json")
    assert all(r.status == "failed" for r in records)


def test_run_unknown_grid_key_exits_two_before_parsing(fixture_env, capsys):
    tmp_path, data = fixture_env
    config_path = write_config(tmp_path, data)
    config = json.loads(config_path.read_text())
    config["experiment"]["grids"] = {"forest": {"n_trees": [5]}}
    config_path.write_text(json.dumps(config))
    data.unlink()  # a parse attempt would fail with "dataset file not found"
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "n_trees" in err and "not found" not in err


def test_dataset_without_id_exits_two(fixture_env, capsys):
    tmp_path, data = fixture_env
    config_path = write_config(tmp_path, data)
    config = json.loads(config_path.read_text())
    del config["datasets"][0]["id"]
    config_path.write_text(json.dumps(config))
    assert main(["profile", "--config", str(config_path)]) == 2
    assert "'id'" in capsys.readouterr().err


def test_report_records_file_without_records_key_exits_two(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"rows": []}))
    assert main(["report", "--config", str(config), "--records", str(bogus)]) == 2
    assert "records" in capsys.readouterr().err


def test_run_scalar_grid_value_exits_two_before_parsing(fixture_env, capsys):
    tmp_path, data = fixture_env
    config_path = write_config(tmp_path, data)
    config = json.loads(config_path.read_text())
    config["experiment"]["grids"]["forest"]["n_estimators"] = 5
    config_path.write_text(json.dumps(config))
    data.unlink()  # a parse attempt would fail with "dataset file not found"
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "n_estimators" in err and "not found" not in err


def test_csv_mapping_without_columns_exits_two(fixture_env, capsys):
    tmp_path, data = fixture_env
    config_path = write_config(tmp_path, data)
    config = json.loads(config_path.read_text())
    del config["datasets"][0]["csv_mapping"]["case"]
    del config["datasets"][0]["csv_mapping"]["timestamp"]
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "'case'" in err and "'timestamp'" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("cv_folds", "three"),
        ("mi_k", "many"),
        ("workers", "two"),
        ("min_resources", None),
        ("split_ratio", "most"),
        ("max_depth", ["deep"]),
    ],
)
def test_run_non_numeric_value_exits_two_before_parsing(fixture_env, capsys, key, value):
    tmp_path, data = fixture_env
    config_path = write_config(tmp_path, data)
    config = json.loads(config_path.read_text())
    if key == "max_depth":
        config["experiment"]["grids"]["forest"][key] = value
    else:
        config["experiment"][key] = value
    config_path.write_text(json.dumps(config))
    data.unlink()  # a parse attempt would fail with "dataset file not found"
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "not found" not in err


def _edited_config(tmp_path, data, edit) -> Path:
    """The fixture config after ``edit(config)``, with the log file removed,
    so a parse attempt would fail with "dataset file not found"."""
    config_path = write_config(tmp_path, data)
    config = json.loads(config_path.read_text())
    config = edit(config) or config
    config_path.write_text(json.dumps(config))
    data.unlink()
    return config_path


def _set(section, key, value):
    def edit(config):
        target = config if section is None else config[section]
        target[key] = value
    return edit


@pytest.mark.parametrize("value", ["soon", -1, 0, True])
def test_run_bad_cell_timeout_exits_two_before_parsing(fixture_env, capsys, value):
    tmp_path, data = fixture_env
    config_path = _edited_config(tmp_path, data, _set("experiment", "cell_timeout", value))
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "cell_timeout must be null or a positive number" in err and "not found" not in err


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda config: [config], "the config must be a JSON object"),
        (_set(None, "experiment", ["SeqOnly"]), "experiment must be a JSON object"),
        (
            _set("experiment", "grids", [FAST_GRIDS["forest"]]),
            "experiment.grids must be a JSON object",
        ),
        (_set("experiment", "grids", {"forest": [5]}), "forest grid must be an object"),
        (_set("experiment", "encodings", "SeqOnly"), "encodings must be a list of names"),
        (_set("experiment", "models", "forest"), "models must be a list of names"),
        (_set(None, "datasets", {"id": "fixture"}), "datasets must be a list of objects"),
    ],
    ids=["top-level", "experiment", "grids", "single-grid", "encodings", "models", "datasets"],
)
def test_run_config_of_wrong_shape_exits_two_before_parsing(fixture_env, capsys, edit, named):
    tmp_path, data = fixture_env
    config_path = _edited_config(tmp_path, data, edit)
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "not found" not in err


@pytest.mark.parametrize("value", [["three"], [3, 2.5], [0, 3], [True], 3])
def test_bad_prefix_candidates_exit_two_when_the_config_loads(fixture_env, capsys, value):
    tmp_path, data = fixture_env
    config_path = write_config(tmp_path, data, prefix_candidates=value)
    for command in ("run", "grid"):
        assert main([command, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "prefix_candidates must be a list of positive integers" in err
        assert "parsing" not in err


@pytest.mark.parametrize("via_flag", [False, True], ids=["config", "flag"])
def test_run_zero_workers_exits_two_before_parsing(fixture_env, capsys, via_flag):
    tmp_path, data = fixture_env
    workers = 1 if via_flag else 0
    config_path = _edited_config(tmp_path, data, _set("experiment", "workers", workers))
    argv = ["run", "--config", str(config_path)] + (["--workers", "0"] if via_flag else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "workers must be at least 1" in err and "not found" not in err
