from __future__ import annotations

import csv
import gzip
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resnap import experiment
from resnap.cli import _load_config, build_parser, main
from resnap.reporting import load_records

ROOT = Path(__file__).resolve().parent.parent
# every file run and report write
EXPORTS = (
    "records.csv",
    "records.json",
    "accuracy_by_model.csv",
    "accuracy_by_model.json",
    "improvement_over_baseline.csv",
    "improvement_over_baseline.json",
)


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


@pytest.mark.parametrize("stamp", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"])
def test_profile_timestamp_outside_datetime_range_exits_two(fixture_env, capsys, stamp):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    payload = json.loads(config.read_text())
    del payload["datasets"][0]["csv_mapping"]["timestamp_format"]  # ISO-8601
    config.write_text(json.dumps(payload))
    data.write_text(f"case,activity,resource,when\nc1,A,r1,{stamp}\n")
    assert main(["profile", "--config", str(config)]) == 2
    assert "years 1 to 9999" in capsys.readouterr().err


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
    for name in EXPORTS:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_length_with_fewer_training_samples_than_folds_exits_two_before_any_cell(
    tmp_path, capsys, monkeypatch
):
    # resources r0 and r1 alone reach L = 9, and their two samples split into 1 train + 1 test
    data = tmp_path / "short.csv"
    lines = ["case,activity,resource,when"]
    for r, n_events in enumerate((10, 10, 4, 4, 4, 4)):
        lines += [f"c{r},{'ABC'[j % 3]},r{r},2024-03-01 10:{r:02d}:{j:02d}" for j in range(n_events)]
    data.write_text("\n".join(lines) + "\n")
    config = write_config(tmp_path, data, prefix_candidates=[3, 9], min_resources=1, cv_folds=3)
    calls = []
    search = experiment.grid_search_cv
    monkeypatch.setattr(experiment, "grid_search_cv", lambda *a, **k: calls.append(a) or search(*a, **k))
    assert main(["run", "--config", str(config), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "prefix length 9: 1 training sample(s) cannot make 3 folds" in err, err
    assert calls == []


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_reproduces_the_run_exports_byte_for_byte(fixture_env, fmt):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    assert main(["run", "--config", str(config), "--quiet"]) == 0
    run_out, report_out = tmp_path / "out", tmp_path / f"report-{fmt}"
    records = run_out / f"records.{fmt}"
    argv = ["report", "--config", str(config), "--quiet", "--records", str(records)]
    assert main([*argv, "--out", str(report_out)]) == 0
    for name in EXPORTS:
        assert (report_out / name).read_bytes() == (run_out / name).read_bytes(), name


# a locale whose text encoding is ASCII, with Python's UTF-8 mode and locale coercion off
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_run_and_report_read_and_write_utf8_under_an_ascii_locale(tmp_path):
    config = json.loads((ROOT / "configs" / "example.json").read_text(encoding="utf-8"))
    entry = {**config["datasets"][0], "id": "démo", "path": str(ROOT / "data" / "demo.csv")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**config, "datasets": [entry]}, ensure_ascii=False),
                           encoding="utf-8")
    env = {**os.environ, **ASCII_LOCALE, "PYTHONPATH": str(ROOT / "src")}
    ascii_out, default_out = tmp_path / "ascii", tmp_path / "default"
    for out in (ascii_out, default_out):
        # report reads the CSV records, which hold the id unescaped
        for argv in (["run"], ["report", "--records", str(out / "records.csv")]):
            argv += ["--config", str(config_path), "--quiet", "--out", str(out)]
            if out is default_out:
                assert main(argv) == 0
                continue
            done = subprocess.run([sys.executable, "-m", "resnap.cli", *argv], env=env,
                                  capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
    assert "démo" in (default_out / "records.csv").read_text(encoding="utf-8")
    for name in EXPORTS:
        assert (ascii_out / name).read_bytes() == (default_out / name).read_bytes(), name


def test_report_missing_records_exits_two(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    assert main(["report", "--config", str(config)]) == 2


def test_report_unknown_dataset_exits_two_like_the_other_commands(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    records = tmp_path / "records.json"
    records.write_text(json.dumps({"records": [GOOD_RECORD]}))
    out = tmp_path / "report"
    argv = ["report", "--config", str(config), "--records", str(records), "--out", str(out)]
    assert main([*argv, "--dataset", "nope"]) == 2
    assert "dataset 'nope' is not declared in the config" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--dataset", "fixture"]) == 0


GOOD_RECORD = {
    "dataset": "fixture", "model": "forest", "encoding": "SeqOnly", "prefix_length": 3,
    "accuracy": 0.5, "n_train": 8, "n_test": 2, "leakage_fraction": 0.0, "best_params": {},
    "status": "ok",
}
CSV_HEADER = ",".join(GOOD_RECORD)
CSV_GOOD = "fixture,forest,SeqOnly,3,0.5,8,2,0.0,{},ok"


def _json_records(**change) -> str:
    bad = {k: v for k, v in {**GOOD_RECORD, **change}.items() if v is not None}
    return json.dumps({"records": [GOOD_RECORD, bad]})


def _csv_records(**change) -> str:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(GOOD_RECORD)
    for row in (GOOD_RECORD, {**GOOD_RECORD, **change}):
        writer.writerow(json.dumps(v) if isinstance(v, dict) else v for v in row.values())
    return text.getvalue()


# (case, model, best_params, what the error says about them)
BAD_PARAMS = [
    ("nan-learning-rate", "boosted", {"learning_rate": float("nan")},
     "boosted grid: learning_rate must be a finite number >= 0, got nan"),
    ("unknown-key", "forest", {"depth": 3}, "unknown forest grid parameter(s) 'depth'"),
    ("majority-key", "majority", {"n_estimators": 50},
     "unknown majority grid parameter(s) 'n_estimators'; accepted: none"),
]


@pytest.mark.parametrize(
    "name, content, named",
    [
        ("no-column.csv",
         CSV_HEADER.replace("n_test,", "") + "\n" + CSV_GOOD.replace(",2,", ",") + "\n",
         "record 1: missing key(s) ['n_test']"),
        ("bad-length.csv", f"{CSV_HEADER}\n{CSV_GOOD}\n{CSV_GOOD.replace(',3,', ',abc,')}\n",
         "record 2: prefix_length has the wrong type: 'abc'"),
        ("no-key.json", _json_records(n_train=None), "record 2: missing key(s) ['n_train']"),
        ("extra-key.json", _json_records(wall_time=1.5), "unknown key(s) ['wall_time']"),
        ("string-accuracy.json", _json_records(accuracy="0.5"),
         "record 2: accuracy has the wrong type: '0.5'"),
        ("latin-1.csv",
         f"{CSV_HEADER}\n{CSV_GOOD}\n".replace("fixture", "caf\xe9").encode("latin-1"),
         "not UTF-8 text"),
        ("latin-1.json",
         _json_records(dataset="caf\xe9").encode("latin-1").replace(b"\\u00e9", b"\xe9"),
         "is not a records file"),
        ("records.txt", f"{CSV_HEADER}\n{CSV_GOOD}\n", ": unsupported records format '.txt'"),
        ("deep.json", '{"records": ' + "[" * 3000 + "]" * 3000 + "}", "is not a records file"),
        ("deep-params.csv", _csv_records(best_params="[" * 3000 + "]" * 3000),
         "record 2: best_params has the wrong type"),
        ("long-field.csv", _csv_records(dataset="x" * (csv.field_size_limit() + 1)),
         "line 3: field larger than field limit"),
        *[
            (f"{case}.{fmt}", write(model=model, best_params=params),
             f"record 2: best_params: {named}")
            for fmt, write in (("csv", _csv_records), ("json", _json_records))
            for case, model, params, named in BAD_PARAMS
        ],
    ],
    ids=["no-column", "bad-length", "no-key", "extra-key", "string-accuracy", "latin-1-csv",
         "latin-1-json", "text-suffix", "deep-json", "deep-params-csv", "long-field-csv",
         *[f"{case}-{fmt}" for fmt in ("csv", "json") for case, *_ in BAD_PARAMS]],
)
def test_report_malformed_records_file_exits_two(fixture_env, capsys, name, content, named):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    records = tmp_path / name
    if isinstance(content, bytes):
        records.write_bytes(content)
    else:
        records.write_text(content)
    assert main(["report", "--config", str(config), "--records", str(records)]) == 2
    err = capsys.readouterr().err
    assert str(records) in err and named in err, err


def test_profile_dataset_path_naming_a_directory_exits_two(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    payload = json.loads(config.read_text())
    payload["datasets"][0]["path"] = str(tmp_path)
    config.write_text(json.dumps(payload))
    assert main(["profile", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"dataset file not found: {tmp_path}" in err and "Traceback" not in err


def test_config_or_records_path_naming_a_directory_exits_two(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    assert main(["report", "--config", str(tmp_path)]) == 2
    assert f"config file not found: {tmp_path}" in capsys.readouterr().err
    assert main(["report", "--config", str(config), "--records", str(tmp_path)]) == 2
    assert f"records file not found: {tmp_path}" in capsys.readouterr().err


def test_config_or_records_path_too_long_to_look_up_exits_two(fixture_env, capsys):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    long = tmp_path / ("x" * 300)
    assert main(["report", "--config", str(long)]) == 2
    err = capsys.readouterr().err
    assert f"config file {str(long)!r} cannot be looked up" in err and "Traceback" not in err
    assert main(["report", "--config", str(config), "--records", str(long)]) == 2
    err = capsys.readouterr().err
    assert f"records file {str(long)!r} cannot be looked up" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["profile", "run", "report"])
@pytest.mark.parametrize("via_flag", [False, True], ids=["config", "flag"])
@pytest.mark.parametrize("nested", [False, True], ids=["file", "below-a-file"])
def test_output_directory_naming_a_file_exits_two_before_parsing(
    fixture_env, capsys, command, via_flag, nested
):
    tmp_path, data = fixture_env
    taken = tmp_path / "taken.txt"
    taken.write_text("not a directory\n")
    out = taken / "sub" if nested else taken
    config_path = write_config(tmp_path, data, **({} if via_flag else {"output_dir": str(out)}))
    data.unlink()  # a parse attempt would fail with "dataset file not found"
    argv = [command, "--config", str(config_path)] + (["--out", str(out)] if via_flag else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{taken} is not a directory" in err and "not found" not in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["profile", "run", "report"])
@pytest.mark.parametrize("how", ["nul-config", "long-config", "long-flag"])
def test_output_directory_the_os_cannot_name_exits_two_before_parsing(
    fixture_env, capsys, command, how
):
    tmp_path, data = fixture_env
    out = "a\x00b" if how == "nul-config" else str(tmp_path / ("x" * 300) / "sub")
    via_flag = how == "long-flag"
    config_path = write_config(tmp_path, data, **({} if via_flag else {"output_dir": out}))
    data.unlink()  # a parse attempt would fail with "dataset file not found"
    argv = [command, "--config", str(config_path)] + (["--out", out] if via_flag else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"output directory {out!r} cannot be looked up" in err and "not found" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_profile_of_an_id_too_long_for_a_file_name_exits_two_naming_the_file(
    fixture_env, capsys
):
    tmp_path, data = fixture_env
    config_path = write_config(tmp_path, data)
    config = json.loads(config_path.read_text())
    config["datasets"][0]["id"] = "x" * 300
    config_path.write_text(json.dumps(config))
    assert main(["profile", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    name = tmp_path / "out" / f"{'x' * 300}_profile.json"
    assert f"profile file {name} cannot be written" in err and "Traceback" not in err


def test_grid_for_an_experiment_model_the_config_does_not_select_is_accepted(fixture_env, capsys):
    tmp_path, data = fixture_env
    config_path = write_config(tmp_path, data)
    config = json.loads(config_path.read_text())
    config["experiment"]["grids"]["boosted"] = {"n_estimators": [2]}  # models: majority, forest
    config_path.write_text(json.dumps(config))
    assert main(["grid", "--config", str(config_path), "--quiet"]) == 0


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
        ("max_depth", [True]),
        ("max_depth", [False]),
        ("max_depth", [2.7]),
        ("max_depth", [-5]),
        ("max_depth", ["3"]),
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
    """The fixture config after ``edit(config)`` (text it returns is written
    as it is), with the log file removed, so a parse attempt would fail
    with "dataset file not found"."""
    config_path = write_config(tmp_path, data)
    config = json.loads(config_path.read_text())
    config = edit(config) or config
    config_path.write_text(config if isinstance(config, str) else json.dumps(config))
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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("cv_folds", 1, "cv_folds must be at least 2, got 1"),
        ("cv_folds", -3, "cv_folds must be at least 2, got -3"),
        ("mi_k", -1, "mi_k must be non-negative, got -1"),
    ],
)
def test_run_bad_cv_folds_or_mi_k_exits_two_before_parsing(fixture_env, capsys, key, value, message):
    tmp_path, data = fixture_env
    config_path = write_config(tmp_path, data)
    config = json.loads(config_path.read_text())
    config["experiment"][key] = value
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "parsing" not in err


DATASET = ("datasets", 0)
MAPPING = ("datasets", 0, "csv_mapping")
EXPERIMENT = ("experiment",)


def _put(path, key, value):
    def edit(config):
        target = config
        for step in path:
            target = target[step]
        target[key] = value
    return edit


def _repeat_dataset(config):
    config["datasets"].append(dict(config["datasets"][0]))


def _deep_grid(config):
    """The config's text with a forest max_depth list nested 3,000 deep."""
    config["experiment"]["grids"] = {"forest": {"max_depth": "DEEP"}}
    return json.dumps(config).replace('"DEEP"', "[" * 3000 + "]" * 3000)


@pytest.mark.parametrize(
    "edit, named",
    [
        (_put((), "output_dir", 5), "output_dir must be a string"),
        (_put(DATASET, "path", 5), "path must be a string"),
        (_put(DATASET, "id", ["x"]), "id must be a string"),
        (_put(DATASET, "id", "team/a"), "dataset entry 0: id 'team/a' must not hold '/' or NUL"),
        (_put(DATASET, "id", "a\0b"), "dataset entry 0: id 'a\\x00b' must not hold '/' or NUL"),
        (_put(MAPPING, "delimiter", ";;"), "delimiter must be one character"),
        (_put(MAPPING, "timestamp_format", 5), "timestamp_format must be a string"),
        (_put(MAPPING, "case", 3), "case must be a string"),
        (_put(DATASET, "prefix_candidates", [5, 3]), "prefix_candidates must be"),
        (_put(DATASET, "prefix_candidates", []), "prefix_candidates must be"),
        (_put((), "ouput_dir", "out"), "unknown key(s) 'ouput_dir'"),
        (_put(DATASET, "prefix_candidate", [3]), "unknown key(s) 'prefix_candidate'"),
        (_put(MAPPING, "delimeter", ";"), "unknown key(s) 'delimeter'"),
        (_put(EXPERIMENT, "mi_K", 5), "unknown key(s) 'mi_K'"),
        (_put(EXPERIMENT, "mi_k", True), "mi_k must be an integer"),
        (_put(EXPERIMENT, "workers", 1.7), "workers must be an integer"),
        (_put((), "seed", "3"), "seed must be an integer"),
        (_put(EXPERIMENT, "cv_folds", 2.9), "cv_folds must be an integer"),
        (_put(EXPERIMENT, "split_ratio", "0.5"), "split_ratio must be a number"),
        (_put(EXPERIMENT, "min_resources", False), "min_resources must be an integer"),
        (_put(EXPERIMENT, "min_resources", -5), "min_resources must be at least 1"),
        (_repeat_dataset, "id 'fixture' is already declared"),
        (_put(DATASET, "format", "parquet"), "format must be 'xes' or 'csv', got 'parquet'"),
        (lambda config: json.dumps(config)[:-1], "config file is not valid JSON"),
        (_deep_grid, "config file is not valid JSON"),
        (_put(EXPERIMENT, "encodings", ["SeqOnly", "SeqOnly"]), "encodings must not repeat"),
        (_put(EXPERIMENT, "grids", {"tree": {"max_depth": [3]}}), "unknown model kind 'tree'"),
        *(
            (_put(EXPERIMENT, "grids", {"forest": {"max_features": [value]}}), named)
            for value, named in [
                ("log2", "'log2'"), (-1, "got -1"), (1.5, "got 1.5"), (True, "got True"),
                (0, "got 0"),
            ]
        ),
        *(
            (_put(EXPERIMENT, "grids", {"boosted": {key: [value]}}), f"{key} must be")
            for key, value in [("subsample", 1.5), ("subsample", 0), ("colsample", -1),
                               ("colsample", "most")]
        ),
        *(
            (_put(EXPERIMENT, "grids", {kind: {key: [value]}}), f"{key} must be")
            for kind, key, value in [
                ("boosted", "learning_rate", "fast"), ("boosted", "learning_rate", -0.1),
                ("boosted", "learning_rate", True), ("forest", "bootstrap", "no"),
                ("forest", "bootstrap", 1), ("forest", "min_samples_leaf", 0),
                ("forest", "min_samples_leaf", 1.5), ("forest", "min_samples_split", -3),
                ("forest", "min_samples_split", 1),
            ]
        ),
    ],
    ids=[
        "output_dir-number", "path-number", "id-list", "id-slash", "id-nul", "delimiter-two-chars",
        "timestamp_format-number", "case-number", "candidates-descending", "candidates-empty",
        "ouput_dir", "prefix_candidate", "delimeter", "mi_K", "mi_k-true", "workers-fraction",
        "seed-string", "cv_folds-fraction", "split_ratio-string", "min_resources-false",
        "min_resources-negative", "repeated-dataset-id", "format-parquet", "not-json", "deep-json",
        "repeated-encoding", "tree-grid",
        "max_features-log2", "max_features-negative", "max_features-fraction",
        "max_features-true", "max_features-zero", "subsample-above-one", "subsample-zero",
        "colsample-negative", "colsample-string", "learning_rate-string",
        "learning_rate-negative", "learning_rate-true", "bootstrap-string", "bootstrap-one",
        "min_samples_leaf-zero", "min_samples_leaf-fraction", "min_samples_split-negative",
        "min_samples_split-one",
    ],
)
def test_every_command_rejects_a_config_off_the_schema_before_parsing(
    fixture_env, capsys, edit, named
):
    tmp_path, data = fixture_env
    config_path = _edited_config(tmp_path, data, edit)
    for command in ("profile", "grid", "run", "report"):
        assert main([command, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert named in err, (command, err)
        assert "parsing" not in err and "not found" not in err


def _second_dataset(config):
    config["datasets"].append({**config["datasets"][0], "id": "other"})


@pytest.mark.parametrize("command", ["profile", "grid", "run"])
def test_no_dataset_flag_with_several_datasets_exits_two_before_parsing(
    fixture_env, capsys, command
):
    tmp_path, data = fixture_env
    config_path = _edited_config(tmp_path, data, _second_dataset)
    assert main([command, "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "--dataset is required when the config lists several datasets" in err
    assert "parsing" not in err and "not found" not in err


def _readme_config() -> dict:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return json.loads(re.search(r"### Config schema\s+```json\n(.*?)```", readme, re.S)[1])


def _shipped_configs():
    yield "example", json.loads((ROOT / "configs" / "example.json").read_text())
    yield "readme", _readme_config()
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        yield name, workload.config(Path("log.csv"), Path("log.xes.gz"), seed=1)


SHIPPED = dict(_shipped_configs())


@pytest.mark.parametrize("name", SHIPPED)
def test_every_shipped_or_documented_config_passes_the_schema(tmp_path, name):
    config = SHIPPED[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    loaded = _load_config(build_parser().parse_args(["run", "--config", str(path)]))
    assert sorted(loaded.datasets) == sorted(d["id"] for d in config["datasets"])


def _gzip_head(data: Path) -> None:
    data.write_bytes(gzip.compress(data.read_bytes())[:200])


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: data.write_bytes(data.read_bytes().replace(b"c0,", b"c0\xff,", 1)),
         "row 1 is not UTF-8 text"),
        (_gzip_head, "truncated or corrupt gzip data"),
        (lambda data: data.write_text(data.read_text().replace(",A,", f",{'A' * 140_000},", 1)),
         "(field larger than field limit"),
    ],
    ids=["not UTF-8", "truncated gzip", "field over the limit"],
)
def test_profile_unreadable_csv_exits_two_naming_the_file(fixture_env, capsys, edit, message):
    tmp_path, data = fixture_env
    config = write_config(tmp_path, data)
    edit(data)
    assert main(["profile", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"error: {data}: " in err and message in err
