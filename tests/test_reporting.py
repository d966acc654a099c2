from __future__ import annotations

import dataclasses
import json
import re

import pytest

from resnap import ResultRecord, ValidationError, aggregate
from resnap.reporting import export_records, export_results, load_records


def record(**overrides):
    defaults = dict(
        dataset="d1",
        model="forest",
        encoding="SeqOnly",
        prefix_length=5,
        accuracy=0.5,
        n_train=80,
        n_test=20,
        leakage_fraction=0.1,
        best_params={"n_estimators": 50, "max_depth": None},
        wall_time=1.23,
        status="ok",
    )
    defaults.update(overrides)
    return ResultRecord(**defaults)


def strip_time(records):
    return [dataclasses.replace(r, wall_time=0.0) for r in records]


# --- aggregation -------------------------------------------------------------


def test_aggregate_mean_and_population_std():
    records = [
        record(prefix_length=5, accuracy=0.5),
        record(prefix_length=10, accuracy=0.7),
    ]
    table = aggregate(records)
    cell = table.accuracy[0]
    assert (cell.model, cell.encoding) == ("forest", "SeqOnly")
    assert cell.mean == pytest.approx(0.6)
    assert cell.std == pytest.approx(0.1)
    assert cell.n == 2


def test_aggregate_single_record_std_zero():
    table = aggregate([record()])
    assert table.accuracy[0].std == 0.0


def test_aggregate_baseline_improvement_is_zero():
    records = [
        record(encoding="SeqOnly", accuracy=0.5),
        record(encoding="S2gR", accuracy=0.8),
        record(encoding="SeqOnly", accuracy=0.6, prefix_length=10),
        record(encoding="S2gR", accuracy=0.7, prefix_length=10),
    ]
    table = aggregate(records)
    rows = {(c.model, c.encoding): c for c in table.improvement}
    assert rows[("forest", "SeqOnly")].mean == 0.0
    assert rows[("forest", "SeqOnly")].std == 0.0
    assert rows[("forest", "S2gR")].mean == pytest.approx((0.3 + 0.1) / 2)


def test_aggregate_skips_failed_cells():
    records = [record(), record(prefix_length=10, accuracy=None, status="failed")]
    table = aggregate(records)
    assert table.accuracy[0].n == 1


def test_aggregate_pairs_within_dataset():
    records = [
        record(dataset="d1", encoding="SeqOnly", accuracy=0.5),
        record(dataset="d1", encoding="S2g", accuracy=0.9),
        record(dataset="d2", encoding="SeqOnly", accuracy=0.2),
        record(dataset="d2", encoding="S2g", accuracy=0.4),
    ]
    table = aggregate(records)
    rows = {(c.model, c.encoding): c for c in table.improvement}
    assert rows[("forest", "S2g")].mean == pytest.approx((0.4 + 0.2) / 2)


# --- export / import --------------------------------------------------------------


SAMPLE = [
    record(),
    record(encoding="S2g", accuracy=0.625, best_params={"max_depth": 10}),
    record(model="majority", encoding="S2g", accuracy=None, status="failed", best_params={}),
]


def test_records_round_trip_csv(tmp_path):
    path = export_records(SAMPLE, tmp_path / "records.csv")
    assert strip_time(load_records(path)) == strip_time(SAMPLE)


def test_records_round_trip_json(tmp_path):
    path = export_records(SAMPLE, tmp_path / "records.json")
    assert strip_time(load_records(path)) == strip_time(SAMPLE)


def test_records_csv_and_json_agree(tmp_path):
    csv_records = load_records(export_records(SAMPLE, tmp_path / "records.csv"))
    json_records = load_records(export_records(SAMPLE, tmp_path / "records.json"))
    assert csv_records == json_records


def test_empty_records_export_is_header_only(tmp_path):
    path = export_records([], tmp_path / "records.csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("dataset,")
    assert load_records(path) == []


def test_export_results_writes_all_files(tmp_path):
    table = aggregate(SAMPLE)
    written = export_results(SAMPLE, table, tmp_path)
    names = sorted(p.name for p in written)
    assert names == [
        "accuracy_by_model.csv",
        "accuracy_by_model.json",
        "improvement_over_baseline.csv",
        "improvement_over_baseline.json",
        "records.csv",
        "records.json",
    ]


def test_wide_table_layout(tmp_path):
    table = aggregate(
        [
            record(encoding="SeqOnly", accuracy=0.5),
            record(encoding="S2g", accuracy=0.75),
        ]
    )
    written = export_results([], table, tmp_path)
    acc_file = next(p for p in written if p.name == "accuracy_by_model.csv")
    lines = acc_file.read_text().strip().splitlines()
    assert lines[0] == "model,SeqOnly_mean,SeqOnly_std,S2g_mean,S2g_std"
    assert lines[1] == "forest,0.5,0.0,0.75,0.0"


def test_export_does_not_leak_wall_time(tmp_path):
    path = export_records(SAMPLE, tmp_path / "records.json")
    assert "wall_time" not in path.read_text()


def test_export_is_byte_stable(tmp_path):
    first = export_records(SAMPLE, tmp_path / "a.json").read_bytes()
    second = export_records(SAMPLE, tmp_path / "b.json").read_bytes()
    assert first == second


def test_best_params_survive_round_trip(tmp_path):
    path = export_records(SAMPLE, tmp_path / "records.csv")
    loaded = load_records(path)
    assert loaded[0].best_params == {"n_estimators": 50, "max_depth": None}
    assert loaded[1].best_params == {"max_depth": 10}


def test_csv_row_with_more_fields_than_the_header_says_so(tmp_path):
    path = export_records(SAMPLE, tmp_path / "records.csv")
    lines = path.read_text().splitlines()
    lines[2] += ",extra,more"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}: record 2: 2 more field"):
        load_records(path)


@pytest.mark.parametrize(
    "key, value, accepted",
    [
        ("encoding", "S2G", "SeqOnly, SCap, S2g, S2gR"),
        ("model", "tree", "majority, forest, boosted"),
        ("status", "timeout", "ok, failed"),
    ],
)
def test_record_with_an_unknown_name_says_so(tmp_path, key, value, accepted):
    records = [record(), record(**{key: value})]
    for fmt in ("csv", "json"):
        path = export_records(records, tmp_path / f"records.{fmt}")
        message = f"{path}: record 2: unknown {key} '{value}'; accepted: {accepted}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_records(path)


@pytest.mark.parametrize(
    "status, accuracy, message",
    [
        ("ok", None, "accuracy must be a number when the status is 'ok', got None"),
        ("failed", 0.5, "accuracy must be empty when the status is 'failed', got 0.5"),
    ],
    ids=["ok-without-accuracy", "failed-with-accuracy"],
)
def test_record_whose_status_and_accuracy_disagree_says_so(tmp_path, status, accuracy, message):
    records = [record(), record(status=status, accuracy=accuracy)]
    for fmt in ("csv", "json"):
        path = export_records(records, tmp_path / f"records.{fmt}")
        expected = f"{path}: record 2: {message}"
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
            load_records(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("accuracy", float("nan"), "accuracy must be in [0, 1], got nan"),
        ("accuracy", 1.5, "accuracy must be in [0, 1], got 1.5"),
        ("leakage_fraction", -0.25, "leakage_fraction must be in [0, 1], got -0.25"),
        ("prefix_length", 0, "prefix_length must be at least 1, got 0"),
        ("n_train", -4, "n_train must be at least 1, got -4"),
        ("n_test", 0, "n_test must be at least 1, got 0"),
    ],
    ids=["accuracy-nan", "accuracy-above-one", "leakage_fraction", "prefix_length", "n_train",
         "n_test"],
)
def test_record_with_a_number_out_of_range_says_so(tmp_path, key, value, message):
    records = [record(), record(**{key: value})]
    for fmt in ("csv", "json"):
        path = export_records(records, tmp_path / f"records.{fmt}")
        expected = f"{path}: record 2: {message}"
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
            load_records(path)


def test_aggregate_without_a_baseline_has_no_improvement_rows():
    table = aggregate([record(encoding="S2g"), record(encoding="SCap", accuracy=0.75)])
    assert [(c.encoding, c.mean) for c in table.accuracy] == [("S2g", 0.5), ("SCap", 0.75)]
    assert table.improvement == ()
