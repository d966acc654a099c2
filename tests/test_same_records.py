"""The export comparison of ``tools/same_records.py``."""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "perfbench"))

import bpic13  # noqa: E402
import same_records  # noqa: E402
from same_records import cases, compare_dirs, first_difference, run_resnap  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def records(*accuracies) -> bytes:
    rows = [{"cell": i, "accuracy": a} for i, a in enumerate(accuracies)]
    return (json.dumps({"records": rows}, indent=2, sort_keys=True) + "\n").encode()


def test_equal_bytes_have_no_difference():
    assert first_difference("records.json", records(0.5, 0.7), records(0.5, 0.7)) is None
    assert first_difference("table.csv", b"a,b\n1,2\n", b"a,b\n1,2\n") is None


def test_records_file_names_the_first_differing_record():
    message = first_difference("records.json", records(0.5, 0.7, 0.9), records(0.5, 0.6, 0.8))
    assert message.startswith("records.json: record 1 differs")
    assert '"accuracy": 0.7' in message and '"accuracy": 0.6' in message
    assert "0.9" not in message


def test_records_file_with_equal_records_but_other_bytes():
    compact = json.dumps(json.loads(records(0.5))).encode()
    assert first_difference("records.json", records(0.5), compact).startswith(
        "records.json: line 1 differs"
    )
    assert first_difference("records.json", records(0.5), records(0.5, 0.6)) == (
        "records.json: 1 records against 2"
    )


def test_other_files_name_the_first_differing_line():
    message = first_difference("t.csv", b"h\n1\n2\n3\n", b"h\n1\n5\n3\n")
    assert message == "t.csv: line 3 differs\n  parent 2\n  change 5"
    assert first_difference("t.csv", b"h\n1\n", b"h\n1\n2\n") == "t.csv: 2 lines against 3"
    assert first_difference("t.csv", b"h\n1", b"h\r\n1\n") == "t.csv: same lines, other line ends"


def test_compare_dirs_reports_missing_and_differing_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        (d / "same.csv").write_bytes(b"x\n1\n")
    (a / "records.json").write_bytes(records(0.5))
    (b / "records.json").write_bytes(records(0.25))
    (a / "accuracy.csv").write_bytes(b"m,acc\nforest,0.5\n")
    (b / "accuracy.csv").write_bytes(b"m,acc\nforest,0.25\n")
    (a / "only_parent.csv").write_bytes(b"")
    (b / "only_change.json").write_bytes(b"{}")
    messages = compare_dirs(a, b)
    assert messages[0] == "only_parent.csv: only in the parent's exports"
    assert messages[1] == "only_change.json: only in the change's exports"
    assert messages[2].startswith("records.json: record 0 differs")
    assert messages[3].startswith("accuracy.csv: line 2 differs")
    assert len(messages) == 4
    (b / "records.json").write_bytes(records(0.5))
    (b / "accuracy.csv").write_bytes(b"m,acc\nforest,0.5\n")
    (a / "only_parent.csv").unlink()
    (b / "only_change.json").unlink()
    assert compare_dirs(a, b) == []


def test_cases_run_grid_and_profile_every_seed_and_the_example(tmp_path, monkeypatch):
    monkeypatch.setattr(bpic13, "generate", lambda seed, out: (out / "x.xes.gz", out / "c.csv", None))
    runs = dict(cases(ROOT, [7], tmp_path))
    first = next(iter(WORKLOADS))
    expected = []
    for name, workload in WORKLOADS.items():
        expected += [f"{name} seed 7 run", f"{name} seed 7 grid"]
        if name == first:
            expected += [f"{name} seed 7 run bpic13s_xes", "seed 7 profile bpic13s",
                         "seed 7 profile bpic13s_xes"]
    assert list(runs) == expected + ["example run", "example profile", "example grid"]
    for name, workload in WORKLOADS.items():
        run = runs[f"{name} seed 7 run"]
        assert run[0] == "run" and run[-4:] == ["--seed", "7", "--workers", str(workload.workers)]
        config = json.loads(Path(run[run.index("--config") + 1]).read_text())
        assert config == workload.config(tmp_path / "log7" / "c.csv", tmp_path / "log7" / "x.xes.gz", 7)
    assert runs["seed 7 profile bpic13s_xes"][-2:] == ["--dataset", "bpic13s_xes"]
    xes_run = runs[f"{first} seed 7 run bpic13s_xes"]
    assert xes_run[:2] == ["run", "--config"] and xes_run[3:5] == ["--dataset", "bpic13s_xes"]
    assert xes_run[2] == runs[f"{first} seed 7 run"][2]  # the first workload's config
    assert runs["example grid"] == ["grid", "--config", str(ROOT / "configs" / "example.json"),
                                    "--dataset", "demo"]


def test_grid_output_is_saved_as_an_export(tmp_path):
    out = tmp_path / "out"
    run_resnap(ROOT, ["grid", "--config", str(ROOT / "configs" / "example.json"),
                      "--dataset", "demo"], out)
    assert sorted(json.loads((out / "grid.json").read_text())) == ["admissible", "counts"]


def test_main_compares_profile_and_grid_exports(tmp_path, monkeypatch, capsys):
    example = dict(cases(ROOT, [], tmp_path))
    monkeypatch.setattr(same_records, "cases", lambda change, seeds, work: [
        (label, run) for label, run in example.items() if label != "example run"
    ])
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--work", str(tmp_path / "work")]
    assert same_records.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "example profile: 2 exports identical",
        "example grid: 1 exports identical",
    ]
