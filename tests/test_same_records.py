"""The export comparison of ``tools/same_records.py``."""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

from same_records import compare_dirs, first_difference  # noqa: E402


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
