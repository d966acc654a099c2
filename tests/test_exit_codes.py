"""Every command exits 0 or 2 on edited inputs, never with a traceback.

``cli.main`` runs in-process on four kinds of input, each edited by
hypothesis: the example config (``configs/example.json``), the bytes of
its demo CSV log (``data/demo.csv``), the bytes of that log rendered as
XES, plain or gzipped, and the bytes of a records file that a run of the
example config wrote. A bad input must exit 2 with an ``error:`` line
on stderr. Exit 1 is for a cell that fails at run time, which none of
these inputs should cause.

The base config is the example's with three trees per forest, a small
boosting grid and one worker. Edits never drop a grid or the worker
count: the default grids take minutes on the demo log, and the default
worker count is the machine's CPU count. A lone integer put in place of
a value is at most 2, so a config never asks for more than two workers.
"""
from __future__ import annotations

import contextlib
import copy
import csv
import functools
import gzip
import io
import json
import math
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from resnap.cli import main

from conftest import xes_bytes, xes_event

ROOT = Path(__file__).resolve().parent.parent
DEMO_CSV = (ROOT / "data" / "demo.csv").read_bytes()
DEMO = ["--config", "config.json", "--dataset", "demo"]

EDITED_INPUTS = settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def base_config() -> dict:
    config = json.loads((ROOT / "configs" / "example.json").read_text())
    experiment = config["experiment"]
    experiment["workers"] = 1
    experiment["grids"]["forest"]["n_estimators"] = [3]
    experiment["grids"]["boosted"] = {"n_estimators": [3], "max_depth": [3]}
    return config


def xes_config() -> dict:
    """The base config with the demo log read from its XES rendering."""
    config = base_config()
    config["datasets"][0] = {
        "id": "demo", "path": "data/demo.xes.gz", "format": "xes", "prefix_candidates": [3, 5]
    }
    return config


def demo_xes() -> bytes:
    """``data/demo.csv`` as an XES document, one trace per case."""
    traces: dict[str, list] = {}
    for case, activity, resource, when in list(csv.reader(io.StringIO(DEMO_CSV.decode())))[1:]:
        stamp = when.replace(" ", "T") + ".000+00:00"
        traces.setdefault(case, []).append(xes_event(activity, resource, stamp))
    return xes_bytes(traces.items())


def run_cli(files: dict[str, bytes], config: dict, argv: list[str]) -> tuple[int, str]:
    """Exit status and stderr of ``main(argv)``, run in a new directory that
    holds ``files`` and the config as ``config.json``."""
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in {**files, "config.json": json.dumps(config).encode()}.items():
            path = Path(tmp, name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = main(argv)
        finally:
            os.chdir(cwd)
    return status, err.getvalue()


def assert_exits_cleanly(status: int, err: str) -> None:
    assert status in (0, 2), err
    if status == 2:
        assert any(line.startswith("error: ") for line in err.splitlines()), err


@functools.cache
def records_files() -> dict[str, bytes]:
    """The records files a run of the base config writes."""
    with tempfile.TemporaryDirectory() as tmp:
        config = {**base_config(), "output_dir": tmp}
        status, err = run_cli({"data/demo.csv": DEMO_CSV}, config, ["run", *DEMO])
        assert status == 0, err
        return {name: Path(tmp, name).read_bytes() for name in ("records.json", "records.csv")}


# --- edits ---------------------------------------------------------------------

PAYLOADS = st.sampled_from(
    [b"", b"\x00", b"\xff", b"\xc3", b"\x1f\x8b", b",", b";", b"\n", b"\r", b'"', b"<", b">",
     b"/", b"&", b"=", b" ", b"-", b":", b".", b"T", b"Z", b"0", b"9", b"x", b"e"]
) | st.binary(max_size=3)


@st.composite
def byte_edits(draw, data: bytes) -> bytes:
    """``data`` with one to three slices of up to 8 bytes replaced, each by
    up to 3 bytes, and sometimes cut short."""
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        stop = draw(st.integers(start, min(len(data), start + 8)))
        data = data[:start] + draw(PAYLOADS) + data[stop:]
    if draw(st.integers(0, 9)) == 0:
        data = data[:draw(st.integers(0, len(data)))]
    return data


NAMES = st.sampled_from(
    ["", "x", "3", "None", "sqrt", "majority", "forest", "boosted", "tree", "SeqOnly", "S2gR",
     "csv", "xes", "demo", "data/demo.csv", ";", "%Y"]
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 2),
    st.sampled_from([0.0, 0.5, 2.5, -1.5, 1e300, math.nan, math.inf]),
    NAMES,
)
VALUES = st.one_of(
    SCALARS,
    st.lists(NAMES, max_size=3),
    st.lists(st.integers(-1, 6), max_size=3),
    st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["id", "path", "format", "case", "max_depth"]), inner,
                          max_size=2),
        max_leaves=4,
    ),
)


# keys an edit may add to an object: known ones that the example leaves out
KEYS = st.sampled_from(["cell_timeout", "delimiter", "id", "tree", "x"])


def paths(value, path=()):
    """The path of every key and list item below ``value``, in preorder."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from paths(child, path + (key,))


def _holds_grids(path) -> bool:
    """Replacing ``experiment``, its grids or one model's grid could drop a grid."""
    return path in (("experiment",), ("experiment", "grids")) or (
        len(path) == 3 and path[:2] == ("experiment", "grids")
    )


def _at(config: dict, path):
    return functools.reduce(lambda node, key: node[key], path, config)


@st.composite
def config_edits(draw, config: dict) -> dict:
    """``config`` after one to three edits, each of which replaces or
    deletes a key or list item, or sets one of ``KEYS`` in an object.

    Nothing below ``experiment.grids`` and not ``experiment.workers`` is
    deleted, and no path that holds a grid is replaced.
    """
    config = copy.deepcopy(config)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["replace", "delete", "set"]))
        if edit == "set":
            objects = [p for p in [(), *paths(config)] if isinstance(_at(config, p), dict)]
            _at(config, draw(st.sampled_from(objects)))[draw(KEYS)] = draw(VALUES)
            continue
        path = draw(st.sampled_from([p for p in paths(config) if not _holds_grids(p)]))
        parent = _at(config, path[:-1])
        kept = path[:2] == ("experiment", "grids") or path == ("experiment", "workers")
        if edit == "delete" and not kept:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(VALUES)
    return config


# --- properties ------------------------------------------------------------------

COMMANDS = st.sampled_from(["profile", "grid", "run"])


def test_unedited_inputs_exit_zero():
    for files, config in (
        ({"data/demo.csv": DEMO_CSV}, base_config()),
        ({"data/demo.xes.gz": gzip.compress(demo_xes())}, xes_config()),
    ):
        for command in ("profile", "grid", "run"):
            status, err = run_cli(files, config, [command, *DEMO])
            assert status == 0, err
    for name, data in records_files().items():
        status, err = run_cli({name: data}, base_config(), ["report", *DEMO, "--records", name])
        assert status == 0, err


@settings(EDITED_INPUTS, max_examples=600)  # most edits stop at the first of many checks
@given(command=st.sampled_from(["profile", "grid", "run", "report"]), data=st.data())
def test_edited_config_exits_0_or_2(command, data):
    config = data.draw(config_edits(base_config()))
    files = {"data/demo.csv": DEMO_CSV, "out/records.json": records_files()["records.json"]}
    assert_exits_cleanly(*run_cli(files, config, [command, *DEMO]))


@EDITED_INPUTS
@given(command=COMMANDS, data=st.data())
def test_edited_csv_log_exits_0_or_2(command, data):
    log = data.draw(byte_edits(DEMO_CSV))
    assert_exits_cleanly(*run_cli({"data/demo.csv": log}, base_config(), [command, *DEMO]))


@EDITED_INPUTS
@given(command=COMMANDS, compressed=st.booleans(), data=st.data())
def test_edited_xes_log_exits_0_or_2(command, compressed, data):
    rendered = demo_xes()
    log = data.draw(byte_edits(gzip.compress(rendered, mtime=0) if compressed else rendered))
    files = {"data/demo.xes.gz": log}
    assert_exits_cleanly(*run_cli(files, xes_config(), [command, *DEMO]))


@EDITED_INPUTS
@given(name=st.sampled_from(["records.json", "records.csv"]), data=st.data())
def test_edited_records_file_exits_0_or_2(name, data):
    records = data.draw(byte_edits(records_files()[name]))
    argv = ["report", *DEMO, "--records", name]
    assert_exits_cleanly(*run_cli({name: records}, base_config(), argv))
