"""Check that two checkouts export the same files, byte for byte.

Usage (from anywhere; needs numpy, like the benchmark):

    python3 tools/same_records.py --parent ../parent --change . --seeds 1 2 3

For every seed it writes the benchmark's seeded BPIC13-shaped log once.
On each workload config of ``perfbench/workloads.py`` it then runs
``resnap run --dataset bpic13s`` at that workload's worker count and
``resnap grid --dataset bpic13s``; on the first workload config it also
runs ``resnap run --dataset bpic13s_xes``, so events read from the XES
rendering reach compared records, and ``resnap profile`` for both of its
datasets. It runs ``run`` and ``profile`` on both datasets once more
with that config pointed at copies of the log that the columnar readers
decline (:func:`fallback_copies`), so the csv-module and expat readers
reach compared records too. Both checkouts also run ``configs/example.json --dataset
demo`` through ``run``, ``profile`` and ``grid``. Every run has an
export directory of its own on each side; ``grid`` has no export files,
so its ``--quiet`` output is saved there as ``grid.json``. The two
sides' directories are compared file by file. For every file that
differs the tool prints the first differing record of a JSON records
file, or the first differing line of any other file; records files come
first.

The workload configs come from the change checkout's ``perfbench/``;
each side imports its own ``src/``. Exit status: 0 when every export is
identical, 1 on any difference, 2 when a run fails.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

EXAMPLE_CONFIG = "configs/example.json"


def first_difference(name: str, parent: bytes, change: bytes) -> str | None:
    """None when the bytes are equal, otherwise where they first differ."""
    if parent == change:
        return None
    if name.endswith(".json"):
        try:
            a, b = json.loads(parent), json.loads(change)
        except ValueError:
            a = b = None
        if isinstance(a, dict) and isinstance(b, dict) and "records" in a and "records" in b:
            for i, (ra, rb) in enumerate(zip(a["records"], b["records"])):
                if ra != rb:
                    return (f"{name}: record {i} differs\n  parent {json.dumps(ra, sort_keys=True)}"
                            f"\n  change {json.dumps(rb, sort_keys=True)}")
            if len(a["records"]) != len(b["records"]):
                return f"{name}: {len(a['records'])} records against {len(b['records'])}"
    lines_a, lines_b = parent.splitlines(), change.splitlines()
    for i, (la, lb) in enumerate(zip(lines_a, lines_b)):
        if la != lb:
            return (f"{name}: line {i + 1} differs\n  parent {la.decode(errors='replace')}"
                    f"\n  change {lb.decode(errors='replace')}")
    if len(lines_a) == len(lines_b):
        return f"{name}: same lines, other line ends"
    return f"{name}: {len(lines_a)} lines against {len(lines_b)}"


def compare_dirs(parent: Path, change: Path) -> list[str]:
    """One message per file that is missing on one side or differs; the
    records files come before the tables aggregated from them."""
    names_a = {p.name for p in parent.iterdir() if p.is_file()}
    names_b = {p.name for p in change.iterdir() if p.is_file()}
    messages = [f"{name}: only in the parent's exports" for name in sorted(names_a - names_b)]
    messages += [f"{name}: only in the change's exports" for name in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b, key=lambda name: (not name.startswith("records."), name)):
        message = first_difference(name, (parent / name).read_bytes(), (change / name).read_bytes())
        if message:
            messages.append(message)
    return messages


def run_resnap(checkout: Path, argv: list[str], out: Path) -> None:
    """Run ``resnap`` from ``checkout`` with ``--quiet --out out``; the
    ``grid`` command's stdout goes to ``out/grid.json``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [*argv, "--quiet", "--out", str(out)]
    done = subprocess.run([sys.executable, "-m", "resnap.cli", *argv], cwd=checkout, env=env,
                          capture_output=True, text=True, check=False, timeout=1800)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: resnap {' '.join(argv)} exited {done.returncode}\n"
                           f"{done.stderr.strip()[-2000:]}")
    if argv[0] == "grid":
        out.mkdir(parents=True, exist_ok=True)
        (out / "grid.json").write_text(done.stdout)


def fallback_copies(csv: Path, xes: Path) -> tuple[Path, Path]:
    """Copies of a seeded log, next to it, that hold the same events but
    that the columnar readers decline: the CSV with its first data row's
    first field quoted, which the csv module reads, and the XES.gz with a
    comment right after the ``<log ...>`` open tag, which expat reads."""
    text = csv.read_bytes()
    row = text.index(b"\n") + 1
    field = text.index(b",", row)
    quoted = csv.with_name("quoted.csv")
    quoted.write_bytes(text[:row] + b'"' + text[row:field] + b'"' + text[field:])
    doc = gzip.decompress(xes.read_bytes())
    root = doc.index(b">", doc.index(b"<log")) + 1
    commented = xes.with_name("commented.xes.gz")
    commented.write_bytes(gzip.compress(doc[:root] + b"<!-- -->" + doc[root:], mtime=0))
    return quoted, commented


def cases(change: Path, seeds: list[int], work: Path):
    """(label, resnap argv without ``--quiet`` and ``--out``) of every run."""
    sys.path.insert(0, str(change / "perfbench"))
    import bpic13
    from workloads import WORKLOADS

    for seed in seeds:
        xes, csv, _ = bpic13.generate(seed, work / f"log{seed}")
        for i, (name, workload) in enumerate(WORKLOADS.items()):
            config = str(workload.write_config(work / f"{name}-{seed}.json", csv, xes, seed))
            label = f"{name} seed {seed}"
            yield f"{label} run", ["run", "--config", config, "--dataset", "bpic13s",
                                   "--seed", str(seed), "--workers", str(workload.workers)]
            yield f"{label} grid", ["grid", "--config", config, "--dataset", "bpic13s"]
            if i == 0:  # the workloads share the log, so one config serves the XES run and profiles
                yield f"{label} run bpic13s_xes", ["run", "--config", config, "--dataset",
                                                   "bpic13s_xes", "--seed", str(seed),
                                                   "--workers", str(workload.workers)]
                for dataset in ("bpic13s", "bpic13s_xes"):
                    yield f"seed {seed} profile {dataset}", ["profile", "--config", config,
                                                             "--dataset", dataset]
                fallback = str(workload.write_config(work / f"{name}-{seed}-fallback.json",
                                                     *fallback_copies(csv, xes), seed))
                for dataset, copy in (("bpic13s", "quoted csv"), ("bpic13s_xes", "commented xes")):
                    yield f"{label} run {copy}", ["run", "--config", fallback, "--dataset",
                                                  dataset, "--seed", str(seed),
                                                  "--workers", str(workload.workers)]
                    yield f"seed {seed} profile {copy}", ["profile", "--config", fallback,
                                                          "--dataset", dataset]
    example = str(change / EXAMPLE_CONFIG)
    for command in ("run", "profile", "grid"):
        yield f"example {command}", [command, "--config", example, "--dataset", "demo"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--work", type=Path, help="keep logs and exports here (default: a "
                        "temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        work = (args.work or Path(tmp)).resolve()
        work.mkdir(parents=True, exist_ok=True)
        differing = 0
        for i, (label, run) in enumerate(cases(sides["change"], args.seeds, work)):
            outs = {side: work / f"out{i}-{side}" for side in sides}
            for side, checkout in sides.items():
                try:
                    run_resnap(checkout, run, outs[side])
                except RuntimeError as exc:
                    print(f"{label}: {exc}")
                    return 2
            messages = compare_dirs(outs["parent"], outs["change"])
            n_files = len(list(outs["change"].iterdir()))
            if messages:
                differing += 1
                print(f"{label}: DIFFERS\n" + "\n".join(messages))
            else:
                print(f"{label}: {n_files} exports identical")
            sys.stdout.flush()
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
