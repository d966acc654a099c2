"""Check that two checkouts export the same files, byte for byte.

Usage (from anywhere; needs numpy, like the benchmark):

    python3 tools/same_records.py --parent ../parent --change . --seeds 1 2 3

For every seed it writes the benchmark's seeded BPIC13-shaped log once,
then runs ``resnap run --dataset bpic13s`` on each workload config of
``perfbench/workloads.py`` at that workload's worker count, in both
checkouts. Both checkouts also run ``configs/example.json --dataset
demo``. Each run writes its exports to a directory of its own, and the
two sides' directories are compared file by file. For every file that
differs the tool prints the first differing record of a JSON records
file, or the first differing line of any other file; records files come
first.

The workload configs come from the change checkout's ``perfbench/``;
each side imports its own ``src/``. Exit status: 0 when every export is
identical, 1 on any difference, 2 when a run fails.
"""
from __future__ import annotations

import argparse
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


def run_resnap(checkout: Path, argv: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, "-m", "resnap.cli", *argv], cwd=checkout, env=env,
                         capture_output=True, text=True, check=False, timeout=1800)
    if out.returncode != 0:
        raise RuntimeError(f"{checkout}: resnap {' '.join(argv)} exited {out.returncode}\n"
                           f"{out.stderr.strip()[-2000:]}")


def cases(change: Path, seeds: list[int], work: Path):
    """(label, config path, dataset, seed or None, workers or None) of every run."""
    sys.path.insert(0, str(change / "perfbench"))
    import bpic13
    from workloads import WORKLOADS

    for seed in seeds:
        xes, csv, _ = bpic13.generate(seed, work / f"log{seed}")
        for name, workload in WORKLOADS.items():
            config = workload.write_config(work / f"{name}-{seed}.json", csv, xes, seed)
            yield f"{name} seed {seed}", config, "bpic13s", seed, workload.workers
    yield "example", change / EXAMPLE_CONFIG, "demo", None, None


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
        for i, (label, config, dataset, seed, workers) in enumerate(
            cases(sides["change"], args.seeds, work)
        ):
            outs = {}
            for side, checkout in sides.items():
                outs[side] = work / f"out{i}-{side}"
                run = ["run", "--config", str(config), "--dataset", dataset, "--quiet",
                       "--out", str(outs[side])]
                if seed is not None:
                    run += ["--seed", str(seed), "--workers", str(workers)]
                try:
                    run_resnap(checkout, run)
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
