"""Compare two checkouts on the benchmark in alternating pairs.

Usage (from anywhere; standard library only):

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload boost-sweep --seed 11 --pairs 10 --seconds 25

Each pair runs ``perfbench/run.py`` once in each checkout; the parent
runs first in even pairs and the change first in odd ones. Every
``__pycache__`` directory under both checkouts is removed before every
run, so both sides import from the same bytecode cache state (the
benchmark's ``setup_s`` times an import). The end-to-end metrics and
their better direction come from the parent's ``BENCHMARK.json``.

For every metric it prints each side's median and quartiles, the change
of the median, and the pairs the change wins (ties count for neither
side). A gain holds when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile
range. ``--out`` also writes every run's metrics as JSON.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def clear_bytecode(checkout: Path) -> None:
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """Metric name -> value of one ``perfbench/run.py`` run in ``checkout``."""
    clear_bytecode(checkout)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: run.py reported failed operations\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Pairwise comparison of one metric; ``parent[i]`` and ``change[i]`` form pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    return {
        "parent": {"q1": p1, "median": p_med, "q3": p3},
        "change": {"q1": c1, "median": c_med, "q3": c3},
        "delta_pct": 100.0 * (c_med - p_med) / p_med if p_med else float("nan"),
        "wins": wins,
        "pairs": len(parent),
        "gain": wins >= WIN_SHARE * len(parent) and sign * (p_med - c_med) > p3 - p1,
    }


def report(name: str, unit: str, s: dict) -> str:
    p, c = s["parent"], s["change"]
    return (
        f"{name:<14} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
        f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {unit}  "
        f"{s['delta_pct']:+.1f}%  change wins {s['wins']}/{s['pairs']}"
        + ("  GAIN" if s["gain"] else "")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((sides["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs}: run_s parent {runs['parent'][-1].get('run_s')} "
              f"change {runs['change'][-1].get('run_s')}", file=sys.stderr, flush=True)
    summaries = {}
    print(f"workload {args.workload}  seed {args.seed}  {args.pairs} pairs  "
          f"median [q1, q3]")
    for metric in declared:
        name = metric["name"]
        summaries[name] = summarize(
            [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]], metric["better"]
        )
        print(report(name, metric["unit"], summaries[name]))
    if args.out:
        args.out.write_text(json.dumps({"args": {k: str(v) for k, v in vars(args).items()},
                                        "runs": runs, "summary": summaries}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
