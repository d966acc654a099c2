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
range, and the line ends in ``GAIN``. It ends in ``WORSE`` when the
change's median is worse than the parent's by more than the metric's
``bound`` in ``BENCHMARK.json``, a share of the parent's median: the
benchmark refuses such a change. ``--out`` also writes every run's
metrics as JSON.

Each run also records the load from outside it: the steal ticks of
``/proc/stat``'s ``cpu`` line and ``os.getloadavg()``, read before and
after the run (neither is read where ``/proc/stat`` is absent). The
steal share is the share of the machine's CPU ticks during the run that
the hypervisor gave to other guests. The summary prints the largest
share, and flags the pair set ``OUTSIDE LOAD`` when a run's share
exceeds ``STEAL_LIMIT``, 0.05: a CPU-bound run that loses 5% of the
machine's time to other guests is slowed by about that much, more than
the interquartile range of the end-to-end times of quiet runs (a few
percent), so such a pair set can show a change that is only outside
load. ``--out`` keeps every run's readings under ``load``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
STEAL_LIMIT = 0.05
PROC_STAT = Path("/proc/stat")


def clear_bytecode(checkout: Path) -> None:
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def cpu_ticks(line: str) -> tuple[int, int]:
    """(steal, total) ticks of ``/proc/stat``'s ``cpu`` line. The total sums
    the first eight fields, user to steal; guest time is already counted in
    user and nice."""
    ticks = [int(value) for value in line.split()[1:9]]
    return ticks[7], sum(ticks)


def steal_share(before: str, after: str) -> float:
    """The share of the CPU ticks between two ``cpu`` lines that were stolen."""
    (steal0, total0), (steal1, total1) = cpu_ticks(before), cpu_ticks(after)
    return (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0


def outside_load() -> dict | None:
    """``/proc/stat``'s ``cpu`` line and the load averages, or None where
    ``/proc/stat`` is absent."""
    if not PROC_STAT.exists():
        return None
    return {"cpu": PROC_STAT.read_text().splitlines()[0], "loadavg": list(os.getloadavg())}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict | None]:
    """Metric name -> value of one ``perfbench/run.py`` run in ``checkout``,
    and the outside load around it (None where it cannot be read)."""
    clear_bytecode(checkout)
    before = outside_load()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False, timeout=600,
    )
    after = outside_load()
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: run.py reported failed operations\n{out.stdout}")
    load = None
    if before and after:
        load = {"before": before, "after": after,
                "steal_share": steal_share(before["cpu"], after["cpu"])}
    return {name: m["value"] for name, m in result["metrics"].items()}, load


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    parent: list[float], change: list[float], better: str, bound: float = float("inf")
) -> dict:
    """Pairwise comparison of one metric; ``parent[i]`` and ``change[i]`` form pair i.
    The change is worse when its median is worse by more than ``bound`` times
    the parent's median."""
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
        "worse": sign * (c_med - p_med) > bound * abs(p_med),
    }


def report(name: str, unit: str, s: dict) -> str:
    p, c = s["parent"], s["change"]
    return (
        f"{name:<14} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
        f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {unit}  "
        f"{s['delta_pct']:+.1f}%  change wins {s['wins']}/{s['pairs']}"
        + ("  GAIN" if s["gain"] else "")
        + ("  WORSE" if s["worse"] else "")
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
    loads: dict[str, list[dict | None]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            metrics, load = run_once(sides[side], args.workload, args.seed, args.seconds)
            runs[side].append(metrics)
            loads[side].append(load)
        print(f"pair {i + 1}/{args.pairs}: run_s parent {runs['parent'][-1].get('run_s')} "
              f"change {runs['change'][-1].get('run_s')}", file=sys.stderr, flush=True)
    summaries = {}
    print(f"workload {args.workload}  seed {args.seed}  {args.pairs} pairs  "
          f"median [q1, q3]")
    for metric in declared:
        name = metric["name"]
        summaries[name] = summarize(
            [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
            metric["better"], metric["bound"],
        )
        print(report(name, metric["unit"], summaries[name]))
    shares = [load["steal_share"] for side in loads.values() for load in side if load]
    if shares:
        worst = max(shares)
        flag = f"  OUTSIDE LOAD (over {STEAL_LIMIT})" if worst > STEAL_LIMIT else ""
        print(f"largest steal share {worst:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps({"args": {k: str(v) for k, v in vars(args).items()},
                                        "runs": runs, "load": loads, "summary": summaries},
                                       indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
