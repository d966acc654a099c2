"""Benchmark entry point for resnap.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0

Workloads: ``ingest``, ``forest-sweep`` and ``boost-sweep`` (see
``BENCHMARK.json`` for why each exists). One run

1. generates a seeded BPIC13-shaped log as XES.gz and CSV and checks its
   pinned counts (not timed as set-up; its time is reported apart);
2. measures ``setup_s``: the median time a fresh interpreter takes to
   import ``resnap.cli``, over several interpreters;
3. starts ``measure.py`` in a fresh interpreter, which calls
   ``resnap.cli.main`` in-process for ``--seconds`` seconds and checks
   every output (``--trace 1``: a separate traced run at one worker
   that yields per-layer metrics instead);
4. prints every metric by name with its unit, then, as its last line,
   one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.

Single-process timings are taken on one pinned CPU and scaled to a
reference CPU speed by a calibration kernel (see ``calib.py``); the raw
wall times are printed with them.

It reads and writes only inside the checkout it runs from, under
``.perfbench_work/``, and exits non-zero without a result when the
resnap sources are missing or a measurement cannot complete.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import bpic13  # noqa: E402
from calib import Clock, Timing, cpus, pin  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170.0
_IMPORT = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import resnap.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def catalogue() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def setup_seconds() -> list[Timing]:
    """Import times of resnap.cli in fresh interpreters.

    One warm-up interpreter is not counted. The interpreters inherit this
    process's CPU set: pin it to one CPU first.
    """
    clock = Clock()
    times: list[Timing] = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT],
            env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(clock.timing(float(out.stdout)))
    return times[1:]


def upper_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(samples)[n - 11]


def _timings(name: str, samples: list[float]) -> str:
    """One report line: sample count, median and the upper percentile of a timing."""
    tail = upper_percentile(samples)
    return (
        f"{name}: {len(samples)} sample(s), raw median {statistics.median(samples):.4f} s, "
        + (f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has ten samples beyond it")
    )


def measure(plan: dict) -> dict:
    plan_path = Path(plan["work_dir"]) / "plan.json"
    plan_path.write_text(json.dumps(plan))
    with subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), str(plan_path)],
        env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            _, errors = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.terminate()  # measure.py then shuts its worker pool down
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
            raise
    if proc.returncode != 0:
        sys.stderr.write(errors)
        raise RuntimeError(f"measure.py exited {proc.returncode}")
    return json.loads(Path(plan["result"]).read_text())


def report(args, outcome: dict, metrics: dict, units: dict, extra: list[str]) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in extra:
        print(f"  {line}")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {units[name]}")
    for failure in outcome["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind normally: the measuring process is stopped and the work
    # directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "resnap" / "cli.py").is_file():
        print(f"error: resnap sources not found under {SRC}", file=sys.stderr)
        return 2
    bench = catalogue()
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    allowed = cpus(2)
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        xes, csv, shape = bpic13.generate(args.seed, work / "input")
        generate_s = time.perf_counter() - t0
        setup: list[Timing] = []
        if not args.trace:
            pin(allowed[:1])
            setup = setup_seconds()
            pin(allowed)
        plan = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "work_dir": str(work), "result": str(work / "result.json"),
            "src": str(SRC), "csv": str(csv), "xes": str(xes), "shape": shape.as_dict(),
            "cpus": allowed,
        }
        outcome = measure(plan)
        measured = outcome["metrics"]
        extra = [f"input generation {generate_s:.3f} s; generator reached " + ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in shape.as_dict().items()
        )]
        if args.trace:
            spans = ROOT / ".perfbench_work" / f"spans-{args.workload}-s{args.seed}.jsonl"
            shutil.copyfile(work / "spans.jsonl", spans)
            extra.append(f"spans written to {spans.relative_to(ROOT)}")
        else:
            measured["setup_s"] = statistics.median(t.scaled for t in setup)
            extra.append("raw wall times (metrics are at the reference speed, see calib.py):")
            extra.append(_timings("setup_s", [t.raw for t in setup]))
            for key in ("run_s", "profile_s"):
                extra.append(_timings(key, [t["raw"] for t in outcome["samples"][key]]))
        extra.append(f"failed_frac {outcome['failed'] / outcome['attempted']:.4g} "
                     f"({outcome['failed']} of {outcome['attempted']} operations)")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name in units if name not in measured]
    if missing:
        print(f"error: benchmark produced no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {name: measured[name] for name in units}
    report(args, outcome, metrics, units, extra)
    result = {
        "correct": outcome["failed"] == 0 and not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
