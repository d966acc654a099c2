"""Measuring process: drives ``resnap.cli.main`` in-process and checks outputs.

``run.py`` starts this script in a fresh interpreter with a JSON plan
(workload, seed, seconds, trace flag, input paths) and reads back the
JSON result it writes. Keeping the measurement in its own process keeps
input generation out of its peak RSS, and makes its pool workers its own
children for ``getrusage``.

Untraced mode times whole iterations of the workload for the given
number of seconds. Traced mode alternates an untraced and a traced
iteration (at one worker) and derives per-layer metrics from the spans;
for a workload that runs at several workers it then runs once at that
worker count, which measures pool efficiency and checks that the
records equal those of the one-worker runs.

Every operation is checked: exit code 0, records.json byte-identical
to the first run's, one ok cell per expected (length, encoding, model)
with one sample per eligible resource, every learner above the majority
baseline on the cells where the workload runs both, and profiles that
reproduce the generator's pinned counts.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import bpic13
import layers
from calib import Clock, Timing, pin
from spans import Recorder
from workloads import WORKLOADS, Workload

HARD_LIMIT_S = 120.0  # no new iteration starts once this much time has passed


def _median(timings: list[Timing], field: str) -> float:
    return statistics.median(getattr(t, field) for t in timings)


class Session:
    """Runs CLI operations, checks their outputs and counts failures."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.clock: Clock | None = None  # made on the single-process CPU at its first call
        self.work = Path(plan["work_dir"])
        self.workload: Workload = WORKLOADS[plan["workload"]]
        self.config = self.workload.write_config(
            self.work / "config.json", Path(plan["csv"]), Path(plan["xes"]), plan["seed"]
        )
        self.shape = plan["shape"]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: bytes | None = None  # records.json of the first run
        self.records: list[dict] = []
        self.calls = 0

    def _call(self, argv: list[str], workers: int, recorder: Recorder | None, span: str) -> tuple[int, Timing]:
        """Run one CLI command; its wall time, at reference speed when it ran on one CPU."""
        from resnap.cli import main

        pin(self.plan["cpus"][:workers])
        if workers == 1 and self.clock is None:
            self.clock = Clock()
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with recorder.span(span) if recorder else contextlib.nullcontext():
                try:
                    code = main(argv)
                except Exception:  # a crash is a failed operation, not a failed benchmark
                    traceback.print_exc()
                    code = -1
        raw = time.perf_counter() - start
        timing = self.clock.timing(raw) if workers == 1 else Timing(raw, raw)
        if code != 0:
            self._fail(f"{argv[0]} exited {code}: {sink.getvalue().strip()[-400:]}")
        return code, timing

    def _out(self) -> Path:
        self.calls += 1
        return self.work / f"out{self.calls}"

    def _fail(self, message: str) -> None:
        self.failures.append(message)

    def _begin(self) -> int:
        self.attempted += 1
        return len(self.failures)

    def _end(self, before: int, out: Path) -> None:
        if len(self.failures) > before:
            self.failed += 1
        shutil.rmtree(out, ignore_errors=True)

    def profile(self, dataset: str, recorder: Recorder | None = None) -> Timing:
        out = self._out()
        argv = ["profile", "--config", str(self.config), "--dataset", dataset, "--quiet", "--out", str(out)]
        before = self._begin()
        code, elapsed = self._call(argv, 1, recorder, "cli.profile")
        if code == 0:
            prof = json.loads((out / f"{dataset}_profile.json").read_text())
            for key in ("n_cases", "n_events", "n_activities", "n_resources"):
                if prof[key] != self.shape[key]:
                    self._fail(f"profile {dataset}: {key}={prof[key]}, generator pinned {self.shape[key]}")
        self._end(before, out)
        return elapsed

    def run(self, workers: int, recorder: Recorder | None = None) -> Timing:
        out = self._out()
        argv = [
            "run", "--config", str(self.config), "--dataset", "bpic13s", "--quiet",
            "--seed", str(self.plan["seed"]), "--workers", str(workers), "--out", str(out),
        ]
        before = self._begin()
        code, elapsed = self._call(argv, workers, recorder, "cli.run")
        if code == 0:
            self._check_records((out / "records.json").read_bytes(), workers)
        self._end(before, out)
        return elapsed

    def _check_records(self, raw: bytes, workers: int) -> None:
        if self.reference is None:
            self.reference = raw
            self.records = json.loads(raw)["records"]
            self._check_cells(self.records)
        elif raw != self.reference:
            self._fail(f"records.json at {workers} worker(s) differs from the first run's")

    def _check_cells(self, records: list[dict]) -> None:
        w = self.workload
        loads = bpic13.resource_loads()
        eligible = {length: int((loads >= length + 1).sum()) for length in w.prefix_candidates}
        lengths = []
        for length in w.prefix_candidates:
            if eligible[length] < 100:
                break
            lengths.append(length)
        expected = {(length, e, m) for length in lengths for e in w.encodings for m in w.models}
        got = {(r["prefix_length"], r["encoding"], r["model"]) for r in records}
        if got != expected or len(records) != len(expected):
            self._fail(f"records cover {sorted(got)}, expected {sorted(expected)}")
        for r in records:
            cell = f"{r['model']}/{r['encoding']}/L={r['prefix_length']}"
            if r["status"] != "ok":
                self._fail(f"cell {cell} has status {r['status']}")
            elif not 0.0 <= r["accuracy"] <= 1.0:
                self._fail(f"cell {cell} has accuracy {r['accuracy']}")
            samples = r["n_train"] + r["n_test"]
            if r["prefix_length"] in eligible and samples - eligible[r["prefix_length"]] not in (0, 1):
                self._fail(f"cell {cell} has {samples} samples for {eligible[r['prefix_length']]} eligible resources")
        # the generated next activity is learnable: a learner must beat the
        # majority baseline on the same test set
        majority = {(r["prefix_length"], r["encoding"]): r["accuracy"] for r in records if r["model"] == "majority"}
        for r in records:
            baseline = majority.get((r["prefix_length"], r["encoding"]))
            if r["model"] != "majority" and baseline is not None and r["accuracy"] <= baseline:
                self._fail(
                    f"cell {r['model']}/{r['encoding']}/L={r['prefix_length']} has accuracy "
                    f"{r['accuracy']:.4f}, not above the majority baseline's {baseline:.4f}"
                )

    def iteration(self, workers: int, recorder: Recorder | None = None) -> dict[str, Timing]:
        times = {}
        if self.workload.profile_xes:
            times["profile_s"] = self.profile("bpic13s_xes", recorder)
        times["run_s"] = self.run(workers, recorder)
        return times

    def accuracy_mean(self) -> float:
        """Cell accuracies weighted by test size: small cells at long prefixes would
        otherwise make the figure swing from seed to seed."""
        ok = [r for r in self.records if r["status"] == "ok"]
        tested = sum(r["n_test"] for r in ok)
        return sum(r["accuracy"] * r["n_test"] for r in ok) / tested if tested else 0.0


def _until(seconds: float, step) -> None:
    """Call step() until ``seconds`` have passed; at least once, never past HARD_LIMIT_S."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + (time.perf_counter() - t0) > HARD_LIMIT_S:
            return


def timed(session: Session, seconds: float) -> dict:
    w = session.workload
    samples: dict[str, list[Timing]] = {"run_s": [], "profile_s": []}

    def step() -> None:
        for key, timing in session.iteration(w.workers).items():
            samples[key].append(timing)

    _until(seconds, step)
    if not w.profile_xes:
        # the sweeps profile the CSV they run on, after the timed runs
        samples["profile_s"] = [session.profile("bpic13s") for _ in range(3)]
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "samples": {key: [t._asdict() for t in timings] for key, timings in samples.items()},
        "metrics": {
            "run_s": _median(samples["run_s"], "scaled"),
            "profile_s": _median(samples["profile_s"], "scaled"),
            "peak_rss_mb": usage / 1024.0,
            "accuracy_mean": session.accuracy_mean(),
        },
    }


def traced(session: Session, seconds: float) -> dict:
    w = session.workload
    untraced: list[Timing] = []
    traced_runs: list[Timing] = []
    per_iteration: list[dict[str, float]] = []
    last = Recorder()

    def step() -> None:
        nonlocal last
        untraced.append(session.iteration(1)["run_s"])
        last = Recorder()
        with last.installed(layers.TARGETS):
            traced_runs.append(session.iteration(1, last)["run_s"])
        per_iteration.append(layers.metrics(last, workers=1))

    _until(seconds, step)
    result = {name: statistics.median(it[name] for it in per_iteration) for name in per_iteration[0]}
    result["trace.overhead_s"] = _median(traced_runs, "scaled") - _median(untraced, "scaled")
    if w.workers > 1:
        # pool efficiency comes from a run at the workload's own worker count
        light = Recorder()
        with light.installed(layers.POOL_TARGETS):
            session.run(w.workers, light)
        result["experiment.pool_efficiency"] = layers.pool_efficiency(light, w.workers)
    result["parsers.alloc_peak_mb"] = alloc_peak_mb(session)
    last.write(session.work / "spans.jsonl")
    samples = {"untraced_run_s": untraced, "traced_run_s": traced_runs}
    return {
        "samples": {key: [t._asdict() for t in timings] for key, timings in samples.items()},
        "metrics": result,
    }


def alloc_peak_mb(session: Session) -> float:
    from resnap.cli import CsvMapping, parse_csv

    mapping = CsvMapping(**bpic13.CSV_MAPPING)
    tracemalloc.start()
    try:
        parse_csv(session.plan["csv"], mapping)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def main(plan_path: str) -> int:
    # on SIGTERM, unwind so that a running worker pool is shut down and joined
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    import resnap.cli  # noqa: F401  (import before timing; setup_s measures it)

    session = Session(plan)
    if plan["trace"]:
        outcome = traced(session, plan["seconds"])
    else:
        outcome = timed(session, plan["seconds"])
    outcome.update(attempted=session.attempted, failed=session.failed, failures=session.failures)
    Path(plan["result"]).write_text(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
