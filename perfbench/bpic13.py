"""Seeded synthetic event log with the shape of BPIC2013-incidents.

The log pins the counts of the published BPIC2013-incidents log after
events without a resource are dropped: 7,554 cases, 65,533 events, 13
activities and 1,440 resources. A further 655 events (about 1%) carry no
resource, so the readers' drop path runs on every parse.

Construction, all driven by one ``numpy`` generator seeded from the
workload seed:

* Load per resource follows fixed log-normal quantiles (skewed: a few
  resources carry hundreds of events, the median carries 16), so
  the number of resources eligible at each prefix length is the same for
  every seed. The seed decides which resource gets which load.
* Each resource works a small repertoire of activities drawn by global
  popularity; the first one is its hub (mostly "Accepted+In Progress").
  Its sequence is a sticky chain: it repeats the current activity;
  otherwise it leaves the hub for the next activity of its repertoire,
  or returns to the hub. This gives runs, repetition and a learnable
  next activity.
* Each resource's sequence is cut into consecutive chunks; each chunk is
  one case. Cases are therefore short and often share a variant.
* Timestamps increase strictly along every resource, so the order of
  events does not depend on file order.

``generate`` writes the same events as XES.gz and as CSV and returns the
pinned counts plus the summary statistics the generator reached.
"""
from __future__ import annotations

import gzip
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from statistics import NormalDist

import numpy as np

N_CASES = 7554
N_EVENTS = 65533
N_RESOURCES = 1440
N_DROPPED = 655

ACTIVITIES = (
    "Accepted+In Progress",
    "Queued+Awaiting Assignment",
    "Completed+Resolved",
    "Accepted+Assigned",
    "Accepted+Wait - User",
    "Completed+Closed",
    "Accepted+Wait - Implementation",
    "Accepted+Wait",
    "Completed+In Call",
    "Accepted+Wait - Vendor",
    "Accepted+Wait - Customer",
    "Unmatched+Unmatched",
    "Completed+Cancelled",
)
N_ACTIVITIES = len(ACTIVITIES)
# global popularity: one dominant activity, as in the published log
_POPULARITY = np.array(
    [0.62, 0.12, 0.06, 0.05, 0.04, 0.03, 0.025, 0.02, 0.015, 0.01, 0.005, 0.003, 0.002]
)
_POPULARITY = _POPULARITY / _POPULARITY.sum()

_LOAD_SIGMA = 1.5
_STAY = (0.85, 0.98)  # per-resource probability of repeating the current activity
_RETURN = 0.98  # probability that leaving an excursion returns to the hub
_EPOCH = datetime(2010, 3, 31, tzinfo=timezone.utc)
_SPAN_S = 2 * 365 * 86400
_TZ = timezone(timedelta(hours=1))
_GROUPS = ("V5 3rd", "V13 2nd 3rd", "G230 2nd", "N15 2nd", "S42 2nd", "G96 2nd")
_IMPACTS = ("Low", "Medium", "High", "Major")

CSV_MAPPING = {
    "case": "case",
    "activity": "activity",
    "resource": "resource",
    "timestamp": "timestamp",
    "delimiter": ",",
}


@dataclass(frozen=True)
class LogShape:
    """Pinned counts of the retained log plus the statistics reached."""

    n_cases: int
    n_events: int
    n_activities: int
    n_resources: int
    n_dropped: int
    avg_seq_len_per_resource: float
    avg_specialization: float
    avg_repetition: float
    variant_resource_ratio: float
    variant_case_ratio: float

    def as_dict(self) -> dict:
        return asdict(self)


def resource_loads() -> np.ndarray:
    """Events per resource, ascending: log-normal quantiles summing to N_EVENTS.

    Every resource gets at least one event; the rest is shared by largest
    remainder, so the vector is the same for every seed.
    """
    q = (np.arange(N_RESOURCES) + 0.5) / N_RESOURCES
    weights = np.exp(_LOAD_SIGMA * np.array([NormalDist().inv_cdf(p) for p in q]))
    share = weights / weights.sum() * (N_EVENTS - N_RESOURCES)
    loads = np.floor(share).astype(np.int64)
    short = N_EVENTS - N_RESOURCES - int(loads.sum())
    loads[np.argsort(share - loads, kind="stable")[::-1][:short]] += 1
    return np.sort(loads + 1)


def _cases_per_resource(loads: np.ndarray, n_cases: int) -> np.ndarray:
    """At least one case per resource, the rest in proportion to load."""
    extra = (loads - 1).astype(float)
    share = extra / extra.sum() * (n_cases - len(loads))
    counts = np.floor(share).astype(np.int64)
    short = n_cases - len(loads) - int(counts.sum())
    counts[np.argsort(share - counts, kind="stable")[::-1][:short]] += 1
    return counts + 1


def _sequence(rng: np.random.Generator, n: int) -> list[int]:
    size = int(min(N_ACTIVITIES, max(1, round(math.log2(n + 1)) + rng.integers(-1, 2))))
    repertoire = rng.choice(N_ACTIVITIES, size=size, replace=False, p=_POPULARITY)
    stay = rng.uniform(*_STAY)
    draws = rng.random((n, 3))
    pos = excursion = 0
    seq = []
    for i in range(n):
        if i and size > 1 and draws[i, 0] >= stay:
            if pos == 0:  # leave the hub for the next excursion activity
                excursion = excursion % (size - 1) + 1
                pos = excursion
            elif draws[i, 1] < _RETURN:
                pos = 0
            else:
                pos = int(draws[i, 2] * size)
        seq.append(int(repertoire[pos]))
    return seq


def _stamp(seconds: int) -> str:
    return (_EPOCH + timedelta(seconds=seconds)).astimezone(_TZ).isoformat(
        timespec="milliseconds"
    )


def build_events(seed: int) -> tuple[list[tuple], LogShape]:
    """Events as (case, activity, resource or '', seconds, group, impact), in file order."""
    rng = np.random.default_rng(seed)
    loads = rng.permutation(resource_loads())
    chunks = _cases_per_resource(loads, N_CASES)
    case_ids = rng.choice(10**9, size=N_CASES, replace=False)
    case_slots = rng.permutation(N_CASES)
    cases: list[list[tuple]] = [[] for _ in range(N_CASES)]
    resource_seqs: list[list[int]] = []
    case_seqs: list[tuple[int, ...]] = []
    slot = 0
    for r, (n, c) in enumerate(zip(loads, chunks)):
        seq = _sequence(rng, int(n))
        resource_seqs.append(seq)
        t = int(rng.integers(0, _SPAN_S))
        times = t + np.cumsum(rng.integers(60, 14400, size=n))
        cuts = np.sort(rng.choice(np.arange(1, n), size=c - 1, replace=False)) if c > 1 else []
        group = _GROUPS[r % len(_GROUPS)]
        for part in np.split(np.arange(n), cuts):
            case = case_slots[slot]
            impact = _IMPACTS[int(rng.integers(0, len(_IMPACTS)))]
            cases[case] = [
                (f"1-{case_ids[case]:09d}", seq[i], f"res-{r:04d}", int(times[i]), group, impact)
                for i in part
            ]
            case_seqs.append(tuple(seq[i] for i in part))
            slot += 1
    for case in rng.choice(N_CASES, size=N_DROPPED):
        first = cases[case][0]
        activity = int(rng.choice(N_ACTIVITIES, p=_POPULARITY))
        cases[case].append((first[0], activity, "", first[3] + 1, first[4], first[5]))
    events = [ev for case in cases for ev in sorted(case, key=lambda ev: ev[3])]
    shape = _shape(resource_seqs, case_seqs, len(events) - N_EVENTS)
    return events, shape


def _shape(resource_seqs: list[list[int]], case_seqs: list[tuple], dropped: int) -> LogShape:
    lens = np.array([len(s) for s in resource_seqs], dtype=float)
    distinct = np.array([len(set(s)) for s in resource_seqs], dtype=float)
    spec = []
    for seq in resource_seqs:
        p = np.bincount(seq) / len(seq)
        p = p[p > 0]
        spec.append(1.0 - float(-(p * np.log(p)).sum()) / math.log(N_ACTIVITIES))
    return LogShape(
        n_cases=len(case_seqs),
        n_events=int(lens.sum()),
        n_activities=len({a for s in resource_seqs for a in s}),
        n_resources=len(resource_seqs),
        n_dropped=dropped,
        avg_seq_len_per_resource=float(lens.mean()),
        avg_specialization=float(np.mean(spec)),
        avg_repetition=float(np.mean((lens - distinct) / distinct)),
        variant_resource_ratio=len({tuple(s) for s in resource_seqs}) / len(resource_seqs),
        variant_case_ratio=len(set(case_seqs)) / len(case_seqs),
    )


def check_pins(shape: LogShape) -> list[str]:
    """Differences between the pinned counts and those of ``shape``."""
    pins = {
        "n_cases": N_CASES,
        "n_events": N_EVENTS,
        "n_activities": N_ACTIVITIES,
        "n_resources": N_RESOURCES,
        "n_dropped": N_DROPPED,
    }
    return [
        f"{key}: expected {want}, got {getattr(shape, key)}"
        for key, want in pins.items()
        if getattr(shape, key) != want
    ]


def _write_xes(events: list[tuple], path: Path) -> None:
    parts = [
        '<?xml version="1.0" encoding="UTF-8" ?>\n'
        '<log xes.version="1.0" xes.features="nested-attributes" '
        'openxes.version="1.0RC7" xmlns="http://www.xes-standard.org/">\n'
        '\t<extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>\n'
        '\t<extension name="Time" prefix="time" uri="http://www.xes-standard.org/time.xesext"/>\n'
        '\t<extension name="Organizational" prefix="org" uri="http://www.xes-standard.org/org.xesext"/>\n'
    ]
    current = None
    for case, activity, resource, seconds, group, impact in events:
        if case != current:
            if current is not None:
                parts.append("\t</trace>\n")
            parts.append(f'\t<trace>\n\t\t<string key="concept:name" value="{case}"/>\n')
            current = case
        res = f'\t\t\t<string key="org:resource" value="{resource}"/>\n' if resource else ""
        parts.append(
            "\t\t<event>\n"
            f'\t\t\t<string key="concept:name" value="{ACTIVITIES[activity]}"/>\n'
            f"{res}"
            f'\t\t\t<date key="time:timestamp" value="{_stamp(seconds)}"/>\n'
            f'\t\t\t<string key="org:group" value="{group}"/>\n'
            f'\t\t\t<string key="impact" value="{impact}"/>\n'
            "\t\t</event>\n"
        )
    parts.append("\t</trace>\n</log>\n")
    with gzip.open(path, "wb", compresslevel=6) as handle:
        handle.write("".join(parts).encode("utf-8"))


def _write_csv(events: list[tuple], path: Path) -> None:
    lines = ["case,activity,resource,timestamp,org_group,impact\n"]
    for case, activity, resource, seconds, group, impact in events:
        lines.append(
            f"{case},{ACTIVITIES[activity]},{resource},{_stamp(seconds)},{group},{impact}\n"
        )
    path.write_text("".join(lines), encoding="utf-8")


def generate(seed: int, out_dir: Path) -> tuple[Path, Path, LogShape]:
    """Write ``log.xes.gz`` and ``log.csv`` under out_dir; raise if a pin is missed."""
    events, shape = build_events(seed)
    missed = check_pins(shape)
    if missed:
        raise RuntimeError("generated log misses its pinned counts: " + "; ".join(missed))
    out_dir.mkdir(parents=True, exist_ok=True)
    xes_path, csv_path = out_dir / "log.xes.gz", out_dir / "log.csv"
    _write_xes(events, xes_path)
    _write_csv(events, csv_path)
    return xes_path, csv_path, shape
