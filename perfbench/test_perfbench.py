"""Self-tests of the benchmark: generator pins and self-time arithmetic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bpic13  # noqa: E402
from run import upper_percentile  # noqa: E402
from spans import Recorder, Span, Target, self_times  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
def test_generator_meets_its_pins(seed):
    events, shape = bpic13.build_events(seed)
    assert bpic13.check_pins(shape) == []
    retained = [ev for ev in events if ev[2]]
    assert len(retained) == bpic13.N_EVENTS
    assert len(events) - len(retained) == bpic13.N_DROPPED
    assert len({ev[0] for ev in retained}) == bpic13.N_CASES
    assert len({ev[2] for ev in retained}) == bpic13.N_RESOURCES
    assert len({ev[1] for ev in retained}) == bpic13.N_ACTIVITIES


def test_generator_is_a_function_of_the_seed():
    first, _ = bpic13.build_events(3)
    again, _ = bpic13.build_events(3)
    other, _ = bpic13.build_events(4)
    assert first == again
    assert first != other


def test_loads_are_skewed_and_seed_independent():
    loads = bpic13.resource_loads()
    assert loads.sum() == bpic13.N_EVENTS
    assert loads.min() >= 1
    assert loads.max() > 10 * sorted(loads)[len(loads) // 2]


def test_written_files_reproduce_the_pins(tmp_path):
    from resnap import CsvMapping, parse_csv, parse_xes, profile

    xes, csv, shape = bpic13.generate(5, tmp_path)
    for log in (parse_xes(xes), parse_csv(csv, CsvMapping(**bpic13.CSV_MAPPING))):
        prof = profile(log)
        assert log.dropped_event_count == bpic13.N_DROPPED
        assert (prof.n_cases, prof.n_events, prof.n_activities, prof.n_resources) == (
            shape.n_cases, shape.n_events, shape.n_activities, shape.n_resources,
        )
        assert prof.avg_specialization == pytest.approx(shape.avg_specialization)
        assert prof.avg_repetition == pytest.approx(shape.avg_repetition)
        assert prof.variant_resource_ratio == pytest.approx(shape.variant_resource_ratio)


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "r")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),  # overlaps a: the overlap counts once
        _span("c", 8.0, 12.0, 0),  # runs past the parent: only 8..10 counts
        _span("d", 1.5, 2.5, 1),  # grandchild: charged to a, not to root
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_recorder_self_times_add_up_to_the_root():
    recorder = Recorder()
    with recorder.span("root"):
        with recorder.span("child"):
            with recorder.span("grandchild"):
                sum(range(10000))
        with recorder.span("child"):
            sum(range(10000))
    spans = recorder.spans
    assert [s.parent for s in spans] == [None, 0, 1, 0]
    assert {s.run_id for s in spans} == {recorder.run_id}
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_installed_patches_every_binding_and_restores_them():
    import resnap.experiment
    import resnap.profiling
    from resnap import eventlog

    original = eventlog.resource_view
    recorder = Recorder()
    target = Target("resnap.eventlog", "resource_view", "view")
    with recorder.installed([target]):
        for module in (eventlog, resnap.profiling, resnap.experiment):
            assert module.resource_view.__wrapped__ is original
    assert resnap.profiling.resource_view is original
    assert resnap.experiment.resource_view is original


def test_upper_percentile_needs_ten_samples_beyond_it():
    assert upper_percentile([1.0] * 10) is None
    pct, value = upper_percentile([float(i) for i in range(20)])
    assert pct == 50
    assert value == 9.0  # ten samples, 10.0 to 19.0, lie beyond it
