"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 5 and 6 are data-gated: they run only when the public
BPIC2013-incidents log is available (RESNAP_BPIC2013 env var or a
matching file under data/).
"""
from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from resnap import (
    ExperimentConfig,
    PrefixDataset,
    ResourceView,
    accuracy,
    bigram_count_columns,
    build_prefix_dataset,
    count_2grams,
    encode_s2gr,
    encode_seq_only,
    handle_rare_classes,
    mutual_information,
    parse_xes,
    profile,
    repetition,
    resource_view,
    run_experiment,
    run_features,
    select_top_k,
    specialization,
    stratified_split,
    variant_ratio,
)
from resnap.cli import main as cli_main
from resnap.experiment import RARE_LABEL
from resnap.models import DecisionTree, GradientBoostedTrees, RandomForest
from resnap.seeding import derive_seed

from oracles import brute_force_root_split
from synth import run_structured_log
from test_cli import write_config, write_fixture_csv

TOL = 1e-9

PROPERTY_CASES = settings(
    max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def report(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


def _bpic2013_path() -> Path | None:
    env = os.environ.get("RESNAP_BPIC2013")
    if env and Path(env).exists():
        return Path(env)
    for pattern in ("*BPIC*13*incident*", "*bpic*13*incident*", "*BPIC13*", "*bpic2013*"):
        for candidate in Path("data").glob(pattern):
            return candidate
    return None


BPIC2013 = _bpic2013_path()
needs_bpic2013 = pytest.mark.skipif(
    BPIC2013 is None, reason="BPIC2013-incidents log not present (data-gated)"
)


# --- criterion 1: metric oracle suite ----------------------------------------------


def test_criterion_1_metric_oracles():
    start = time.perf_counter()
    # specialization
    assert abs(specialization(["A", "A", "B", "B"], 4) - 0.5) < TOL
    assert abs(specialization(["A", "A", "A"], 4) - 1.0) < TOL
    assert abs(specialization(["A", "B", "C", "D"], 4) - 0.0) < TOL
    # repetition
    assert abs(repetition(["A", "A", "A"]) - 2.0) < TOL
    assert abs(repetition(["A", "A", "B", "B", "B"]) - 1.5) < TOL
    assert abs(repetition(["A", "B", "C"]) - 0.0) < TOL
    # run features
    n_runs, avg_run = run_features(["A", "A", "B", "B", "B", "A"])
    assert n_runs == 3 and abs(avg_run - 2.0) < TOL
    assert run_features(["A", "A", "A", "A"]) == (1, 4.0)
    assert run_features(["A", "B", "A", "B"]) == (4, 1.0)
    # 2-gram counts
    assert count_2grams(["A", "B", "A", "B"]) == {("A", "B"): 2, ("B", "A"): 1}
    assert count_2grams(["A", "A", "A"]) == {("A", "A"): 2}
    assert count_2grams(["A"]) == {}
    # mutual information
    balanced = [0, 1, 0, 1, 0, 1]
    assert abs(mutual_information(balanced, balanced) - math.log(2)) < TOL
    assert abs(mutual_information([1, 1, 1, 1], [0, 1, 0, 1])) < TOL
    # variant ratio
    abc = ("A", "B", "C")
    assert abs(variant_ratio(ResourceView(abc, {"r1": (0, 1, 2), "r2": (0, 1, 2)})) - 0.5) < TOL
    assert abs(variant_ratio(ResourceView(abc, {"r1": (0,), "r2": (1,), "r3": (2,)})) - 1.0) < TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"metric oracle suite took {elapsed:.2f}s"
    report(1, "metric oracle suite")


# --- criterion 2: tree-learner oracle equivalence ------------------------------------


def test_criterion_2_tree_oracle_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(20240517)
    matches = 0
    for trial in range(500):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 3))
        n_classes = int(rng.integers(2, 4))
        if rng.random() < 0.5:
            X = rng.integers(0, 3, size=(n, d)).astype(float)
        else:
            X = np.round(rng.normal(size=(n, d)), 1)
        y = rng.integers(0, n_classes, size=n)
        got = DecisionTree().fit(X, y).root_split()
        want = brute_force_root_split(X, y)
        assert got == want, f"trial {trial}: tree {got} oracle {want}\nX={X}\ny={y}"
        matches += 1
    elapsed = time.perf_counter() - start
    assert matches == 500
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.2f}s"
    report(2, "tree-learner oracle equivalence, 500/500")


# --- criterion 3: property suite (>= 1000 randomized cases each) ----------------------


def _dataset_from_targets(targets):
    samples = np.array([[0, t] for t in targets], dtype=np.int64)
    return PrefixDataset(1, tuple(f"r{i}" for i in range(len(targets))), samples, ("A", "B", "C"))


def test_criterion_3_split_partition_and_proportions():
    @PROPERTY_CASES
    @given(
        counts=st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def check(counts, seed):
        targets = [cls for cls, n in enumerate(counts) for _ in range(n)]
        ds = _dataset_from_targets(targets)
        train, test = stratified_split(ds, ratio=0.8, seed=seed)
        combined = np.sort(np.concatenate([train, test]))
        assert combined.tolist() == list(range(len(targets)))
        assert len(np.intersect1d(train, test)) == 0
        arr = np.array(targets)
        for cls, n in enumerate(counts):
            assert np.sum(arr[test] == cls) == max(1, round(0.2 * n))

    check()
    report(3, "split partitioning and per-class proportions")


def test_criterion_3_rare_class_rules():
    @PROPERTY_CASES
    @given(targets=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=12))
    def check(targets):
        ds = _dataset_from_targets(targets)
        out = handle_rare_classes(ds)
        before = {t: targets.count(t) for t in set(targets)}
        singles = sorted(t for t, c in before.items() if c == 1)
        after = out.targets.tolist()
        if not singles:
            assert out is ds
        elif len(singles) == 1:
            assert len(after) == len(targets) + 1
            assert after.count(singles[0]) == 2
        else:
            rare_id = len(ds.activities)
            assert out.activities[rare_id] == RARE_LABEL
            assert after.count(rare_id) == len(singles)
        counts = {t: after.count(t) for t in set(after)}
        assert min(counts.values()) >= 2

    check()
    report(3, "rare-class handling rules")


def test_criterion_3_run_feature_identity():
    @PROPERTY_CASES
    @given(prefix=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=50))
    def check(prefix):
        n_runs, avg_run = run_features(prefix)
        assert 1 <= n_runs <= len(prefix)
        assert abs(n_runs * avg_run - len(prefix)) < TOL

    check()
    report(3, "n_runs * avg_run_length = L")


def test_criterion_3_bigram_count_total():
    @PROPERTY_CASES
    @given(prefix=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=50))
    def check(prefix):
        assert sum(count_2grams(prefix).values()) == len(prefix) - 1

    check()
    report(3, "sum of 2-gram counts = L - 1")


def test_criterion_3_mutual_information_properties():
    @PROPERTY_CASES
    @given(
        column=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30),
        shift=st.integers(min_value=0, max_value=4),
    )
    def check(column, shift):
        targets = [(v + shift + i % 2) % 3 for i, v in enumerate(column)]
        mi = mutual_information(column, targets)
        assert mi >= 0.0
        assert abs(mi - mutual_information(targets, column)) < TOL
        constant = [7] * len(column)
        assert mutual_information(constant, targets) == 0.0

    check()
    report(3, "mutual information non-negativity and symmetry")


def test_criterion_3_seed_determinism():
    @PROPERTY_CASES
    @given(
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**31),
        kind=st.sampled_from(["tree", "forest", "boosted", "split"]),
    )
    def check(data, seed, kind):
        n = data.draw(st.integers(min_value=4, max_value=12))
        X = np.array(
            data.draw(
                st.lists(
                    st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=float,
        )
        y = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        if kind == "split":
            ds = _dataset_from_targets(np.repeat(y[: max(2, n // 2)], 2).tolist())
            first = stratified_split(ds, seed=seed)
            second = stratified_split(ds, seed=seed)
            assert first[0].tolist() == second[0].tolist()
            assert first[1].tolist() == second[1].tolist()
            return
        if kind == "tree":
            build = lambda: DecisionTree(max_depth=3, max_features=1, seed=seed)
        elif kind == "forest":
            build = lambda: RandomForest(n_estimators=2, max_depth=2, seed=seed)
        else:
            build = lambda: GradientBoostedTrees(
                n_estimators=2, max_depth=2, subsample=0.8, colsample=0.5, seed=seed
            )
        first = build().fit(X, y).predict(X)
        second = build().fit(X, y).predict(X)
        assert first.tolist() == second.tolist()

    check()
    report(3, "determinism under fixed seed")


# --- criterion 4: synthetic directional check -----------------------------------------

SYNTH_GRID = {
    "forest": {
        "n_estimators": [50],
        "max_depth": [None],
        "min_samples_split": [2],
        "min_samples_leaf": [1],
        "bootstrap": [True],
    }
}


def test_criterion_4_synthetic_directional_check():
    start = time.perf_counter()
    log = run_structured_log(n_resources=500, events_per_resource=30, seed=20240301)
    cfg = ExperimentConfig(
        dataset_id="synthetic",
        prefix_candidates=(20,),
        min_resources=100,
        encodings=("SeqOnly", "S2gR"),
        models=("forest",),
        seed=17,
        grids=SYNTH_GRID,
    )
    records = {r.encoding: r for r in run_experiment(log, cfg)}
    seq_acc = records["SeqOnly"].accuracy
    s2gr_acc = records["S2gR"].accuracy
    assert s2gr_acc >= seq_acc, f"S2gR {s2gr_acc} < SeqOnly {seq_acc}"
    assert s2gr_acc >= 0.90, f"S2gR accuracy {s2gr_acc} below 0.90"

    # independent reference-stack confirmation on the identical split/features
    sklearn_rf = pytest.importorskip("sklearn.ensemble")
    view = resource_view(log)
    ds = handle_rare_classes(build_prefix_dataset(view, 20))
    train, test = stratified_split(ds, 0.8, derive_seed(17, "synthetic", 20, "split"))
    prefixes = ds.prefixes.tolist()
    targets = ds.targets.tolist()
    selection = select_top_k(
        bigram_count_columns([prefixes[i] for i in train]),
        [targets[i] for i in train],
        20,
    )
    ref_acc = {}
    for name, encoded in (("SeqOnly", encode_seq_only(ds)), ("S2gR", encode_s2gr(ds, selection))):
        clf = sklearn_rf.RandomForestClassifier(n_estimators=50, random_state=0)
        clf.fit(encoded.rows[train], encoded.targets[train])
        ref_acc[name] = accuracy(clf.predict(encoded.rows[test]), encoded.targets[test])
    assert ref_acc["S2gR"] >= ref_acc["SeqOnly"]
    assert ref_acc["S2gR"] >= 0.90
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"synthetic check took {elapsed:.1f}s"
    report(4, f"synthetic directional check (SeqOnly={seq_acc:.3f}, S2gR={s2gr_acc:.3f})")


# --- criteria 5 and 6: data-gated BPIC2013 reproduction --------------------------------


@needs_bpic2013
def test_criterion_5_bpic2013_profile():
    start = time.perf_counter()
    log = parse_xes(BPIC2013)
    prof = profile(log)
    assert prof.n_cases == 7554
    assert prof.n_events == 65533
    assert prof.n_activities == 13
    assert prof.n_resources == 1440
    assert abs(prof.variant_resource_ratio - 0.62) <= 0.02
    assert abs(prof.variant_case_ratio - 0.20) <= 0.02
    assert abs(prof.avg_specialization - 0.34) <= 0.05
    assert abs(prof.avg_repetition - 43.27) <= 0.1 * 43.27
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"profile took {elapsed:.1f}s"
    report(5, "BPIC2013 profile reproduction")


@needs_bpic2013
def test_criterion_6_bpic2013_s2g_improvement():
    start = time.perf_counter()
    log = parse_xes(BPIC2013)
    cfg = ExperimentConfig(
        dataset_id="bpic2013",
        prefix_candidates=(10,),
        min_resources=100,
        encodings=("SeqOnly", "S2g"),
        models=("forest",),
        seed=17,
        grids={
            "forest": {
                "n_estimators": [100],
                "max_depth": [None, 20],
                "min_samples_split": [2],
                "min_samples_leaf": [1],
                "bootstrap": [True],
            }
        },
    )
    records = {r.encoding: r for r in run_experiment(log, cfg)}
    gap = records["S2g"].accuracy - records["SeqOnly"].accuracy
    assert gap >= 0.10, f"S2g improvement {gap:+.3f} below +0.10"
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"BPIC2013 run took {elapsed:.1f}s"
    report(6, f"BPIC2013 S2g improvement {gap:+.3f}")


# --- criterion 7: byte-identical reruns --------------------------------------------------


def test_criterion_7_run_determinism(tmp_path):
    data = tmp_path / "fixture.csv"
    write_fixture_csv(data)
    config = write_config(tmp_path, data)
    out_a = tmp_path / "first"
    out_b = tmp_path / "second"
    args = ["run", "--config", str(config), "--quiet", "--seed", "9"]
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    names = [
        "records.csv",
        "records.json",
        "accuracy_by_model.csv",
        "accuracy_by_model.json",
        "improvement_over_baseline.csv",
        "improvement_over_baseline.json",
    ]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report(7, "byte-identical result files under a fixed seed")
