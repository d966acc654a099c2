from __future__ import annotations

import numpy as np
import pytest

from resnap import (
    ConfigError,
    ExperimentConfig,
    LabelEncoder,
    PrefixDataset,
    PrefixSample,
    ValidationError,
    accuracy,
    handle_rare_classes,
    run_experiment,
    stratified_split,
)
from resnap.experiment import RARE_LABEL

from synth import run_structured_log

ENC = LabelEncoder(("A", "B", "C"))


def dataset_with_targets(targets, prefix=(0,)):
    samples = tuple(
        PrefixSample(resource_id=f"r{i}", prefix=tuple(prefix), target=t)
        for i, t in enumerate(targets)
    )
    return PrefixDataset(prefix_length=len(prefix), samples=samples, encoder=ENC)


# --- rare classes -----------------------------------------------------------


def test_single_rare_class_is_duplicated():
    ds = handle_rare_classes(dataset_with_targets([0, 0, 1]))
    assert [s.target for s in ds.samples] == [0, 0, 1, 1]
    assert ds.samples[-1] == ds.samples[2]


def test_multiple_rare_classes_merge_into_placeholder():
    ds = handle_rare_classes(dataset_with_targets([0, 0, 1, 2]))
    rare_id = ds.encoder.encode(RARE_LABEL)
    assert [s.target for s in ds.samples] == [0, 0, rare_id, rare_id]
    assert ds.encoder.decode(rare_id) == RARE_LABEL


def test_no_rare_classes_is_identity():
    ds = dataset_with_targets([0, 0, 1, 1])
    assert handle_rare_classes(ds) is ds


def test_rare_handling_makes_all_counts_at_least_two():
    for targets in ([0], [0, 1, 2, 2], [0, 1], [2, 2, 1, 0, 0]):
        ds = handle_rare_classes(dataset_with_targets(targets))
        counts = {}
        for s in ds.samples:
            counts[s.target] = counts.get(s.target, 0) + 1
        assert min(counts.values()) >= 2


# --- stratified split ---------------------------------------------------------


def test_split_sizes_per_class():
    ds = dataset_with_targets([0] * 10 + [1] * 10)
    train, test = stratified_split(ds, ratio=0.8, seed=0)
    targets = np.array([s.target for s in ds.samples])
    assert np.sum(targets[test] == 0) == 2
    assert np.sum(targets[test] == 1) == 2
    assert len(train) == 16


def test_split_class_of_two_gives_one_each():
    ds = dataset_with_targets([0, 0, 1, 1])
    train, test = stratified_split(ds, ratio=0.8, seed=3)
    targets = np.array([s.target for s in ds.samples])
    for cls in (0, 1):
        assert np.sum(targets[test] == cls) == 1
        assert np.sum(targets[train] == cls) == 1


def test_split_partitions_indices():
    ds = dataset_with_targets([0, 1, 0, 1, 0, 1, 0, 1])
    train, test = stratified_split(ds, ratio=0.8, seed=9)
    combined = np.sort(np.concatenate([train, test]))
    assert combined.tolist() == list(range(8))
    assert len(np.intersect1d(train, test)) == 0


def test_split_requires_rare_handling_first():
    ds = dataset_with_targets([0, 0, 1])
    with pytest.raises(ValidationError):
        stratified_split(ds)


def test_split_is_seed_deterministic():
    ds = dataset_with_targets([0, 1] * 20)
    first = stratified_split(ds, seed=5)
    second = stratified_split(ds, seed=5)
    assert first[0].tolist() == second[0].tolist()
    assert first[1].tolist() == second[1].tolist()


# --- accuracy --------------------------------------------------------------------


def test_accuracy_identical():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0


def test_accuracy_disjoint():
    assert accuracy([1, 1], [2, 2]) == 0.0


def test_accuracy_three_of_four():
    assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75


def test_accuracy_shape_mismatch_raises():
    with pytest.raises(ValidationError):
        accuracy([1], [1, 2])


# --- runner -----------------------------------------------------------------------

FAST_GRIDS = {
    "forest": {
        "n_estimators": [5],
        "max_depth": [4],
        "min_samples_split": [2],
        "min_samples_leaf": [1],
        "bootstrap": [True],
    },
    "boosted": {
        "n_estimators": [5],
        "max_depth": [2],
        "learning_rate": [0.1],
        "subsample": [1.0],
        "colsample": [1.0],
    },
}


def small_config(**overrides):
    defaults = dict(
        dataset_id="synthetic",
        prefix_candidates=(5,),
        min_resources=10,
        encodings=("SeqOnly", "S2gR"),
        models=("majority", "forest"),
        seed=11,
        grids=FAST_GRIDS,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def small_log():
    return run_structured_log(n_resources=40, events_per_resource=10, seed=7)


def test_run_experiment_produces_product_of_cells(small_log):
    records = run_experiment(small_log, small_config())
    assert len(records) == 2 * 2  # encodings x models, one prefix length
    keys = {(r.encoding, r.model) for r in records}
    assert keys == {("SeqOnly", "majority"), ("SeqOnly", "forest"),
                    ("S2gR", "majority"), ("S2gR", "forest")}


def test_run_experiment_is_deterministic(small_log):
    first = run_experiment(small_log, small_config())
    second = run_experiment(small_log, small_config())
    strip = lambda r: (r.dataset, r.model, r.encoding, r.prefix_length, r.accuracy,
                       r.n_train, r.n_test, r.leakage_fraction, r.best_params, r.status)
    assert [strip(r) for r in first] == [strip(r) for r in second]


def test_run_experiment_shares_split_across_cells(small_log):
    records = run_experiment(small_log, small_config())
    by_cell = {(r.encoding, r.model): r for r in records}
    sizes = {(r.n_train, r.n_test, r.leakage_fraction) for r in records}
    assert len(sizes) == 1  # identical split in every cell
    assert by_cell[("SeqOnly", "majority")].accuracy == by_cell[("S2gR", "majority")].accuracy


def test_run_experiment_unknown_encoding_is_config_error(small_log):
    with pytest.raises(ConfigError, match="encoding"):
        run_experiment(small_log, small_config(encodings=("SeqOnly", "OneHot")))


def test_run_experiment_unknown_model_is_config_error(small_log):
    with pytest.raises(ConfigError, match="model"):
        run_experiment(small_log, small_config(models=("forest", "lstm")))


def test_run_experiment_empty_grid_names_min_resources(small_log):
    with pytest.raises(ConfigError, match="min_resources=500"):
        run_experiment(small_log, small_config(min_resources=500))


def test_run_experiment_timeout_marks_cell_failed(small_log):
    records = run_experiment(small_log, small_config(cell_timeout=1e-9))
    assert all(r.status == "failed" for r in records)
    assert all(r.accuracy is None for r in records)


def test_run_experiment_worker_pool_matches_serial(small_log):
    serial = run_experiment(small_log, small_config())
    parallel = run_experiment(small_log, small_config(workers=2))
    strip = lambda r: (r.dataset, r.model, r.encoding, r.prefix_length, r.accuracy, r.status)
    assert [strip(r) for r in serial] == [strip(r) for r in parallel]


def test_run_experiment_rejects_bad_ratio(small_log):
    with pytest.raises(ConfigError):
        run_experiment(small_log, small_config(split_ratio=1.0))


def test_config_requires_encodings_and_models(small_log):
    with pytest.raises(ConfigError):
        run_experiment(small_log, small_config(encodings=()))
    with pytest.raises(ConfigError):
        run_experiment(small_log, small_config(models=()))


def test_majority_cell_accuracy_is_test_frequency_of_train_majority(small_log):
    from resnap import (
        build_prefix_dataset,
        fit_label_encoder,
        handle_rare_classes,
        resource_view,
    )

    records = run_experiment(small_log, small_config(models=("majority",)))
    ds = handle_rare_classes(
        build_prefix_dataset(resource_view(small_log), 5, fit_label_encoder(small_log))
    )
    from resnap.seeding import derive_seed

    train, test = stratified_split(ds, 0.8, derive_seed(11, "synthetic", 5, "split"))
    targets = np.array([s.target for s in ds.samples])
    counts = np.bincount(targets[train])
    majority = int(np.flatnonzero(counts == counts.max()).min())
    expected = float(np.mean(targets[test] == majority))
    for r in records:
        assert r.accuracy == pytest.approx(expected)
