from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resnap import (
    PrefixDataset,
    ResourceView,
    SelectedBigrams,
    ValidationError,
    bigram_count_columns,
    build_prefix_dataset,
    capability_map,
    count_2grams,
    encode_s2g,
    encode_s2gr,
    encode_scap,
    encode_seq_only,
    mutual_information,
    run_features,
    select_top_k,
)
from resnap.encodings import _mutual_informations

from conftest import make_log
from oracles import (
    reference_bigram_block,
    reference_bigram_count_columns,
    reference_mutual_information,
    reference_select_top_k,
)

A, B, C = 0, 1, 2


def dataset(*prefix_target_pairs):
    samples = np.array([list(p) + [t] for p, t in prefix_target_pairs], dtype=np.int64)
    resource_ids = tuple(f"r{i}" for i in range(len(samples)))
    return PrefixDataset(samples.shape[1] - 1, resource_ids, samples, ("A", "B", "C"))


# --- SeqOnly ---------------------------------------------------------------


def test_encode_seq_only_direct_mapping():
    ds = dataset(([A, B], C))
    enc = encode_seq_only(ds)
    assert enc.feature_names == ("pos_1", "pos_2")
    assert enc.rows.tolist() == [[0.0, 1.0]]
    assert enc.targets.tolist() == [2]
    assert enc.encoding_id == "SeqOnly"


def test_encode_seq_only_single_column():
    enc = encode_seq_only(dataset(([B], A)))
    assert enc.rows.shape == (1, 1)


def test_encode_seq_only_rows_decode_to_prefixes():
    ds = dataset(([A, B], C), ([C, C], A))
    enc = encode_seq_only(ds)
    for row, prefix in zip(enc.rows, ds.prefixes.tolist()):
        assert [int(v) for v in row] == prefix


# --- capability map ----------------------------------------------------------


def test_capability_map_membership():
    log = make_log(
        [
            ("c1", "A", "r1", 1),
            ("c2", "C", "r1", 2),
            ("c3", "B", "r2", 3),
        ]
    )
    cap = capability_map(log)
    assert cap.activities == ("A", "B", "C")
    assert cap.vector_for("r1") == (1, 0, 1)


def test_capability_map_full_performer_is_all_ones():
    log = make_log([("c1", "A", "r1", 1), ("c1", "B", "r1", 2), ("c1", "C", "r1", 3)])
    assert capability_map(log).vector_for("r1") == (1, 1, 1)


def test_capability_vector_length_is_alphabet_size(tiny_log):
    cap = capability_map(tiny_log)
    for rid in tiny_log.resource_set:
        assert len(cap.vector_for(rid)) == len(tiny_log.activity_alphabet)


# --- SCap ---------------------------------------------------------------------


def scap_fixture():
    log = make_log(
        [
            ("c1", "A", "r0", 1),
            ("c2", "C", "r0", 2),
            ("c3", "A", "r1", 3),
            ("c3", "B", "r1", 4),
            ("c3", "C", "r1", 5),
        ]
    )
    return capability_map(log)


def test_encode_scap_width():
    ds = dataset(([A, A], B), ([B, C], A))
    enc = encode_scap(ds, scap_fixture())
    assert enc.rows.shape == (2, 5)


def test_encode_scap_concatenates_capabilities():
    ds = dataset(([A, A], B))
    enc = encode_scap(ds, scap_fixture())
    assert enc.rows[0].tolist() == [0.0, 0.0, 1.0, 0.0, 1.0]


def test_encode_scap_distinguishes_resources_with_same_prefix():
    ds = dataset(([A, A], B), ([A, A], B))
    enc = encode_scap(ds, scap_fixture())
    assert enc.rows[0].tolist() != enc.rows[1].tolist()


def test_encode_scap_columns_are_binary(tiny_log):
    view = ResourceView(("A", "B", "C"), {"r1": (A, C, B), "r2": (B, A)})
    ds = build_prefix_dataset(view, 1)
    enc = encode_scap(ds, capability_map(tiny_log))
    cap_cols = enc.rows[:, ds.prefix_length :]
    assert set(np.unique(cap_cols)) <= {0.0, 1.0}


# --- 2-grams ---------------------------------------------------------------


def test_count_2grams_alternating():
    assert count_2grams(["A", "B", "A", "B"]) == {("A", "B"): 2, ("B", "A"): 1}


def test_count_2grams_constant():
    assert count_2grams(["A", "A", "A"]) == {("A", "A"): 2}


def test_count_2grams_single_element():
    assert count_2grams(["A"]) == {}


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40))
def test_count_2grams_sums_to_length_minus_one(prefix):
    assert sum(count_2grams(prefix).values()) == len(prefix) - 1


# --- mutual information -------------------------------------------------------


def test_mutual_information_constant_column_is_zero():
    assert mutual_information([1, 1, 1, 1], [0, 1, 0, 1]) == 0.0


def test_mutual_information_identical_balanced_binary_is_ln2():
    column = [0, 1, 0, 1, 0, 1]
    assert mutual_information(column, column) == pytest.approx(math.log(2), abs=1e-9)


def test_mutual_information_invariant_under_recoding():
    column = [0, 1, 2, 0, 1, 2, 0, 0]
    targets = [0, 0, 1, 1, 0, 1, 0, 1]
    recoded = [{0: 7, 1: 3, 2: 5}[v] for v in column]
    assert mutual_information(column, targets) == pytest.approx(
        mutual_information(recoded, targets), abs=1e-12
    )


def test_mutual_information_length_mismatch_raises():
    with pytest.raises(ValidationError):
        mutual_information([1, 2], [1])


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=30),
)
def test_mutual_information_nonnegative_and_symmetric(values):
    targets = [(v * 7 + i) % 3 for i, v in enumerate(values)]
    mi = mutual_information(values, targets)
    assert mi >= 0.0
    assert mi == pytest.approx(mutual_information(targets, values), abs=1e-9)


# --- selection -----------------------------------------------------------------


def test_select_top_k_returns_all_when_fewer_than_k():
    columns = {(A, B): [1, 0, 1], (B, A): [0, 1, 0], (A, A): [2, 2, 2]}
    selected = select_top_k(columns, [0, 1, 0], k=20)
    assert set(selected.bigrams) == set(columns)


def test_select_top_k_prefers_predictive_column():
    columns = {(B, C): [1, 1, 1, 1], (A, B): [0, 1, 0, 1]}
    selected = select_top_k(columns, [0, 1, 0, 1], k=1)
    assert selected.bigrams == ((A, B),)


def test_select_top_k_tie_breaks_lexicographically():
    columns = {(B, A): [0, 1, 0, 1], (A, B): [0, 1, 0, 1]}
    selected = select_top_k(columns, [0, 1, 0, 1], k=1)
    assert selected.bigrams == ((A, B),)


def test_selection_is_deterministic():
    prefixes = [(A, B, A), (B, B, C), (C, A, A), (A, A, B)]
    targets = [0, 1, 2, 0]
    first = select_top_k(bigram_count_columns(prefixes), targets, k=3)
    second = select_top_k(bigram_count_columns(prefixes), targets, k=3)
    assert first == second


def test_bigram_count_columns_covers_observed_universe():
    columns = bigram_count_columns([(A, B), (B, B)])
    assert sorted(columns) == [(A, B), (B, B)]
    assert columns[(A, B)].tolist() == [1, 0]


# --- S2g -------------------------------------------------------------------------


def test_encode_s2g_appends_counts():
    ds = dataset(([A, B, A, B], C))
    enc = encode_s2g(ds, SelectedBigrams(((A, B),)))
    assert enc.rows[0].tolist() == [0.0, 1.0, 0.0, 1.0, 2.0]
    assert enc.feature_names[-1] == "2g_A->B"


def test_encode_s2g_empty_selection_equals_seq_only():
    ds = dataset(([A, B, A, B], C))
    s2g = encode_s2g(ds, SelectedBigrams(()))
    seq = encode_seq_only(ds)
    assert s2g.rows.tolist() == seq.rows.tolist()
    assert s2g.feature_names == seq.feature_names


def test_encode_s2g_width():
    ds = dataset(([A, B, A], C))
    enc = encode_s2g(ds, SelectedBigrams(((A, B), (B, A))))
    assert enc.rows.shape[1] == 3 + 2


# --- run features ----------------------------------------------------------------


def test_run_features_blocks():
    assert run_features(["A", "A", "B", "B", "B", "A"]) == (3, 2.0)


def test_run_features_single_block():
    assert run_features(["A", "A", "A", "A"]) == (1, 4.0)


def test_run_features_alternating():
    assert run_features(["A", "B", "A", "B"]) == (4, 1.0)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=40))
def test_run_features_invariants(prefix):
    n_runs, avg = run_features(prefix)
    assert 1 <= n_runs <= len(prefix)
    assert n_runs * avg == pytest.approx(len(prefix), abs=1e-9)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=30))
def test_run_features_invariant_under_renaming(prefix):
    renamed = [{0: 5, 1: 9, 2: 7}[v] for v in prefix]
    assert run_features(prefix) == run_features(renamed)


# --- S2gR ------------------------------------------------------------------------


def test_encode_s2gr_composes_s2g_and_runs():
    ds = dataset(([A, A, B, B, B, A], C))
    selection = SelectedBigrams(((A, B),))
    enc = encode_s2gr(ds, selection)
    s2g = encode_s2g(ds, selection)
    assert enc.rows[0, :-2].tolist() == s2g.rows[0].tolist()
    assert enc.rows[0, -2:].tolist() == [3.0, 2.0]
    assert enc.feature_names[-2:] == ("n_runs", "avg_run_len")


def test_encode_s2gr_constant_prefix():
    ds = dataset(([B, B, B, B], A))
    enc = encode_s2gr(ds, SelectedBigrams(()))
    assert enc.rows[0, -2:].tolist() == [1.0, 4.0]


def test_encode_s2gr_alternating_prefix():
    ds = dataset(([A, B, A, B], C))
    enc = encode_s2gr(ds, SelectedBigrams(()))
    assert enc.rows[0, -2:].tolist() == [4.0, 1.0]


def test_encode_s2gr_width():
    ds = dataset(([A, B, A], C))
    enc = encode_s2gr(ds, SelectedBigrams(((A, B),)))
    assert enc.rows.shape[1] == 3 + 1 + 2


# --- array encodings against the Counter references ------------------------------


def seeded_prefixes(seed: int) -> tuple[np.ndarray, list[int]]:
    """A prefix matrix and targets; small alphabets and short prefixes make many
    bigram columns identical, so their mutual informations tie."""
    rng = np.random.default_rng(seed)
    n, length, k = int(rng.integers(1, 80)), int(rng.integers(1, 9)), int(rng.integers(1, 6))
    prefixes = rng.integers(0, k, size=(n, length))
    if seed % 3 == 0:  # a repeated pattern: (0, 1) and (1, 2) occur in the same rows
        prefixes[: n // 2, :3] = [0, 1, 2][:length]
    return prefixes, rng.integers(0, int(rng.integers(1, 5)), size=n).tolist()


SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_bigram_count_columns_match_the_counter_reference(seed):
    prefixes, _ = seeded_prefixes(seed)
    columns = bigram_count_columns(prefixes)
    reference = reference_bigram_count_columns(prefixes.tolist())
    assert list(columns) == list(reference)
    assert {bg: col.tolist() for bg, col in columns.items()} == reference


@pytest.mark.parametrize("seed", SEEDS)
def test_selection_scores_and_ties_match_the_counter_reference(seed):
    prefixes, targets = seeded_prefixes(seed)
    columns = bigram_count_columns(prefixes)
    if not columns:
        return
    scores = _mutual_informations(np.array(list(columns.values())), targets)
    reference = reference_bigram_count_columns(prefixes.tolist())
    assert scores == [reference_mutual_information(col, targets) for col in reference.values()]
    for k in (0, 1, 3, len(columns)):
        assert select_top_k(columns, targets, k).bigrams == reference_select_top_k(
            reference, targets, k
        )


def test_seeded_prefix_sets_hold_mutual_information_ties():
    tied = 0
    for seed in SEEDS:
        prefixes, targets = seeded_prefixes(seed)
        columns = reference_bigram_count_columns(prefixes.tolist())
        scores = [reference_mutual_information(col, targets) for col in columns.values()]
        tied += len(scores) - len(set(scores))
    assert tied > 50


@given(
    st.lists(st.integers(min_value=-3, max_value=10**12), min_size=1, max_size=30),
    st.randoms(use_true_random=False),
)
def test_mutual_information_matches_the_counter_reference(column, rnd):
    targets = [rnd.choice("abc") for _ in column]
    assert mutual_information(column, targets) == reference_mutual_information(column, targets)


@pytest.mark.parametrize("seed", SEEDS)
def test_bigram_and_run_blocks_match_the_counter_reference(seed):
    prefixes, targets = seeded_prefixes(seed)
    ds = PrefixDataset(
        prefixes.shape[1], tuple(f"r{i}" for i in range(len(prefixes))),
        np.column_stack([prefixes, targets]), tuple("ABCDEFG"),
    )
    train = list(range(0, len(prefixes), 2))
    selection = select_top_k(bigram_count_columns(prefixes[train]), [targets[i] for i in train], 4)
    bigrams = selection.bigrams + ((6, 6),)  # one bigram no prefix holds
    selection = SelectedBigrams(bigrams)
    block = reference_bigram_block(prefixes.tolist(), bigrams)
    runs = [run_features(p) for p in prefixes.tolist()]
    expected = np.hstack([prefixes, block, runs]).astype(float)
    assert encode_s2gr(ds, selection).rows.tobytes() == expected.tobytes()
    s2g = encode_s2g(ds, selection).rows
    assert s2g.tobytes() == expected[:, : s2g.shape[1]].copy().tobytes()


def test_bigram_count_columns_of_no_prefixes_is_empty():
    assert bigram_count_columns([]) == {}


@pytest.mark.parametrize(
    "column",
    [
        [(1, 2), (1, 2), (3,), (1, 2)],  # tuples are single categories
        ["1", 1, 1.0, True],  # "1" is its own category; 1, 1.0 and True are one
        [None, "a", None, 2],
    ],
)
def test_mutual_information_takes_any_hashable_values(column):
    targets = ["x", 0, "x", 0]
    assert mutual_information(column, targets) == reference_mutual_information(column, targets)
    assert mutual_information(targets, column) == reference_mutual_information(targets, column)
