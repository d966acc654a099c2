"""Golden fixtures: seeded tree, forest and boosting fits must not drift.

The fixtures under ``tests/golden/`` hold predictions on a probe matrix,
boosting raw scores and per-round training log loss (as ``float.hex``),
the SHA-256 of every fitted model's full ``to_dict()`` (every node array
of every tree), the exact ``records.json`` bytes of a small synthetic
sweep, the ``resnap profile`` JSON and CSV bytes for ``data/demo.csv``
and for a seeded XES document, and the SHA-256 of every encoded matrix
(feature names, rows and targets) of the four encodings. Any refactor
of the learners, of ingestion or of the encodings must reproduce them
bit for bit.

Regenerate (only when a change of results is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""
from __future__ import annotations

import hashlib
import json
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from resnap import (  # noqa: E402
    Event,
    ExperimentConfig,
    bigram_count_columns,
    build_event_log,
    build_prefix_dataset,
    capability_map,
    encode_s2g,
    encode_s2gr,
    encode_scap,
    encode_seq_only,
    handle_rare_classes,
    resource_view,
    run_experiment,
    select_top_k,
    stratified_split,
)
from resnap.cli import main  # noqa: E402
from resnap.models import DecisionTree, GradientBoostedTrees, RandomForest  # noqa: E402
from resnap.reporting import export_records  # noqa: E402
from resnap.seeding import derive_seed  # noqa: E402

from synth import run_structured_log, run_structured_xes  # noqa: E402

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
MODELS_FILE = GOLDEN / "models.json"
RECORDS_FILE = GOLDEN / "synth_records.json"
TREE_ARRAYS_FILE = GOLDEN / "tree_arrays.json"
ENCODINGS_FILE = GOLDEN / "encodings.json"
PROFILE_DATASETS = ("demo", "synth_xes")
PROFILE_FILES = [f"{d}_profile.{ext}" for d in PROFILE_DATASETS for ext in ("json", "csv")]

LEARNERS = {"tree": DecisionTree, "forest": RandomForest, "boosted": GradientBoostedTrees}

CASES = [
    ("tree", {}),
    ("tree", {"max_depth": 3}),
    ("tree", {"min_samples_leaf": 3, "min_samples_split": 5}),
    ("tree", {"max_features": 2}),
    ("forest", {"n_estimators": 7, "bootstrap": True}),
    ("forest", {"n_estimators": 7, "bootstrap": False, "max_depth": 3}),
    ("forest", {"n_estimators": 5, "min_samples_leaf": 2, "max_features": None}),
    ("boosted", {"n_estimators": 8, "max_depth": None}),
    ("boosted", {"n_estimators": 8, "max_depth": 3}),
    ("boosted", {"n_estimators": 8, "max_depth": 3, "subsample": 0.8, "colsample": 0.8}),
]

# fits on a low-cardinality matrix where most rows repeat (the shape of
# bootstrap samples of an encoded prefix matrix); checked by tree arrays only
DUP_CASES = [
    ("tree", {}),
    ("tree", {"min_samples_split": 5, "min_samples_leaf": 2}),
    ("tree", {"max_features": 2}),
    ("forest", {"n_estimators": 7, "bootstrap": True}),
    ("forest", {"n_estimators": 7, "bootstrap": False}),
    ("forest", {"n_estimators": 7, "bootstrap": True, "min_samples_split": 5}),
    ("forest", {"n_estimators": 7, "bootstrap": True, "min_samples_leaf": 2}),
    ("forest", {"n_estimators": 5, "max_features": None, "min_samples_leaf": 2}),
    ("boosted", {"n_estimators": 6, "max_depth": 3}),
    ("boosted", {"n_estimators": 6, "max_depth": 3, "subsample": 0.8, "colsample": 0.8}),
]

SYNTH_GRIDS = {
    "forest": {
        "n_estimators": [5],
        "max_depth": [None, 3],
        "min_samples_split": [2],
        "min_samples_leaf": [1, 2],
        "bootstrap": [True],
    },
    "boosted": {
        "n_estimators": [4],
        "max_depth": [None, 3],
        "learning_rate": [0.1],
        "subsample": [0.8],
        "colsample": [0.8],
    },
}


def _data(kind: str):
    """Training matrix, labels and probe matrix for one data kind."""
    if kind == "dup":
        rng = np.random.default_rng(20240603)
        # 150 rows drawn from 24 distinct ones with 2-3 levels per column;
        # labels are noisy, so a repeated row can carry several classes
        distinct = rng.integers(0, [2, 3, 3, 2, 3, 2], size=(24, 6)).astype(float)
        pick = rng.integers(0, 24, size=150)
        X = distinct[pick]
        y = np.where(rng.random(150) < 0.7, np.array([2, 3, 5, 8])[pick % 4], 3)
        return X, y, distinct
    rng = np.random.default_rng(20240601 if kind == "int" else 20240602)
    if kind == "int":
        X = rng.integers(0, 4, size=(70, 5)).astype(float)
        probe = rng.integers(-1, 5, size=(120, 5)) + rng.choice([0.0, 0.5], size=(120, 5))
    else:
        X = np.round(rng.normal(size=(70, 5)), 2)
        probe = rng.normal(size=(120, 5))
    y = rng.choice([2, 3, 5, 8], size=70)
    # make one column informative so trees grow beyond a stump
    X[:, 1] += (y == 5) * 2.0
    return X, y, probe


def _fit_case(kind: str, params: dict, data: str, seed: int) -> dict:
    X, y, probe = _data(data)
    model = LEARNERS[kind](seed=seed, **params).fit(X, y)
    entry = {
        "kind": kind,
        "params": params,
        "data": data,
        "seed": seed,
        "predictions": [int(v) for v in model.predict(probe)],
    }
    if kind == "boosted":
        entry["train_log_loss"] = [float(v).hex() for v in model.train_log_loss_]
        entry["raw_scores"] = [
            [float(v).hex() for v in row] for row in model._raw_scores(probe[:10])
        ]
    return entry


def _all_cases() -> list[tuple[str, dict, str, int]]:
    return [
        (kind, params, data, seed)
        for i, (kind, params) in enumerate(CASES)
        for data in ("int", "real")
        for seed in (i, 100 + i)
    ]


def _tree_array_cases() -> list[tuple[str, dict, str, int]]:
    dup = [(kind, params, "dup", seed) for i, (kind, params) in enumerate(DUP_CASES)
           for seed in (i, 100 + i)]
    return _all_cases() + dup


def _tree_arrays_digest(kind: str, params: dict, data: str, seed: int) -> str:
    """SHA-256 of the canonical JSON of the fitted model's ``to_dict()``."""
    X, y, _ = _data(data)
    model = LEARNERS[kind](seed=seed, **params).fit(X, y)
    canonical = json.dumps(model.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _synth_records_bytes(out_dir: Path) -> bytes:
    log = run_structured_log(n_resources=150, events_per_resource=16, seed=20240315)
    cfg = ExperimentConfig(
        dataset_id="golden",
        prefix_candidates=(8,),
        min_resources=100,
        encodings=("SeqOnly", "S2gR"),
        models=("forest", "boosted"),
        seed=23,
        cv_folds=2,
        mi_k=10,
        grids=SYNTH_GRIDS,
    )
    return export_records(run_experiment(log, cfg), out_dir / "records.json").read_bytes()


def _profile_bytes(out_dir: Path) -> dict[str, bytes]:
    """``resnap profile`` outputs for the example config's demo CSV and the synthetic XES."""
    example = json.loads((ROOT / "configs" / "example.json").read_text())
    demo = next(d for d in example["datasets"] if d["id"] == "demo")
    xes = out_dir / "synth.xes"
    xes.write_bytes(run_structured_xes())
    config = out_dir / "profile_config.json"
    config.write_text(json.dumps({"datasets": [
        {**demo, "path": str(ROOT / demo["path"])},
        {"id": "synth_xes", "path": str(xes), "format": "xes"},
    ]}))
    for dataset in PROFILE_DATASETS:
        args = ["profile", "--config", str(config), "--dataset", dataset, "--out", str(out_dir)]
        assert main(args + ["--quiet"]) == 0
    return {name: (out_dir / name).read_bytes() for name in PROFILE_FILES}


# hand-made logs for the two rare-class rules at L=3: "dup" has one
# singleton target (C), whose row is appended again; "merge" has two (C, D),
# which are relabelled to the placeholder class
HAND_MADE = {
    "dup": ("ABAB", "ABBAD", "BAAB", "BBAA", "AABC", "CABA", "ACAB"),
    "merge": ("ABAB", "ABBA", "BAAB", "BBAA", "AABC", "CABD", "DACA"),
}
ENCODING_MI_K = 4


def _hand_made_log(sequences):
    start = datetime(2024, 3, 1, tzinfo=timezone.utc)
    events = [
        Event(f"c{r}", activity, f"r{r}", start + timedelta(seconds=j), r * 100 + j)
        for r, seq in enumerate(sequences)
        for j, activity in enumerate(seq)
    ]
    return build_event_log(events)


def _encoding_logs() -> dict[str, tuple]:
    """Per log name: the log and its prefix lengths. "synth" is the golden
    sweep's log at every prefix length it admits, 1 to 15."""
    logs = {"synth": (run_structured_log(n_resources=150, events_per_resource=16, seed=20240315),
                      range(1, 16))}
    logs.update({name: (_hand_made_log(seqs), range(1, 4)) for name, seqs in HAND_MADE.items()})
    return logs


def _encoded_datasets(name: str, log, length: int) -> dict:
    """Each encoding of ``log`` at ``length`` as ``run_experiment`` builds it:
    after rare-class handling, with bigrams selected on the training split."""
    ds = handle_rare_classes(build_prefix_dataset(resource_view(log), length))
    train, _ = stratified_split(ds, 0.8, derive_seed(23, name, length, "split"))
    seq = encode_seq_only(ds)
    train_prefixes = [tuple(int(v) for v in row) for row in seq.rows[train]]
    selection = select_top_k(
        bigram_count_columns(train_prefixes), seq.targets[train].tolist(), ENCODING_MI_K
    )
    return {
        "SeqOnly": seq,
        "SCap": encode_scap(ds, capability_map(log)),
        "S2g": encode_s2g(ds, selection),
        "S2gR": encode_s2gr(ds, selection),
    }


def _encoded_digest(encoded) -> str:
    digest = hashlib.sha256(json.dumps(list(encoded.feature_names)).encode())
    digest.update(encoded.rows.tobytes())
    digest.update(encoded.targets.tobytes())
    return digest.hexdigest()


def _encoding_digests() -> dict[str, str]:
    return {
        f"{name}-L{length}-{encoding}": _encoded_digest(encoded)
        for name, (log, lengths) in _encoding_logs().items()
        for length in lengths
        for encoding, encoded in _encoded_datasets(name, log, length).items()
    }


def _case_id(case) -> str:
    kind, params, data, seed = case
    return f"{kind}-{'-'.join(f'{k}={v}' for k, v in params.items()) or 'default'}-{data}-s{seed}"


@pytest.fixture(scope="module")
def golden_models() -> list[dict]:
    return json.loads(MODELS_FILE.read_text())


@pytest.mark.parametrize("index", range(len(_all_cases())), ids=[_case_id(c) for c in _all_cases()])
def test_model_fit_matches_golden(index, golden_models):
    assert _fit_case(*_all_cases()[index]) == golden_models[index]


@pytest.fixture(scope="module")
def golden_tree_arrays() -> dict[str, str]:
    return json.loads(TREE_ARRAYS_FILE.read_text())


@pytest.mark.parametrize("case", _tree_array_cases(), ids=_case_id)
def test_model_tree_arrays_match_golden(case, golden_tree_arrays):
    assert _tree_arrays_digest(*case) == golden_tree_arrays[_case_id(case)]


def test_synthetic_records_match_golden(tmp_path):
    assert _synth_records_bytes(tmp_path) == RECORDS_FILE.read_bytes()


def test_encoded_matrices_match_golden():
    got = _encoding_digests()
    want = json.loads(ENCODINGS_FILE.read_text())
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"encoded matrices differ: {changed}"


@pytest.mark.parametrize("name", ["dup", "merge"])
def test_hand_made_logs_take_their_rare_class_rule(name):
    log = _hand_made_log(HAND_MADE[name])
    encoded = _encoded_datasets(name, log, 3)["SeqOnly"]
    if name == "dup":
        assert len(encoded.targets) == len(HAND_MADE[name]) + 1
        assert (encoded.rows[-1] == encoded.rows[4]).all()  # the lone C target, again
    else:
        rare_id = len(log.activities)  # the placeholder takes the next free id
        assert len(encoded.targets) == len(HAND_MADE[name])
        assert encoded.targets.tolist().count(rare_id) == 2


@pytest.mark.parametrize("name", PROFILE_FILES)
def test_profile_matches_golden(name, tmp_path):
    assert _profile_bytes(tmp_path)[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    entries = [json.dumps(_fit_case(*c)) for c in _all_cases()]
    MODELS_FILE.write_text("[\n" + ",\n".join(entries) + "\n]\n")
    digests = {_case_id(c): _tree_arrays_digest(*c) for c in _tree_array_cases()}
    TREE_ARRAYS_FILE.write_text(json.dumps(digests, indent=1) + "\n")
    ENCODINGS_FILE.write_text(json.dumps(_encoding_digests(), indent=1) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        RECORDS_FILE.write_bytes(_synth_records_bytes(Path(tmp)))
        for name, data in _profile_bytes(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
    print(f"wrote {MODELS_FILE}, {TREE_ARRAYS_FILE}, {ENCODINGS_FILE}, {RECORDS_FILE} "
          f"and {len(PROFILE_FILES)} profile files")
