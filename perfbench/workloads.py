"""The three benchmark workloads as resnap configs and CLI calls.

Every workload reads the same seeded BPIC13-shaped log. A workload is a
list of CLI operations that one timed iteration performs, in order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from bpic13 import CSV_MAPPING

FOREST_GRID = {
    "n_estimators": [10, 20],
    "max_depth": [None],
    "min_samples_split": [2],
    "min_samples_leaf": [1],
    "bootstrap": [True],
}
BOOST_GRID = {
    "n_estimators": [5, 10],
    "max_depth": [3],
    "learning_rate": [0.1],
    "subsample": [1.0],
    "colsample": [1.0],
}


@dataclass(frozen=True)
class Workload:
    prefix_candidates: tuple[int, ...]
    encodings: tuple[str, ...]
    models: tuple[str, ...]
    workers: int
    grids: dict
    profile_xes: bool  # an iteration profiles the XES.gz before the run

    def config(self, csv_path: Path, xes_path: Path, seed: int) -> dict:
        return {
            "output_dir": "out",
            "seed": seed,
            "datasets": [
                {
                    "id": "bpic13s",
                    "path": str(csv_path),
                    "format": "csv",
                    "prefix_candidates": list(self.prefix_candidates),
                    "csv_mapping": CSV_MAPPING,
                },
                {"id": "bpic13s_xes", "path": str(xes_path), "format": "xes"},
            ],
            "experiment": {
                "encodings": list(self.encodings),
                "models": list(self.models),
                "cv_folds": 3,
                "mi_k": 20,
                "min_resources": 100,
                "split_ratio": 0.8,
                "workers": self.workers,
                "grids": self.grids,
            },
        }

    def write_config(self, path: Path, csv_path: Path, xes_path: Path, seed: int) -> Path:
        path.write_text(json.dumps(self.config(csv_path, xes_path, seed), indent=2))
        return path


WORKLOADS = {
    "ingest": Workload(
        prefix_candidates=(5, 10, 20, 50, 100, 200),
        encodings=("SeqOnly", "SCap", "S2g", "S2gR"),
        models=("majority",),
        workers=1,
        grids={},
        profile_xes=True,
    ),
    "forest-sweep": Workload(
        prefix_candidates=(10, 20),
        encodings=("SeqOnly", "S2gR"),
        models=("majority", "forest"),
        workers=1,
        grids={"forest": FOREST_GRID},
        profile_xes=False,
    ),
    "boost-sweep": Workload(
        prefix_candidates=(10,),
        encodings=("SeqOnly", "S2gR"),
        models=("boosted",),
        workers=2,
        grids={"boosted": BOOST_GRID},
        profile_xes=False,
    ),
}
