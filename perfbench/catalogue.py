"""Print every benchmark metric by name with its unit, direction, layer and baseline.

    python3 perfbench/catalogue.py

Names, units, directions and bounds come from ``BENCHMARK.json``; the
layer of each metric and the end-to-end metrics a layer should move come
from ``metrics.json``; the medians measured on the commit the benchmark
was written against come from ``baseline.json``.
"""
from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _baseline(values: dict, workloads: list[str], name: str) -> str:
    shown = [values.get(w, {}).get(name) for w in workloads]
    return " / ".join("-" if v is None else f"{v:.4g}" for v in shown)


def main() -> int:
    bench = _load(HERE.parent / "BENCHMARK.json")
    info = _load(HERE / "metrics.json")
    baseline = _load(HERE / "baseline.json")
    workloads = [w["name"] for w in bench["workloads"]]
    for w in bench["workloads"]:
        print(f"workload {w['name']}: {w['why']}")
    print(f"\nbaseline ({' / '.join(workloads)}): {baseline['note']}")
    print("\nend-to-end metrics")
    for m in bench["end_to_end"]:
        base = _baseline(baseline["end_to_end"], workloads, m["name"])
        print(f"  {m['name']:<14} {m['unit']:<9} {m['better']:<6} bound {m['bound']:.0%}  baseline {base}")
        print(f"      {info['end_to_end'][m['name']]}")
    print("\nper-layer metrics")
    for m in bench["per_layer"]:
        base = _baseline(baseline["per_layer"], workloads, m["name"])
        print(f"  {m['name']:<34} {m['unit']:<6} {m['better']:<6} baseline {base}")
    print("\nlayers")
    for name, layer in info["layers"].items():
        moves = "; ".join(f"{e} on {', '.join(ws)}" for e, ws in layer["moves"].items()) or "nothing"
        print(f"  {name:<11} {layer['module']:<24} should move {moves}")
        for e, ws in layer.get("no_change", {}).items():
            print(f"  {'':<11} {'':<24} should leave {e} unchanged on {', '.join(ws)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
