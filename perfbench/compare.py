#!/usr/bin/env python3
"""Compare two perfbench result files: ``compare.py BASE.json NEW.json``.

Prints one row per (workload, metric) — ``same``, ``better``, ``worse`` or
``unresolved`` — applying the bound the benchmark fixed for each metric,
and exits non-zero on any ``worse``, or when the two files come from the
same sources and seed yet disagree on a ``sim_digest`` (the simulation is
then not deterministic, and no other row can be trusted).

A host-clock row is ``unresolved`` when the run-to-run spread of either
file (``bench.host_s_iqr`` over ``bench.host_s_median``) is wider than the
bound: the comparison cannot tell a change of that size from noise.

Simulated-clock values repeat exactly per seed, so between files of the
same seed any improvement counts as ``better`` and the tighter
``SAME_SEED`` bounds apply; the bounds in ``BENCHMARK.json`` have to be
wide enough for medians over *different* seeds and are used otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional

#: the bounds the benchmark fixed: (name, better, bound) per metric
END_TO_END = [
    (m["name"], m["better"], m["bound"]) for m in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())["end_to_end"]]

#: per-layer metrics that are end-to-end in nature (defined on one
#: workload, 0 elsewhere): name -> (better, relative bound, absolute bound)
SPECIAL = {
    "failed_ops_share": ("lower", 0.0, 0.001),
    "sim_slo_rate_ops_s": ("higher", 0.0, 0.0),     # any rung lost
    "sim_unavail_s": ("lower", 0.05, 0.0),
    "sim_rejoin_s": ("lower", 0.05, 0.0),
}
#: simulated-clock bounds between two files of one seed
SAME_SEED = {"sim_p50_ms": 0.02, "sim_p99_ms": 0.05, "sim_ops_per_s": 0.02}
#: setup is a few milliseconds on two workloads; below this many seconds a
#: difference is timer noise whatever its ratio
SETUP_ABS_S = 0.05
HOST_CLOCK = ("setup_s", "host_ops_per_s")


def verdict(name: str, better: str, rel_bound: float, abs_bound: float,
            base: float, new: float, spread: Optional[float]) -> str:
    worsening = (new - base) if better == "lower" else (base - new)
    allowed = max(rel_bound * abs(base), abs_bound)
    if spread is not None and spread > rel_bound:
        return "unresolved"
    if worsening > allowed:
        return "worse"
    improved_by = allowed if name in HOST_CLOCK else 0.0
    return "better" if -worsening > improved_by else "same"


def host_spread(record: dict) -> float:
    layer = record["per_layer"]
    median = layer.get("bench.host_s_median", 0.0)
    return layer.get("bench.host_s_iqr", 0.0) / median if median else 0.0


def compare(base: dict, new: dict) -> int:
    same_seed = (base["header"]["seed"] == new["header"]["seed"]
                 and base["quick"] == new["quick"])
    same_inputs = (same_seed and base["header"]["src_digest"]
                   == new["header"]["src_digest"])
    if not same_seed:
        print("warning: the files were made with different seeds or sizes; "
              "simulated-clock rows compare different inputs")
    bad = 0
    print(f"{'workload':<16}{'metric':<22}{'base':>14}{'new':>14}"
          f"{'change':>9}  verdict")
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            print(f"{workload:<16}missing from the new file")
            bad += 1
            continue
        if same_inputs and b["sim_digest"] != n["sim_digest"]:
            print(f"{workload:<16}sim_digest differs between two runs of "
                  f"the same sources and seed: NOT DETERMINISTIC")
            bad += 1
        rows = [(name, better,
                 SAME_SEED.get(name, bound) if same_seed else bound,
                 SETUP_ABS_S if name == "setup_s" else 0.0,
                 b["end_to_end"], n["end_to_end"])
                for name, better, bound in END_TO_END]
        rows += [(name, better, rel, absolute,
                  b["per_layer"], n["per_layer"])
                 for name, (better, rel, absolute) in SPECIAL.items()
                 if name in b["per_layer"] and name in n["per_layer"]]
        for name, better, rel, absolute, b_values, n_values in rows:
            old, cur = b_values[name], n_values[name]
            spread = (max(host_spread(b), host_spread(n))
                      if name == "host_ops_per_s" else None)
            result = verdict(name, better, rel, absolute, old, cur, spread)
            change = f"{(cur - old) / old:+.1%}" if old else "n/a"
            print(f"{workload:<16}{name:<22}{old:>14.6g}{cur:>14.6g}"
                  f"{change:>9}  {result}")
            bad += result == "worse"
    return 1 if bad else 0


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
