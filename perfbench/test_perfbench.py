"""Checks on the benchmark itself; run with ``python -m pytest perfbench -q``.

Everything runs at ``--quick`` size (a tenth of the operations, one
repetition), each run in its own interpreter exactly as the driver
starts it.
"""

import ast
import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(REPO / "src"))

import layers  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: per-layer metrics on the host clock; everything else repeats per seed
HOST_CLOCK = {n for n, *_ in metrics.PER_LAYER if n.endswith(".self_share")} \
    | {"bench.host_s_min", "bench.host_s_median", "bench.host_s_iqr",
       "bench.host_raw_s_median", "bench.calib_ms_median",
       "bench.peak_rss_mb", "bench.trace_overhead_ratio"}


RUNS = (("a", 1), ("b", 1), ("other", 2))   # seed 1 twice, and seed 2


def single_run(workload, seed, trace, out):
    """Returns the run's last-line JSON, with its ``--out`` record under
    ``"record"``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--quick", "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["record"] = json.loads(out.read_text())
    return result


def all_runs(trace, tmp_path_factory):
    out = tmp_path_factory.mktemp(f"trace{trace}") / "record.json"
    return {(w, tag): single_run(w, seed, trace, out)
            for w in WORKLOADS for tag, seed in RUNS}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """``{(workload, run): result}`` of every ``--trace 1`` run."""
    return all_runs(1, tmp_path_factory)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    """``{(workload, run): result}`` of every ``--trace 0`` run."""
    return all_runs(0, tmp_path_factory)


def values(result):
    return {n: m["value"] for n, m in result["metrics"].items()}


def test_benchmark_json_is_the_catalogue_and_within_the_contract():
    assert SPEC == metrics.benchmark_spec(WORKLOADS, run.RUN_SECONDS)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
             + SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in SPEC["end_to_end"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_in_benchmark_json_is_emitted_and_vice_versa(
        workload, traced, untraced):
    for kind, result in (("end_to_end", untraced[workload, "a"]),
                         ("per_layer", traced[workload, "a"])):
        assert result["correct"] is True and result["attempted"] >= 1
        assert result["failed"] == 0
        assert ({n: m["unit"] for n, m in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in SPEC[kind]})
    assert all(v > 0 for v in values(untraced[workload, "a"]).values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_repeats_exactly_and_another_seed_differs(
        workload, traced, untraced):
    a, b = values(traced[workload, "a"]), values(traced[workload, "b"])
    exact = set(a) - HOST_CLOCK
    assert {n: a[n] for n in exact} == {n: b[n] for n in exact}
    first, again, other = (untraced[workload, tag]["record"]
                           for tag, _seed in RUNS)
    sim = [n for n in first["end_to_end"] if n.startswith("sim_")]
    assert sim
    assert first["sim_digest"] == again["sim_digest"] != other["sim_digest"]
    assert all(first["end_to_end"][n] == again["end_to_end"][n] for n in sim)
    assert (first["attempted"], first["failed"]) == (again["attempted"],
                                                     again["failed"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_shares_cover_the_profile(workload, traced):
    v = values(traced[workload, "a"])
    assert sum(v[f"{layer}.self_share"]
               for layer in layers.LAYERS) == pytest.approx(1.0, abs=0.01)
    assert v["other.self_share"] < 0.02
    assert v["sim.kernel.events_per_op"] > 0
    assert v["sim.network.msgs_per_op"] > 0


def test_the_traced_run_separates_the_workloads_as_designed(traced):
    v = {w: values(traced[w, "a"]) for w in WORKLOADS}

    def write_path(w):
        return (v[w]["core.replication.self_share"]
                + v[w]["storage.wal.self_share"])

    def control_plane(w):
        return v[w]["coord.self_share"] + v[w]["core.recovery.self_share"]

    assert write_path("write_strong") >= 0.25
    assert write_path("read_strong") <= 0.12
    assert all(control_plane("failover") > control_plane(w)
               for w in WORKLOADS if w != "failover")
    # the counts read off the profile found their functions
    assert v["write_strong"]["storage.wal.appends_per_op"] > 1
    assert v["write_strong"]["storage.engine.applies_per_op"] >= 1
    assert v["read_strong"]["storage.engine.gets_per_op"] == 1
    assert v["read_strong"]["sim.disk.forces_per_op"] == 0
    assert v["failover"]["coord.requests_per_op"] > 0
    assert v["failover"]["coord.session_expiries"] == 2
    assert v["failover"]["core.api.retries_per_op"] > 0
    assert v["failover"]["sim_unavail_s"] > \
        v["failover"]["core.recovery.unavail_fast_detect_s"] > 0
    assert v["failover"]["sim_rejoin_s"] > 0
    assert v["mixed_openloop"]["sim_slo_rate_ops_s"] > 0


def test_layer_map_is_total_over_the_driven_packages():
    src = REPO / "src" / "repro"
    present = {p.relative_to(src).as_posix()
               for pkg in layers.MAPPED_PACKAGES
               for p in (src / pkg).glob("*.py")}
    assert present - set(layers.LAYER_OF_FILE) == set()
    assert set(layers.LAYER_OF_FILE) - present == set()
    assert set(layers.LAYER_OF_FILE.values()) <= set(layers.LAYERS)


def test_perfbench_does_not_import_the_layers_scheduled_for_shrinking():
    banned = ("repro.bench", "repro.tune", "repro.analysis")
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not [m for m in modules if m.startswith(banned)], path


def test_it_fails_without_a_result_where_the_repository_is_missing(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read_strong",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""


def test_report_mode_writes_a_file_that_compare_accepts_and_polices(
        tmp_path):
    base = tmp_path / "base.json"
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "failover",
         "--quick", "--out", str(base)],
        cwd=REPO, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(base.read_text())
    head = result["header"]
    assert head["seed"] == 1 and head["nproc"] and head["python"]
    assert head["latency_model"]["base_s"] > 0
    assert set(head["log_profiles"]) == set(WORKLOADS)
    record = result["workloads"]["failover"]
    assert set(record["end_to_end"]) == {n for n, *_ in metrics.END_TO_END}
    assert set(record["per_layer"]) == {n for n, *_ in metrics.PER_LAYER}

    def compare(mutate):
        changed = copy.deepcopy(result)
        mutate(changed["workloads"]["failover"])
        new = tmp_path / "new.json"
        new.write_text(json.dumps(changed))
        return subprocess.run(
            [sys.executable, "perfbench/compare.py", str(base), str(new)],
            cwd=REPO, capture_output=True, text=True, timeout=60)

    def steady(rec):       # a spread the host comparison can resolve
        rec["per_layer"]["bench.host_s_iqr"] = 0.0

    result["workloads"]["failover"]["per_layer"]["bench.host_s_iqr"] = 0.0
    base.write_text(json.dumps(result))
    same = compare(steady)
    assert same.returncode == 0 and "worse" not in same.stdout

    def slower(rec):
        rec["end_to_end"]["host_ops_per_s"] *= 0.8
    worse = compare(slower)
    assert worse.returncode == 1 and "worse" in worse.stdout

    def noisy(rec):
        slower(rec)
        rec["per_layer"]["bench.host_s_iqr"] = \
            rec["per_layer"]["bench.host_s_median"]
    assert "unresolved" in compare(noisy).stdout

    def longer_outage(rec):
        rec["per_layer"]["sim_unavail_s"] *= 1.06
    assert compare(longer_outage).returncode == 1

    def other_digest(rec):
        rec["sim_digest"] = "0" * 64
    mismatch = compare(other_digest)
    assert mismatch.returncode == 1
    assert "NOT DETERMINISTIC" in mismatch.stdout
