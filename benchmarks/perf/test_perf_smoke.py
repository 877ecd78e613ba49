"""Smoke test of the perf benchmark: every workload, tiny, both ways.

Runs ``run.py --quick`` (a few hundred jobs, 4 cells, a few hundred
requests per workload; traced and untraced, one process each, as the
benchmark driver would) and checks the *contract*, not the speeds: the
names in ``BENCHMARK.json`` are exactly the names emitted, values are
finite, the layer predictions hold, a result compares ``ok`` against
itself, and nothing is left behind.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
OUT_DIR = os.path.join(PERF_DIR, "out")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _shm_segments():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def _daemons():
    """Daemons, benchmark processes and multiprocessing's tracker helper
    (which outlives its parent unless the benchmark stops it)."""
    done = subprocess.run(
        ["pgrep", "-f", "repro serve --socket|perf/run.py|resource_tracker"],
        capture_output=True, text=True)
    return [pid for pid in done.stdout.split() if pid != str(os.getpid())]


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def collection(tmp_path_factory):
    """One ``run.py --quick`` over every workload; the parsed result file."""
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    shm_before = _shm_segments()
    daemons_before = _daemons()
    done = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--quick",
         "--out", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    with open(out, encoding="utf-8") as fh:
        document = json.load(fh)
    document["path"] = str(out)
    document["leaked_shm"] = sorted(_shm_segments() - shm_before)
    document["orphans"] = sorted(set(_daemons()) - set(daemons_before))
    return document


def _record(collection, workload, trace):
    (record,) = [r for r in collection["sets"][0]
                 if r["workload"] == workload and r["trace"] == trace]
    return record


def test_every_declared_metric_is_emitted_once(manifest, collection):
    for workload in (w["name"] for w in manifest["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            record = _record(collection, workload, trace)
            assert record["correct"], record["problems"]
            assert record["failed"] == 0 and record["attempted"] >= 1
            declared = [m["name"] for m in manifest[key]]
            assert len(declared) == len(set(declared))
            assert sorted(record["metrics"]) == sorted(declared)
            for metric in manifest[key]:
                entry = record["metrics"][metric["name"]]
                assert NAME.match(metric["name"]), metric["name"]
                assert entry["unit"] == metric["unit"]
                assert math.isfinite(entry["value"]), metric["name"]
                if trace == 0:
                    assert entry["value"] > 0, (workload, metric["name"])


def test_layer_predictions_hold(collection):
    def layer(workload, name):
        return _record(collection, workload, 1)["metrics"][name]["value"]

    assert layer("fleet_fifo_warm", "scan.lookups") == 0
    assert layer("fleet_fifo_cold", "scan.lookups") > 0
    for fifo in ("fleet_fifo_warm", "fleet_fifo_cold"):
        assert layer(fifo, "discipline.schedule_calls") == 0
        assert layer(fifo, "sharding.flushes") == 0
    assert layer("fleet_backfill", "discipline.schedule_calls") > 0
    assert layer("fleet_sharded", "sharding.flushes") > 0
    assert layer("sweep_grid", "store.hits") == 4
    assert layer("serve_churn", "daemon.dispatches") > 0
    for workload in ("fleet_fifo_warm", "fleet_backfill", "sweep_grid"):
        assert layer(workload, "trace.attributed_share") >= 0.9


def test_sharded_log_equals_single_process_log(collection):
    cold = _record(collection, "fleet_fifo_cold", 0)["details"]["digest"]
    sharded = _record(collection, "fleet_sharded", 0)["details"]["digest"]
    assert cold == sharded


def test_result_compares_ok_with_itself(collection):
    done = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "compare.py"),
         collection["path"], collection["path"]],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "regression" not in done.stdout and "unresolved" not in done.stdout
    assert "ok: " in done.stdout


def test_nothing_is_left_behind(collection):
    assert collection["leaked_shm"] == []
    assert collection["orphans"] == []
    leftovers = [name for name in os.listdir(OUT_DIR)
                 if not (name.startswith("trace_") or name.startswith("daemon_"))]
    assert leftovers == []
    stderr = os.path.join(OUT_DIR, "daemon_serve_churn.stderr")
    assert os.path.exists(stderr)
