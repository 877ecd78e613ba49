"""Golden-table regression suite (``pytest -m golden``).

The 28 deterministic benchmark tables — every figure/table
reproduction that contains no wall-clock measurement, including the
fleet-chaos dynamics tables — are snapshotted byte-for-byte under
``tests/golden/``.  This suite reruns every
benchmark that emits one of them in a subprocess (results redirected to
a scratch directory via ``MAPA_BENCH_RESULTS``, so the committed
``benchmarks/results/`` are never touched) and asserts each regenerated
table is byte-identical to its snapshot.  The benchmarks whose only
table embeds wall-clock timings (:data:`TIMING_TABLES`) are not run:
they contribute nothing to byte identity, and their speed gates would
otherwise fail the whole suite on a slow or busy machine.

Any change that moves a number anywhere in the reproduction — a
scoring tweak, an RNG reordering, a float-arithmetic "optimisation" —
fails here with a readable diff, which is the regression lock the
tentpole's fast paths are developed against.

The suite is marked ``golden`` and deselected by default (it costs a
full benchmark run, ~40 s); run it with ``pytest -m golden``.  CI has a
dedicated job for it.

Refreshing a snapshot after an *intentional* table change::

    MAPA_BENCH_RESULTS=/tmp/tables PYTHONPATH=src \\
        python -m pytest benchmarks/bench_*.py -q
    cp /tmp/tables/<table>.txt tests/golden/
"""

import glob
import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.golden

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: Result files that embed wall-clock timings; they can never be golden.
TIMING_TABLES = {
    "batch_scoring.txt",
    "fig19_overhead.txt",
    "fleet_scale.txt",
    "fleet_shard.txt",
    "scan_cache.txt",
    "scan_hotpath.txt",
    "serve.txt",
    "sweep_transport.txt",
}

GOLDEN_TABLES = sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(GOLDEN_DIR, "*.txt"))
)


def _emits_timing_table_only(bench: str) -> bool:
    """``benchmarks/bench_<name>.py`` writes ``<name>.txt``; the benches
    whose table is timing-dependent add nothing to byte identity, and
    their wall-clock gates must not decide whether the goldens run."""
    name = os.path.basename(bench)[len("bench_"):-len(".py")]
    return f"{name}.txt" in TIMING_TABLES


@pytest.fixture(scope="session")
def regenerated_tables(tmp_path_factory):
    """Rerun the golden-emitting benchmarks once, results into a scratch dir."""
    out_dir = tmp_path_factory.mktemp("bench-results")
    env = dict(os.environ)
    env["MAPA_BENCH_RESULTS"] = str(out_dir)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    benches = sorted(
        bench
        for bench in glob.glob(os.path.join(REPO, "benchmarks", "bench_*.py"))
        if not _emits_timing_table_only(bench)
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *benches],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, (
        f"benchmark harness failed:\n{result.stdout[-4000:]}\n{result.stderr[-2000:]}"
    )
    return out_dir


def test_golden_snapshot_is_complete():
    """Every deterministic table has a snapshot, and nothing stale."""
    assert len(GOLDEN_TABLES) >= 28, f"golden set truncated: {GOLDEN_TABLES}"
    assert not (set(GOLDEN_TABLES) & TIMING_TABLES), (
        "timing-dependent tables must not be snapshotted"
    )


@pytest.mark.parametrize("table", GOLDEN_TABLES)
def test_table_byte_identical(regenerated_tables, table):
    fresh = regenerated_tables / table
    assert fresh.exists(), f"benchmark run produced no {table}"
    expected = open(os.path.join(GOLDEN_DIR, table), "rb").read()
    actual = open(fresh, "rb").read()
    if actual != expected:
        import difflib

        diff = "\n".join(
            difflib.unified_diff(
                expected.decode().splitlines(),
                actual.decode().splitlines(),
                fromfile=f"golden/{table}",
                tofile=f"regenerated/{table}",
                lineterm="",
            )
        )
        pytest.fail(f"{table} drifted from its golden snapshot:\n{diff}")


def test_every_benchmark_emits_known_table(regenerated_tables):
    """A new deterministic benchmark must be snapshotted (or listed as
    timing-dependent) — silent coverage gaps fail here."""
    produced = {
        os.path.basename(p)
        for p in glob.glob(str(regenerated_tables / "*.txt"))
    }
    unknown = produced - set(GOLDEN_TABLES) - TIMING_TABLES
    assert not unknown, (
        f"benchmarks emitted unsnapshotted tables: {sorted(unknown)}; "
        "add them to tests/golden/ (deterministic) or TIMING_TABLES"
    )
