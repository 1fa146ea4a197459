"""The benchmark's own tests: python3 -m pytest perfbench

Smoke runs of every workload at tiny size, the gates against corrupted
witnesses, and the determinism of digests and counts.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

import reference
import run
import workloads
from tracing import Lib, load_modules

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    return Lib(load_modules())


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric(name, trace, tmp_path):
    result, lines, _ = run.run(name, seed=3, seconds=0, trace=trace, tiny=True, out=tmp_path)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for metric in expected:
        assert any(line.startswith(f"{metric['name']} = ") for line in lines)
    if trace:
        assert (tmp_path / f"trace-{name}-seed3.jsonl").is_file()


def test_gate_rejects_a_recoloured_arc(lib):
    d = lib.circulant_digraph(3, [1])
    coloring = lib.good_g_coloring(d, 3, check=False)
    workloads.gate_coloring(lib, d, coloring, 3)
    bad = dict(coloring)
    bad[0] = coloring[1]
    with pytest.raises(workloads.Rejected):
        workloads.gate_coloring(lib, d, bad, 3)

    out = run.execute(lambda lib: workloads.gate_coloring(lib, d, bad, 3), lib)
    assert out.error == ("gate", "Rejected") and out.rejection


def test_gate_rejects_a_permuted_ordering(lib):
    d = lib.random_orgraph(10, 4, 3, seed=3, arc_target=20)
    cert = lib.fas_exact(d)
    workloads.gate_fas(lib, d, cert)
    order = tuple(reversed(cert.order))
    bad = dataclasses.replace(cert, order=order, arc_ids=tuple(lib.backward_arc_ids(d, order)))
    assert lib.bas(d, order) != cert.value
    with pytest.raises(workloads.Rejected):
        workloads.gate_fas(lib, d, bad)


def test_failures_are_counted_by_layer_and_type(lib):
    d = lib.circulant_digraph(7, [1, 2, 3])  # degree 6, above decompose3's limit of 4
    out = run.execute(lambda lib: lib.decompose3(d), lib)
    assert out.error == ("triples.decompose3", "GraphError") and out.rejection is None


def test_times_are_scaled_by_the_kernel_samples_around_them():
    meter = reference.Speedometer()
    meter.samples = [reference.KERNEL_S] * 20 + [2 * reference.KERNEL_S] * 40
    assert meter.scaled(1.0, (5, 6)) == pytest.approx(1.0)
    assert meter.scaled(1.0, (40, 41)) == pytest.approx(0.5)


def test_the_kernel_is_left_out_and_its_timer_stopped(tmp_path):
    meter = reference.Speedometer()
    meter.start()
    try:
        t0, b0, c0 = reference.CLOCK(), meter.busy, meter.clock()
        while meter.clock() - c0 < 0.1:
            pass
        t1, b1, c1 = reference.CLOCK(), meter.busy, meter.clock()
    finally:
        meter.stop()
    assert b1 - b0 > 0.002
    assert t1 - t0 == pytest.approx((c1 - c0) + (b1 - b0), abs=2e-3)
    run.run("exact", seed=3, seconds=0, trace=False, tiny=True, out=tmp_path)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_tail_needs_ten_samples_beyond():
    assert run.tail(range(1, 101)) == (90, "p90")
    assert run.tail([5.0] * 19) == (5.0, "p50")


def _digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "sweep", "--seed", "4", "--seconds", "0"],
        cwd=run.ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    return next(line for line in out.splitlines() if line.startswith("digest of round 0"))


def test_digest_is_independent_of_the_hash_seed():
    assert _digest("1") == _digest("2")


def test_counts_and_digest_repeat(tmp_path):
    first = run.run("large", seed=5, seconds=0, trace=True, tiny=True, out=tmp_path)
    second = run.run("large", seed=5, seconds=0, trace=True, tiny=True, out=tmp_path)
    assert first[2]["counts"] == second[2]["counts"]
    assert first[2]["digest"] == second[2]["digest"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
