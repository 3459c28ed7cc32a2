"""Tests of the benchmark itself: inputs, oracle, tracer, output schema, comparison.

Run from the repository root with the package on the path:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import prodbase.analyzer  # noqa: E402
import prodbase.cli  # noqa: E402
from bases import catalog, write_basis  # noqa: E402
from run import Result, Runner, end_to_end  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    GENERATOR_BLOCK_LIMIT,
    WORKLOADS,
    build_screen_mixed,
    stratified_block_counts,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _snapshot(work: Path, ops) -> tuple:
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    argv = [[a.replace(str(work), "<work>") for a in op.argv] for op in ops]
    return files, argv


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_input_builder_is_deterministic(tmp_path, name):
    build = WORKLOADS[name].build
    snaps = []
    for k, seed in enumerate((7, 7, 8)):
        work = tmp_path / str(k)
        work.mkdir()
        snaps.append(_snapshot(work, build(work, np.random.default_rng(seed))))
    assert snaps[0] == snaps[1]
    assert snaps[0] != snaps[2]


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_generator_failure_share_is_fixed_per_pass():
    for n, count in ((16, 4), (64, 12)):
        highs = {
            sum(r > GENERATOR_BLOCK_LIMIT for r in stratified_block_counts(np.random.default_rng(s), n, count, 12))
            for s in range(30)
        }
        assert len(highs) == 1


def _run_ops(ops):
    runner = Runner(prodbase.cli)
    return [runner.run(op) for op in ops]


def test_screen_mixed_verdicts_agree_with_the_oracle(tmp_path):
    ops = build_screen_mixed(tmp_path, np.random.default_rng(3))
    assert [r.detail for r in _run_ops(ops) if r.status != "ok"] == []


def test_planted_wrong_verdict_is_caught(tmp_path, monkeypatch):
    ops = build_screen_mixed(tmp_path, np.random.default_rng(3))

    def always_orthonormal(basis, tol=None):
        return True, 0.0

    monkeypatch.setattr(prodbase.cli, "verify_orthonormal", always_orthonormal)
    monkeypatch.setattr(prodbase.analyzer, "verify_orthonormal", always_orthonormal)
    results = _run_ops(ops)
    wrong = [r.detail for r in results if r.status == "wrong"]
    assert any("counterexample_1_4" in w for w in wrong)
    assert any("adversarial_n12" in w for w in wrong)


def test_generate_that_writes_nothing_is_caught_on_a_later_pass(tmp_path, monkeypatch):
    op = WORKLOADS["generate_sweep"].build(tmp_path, np.random.default_rng(3))[0]
    assert [r.status for r in _run_ops([op])] == ["ok"]
    monkeypatch.setattr(prodbase.cli, "save_basis_file", lambda path, basis: None)
    assert [r.status for r in _run_ops([op])] == ["wrong"]


def test_times_are_scaled_by_the_calibration_and_kept_raw():
    results = [Result("verify", ms, "ok") for ms in (10.0, 20.0, 30.0, 40.0)]
    rss = {"baseline_mb": 50.0, "peak_mb": 60.0}
    metrics, extra = end_to_end(WORKLOADS["analyze_mixed"], results, [0.5, 0.7], rss, speed=2.0)
    assert extra["raw"] == {"setup_s": 0.6, "op_p50_ms": 25.0, "op_tail_ms": 40.0, "ops_per_s": 40.0}
    assert metrics["setup_s"][0] == pytest.approx(1.2)
    assert metrics["op_p50_ms"][0] == 50.0 and metrics["op_tail_ms"][0] == 80.0
    assert metrics["ops_per_s"][0] == 20.0 and metrics["peak_rss_mb"][0] == 10.0
    assert extra["verify_p50_ms"] == 50.0


def test_tracer_counts_and_restores(tmp_path):
    path = tmp_path / "d4_B0.json"
    write_basis(path, catalog()["d4_B0"][0], {})
    original = prodbase.analyzer.inner
    tracer = Tracer()
    tracer.install()
    try:
        assert prodbase.analyzer.inner is not original
        assert prodbase.cli.main(["verify", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert prodbase.analyzer.inner is original
    s = tracer.summary(ops=1)
    assert s["cli.main.calls"] == 1
    assert s["product_space.factorize.calls"] == 4
    assert s["numerics.singular_values_2xn.calls"] == 4
    assert s["numerics.inner.calls_per_op"] > 0
    assert 0 < s["cli.main.self_ms"] < s["cli.main.total_ms"]
    names = {m["name"] for m in SPEC["per_layer"]} - set(s)
    assert names == {"trace.overhead_ms", "trace.overhead_pct"}


def _smoke(tmp_path, trace: int) -> dict:
    out = tmp_path / f"result{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "analyze_mixed", "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    report = json.loads(out.read_text())
    for key in ("git_commit", "src_sha256", "python", "numpy", "openblas", "cpu_model", "nproc", "seed"):
        assert key in report["provenance"]
    assert report["provenance"]["blas_threads"] == "1"
    return last


def test_smoke_end_to_end_schema(tmp_path):
    last = _smoke(tmp_path, 0)
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_smoke_per_layer_schema(tmp_path):
    last = _smoke(tmp_path, 1)
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    assert last["metrics"]["analyzer.check_groupable.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").symlink_to(BENCH)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _result(path: Path, workload: str, value: float) -> None:
    path.write_text(json.dumps({"workload": workload, "trace": 0, "metrics": {"op_p50_ms": {"value": value}}}))


def test_compare_flags_wide_spread_and_regression(tmp_path, capsys):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    for k, v in enumerate((100, 101, 99, 100)):
        _result(base / f"a{k}.json", "steady", v)
        _result(new / f"a{k}.json", "steady", v * 1.5)
    for k, v in enumerate((100, 60, 140, 100)):
        _result(base / f"b{k}.json", "noisy", v)
        _result(new / f"b{k}.json", "noisy", v)
    assert compare.main([str(base), str(new)]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert any("steady" in r and "WORSE" in r and "of 100" in r for r in rows)
    assert any("noisy" in r and "unresolved" in r for r in rows)
