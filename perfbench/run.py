"""Benchmark of prodbase's user operations: verify, classify, generate, mub-check.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload analyze_mixed --seed 1 --seconds 55 --trace 0

The program under test is the `prodbase` package in ./src, called in process
through `prodbase.cli.main`; the benchmark builds its own inputs with numpy
from --seed and hands the program only JSON files and command lines.  Each
operation's verdict is checked against the answer known from how its input
was built (bases.py).  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run (tracer.py) and the tracing overhead.  A full result file with
provenance goes to .perfbench_out/results/.
See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: the matrices are at most 128 x 128, where extra
# threads add run-to-run spread and no speed.
# Only the benchmark process sets it; importing this module (tests) does not.
BLAS_THREADS = "1"
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from calibration import Calibration
from tracer import Tracer
from workloads import VERDICT_KINDS, WORKLOADS, Op, Workload

# Well above the slowest operation at the seed commit (a failing generate,
# about 2 s): an operation that exceeds it counts as failed.
OP_LIMIT_S = 10.0
OUT_DIR = Path(".perfbench_out")
KIND_METRICS = {"verify": "verify_p50_ms", "classify": "classify_p50_ms", "generate": "generate_p50_ms"}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an in-process operation that ran past OP_LIMIT_S."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Result:
    kind: str
    ms: float
    status: str  # ok | failed | wrong
    detail: str = ""


class Runner:
    """Runs operations in process through prodbase.cli.main, stdout and stderr captured."""

    def __init__(self, cli_module):
        self.cli = cli_module

    def call(self, argv: list[str]) -> tuple[float, int | None, str, str, str]:
        """One call; returns (ms, exit code, stdout, stderr, error) with error '' on completion."""
        out, err = io.StringIO(), io.StringIO()
        error = ""
        rc = None
        t0 = perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(argv)
        except OpTimeout:
            error = "timeout"
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the program raised: a failed operation
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            ms = (perf_counter_ns() - t0) / 1e6
        return ms, rc, out.getvalue(), err.getvalue(), error

    def run(self, op: Op) -> Result:
        # every call is checked on files it wrote itself, not on an earlier call's
        for path in op.outputs:
            path.unlink(missing_ok=True)
        ms, rc, out, err, error = self.call(op.argv)
        if error:
            return Result(op.kind, ms, "failed", error)
        if rc not in ((0, 1) if op.kind in VERDICT_KINDS else (0,)):
            return Result(op.kind, ms, "failed", f"exit {rc}: {err.strip()[:200]}")
        problem = None
        if op.outputs:
            try:
                digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in op.outputs]
            except OSError as exc:
                return Result(op.kind, ms, "wrong", f"missing output: {exc}")
            if op.digests is None:
                problem = op.check(rc, out, err)
                if problem is None:
                    op.digests = digests
            elif digests != op.digests:
                problem = "output bytes differ from an earlier identical call"
        else:
            problem = op.check(rc, out, err)
        if problem:
            return Result(op.kind, ms, "wrong", f"{' '.join(op.argv)}: {problem}")
        return Result(op.kind, ms, "ok")

    def rerun_identical(self, ops: list[Op]) -> str | None:
        """Re-run the first successful generate to a second file; None when bytes match."""
        for op in ops:
            if op.kind == "generate" and op.digests is not None:
                first = op.outputs[0]
                second = first.with_name(first.stem + "_rerun.json")
                argv = op.argv[: op.argv.index("--out") + 1] + [str(second)]
                _, rc, _, _, error = self.call(argv)
                if error or rc != 0 or second.read_bytes() != first.read_bytes():
                    return f"re-run of {' '.join(op.argv)} did not write identical bytes"
                return None
        return "no successful generate to re-run"


def _purge_prodbase() -> None:
    for key in [k for k in sys.modules if k == "prodbase" or k.startswith("prodbase.")]:
        del sys.modules[key]


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def setup(wl: Workload, seed: int, root: Path, work: Path):
    """Import prodbase afresh, build the inputs and run one warm-up operation.

    Returns (runner, ops, seconds, digest of the built inputs).
    """
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    t0 = perf_counter()
    _purge_prodbase()
    cli = importlib.import_module("prodbase.cli")
    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"prodbase was imported from {cli.__file__}, not from ./src")
    ops = wl.build(work, np.random.default_rng(seed))
    digest = _dir_digest(work)
    runner = Runner(cli)
    runner.call(ops[0].argv)
    return runner, ops, perf_counter() - t0, digest


def timed_cycles(seconds: float):
    """Yield while another cycle, as long as the longest so far, still fits in `seconds`.

    Whole passes keep every run's mix of operations identical; the first
    cycle always runs.
    """
    t0 = perf_counter()
    longest = 0.0
    while True:
        start = perf_counter()
        yield
        longest = max(longest, perf_counter() - start)
        if perf_counter() - t0 + longest > seconds:
            return


def run_pass(
    runner: Runner, ops: list[Op], tracer: Tracer | None = None, calibration: Calibration | None = None
) -> list[Result]:
    results = []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = k
        results.append(runner.run(op))
        if calibration is not None:
            calibration.sample()
    return results


def percentile(sorted_ms: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_ms)))
    return sorted_ms[rank - 1], len(sorted_ms) - rank


def end_to_end(wl: Workload, results: list[Result], setups: list[float], rss: dict, speed: float) -> dict:
    """The end-to-end metrics, with every time multiplied by `speed` (see calibration.py).

    The unscaled figures go into extra["raw"].
    """
    ms = sorted(r.ms for r in results)
    tail, beyond = percentile(ms, wl.tail_pct)
    ok = sum(1 for r in results if r.status != "failed")
    raw = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail,
        "ops_per_s": ok / (sum(ms) / 1000.0),
    }
    metrics = {
        "setup_s": (raw["setup_s"] * speed, "s"),
        "op_p50_ms": (raw["op_p50_ms"] * speed, "ms"),
        "op_tail_ms": (raw["op_tail_ms"] * speed, "ms"),
        "ops_per_s": (raw["ops_per_s"] / speed, "1/s"),
        "peak_rss_mb": (rss["peak_mb"] - rss["baseline_mb"], "MB"),
    }
    extra = {
        "raw": raw,
        "speed_factor": speed,
        "op_tail_pct": wl.tail_pct,
        "op_tail_beyond": beyond,
        "samples": len(ms),
        "fail_frac": sum(1 for r in results if r.status == "failed") / len(results),
        "wrong_verdicts": sum(1 for r in results if r.status == "wrong"),
        "setup_s_each": setups,
        "rss_baseline_mb": rss["baseline_mb"],
        "rss_peak_mb": rss["peak_mb"],
    }
    for kind, name in KIND_METRICS.items():
        kind_ms = [r.ms for r in results if r.kind == kind]
        if kind_ms:
            extra[name] = statistics.median(kind_ms) * speed
    return metrics, extra


def rss_mb() -> float:
    """Current resident memory of this process."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(root: Path, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for p in sorted((root / "src" / "prodbase").glob("*.py")):
        src.update(p.name.encode())
        src.update(p.read_bytes())
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        blas = None
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def measure(wl: Workload, seed: int, seconds: float, root: Path, work: Path):
    """Untraced run: whole passes for `seconds`, with the set-ups spread over the run.

    The first set-up builds the inputs that every pass uses.  The other
    set-ups run between passes, into a side directory, as many as are due by
    the time elapsed, so setup_s samples the whole run as the operations do;
    the passes keep the module objects of the first import.  A calibration
    kernel is timed between operations, and the times are scaled by it.

    peak_rss_mb is the peak resident memory above the baseline taken before
    the first set-up, once numpy and the harness are loaded, so it is the
    share of prodbase, its inputs and its operations.
    """
    baseline = rss_mb()
    runner, ops, dt, digest = setup(wl, seed, root, work)
    setups, digests = [dt], {digest}

    def setups_until(count: int) -> None:
        while len(setups) < count:
            _, _, dt, digest = setup(wl, seed, root, work / "setup")
            setups.append(dt)
            digests.add(digest)

    results: list[Result] = []
    passes = 0
    calibration = Calibration()
    t0 = perf_counter()
    for _ in timed_cycles(seconds):
        results += run_pass(runner, ops, calibration=calibration)
        passes += 1
        due = math.ceil(wl.setup_repeats * (perf_counter() - t0) / max(seconds, 1e-9))
        setups_until(min(wl.setup_repeats, due))
    setups_until(wl.setup_repeats)
    checks = {"inputs_deterministic": len(digests) == 1}
    if any(op.kind == "generate" for op in ops):
        checks["generate_rerun"] = runner.rerun_identical(ops) or "identical"
    rss = {"baseline_mb": baseline, "peak_mb": peak_rss_mb()}
    metrics, extra = end_to_end(wl, results, setups, rss, calibration.factor())
    extra["calibration_ms"] = calibration.median_ms()
    extra["calibration_samples"] = len(calibration.samples_ms)
    extra["passes"] = passes
    extra["ops_per_pass"] = len(ops)
    extra["op_samples_ms"] = {
        " ".join(op.argv).replace(str(work) + "/", ""): [r.ms for r in results[k :: len(ops)]]
        for k, op in enumerate(ops)
    }
    return results, metrics, extra, checks


def measure_traced(wl: Workload, seed: int, seconds: float, root: Path, work: Path):
    """Alternate untraced and traced passes; per-layer figures are medians over passes."""
    runner, ops, _, _ = setup(wl, seed, root, work)
    results: list[Result] = []
    untraced, traced, layers = [], [], []
    for _ in timed_cycles(seconds):
        plain = run_pass(runner, ops)
        untraced.append(sum(r.ms for r in plain))
        tracer = Tracer()
        tracer.install()
        try:
            traced_results = run_pass(runner, ops, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(r.ms for r in traced_results))
        layers.append(tracer.summary(len(ops)))
        results += plain + traced_results
    per_layer = {name: statistics.median(s[name] for s in layers) for name in layers[0]}
    per_layer.update({k: int(v) for k, v in per_layer.items() if k.endswith(".calls")})
    base = statistics.median(untraced)
    per_layer["trace.overhead_ms"] = statistics.median(traced) - base
    per_layer["trace.overhead_pct"] = 100.0 * per_layer["trace.overhead_ms"] / base
    calls_repeat = all(
        s[k] == layers[0][k] for s in layers for k in s if k.endswith(".calls")
    )
    extra = {"passes": len(traced), "ops_per_pass": len(ops), "untraced_pass_ms": base}
    return results, per_layer, extra, {"call_counts_repeat": calls_repeat}


def per_layer_units(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_op"):
        return "1/op"
    if name.endswith("_per_call"):
        return "ratio"
    return "ms"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="result file (default under .perfbench_out/results)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "prodbase" / "__init__.py").is_file():
        print("error: run from a prodbase checkout: ./src/prodbase is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    signal.signal(signal.SIGALRM, _alarm)
    wl = WORKLOADS[args.workload]
    work = root / OUT_DIR / "work" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            results, values, extra, checks = measure_traced(wl, args.seed, args.seconds, root, work)
            metrics = {k: {"value": v, "unit": per_layer_units(k)} for k, v in values.items()}
        else:
            results, values, extra, checks = measure(wl, args.seed, args.seconds, root, work)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    finally:
        if work.exists():
            shutil.rmtree(work)

    wrong = [r for r in results if r.status == "wrong"]
    failed = [r for r in results if r.status == "failed"]
    correct = not wrong and all(v is True or v == "identical" for v in checks.values())
    report = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(root, args.seed),
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "wrong_verdicts": len(wrong),
        "checks": checks,
        "metrics": metrics,
        "extra": extra,
        "wrong_details": [r.detail for r in wrong[:20]],
        "failure_details": sorted({r.detail for r in failed})[:20],
    }
    out = args.out or root / OUT_DIR / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"workload {wl.name} seed {args.seed}: {len(results)} ops, {len(failed)} failed, {len(wrong)} wrong")
    for detail in report["wrong_details"][:5] + report["failure_details"][:5]:
        print(f"  {detail}")
    for key, value in sorted(extra.items()):
        if not isinstance(value, (dict, list)):
            print(f"  {key}: {value}")
    for key, value in sorted(extra.get("raw", {}).items()):
        print(f"  unscaled {key}: {value}")
    print(f"  result file: {out}")
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
