"""Before/after comparison of two sets of benchmark result files.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files or directories of them (run.py writes them to
.perfbench_out/results/).  Runs of one workload with different seeds are
pooled: each side reports the median and quartiles of its runs.  Every row
gives the ratio new/base together with the base value it is taken against.
An end-to-end metric whose spread on either side, (Q3 - Q1) / median, is
wider than its bound in BENCHMARK.json is marked unresolved, unless every new
run reads better than every base run.  Per-layer and informational figures
have no bound and are shown for reading side by side.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

# Figures kept in a result file's "extra" section that are compared as well,
# besides the unscaled end-to-end times (extra["raw"], shown as raw.<name>).
INFO = ("verify_p50_ms", "classify_p50_ms", "generate_p50_ms", "fail_frac", "wrong_verdicts")


def load(path: Path) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> one value per run."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for f in files:
        data = json.loads(f.read_text())
        if "workload" not in data:
            continue
        key = (data["workload"], data["trace"])
        for name, m in data["metrics"].items():
            runs[key][name].append(float(m["value"]))
        extra = data.get("extra", {})
        for name in INFO:
            if name in extra:
                runs[key][name].append(float(extra[name]))
        for name, value in extra.get("raw", {}).items():
            runs[key][f"raw.{name}"].append(float(value))
    return runs


def summary(values: list[float]) -> tuple[float, float | None]:
    """Median and spread (Q3 - Q1) / median; spread is None with one run or a zero median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def _fmt(spread: float | None) -> str:
    return "-" if spread is None else f"{spread:.3f}"


def verdict(base: list[float], new: list[float], bound: float, lower_better: bool) -> str:
    b_med, b_spread = summary(base)
    n_med, n_spread = summary(new)
    sign = 1.0 if lower_better else -1.0
    if max(sign * x for x in new) < min(sign * x for x in base):
        return "better (every run)"
    if b_spread is None or n_spread is None or b_spread > bound or n_spread > bound:
        return "unresolved"
    change = sign * (n_med - b_med) / abs(b_med)
    if change > bound:
        return "WORSE"
    if -change > b_spread:
        return "better"
    return "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(a)) for a in argv)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    worse = 0
    print("| workload | metric | base median (runs) | new median (runs) | new/base | base spread | new spread | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][name], new[key][name]
            b_med, b_spread = summary(b)
            n_med, n_spread = summary(n)
            ratio = f"{n_med / b_med:.3f} of {b_med:.4g}" if b_med else "base is 0"
            if trace == 0 and name in bounds:
                bound, lower = bounds[name]
                v = verdict(b, n, bound, lower) + f" (bound {bound:g})"
                worse += v.startswith("WORSE")
            else:
                v = "info"
            label = name if trace == 0 else f"[trace] {name}"
            print(
                f"| {workload} | {label} | {b_med:.4g} ({len(b)}) | {n_med:.4g} ({len(n)}) | "
                f"{ratio} | {_fmt(b_spread)} | {_fmt(n_spread)} | {v} |"
            )
    missing = sorted(set(base) ^ set(new))
    if missing:
        print(f"\nworkloads on one side only: {missing}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
