"""Per-layer timing installed on prodbase's module namespaces from outside.

Every name that refers to a traced function, in every prodbase module, is
replaced by a wrapper, so calls through `from .numerics import inner` are
caught as well as qualified ones.  Spans are kept in memory with a link to
the enclosing span; self time is a span's duration minus its children's.
The hot leaves get a bare call counter: a span on each of their tens of
thousands of calls would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns

PACKAGE = "prodbase"

# Public functions timed with spans, as module.function of prodbase.
SPANNED = (
    "cli.main",
    "cli.load_basis_file",
    "cli.save_basis_file",
    "analyzer.verify_orthonormal",
    "analyzer.factorize_all",
    "analyzer.check_pairwise_condition",
    "analyzer.check_groupable",
    "analyzer.classify",
    "analyzer.left_classify",
    "analyzer.mu_check",
    "product_space.factorize",
    "numerics.gram_residual",
    "numerics.orthonormalize",
    "numerics.subspace_equal",
    "generator.generate_from_type",
    "generator.named_family",
    "partitions.partitions_of",
)
COUNTED = ("numerics.inner", "product_space.kron", "numerics.singular_values_2xn")

# Calls returning a falsy value are rejections for these (NotAProduct).
REJECTING = ("product_space.factorize",)


class Tracer:
    """Spans and counts of one traced pass; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, op_id, parent index or -1, start_ns, end_ns]
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        self.rejected: Counter[str] = Counter()
        self.op_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack, raised, rejected = self.spans, self.stack, self.raised, self.rejected
        rejecting = name in REJECTING

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self.op_id, stack[-1] if stack else -1, perf_counter_ns(), 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                stack.pop()
                spans[idx][4] = perf_counter_ns()
            if rejecting and not result:
                rejected[name] += 1
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(prefix)]
        for qual in SPANNED + COUNTED:
            module_name, attr = qual.split(".")
            original = getattr(sys.modules[prefix + module_name], attr)
            wrapper = self._span(qual, original) if qual in SPANNED else self._count(qual, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def summary(self, ops: int) -> dict[str, float]:
        """calls, total_ms and self_ms per spanned function, leaf counts and ratios.

        total_ms counts only the outermost span of a function, so a recursive
        call (classify inside left_classify inside classify) is not counted twice.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, _, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for qual in SPANNED:
            out[f"{qual}.calls"] = 0
            out[f"{qual}.total_ms"] = 0.0
            out[f"{qual}.self_ms"] = 0.0
        for idx, (name, _, parent, start, end) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += (end - start - child_ns[idx]) / 1e6
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][2]
            if parent < 0:
                out[f"{name}.total_ms"] += (end - start) / 1e6
        for qual in COUNTED:
            out[f"{qual}.calls"] = self.counts[qual]
        out["numerics.inner.calls_per_op"] = self.counts["numerics.inner"] / max(ops, 1)
        calls = out["product_space.factorize.calls"]
        out["product_space.factorize.rejected_per_call"] = (
            self.rejected["product_space.factorize"] / calls if calls else 0.0
        )
        calls = out["generator.generate_from_type.calls"]
        out["generator.generate_from_type.failed_per_call"] = (
            self.raised["generator.generate_from_type"] / calls if calls else 0.0
        )
        return out
