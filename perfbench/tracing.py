"""Spans and counters around q8family's public functions, recorded from outside.

The tracer replaces each traced function, in every q8family module that
holds a reference to it, with a wrapper that records a span (name, start,
end, parent) or bumps a counter, and puts the originals back on exit.
Replacing every reference matters because modules import names from each
other: `verify` calls its own imported `inner_product`, `cli` its own
`verify_prime`.  The program itself is not changed.

Spans stay in memory and are written out once, at the end of a run.
"""

import sys
import time
from collections import defaultdict

PACKAGE = "q8family"

# layer -> functions recorded as spans; a span's name is "layer.function"
SPANNED = {
    "groups": ("build_group", "conjugacy_classes"),
    "characters": ("label_orbits", "induced_values", "inflated_values",
                   "assemble_character_table", "check_first_orthogonality",
                   "check_second_orthogonality", "tensor_square_decompose",
                   "fs_indicator", "fs_indicator_direct", "inner_product",
                   "restriction_to_core_inner"),
    "verify": ("verify_prime", "scan_one_prime", "run_table_checks", "verify_label"),
    "serialize": ("table_document", "report_document", "scan_document",
                  "canonical_json", "store_cached_table", "load_cached_table",
                  "document_values"),
    "selftest": ("run_selftest", "induced_by_averaging"),
    "cli": ("main", "render_report_text", "render_table_text", "render_table_csv",
            "render_scan_text"),
}

# per-layer time metrics: metric name -> spans whose durations it sums
SPAN_METRICS = {
    "groups.build_group_s": ("groups.build_group",),
    "groups.conjugacy_classes_s": ("groups.conjugacy_classes",),
    "characters.rows_s": ("characters.label_orbits", "characters.induced_values",
                          "characters.inflated_values"),
    "characters.assemble_s": ("characters.assemble_character_table",),
    "characters.first_orthogonality_s": ("characters.check_first_orthogonality",),
    "characters.second_orthogonality_s": ("characters.check_second_orthogonality",),
    "characters.tensor_square_s": ("characters.tensor_square_decompose",),
    "characters.fs_indicator_direct_s": ("characters.fs_indicator_direct",),
    "verify.run_table_checks_s": ("verify.run_table_checks",),
    "verify.verify_label_s": ("verify.verify_label",),
    "serialize.table_document_s": ("serialize.table_document",),
    "serialize.canonical_json_s": ("serialize.canonical_json",),
    "serialize.store_cached_table_s": ("serialize.store_cached_table",),
    "serialize.load_cached_table_s": ("serialize.load_cached_table",),
    "serialize.document_values_s": ("serialize.document_values",),
    "selftest.run_selftest_s": ("selftest.run_selftest",),
    "selftest.induced_by_averaging_s": ("selftest.induced_by_averaging",),
    "cli.render_s": ("cli.render_report_text", "cli.render_table_text",
                     "cli.render_table_csv", "cli.render_scan_text"),
}

# per-layer count metrics: metric name -> span whose calls it counts
CALL_COUNTS = {
    "characters.inner_products": "characters.inner_product",
    "verify.labels": "verify.verify_label",
}

# counters kept by the wrappers themselves
COUNTERS = ("cyclotomic.mul_calls", "cyclotomic.values_created",
            "serialize.cache_hits", "serialize.cache_misses")


class Tracer:
    """Context manager that installs the wrappers into the loaded q8family package."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.table_bytes = 0
        self._stack = []
        self._restore = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn, observe=None):
        """Wrap fn in a span; observe(args, result), if given, sees each result."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _measure_table(self, args, text):
        """canonical_json: remember the size of the largest table document."""
        if isinstance(args[0], dict) and "characters" in args[0]:
            self.table_bytes = max(self.table_bytes, len(text.encode()))

    def _count_lookup(self, args, doc):
        """load_cached_table: None is a miss, a document a hit."""
        self.counts["serialize.cache_misses" if doc is None else "serialize.cache_hits"] += 1

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _replace_everywhere(self, original, wrapper):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def __enter__(self):
        observers = {"canonical_json": self._measure_table,
                     "load_cached_table": self._count_lookup}
        for layer, names in SPANNED.items():
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                original = getattr(mod, fname)
                wrapper = self._span(f"{layer}.{fname}", original, observers.get(fname))
                self._replace_everywhere(original, wrapper)
        cyclo = sys.modules[f"{PACKAGE}.cyclotomic"].Cyclotomic
        mul, init = cyclo.__dict__["__mul__"], cyclo.__dict__["__init__"]
        counted_mul = self._counted("cyclotomic.mul_calls", mul)
        for attr, wrapper in (("__mul__", counted_mul), ("__rmul__", counted_mul),
                              ("__init__", self._counted("cyclotomic.values_created", init))):
            self._restore.append((cyclo, attr, cyclo.__dict__[attr]))
            setattr(cyclo, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()
        return False

    # -- results ----------------------------------------------------------------

    def metrics_since(self, mark):
        """Per-layer metrics over the spans from index `mark` on; resets the counters."""
        total, calls, child = defaultdict(float), defaultdict(int), defaultdict(float)
        for name, start, end, parent in self.spans[mark:]:
            total[name] += end - start
            calls[name] += 1
            if parent >= mark:
                child[parent] += end - start
        out = {metric: sum(total[s] for s in names) for metric, names in SPAN_METRICS.items()}
        for metric, span in CALL_COUNTS.items():
            out[metric] = calls[span]
        self_time = dict.fromkeys(SPANNED, 0.0)
        for i, (name, start, end, _) in enumerate(self.spans[mark:], start=mark):
            self_time[name.split(".")[0]] += (end - start) - child[i]
        for layer, seconds in self_time.items():
            out[f"{layer}.self_s"] = seconds
        for key in COUNTERS:
            out[key] = self.counts[key]
        out["serialize.table_bytes"] = self.table_bytes
        self.counts.clear()
        self.table_bytes = 0
        return out

    def dump(self):
        """The recorded spans as JSON-ready records."""
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
