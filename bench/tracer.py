"""Spans around the calls into each layer, and the per-layer metrics.

The child process installs a `Tracer`, which replaces each public
function at the name through which its caller looks it up (for
example `cli.weighted_volume`, which the kernel lambda in `cmd_gram`
reads at call time, or `ot.monge_check`, which `ot_cost` reads). A call
records a span [name, start, end, parent, busy, extra]. For a wrapped
table generator, busy is the time spent inside its `next` calls and
extra the number of tables it yielded, so the consumer's work between
yields stays with the consumer. Spans stay in memory and are dumped to
JSON when the run ends; the wrappers are then restored.

A name that no longer exists is recorded as missing and its metrics
read 0, so the benchmark runs unchanged when a later version of the
program drops or stops calling one of these functions.

The parent turns the spans into per-layer metrics with
`layer_metrics`. Self time is a span's busy time minus the busy time
of its child spans.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time
import tracemalloc

PKG = "transportkernels"

# (module, attribute, span name, kind)
TARGETS = (
    ("fileio", "parse_histograms", "fileio.parse_histograms", "call"),
    ("fileio", "parse_weights", "fileio.parse_weights", "call"),
    ("fileio", "write_gram_csv", "fileio.write_gram_csv", "call"),
    ("fileio", "write_json", "fileio.write_json", "call"),
    ("cli", "build_gram", "cli.build_gram", "call"),
    ("cli", "certify_psd", "cli.certify_psd", "certify"),
    ("cli", "weighted_volume", "cli.weighted_volume", "call"),
    ("cli", "pseudo_kernel", "cli.pseudo_kernel", "call"),
    ("cli", "nw_kernel", "cli.nw_kernel", "nw"),
    ("polytope", "count_tables", "polytope.count_tables", "call"),
    ("polytope", "enumerate_tables", "polytope.enumerate_tables", "gen"),
    ("ot", "enumerate_tables", "ot.enumerate_tables", "gen"),
    ("ot", "ot_cost", "ot.ot_cost", "call"),
    ("ot", "monge_check", "ot.monge_check", "result"),
)
KERNELS = ("cli.weighted_volume", "cli.pseudo_kernel", "cli.nw_kernel")
ROOT = "cli.main"

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.open_generators = 0
        self.finite_costs = 0  # table costs priced while a generator is open
        self._patched: list[tuple[object, str, object]] = []
        self._nw_peak_done = False

    # -- spans ---------------------------------------------------------

    def open_span(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = _clock()
        return span

    def close_span(self, span: list) -> None:
        span[2] = _clock()
        span[4] = span[2] - span[1]
        self.stack.pop()

    # -- wrappers ------------------------------------------------------

    def _call(self, fn, name, kind):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open_span(name)
            # The (|R|, |R|, 2d) temporaries have the same shape for every
            # pair, so the first call's allocation peak stands for all.
            measure_alloc = kind == "nw" and not tracer._nw_peak_done
            peak = None
            if measure_alloc:
                tracer._nw_peak_done = True
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer.close_span(span)
            if kind == "result":
                span[5] = bool(result)
            elif kind == "certify":
                span[5] = int(args[0].n)
            elif kind == "nw":
                rset = args[3] if len(args) > 3 else kwargs["rset"]
                span[5] = [len(rset) ** 2, peak]
            return result

        return traced

    def _generator(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open_span(name)
            try:
                inner = iter(fn(*args, **kwargs))
            finally:
                tracer.close_span(span)
            span[5] = 0
            return tracer._stream(inner, span)

        return traced

    def _stream(self, inner, span):
        self.open_generators += 1
        busy = span[4]
        try:
            while True:
                t0 = _clock()
                try:
                    item = next(inner)
                except StopIteration:
                    busy += _clock() - t0
                    return
                busy += _clock() - t0
                span[5] += 1
                yield item
        finally:
            self.open_generators -= 1
            span[2] = _clock()
            span[4] = busy
            close = getattr(inner, "close", None)
            if close is not None:
                close()

    def _table_cost(self, fn):
        tracer = self

        def cost(table, m):
            value = fn(table, m)
            if tracer.open_generators and math.isfinite(value):
                tracer.finite_costs += 1
            return value

        return cost

    # -- install / restore -------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module_name, attr, name, kind in TARGETS:
            try:
                module = importlib.import_module(f"{PKG}.{module_name}")
            except ImportError:
                self.missing.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            if kind == "gen":
                wrapper = self._generator(fn, name)
            else:
                wrapper = self._call(fn, name, kind)
            self._patch(module, attr, wrapper)
        try:
            table_cls = importlib.import_module(f"{PKG}.histograms").ContingencyTable
            self._patch(table_cls, "cost", self._table_cost(table_cls.cost))
        except (ImportError, AttributeError):
            self.missing.append("histograms.ContingencyTable.cost")

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        doc = {
            "spans": self.spans,
            "missing": self.missing,
            "finite_costs": self.finite_costs,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- analysis (parent side) -------------------------------------------


def high_percentile(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it; the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer numbers of one traced run, keyed by metric name."""
    spans = doc["spans"]
    child_busy = [0.0] * len(spans)
    for name, _, _, parent, busy, _ in spans:
        if parent >= 0:
            child_busy[parent] += busy

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def busy(name):
        return sum(spans[i][4] for i in named(name))

    def self_time(name):
        return sum(spans[i][4] - child_busy[i] for i in named(name))

    (root,) = named(ROOT)
    gram = spans[root][4]
    enum_names = ("polytope.enumerate_tables", "ot.enumerate_tables")
    tables = sum(spans[i][5] for n in enum_names for i in named(n))
    enum_busy = sum(busy(n) for n in enum_names)
    nw_spans = [spans[i] for i in named("cli.nw_kernel")]
    nw_busy = busy("cli.nw_kernel")
    vertices = sum(s[5][0] for s in nw_spans)
    nw_peaks = [s[5][1] for s in nw_spans if s[5][1] is not None]
    monge = [spans[i][5] for i in named("ot.monge_check")]
    ot_calls = len(named("ot.ot_cost"))
    pair_ms = [1e3 * spans[i][4] for k in KERNELS for i in named(k)]
    pair_hi, pair_hi_pct = high_percentile(pair_ms)
    certify = named("cli.certify_psd")
    polytope_busy = busy("cli.weighted_volume") + busy("ot.enumerate_tables")
    return {
        "fileio.parse_s": busy("fileio.parse_histograms") + busy("fileio.parse_weights"),
        "fileio.write_s": busy("fileio.write_gram_csv") + busy("fileio.write_json"),
        "polytope.share": polytope_busy / gram,
        "polytope.count_tables_calls": len(named("polytope.count_tables")),
        "polytope.count_tables_share": busy("polytope.count_tables") / gram,
        "polytope.weighted_volume_calls": len(named("cli.weighted_volume")),
        "polytope.weighted_volume_self_share": self_time("cli.weighted_volume") / gram,
        "polytope.tables_enumerated": tables,
        "polytope.tables_per_s": tables / enum_busy if tables else 0.0,
        "polytope.useful_table_frac": doc["finite_costs"] / tables if tables else 0.0,
        "northwest.nw_kernel_calls": len(nw_spans),
        "northwest.nw_kernel_share": nw_busy / gram,
        "northwest.vertices_per_s": vertices / nw_busy if nw_spans else 0.0,
        "northwest.peak_alloc_mb": max(nw_peaks) / 2**20 if nw_peaks else 0.0,
        "ot.ot_cost_calls": ot_calls,
        "ot.ot_cost_share": busy("ot.ot_cost") / gram,
        "ot.monge_check_share": busy("ot.monge_check") / gram,
        "ot.monge_shortcut_frac": sum(monge) / ot_calls if ot_calls else 0.0,
        "psd.kernel_evals": len(pair_ms),
        "psd.build_gram_self_s": self_time("cli.build_gram"),
        "psd.pair_ms_p50": statistics.median(pair_ms) if pair_ms else 0.0,
        "psd.pair_ms_hi": pair_hi,
        "psd.pair_hi_pct": pair_hi_pct,
        "psd.certify_s": busy("cli.certify_psd"),
        "psd.certify_share": busy("cli.certify_psd") / gram,
        "psd.certify_n": spans[certify[0]][5] if certify else 0,
        "cli.self_s": spans[root][4] - child_busy[root],
    }

