"""Outside-in span recorder for the traced benchmark run.

``install`` replaces the public functions as ``odfault.cli``,
``odfault.campaign`` and ``odfault.ap`` bind them with timing wrappers; no
file of the package changes. Each wrapped call records one span: its name,
start, end, the enclosing span and the campaign item it belongs to. Under
``workers=1`` the item is the injection index, read from the seed that
``sample_fault`` receives, or for ingest the ordinal of the image being
scored. Spans stay in memory until ``Recorder.dump``.

``layer_metrics`` turns one run's spans into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time

# (module, attribute, span name); attributes a module lacks are skipped, so
# the trace keeps working when a later version drops or renames one.
WRAPPED = (
    ("odfault.cli", "run_transient", "campaign.run"),
    ("odfault.cli", "run_permanent", "campaign.run"),
    ("odfault.cli", "ingest_and_score", "campaign.run"),
    ("odfault.campaign", "infer", "detector.infer"),
    ("odfault.campaign", "generate_scene", "detector.generate"),
    ("odfault.campaign", "generate_sequence", "detector.generate"),
    ("odfault.campaign", "sample_fault", "bits.sample_fault"),
    ("odfault.campaign", "assign", "matching.assign"),
    ("odfault.campaign", "fp_type_breakdown", "matching.fp_type_breakdown"),
    ("odfault.campaign", "severity", "metrics.severity"),
    ("odfault.campaign", "read_records", "records.read_records"),
    ("odfault.campaign", "rasterize", "geometry.rasterize"),
    ("odfault.campaign", "track", "persistence.track"),
    ("odfault.campaign", "occupancy_series", "persistence.occupancy_series"),
    ("odfault.campaign", "sdc_at_severity", "persistence.sdc_at_severity"),
    ("odfault.campaign", "write_pgm", "campaign.write_pgm"),
    ("odfault.ap", "average_precision", "ap.average_precision"),
    ("odfault.ap", "mean_average_precision", "ap.mean_average_precision"),
)


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Recorder:
    """Keeps spans as lists ``[name, start, end, parent, item, extra]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._item = None
        self._by_fault = False
        self._images = 0
        self._golden: dict[int, tuple] = {}

    def wrap(self, name, func):
        def wrapper(*args, **kwargs):
            self._before(name, args, kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._item, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            span[5] = self._extra(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _before(self, name, args, kwargs):
        if name == "bits.sample_fault":
            entropy = getattr(_arg(args, kwargs, 3, "seed"), "entropy", None)
            if isinstance(entropy, (tuple, list)) and len(entropy) == 3:
                self._by_fault = True
                self._item = int(entropy[2])
        elif name in ("matching.assign", "metrics.severity") and not self._by_fault:
            self._item = self._images

    def _extra(self, name, args, kwargs, result):
        if name == "matching.assign":
            preds = _arg(args, kwargs, 0, "preds")
            return {"n_preds": len(preds) if preds is not None else 0}
        if name == "records.read_records":
            path = _arg(args, kwargs, 0, "path")
            return {"bytes": os.path.getsize(path) if path and os.path.isfile(path) else 0}
        if name == "metrics.severity" and not self._by_fault:
            self._images += 1
        elif name == "detector.infer":
            scene = _arg(args, kwargs, 1, "scene")
            fault = _arg(args, kwargs, 2, "fault")
            detections = tuple(getattr(result, "detections", ()))
            if fault is None:
                # the scene is kept with its detections so its id stays unique
                self._golden[id(scene)] = (scene, detections)
                return None
            golden = self._golden.get(id(scene))
            return {
                "layer": getattr(fault, "layer_index", -1) + 1,
                "changed": golden is None or golden[1] != detections,
                "nonfinite": bool(getattr(result, "nan_seen", False)
                                  or getattr(result, "inf_seen", False)),
            }
        return None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def install(recorder: Recorder) -> None:
    for module_name, attribute, span_name in WRAPPED:
        module = importlib.import_module(module_name)
        func = getattr(module, attribute, None)
        if callable(func):
            setattr(module, attribute, recorder.wrap(span_name, func))


# ---------------------------------------------------------------------------
# per-layer metrics


def _percentile(values, q):
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


_REDUCERS = {
    "calls": (len, "count"),
    "total_ms": (sum, "ms"),
    "p50_ms": (lambda values: _percentile(values, 0.50), "ms"),
    "p99_ms": (lambda values: _percentile(values, 0.99), "ms"),
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def layer_metrics(spans, bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``."""
    ms: dict[str, list[float]] = {}
    for span in spans:
        ms.setdefault(span[0], []).append((span[2] - span[1]) * 1e3)

    out: dict[str, tuple[float, str]] = {}

    def stats(name, *kinds, values=None):
        values = ms.get(name, []) if values is None else values
        for kind in kinds:
            reduce, unit = _REDUCERS[kind]
            out[f"{name}.{kind}"] = (reduce(values), unit)

    infers = [s for s in spans if s[0] == "detector.infer"]
    golden = [(s[2] - s[1]) * 1e3 for s in infers if s[5] is None]
    faulty = [s for s in infers if s[5] is not None]
    faulty_ms = [(s[2] - s[1]) * 1e3 for s in faulty]
    stats("detector.infer", "calls", "total_ms", "p50_ms", "p99_ms")
    stats("detector.infer_golden", "total_ms", values=golden)
    stats("detector.infer_faulty", "total_ms", "p50_ms", values=faulty_ms)
    for layer in range(1, 6):
        stats(f"detector.infer_faulty.L{layer}", "p50_ms",
              values=[(s[2] - s[1]) * 1e3 for s in faulty if s[5]["layer"] == layer])
    n_faulty = len(faulty)
    out["detector.output_changed_ratio"] = (
        sum(s[5]["changed"] for s in faulty) / n_faulty if n_faulty else 0.0, "ratio")
    out["detector.nonfinite_ratio"] = (
        sum(s[5]["nonfinite"] for s in faulty) / n_faulty if n_faulty else 0.0, "ratio")
    stats("detector.generate", "total_ms")

    stats("bits.sample_fault", "calls", "total_ms")

    stats("matching.assign", "calls", "total_ms", "p50_ms", "p99_ms")
    out["matching.assign.max_preds"] = (
        max((s[5]["n_preds"] for s in spans if s[0] == "matching.assign"), default=0), "count")
    stats("matching.fp_type_breakdown", "total_ms")

    stats("metrics.severity", "total_ms", "p99_ms")

    stats("ap.average_precision", "calls", "total_ms")
    stats("ap.mean_average_precision", "total_ms")

    stats("records.read_records", "total_ms")
    out["records.bytes_read"] = (
        sum(s[5]["bytes"] for s in spans if s[0] == "records.read_records"), "bytes")

    stats("geometry.rasterize", "calls", "total_ms")

    stats("persistence.track", "calls", "total_ms")
    stats("persistence.occupancy_series", "total_ms")
    stats("persistence.sdc_at_severity", "total_ms")

    runs = [i for i, s in enumerate(spans) if s[0] == "campaign.run"]
    golden_ms = report_ms = self_ms = 0.0
    if runs:
        run = spans[runs[0]]
        start, end = run[1], run[2]
        first_faulty = min((s[1] for s in faulty), default=None)
        golden_ms = (first_faulty - start) * 1e3 if first_faulty is not None else 0.0
        layer_ends = [s[2] for s in spans
                      if s[0] not in ("campaign.run", "campaign.write_pgm")]
        report_ms = (end - max(layer_ends, default=start)) * 1e3
        self_ms = self_times(spans)[runs[0]] * 1e3
    out["campaign.golden_ms"] = (golden_ms, "ms")
    out["campaign.report_ms"] = (report_ms, "ms")
    out["campaign.self_ms"] = (self_ms, "ms")
    stats("campaign.write_pgm", "calls")
    out["campaign.bytes_written"] = (bytes_written, "bytes")
    return out
