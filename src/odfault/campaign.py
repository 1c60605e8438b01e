"""Campaign orchestration: transient and permanent injections, ingestion,
and the synthetic PR experiment, with CSV/JSON/PGM reporting.

Every campaign is driven by a single config (JSON document or
``CampaignConfig``) whose seed fully determines the outcome: scenes, frame
sequences and faults derive their randomness from ``(seed, stream,
index)``, each work item (a transient scene, a permanent injection chunk)
is a function of the config, the model and the item alone, and results
are reduced in injection order, so a re-run at any worker count produces
byte-identical reports. The ``config`` echo in each report is a document
that reproduces the campaign. Faulty inferences resume from the golden
trace of their scene or frame (see ``detector.infer``); a process holds
one golden trace at a time.

Transient injections and ingested record pairs share one image-wise
scoring (``_score``) and one summary of rates, SDC severity and AP
(``_summary``).
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import partial, reduce
from operator import attrgetter, itemgetter

import numpy as np

from odfault import ap as ap_mod
from odfault._rng import Seed
from odfault.bits import (
    BIT_POLICIES,
    FaultDescriptor,
    FaultMode,
    FaultTarget,
    ShapeCatalog,
    rescale_rate,
    sample_fault,
)
from odfault.detector import (
    DetectorModel,
    SceneSpec,
    generate_scene,
    generate_sequence,
    infer,
    receptive_field,
    reference_model,
    shape_catalog,
)
from odfault.geometry import _json, mask_diff, rasterize
from odfault.matching import CategoryPolicy, assign, fp_type_breakdown
from odfault.metrics import ImageEval, SdcReport, _mean, bit_averaged, bit_grouped, severity
from odfault.persistence import TrackerConfig, occupancy_series, sdc_at_severity, track
from odfault.records import DataError, read_records

__all__ = [
    "ConfigError",
    "CampaignConfig",
    "run_transient",
    "run_permanent",
    "ingest_and_score",
    "simulate_pr",
    "CSV_COLUMNS",
    "write_pgm",
]


class ConfigError(Exception):
    """Invalid campaign configuration (CLI exit code 2)."""


# Largest scene side: a golden trace holds 41 float32 planes of the scene,
# about 170 MB at 1024 x 1024, and a permanent injection 2 MB of masks per
# frame that its fault changed at that side (``_CHUNK_MASK_BYTES`` bounds
# them per work item for the worst case, a fault that changes every frame).
MAX_SCENE_SIDE = 1024

# Most worker processes: a process pool starts all of its workers at once.
MAX_WORKERS = 64

# Most bytes of results a transient or permanent campaign holds until its
# report: about 1 KiB a transient injection, 4 KiB plus 64 B a frame a
# permanent one (tracemalloc peaks, rounded up), so about 1M transient and
# 135k permanent injections at 60 frames.
MAX_RESULT_BYTES = 1 << 30

# Most ground truths of the synthetic PR experiment: its memory and output
# grow with them, to about 270 MB peak and 160 MB of CSV at this bound.
MAX_SYNTHETIC_OBJECTS = 1_000_000


# Streams for deriving independent per-item seeds from the campaign seed.
_STREAM_SCENE = 0
_STREAM_FAULT = 1
_STREAM_SEQUENCE = 2

_FAULT_COLUMNS = ("target", "layer", "coords", "bit", "mode")
_REPORT_COLUMNS = tuple(f.name for f in fields(SdcReport))
CSV_COLUMNS = ("injection_id", *_FAULT_COLUMNS, "image_id", *_REPORT_COLUMNS)
_FP_TYPES = ("class_only", "box_only", "both_or_unmatched")

def _derive_seed(seed: int, stream: int, index: int) -> Seed:
    return Seed((seed, stream, index))


@dataclass(frozen=True)
class CampaignConfig:
    """Validated configuration shared by all campaign modes."""

    mode: str = "transient"
    seed: int | None = None  # mandatory; its parser rejects None
    n_injections: int = 200
    target: str = "neuron"
    bit_policy: str = "all_32"
    workers: int = 1
    iou_threshold: float = 0.5
    scene_spec: SceneSpec = field(default_factory=SceneSpec)
    scene_pool: int = 200
    fixed_scene: bool = False
    n_frames: int = 60
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    severity_levels: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15)
    category_policy: CategoryPolicy = field(default_factory=CategoryPolicy.strict)
    emit_masks: int = 0

    def __post_init__(self):
        # the _CONFIG_FIELDS parsers are the one type rule, as in from_json:
        # every field, nested ones too, holds the plain value its parser returns
        values: dict[str, dict] = {}
        for _, _, name, parse in _CONFIG_FIELDS:
            owner, _, attr = name.rpartition(".")
            try:
                values.setdefault(owner, {})[attr] = parse(reduce(getattr, name.split("."), self))
            except (TypeError, AttributeError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        for name, value in _config_kwargs(values).items():
            object.__setattr__(self, name, value)
        if self.mode not in ("transient", "permanent", "ingest"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")
        if self.target not in [target.value for target in FaultTarget]:
            raise ConfigError(f"unknown target {self.target!r}")
        if self.bit_policy not in BIT_POLICIES:
            raise ConfigError(f"unknown bit policy {self.bit_policy!r}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigError(f"workers must lie in 1..{MAX_WORKERS}, got {self.workers}")
        if self.emit_masks < 0:
            raise ConfigError("emit_masks must not be negative")
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ConfigError(f"iou_threshold must lie in (0, 1], got {self.iou_threshold}")
        if self.scene_pool < 1:
            raise ConfigError("scene pool must be at least 1")
        spec = self.scene_spec
        if not all(1 <= side <= MAX_SCENE_SIDE for side in (spec.width, spec.height)):
            raise ConfigError(f"scene sides must be at least 1 and at most {MAX_SCENE_SIDE} "
                              f"pixels, got {spec.width}x{spec.height}")
        # no larger object fits any scene, nor more objects than it has pixels
        for name, bound in (("size_range", MAX_SCENE_SIDE), ("object_count", MAX_SCENE_SIDE ** 2)):
            if (value := getattr(spec, name))[1] > bound:
                raise ConfigError(f"scene {name} must end at most at {bound}, got {value}")
        if self.mode == "permanent" and self.n_frames < self.tracker.n:
            raise ConfigError(
                f"sequence of {self.n_frames} frames is shorter than tracker n={self.tracker.n}")
        # a permanent work item holds every frame at once, 7 bytes a pixel: the
        # float32 frame, its golden raster and one injection's FP and FN masks
        frame_bytes = 7 * spec.width * spec.height
        if self.mode == "permanent" and self.n_frames * frame_bytes > _CHUNK_MASK_BYTES:
            raise ConfigError(f"n_frames must be at most {_CHUNK_MASK_BYTES // frame_bytes} "
                              f"for {spec.width}x{spec.height} scenes, got {self.n_frames}")
        if self.mode in ("transient", "permanent"):
            most = MAX_RESULT_BYTES // (1024 if self.mode == "transient" else 4096 + 64 * self.n_frames)
            if not 1 <= self.n_injections <= most:
                raise ConfigError(f"n_injections must lie in 1..{most} for this {self.mode} "
                                  f"campaign, got {self.n_injections}")
        # sorted unique, so the lowest level is [0] and report keys read
        # "0.0" whether the config said 0 or 0.0
        levels = tuple(sorted(set(self.severity_levels)))
        if not levels:
            raise ConfigError("severity_levels must not be empty")
        if not all(0.0 <= level < math.inf for level in levels):
            raise ConfigError("severity levels must be finite and non-negative")
        object.__setattr__(self, "severity_levels", levels)

    @classmethod
    def from_json(cls, obj: dict, **overrides) -> "CampaignConfig":
        """Config from a JSON document; ``overrides``, keyed by field name, win.

        Only the keys the document has are filled in, so every default is
        its dataclass's own. Overrides that are None or name no field are
        ignored; a document value an override replaces is still checked.
        """
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        values: dict[str, dict] = {}
        try:
            for section, key, name, parse in _CONFIG_FIELDS:
                doc = obj.get(section, {}) if section else obj
                if not isinstance(doc, dict):
                    raise ConfigError(f"config section {section!r} must be a JSON object")
                owner, _, attr = name.rpartition(".")
                try:
                    if key in doc:
                        values.setdefault(owner, {})[attr] = parse(doc[key])
                    if overrides.get(name) is not None:
                        values.setdefault(owner, {})[attr] = parse(overrides[name])
                except TypeError as exc:
                    raise ConfigError(f"{section or 'config'} key {key!r}: {exc}") from exc
            return cls(**_config_kwargs(values))
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc

    def echo(self) -> dict:
        """The JSON document that reproduces this campaign."""
        doc: dict = {}
        for section, key, name, _ in _CONFIG_FIELDS:
            # the worker count is an execution detail, not campaign identity:
            # outputs must be byte-identical at any parallelism
            if name != "workers":
                target = doc.setdefault(section, {}) if section else doc
                target[key] = _json_value(reduce(getattr, name.split("."), self))
        return doc


def _clusters(groups) -> tuple[frozenset, ...]:
    return tuple(frozenset(group) for group in _json([[int]])(groups))


def _json_value(value):
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    return value


# Where each config field lives in a JSON document: (section, key, field,
# parser). Section "" is the top level; a dotted field belongs to the
# nested dataclass named before the dot (see _NESTED).
_CONFIG_FIELDS = (
    ("", "mode", "mode", _json(str)),
    ("", "seed", "seed", _json(int)),
    ("", "n_injections", "n_injections", _json(int)),
    ("", "target", "target", _json(str)),
    ("", "bit_policy", "bit_policy", _json(str)),
    ("", "workers", "workers", _json(int)),
    ("", "iou_threshold", "iou_threshold", _json(float)),
    ("scene", "width", "scene_spec.width", _json(int)),
    ("scene", "height", "scene_spec.height", _json(int)),
    ("scene", "object_count", "scene_spec.object_count", _json([int])),
    ("scene", "size_range", "scene_spec.size_range", _json([int])),
    ("scene", "pool", "scene_pool", _json(int)),
    ("scene", "fixed", "fixed_scene", _json(bool)),
    ("sequence", "n_frames", "n_frames", _json(int)),
    ("tracker", "m", "tracker.m", _json(int)),
    ("tracker", "n", "tracker.n", _json(int)),
    ("tracker", "vicinity_px", "tracker.vicinity_px", _json(int)),
    ("tracker", "fp_coasting", "tracker.coasting", _json(bool)),
    ("", "severity_levels", "severity_levels", _json([float])),
    ("category_policy", "mode", "category_policy.mode", _json(str)),
    ("category_policy", "clusters", "category_policy.clusters", _clusters),
    ("", "emit_masks", "emit_masks", _json(int)),
)

_NESTED = {"scene_spec": SceneSpec, "tracker": TrackerConfig, "category_policy": CategoryPolicy}


def _config_kwargs(values: dict[str, dict]) -> dict:
    """Config keyword arguments from parsed values grouped by owner ("" is the top)."""
    kwargs = values.pop("", {})
    for owner, nested in values.items():
        kwargs[owner] = _NESTED[owner](**nested)
    return kwargs


def _scene_pool(cfg: CampaignConfig) -> int:
    return 1 if cfg.fixed_scene else min(cfg.n_injections, cfg.scene_pool)


def _run_items(cfg: CampaignConfig, items, work) -> list:
    """The lists ``work(cfg, model, catalog, item)`` returns, concatenated in
    item order.

    The model and its shape catalogue are built once and passed to every
    item, inline at one worker and pickled to a process pool otherwise.
    """
    model = reference_model()
    run = partial(work, cfg, model,
                  shape_catalog(model, cfg.scene_spec.height, cfg.scene_spec.width))
    if cfg.workers == 1:
        return [result for item in items for result in run(item)]
    from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays this import

    with ProcessPoolExecutor(max_workers=min(cfg.workers, len(items))) as pool:
        chunk = max(1, len(items) // (cfg.workers * 4))
        return [result for results in pool.map(run, items, chunksize=chunk)
                for result in results]


def _generate(generator, cfg: CampaignConfig, *args, **kwargs):
    """Call a scene or sequence generator; a spec it cannot pack is a config error."""
    try:
        return generator(*args, **kwargs)
    except RuntimeError as exc:
        raise ConfigError(f"cannot generate scenes for {cfg.scene_spec}: {exc}") from exc


def _counts(cfg: CampaignConfig, dets, gts) -> tuple[int, int, int]:
    """(tp, fp, fn) of one image's detections against its ground truth."""
    outcome = assign(dets, gts, cfg.iou_threshold, cfg.category_policy)
    return outcome.tp, outcome.fp, outcome.fn


@dataclass(frozen=True, slots=True)
class _Scored:
    """One scored image: its ``CSV_COLUMNS`` row and its entry in the AP corpora.

    ``key`` names the image in the corpora: the injection id of a transient
    injection, the image id of an ingested pair (which has no injection id
    and no fault). ``fp_types`` is the FP-type breakdown of a transient SDC.
    """

    key: object
    injection_id: int | None
    fault: FaultDescriptor | None
    image_id: object
    report: SdcReport
    gts: tuple
    orig: tuple
    corr: tuple
    fp_types: dict | None = None


def _score(cfg: CampaignConfig, counts_orig, dims, nan: bool, inf: bool, *,
           key, injection_id=None, fault=None, image_id, gts, orig, corr) -> _Scored:
    """Image-wise verdict and severity of one corrupted image against its original,
    whose counts the caller computed once.

    A corrupted tuple equal to the original by value has the original's counts
    and raster, so only a changed image is assigned and rasterized: value-equal
    tuples differ at most in the sign of a zero or in int versus float, and the
    assignment and the rasterizer only compare and do arithmetic on values,
    which floats and ints agree on below 2**53 (record and detector boxes hold
    floats and image sides).
    """
    if corr == orig:
        counts_corr, rasters = counts_orig, None
    else:
        counts_corr = _counts(cfg, corr, gts)
        rasters = (rasterize([d.box for d in orig], *dims), rasterize([d.box for d in corr], *dims))
    evaluation = ImageEval(image_id=image_id, counts_orig=counts_orig,
                           counts_corr=counts_corr, inf_flag=inf, nan_flag=nan)
    report = severity(evaluation, orig, corr, dims, rasters=rasters)
    return _Scored(key, injection_id, fault, image_id, report, gts, orig, corr)


def _transient_scene(cfg: CampaignConfig, model: DetectorModel, catalog: ShapeCatalog,
                     scene_idx: int) -> list[_Scored]:
    """One scene's golden pass and every injection that lands on it.

    Injection ``i`` runs on scene ``i mod pool``. Only this scene's golden
    activations are held, so a process keeps one golden set at a time.
    """
    scene = _generate(generate_scene, cfg, cfg.scene_spec,
                      _derive_seed(cfg.seed, _STREAM_SCENE, scene_idx))
    golden = infer(model, scene)
    gts = scene.ground_truth()
    orig = golden.detections
    counts_orig = _counts(cfg, orig, gts)

    injections = []
    for index in range(scene_idx, cfg.n_injections, _scene_pool(cfg)):
        fault = sample_fault(
            catalog, FaultTarget(cfg.target), cfg.bit_policy,
            seed=_derive_seed(cfg.seed, _STREAM_FAULT, index))
        trace = infer(model, scene, fault=fault, golden=golden)
        corr = trace.detections
        scored = _score(cfg, counts_orig, (scene.width, scene.height), trace.nan_seen,
                        trace.inf_seen, key=index, injection_id=index, fault=fault,
                        image_id=scene_idx, gts=gts, orig=orig, corr=corr)
        if scored.report.verdict == "sdc":
            scored = replace(scored, fp_types=fp_type_breakdown(corr, gts, cfg.iou_threshold))
        injections.append(scored)
    return injections


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _fault_cells(fault: FaultDescriptor | None) -> list:
    """The fault's CSV cells; blank for ingested images, which name no fault."""
    if fault is None:
        return [None] * len(_FAULT_COLUMNS)
    cells = dict(fault.to_json(), coords=";".join(str(c) for c in fault.tensor_coords))
    return [cells[column] for column in _FAULT_COLUMNS]


def _write_csv(path, header, rows) -> None:
    """A header and rows of cells, each cell formatted by ``_fmt``."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([_fmt(cell) for cell in row] for row in rows)


def _make_out_dir(out_dir) -> None:
    """Create the output directory; a path that cannot be one is a config error."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {os.fspath(out_dir)!r}: "
                          f"{exc.strerror or exc}") from exc


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, sort_keys=True, indent=2)
        handle.write("\n")


def write_pgm(mask: np.ndarray, path) -> None:
    """Binary mask as an 8-bit PGM image (0 = clear, 255 = set)."""
    height, width = mask.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write((mask.astype(np.uint8) * 255).tobytes())


def _kilo_pixels(value: float | None) -> float | None:
    return value * 1e-3 if value is not None else None


def _summary(scored: list[_Scored], out_dir, csv_name) -> dict:
    """Write the ``CSV_COLUMNS`` rows of a set of scored images to
    ``csv_name``; return their verdict rates, SDC severity means and AP.

    Each rate is its own count over n, so the three need not sum to exactly
    1 in floating point. Box sizes are in thousands of square pixels.
    """
    _write_csv(os.path.join(out_dir, csv_name), CSV_COLUMNS,
               ([s.injection_id, *_fault_cells(s.fault), s.image_id,
                 *(getattr(s.report, name) for name in _REPORT_COLUMNS)] for s in scored))
    gts_by_image = {s.key: s.gts for s in scored}
    verdicts = Counter(s.report.verdict for s in scored)
    sdc = [s.report for s in scored if s.report.verdict == "sdc"]
    return {
        "rates": {verdict: verdicts[verdict] / len(scored) for verdict in ("sdc", "due", "benign")},
        "severity_over_sdc": {
            "n_sdc_events": len(sdc),
            "mean_delta_fp": _mean(r.delta_fp for r in sdc),
            "mean_delta_fn_n": _mean(r.delta_fn_n for r in sdc),
            "avg_conf_orig": _mean(r.avg_conf_orig for r in sdc),
            "avg_conf_corr": _mean(r.avg_conf_corr for r in sdc),
            "avg_size_kpx_orig": _kilo_pixels(_mean(r.avg_size_orig for r in sdc)),
            "avg_size_kpx_corr": _kilo_pixels(_mean(r.avg_size_corr for r in sdc)),
            "mean_a_fp_occ": _mean(r.a_fp_occ for r in sdc),
            "mean_a_fn_vac": _mean(r.a_fn_vac for r in sdc),
        },
        "ap": {
            name: {
                "ap50": ap_mod.average_precision(dets_by_image, gts_by_image, 0.5).mean,
                "map": ap_mod.mean_average_precision(dets_by_image, gts_by_image),
            }
            for name, dets_by_image in (("orig", {s.key: s.orig for s in scored}),
                                        ("corr", {s.key: s.corr for s in scored}))
        },
    }


def run_transient(cfg: CampaignConfig, out_dir) -> dict:
    """Transient single-bit-flip campaign; returns the summary report."""
    if cfg.mode != "transient":
        raise ConfigError(f"run_transient got a {cfg.mode!r} config")
    _make_out_dir(out_dir)
    scored = sorted(_run_items(cfg, range(_scene_pool(cfg)), _transient_scene),
                    key=attrgetter("injection_id"))
    bit_table = bit_averaged((s.fault, s.report) for s in scored)  # ascending bits
    _write_csv(os.path.join(out_dir, "bit_averages.csv"),
               ("bit", "n_sdc", "mean_delta_fp", "mean_delta_fn_n"),
               ([bit, stats["count"], stats["mean_delta_fp"], stats["mean_delta_fn_n"]]
                for bit, stats in bit_table.items()))

    fp_types = sum((Counter(s.fp_types) for s in scored), Counter())
    report = {
        "config": cfg.echo(),
        **_summary(scored, out_dir, "injections.csv"),
        "fp_types_over_sdc": {kind: fp_types[kind] for kind in _FP_TYPES},
        "bit_averages": {str(bit): stats for bit, stats in bit_table.items()},
    }
    _write_json(os.path.join(out_dir, "report.json"), report)
    return report


# ---------------------------------------------------------------------------
# permanent campaign


# bytes of FP and FN blob masks (two bool masks per injection and changed
# frame) one permanent work item may hold when every frame changes; a
# sequence whose frames alone do not fit is refused. Within them a work
# item is a worker's whole share, so a worker plays the sequence once.
_CHUNK_MASK_BYTES = 1 << 30


def _permanent_chunks(cfg: CampaignConfig) -> list[range]:
    mask_bytes = 2 * cfg.n_frames * cfg.scene_spec.width * cfg.scene_spec.height
    size = min(math.ceil(cfg.n_injections / cfg.workers), max(1, _CHUNK_MASK_BYTES // mask_bytes))
    return [range(start, min(start + size, cfg.n_injections))
            for start in range(0, cfg.n_injections, size)]


def _permanent_chunk(cfg: CampaignConfig, model: DetectorModel, catalog: ShapeCatalog,
                     indices: range) -> list[dict]:
    """Stuck-at-1 runs of a chunk of injections over the whole sequence.

    Frames form the outer loop: each frame's golden pass is built once and
    every injection of the chunk resumes from it, so a process holds one
    golden activation set at a time; a frame is freed once its passes are
    done. A frame whose faulty raster is golden's own adds no mask: its FP
    and FN blobs are one shared read-only empty mask. The first
    ``emit_masks`` injections of the chunk that persist at the lowest
    severity level keep their FP tracker masks for the PGM output.

    A neuron fault's pass whose receptive field (``detector.receptive_field``)
    repeats that of an earlier pass of the same injection that kept golden's
    detections is not run again: it keeps golden's detections too, with the
    same NaN/Inf flags. A pass that decoded is never reused.
    """
    width, height = cfg.scene_spec.width, cfg.scene_spec.height
    frames = _generate(
        generate_sequence, cfg, _derive_seed(cfg.seed, _STREAM_SEQUENCE, 0),
        n_frames=cfg.n_frames, width=width, height=height)
    frames.reverse()  # popped in order, so each frame is freed after its passes
    faults = [
        sample_fault(catalog, FaultTarget(cfg.target), "exponent_only",
                     seed=_derive_seed(cfg.seed, _STREAM_FAULT, index),
                     mode=FaultMode.STUCK_AT_1)
        for index in indices
    ]
    orig_rasters = []
    fp_blobs = [[] for _ in faults]
    fn_blobs = [[] for _ in faults]
    due_frames = [0] * len(faults)
    reused = [{} for _ in faults]  # receptive field -> (nan, inf) of a pass that kept golden's detections
    unchanged = np.zeros((height, width), dtype=bool)  # the FP and FN blob of every unchanged frame
    unchanged.flags.writeable = False
    while frames:
        frame = frames.pop()
        golden = infer(model, frame)
        orig_raster = rasterize([d.box for d in golden.detections], width, height)
        orig_rasters.append(orig_raster)
        for k, fault in enumerate(faults):
            patch = receptive_field(model, frame, fault, golden)
            flags = reused[k].get(patch)
            corr_raster = orig_raster
            if flags is None:
                trace = infer(model, frame, fault=fault, golden=golden)
                flags = trace.nan_seen, trace.inf_seen
                if trace.detections != golden.detections:
                    corr_raster = rasterize([d.box for d in trace.detections], width, height)
                elif patch is not None and golden.detections and trace.detections is golden.detections:
                    reused[k][patch] = flags  # golden's own non-empty tuple: the pass did not decode
            if corr_raster is orig_raster:
                fp_blobs[k].append(unchanged)
                fn_blobs[k].append(unchanged)
            else:
                fp_blobs[k].append(mask_diff(corr_raster, orig_raster))
                fn_blobs[k].append(mask_diff(orig_raster, corr_raster))
            due_frames[k] += int(any(flags))

    area = width * height
    fn_tracker = replace(cfg.tracker, coasting=False)
    results = []
    kept_masks = 0
    for k, (index, fault) in enumerate(zip(indices, faults)):
        fp_masks = track(fp_blobs[k], cfg.tracker)
        fp_series = occupancy_series(fp_masks, image_area=area)
        fn_series = occupancy_series(track(fn_blobs[k], fn_tracker), reference_blobs=orig_rasters)
        fp_levels = sdc_at_severity(fp_series, cfg.severity_levels)
        keep = fp_levels[cfg.severity_levels[0]] and kept_masks < cfg.emit_masks
        kept_masks += keep
        results.append({
            "injection_id": index,
            "fault": fault,
            "fp_levels": fp_levels,
            "fn_levels": sdc_at_severity(fn_series, cfg.severity_levels),
            "fp_series": fp_series,
            "fn_series": fn_series,
            "mean_fp_occ": _mean(fp_series),
            "mean_fn_vac": _mean(fn_series),
            "due_frames": due_frames[k],
            "fp_masks": fp_masks if keep else None,
        })
    return results


def run_permanent(cfg: CampaignConfig, out_dir) -> dict:
    """Stuck-at-1 exponent-bit campaign over a frame sequence."""
    if cfg.mode != "permanent":
        raise ConfigError(f"run_permanent got a {cfg.mode!r} config")
    _make_out_dir(out_dir)
    results = _run_items(cfg, _permanent_chunks(cfg), _permanent_chunk)
    n = len(results)
    levels = cfg.severity_levels

    report = {"config": cfg.echo()}
    for kind in ("fp", "fn"):
        raw = {str(level): sum(r[f"{kind}_levels"][level] for r in results) / n
               for level in levels}
        report[f"{kind}_rates_at_level"] = raw
        report[f"{kind}_rates_at_level_rescaled"] = {
            key: rescale_rate(rate) for key, rate in raw.items()}

    _write_csv(os.path.join(out_dir, "injections.csv"),
               ("injection_id", *_FAULT_COLUMNS,
                *(f"{kind}_sdc_at_{level}" for kind in ("fp", "fn") for level in levels),
                "mean_fp_occ", "mean_fn_vac", "due_frames"),
               ([r["injection_id"], *_fault_cells(r["fault"]),
                 *(int(r[f"{kind}_levels"][level]) for kind in ("fp", "fn") for level in levels),
                 r["mean_fp_occ"], r["mean_fn_vac"], r["due_frames"]] for r in results))
    _write_csv(os.path.join(out_dir, "occupancy_series.csv"),
               ("injection_id", "frame", "fp_occ", "fn_vac"),
               ([r["injection_id"], frame_idx, fp, fn] for r in results
                for frame_idx, (fp, fn) in enumerate(zip(r["fp_series"], r["fn_series"]))))

    emitted = [r for r in results if r["fp_masks"] is not None][:cfg.emit_masks]
    for r in emitted:
        for frame_idx, mask in enumerate(r["fp_masks"]):
            write_pgm(mask, os.path.join(
                out_dir, f"fp_mask_inj{r['injection_id']}_frame{frame_idx:03d}.pgm"))

    bit_occupancy = bit_grouped(((r["fault"].bit, r) for r in results),
                                mean_fp_occ=itemgetter("mean_fp_occ"),
                                mean_fn_vac=itemgetter("mean_fn_vac"))
    report["bit_mean_occupancy"] = {str(bit): stats for bit, stats in bit_occupancy.items()}
    report["due_fault_fraction"] = sum(1 for r in results if r["due_frames"] > 0) / n
    _write_json(os.path.join(out_dir, "report.json"), report)
    return report

# ---------------------------------------------------------------------------
# ingestion


def ingest_and_score(orig_path, corr_path, cfg: CampaignConfig, out_dir) -> dict:
    """Score externally produced detection record pairs.

    A fault corrupts detections, not the scene, so both files must give each
    image the same size and ground truth.
    """
    _make_out_dir(out_dir)
    # the corrupted file mostly repeats lines of the original: those are parsed
    # once, and their records are the very same objects in both lists
    known: dict = {}
    orig_records = read_records(orig_path, known)
    corr_records = read_records(corr_path, known)
    del known  # the line texts are not read again: free them before scoring and AP

    orig_by_id = {r.image_id: r for r in orig_records}
    corr_by_id = {r.image_id: r for r in corr_records}
    if len(orig_by_id) != len(orig_records) or len(corr_by_id) != len(corr_records):
        raise DataError("duplicate image_ids in record files")
    missing = sorted(set(orig_by_id) - set(corr_by_id), key=str)
    extra = sorted(set(corr_by_id) - set(orig_by_id), key=str)
    if missing or extra:
        raise DataError(
            f"image_id mismatch: missing from corrupted file {missing[:10]}, "
            f"unmatched in corrupted file {extra[:10]}")

    scored = []
    for image_id in sorted(orig_by_id, key=str):
        orig = orig_by_id[image_id]
        corr = corr_by_id[image_id]
        dims = (orig.width, orig.height)
        if dims != (corr.width, corr.height):
            raise DataError(f"image {image_id!r}: dimensions differ between files")
        if orig.ground_truth != corr.ground_truth:
            raise DataError(f"image {image_id!r}: ground truth differs between files")
        scored.append(_score(cfg, _counts(cfg, orig.detections, orig.ground_truth), dims,
                             corr.nan_flag, corr.inf_flag, key=image_id, image_id=image_id,
                             gts=orig.ground_truth, orig=orig.detections, corr=corr.detections))

    report = {
        "config": cfg.echo(),
        "n_images": len(scored),
        **_summary(scored, out_dir, "images.csv"),
    }
    ap_summary = report["ap"]
    ap_summary["delta"] = {key: ap_summary["corr"][key] - ap_summary["orig"][key]
                           for key in ("ap50", "map")}
    _write_json(os.path.join(out_dir, "report.json"), report)
    return report


# ---------------------------------------------------------------------------
# synthetic PR experiment

def simulate_pr(
    seed: int,
    out_dir,
    n_objects: int = 100,
    p_tp: float = 0.7,
    fp_rate: float = 0.3,
    conf_range: tuple[float, float] = (0.7, 1.0),
) -> dict:
    """Synthetic PR-curve experiment: baseline plus fault-style perturbations."""
    if n_objects > MAX_SYNTHETIC_OBJECTS:
        raise ConfigError(f"invalid PR experiment: n_objects must be at most "
                          f"{MAX_SYNTHETIC_OBJECTS}, got {n_objects}")
    try:
        cfg = ap_mod.SyntheticSetConfig(
            n_objects=n_objects, p_tp=p_tp, fp_rate=fp_rate,
            conf_range=tuple(conf_range), seed=seed)
    except ValueError as exc:
        raise ConfigError(f"invalid PR experiment: {exc}") from exc
    _make_out_dir(out_dir)
    baseline = ap_mod.generate_synthetic_set(cfg)

    variants = [
        ("baseline", baseline),
        ("low_conf_fp_flood", ap_mod.perturb_set(baseline, add_fps=(500, (0.0, 0.2)),
                                                 seed=seed + 1)),
        ("high_conf_fp_few", ap_mod.perturb_set(baseline, add_fps=(100, (0.9, 1.0)),
                                                seed=seed + 2)),
        ("tp_loss", ap_mod.perturb_set(
            baseline, remove_tps=int(len(baseline.tp_confidences) * 0.3), seed=seed + 3)),
    ]

    summary = {
        name: {
            "n_objects": synthetic.n_objects,
            "n_tp": len(synthetic.tp_confidences),
            "n_fp": len(synthetic.fp_confidences),
            "ap50": ap_mod.synthetic_ap50(synthetic),
            "ap50_exact_area": ap_mod.synthetic_ap50(synthetic, interpolation="area"),
        }
        for name, synthetic in variants
    }
    _write_csv(os.path.join(out_dir, "pr_curves.csv"),
               ("variant", "rank", "recall", "precision"),
               ([name, rank, *point] for name, synthetic in variants
                for rank, point in enumerate(ap_mod.synthetic_pr_curve(synthetic).points)))
    _write_csv(os.path.join(out_dir, "pr_summary.csv"), ("variant", *summary["baseline"]),
               ([name, *entry.values()] for name, entry in summary.items()))
    report = {
        "seed": seed,
        "generator": {"n_objects": n_objects, "p_tp": p_tp, "fp_rate": fp_rate,
                      "conf_range": list(conf_range)},
        "variants": summary,
    }
    _write_json(os.path.join(out_dir, "report.json"), report)
    return report
