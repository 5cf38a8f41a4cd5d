"""Fidelity evaluation: agreement sweeps, post-removal accuracy sweeps, confusion matrix.

Agreement = fraction of samples whose masked-latent explanation is
classified the same as the prediction on the unmasked latent.
Post-removal accuracy = test accuracy after the top-ranked cells are
replaced by the base latent. Every measurement runs one path: one
attribution map per clip (``_attributions``), then per ratio one masked
batch and one head call (``_masked_preds``; waveforms are masked, clamped
to [-1, 1] and encoded first). Deterministic methods are computed once and
replicated across runs, so their reported std is exactly zero. Each listed
ratio gives its own report row, repeats included.

A sweep takes either raw clips or a test split that ``encode_split`` has already
encoded and scored. The eval commands encode their split once and hand it to every
method's sweep. They also run their two latent methods at once, one on the codec's
helper thread (``codec.run_pair``). Two sweeps share nothing but the split and the
models, and neither writes to those.

An eval command's split keeps its ``STORED_METHODS`` maps in its output directory, for a
later eval command there to read back (``_stored_maps``); library callers get no store.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .attribution import (
    DEFAULT_IG_STEPS,
    INPUT_IG,
    LATENT_IG,
    RANDOM_INPUT,
    RANDOM_LATENT,
    AttributionMap,
    integrated_gradients_input,
    integrated_gradients_latent,
    random_attribution,
)
from .audio import AudioClip
from .classifier import predict_batch
from .codec import CodecConfig, LatentGrid, encode_batch
# bench/workloads.py reads the four mask functions from this module, so they stay bound here
from .masking import (
    KEEP_TOP,
    REMOVE_TOP,
    apply_mask_keep,
    apply_mask_remove,
    mask_input_space,
    mask_input_space_remove,
    noise_baseline,
    select_top,
    splice,
)

REPORT_VERSION = 1

AGREEMENT = "agreement"
POST_REMOVAL_ACCURACY = "post-removal-accuracy"

DEFAULT_ALPHAS = (0.1, 0.2, 0.4, 0.6, 0.8)
DEFAULT_BETAS = (0.01, 0.1, 0.2, 0.4, 0.6, 0.8)
DEFAULT_RUNS = 5
DEFAULT_BASE_SEED = 1234
DEFAULT_NOISE_SEED = 7

ALL_METHODS = (LATENT_IG, RANDOM_LATENT, INPUT_IG, RANDOM_INPUT)
LATENT_METHODS = (LATENT_IG, RANDOM_LATENT)  # sweeps that mask latents and encode nothing
_DETERMINISTIC = (LATENT_IG, INPUT_IG)
STORED_METHODS = (INPUT_IG,)  # kept in a split's store (``_stored_maps``)
MAPS_VERSION = 1  # in every store key: bump it when a stored method's numbers change


class ReportError(ValueError):
    pass


@dataclass
class RatioRow:
    ratio: float
    mean: float  # percent
    std: float   # percent

    def to_dict(self):
        return {"ratio": self.ratio, "mean": self.mean, "std": self.std}


@dataclass
class EvalReport:
    dataset_id: str
    method: str
    metric: str
    rows: list
    run_count: int
    seeds: list
    config: dict = field(default_factory=dict)

    def row(self, ratio: float) -> RatioRow:
        for r in self.rows:
            if abs(r.ratio - ratio) < 1e-12:
                return r
        raise KeyError(f"no row for ratio {ratio}")


@dataclass
class ExplainerModels:
    """Everything the harness needs: codec, head, and the shared noise baseline."""

    codec_config: CodecConfig
    codec_params: dict
    cls_params: dict
    base_latent: LatentGrid
    noise_clip: AudioClip
    ig_steps: int


def build_models(
    codec_config: CodecConfig,
    codec_params: dict,
    cls_params: dict,
    clip_length: int,
    noise_seed: int = DEFAULT_NOISE_SEED,
    ig_steps: int = DEFAULT_IG_STEPS,
) -> ExplainerModels:
    noise, base = noise_baseline(codec_params, codec_config, clip_length, noise_seed)
    return ExplainerModels(codec_config, codec_params, cls_params, base, noise, ig_steps)


@dataclass(frozen=True)
class EncodedSplit:
    """A test split encoded and scored by ``models``: the clips as float32, their latents
    and the head's predictions on them."""

    models: ExplainerModels
    clips: np.ndarray
    latents: np.ndarray
    preds: np.ndarray
    store: tuple | None = None  # (directory, SHA-256 of the codec and head checkpoint files)


def encode_split(clips, models: ExplainerModels, store: tuple | None = None) -> EncodedSplit:
    """The clips encoded and scored once, for any number of sweeps on these models; an
    ``EncodedSplit`` of these models is returned as it is. With ``store``, a directory and
    the models' two checkpoint hashes, the split's stored maps are kept there."""
    if isinstance(clips, EncodedSplit):
        if clips.models is not models:
            raise ValueError("the split was encoded by other models")
        return clips
    clips = np.asarray(clips, dtype=np.float32)
    if clips.shape[0] == 0:
        raise ValueError("test set must be nonempty")
    latents = encode_batch(clips, models.codec_params, models.codec_config)
    return EncodedSplit(models, clips, latents, predict_batch(latents, models.cls_params), store)


def _map_samples(fn, items, jobs: int):
    """Apply fn over items, optionally on a thread pool; results keep sample order."""
    if jobs <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _attributions(method, split: EncodedSplit, run_seed, jobs):
    """One attribution map per clip, for the class the head predicts on it; ``run_seed``
    seeds the random methods. The maps of the ``STORED_METHODS`` come from the split's
    store where it holds them, and go into it where it does not."""
    clips, latents, targets, models = split.clips, split.latents, split.preds, split.models
    if method in STORED_METHODS and split.store is not None:
        scores = _stored_maps(method, split, lambda: np.stack(
            [a.scores for a in _attributions(method, replace(split, store=None), run_seed, jobs)]))
        return [AttributionMap(s, int(t), method, models.ig_steps) for s, t in zip(scores, targets)]
    if method == LATENT_IG:
        def one(i):
            return integrated_gradients_latent(LatentGrid(latents[i]), models.base_latent,
                                               models.cls_params, int(targets[i]), models.ig_steps)
    elif method == INPUT_IG:
        def one(i):
            return integrated_gradients_input(clips[i], models.noise_clip.samples,
                                              models.codec_params, models.codec_config,
                                              models.cls_params, int(targets[i]), models.ig_steps)
    else:
        shape = latents.shape[1:] if method == RANDOM_LATENT else clips.shape[1:]

        def one(i):
            return random_attribution(shape, seed=_derive_seed(run_seed, i), method=method)
    return _map_samples(one, range(len(clips)), jobs)


def _stored_maps(method: str, split: EncodedSplit, compute) -> np.ndarray:
    """The split's ``method`` maps, (M, ...) float32, kept in ``<store>/maps_<method>.bin``
    as a 32-byte key and the maps in test order. The key is the SHA-256 of ``MAPS_VERSION``,
    both checkpoint hashes, ``ig_steps``, the method, the noise clip, the split's clips and
    targets, then the maps; no path. A change to the numbers any stored method gives must
    bump ``MAPS_VERSION``, or an older file would pass as this code's maps. A file of another
    size or key is recomputed by ``compute()`` and rewritten through a writer's own temporary
    file and a rename; a path that is no readable, writable file leaves the maps unstored.
    Only input-ig is stored while the bench pins two latent-IG maps per clip on sweep-latent;
    latent-ig (and confusion's) join when that pin moves."""
    (directory, checkpoints), models = split.store, split.models
    path = Path(directory) / f"maps_{method}.bin"
    key = hashlib.sha256(json.dumps([MAPS_VERSION, checkpoints, models.ig_steps, method,
                                     split.clips.shape], sort_keys=True).encode())
    for arr, dtype in ((models.noise_clip.samples, "<f4"), (split.clips, "<f4"),
                       (split.preds, "<i8")):
        key.update(np.ascontiguousarray(arr, dtype))
    try:  # each map has its clip's shape; a FIFO or a file of another size is not read
        fits = path.is_file() and path.stat().st_size == key.digest_size + 4 * split.clips.size
        raw = path.read_bytes() if fits else b""
    except OSError:
        raw = b""
    check = key.copy()
    check.update(memoryview(raw)[key.digest_size:])
    if raw and raw[:key.digest_size] == check.digest():
        return np.frombuffer(raw, "<f4", offset=key.digest_size).reshape(split.clips.shape)
    maps = np.ascontiguousarray(compute(), dtype="<f4")
    key.update(maps)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(key.digest() + maps.tobytes())
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
    return maps


def _derive_seed(run_seed: int, sample_index: int) -> int:
    return int(np.random.SeedSequence([run_seed, sample_index]).generate_state(1)[0])


def _masked_preds(items: np.ndarray, atts, models: ExplainerModels, ratio: float, mode: str):
    """Head predictions after masking each item by its map at ``ratio``.

    Items are latents (M, T, L), masked against the base latent, or
    waveforms (M, N), masked against the noise clip, clamped to [-1, 1]
    like any ``AudioClip`` and encoded.
    """
    latent_space = items.ndim == 3
    base = models.base_latent.values if latent_space else models.noise_clip.samples
    masked = np.empty_like(items)  # items and base are float32
    for x, att, out in zip(items, atts, masked):
        splice(x, base, select_top(att, ratio, mode=mode), mode, out=out)
    if not latent_space:
        masked = encode_batch(np.clip(masked, -1.0, 1.0, out=masked), models.codec_params,
                              models.codec_config)
    return predict_batch(masked, models.cls_params)


def _sweep(split: EncodedSplit, reference, method: str, ratios, runs: int, base_seed: int,
           metric: str, dataset_id: str, jobs: int) -> EvalReport:
    """Percent of masked predictions equal to ``reference``, one row per listed ratio."""
    if method not in ALL_METHODS:
        raise ValueError(f"unknown method {method!r}")
    models = split.models
    items = split.latents if method in LATENT_METHODS else split.clips
    mode = KEEP_TOP if metric == AGREEMENT else REMOVE_TOP
    ratios = list(ratios)

    def scores(run_seed):
        atts = _attributions(method, split, run_seed, jobs)
        return [100.0 * float(np.mean(_masked_preds(items, atts, models, r, mode) == reference))
                for r in ratios]

    if method in _DETERMINISTIC:
        per_run = [scores(base_seed)] * runs
    else:
        per_run = [scores(base_seed + run) for run in range(runs)]
    rows = []
    for i, ratio in enumerate(ratios):
        arr = np.asarray([v[i] for v in per_run], dtype=np.float64)
        rows.append(RatioRow(float(ratio), float(arr.mean()), float(arr.std(ddof=0))))
    return EvalReport(dataset_id, method, metric, rows, runs,
                      [base_seed + r for r in range(runs)], {"ig_steps": models.ig_steps})


def fidelity_agreement(
    clips: np.ndarray,
    models: ExplainerModels,
    method: str,
    ratios=DEFAULT_ALPHAS,
    runs: int = DEFAULT_RUNS,
    base_seed: int = DEFAULT_BASE_SEED,
    dataset_id: str = "",
    jobs: int = 1,
) -> EvalReport:
    """Agreement between the masked-latent explanation and the original prediction.

    ``clips`` are (M, N) waveforms or their ``encode_split``."""
    split = encode_split(clips, models)
    return _sweep(split, split.preds, method, ratios, runs, base_seed, AGREEMENT, dataset_id,
                  jobs)


def accuracy_drop(
    clips: np.ndarray,
    labels: np.ndarray,
    models: ExplainerModels,
    method: str,
    ratios=DEFAULT_BETAS,
    runs: int = DEFAULT_RUNS,
    base_seed: int = DEFAULT_BASE_SEED,
    dataset_id: str = "",
    jobs: int = 1,
) -> EvalReport:
    """Test accuracy after the top-ranked cells are replaced by the base latent.

    ``clips`` are (M, N) waveforms or their ``encode_split``."""
    split = encode_split(clips, models)
    return _sweep(split, np.asarray(labels, dtype=np.int64), method, ratios, runs, base_seed,
                  POST_REMOVAL_ACCURACY, dataset_id, jobs)


def confusion_after_removal(
    clips: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    models: ExplainerModels,
    beta: float,
) -> np.ndarray:
    """C x C count matrix (rows true, cols predicted) after latent-IG removal at ratio beta."""
    split = encode_split(clips, models)
    atts = _attributions(LATENT_IG, split, None, 1)
    preds = _masked_preds(split.latents, atts, models, beta, REMOVE_TOP)
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(mat, (np.asarray(labels, dtype=np.int64), preds), 1)
    return mat


def write_report(report: EvalReport, path) -> None:
    payload = {
        "version": REPORT_VERSION,
        "dataset_id": report.dataset_id,
        "method": report.method,
        "metric": report.metric,
        "rows": [r.to_dict() for r in report.rows],
        "run_count": report.run_count,
        "seeds": list(report.seeds),
        "config": report.config,
    }
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True, indent=1)


def _report_field(obj, key: str, kind):
    """``obj[key]`` if it is a ``kind`` (a bool is no number), else ReportError."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ReportError(f"malformed report: {key!r} is {value!r}")
    return value


def read_report(path) -> EvalReport:
    """The report at ``path``; ReportError unless it has the fields ``write_report`` writes."""
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ReportError(f"malformed report file: {e}") from e
    version = payload.get("version") if isinstance(payload, dict) else None
    if type(version) is not int or version != REPORT_VERSION:
        raise ReportError(f"unsupported report version {version!r}")
    rows = [RatioRow(*(_report_field(r, k, (int, float)) for k in ("ratio", "mean", "std")))
            for r in _report_field(payload, "rows", list)]
    seeds, config = _report_field(payload, "seeds", list), payload.get("config", {})
    if not all(type(s) is int for s in seeds) or not isinstance(config, dict):
        raise ReportError(f"malformed report: seeds {seeds!r}, config {config!r}")
    return EvalReport(
        _report_field(payload, "dataset_id", str), _report_field(payload, "method", str),
        _report_field(payload, "metric", str), rows, _report_field(payload, "run_count", int),
        seeds, config,
    )


def report_to_csv(report: EvalReport) -> str:
    """Columns (ratio, mean, std), one row per ratio."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["ratio", "mean", "std"])
    for r in report.rows:
        w.writerow([r.ratio, r.mean, r.std])
    return buf.getvalue()


def write_report_csv(report: EvalReport, path) -> None:
    Path(path).write_text(report_to_csv(report))
