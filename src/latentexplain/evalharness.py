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
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attribution import (
    INPUT_IG,
    LATENT_IG,
    RANDOM_INPUT,
    RANDOM_LATENT,
    AttributionMap,
    integrated_gradients_input,
    integrated_gradients_latent,
    random_attribution,
)
from .audio import AudioClip, generate_noise_clip
from .classifier import predict_batch
from .codec import CodecConfig, LatentGrid, encode, encode_batch
# bench/workloads.py reads the four mask functions from this module, so they stay bound here
from .masking import (
    BASE_NOISE_AMPLITUDE,
    KEEP_TOP,
    REMOVE_TOP,
    apply_mask_keep,
    apply_mask_remove,
    mask_input_space,
    mask_input_space_remove,
    select_top,
    splice,
)

REPORT_VERSION = 1

AGREEMENT = "agreement"
POST_REMOVAL_ACCURACY = "post-removal-accuracy"

DEFAULT_ALPHAS = (0.1, 0.2, 0.4, 0.6, 0.8)
DEFAULT_BETAS = (0.01, 0.1, 0.2, 0.4, 0.6, 0.8)

ALL_METHODS = (LATENT_IG, RANDOM_LATENT, INPUT_IG, RANDOM_INPUT)
_DETERMINISTIC = (LATENT_IG, INPUT_IG)


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
    ig_steps: int = 64


def build_models(
    codec_config: CodecConfig,
    codec_params: dict,
    cls_params: dict,
    clip_length: int,
    noise_seed: int = 7,
    ig_steps: int = 64,
) -> ExplainerModels:
    # the noise clip is the input-space baseline and its encoding the latent one
    noise = generate_noise_clip(clip_length, BASE_NOISE_AMPLITUDE, noise_seed,
                                codec_config.sample_rate)
    base = encode(noise, codec_params, codec_config)
    return ExplainerModels(codec_config, codec_params, cls_params, base, noise, ig_steps)


def _map_samples(fn, items, jobs: int):
    """Apply fn over items, optionally on a thread pool; results keep sample order."""
    if jobs <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _attributions(method, clips, latents, targets, models: ExplainerModels, run_seed, jobs):
    """One attribution map per clip; ``run_seed`` seeds the random methods."""
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
    masked = np.stack([splice(x, base, select_top(att, ratio, mode=mode), mode)
                       for x, att in zip(items, atts)])
    if not latent_space:
        masked = encode_batch(np.clip(masked, -1.0, 1.0), models.codec_params,
                              models.codec_config)
    return predict_batch(masked, models.cls_params)


def _encoded(clips, models: ExplainerModels):
    """The clips as float32, their latents and the head's predictions on them."""
    clips = np.asarray(clips, dtype=np.float32)
    if clips.shape[0] == 0:
        raise ValueError("test set must be nonempty")
    latents = encode_batch(clips, models.codec_params, models.codec_config)
    return clips, latents, predict_batch(latents, models.cls_params)


def _sweep(clips, latents, targets, reference, models: ExplainerModels, method: str, ratios,
           runs: int, base_seed: int, metric: str, dataset_id: str, jobs: int) -> EvalReport:
    """Percent of masked predictions equal to ``reference``, one row per listed ratio."""
    if method not in ALL_METHODS:
        raise ValueError(f"unknown method {method!r}")
    items = latents if method in (LATENT_IG, RANDOM_LATENT) else clips
    mode = KEEP_TOP if metric == AGREEMENT else REMOVE_TOP
    ratios = list(ratios)

    def scores(run_seed):
        atts = _attributions(method, clips, latents, targets, models, run_seed, jobs)
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
    runs: int = 5,
    base_seed: int = 1234,
    dataset_id: str = "",
    jobs: int = 1,
) -> EvalReport:
    """Agreement between the masked-latent explanation and the original prediction."""
    clips, latents, orig = _encoded(clips, models)
    return _sweep(clips, latents, orig, orig, models, method, ratios, runs, base_seed,
                  AGREEMENT, dataset_id, jobs)


def accuracy_drop(
    clips: np.ndarray,
    labels: np.ndarray,
    models: ExplainerModels,
    method: str,
    ratios=DEFAULT_BETAS,
    runs: int = 5,
    base_seed: int = 1234,
    dataset_id: str = "",
    jobs: int = 1,
) -> EvalReport:
    """Test accuracy after the top-ranked cells are replaced by the base latent."""
    clips, latents, targets = _encoded(clips, models)
    return _sweep(clips, latents, targets, np.asarray(labels, dtype=np.int64), models, method,
                  ratios, runs, base_seed, POST_REMOVAL_ACCURACY, dataset_id, jobs)


def confusion_after_removal(
    clips: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    models: ExplainerModels,
    beta: float,
) -> np.ndarray:
    """C x C count matrix (rows true, cols predicted) after latent-IG removal at ratio beta."""
    clips, latents, targets = _encoded(clips, models)
    atts = _attributions(LATENT_IG, clips, latents, targets, models, None, 1)
    preds = _masked_preds(latents, atts, models, beta, REMOVE_TOP)
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


def read_report(path) -> EvalReport:
    try:
        with open(path) as f:
            payload = json.load(f)
    except json.JSONDecodeError as e:
        raise ReportError(f"malformed report file: {e}") from e
    if payload.get("version") != REPORT_VERSION:
        raise ReportError(f"unsupported report version {payload.get('version')}")
    rows = [RatioRow(r["ratio"], r["mean"], r["std"]) for r in payload["rows"]]
    return EvalReport(
        payload["dataset_id"], payload["method"], payload["metric"], rows,
        payload["run_count"], payload["seeds"], payload.get("config", {}),
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
