"""Fidelity evaluation: agreement sweeps, post-removal accuracy sweeps, confusion matrix.

Agreement = fraction of samples whose masked-latent explanation is
classified the same as the prediction on the unmasked latent.
Post-removal accuracy = test accuracy after the top-ranked cells are
replaced by the base latent. Deterministic methods are computed once and
replicated across runs, so their reported std is exactly zero.
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
from .masking import (
    BASE_NOISE_AMPLITUDE,
    KEEP_TOP,
    REMOVE_TOP,
    apply_mask_keep,
    apply_mask_remove,
    mask_input_space,
    mask_input_space_remove,
    select_top,
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


def _latent_ig_maps(latents: np.ndarray, targets: np.ndarray, models: ExplainerModels, jobs: int = 1):
    base = models.base_latent
    return _map_samples(
        lambda zt: integrated_gradients_latent(
            LatentGrid(zt[0]), base, models.cls_params, int(zt[1]), models.ig_steps
        ),
        list(zip(latents, targets)),
        jobs,
    )


def _input_ig_maps(clips: np.ndarray, targets: np.ndarray, models: ExplainerModels, jobs: int = 1):
    noise = models.noise_clip.samples
    return _map_samples(
        lambda xt: integrated_gradients_input(
            xt[0], noise, models.codec_params, models.codec_config,
            models.cls_params, int(xt[1]), models.ig_steps,
        ),
        list(zip(clips, targets)),
        jobs,
    )


def _random_maps(shape, m: int, run_seed: int, method: str):
    return [
        random_attribution(shape, seed=_derive_seed(run_seed, i), method=method)
        for i in range(m)
    ]


def _derive_seed(run_seed: int, sample_index: int) -> int:
    return int(np.random.SeedSequence([run_seed, sample_index]).generate_state(1)[0])


def _masked_preds_latent(latents, atts, models: ExplainerModels, ratio: float, mode: str):
    masked = []
    for z, att in zip(latents, atts):
        mask = select_top(att, ratio, mode=mode)
        grid = LatentGrid(z)
        if mode == KEEP_TOP:
            out = apply_mask_keep(grid, mask, models.base_latent)
        else:
            out = apply_mask_remove(grid, mask, models.base_latent)
        masked.append(out.values)
    return predict_batch(np.stack(masked), models.cls_params)


def _masked_preds_input(clips, atts, models: ExplainerModels, ratio: float, mode: str):
    sr = models.codec_config.sample_rate
    masked = []
    for x, att in zip(clips, atts):
        clip = AudioClip(x, sr)
        if mode == KEEP_TOP:
            out = mask_input_space(clip, att, ratio, models.noise_clip)
        else:
            out = mask_input_space_remove(clip, att, ratio, models.noise_clip)
        masked.append(out.samples)
    z = encode_batch(np.stack(masked), models.codec_params, models.codec_config)
    return predict_batch(z, models.cls_params)


def _sweep(
    clips: np.ndarray,
    reference: np.ndarray,
    models: ExplainerModels,
    method: str,
    ratios,
    runs: int,
    base_seed: int,
    mode: str,
    targets: np.ndarray,
    latents: np.ndarray,
    jobs: int = 1,
):
    """Per-ratio per-run percent scores; reference is what predictions are compared to."""
    if method not in ALL_METHODS:
        raise ValueError(f"unknown method {method!r}")
    is_latent = method in (LATENT_IG, RANDOM_LATENT)
    preds_fn = _masked_preds_latent if is_latent else _masked_preds_input
    rep = latents if is_latent else clips
    m = len(clips)

    def score(atts, ratio):
        preds = preds_fn(rep, atts, models, ratio, mode)
        return 100.0 * float(np.mean(preds == reference))

    values = {r: [] for r in ratios}
    if method in _DETERMINISTIC:
        atts = (
            _latent_ig_maps(latents, targets, models, jobs)
            if method == LATENT_IG
            else _input_ig_maps(clips, targets, models, jobs)
        )
        for ratio in ratios:
            v = score(atts, ratio)
            values[ratio] = [v] * runs
    else:
        shape = latents.shape[1:] if is_latent else (clips.shape[1],)
        for run in range(runs):
            atts = _random_maps(shape, m, base_seed + run, method)
            for ratio in ratios:
                values[ratio].append(score(atts, ratio))
    return values


def _rows(values: dict) -> list:
    rows = []
    for ratio in values:
        arr = np.asarray(values[ratio], dtype=np.float64)
        rows.append(RatioRow(float(ratio), float(arr.mean()), float(arr.std(ddof=0))))
    return rows


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
    clips = np.asarray(clips, dtype=np.float32)
    if clips.shape[0] == 0:
        raise ValueError("test set must be nonempty")
    latents = encode_batch(clips, models.codec_params, models.codec_config)
    orig = predict_batch(latents, models.cls_params)
    values = _sweep(clips, orig, models, method, list(ratios), runs, base_seed,
                    KEEP_TOP, orig, latents, jobs)
    return EvalReport(dataset_id, method, AGREEMENT, _rows(values), runs,
                      [base_seed + r for r in range(runs)],
                      {"ig_steps": models.ig_steps})


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
    clips = np.asarray(clips, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    if clips.shape[0] == 0:
        raise ValueError("test set must be nonempty")
    latents = encode_batch(clips, models.codec_params, models.codec_config)
    targets = predict_batch(latents, models.cls_params)
    values = _sweep(clips, labels, models, method, list(ratios), runs, base_seed,
                    REMOVE_TOP, targets, latents, jobs)
    return EvalReport(dataset_id, method, POST_REMOVAL_ACCURACY, _rows(values), runs,
                      [base_seed + r for r in range(runs)],
                      {"ig_steps": models.ig_steps})


def confusion_after_removal(
    clips: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    models: ExplainerModels,
    beta: float,
    seed: int = 0,
) -> np.ndarray:
    """C x C count matrix (rows true, cols predicted) after latent-IG removal at ratio beta."""
    clips = np.asarray(clips, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    latents = encode_batch(clips, models.codec_params, models.codec_config)
    targets = predict_batch(latents, models.cls_params)
    atts = _latent_ig_maps(latents, targets, models)
    preds = _masked_preds_latent(latents, atts, models, beta, REMOVE_TOP)
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(labels, preds):
        mat[t, p] += 1
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
