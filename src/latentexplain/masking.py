"""Latent masking and explanation synthesis.

Top-ranked cells of the attribution map are kept (or removed) and the
rest replaced by a base latent obtained from encoding quiet noise; the
masked latent decodes to a listenable explanation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attribution import AttributionMap
from .audio import AudioClip, generate_noise_clip
from .autodiff import DimensionError
from .codec import CodecConfig, LatentGrid, decode, encode

KEEP_TOP = "keep-top"
REMOVE_TOP = "remove-top"

BASE_NOISE_AMPLITUDE = 0.1  # -20 dBFS uniform white noise


@dataclass
class SelectionMask:
    """Set of kept (t, l) cells as sorted row-major flat indices."""

    kept: np.ndarray  # int64, strictly increasing
    shape: tuple
    ratio: float
    mode: str
    method: str

    @property
    def total_cells(self) -> int:
        return int(np.prod(self.shape))

    def complement(self) -> "SelectionMask":
        all_idx = np.arange(self.total_cells, dtype=np.int64)
        comp = np.setdiff1d(all_idx, self.kept, assume_unique=True)
        mode = REMOVE_TOP if self.mode == KEEP_TOP else KEEP_TOP
        return SelectionMask(comp, self.shape, self.ratio, mode, self.method)


def _count(ratio: float, total: int) -> int:
    # round-half-up, monotone in ratio
    return int(np.floor(ratio * total + 0.5))


def select_top(att: AttributionMap, ratio: float, mode: str = KEEP_TOP) -> SelectionMask:
    """Top round(ratio * cells) by signed score, ties by ascending row-major index."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0,1], got {ratio}")
    flat = att.scores.ravel()
    order = np.argsort(-flat, kind="stable")
    k = _count(ratio, flat.size)
    kept = np.sort(order[:k]).astype(np.int64)
    return SelectionMask(kept, att.scores.shape, float(ratio), mode, att.method)


def apply_mask_keep(z: LatentGrid, mask: SelectionMask, z_base: LatentGrid) -> LatentGrid:
    """Keep the masked cells from z, take everything else from the base latent."""
    if z.values.shape != z_base.values.shape or tuple(mask.shape) != z.values.shape:
        raise DimensionError(
            f"shape mismatch: z {z.values.shape}, base {z_base.values.shape}, mask {mask.shape}"
        )
    out = z_base.values.copy().ravel()
    out[mask.kept] = z.values.ravel()[mask.kept]
    return LatentGrid(out.reshape(z.values.shape))


def apply_mask_remove(z: LatentGrid, mask: SelectionMask, z_base: LatentGrid) -> LatentGrid:
    """Replace the masked (top-ranked) cells with the base latent, keep the rest."""
    if z.values.shape != z_base.values.shape or tuple(mask.shape) != z.values.shape:
        raise DimensionError(
            f"shape mismatch: z {z.values.shape}, base {z_base.values.shape}, mask {mask.shape}"
        )
    out = z.values.copy().ravel()
    out[mask.kept] = z_base.values.ravel()[mask.kept]
    return LatentGrid(out.reshape(z.values.shape))


def make_base_latent(enc_params: dict, config: CodecConfig, length: int, seed: int) -> LatentGrid:
    """Encode seeded quiet uniform noise of the given length into the base latent."""
    noise = generate_noise_clip(length, BASE_NOISE_AMPLITUDE, seed, config.sample_rate)
    return encode(noise, enc_params, config)


def synthesize_explanation(z_masked: LatentGrid, dec_params: dict, config: CodecConfig) -> AudioClip:
    """Decode a masked latent into the audio explanation."""
    return decode(z_masked, dec_params, config)


def mask_input_space(x: AudioClip, att: AttributionMap, ratio: float, noise: AudioClip) -> AudioClip:
    """Keep the top-ratio samples of x by attribution, take the rest from noise."""
    n = len(x)
    if att.scores.ndim != 1 or att.scores.shape[0] != n or len(noise) != n:
        raise DimensionError(
            f"length mismatch: clip {n}, attribution {att.scores.shape}, noise {len(noise)}"
        )
    mask = select_top(att, ratio)
    out = noise.samples.copy()
    out[mask.kept] = x.samples[mask.kept]
    return AudioClip(out, x.sample_rate)


def mask_input_space_remove(x: AudioClip, att: AttributionMap, ratio: float, noise: AudioClip) -> AudioClip:
    """Replace the top-ratio samples of x by attribution with noise, keep the rest."""
    n = len(x)
    if att.scores.ndim != 1 or att.scores.shape[0] != n or len(noise) != n:
        raise DimensionError(
            f"length mismatch: clip {n}, attribution {att.scores.shape}, noise {len(noise)}"
        )
    mask = select_top(att, ratio, mode=REMOVE_TOP)
    out = x.samples.copy()
    out[mask.kept] = noise.samples[mask.kept]
    return AudioClip(out, x.sample_rate)
