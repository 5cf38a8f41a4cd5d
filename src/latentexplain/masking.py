"""Latent masking and explanation synthesis.

Top-ranked cells of the attribution map are kept (or removed) and the
rest replaced by a base latent obtained from encoding quiet noise; the
masked latent decodes to a listenable explanation. All masking is ``splice``.
"""

from __future__ import annotations

import numbers
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


def check_ratio(ratio) -> float:
    """The ratio as a float; ValueError unless it is a real number in [0, 1] (NaN is not)."""
    if not isinstance(ratio, numbers.Real) or not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0,1], got {ratio}")
    return float(ratio)


def select_top(att: AttributionMap, ratio: float, mode: str = KEEP_TOP) -> SelectionMask:
    """Top round(ratio * cells) by signed score, ties by ascending row-major index.

    The first call on a map ranks it and makes its scores read-only
    (``AttributionMap.rank``); every later call reuses that rank.
    """
    ratio = check_ratio(ratio)
    k = int(np.floor(ratio * att.scores.size + 0.5))  # round-half-up, monotone in ratio
    kept = np.flatnonzero(att.rank() < k)
    return SelectionMask(kept, att.scores.shape, ratio, mode, att.method)


def splice(x: np.ndarray, base: np.ndarray, mask: SelectionMask, mode: str) -> np.ndarray:
    """Base with x's masked cells (keep-top), or x with base's masked cells (remove-top)."""
    if base.shape != x.shape or tuple(mask.shape) != x.shape:
        raise DimensionError(f"shape mismatch: values {x.shape}, base {base.shape}, "
                             f"mask {mask.shape}")
    src, out = (x, base.copy()) if mode == KEEP_TOP else (base, x.copy())
    np.put(out, mask.kept, src.take(mask.kept))
    return out


def apply_mask_keep(z: LatentGrid, mask: SelectionMask, z_base: LatentGrid) -> LatentGrid:
    """Keep the masked cells from z, take everything else from the base latent."""
    return LatentGrid(splice(z.values, z_base.values, mask, KEEP_TOP))


def apply_mask_remove(z: LatentGrid, mask: SelectionMask, z_base: LatentGrid) -> LatentGrid:
    """Replace the masked (top-ranked) cells with the base latent, keep the rest."""
    return LatentGrid(splice(z.values, z_base.values, mask, REMOVE_TOP))


def make_base_latent(enc_params: dict, config: CodecConfig, length: int, seed: int) -> LatentGrid:
    """Encode seeded quiet uniform noise of the given length into the base latent."""
    noise = generate_noise_clip(length, BASE_NOISE_AMPLITUDE, seed, config.sample_rate)
    return encode(noise, enc_params, config)


def synthesize_explanation(z_masked: LatentGrid, dec_params: dict, config: CodecConfig) -> AudioClip:
    """Decode a masked latent into the audio explanation."""
    return decode(z_masked, dec_params, config)


def mask_input_space(x: AudioClip, att: AttributionMap, ratio: float, noise: AudioClip) -> AudioClip:
    """Keep the top-ratio samples of x by attribution, take the rest from noise."""
    mask = select_top(att, ratio)
    return AudioClip(splice(x.samples, noise.samples, mask, KEEP_TOP), x.sample_rate)


def mask_input_space_remove(x: AudioClip, att: AttributionMap, ratio: float, noise: AudioClip) -> AudioClip:
    """Replace the top-ratio samples of x by attribution with noise, keep the rest."""
    mask = select_top(att, ratio, mode=REMOVE_TOP)
    return AudioClip(splice(x.samples, noise.samples, mask, REMOVE_TOP), x.sample_rate)
