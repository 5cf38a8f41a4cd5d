"""Audio clip container, WAV I/O, noise generation, and SNR."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np


class WavFormatError(ValueError):
    """Unsupported or malformed RIFF/WAVE content."""


class LengthError(ValueError):
    """Clip length violates an operation's precondition."""


class NonFiniteError(ValueError):
    """Waveform samples include NaN or infinity."""


SNR_CAP_DB = 200.0


@dataclass
class AudioClip:
    """Mono waveform with samples clipped to [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float32).reshape(-1)
        self.samples = np.clip(s, -1.0, 1.0)

    def __len__(self):
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate


def generate_noise_clip(length: int, amplitude: float, seed: int, sample_rate: int = 16000) -> AudioClip:
    """Seeded uniform white noise in [-amplitude, amplitude]."""
    if length <= 0:
        raise LengthError(f"noise length must be positive, got {length}")
    rng = np.random.default_rng(seed)
    s = rng.uniform(-amplitude, amplitude, size=length).astype(np.float32)
    return AudioClip(s, sample_rate)


def reconstruction_snr(original: AudioClip, reconstruction: AudioClip) -> float:
    """10*log10(|x|^2 / |x - xhat|^2), capped at 200 dB for an exact match."""
    x = original.samples.astype(np.float64)
    xh = reconstruction.samples.astype(np.float64)
    if x.shape != xh.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {xh.shape}")
    err = float(np.sum((x - xh) ** 2))
    sig = float(np.sum(x**2))
    if err == 0.0:
        return SNR_CAP_DB
    return min(SNR_CAP_DB, 10.0 * np.log10(sig / err)) if sig > 0 else -SNR_CAP_DB


def wav_write(clip: AudioClip, path) -> None:
    """Write mono 16-bit PCM little-endian WAV; round(s*32767) with clamping."""
    pcm = np.clip(np.round(clip.samples.astype(np.float64) * 32767.0), -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    fmt = struct.pack(
        "<HHIIHH", 1, 1, clip.sample_rate, clip.sample_rate * 2, 2, 16
    )
    with open(path, "wb") as f:
        f.write(b"RIFF")
        f.write(struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data)))
        f.write(b"WAVE")
        f.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        f.write(b"data" + struct.pack("<I", len(data)) + data)


def wav_read(path) -> AudioClip:
    """Read a mono 16-bit PCM RIFF WAV; anything else raises WavFormatError."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except IsADirectoryError as e:
        raise WavFormatError(f"{path} is a directory, not a WAV file") from e
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavFormatError("missing RIFF/WAVE header")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise WavFormatError(f"truncated chunk {cid!r}")
        if cid == b"fmt ":
            if size < 16:
                raise WavFormatError("short 'fmt ' chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None:
        raise WavFormatError("missing 'fmt ' chunk")
    if data is None:
        raise WavFormatError("missing 'data' chunk")
    tag, channels, rate, _byterate, _align, bits = fmt
    if tag != 1:
        raise WavFormatError(f"'fmt ' chunk: unsupported format tag {tag} (PCM only)")
    if channels != 1:
        raise WavFormatError(f"'fmt ' chunk: {channels} channels unsupported (mono only)")
    if bits != 16:
        raise WavFormatError(f"'fmt ' chunk: {bits}-bit samples unsupported (16-bit only)")
    if len(data) % 2:
        raise WavFormatError(f"'data' chunk of {len(data)} bytes is not whole 16-bit samples")
    pcm = np.frombuffer(data, dtype="<i2")
    return AudioClip(pcm.astype(np.float32) / 32767.0, rate)
