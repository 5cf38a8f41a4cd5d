"""Seeded synthetic corpora: a keyword-style task and an emotion-prosody task.

Keyword clips carry a class-specific tone pair with a class-specific
onset pattern over a quiet noise floor. Emotion clips share harmonic
carrier "words"; non-neutral classes add a class-specific prosody
component (gliding pitch contour with a pulsed amplitude envelope),
neutral is the bare carrier. Everything is a pure function of the spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .audio import AudioClip, wav_read, wav_write

KEYWORD_NAMES = ["up", "down", "left", "right", "go", "stop", "yes", "no"]
EMOTION_NAMES = ["neutral", "happy", "sad", "angry", "fear"]

NOISE_FLOOR_AMPLITUDE = 0.0316  # -30 dBFS
MANIFEST_VERSION = 1


class DatasetError(ValueError):
    pass


def check_int(where: str, value, low: int, error=ValueError, high: int | None = None) -> None:
    """``error`` unless ``value`` is an integer (not a bool) in [low, high]; no ``high``, no top."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < low
            or (high is not None and value > high)):
        top = "" if high is None else f" and <= {high}"
        raise error(f"{where}: expected an integer >= {low}{top}, got {value!r}")


# the least value of each integer field of a spec, for run configs and manifests alike
SPEC_INT_LOW = {"num_classes": 2, "seed": 0, **dict.fromkeys(
    ("clips_per_class", "clip_length", "sample_rate", "words", "renditions"), 1)}


@dataclass
class SyntheticDatasetSpec:
    task: str  # a key of _TASKS: "keyword" or "emotion"
    num_classes: int = 8
    clips_per_class: int = 100
    clip_length: int = 16384
    sample_rate: int = 16000
    seed: int = 0
    words: int = 10       # emotion task only
    renditions: int = 10  # emotion task only

    def __post_init__(self):
        if not isinstance(self.task, str) or self.task not in _TASKS:
            raise DatasetError(f"unknown task {self.task!r}")
        for key, low in SPEC_INT_LOW.items():
            check_int(key, getattr(self, key), low, DatasetError)
        if self.task == "emotion":
            if self.num_classes < 3:
                raise DatasetError("emotion task needs >= 3 classes (incl. neutral)")
            if self.clips_per_class != self.words * self.renditions:
                raise DatasetError("emotion clips_per_class must equal words * renditions")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticDatasetSpec":
        return cls(**d)


@dataclass
class LabeledAudioDataset:
    clips: np.ndarray | None   # (M, N) float32; None until the clips are read
    labels: np.ndarray         # (M,) int64
    class_names: list
    train_idx: np.ndarray
    test_idx: np.ndarray
    spec: SyntheticDatasetSpec
    meta: list = field(default_factory=list)  # per-clip dicts (word/rendition for emotion)

    def subset(self, idx):
        return self.clips[idx], self.labels[idx]


def _rng(*entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def _split(m: int, seed: int, test_fraction: float = 0.2):
    perm = _rng(seed, 0xDEAD).permutation(m)
    n_test = int(round(m * test_fraction))
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return train_idx, test_idx


def _keyword_clip(spec: SyntheticDatasetSpec, c: int, i: int) -> tuple[np.ndarray, dict]:
    rng = _rng(spec.seed, 1, c, i)
    n = spec.clip_length
    sr = spec.sample_rate
    t = np.arange(n) / sr
    f1 = 300.0 * (1.22**c)
    f2 = f1 * 1.5
    sig = np.zeros(n)
    n_bursts = 2 + (c % 3)
    burst_len = n // (2 * n_bursts + 1)
    for freq, half in ((f1, 0), (f2, 1)):
        offset = half * n // 2 + (c % 4) * (n // 40)
        for b in range(n_bursts):
            start = offset + b * 2 * burst_len + int(rng.integers(-64, 65))
            start = max(0, min(start, n - burst_len))
            seg = np.arange(start, start + burst_len)
            env = np.hanning(burst_len)
            phase = rng.uniform(0, 2 * np.pi)
            sig[seg] += env * np.sin(2 * np.pi * freq * t[seg] + phase)
    amp = 0.55 + 0.1 * rng.uniform()
    sig *= amp / max(np.abs(sig).max(), 1e-9)
    sig += rng.uniform(-NOISE_FLOOR_AMPLITUDE, NOISE_FLOOR_AMPLITUDE, size=n)
    return sig.astype(np.float32), {}


def emotion_carrier(spec: SyntheticDatasetSpec, word: int, rendition: int) -> np.ndarray:
    """The unmodulated harmonic 'word' template; the neutral clip equals this exactly."""
    rng = _rng(spec.seed, 2, word, rendition)
    n = spec.clip_length
    sr = spec.sample_rate
    t = np.arange(n) / sr
    f0 = 110.0 * (1.13**word) * (1.0 + 0.01 * rng.uniform(-1, 1))
    word_rng = _rng(spec.seed, 3, word)
    harmonic_amps = word_rng.uniform(0.3, 1.0, size=6) / (1.0 + np.arange(6))
    sig = np.zeros(n)
    for h, a in enumerate(harmonic_amps, start=1):
        sig += a * np.sin(2 * np.pi * h * f0 * t + word_rng.uniform(0, 2 * np.pi))
    attack = int(0.05 * sr)
    env = np.ones(n)
    env[:attack] = np.linspace(0, 1, attack)
    env[-attack:] = np.linspace(1, 0, attack)
    amp = (0.5 + 0.04 * rng.uniform(-1, 1))
    sig = sig * env * amp / max(np.abs(sig).max(), 1e-9)
    return sig.astype(np.float32)


# per emotion class (index 1..): prosody band centre (Hz), glide slope, burst count
_PROSODY_TABLE = [
    (620.0, 0.15, 2),
    (900.0, -0.15, 3),
    (1250.0, 0.30, 4),
    (1650.0, -0.30, 2),
    (2050.0, 0.45, 3),
    (2450.0, -0.45, 4),
]

_PROSODY_BURST_SEC = 0.05


def _prosody_component(spec: SyntheticDatasetSpec, c: int, word: int, rendition: int) -> np.ndarray:
    """Short class-specific gliding bursts (c >= 1).

    The bursts are deliberately compact in time so that the class evidence
    occupies a small share of the latent grid; everything outside them is
    plain carrier, i.e. indistinguishable from the neutral class.
    """
    rng = _rng(spec.seed, 4, c, word, rendition)
    n = spec.clip_length
    sr = spec.sample_rate
    fc, glide, count = _PROSODY_TABLE[(c - 1) % len(_PROSODY_TABLE)]
    burst_len = int(_PROSODY_BURST_SEC * sr)
    sig = np.zeros(n, dtype=np.float32)
    amp = 0.45 * (0.9 + 0.2 * rng.uniform())
    starts = rng.permutation(count * 2)[:count]  # distinct slots over the clip
    slot = (n - burst_len) // (count * 2)
    tb = np.arange(burst_len) / sr
    window = np.hanning(burst_len)
    for k in sorted(starts):
        s = k * slot + int(rng.integers(0, max(slot - burst_len, 1)))
        inst_freq = fc * (1.0 + glide * (tb / _PROSODY_BURST_SEC - 0.5))
        phase = 2 * np.pi * np.cumsum(inst_freq) / sr
        sig[s : s + burst_len] += (amp * window * np.sin(phase + rng.uniform(0, 2 * np.pi))
                                   ).astype(np.float32)
    return sig


def _emotion_clip(spec: SyntheticDatasetSpec, c: int, i: int) -> tuple[np.ndarray, dict]:
    """Row ``i`` of class ``c``: word ``i // renditions``'s carrier, plus prosody unless neutral."""
    word, r = divmod(i, spec.renditions)
    clip = emotion_carrier(spec, word, r)
    if c != 0:
        clip = clip + _prosody_component(spec, c, word, r)
    return clip, {"word": word, "rendition": r}


# task -> its class names, the name prefix of the classes past them, and its clip function
_TASKS = {"keyword": (KEYWORD_NAMES, "kw", _keyword_clip),
          "emotion": (EMOTION_NAMES, "emo", _emotion_clip)}


def generate_dataset(spec: SyntheticDatasetSpec) -> LabeledAudioDataset:
    """The corpus of ``spec``: ``clips_per_class`` rows per class, class-major, split by seed."""
    names, prefix, clip = _TASKS[spec.task]
    rows = [(c, *clip(spec, c, i)) for c in range(spec.num_classes)
            for i in range(spec.clips_per_class)]
    labels, clips, meta = zip(*rows)
    train_idx, test_idx = _split(len(labels), spec.seed)
    return LabeledAudioDataset(
        np.stack(clips), np.asarray(labels, dtype=np.int64),
        [names[c] if c < len(names) else f"{prefix}{c}" for c in range(spec.num_classes)],
        train_idx, test_idx, spec, list(meta))


def save_dataset(ds: LabeledAudioDataset, directory) -> None:
    """Materialize as WAV files plus a JSON manifest with labels and split indices."""
    directory = Path(directory)
    (directory / "clips").mkdir(parents=True, exist_ok=True)
    for i, clip in enumerate(ds.clips):
        wav_write(AudioClip(clip, ds.spec.sample_rate), directory / "clips" / f"clip_{i:05d}.wav")
    manifest = {
        "version": MANIFEST_VERSION,
        "spec": ds.spec.to_dict(),
        "class_names": list(ds.class_names),
        "labels": ds.labels.tolist(),
        "train_idx": ds.train_idx.tolist(),
        "test_idx": ds.test_idx.tolist(),
        "meta": ds.meta,
    }
    with open(directory / "manifest.json", "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=1)


def read_manifest(directory) -> LabeledAudioDataset:
    """The corpus under ``directory`` with its manifest checked in full; ``clips`` is None.

    Every problem in the manifest raises DatasetError here, before any clip is read.
    """
    directory = Path(directory)
    try:
        with open(directory / "manifest.json") as f:
            manifest = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DatasetError(f"{directory}: manifest is not valid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise DatasetError(f"{directory}: manifest is not a JSON object")
    if manifest.get("version") != MANIFEST_VERSION:
        raise DatasetError(f"unsupported manifest version {manifest.get('version')}")
    try:
        spec = SyntheticDatasetSpec.from_dict(manifest["spec"])
        class_names = manifest["class_names"]
        labels, train_idx, test_idx = (manifest[k] for k in ("labels", "train_idx", "test_idx"))
    except (KeyError, TypeError, ValueError) as e:
        raise DatasetError(f"{directory}: malformed manifest: {e!r}") from e
    for key, values in (("labels", labels), ("train_idx", train_idx), ("test_idx", test_idx)):
        # JSON integers only: np.asarray would truncate floats, parse strings, take booleans
        # as 0 and 1 and overflow past int64
        if not isinstance(values, list):
            raise DatasetError(f"{directory}: malformed manifest: labels and split indices must"
                               f" be lists of integers; {key} is {values!r}")
        for j, v in enumerate(values):
            if isinstance(v, bool) or not isinstance(v, int):
                raise DatasetError(f"{directory}: malformed manifest: labels and split indices"
                                   f" must be lists of integers; {key}[{j}] is {v!r}")
    if not isinstance(class_names, list) or not all(
            0 <= i < len(labels) for i in train_idx + test_idx):
        raise DatasetError(f"{directory}: malformed manifest: labels, class names or split indices")
    bad = sum(not 0 <= v < len(class_names) for v in labels)
    if bad:
        raise DatasetError(f"{directory}: {bad} labels outside [0, {len(class_names)})")
    train_idx, test_idx = np.asarray(train_idx, np.int64), np.asarray(test_idx, np.int64)
    return LabeledAudioDataset(None, np.asarray(labels, np.int64), class_names, train_idx,
                               test_idx, spec, manifest.get("meta", []))


def read_clips(directory, spec: SyntheticDatasetSpec, rows) -> np.ndarray:
    """The WAVs of the given corpus rows as one (len(rows), clip_length) float32 array.

    Each clip must have the spec's sample rate and length (DatasetError otherwise). The
    array is allocated once the first clip has passed that check, so a manifest's clip
    length alone never sizes an allocation.
    """
    directory = Path(directory)
    clips = np.empty((0, spec.clip_length), dtype=np.float32)
    for j, i in enumerate(rows):
        clip = wav_read(path := directory / "clips" / f"clip_{i:05d}.wav")
        if (clip.sample_rate, len(clip)) != (spec.sample_rate, spec.clip_length):
            raise DatasetError(f"{path}: {clip.sample_rate} Hz and {len(clip)} samples, not the"
                               f" spec's {spec.sample_rate} Hz and {spec.clip_length} samples")
        if j == 0:
            clips = np.empty((len(rows), spec.clip_length), dtype=np.float32)
        clips[j] = clip.samples
    return clips


def load_dataset(directory) -> LabeledAudioDataset:
    """The checked manifest and every clip of the corpus."""
    ds = read_manifest(directory)
    ds.clips = read_clips(directory, ds.spec, range(len(ds.labels)))
    return ds
