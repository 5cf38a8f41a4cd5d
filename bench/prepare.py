"""Build the cached checkpoints and the saved corpora the workloads read.

The checkpoints follow the recipe of ``tests/conftest.py`` (same specs,
configs and seeds) and land in ``.artifacts/`` under the same names, so the
test suite and the benchmark share one cache. The corpora are the seed-0
keyword and emotion datasets saved as WAV files plus manifest, as
``latentexplain synth-data`` writes them.

Run directly to build one task's corpus and checkpoints:

    python3 bench/prepare.py --task keyword
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARTIFACT_DIR = ROOT / ".artifacts"
OUT_DIR = ROOT / ".bench_out"
CORPUS_DIR = OUT_DIR / "corpus"

TASKS = ("keyword", "emotion")
CODEC_SEED = 0
CLS_SEED = 0
NOISE_SEED = 7
CLIP_LENGTH = 16384

_SHORT = {"keyword": "kw", "emotion": "emo"}


def checkpoint_paths(task: str) -> dict:
    short = _SHORT[task]
    return {
        "codec": ARTIFACT_DIR / f"codec_{short}.ckpt",
        "classifier": ARTIFACT_DIR / f"cls_{short}.ckpt",
    }


def corpus_dir(task: str) -> Path:
    return CORPUS_DIR / task


def dataset_spec(task: str):
    from latentexplain.data import SyntheticDatasetSpec

    if task == "keyword":
        return SyntheticDatasetSpec(task="keyword", num_classes=8, clips_per_class=100, seed=0)
    return SyntheticDatasetSpec(
        task="emotion", num_classes=5, clips_per_class=100, words=10, renditions=10, seed=0
    )


def _missing(task: str) -> list:
    paths = list(checkpoint_paths(task).values()) + [corpus_dir(task) / "manifest.json"]
    return [p for p in paths if not p.is_file()]


def _write_atomic(ckpt, path: Path) -> None:
    from latentexplain.checkpoint import write_checkpoint

    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    write_checkpoint(ckpt, tmp)
    os.replace(tmp, path)


def build_task(task: str) -> None:
    """Save the task's corpus and train its codec and head, skipping what exists."""
    from latentexplain.checkpoint import read_checkpoint
    from latentexplain.classifier import ClassifierConfig, train_classifier
    from latentexplain.codec import CodecConfig, CodecTrainConfig, encode_batch, train_autoencoder
    from latentexplain.data import generate_dataset, save_dataset
    from latentexplain.masking import make_base_latent

    ds = generate_dataset(dataset_spec(task))
    cdir = corpus_dir(task)
    if not (cdir / "manifest.json").is_file():
        tmp = cdir.with_name(cdir.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        save_dataset(ds, tmp)
        shutil.rmtree(cdir, ignore_errors=True)
        os.replace(tmp, cdir)

    paths = checkpoint_paths(task)
    ARTIFACT_DIR.mkdir(exist_ok=True)
    codec_config = CodecConfig()
    if paths["codec"].is_file():
        codec = read_checkpoint(paths["codec"])
    else:
        codec = train_autoencoder(
            ds.clips[ds.train_idx], codec_config, CodecTrainConfig(), seed=CODEC_SEED
        )
        _write_atomic(codec, paths["codec"])
    if paths["classifier"].is_file():
        return
    latents = encode_batch(ds.clips, codec.params, codec_config)
    train_lat, train_lab = latents[ds.train_idx], ds.labels[ds.train_idx]
    if task == "keyword":
        cfg = ClassifierConfig(num_classes=8, latent_channels=codec_config.latent_channels,
                               epochs=80)
        head = train_classifier(train_lat, train_lab, cfg, seed=CLS_SEED)
    else:
        cfg = ClassifierConfig(
            num_classes=5, latent_channels=codec_config.latent_channels,
            pooling="mean-max", anchor_class=ds.class_names.index("neutral"),
        )
        base = make_base_latent(codec.params, codec_config, CLIP_LENGTH, NOISE_SEED)
        head = train_classifier(train_lat, train_lab, cfg, seed=CLS_SEED,
                                substitution_base=base.values)
    _write_atomic(head, paths["classifier"])


def ensure_built(env: dict, log=print, timeout: float = 880.0) -> None:
    """Build whatever is missing, one process per task, both tasks at once.

    Runs outside every timed region; ``env`` carries the BLAS thread setting.
    """
    tasks = [t for t in TASKS if _missing(t)]
    if not tasks:
        return
    log(f"building {', '.join(str(p.relative_to(ROOT)) for t in tasks for p in _missing(t))} "
        "(recipe of tests/conftest.py; outside every timed region)")
    t0 = time.perf_counter()
    procs = [
        subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--task", t],
                         env=env, cwd=str(ROOT))
        for t in tasks
    ]
    try:
        codes = [p.wait(timeout=max(1.0, timeout - (time.perf_counter() - t0))) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    if any(codes) or any(_missing(t) for t in tasks):
        raise RuntimeError(f"build failed (exit codes {codes})")
    log(f"built in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--task", choices=TASKS, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    build_task(args.task)
