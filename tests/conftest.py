"""Session fixtures: synthetic datasets and trained checkpoints.

Training the two codecs takes a few minutes, so trained checkpoints are
cached under .artifacts/ by name only (codec_kw, codec_emo, cls_kw, cls_emo):
a cached file is reused whatever recipe the fixture now holds, so delete the
directory after changing a recipe, or to force retraining.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from latentexplain.checkpoint import read_checkpoint, write_checkpoint
from latentexplain.classifier import ClassifierConfig, train_classifier
from latentexplain.codec import CodecConfig, CodecTrainConfig, encode_batch, train_autoencoder
from latentexplain.data import SyntheticDatasetSpec, generate_dataset
from latentexplain.evalharness import build_models

ARTIFACT_DIR = Path(__file__).resolve().parent.parent / ".artifacts"

CODEC_SEED = 0
CLS_SEED = 0
NOISE_SEED = 7


def _cached(name, builder):
    ARTIFACT_DIR.mkdir(exist_ok=True)
    path = ARTIFACT_DIR / f"{name}.ckpt"
    if path.is_file():
        return read_checkpoint(path)
    ckpt = builder()
    write_checkpoint(ckpt, path)
    return ckpt


@pytest.fixture(scope="session")
def kw_spec():
    return SyntheticDatasetSpec(task="keyword", num_classes=8, clips_per_class=100, seed=0)


@pytest.fixture(scope="session")
def emo_spec():
    return SyntheticDatasetSpec(
        task="emotion", num_classes=5, clips_per_class=100, words=10, renditions=10, seed=0
    )


@pytest.fixture(scope="session")
def kw_data(kw_spec):
    return generate_dataset(kw_spec)


@pytest.fixture(scope="session")
def emo_data(emo_spec):
    return generate_dataset(emo_spec)


@pytest.fixture(scope="session")
def codec_config():
    return CodecConfig()


@pytest.fixture(scope="session")
def codec_kw(kw_data, codec_config):
    return _cached(
        "codec_kw",
        lambda: train_autoencoder(
            kw_data.clips[kw_data.train_idx], codec_config, CodecTrainConfig(), seed=CODEC_SEED
        ),
    )


@pytest.fixture(scope="session")
def codec_emo(emo_data, codec_config):
    return _cached(
        "codec_emo",
        lambda: train_autoencoder(
            emo_data.clips[emo_data.train_idx], codec_config, CodecTrainConfig(), seed=CODEC_SEED
        ),
    )


@pytest.fixture(scope="session")
def kw_latents(kw_data, codec_kw, codec_config):
    return encode_batch(kw_data.clips, codec_kw.params, codec_config)


@pytest.fixture(scope="session")
def emo_latents(emo_data, codec_emo, codec_config):
    return encode_batch(emo_data.clips, codec_emo.params, codec_config)


@pytest.fixture(scope="session")
def cls_kw(kw_data, kw_latents, codec_config):
    # 80 epochs reaches 100% test accuracy with margins large enough that
    # latent-IG keep-top masking never flips a prediction, yet small enough
    # that random-masking sweeps do not saturate at 100% agreement
    cfg = ClassifierConfig(num_classes=8, latent_channels=codec_config.latent_channels,
                           epochs=80)
    return _cached(
        "cls_kw",
        lambda: train_classifier(
            kw_latents[kw_data.train_idx], kw_data.labels[kw_data.train_idx], cfg, seed=CLS_SEED
        ),
    )


@pytest.fixture(scope="session")
def cls_emo(emo_data, emo_latents, codec_emo, codec_config, emo_spec):
    # neutral-anchored base substitution: removal experiments rely on the head
    # treating base-valued cells as evidence-free
    from latentexplain.masking import make_base_latent

    cfg = ClassifierConfig(
        num_classes=5, latent_channels=codec_config.latent_channels,
        pooling="mean-max", anchor_class=emo_data.class_names.index("neutral"),
    )
    base = make_base_latent(codec_emo.params, codec_config, emo_spec.clip_length, NOISE_SEED)
    return _cached(
        "cls_emo",
        lambda: train_classifier(
            emo_latents[emo_data.train_idx], emo_data.labels[emo_data.train_idx], cfg,
            seed=CLS_SEED, substitution_base=base.values,
        ),
    )


@pytest.fixture(scope="session")
def models_kw(codec_kw, cls_kw, codec_config, kw_spec):
    return build_models(
        codec_config, codec_kw.params, cls_kw.params,
        clip_length=kw_spec.clip_length, noise_seed=NOISE_SEED,
    )


@pytest.fixture(scope="session")
def models_emo(codec_emo, cls_emo, codec_config, emo_spec):
    return build_models(
        codec_config, codec_emo.params, cls_emo.params,
        clip_length=emo_spec.clip_length, noise_seed=NOISE_SEED,
    )


@pytest.fixture
def busy_helper():
    """The codec's helper thread, held busy by another caller until the test ends."""
    from latentexplain import codec

    busy, release = threading.Event(), threading.Event()

    def hold():
        codec._HELPER.run(lambda: None, lambda: (busy.set(), release.wait(120)))

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    assert busy.wait(30), "the helper thread never started the holding job"
    yield
    release.set()
    holder.join(30)
    assert not holder.is_alive(), "the holding caller did not end"


def finishes(fn, timeout: float = 60.0):
    """fn() on a fresh thread: its result, or TimeoutError if it does not end in time (as a
    call queued behind a busy helper would not); a hung thread is left behind."""
    pool = ThreadPoolExecutor(1)
    try:
        return pool.submit(fn).result(timeout=timeout)
    finally:
        pool.shutdown(wait=False)
