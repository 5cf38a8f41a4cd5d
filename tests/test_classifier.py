import numpy as np
import pytest

from latentexplain import autodiff as ad
from latentexplain.checkpoint import params_sha256
from latentexplain.classifier import (
    ClassifierConfig,
    _logits_np,
    classify,
    evaluate_accuracy,
    init_classifier_params,
    logits_from_latent,
    predict_batch,
    train_classifier,
)
from latentexplain.codec import LatentGrid


def random_latents(m, t=16, l=32, seed=0):
    return np.random.default_rng(seed).standard_normal((m, t, l)).astype(np.float32)


class TestClassify:
    def test_probabilities_sum_to_one(self):
        params = init_classifier_params(ClassifierConfig(num_classes=4), seed=0)
        p = classify(LatentGrid(random_latents(1)[0]), params)
        assert abs(p.sum() - 1.0) < 1e-5
        assert np.all(p > 0) and np.all(p < 1)

    def test_zero_head_is_uniform(self):
        cfg = ClassifierConfig(num_classes=4)
        params = {k: np.zeros_like(v) for k, v in init_classifier_params(cfg, 0).items()}
        p = classify(LatentGrid(random_latents(1)[0]), params)
        assert np.allclose(p, 0.25)

    def test_prediction_stable(self):
        params = init_classifier_params(ClassifierConfig(num_classes=4), seed=1)
        z = LatentGrid(random_latents(1, seed=2)[0])
        preds = {int(np.argmax(classify(z, params))) for _ in range(5)}
        assert len(preds) == 1

    def test_channel_mismatch(self):
        from latentexplain.autodiff import DimensionError

        params = init_classifier_params(ClassifierConfig(num_classes=4), seed=0)
        with pytest.raises(DimensionError):
            classify(LatentGrid(np.zeros((4, 7), dtype=np.float32)), params)


class TestHeadForwardsAgree:
    @pytest.mark.parametrize("pooling", ["mean", "mean-max"])
    def test_numpy_forward_matches_tape(self, pooling):
        params = init_classifier_params(ClassifierConfig(num_classes=5, pooling=pooling), 4)
        rng = np.random.default_rng(5)
        for k in ("b0", "b1", "b2"):
            params[k] = (0.5 * rng.standard_normal(params[k].shape)).astype(np.float32)
        lat = 2 * random_latents(6, seed=6)
        tape = logits_from_latent(ad.Tensor(lat), {k: ad.Tensor(v) for k, v in params.items()})
        got = _logits_np(lat, params)
        assert np.max(np.abs(got - tape.data)) <= 1e-5 * np.max(np.abs(tape.data))


class TestTraining:
    def test_learns_separable_toy_task(self):
        rng = np.random.default_rng(0)
        lat = random_latents(80, seed=0)
        labels = rng.integers(0, 2, size=80)
        lat[labels == 1] += 1.0
        cfg = ClassifierConfig(num_classes=2, epochs=30)
        ckpt = train_classifier(lat, labels, cfg, seed=0)
        assert evaluate_accuracy(lat, labels, ckpt.params) > 0.5

    def test_deterministic(self):
        lat = random_latents(40, seed=3)
        labels = np.arange(40) % 3
        cfg = ClassifierConfig(num_classes=3, epochs=5)
        a = train_classifier(lat, labels, cfg, seed=5)
        b = train_classifier(lat, labels, cfg, seed=5)
        assert params_sha256(a.params) == params_sha256(b.params)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_classifier(random_latents(10), np.zeros(10, dtype=int),
                             ClassifierConfig(num_classes=2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_classifier(np.zeros((0, 4, 32), dtype=np.float32), np.zeros(0, dtype=int),
                             ClassifierConfig(num_classes=2))


class TestEvaluateAccuracy:
    def test_perfect_and_permuted(self):
        lat = random_latents(20, seed=1)
        labels = (np.arange(20) % 2).astype(np.int64)
        lat[labels == 1] += 3.0
        ckpt = train_classifier(lat, labels, ClassifierConfig(num_classes=2, epochs=40), seed=0)
        acc = evaluate_accuracy(lat, labels, ckpt.params)
        if acc == 1.0:
            assert evaluate_accuracy(lat, 1 - labels, ckpt.params) == 0.0


class TestFrozenEncoder:
    def test_encoder_untouched_by_classifier_training(self, codec_kw, kw_latents, kw_data):
        before = params_sha256(codec_kw.params)
        train_classifier(
            kw_latents[kw_data.train_idx][::10],
            kw_data.labels[kw_data.train_idx][::10],
            ClassifierConfig(num_classes=8, epochs=2),
            seed=0,
        )
        assert params_sha256(codec_kw.params) == before


class TestTrainedHeads:
    def test_keyword_accuracy(self, kw_data, kw_latents, cls_kw):
        acc = evaluate_accuracy(kw_latents[kw_data.test_idx], kw_data.labels[kw_data.test_idx],
                                cls_kw.params)
        assert acc >= 0.90

    def test_emotion_accuracy(self, emo_data, emo_latents, cls_emo):
        acc = evaluate_accuracy(emo_latents[emo_data.test_idx], emo_data.labels[emo_data.test_idx],
                                cls_emo.params)
        assert acc >= 0.90

    def test_training_above_chance(self, kw_data, kw_latents, cls_kw):
        acc = evaluate_accuracy(kw_latents[kw_data.train_idx], kw_data.labels[kw_data.train_idx],
                                cls_kw.params)
        assert acc > 1.0 / 8.0
