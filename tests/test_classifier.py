import numpy as np
import pytest

from latentexplain import autodiff as ad
from latentexplain import classifier
from latentexplain.attribution import integrated_gradients_latent
from latentexplain.checkpoint import params_sha256
from latentexplain.classifier import (
    POOLINGS,
    ClassifierConfig,
    _head_from_preact,
    _head_vjp,
    _onehot,
    _preact_grad,
    _logits_np,
    _step_grads,
    classify,
    evaluate_accuracy,
    init_classifier_params,
    logits_from_latent,
    predict_batch,
    train_classifier,
)
from latentexplain.codec import LatentGrid
from tape_reference import whole_array_head_from_preact, whole_array_head_vjp, whole_array_logits


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


class TestMaxTermFromTheFirstArgmax:
    """A mean-max head reduces the frame axis once: the max is gathered at the first argmax."""

    def test_tied_frames(self):
        params = init_classifier_params(ClassifierConfig(num_classes=4, pooling="mean-max"), 3)
        rng = np.random.default_rng(8)
        # three distinct frames, repeated: every channel's max is tied three ways
        lat = np.tile(rng.standard_normal((5, 3, 32)).astype(np.float32), (1, 3, 1))
        pre = lat @ params["w0"] + params["b0"]
        emb = ad.elu_array(pre.copy())
        fwd = _head_from_preact(pre.copy(), params)
        arg = fwd[1]
        assert np.array_equal(arg, emb.argmax(axis=1)) and np.all(arg < 3)
        # the logits of the pooled mean + max, with the max taken by emb.max
        pooled = emb.mean(axis=1) + np.float32(1.0) * emb.max(axis=1)
        act = ad.elu_array(pooled @ params["w1"] + params["b1"])
        assert np.array_equal(fwd[-1], act @ params["w2"] + params["b2"])
        g = _preact_grad(*_head_vjp(fwd, params, _onehot(2, 5, 4)), params)
        # the max term lands on the first copy of the max frame only
        assert not np.array_equal(g[:, :3], g[:, 3:6])
        assert np.array_equal(g[:, 3:6], g[:, 6:9])


class TestInferenceSkipsTheArgmax:
    """Without ``grad`` a mean-max head takes the max by ``max``, with no argmax and no elu' pass."""

    def test_tied_maxima_give_the_same_logits(self):
        params = init_classifier_params(ClassifierConfig(num_classes=4, pooling="mean-max"), 3)
        rng = np.random.default_rng(9)
        # 500 rows of 9 frames span three tiles; every channel's max is tied three ways
        lat = np.tile(rng.standard_normal((500, 3, 32)).astype(np.float32), (1, 3, 1))
        pre = lat @ params["w0"] + params["b0"]
        assert len(pre) > 2 * classifier._TILE_CELLS // (9 * 64)
        trained = _head_from_preact(pre.copy(), params)
        inferred = _head_from_preact(pre.copy(), params, grad=False)
        assert inferred[1] is None
        assert inferred[-1].tobytes() == trained[-1].tobytes()
        assert inferred[0].tobytes() == ad.elu_array(pre.copy()).tobytes()
        assert _logits_np(lat, params).tobytes() == trained[-1].tobytes()


def zero_width_head(pooling, l=32, c=4):
    """A head whose hidden layers have no units: its logits are b2 whatever the latent."""
    return {"w0": np.zeros((l, 0), np.float32), "b0": np.zeros(0, np.float32),
            "w1": np.zeros((0, 0), np.float32), "b1": np.zeros(0, np.float32),
            "w2": np.zeros((0, c), np.float32), "b2": np.arange(c, dtype=np.float32),
            "pool_max": np.array([1.0 if pooling == "mean-max" else 0.0], np.float32)}


class TestHeadEdgeCases:
    """No rows or no hidden units: nothing divides by zero in the tile size."""

    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_empty_batch(self, pooling):
        params = init_classifier_params(ClassifierConfig(num_classes=4, pooling=pooling), 0)
        lat = np.zeros((0, 16, 32), np.float32)
        assert _logits_np(lat, params).shape == (0, 4)
        assert predict_batch(lat, params).shape == (0,)
        fwd = _head_from_preact(np.zeros((0, 16, 64), np.float32), params)
        g = _preact_grad(*_head_vjp(fwd, params, np.zeros((0, 4), np.float32)), params)
        assert g.shape == (0, 16, 64)

    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_zero_width_head(self, pooling):
        params = zero_width_head(pooling)
        lat = random_latents(3, seed=2)
        assert np.array_equal(_logits_np(lat, params), np.tile(params["b2"], (3, 1)))
        ig = integrated_gradients_latent(LatentGrid(lat[0]), LatentGrid(lat[1]), params, 1, 5)
        assert ig.scores.shape == (16, 32) and not np.any(ig.scores)


class TestTiledHeadKeepsTheBytes:
    """The head in tiles, in place, gives the whole-array head's bytes on the cached tasks."""

    @pytest.mark.parametrize("task", ["kw", "emo"])
    def test_logits(self, task, request):
        latents = request.getfixturevalue(f"{task}_latents")
        head = request.getfixturevalue(f"cls_{task}").params
        for rows in (0, 1, 7, 8, 9, 33):
            got = _logits_np(latents[:rows], head)
            assert got.tobytes() == whole_array_logits(latents[:rows], head).tobytes(), rows
            assert np.array_equal(predict_batch(latents[:rows], head), got.argmax(axis=1))

    @pytest.mark.parametrize("pooling", POOLINGS)
    @pytest.mark.parametrize("task", ["kw", "emo"])
    def test_training_with_substitution(self, task, pooling, request, monkeypatch):
        data = request.getfixturevalue(f"{task}_data")
        latents = request.getfixturevalue(f"{task}_latents")
        rows = data.train_idx[::8]
        cfg = ClassifierConfig(num_classes=len(data.class_names), pooling=pooling, epochs=2,
                               batch_size=20, anchor_class=0, substitution_max_ratio=0.6)

        def train():
            return train_classifier(latents[rows], data.labels[rows], cfg, seed=2,
                                    substitution_base=latents[data.test_idx[0]])

        got = train()
        monkeypatch.setattr(classifier, "_head_from_preact", whole_array_head_from_preact)
        monkeypatch.setattr(classifier, "_head_vjp", whole_array_head_vjp)
        ref = train()
        assert params_sha256(got.params) == params_sha256(ref.params)
        assert got.metadata == ref.metadata


class TestHeadStepMatchesTape:
    """One training step's loss and gradients against the head and cross-entropy on the tape."""

    @pytest.mark.parametrize("pooling", ["mean", "mean-max"])
    def test_grads_in_float64(self, pooling):
        params = init_classifier_params(ClassifierConfig(num_classes=5, pooling=pooling), 4)
        rng = np.random.default_rng(5)
        for k in ("b0", "b1", "b2"):
            params[k] = 0.5 * rng.standard_normal(params[k].shape)
        params = {k: v.astype(np.float64) for k, v in params.items()}
        lat = 2 * random_latents(6, seed=6).astype(np.float64)
        # frames 4 and 9 tie for the max of channel h in every row, and differ only in
        # latent channel l, which h does not weigh: the max pool's gradient must go to
        # frame 4, the first, or w0[l, h] gets the wrong one
        l, h = 3, 7
        params["w0"][l, h] = 0.0
        lat[:, 4] = 20.0 * params["w0"][:, h] / np.linalg.norm(params["w0"][:, h])
        lat[:, 9] = lat[:, 4]
        lat[:, 9, l] += 1.0
        emb = ad.elu_array((lat @ params["w0"] + params["b0"]).copy())
        assert np.all(emb[:, 4, h] == emb[:, 9, h]) and np.all(emb[:, :, h].argmax(axis=1) == 4)
        labels = np.array([0, 1, 2, 3, 4, 2])
        loss, grads = _step_grads(lat, labels, params)
        pt = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
        ref = ad.softmax_cross_entropy(logits_from_latent(ad.Tensor(lat), pt), labels)
        ref.backward()
        assert abs(loss - float(ref.data)) <= 1e-12 * float(ref.data)
        assert sorted(grads) == ["b0", "b1", "b2", "w0", "w1", "w2"]
        for k, g in grads.items():
            assert g.dtype == np.float64 and g.shape == params[k].shape
            assert np.max(np.abs(g - pt[k].grad)) <= 1e-10 * np.max(np.abs(pt[k].grad)), k


class TestTraining:
    def test_epoch_losses_in_metadata(self):
        lat = random_latents(30, seed=4)
        labels = np.arange(30) % 3
        cfg = ClassifierConfig(num_classes=3, epochs=4, pooling="mean-max", anchor_class=0)
        base = np.zeros((16, 32), np.float32)
        a = train_classifier(lat, labels, cfg, seed=1, substitution_base=base).metadata
        assert a == train_classifier(lat, labels, cfg, seed=1, substitution_base=base).metadata
        assert len(a["epoch_losses"]) == 4
        assert a["epoch_losses"][0] == a["initial_loss"]
        assert a["epoch_losses"][-1] == a["final_loss"]

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

    @pytest.mark.parametrize("bad", [3, -1])
    def test_label_outside_the_classes_rejected(self, bad):
        labels = np.arange(10) % 3
        labels[4] = bad
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            train_classifier(random_latents(10), labels, ClassifierConfig(num_classes=3))

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
