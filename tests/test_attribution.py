"""Integrated-gradients properties: closed form on affine heads, completeness, stability."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from latentexplain.attribution import (
    INPUT_IG,
    LATENT_IG,
    RANDOM_INPUT,
    integrated_gradients_input,
    integrated_gradients_latent,
    random_attribution,
    target_logit_latent,
)
from latentexplain import autodiff as ad
from latentexplain.audio import AudioClip, NonFiniteError
from latentexplain.autodiff import DimensionError
from latentexplain import attribution
from latentexplain.classifier import (
    ClassifierConfig,
    _pool_gate,
    _logits_np,
    init_classifier_params,
    logits_from_latent,
    predict_batch,
)
from latentexplain.codec import (
    ENCODE_ROWS,
    CodecConfig,
    LatentGrid,
    encode,
    encode_batch,
    init_codec_params,
)
from latentexplain.masking import mask_input_space, mask_input_space_remove
from conftest import finishes
from tape_reference import (encode_tensor, one_thread_input_ig, pad_for_encode,
                            per_pass_input_ig, whole_array_latent_ig)


def affine_head_params(l=6, h=5, c=3, seed=0):
    """Head parameters whose pre-activations stay positive on bounded inputs.

    ELU is the identity on positives and mean pooling is linear (no
    ``pool_max`` gate here), so within that region the whole head is
    affine in the latent and IG has a closed form independent of the
    step count: att = (z - z') * dF, sum(att) = F(z) - F(z').
    """
    rng = np.random.default_rng(seed)
    return {
        "w0": rng.uniform(0.0, 0.05, (l, h)).astype(np.float32),
        "b0": np.full(h, 5.0, dtype=np.float32),
        "w1": rng.uniform(0.0, 0.05, (h, h)).astype(np.float32),
        "b1": np.full(h, 5.0, dtype=np.float32),
        "w2": rng.standard_normal((h, c)).astype(np.float32),
        "b2": np.zeros(c, dtype=np.float32),
    }


def target_logit_input(x, codec_params, codec_config, cls_params, target):
    """Target-class logit of head(encoder(x)); completeness oracle hook."""
    z = encode_batch(np.asarray(x, dtype=np.float32)[None, :], codec_params, codec_config)
    return float(_logits_np(z, cls_params)[0, target])


class TestAffineClosedForm:
    def test_step_count_irrelevant_and_exact(self):
        params = affine_head_params()
        rng = np.random.default_rng(1)
        z = LatentGrid(rng.uniform(-1, 1, (4, 6)).astype(np.float32))
        base = LatentGrid(rng.uniform(-1, 1, (4, 6)).astype(np.float32))
        maps = [
            integrated_gradients_latent(z, base, params, 1, steps=m).scores
            for m in (1, 8, 64)
        ]
        for other in maps[1:]:
            assert np.max(np.abs(maps[0] - other)) <= 1e-5
        dF = target_logit_latent(z.values, params, 1) - target_logit_latent(
            base.values, params, 1
        )
        assert abs(maps[0].sum() - dF) <= 1e-5

    def test_gradient_factor_matches_hand_computation(self):
        params = affine_head_params()
        rng = np.random.default_rng(2)
        z = LatentGrid(rng.uniform(-1, 1, (3, 6)).astype(np.float32))
        base = LatentGrid(np.zeros((3, 6), dtype=np.float32) + 0.1)
        att = integrated_gradients_latent(z, base, params, 0, steps=4)
        # affine region: dF/dz[t, l] = (w0 @ w1 @ w2[:, 0])[l] / T
        g = (params["w0"] @ params["w1"] @ params["w2"][:, 0]) / 3.0
        expected = (z.values - base.values) * g[None, :]
        assert np.max(np.abs(att.scores - expected)) <= 1e-5


def tape_latent_ig(z, base, params, target, steps):
    """Reference latent IG: the head on the autodiff tape at every midpoint of the path."""
    delta = z - base
    alphas = ((np.arange(steps) + 0.5) / steps).astype(np.float32)
    zt = ad.Tensor(base[None] + alphas[:, None, None] * delta[None], requires_grad=True)
    logits = logits_from_latent(zt, {k: ad.Tensor(v) for k, v in params.items()})
    onehot = np.zeros((params["w2"].shape[1], 1), dtype=np.float32)
    onehot[target, 0] = 1.0
    ad.tsum(ad.matmul(logits, ad.Tensor(onehot))).backward()
    return delta * zt.grad.mean(axis=0)


def random_head_params(pooling, l=8, h=16, c=4, seed=0):
    params = init_classifier_params(
        ClassifierConfig(num_classes=c, latent_channels=l, hidden=h, pooling=pooling), seed
    )
    rng = np.random.default_rng(seed + 100)
    for k in ("b0", "b1", "b2"):
        params[k] = (0.5 * rng.standard_normal(params[k].shape)).astype(np.float32)
    return params


class TestClosedFormMatchesTape:
    """The closed-form latent IG equals IG taken on the tape, step by step."""

    def check(self, z, base, params, steps=16):
        for target in range(params["w2"].shape[1]):
            got = integrated_gradients_latent(
                LatentGrid(z), LatentGrid(base), params, target, steps=steps
            ).scores
            ref = tape_latent_ig(z, base, params, target, steps)
            assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref))
        return got

    @pytest.mark.parametrize("pooling", ["mean", "mean-max"])
    def test_random_heads(self, pooling):
        rng = np.random.default_rng(3)
        z = (2 * rng.standard_normal((12, 8))).astype(np.float32)
        base = rng.standard_normal((12, 8)).astype(np.float32)
        self.check(z, base, random_head_params(pooling, seed=4))

    def test_head_without_pool_gate(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-1, 1, (7, 6)).astype(np.float32)
        base = rng.uniform(-1, 1, (7, 6)).astype(np.float32)
        self.check(z, base, affine_head_params(), steps=5)

    def test_max_pool_ties_go_to_first_frame(self):
        rng = np.random.default_rng(6)
        # three distinct frames, repeated: every step's max is tied three ways
        z = np.tile(rng.standard_normal((3, 8)).astype(np.float32), (3, 1))
        base = np.tile(rng.standard_normal((3, 8)).astype(np.float32), (3, 1))
        scores = self.check(z, base, random_head_params("mean-max", seed=7))
        # the max-pool gradient lands on the first copy only
        assert not np.allclose(scores[:3], scores[3:6])
        assert np.array_equal(scores[3:6], scores[6:9])


class TestBasicProperties:
    def test_zero_path_zero_scores(self):
        params = affine_head_params()
        z = LatentGrid(np.full((4, 6), 0.3, dtype=np.float32))
        att = integrated_gradients_latent(z, z, params, 0, steps=16)
        assert np.all(att.scores == 0)

    def test_metadata(self):
        params = affine_head_params()
        z = LatentGrid(np.zeros((2, 6), dtype=np.float32))
        b = LatentGrid(np.ones((2, 6), dtype=np.float32))
        att = integrated_gradients_latent(z, b, params, 2, steps=7)
        assert att.method == LATENT_IG
        assert att.target_class == 2
        assert att.ig_steps == 7
        assert att.scores.shape == (2, 6)

    def test_shape_mismatch(self):
        params = affine_head_params()
        with pytest.raises(DimensionError):
            integrated_gradients_latent(
                LatentGrid(np.zeros((2, 6), dtype=np.float32)),
                LatentGrid(np.zeros((3, 6), dtype=np.float32)),
                params, 0,
            )

    def test_bad_steps(self):
        params = affine_head_params()
        z = LatentGrid(np.zeros((2, 6), dtype=np.float32))
        with pytest.raises(ValueError):
            integrated_gradients_latent(z, z, params, 0, steps=0)


class TestCompletenessOnTrainedModel:
    """|sum(att) - (F(x) - F(baseline))| <= 1% of |dF| + 1e-6 at 128 steps."""

    def test_latent_ig_fifty_samples(self, kw_data, kw_latents, cls_kw, models_kw):
        idx = kw_data.test_idx[:50]
        targets = predict_batch(kw_latents[idx], cls_kw.params)
        base = models_kw.base_latent
        for i, t in zip(idx, targets):
            att = integrated_gradients_latent(
                LatentGrid(kw_latents[i]), base, cls_kw.params, int(t), steps=128
            )
            dF = target_logit_latent(kw_latents[i], cls_kw.params, int(t)) - \
                target_logit_latent(base.values, cls_kw.params, int(t))
            assert abs(float(att.scores.sum()) - dF) <= 0.01 * abs(dF) + 1e-6

    def test_step_refinement_stable(self, kw_data, kw_latents, cls_kw, models_kw):
        i = kw_data.test_idx[0]
        t = int(predict_batch(kw_latents[i][None], cls_kw.params)[0])
        base = models_kw.base_latent
        s128 = float(integrated_gradients_latent(
            LatentGrid(kw_latents[i]), base, cls_kw.params, t, steps=128).scores.sum())
        s256 = float(integrated_gradients_latent(
            LatentGrid(kw_latents[i]), base, cls_kw.params, t, steps=256).scores.sum())
        assert abs(s256 - s128) < 0.005 * abs(s128)


class TestInputSpaceIG:
    def test_score_length_matches_waveform(self, kw_data, codec_kw, codec_config, cls_kw,
                                           models_kw):
        x = kw_data.clips[kw_data.test_idx[0]]
        att = integrated_gradients_input(
            x, models_kw.noise_clip.samples, codec_kw.params, codec_config,
            cls_kw.params, 0, steps=8,
        )
        assert att.scores.shape == (len(x),)
        assert att.method == INPUT_IG

    def test_completeness_through_encoder(self, kw_data, kw_latents, codec_kw, codec_config,
                                          cls_kw, models_kw):
        idx = kw_data.test_idx[:3]
        targets = predict_batch(kw_latents[idx], cls_kw.params)
        noise = models_kw.noise_clip.samples
        for i, t in zip(idx, targets):
            att = integrated_gradients_input(
                kw_data.clips[i], noise, codec_kw.params, codec_config,
                cls_kw.params, int(t), steps=128,
            )
            dF = target_logit_input(kw_data.clips[i], codec_kw.params, codec_config,
                                    cls_kw.params, int(t)) - \
                target_logit_input(noise, codec_kw.params, codec_config,
                                   cls_kw.params, int(t))
            assert abs(float(att.scores.sum()) - dF) <= 0.01 * abs(dF) + 1e-6

    def test_length_mismatch(self, codec_kw, codec_config, cls_kw):
        with pytest.raises(DimensionError):
            integrated_gradients_input(
                np.zeros(100, dtype=np.float32), np.zeros(200, dtype=np.float32),
                codec_kw.params, codec_config, cls_kw.params, 0,
            )


def tape_input_ig(x, base, codec_params, codec_config, cls_params, target, steps):
    """Reference waveform IG: encoder and head on the autodiff tape at every midpoint of the path."""
    xp = pad_for_encode(x, codec_config)
    bp = pad_for_encode(base, codec_config)
    delta = xp - bp
    alphas = ((np.arange(steps) + 0.5) / steps).astype(np.float32)
    xt = ad.Tensor((bp[None, :] + alphas[:, None] * delta[None, :])[:, None, :],
                   requires_grad=True)
    zt = encode_tensor(xt, {k: ad.Tensor(v) for k, v in codec_params.items()}, codec_config)
    logits = logits_from_latent(ad.transpose(zt, (0, 2, 1)),
                                {k: ad.Tensor(v) for k, v in cls_params.items()})
    onehot = np.zeros((cls_params["w2"].shape[1], 1), dtype=np.float32)
    onehot[target, 0] = 1.0
    ad.tsum(ad.matmul(logits, ad.Tensor(onehot))).backward()
    return (delta * xt.grad[:, 0, :].mean(axis=0))[: len(x)]


class TestInputIGMatchesTape:
    """Waveform IG through the numpy encoder and its VJP equals IG taken on the tape."""

    @pytest.mark.parametrize("task", ["kw", "emo"])  # mean and mean-max pooling heads
    def test_cached_codec_and_head(self, task, request, codec_config):
        data = request.getfixturevalue(f"{task}_data")
        codec = request.getfixturevalue(f"codec_{task}").params
        head = request.getfixturevalue(f"cls_{task}").params
        noise = request.getfixturevalue(f"models_{task}").noise_clip.samples
        x = data.clips[data.test_idx[0]]
        steps = ENCODE_ROWS + ENCODE_ROWS // 2  # a full chunk and a partial one
        for target in (int(data.labels[data.test_idx[0]]), 1):
            got = integrated_gradients_input(x, noise, codec, codec_config, head, target,
                                             steps).scores
            ref = tape_input_ig(x, noise, codec, codec_config, head, target, steps)
            assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref))


class TestInputIGMatchesPerPassOracle:
    """The closed-form layer 0 and its one transposed conv move the scores only by rounding."""

    @pytest.mark.parametrize("steps", [1, 5, ENCODE_ROWS, 13, 64])  # partial last chunks
    @pytest.mark.parametrize("task", ["kw", "emo"])
    def test_cached_codec_and_head(self, task, steps, request, codec_config):
        data = request.getfixturevalue(f"{task}_data")
        codec = request.getfixturevalue(f"codec_{task}").params
        head = request.getfixturevalue(f"cls_{task}").params
        noise = request.getfixturevalue(f"models_{task}").noise_clip.samples
        i = data.test_idx[1]
        target = int(data.labels[i])
        got = integrated_gradients_input(data.clips[i], noise, codec, codec_config, head, target,
                                         steps).scores
        ref = per_pass_input_ig(data.clips[i], noise, codec, codec_config, head, target, steps)
        assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))


class TestInputIGMatchesOneThreadOracle:
    """Each chunk of ENCODE_ROWS path points runs as two halves on two threads and is summed
    in the one-pass order: every map keeps its bytes, partial chunks and one-row chunks too."""

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 64])
    @pytest.mark.parametrize("task", ["kw", "emo"])
    def test_cached_codec_and_head(self, task, steps, request, codec_config):
        data = request.getfixturevalue(f"{task}_data")
        codec = request.getfixturevalue(f"codec_{task}").params
        head = request.getfixturevalue(f"cls_{task}").params
        noise = request.getfixturevalue(f"models_{task}").noise_clip.samples
        i = data.test_idx[2]
        own = int(data.labels[i])
        for target in (own, (own + 1) % head["w2"].shape[1]):
            got = integrated_gradients_input(data.clips[i], noise, codec, codec_config, head,
                                             target, steps).scores
            want = one_thread_input_ig(data.clips[i], noise, codec, codec_config, head, target,
                                       steps)
            assert got.tobytes() == want.tobytes()

    def test_busy_helper_leaves_both_halves_to_the_caller(self, busy_helper):
        cfg = CodecConfig()
        codec = init_codec_params(cfg, 0)
        head = random_head_params("mean-max", l=cfg.latent_channels, seed=1)
        x = np.random.default_rng(6).uniform(-0.5, 0.5, 4096).astype(np.float32)
        got = finishes(lambda: integrated_gradients_input(x, 0.01 * x, codec, cfg, head, 0, 13))
        want = one_thread_input_ig(x, 0.01 * x, codec, cfg, head, 0, 13)
        assert got.scores.tobytes() == want.tobytes()


class TestInputIGBuildsTapsOnce:
    @pytest.mark.parametrize("steps", [1, 20])
    def test_once_per_layer_per_call(self, steps, monkeypatch):
        from latentexplain import codec as codec_module

        calls = []
        taps = codec_module._taps

        def counted(*args):
            calls.append(args)
            return taps(*args)

        monkeypatch.setattr(codec_module, "_taps", counted)
        cfg = CodecConfig()
        head = random_head_params("mean-max", l=cfg.latent_channels, seed=1)
        x = np.random.default_rng(2).uniform(-0.5, 0.5, 1024).astype(np.float32)
        for _ in range(2):
            calls.clear()
            integrated_gradients_input(x, 0.01 * x, init_codec_params(cfg, 0), cfg, head, 0, steps)
            assert len(calls) == len(cfg.channels)


class TestInputIGOnThreads:
    def test_concurrent_calls_match_serial_ones(self):
        """Each call holds its own encoder workspace: calls on four threads at once give the
        serial maps bit for bit."""
        cfg = CodecConfig()
        codec = init_codec_params(cfg, 0)
        head = random_head_params("mean-max", l=cfg.latent_channels, seed=1)
        xs = np.random.default_rng(3).uniform(-0.5, 0.5, (16, 4096)).astype(np.float32)

        def ig(x):
            return integrated_gradients_input(x, 0.01 * x, codec, cfg, head, 0, steps=24).scores

        serial = [ig(x) for x in xs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = [f.result(timeout=120) for f in [pool.submit(ig, x) for x in xs]]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)


class TestInferenceOffTheTape:
    """Encoding and waveform IG build no autodiff graph."""

    def test_no_conv_or_backward_on_the_tape(self, monkeypatch):
        cfg = CodecConfig()
        codec = init_codec_params(cfg, 0)
        head = random_head_params("mean-max", l=cfg.latent_channels, seed=1)
        x = np.random.default_rng(2).uniform(-0.5, 0.5, 1024).astype(np.float32)

        def no_tape(*args, **kwargs):
            raise AssertionError("the autodiff tape ran on the inference path")

        monkeypatch.setattr(ad, "conv1d", no_tape)
        monkeypatch.setattr(ad.Tensor, "backward", no_tape)
        encode(AudioClip(x, 16000), codec, cfg)
        encode_batch(np.stack([x, -x]), codec, cfg)
        integrated_gradients_input(x, 0.01 * x, codec, cfg, head, 0, steps=4)


class TestInputIGRejectsNonFinite:
    @pytest.mark.parametrize("which", ["x", "baseline"])
    def test_before_any_conv_work(self, which, monkeypatch):
        from latentexplain import attribution

        def no_conv(*args, **kwargs):
            raise AssertionError("encoder ran on a non-finite waveform")

        monkeypatch.setattr(attribution, "encoder_forward", no_conv)
        cfg = CodecConfig()
        x = np.zeros(1024, dtype=np.float32)
        base = np.zeros(1024, dtype=np.float32)
        (x if which == "x" else base)[5] = np.nan
        with pytest.raises(NonFiniteError):
            integrated_gradients_input(x, base, init_codec_params(cfg, 0), cfg,
                                       random_head_params("mean", l=cfg.latent_channels), 0)


class TestInputIGOnAClipLongerThanTheEncoderReads:
    """A codec whose encoder reads 960 of a 1,000-sample clip: the map still has one score per
    sample, the 40 samples it never reads score 0, and input-space masking takes the map."""

    CFG = CodecConfig(channels=(8, 8, 8), kernel_sizes=(4, 4, 4), strides=(4, 4, 4),
                      latent_channels=8)

    def test_map_has_the_clip_length(self):
        cfg = self.CFG
        assert cfg.required_input_length(1000 // cfg.stride_product) == 960
        codec, head = init_codec_params(cfg, 0), random_head_params("mean", l=8)
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.5, 0.5, 1000).astype(np.float32)
        base = rng.uniform(-0.1, 0.1, 1000).astype(np.float32)
        att = integrated_gradients_input(x, base, codec, cfg, head, 1, steps=4)
        assert att.scores.shape == (1000,) and att.scores.dtype == np.float32
        assert not np.any(att.scores[960:]) and np.any(att.scores[:960])
        cut = integrated_gradients_input(x[:960], base[:960], codec, cfg, head, 1, steps=4)
        assert att.scores[:960].tobytes() == cut.scores.tobytes()
        sr = cfg.sample_rate
        for mask in (mask_input_space, mask_input_space_remove):
            assert len(mask(AudioClip(x, sr), att, 0.5, AudioClip(base, sr))) == 1000


class TestRandomBaselineMethod:
    def test_method_tag_and_range(self):
        att = random_attribution((5, 3), seed=0, method=RANDOM_INPUT)
        assert att.method == RANDOM_INPUT
        assert np.all(att.scores >= 0) and np.all(att.scores < 1)


def one_target_head_vjp(emb, fwd, params, d_logits):
    """The head backward for the target logit alone, as IG ran it before per-row cotangents,
    from the frame embeddings ``emb`` = elu(pre)."""
    hidden = fwd[3]
    target = int(np.argmax(d_logits[0]))
    onehot = np.eye(len(params["b2"]), dtype=np.float32)[[target] * len(emb)]
    assert np.array_equal(d_logits, onehot)
    d_pooled = (params["w2"][:, target] * np.exp(np.minimum(hidden, 0.0))) @ params["w1"].T
    d_emb = np.minimum(emb, 0.0)
    d_emb += 1.0
    if not _pool_gate(params):
        return d_pooled, d_emb, None
    arg = emb.argmax(axis=1)
    return d_pooled, d_emb, (arg, np.take_along_axis(d_emb, arg[:, None, :], axis=1)[:, 0])


class TestOneHotRowsKeepTheScores:
    """IG through the per-row head backward on one-hot rows is bit-identical to the one-target one."""

    @pytest.mark.parametrize("task", ["kw", "emo"])
    def test_latent_and_waveform_ig(self, task, request, monkeypatch, codec_config):
        data = request.getfixturevalue(f"{task}_data")
        latents = request.getfixturevalue(f"{task}_latents")
        codec = request.getfixturevalue(f"codec_{task}")
        head = request.getfixturevalue(f"cls_{task}")
        i, j = data.test_idx[:2]
        target = int(predict_batch(latents[i : i + 1], head.params)[0])

        def maps():
            return (
                integrated_gradients_latent(LatentGrid(latents[i]), LatentGrid(latents[j]),
                                            head.params, target, steps=64).scores,
                integrated_gradients_input(data.clips[i], data.clips[j], codec.params,
                                           codec_config, head.params, target, steps=5).scores,
            )

        got = maps()
        # the head leaves elu'(pre) in its buffer, so the embeddings come from a copy
        embs = []
        head_forward = attribution._head_from_preact

        def forward_keeping_emb(pre, params):
            embs.append(ad.elu_array(pre.copy()))
            return head_forward(pre, params)

        monkeypatch.setattr(attribution, "_head_from_preact", forward_keeping_emb)
        monkeypatch.setattr(attribution, "_head_vjp",
                            lambda fwd, params, d_logits: one_target_head_vjp(
                                embs.pop(), fwd, params, d_logits))
        for new, old in zip(got, maps()):
            assert np.array_equal(new, old)
        assert not embs


class TestLatentIGKeepsTheBytes:
    """Latent IG on one step buffer, through the head in tiles, gives the whole-array bytes."""

    @pytest.mark.parametrize("task", ["kw", "emo"])
    def test_against_the_whole_array_oracle(self, task, request):
        data = request.getfixturevalue(f"{task}_data")
        latents = request.getfixturevalue(f"{task}_latents")
        head = request.getfixturevalue(f"cls_{task}").params
        i, j = data.test_idx[2:4]
        classes = len(head["b2"])
        own = int(predict_batch(latents[i : i + 1], head)[0])
        other = (own + 1 + int(np.random.default_rng(3).integers(classes - 1))) % classes
        for target in (own, other):
            for steps in (1, 7, 8, 9, 63, 64, 65, 129):
                got = integrated_gradients_latent(LatentGrid(latents[i]), LatentGrid(latents[j]),
                                                  head, target, steps).scores
                ref = whole_array_latent_ig(latents[i], latents[j], head, target, steps)
                assert got.tobytes() == ref.tobytes(), (target, steps)


class TestLatentIGMemory:
    @pytest.mark.parametrize("pooling", ["mean", "mean-max"])
    def test_peak_near_one_step_buffer(self, pooling):
        """One call's traced peak is at most 1.3x its (S, T, H) float32 pre-activations."""
        steps, t, h = 64, 256, 64
        head = random_head_params(pooling, l=32, h=h, c=5, seed=4)
        rng = np.random.default_rng(5)
        z, base = (LatentGrid(rng.standard_normal((t, 32)).astype(np.float32)) for _ in range(2))
        integrated_gradients_latent(z, base, head, 1, steps)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            integrated_gradients_latent(z, base, head, 1, steps)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * steps * t * h * 4
