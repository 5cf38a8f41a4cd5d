import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from latentexplain.attribution import (
    AttributionMap,
    integrated_gradients_latent,
    random_attribution,
)
from latentexplain.audio import AudioClip, LengthError
from latentexplain.autodiff import DimensionError
from latentexplain.codec import CodecConfig, LatentGrid, decode, init_codec_params
from latentexplain.masking import (
    KEEP_TOP,
    REMOVE_TOP,
    apply_mask_keep,
    apply_mask_remove,
    make_base_latent,
    mask_input_space,
    mask_input_space_remove,
    check_ratio,
    select_top,
    synthesize_explanation,
)


def att_map(scores):
    return AttributionMap(np.asarray(scores, dtype=np.float32), 0, "latent-ig")


class TestSelectTop:
    def test_direct_ordering(self):
        mask = select_top(att_map([[0.9, 0.1], [0.5, 0.3]]), 0.5)
        # flat indices 0 (0.9) and 2 (0.5)
        assert mask.kept.tolist() == [0, 2]

    def test_boundaries(self):
        scores = att_map([[0.9, 0.1], [0.5, 0.3]])
        assert select_top(scores, 0.0).kept.size == 0
        assert select_top(scores, 1.0).kept.size == 4

    def test_tie_break_row_major(self):
        mask = select_top(att_map(np.ones((2, 2))), 0.5)
        assert mask.kept.tolist() == [0, 1]

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            select_top(att_map([[1.0]]), 1.5)

    @given(st.integers(0, 200), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_count_and_monotone_containment(self, seed, ratio):
        rng = np.random.default_rng(seed)
        scores = att_map(rng.standard_normal((6, 5)))
        mask = select_top(scores, ratio)
        assert mask.kept.size == int(np.floor(ratio * 30 + 0.5))
        smaller = select_top(scores, ratio / 2)
        assert set(smaller.kept.tolist()) <= set(mask.kept.tolist())


F32 = np.finfo(np.float32)
# ties, +-0, subnormals, the smallest normal and +-float32 max, with both signs mixed
EDGE_SCORES = st.sampled_from([
    -1.0, -0.5, -0.0, 0.0, 0.5, 1.0,
    float(F32.smallest_subnormal), -float(F32.smallest_subnormal), 1e-40, -1e-40,
    float(F32.smallest_normal), -float(F32.smallest_normal), float(F32.max), -float(F32.max),
])
SCORES = st.one_of(EDGE_SCORES, st.floats(width=32, allow_nan=False, allow_infinity=False))


def parent_kept(flat, ratio):
    """select_top's kept cells as one full stable argsort per call computes them."""
    k = int(np.floor(ratio * flat.size + 0.5))
    return np.sort(np.argsort(-flat, kind="stable")[:k]).astype(np.int64)


class TestRankCache:
    @given(
        arrays(np.float32, st.tuples(st.integers(1, 6), st.integers(1, 7)), elements=SCORES),
        st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([KEEP_TOP, REMOVE_TOP])),
                 min_size=1, max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_cached_kept_matches_a_full_argsort(self, scores, calls):
        att = att_map(scores)
        flat = scores.ravel().copy()
        for ratio, mode in calls:
            mask = select_top(att, ratio, mode=mode)
            assert mask.kept.dtype == np.int64 and mask.mode == mode
            assert np.array_equal(mask.kept, parent_kept(flat, ratio))

    @staticmethod
    def assert_rank_is_the_stable_argsort(att):
        flat = att.scores.ravel().copy()
        want = np.empty(flat.size, dtype=np.int32)
        want[np.argsort(-flat, kind="stable")] = np.arange(flat.size, dtype=np.int32)
        assert np.array_equal(att.rank(), want)

    def test_random_map_rank_is_the_stable_argsort(self):
        att = random_attribution((256, 32), seed=11)
        assert att.scores.size == 8192
        self.assert_rank_is_the_stable_argsort(att)

    def test_integrated_gradients_map_rank_is_the_stable_argsort(self, kw_latents, models_kw,
                                                                   cls_kw):
        att = integrated_gradients_latent(LatentGrid(kw_latents[0]), models_kw.base_latent,
                                          cls_kw.params, 1)
        assert (att.scores < 0).any() and (att.scores > 0).any()
        self.assert_rank_is_the_stable_argsort(att)

    def test_eleven_ratios_sort_the_map_once(self, monkeypatch):
        att = random_attribution((64, 32), seed=0)
        counts = {"sort": 0, "argsort": 0, "isfinite": 0}

        def spy(name):
            orig = getattr(np, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return orig(*args, **kwargs)
            return counted

        for name in counts:
            monkeypatch.setattr(np, name, spy(name))
        for i in range(11):
            select_top(att, i / 10, mode=KEEP_TOP if i % 2 else REMOVE_TOP)
        assert counts == {"sort": 1, "argsort": 0, "isfinite": 1}

    def test_scores_that_are_not_float32_rejected(self):
        att = AttributionMap(np.asarray([0.5, 0.25]), 0, "latent-ig")
        with pytest.raises(TypeError, match="float32, got float64"):
            select_top(att, 0.5)

    def test_rebinding_scores_ranks_again(self):
        att = att_map([[0.9, 0.1], [0.5, 0.3]])
        assert select_top(att, 0.25).kept.tolist() == [0]
        att.scores = np.asarray([[0.1, 0.9], [0.5, 0.3]], dtype=np.float32)
        assert select_top(att, 0.25).kept.tolist() == [1]

    def test_in_place_write_into_ranked_scores_raises(self):
        att = att_map([[0.9, 0.1], [0.5, 0.3]])
        select_top(att, 0.5)
        with pytest.raises(ValueError, match="read-only"):
            att.scores[0, 1] = 2.0

    def test_deep_copy_is_ranked_from_its_own_scores(self):
        att = att_map([[0.9, 0.1], [0.5, 0.3]])
        select_top(att, 0.25)
        twin = copy.deepcopy(att)
        twin.scores[0, 1] = 2.0  # the copy's array is writeable again
        assert select_top(twin, 0.25).kept.tolist() == [1]
        assert select_top(att, 0.25).kept.tolist() == [0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="2 non-finite"):
            select_top(att_map([bad, 1.0, 0.5, bad]), 0.5)

    @pytest.mark.parametrize("ratio", [-0.1, 1.5, float("nan"), float("inf"), "0.5", None])
    def test_check_ratio_rejects(self, ratio):
        with pytest.raises(ValueError, match="ratio must be in"):
            check_ratio(ratio)

    def test_check_ratio_accepts_numpy_scalars(self):
        assert check_ratio(np.float32(0.25)) == 0.25 and check_ratio(1) == 1.0


class TestApplyMask:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.z = LatentGrid(rng.standard_normal((4, 3)).astype(np.float32))
        self.base = LatentGrid(rng.standard_normal((4, 3)).astype(np.float32))

    def test_full_mask_is_identity(self):
        mask = select_top(att_map(np.ones((4, 3))), 1.0)
        out = apply_mask_keep(self.z, mask, self.base)
        assert np.array_equal(out.values, self.z.values)

    def test_empty_mask_is_base(self):
        mask = select_top(att_map(np.ones((4, 3))), 0.0)
        out = apply_mask_keep(self.z, mask, self.base)
        assert np.array_equal(out.values, self.base.values)

    def test_single_cell_keep(self):
        z = LatentGrid(np.arange(4, dtype=np.float32).reshape(2, 2) + 1)
        base = LatentGrid(np.zeros((2, 2), dtype=np.float32))
        mask = select_top(att_map([[1.0, 0.0], [0.0, 0.0]]), 0.25)
        out = apply_mask_keep(z, mask, base)
        assert out.values.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_remove_boundaries(self):
        full = select_top(att_map(np.ones((4, 3))), 1.0, mode=REMOVE_TOP)
        none = select_top(att_map(np.ones((4, 3))), 0.0, mode=REMOVE_TOP)
        assert np.array_equal(apply_mask_remove(self.z, none, self.base).values, self.z.values)
        assert np.array_equal(apply_mask_remove(self.z, full, self.base).values, self.base.values)

    @given(st.integers(0, 200), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_keep_remove_duality(self, seed, ratio):
        rng = np.random.default_rng(seed)
        z = LatentGrid(rng.standard_normal((5, 4)).astype(np.float32))
        base = LatentGrid(rng.standard_normal((5, 4)).astype(np.float32))
        mask = select_top(att_map(rng.standard_normal((5, 4))), ratio)
        removed = apply_mask_remove(z, mask, base)
        kept_complement = apply_mask_keep(z, mask.complement(), base)
        assert np.array_equal(removed.values, kept_complement.values)

    def test_shape_mismatch(self):
        mask = select_top(att_map(np.ones((4, 3))), 0.5)
        with pytest.raises(DimensionError):
            apply_mask_keep(self.z, mask, LatentGrid(np.zeros((2, 3), dtype=np.float32)))


class TestBaseLatent:
    def test_seeded_determinism(self, codec_config):
        params = init_codec_params(codec_config, seed=0)
        a = make_base_latent(params, codec_config, 4096, seed=3)
        b = make_base_latent(params, codec_config, 4096, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_shape_law(self, codec_config):
        params = init_codec_params(codec_config, seed=0)
        z = make_base_latent(params, codec_config, 4096, seed=3)
        assert z.frames == 4096 // codec_config.stride_product

    def test_too_short(self, codec_config):
        params = init_codec_params(codec_config, seed=0)
        with pytest.raises(LengthError):
            make_base_latent(params, codec_config, 10, seed=0)

    def test_nonzero_on_trained_encoder(self, codec_kw, codec_config):
        z = make_base_latent(codec_kw.params, codec_config, 16384, seed=7)
        assert np.any(z.values != 0)


class TestSynthesize:
    def test_alpha_one_equals_reconstruction(self, codec_kw, codec_config, kw_data):
        from latentexplain.codec import encode

        clip = AudioClip(kw_data.clips[0], 16000)
        z = encode(clip, codec_kw.params, codec_config)
        base = make_base_latent(codec_kw.params, codec_config, 16384, seed=7)
        mask = select_top(att_map(np.ones(z.values.shape)), 1.0)
        masked = apply_mask_keep(z, mask, base)
        expl = synthesize_explanation(masked, codec_kw.params, codec_config)
        recon = decode(z, codec_kw.params, codec_config)
        assert np.array_equal(expl.samples, recon.samples)

    def test_output_in_range(self, codec_kw, codec_config):
        base = make_base_latent(codec_kw.params, codec_config, 4096, seed=7)
        out = synthesize_explanation(base, codec_kw.params, codec_config)
        assert np.all(np.abs(out.samples) <= 1.0)


class TestInputSpaceMask:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.x = AudioClip(rng.uniform(-0.5, 0.5, 200), 16000)
        self.noise = AudioClip(rng.uniform(-0.1, 0.1, 200), 16000)
        self.att = random_attribution((200,), seed=1, method="input-ig")

    def test_ratio_one_keeps_clip(self):
        out = mask_input_space(self.x, self.att, 1.0, self.noise)
        assert np.array_equal(out.samples, self.x.samples)

    def test_ratio_zero_is_noise(self):
        out = mask_input_space(self.x, self.att, 0.0, self.noise)
        assert np.array_equal(out.samples, self.noise.samples)

    def test_kept_count(self):
        out = mask_input_space(self.x, self.att, 0.3, self.noise)
        n_from_x = int(np.sum(out.samples == self.x.samples))
        assert n_from_x >= int(np.floor(0.3 * 200 + 0.5))

    def test_remove_complements_keep(self):
        kept = mask_input_space(self.x, self.att, 0.3, self.noise)
        removed = mask_input_space_remove(self.x, self.att, 0.3, self.noise)
        from_x_in_kept = kept.samples == self.x.samples
        from_noise_in_removed = removed.samples == self.noise.samples
        assert np.array_equal(from_x_in_kept, from_noise_in_removed)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            mask_input_space(self.x, self.att, 0.5, AudioClip(np.zeros(100), 16000))


class TestRandomAttribution:
    def test_seeded(self):
        a = random_attribution((8, 4), seed=2)
        b = random_attribution((8, 4), seed=2)
        assert np.array_equal(a.scores, b.scores)

    def test_different_seeds_differ(self):
        a = random_attribution((8, 4), seed=2)
        b = random_attribution((8, 4), seed=3)
        assert not np.array_equal(a.scores, b.scores)

    def test_top_ratio_count(self):
        att = random_attribution((10, 10), seed=0)
        assert select_top(att, 0.37).kept.size == 37
