"""Evaluation harness: sweep bookkeeping, report serialization, boundary identities."""

import numpy as np
import pytest

import latentexplain.evalharness as evalharness
from latentexplain.attribution import LATENT_IG, RANDOM_INPUT, RANDOM_LATENT, random_attribution
from latentexplain.audio import AudioClip
from latentexplain.classifier import predict_batch
from latentexplain.codec import encode_batch
from latentexplain.masking import mask_input_space_remove
from latentexplain.evalharness import (
    AGREEMENT,
    POST_REMOVAL_ACCURACY,
    EvalReport,
    RatioRow,
    ReportError,
    accuracy_drop,
    confusion_after_removal,
    fidelity_agreement,
    read_report,
    report_to_csv,
    write_report,
)


@pytest.fixture(scope="module")
def small_kw(kw_data):
    clips, labels = kw_data.subset(kw_data.test_idx[:16])
    return clips, labels


class TestReportSerialization:
    def make_report(self):
        rows = [RatioRow(0.1, 83.5, 2.25), RatioRow(0.4, 97.0, 0.0)]
        return EvalReport("kw-seed0", LATENT_IG, AGREEMENT, rows, 5,
                          [1234, 1235, 1236, 1237, 1238], {"ig_steps": 64})

    def test_json_round_trip(self, tmp_path):
        rep = self.make_report()
        path = tmp_path / "r.json"
        write_report(rep, path)
        back = read_report(path)
        assert back == rep

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ReportError):
            read_report(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(ReportError):
            read_report(path)

    def test_csv_layout(self):
        text = report_to_csv(self.make_report())
        lines = text.strip().splitlines()
        assert lines[0] == "ratio,mean,std"
        assert lines[1] == "0.1,83.5,2.25"
        assert len(lines) == 3

    def test_row_lookup(self):
        rep = self.make_report()
        assert rep.row(0.4).mean == 97.0
        with pytest.raises(KeyError):
            rep.row(0.3)


class TestAgreementBoundaries:
    def test_alpha_one_is_hundred_percent(self, small_kw, models_kw):
        clips, _ = small_kw
        rep = fidelity_agreement(clips, models_kw, LATENT_IG, ratios=[1.0], runs=2)
        row = rep.row(1.0)
        # keeping every cell reproduces the unmasked latent exactly
        assert row.mean == 100.0 and row.std == 0.0

    def test_deterministic_method_zero_std(self, small_kw, models_kw):
        clips, _ = small_kw
        rep = fidelity_agreement(clips, models_kw, LATENT_IG, ratios=[0.2, 0.6], runs=3)
        assert all(r.std == 0.0 for r in rep.rows)
        assert rep.run_count == 3 and len(rep.seeds) == 3

    def test_random_method_seeded_reproducible(self, small_kw, models_kw):
        clips, _ = small_kw
        a = fidelity_agreement(clips, models_kw, RANDOM_LATENT, ratios=[0.4], runs=3,
                               base_seed=99)
        b = fidelity_agreement(clips, models_kw, RANDOM_LATENT, ratios=[0.4], runs=3,
                               base_seed=99)
        assert a.rows == b.rows

    def test_empty_test_set_rejected(self, models_kw):
        with pytest.raises(ValueError):
            fidelity_agreement(np.zeros((0, 16384), dtype=np.float32), models_kw, LATENT_IG)

    def test_unknown_method_rejected(self, small_kw, models_kw):
        clips, _ = small_kw
        with pytest.raises(ValueError):
            fidelity_agreement(clips, models_kw, "saliency", ratios=[0.1], runs=1)


class TestRepeatedRatios:
    def test_each_listed_ratio_gets_its_own_row(self, small_kw, models_kw):
        clips, _ = small_kw
        once = fidelity_agreement(clips, models_kw, RANDOM_LATENT, ratios=[0.5], runs=2)
        twice = fidelity_agreement(clips, models_kw, RANDOM_LATENT, ratios=[0.5, 0.2, 0.5],
                                   runs=2)
        assert [r.ratio for r in twice.rows] == [0.5, 0.2, 0.5]
        # each row averages exactly `runs` values, the same ones as the single-ratio sweep
        assert twice.rows[0] == twice.rows[2] == once.rows[0]


class TestAccuracyDropBoundaries:
    def test_beta_zero_equals_baseline_accuracy(self, small_kw, models_kw):
        clips, labels = small_kw
        z = encode_batch(clips, models_kw.codec_params, models_kw.codec_config)
        baseline = 100.0 * float(np.mean(predict_batch(z, models_kw.cls_params) == labels))
        rep = accuracy_drop(clips, labels, models_kw, LATENT_IG, ratios=[0.0], runs=2)
        assert rep.row(0.0).mean == baseline
        assert rep.row(0.0).std == 0.0

    def test_metric_tag(self, small_kw, models_kw):
        clips, labels = small_kw
        rep = accuracy_drop(clips, labels, models_kw, RANDOM_LATENT, ratios=[0.1], runs=2)
        assert rep.metric == POST_REMOVAL_ACCURACY
        assert 0.0 <= rep.row(0.1).mean <= 100.0

    def test_input_space_random_runs(self, small_kw, models_kw):
        clips, labels = small_kw
        rep = accuracy_drop(clips, labels, models_kw, RANDOM_INPUT, ratios=[0.5], runs=2)
        assert rep.method == RANDOM_INPUT
        assert len(rep.rows) == 1


class TestConfusion:
    def test_counts_and_shape(self, small_kw, models_kw):
        clips, labels = small_kw
        mat = confusion_after_removal(clips, labels, 8, models_kw, beta=0.1)
        assert mat.shape == (8, 8)
        assert mat.sum() == len(labels)
        for c in range(8):
            assert mat[c].sum() == int(np.sum(labels == c))

    def test_beta_zero_diagonal_is_baseline(self, small_kw, models_kw):
        clips, labels = small_kw
        z = encode_batch(clips, models_kw.codec_params, models_kw.codec_config)
        preds = predict_batch(z, models_kw.cls_params)
        mat = confusion_after_removal(clips, labels, 8, models_kw, beta=0.0)
        assert int(np.trace(mat)) == int(np.sum(preds == labels))


class TestWaveformClamp:
    """Input-space sweeps encode the masked waveforms clamped to [-1, 1], as AudioClip does."""

    def test_random_input_cell_rebuilt_from_public_functions(self, emo_data, models_emo,
                                                             monkeypatch):
        test = emo_data.test_idx
        loud = [i for i in test if np.abs(emo_data.clips[i]).max() > 1.0]
        assert loud, "the clamp only shows on clips with samples beyond +-1"
        clips, labels = emo_data.subset(np.asarray(loud + list(test[:2])))
        encoded = []

        def recording(samples, params, config):
            encoded.append(samples.copy())
            return encode_batch(samples, params, config)

        monkeypatch.setattr(evalharness, "encode_batch", recording)
        ratio, seed = 0.4, 5
        rep = accuracy_drop(clips, labels, models_emo, RANDOM_INPUT, ratios=[ratio], runs=1,
                            base_seed=seed)
        sr = models_emo.codec_config.sample_rate
        masked = np.stack([
            mask_input_space_remove(
                AudioClip(x, sr),
                random_attribution(x.shape, int(np.random.SeedSequence([seed, i])
                                                .generate_state(1)[0]), RANDOM_INPUT),
                ratio, models_emo.noise_clip,
            ).samples
            for i, x in enumerate(clips)
        ])
        assert np.any((np.abs(clips) > 1.0) & (masked == np.clip(clips, -1.0, 1.0)))
        # encode calls: the clips themselves, then the one masked batch
        assert len(encoded) == 2 and np.array_equal(encoded[1], masked)
        z = encode_batch(masked, models_emo.codec_params, models_emo.codec_config)
        preds = predict_batch(z, models_emo.cls_params)
        assert rep.rows[0].mean == 100.0 * float(np.mean(preds == labels))
