import numpy as np
import pytest

from latentexplain.data import (
    DatasetError,
    SyntheticDatasetSpec,
    emotion_carrier,
    generate_emotion_dataset,
    generate_keyword_dataset,
    load_dataset,
    read_clips,
    read_manifest,
    save_dataset,
)


@pytest.fixture(scope="module")
def kw_spec():
    return SyntheticDatasetSpec(task="keyword", num_classes=8, clips_per_class=100, seed=0)


@pytest.fixture(scope="module")
def kw_ds(kw_spec):
    return generate_keyword_dataset(kw_spec)


@pytest.fixture(scope="module")
def emo_spec():
    return SyntheticDatasetSpec(
        task="emotion", num_classes=5, clips_per_class=100, words=10, renditions=10, seed=0
    )


@pytest.fixture(scope="module")
def emo_ds(emo_spec):
    return generate_emotion_dataset(emo_spec)


class TestKeywordDataset:
    def test_counts_and_split(self, kw_ds):
        assert kw_ds.clips.shape == (800, 16384)
        assert len(kw_ds.train_idx) == 640 and len(kw_ds.test_idx) == 160
        assert np.intersect1d(kw_ds.train_idx, kw_ds.test_idx).size == 0

    def test_balanced(self, kw_ds):
        counts = np.bincount(kw_ds.labels)
        assert np.all(counts == 100)

    def test_determinism(self, kw_spec, kw_ds):
        again = generate_keyword_dataset(kw_spec)
        assert np.array_equal(again.clips, kw_ds.clips)
        assert np.array_equal(again.test_idx, kw_ds.test_idx)

    def test_samples_in_range(self, kw_ds):
        assert np.all(np.abs(kw_ds.clips) <= 1.0)

    def test_spectral_centroid_oracle(self, kw_ds):
        # independent learnability oracle: nearest class centroid on the
        # magnitude spectrum must separate the classes almost perfectly
        mag = np.abs(np.fft.rfft(kw_ds.clips, axis=1))
        tr, te = kw_ds.train_idx, kw_ds.test_idx
        cents = np.stack(
            [mag[tr][kw_ds.labels[tr] == c].mean(axis=0) for c in range(8)]
        )
        d = ((mag[te][:, None, :] - cents[None]) ** 2).sum(axis=2)
        acc = float(np.mean(d.argmin(axis=1) == kw_ds.labels[te]))
        assert acc >= 0.99


class TestEmotionDataset:
    def test_neutral_equals_carrier(self, emo_spec, emo_ds):
        idx = np.where(emo_ds.labels == 0)[0][:5]
        for i in idx:
            m = emo_ds.meta[i]
            carrier = emotion_carrier(emo_spec, m["word"], m["rendition"])
            assert np.array_equal(emo_ds.clips[i], carrier)

    def test_residual_energy_positive_iff_non_neutral(self, emo_spec, emo_ds):
        rng = np.random.default_rng(0)
        for i in rng.choice(len(emo_ds.labels), 40, replace=False):
            m = emo_ds.meta[i]
            carrier = emotion_carrier(emo_spec, m["word"], m["rendition"])
            energy = float(np.sum((emo_ds.clips[i] - carrier) ** 2))
            if emo_ds.labels[i] == 0:
                assert energy == 0.0
            else:
                assert energy > 0.0

    def test_every_word_class_pair_present(self, emo_ds):
        pairs = {(int(emo_ds.labels[i]), emo_ds.meta[i]["word"]) for i in range(len(emo_ds.labels))}
        assert len(pairs) == 5 * 10

    def test_determinism(self, emo_spec, emo_ds):
        again = generate_emotion_dataset(emo_spec)
        assert np.array_equal(again.clips, emo_ds.clips)

    def test_neutral_class_designated(self, emo_ds):
        assert emo_ds.class_names[0] == "neutral"
        assert emo_ds.neutral_class == 0


class TestSpecValidation:
    def test_unknown_task(self):
        with pytest.raises(DatasetError):
            SyntheticDatasetSpec(task="music")

    def test_single_class(self):
        with pytest.raises(DatasetError):
            SyntheticDatasetSpec(task="keyword", num_classes=1)

    def test_emotion_needs_three_classes(self):
        with pytest.raises(DatasetError):
            SyntheticDatasetSpec(task="emotion", num_classes=2, clips_per_class=100)


class TestMaterialization:
    def test_round_trip(self, tmp_path):
        spec = SyntheticDatasetSpec(task="keyword", num_classes=2, clips_per_class=5, seed=3)
        ds = generate_keyword_dataset(spec)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.train_idx, ds.train_idx)
        assert np.array_equal(back.test_idx, ds.test_idx)
        assert back.spec == spec
        assert np.max(np.abs(back.clips - ds.clips)) <= 1.0 / 32767

    def test_split_indices_persisted(self, tmp_path):
        spec = SyntheticDatasetSpec(task="keyword", num_classes=2, clips_per_class=5, seed=3)
        ds = generate_keyword_dataset(spec)
        save_dataset(ds, tmp_path / "d")
        first = load_dataset(tmp_path / "d")
        second = load_dataset(tmp_path / "d")
        assert np.array_equal(first.test_idx, second.test_idx)

    def test_split_rows_read_alone_equal_the_full_load(self, tmp_path):
        spec = SyntheticDatasetSpec(task="keyword", num_classes=2, clips_per_class=5, seed=3)
        save_dataset(generate_keyword_dataset(spec), tmp_path / "d")
        full = load_dataset(tmp_path / "d")
        head = read_manifest(tmp_path / "d")
        assert head.clips is None and np.array_equal(head.test_idx, full.test_idx)
        rows = head.test_idx[::-1]
        clips = read_clips(tmp_path / "d", head.spec, rows)
        assert clips.dtype == np.float32 and full.clips.dtype == np.float32
        assert np.array_equal(clips, full.clips[rows])
