import numpy as np
import pytest

from latentexplain import data
from latentexplain.data import (
    DatasetError,
    LabeledAudioDataset,
    SyntheticDatasetSpec,
    emotion_carrier,
    generate_dataset,
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
    return generate_dataset(kw_spec)


@pytest.fixture(scope="module")
def emo_spec():
    return SyntheticDatasetSpec(
        task="emotion", num_classes=5, clips_per_class=100, words=10, renditions=10, seed=0
    )


@pytest.fixture(scope="module")
def emo_ds(emo_spec):
    return generate_dataset(emo_spec)


# The two per-task generators the corpus was built by before ``generate_dataset`` ran one
# loop over the task table, kept as the oracle it must reproduce field for field.

def oracle_generate_keyword_dataset(spec):
    names = [data.KEYWORD_NAMES[c] if c < len(data.KEYWORD_NAMES) else f"kw{c}"
             for c in range(spec.num_classes)]
    clips, labels = [], []
    for c in range(spec.num_classes):
        for i in range(spec.clips_per_class):
            clips.append(data._keyword_clip(spec, c, i)[0])
            labels.append(c)
    clips = np.stack(clips)
    labels = np.asarray(labels, dtype=np.int64)
    train_idx, test_idx = data._split(len(labels), spec.seed)
    return LabeledAudioDataset(clips, labels, names, train_idx, test_idx, spec,
                               meta=[{} for _ in range(len(labels))])


def oracle_generate_emotion_dataset(spec):
    names = [data.EMOTION_NAMES[c] if c < len(data.EMOTION_NAMES) else f"emo{c}"
             for c in range(spec.num_classes)]
    clips, labels, meta = [], [], []
    for c in range(spec.num_classes):
        for word in range(spec.words):
            for r in range(spec.renditions):
                carrier = emotion_carrier(spec, word, r)
                if c == 0:
                    clip = carrier
                else:
                    clip = carrier + data._prosody_component(spec, c, word, r)
                clips.append(clip)
                labels.append(c)
                meta.append({"word": word, "rendition": r})
    clips = np.stack(clips)
    labels = np.asarray(labels, dtype=np.int64)
    train_idx, test_idx = data._split(len(labels), spec.seed)
    return LabeledAudioDataset(clips, labels, names, train_idx, test_idx, spec, meta)


ORACLE_SPECS = {
    "keyword-default": (oracle_generate_keyword_dataset,
                        dict(task="keyword", num_classes=8, clips_per_class=100)),
    "emotion-default": (oracle_generate_emotion_dataset,
                        dict(task="emotion", num_classes=5, clips_per_class=100, words=10,
                             renditions=10)),
    # past the 8 keyword names: kw8, kw9
    "keyword-10-classes": (oracle_generate_keyword_dataset,
                           dict(task="keyword", num_classes=10, clips_per_class=6,
                                clip_length=2048, seed=3)),
    # past the 5 emotion names, wrapping the prosody table; words != renditions so that a
    # swapped divmod gives other meta and other clips
    "emotion-8-classes": (oracle_generate_emotion_dataset,
                          dict(task="emotion", num_classes=8, clips_per_class=12, words=3,
                               renditions=4, clip_length=4096, seed=5)),
}


@pytest.mark.parametrize("case", list(ORACLE_SPECS))
def test_generate_dataset_equals_the_per_task_generators(case):
    oracle, kwargs = ORACLE_SPECS[case]
    spec = SyntheticDatasetSpec(**kwargs)
    got, want = generate_dataset(spec), oracle(spec)
    assert got.clips.dtype == want.clips.dtype == np.float32
    assert got.clips.shape == want.clips.shape and np.array_equal(got.clips, want.clips)
    assert got.labels.dtype == want.labels.dtype and np.array_equal(got.labels, want.labels)
    assert got.class_names == want.class_names
    assert np.array_equal(got.train_idx, want.train_idx)
    assert np.array_equal(got.test_idx, want.test_idx)
    assert got.spec is spec and got.meta == want.meta


class TestKeywordDataset:
    def test_counts_and_split(self, kw_ds):
        assert kw_ds.clips.shape == (800, 16384)
        assert len(kw_ds.train_idx) == 640 and len(kw_ds.test_idx) == 160
        assert np.intersect1d(kw_ds.train_idx, kw_ds.test_idx).size == 0

    def test_balanced(self, kw_ds):
        counts = np.bincount(kw_ds.labels)
        assert np.all(counts == 100)

    def test_determinism(self, kw_spec, kw_ds):
        again = generate_dataset(kw_spec)
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
        again = generate_dataset(emo_spec)
        assert np.array_equal(again.clips, emo_ds.clips)

    def test_neutral_class_designated(self, emo_ds):
        assert emo_ds.class_names[0] == "neutral"


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
        ds = generate_dataset(spec)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.train_idx, ds.train_idx)
        assert np.array_equal(back.test_idx, ds.test_idx)
        assert back.spec == spec
        assert np.max(np.abs(back.clips - ds.clips)) <= 1.0 / 32767

    def test_split_indices_persisted(self, tmp_path):
        spec = SyntheticDatasetSpec(task="keyword", num_classes=2, clips_per_class=5, seed=3)
        ds = generate_dataset(spec)
        save_dataset(ds, tmp_path / "d")
        first = load_dataset(tmp_path / "d")
        second = load_dataset(tmp_path / "d")
        assert np.array_equal(first.test_idx, second.test_idx)

    def test_split_rows_read_alone_equal_the_full_load(self, tmp_path):
        spec = SyntheticDatasetSpec(task="keyword", num_classes=2, clips_per_class=5, seed=3)
        save_dataset(generate_dataset(spec), tmp_path / "d")
        full = load_dataset(tmp_path / "d")
        head = read_manifest(tmp_path / "d")
        assert head.clips is None and np.array_equal(head.test_idx, full.test_idx)
        rows = head.test_idx[::-1]
        clips = read_clips(tmp_path / "d", head.spec, rows)
        assert clips.dtype == np.float32 and full.clips.dtype == np.float32
        assert np.array_equal(clips, full.clips[rows])
