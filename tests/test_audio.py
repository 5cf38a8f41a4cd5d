import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentexplain.audio import (
    AudioClip,
    LengthError,
    WavFormatError,
    generate_noise_clip,
    reconstruction_snr,
    wav_read,
    wav_write,
)


class TestAudioClip:
    def test_clipping_on_construction(self):
        clip = AudioClip(np.array([2.0, -3.0, 0.5]), 16000)
        assert np.allclose(clip.samples, [1.0, -1.0, 0.5])

    def test_duration(self):
        assert AudioClip(np.zeros(16000), 16000).duration == 1.0


class TestNoise:
    def test_zero_amplitude_is_silence(self):
        clip = generate_noise_clip(100, 0.0, seed=1)
        assert np.all(clip.samples == 0)

    def test_seeded_determinism(self):
        a = generate_noise_clip(256, 0.1, seed=5)
        b = generate_noise_clip(256, 0.1, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_mean_within_standard_error(self):
        # uniform on [-a, a]: sd of the mean estimator is a/sqrt(3 n)
        n, a = 16384, 0.1
        clip = generate_noise_clip(n, a, seed=9)
        assert abs(clip.samples.mean()) < 3 * a / np.sqrt(3 * n)

    def test_positive_length_required(self):
        with pytest.raises(LengthError):
            generate_noise_clip(0, 0.1, seed=0)


class TestSnr:
    def test_exact_match_capped(self):
        x = AudioClip(np.random.default_rng(0).uniform(-0.5, 0.5, 100), 16000)
        assert reconstruction_snr(x, x) == 200.0

    def test_zero_reconstruction_is_zero_db(self):
        x = AudioClip(np.random.default_rng(0).uniform(-0.5, 0.5, 100), 16000)
        zero = AudioClip(np.zeros(100), 16000)
        assert abs(reconstruction_snr(x, zero)) < 1e-9

    def test_error_at_one_percent_power_is_20db(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.5, 0.5, 1000)
        e = rng.standard_normal(1000)
        e *= np.sqrt(np.sum(x**2) / 100.0 / np.sum(e**2))
        snr = reconstruction_snr(AudioClip(x, 16000), AudioClip(x + e, 16000))
        assert abs(snr - 20.0) < 0.2  # construction clipping perturbs slightly

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            reconstruction_snr(AudioClip(np.zeros(3), 16000), AudioClip(np.zeros(4), 16000))


class TestWavRoundTrip:
    @given(st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_error_bound(self, seed):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        clip = AudioClip(rng.uniform(-1, 1, 300), 16000)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "x.wav"
            wav_write(clip, path)
            back = wav_read(path)
        assert back.sample_rate == 16000
        assert np.max(np.abs(back.samples - clip.samples)) <= 1.0 / 32767

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        fmt = struct.pack("<HHIIHH", 1, 2, 16000, 64000, 4, 16)
        data = b"\x00" * 8
        with open(path, "wb") as f:
            f.write(b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE")
            f.write(b"fmt " + struct.pack("<I", 16) + fmt)
            f.write(b"data" + struct.pack("<I", len(data)) + data)
        with pytest.raises(WavFormatError, match="channels"):
            wav_read(path)

    def test_odd_length_data_chunk_rejected(self, tmp_path):
        path = tmp_path / "odd.wav"
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        data = b"\x00" * 7
        with open(path, "wb") as f:
            f.write(b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE")
            f.write(b"fmt " + struct.pack("<I", 16) + fmt)
            f.write(b"data" + struct.pack("<I", len(data)) + data)
        with pytest.raises(WavFormatError, match="'data' chunk"):
            wav_read(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.wav"
        path.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(WavFormatError):
            wav_read(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "float.wav"
        fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
        with open(path, "wb") as f:
            f.write(b"RIFF" + struct.pack("<I", 36) + b"WAVE")
            f.write(b"fmt " + struct.pack("<I", 16) + fmt)
            f.write(b"data" + struct.pack("<I", 0))
        with pytest.raises(WavFormatError, match="fmt"):
            wav_read(path)

    def test_missing_data_chunk(self, tmp_path):
        path = tmp_path / "nodata.wav"
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        with open(path, "wb") as f:
            f.write(b"RIFF" + struct.pack("<I", 28) + b"WAVE")
            f.write(b"fmt " + struct.pack("<I", 16) + fmt)
        with pytest.raises(WavFormatError, match="data"):
            wav_read(path)
