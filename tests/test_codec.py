import hashlib
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from latentexplain import autodiff as ad
from latentexplain.audio import AudioClip, LengthError, NonFiniteError, reconstruction_snr
from latentexplain.autodiff import DimensionError, _conv_t
from latentexplain.checkpoint import (
    Checkpoint,
    CheckpointError,
    params_sha256,
    read_checkpoint,
    write_checkpoint,
)
from latentexplain.classifier import ClassifierConfig, train_classifier
from latentexplain import codec as codec_module
from latentexplain.attribution import ENCODE_ROWS
from latentexplain.codec import (
    SPLIT_ROWS,
    CodecConfig,
    CodecTrainConfig,
    EncoderWorkspace,
    LatentGrid,
    _step_grads,
    decode,
    encode,
    encode_batch,
    encoder_forward,
    encoder_input_length,
    encoder_vjp,
    init_codec_params,
    run_pass,
    train_autoencoder,
    workspace_cells,
)
from conftest import finishes
from tape_reference import (decode_tensor, encode_tensor, one_thread_encode_batch, pad_for_encode,
                            tape)


@pytest.fixture(scope="module")
def cfg():
    return CodecConfig()


@pytest.fixture(scope="module")
def params(cfg):
    return init_codec_params(cfg, seed=0)


def tone(n, freq=440.0, sr=16000, amp=0.5):
    return AudioClip(amp * np.sin(2 * np.pi * freq * np.arange(n) / sr), sr)


class TestShapes:
    def test_frame_shape_law(self, cfg, params):
        z = encode(tone(4096), params, cfg)
        assert z.frames == 4096 // cfg.stride_product == 64
        assert z.channels == 32

    def test_shape_law_across_lengths(self, cfg, params):
        for n in (64, 100, 4096, 16384, 10000):
            z = encode(tone(n), params, cfg)
            assert z.frames == n // cfg.stride_product

    def test_too_short_clip(self, cfg, params):
        with pytest.raises(LengthError):
            encode(tone(10), params, cfg)

    def test_decode_length(self, cfg, params):
        z = encode(tone(16384), params, cfg)
        out = decode(z, params, cfg)
        assert len(out) == 16384

    def test_roundtrip_length_rounds_to_stride_multiple(self, cfg, params):
        z = encode(tone(10000), params, cfg)
        out = decode(z, params, cfg)
        assert len(out) == (10000 // 64) * 64

    def test_decode_channel_mismatch(self, cfg, params):
        with pytest.raises(DimensionError):
            decode(LatentGrid(np.zeros((4, 16), dtype=np.float32)), params, cfg)


class TestDeterminismAndZeroCases:
    def test_encode_deterministic(self, cfg, params):
        a = encode(tone(4096), params, cfg)
        b = encode(tone(4096), params, cfg)
        assert np.array_equal(a.values, b.values)

    def test_zero_params_zero_latent(self, cfg):
        zero = {k: np.zeros_like(v) for k, v in init_codec_params(cfg, 0).items()}
        z = encode(tone(4096), zero, cfg)
        assert np.all(z.values == 0)

    def test_zero_latent_zero_params_decodes_silence(self, cfg):
        zero = {k: np.zeros_like(v) for k, v in init_codec_params(cfg, 0).items()}
        out = decode(LatentGrid(np.zeros((16, 32), dtype=np.float32)), zero, cfg)
        assert np.all(out.samples == 0)

    def test_decoded_samples_in_range(self, cfg, params):
        rng = np.random.default_rng(0)
        z = LatentGrid(rng.standard_normal((32, 32)).astype(np.float32) * 5)
        out = decode(z, params, cfg)
        assert np.all(out.samples >= -1.0) and np.all(out.samples <= 1.0)


class TestEncoderMatchesTape:
    """The numpy inference encoder and its input VJP against the autodiff tape."""

    @pytest.mark.parametrize("task", ["kw", "emo"])
    def test_forward_on_cached_codecs(self, task, request, codec_config):
        data = request.getfixturevalue(f"{task}_data")
        codec = request.getfixturevalue(f"codec_{task}")
        clips = data.clips[data.test_idx[: ENCODE_ROWS + 4]]  # a full encoder pass and a part
        got = encode_batch(clips, codec.params, codec_config)
        x = ad.Tensor(pad_for_encode(clips, codec_config)[:, None, :])
        ref = encode_tensor(x, tape(codec.params), codec_config).data.transpose(0, 2, 1)
        assert got.dtype == np.float32 and got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-5

    @pytest.mark.parametrize("extra", [0, 3])
    @pytest.mark.parametrize("k,s", [(8, 4), (3, 2), (4, 2), (5, 2), (3, 4)])
    def test_vjp_in_float64(self, k, s, extra):
        """K not a multiple of S and K < S zero-pad the kernel taps; extra samples get no gradient."""
        cfg = CodecConfig(channels=(3, 4, 5), kernel_sizes=(k, k, k), strides=(s, s, s),
                          latent_channels=5)
        rng = np.random.default_rng(10 * k + s)
        params = {n: v.astype(np.float64) for n, v in init_codec_params(cfg, k + s).items()}
        for n in params:
            if n.endswith("_b"):
                params[n] = 0.3 * rng.standard_normal(params[n].shape)
        x = rng.uniform(-1, 1, (2, cfg.required_input_length(3) + extra))
        ws = EncoderWorkspace(params, cfg, np.float64, len(x), x.shape[1])
        z, acts = encoder_forward(x, cfg, ws)
        g = rng.standard_normal(z.shape)
        xt = ad.Tensor(x[:, None, :], requires_grad=True)
        zt = encode_tensor(xt, tape(params), cfg)
        ad.tsum(ad.mul(zt, ad.Tensor(g.transpose(0, 2, 1)))).backward()
        assert z.dtype == np.float64 and z.shape == (2, 3, 5)
        assert np.max(np.abs(z - zt.data.transpose(0, 2, 1))) <= 1e-12
        g0 = encoder_vjp(acts, g, cfg, ws)
        assert g0.dtype == np.float64 and g0.shape == ws.out[0].shape
        gx = _conv_t(g0, ws.taps[0], s, x.shape[1])[:, :, 0]
        assert gx.shape == x.shape
        assert np.max(np.abs(gx - xt.grad[:, 0, :])) <= 1e-12 * np.max(np.abs(xt.grad))


# (kernel sizes, strides) of three layers: the (K, S) cases of TestEncoderMatchesTape, with
# K < S and K not a multiple of S, and one codec whose layers differ
LAYERS = [((k,) * 3, (s,) * 3) for k, s in [(8, 4), (3, 2), (4, 2), (5, 2), (3, 4)]]
LAYERS.append(((5, 3, 8), (2, 4, 3)))


def small_float64_codec(ks, ss):
    """A 3-layer codec with the given kernel sizes and strides and nonzero biases, in float64."""
    cfg = CodecConfig(channels=(3, 4, 5), kernel_sizes=ks, strides=ss, latent_channels=5)
    rng = np.random.default_rng(sum(ks) + 10 * sum(ss))
    params = {n: v.astype(np.float64) for n, v in init_codec_params(cfg, ks[0] + ss[0]).items()}
    for n in params:
        if n.endswith("_b"):
            params[n] = 0.3 * rng.standard_normal(params[n].shape)
    return cfg, params, rng


def assert_grads_match(grads, pt, names, rel=1e-10):
    assert sorted(grads) == sorted(names)
    for n in names:
        ref = pt[n].grad
        assert grads[n].shape == ref.shape and grads[n].dtype == ref.dtype, n
        assert np.max(np.abs(grads[n] - ref)) <= rel * np.max(np.abs(ref)), n


class TestTrainingMatchesTape:
    """The numpy training step and ``decode`` against the codec on the autodiff tape."""

    @pytest.mark.parametrize("extra", [0, 3])
    @pytest.mark.parametrize("ks,ss", LAYERS)
    def test_encoder_weight_grads_in_float64(self, ks, ss, extra):
        cfg, params, rng = small_float64_codec(ks, ss)
        x = rng.uniform(-1, 1, (2, cfg.required_input_length(3) + extra))
        ws = EncoderWorkspace(params, cfg, np.float64, len(x), x.shape[1])
        z, acts = encoder_forward(x, cfg, ws)
        g = rng.standard_normal(z.shape)
        g0 = encoder_vjp(acts, g, cfg, ws).copy()
        grads = {}
        assert encoder_vjp(acts, g, cfg, ws, grads).tobytes() == g0.tobytes()
        xt = ad.Tensor(x[:, None, :], requires_grad=True)
        pt = tape(params, requires_grad=True)
        zt = encode_tensor(xt, pt, cfg)
        ad.tsum(ad.mul(zt, ad.Tensor(g.transpose(0, 2, 1)))).backward()
        assert_grads_match(grads, pt, [n for n in params if n.startswith("enc")])
        gx = _conv_t(g0, ws.taps[0], ss[0], x.shape[1])[:, :, 0]
        assert np.max(np.abs(gx - xt.grad[:, 0, :])) <= 1e-12 * np.max(np.abs(xt.grad))

    @pytest.mark.parametrize("ks,ss", LAYERS)
    def test_step_grads_in_float64(self, ks, ss):
        """MSE, tanh, decoder and encoder backward: every parameter's gradient."""
        cfg, params, rng = small_float64_codec(ks, ss)
        x = rng.uniform(-1, 1, (3, cfg.required_input_length(4)))
        loss, grads = _step_grads(x, params, cfg)
        pt = tape(params, requires_grad=True)
        xt = ad.Tensor(x[:, None, :])
        diff = ad.add(decode_tensor(encode_tensor(xt, pt, cfg), pt, cfg), ad.scale(xt, -1.0))
        ref = ad.tmean(ad.mul(diff, diff))
        ref.backward()
        assert abs(loss - float(ref.data)) <= 1e-12 * float(ref.data)
        assert_grads_match(grads, pt, list(params))

    @pytest.mark.parametrize("task", ["kw", "emo"])
    def test_decode_on_cached_codecs(self, task, request, codec_config):
        data = request.getfixturevalue(f"{task}_data")
        codec = request.getfixturevalue(f"codec_{task}")
        z = encode_batch(data.clips[data.test_idx[:4]], codec.params, codec_config)
        for zi in z:
            got = decode(LatentGrid(zi), codec.params, codec_config).samples
            ref = decode_tensor(ad.Tensor(zi.T[None]), tape(codec.params), codec_config).data
            assert got.dtype == np.float32 and len(got) == 16384
            assert np.max(np.abs(got - ref[0, 0, : len(got)])) <= 1e-5


KERNELS = ("_taps", "_conv", "_conv_t", "_kernel_grad")


class TestOneConv:
    """The codec and the tape's conv nodes run one kernel pair; the tape reference runs none of it."""

    def test_codec_runs_the_autodiff_kernels(self):
        from latentexplain import codec

        for name in KERNELS:
            assert getattr(codec, name) is getattr(ad, name), name

    def test_reference_runs_without_the_kernels(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a conv kernel ran")

        for name in KERNELS + ("_fit", "_blocks"):
            monkeypatch.setattr(ad, name, refuse)
        with pytest.raises(AssertionError, match="a conv kernel ran"):
            ad.conv1d(ad.Tensor(np.zeros((1, 1, 8))), ad.Tensor(np.zeros((1, 1, 2))), 2)
        cfg, params, rng = small_float64_codec((5, 3, 8), (2, 4, 3))
        pt = tape(params, requires_grad=True)
        xt = ad.Tensor(rng.uniform(-1, 1, (2, 1, cfg.required_input_length(3))),
                       requires_grad=True)
        y = decode_tensor(encode_tensor(xt, pt, cfg), pt, cfg)
        ad.tsum(ad.mul(y, y)).backward()
        assert np.all(np.isfinite(xt.grad))
        assert all(pt[n].grad is not None for n in params)


def tape_raises(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the autodiff tape was used")

    for op in ("conv1d", "conv1d_transpose", "matmul", "softmax_cross_entropy"):
        monkeypatch.setattr(ad, op, refuse)
    monkeypatch.setattr(ad.Tensor, "backward", refuse)


class TestTrainingOffTheTape:
    """Training and decoding call no tape op."""

    def test_train_autoencoder_and_decode(self, monkeypatch):
        tape_raises(monkeypatch)
        cfg = CodecConfig(channels=(4, 6), kernel_sizes=(8, 8), strides=(4, 4), latent_channels=6)
        clips = np.tile(tone(1024).samples, (5, 1))
        ckpt = train_autoencoder(clips, cfg, CodecTrainConfig(epochs=2, batch_size=2), seed=0)
        z = encode(tone(1024), ckpt.params, cfg)
        assert len(decode(z, ckpt.params, cfg)) == 1024

    @pytest.mark.parametrize("pooling,anchored", [("mean", False), ("mean-max", False),
                                                  ("mean", True), ("mean-max", True)])
    def test_train_classifier(self, monkeypatch, pooling, anchored):
        tape_raises(monkeypatch)
        lat = np.random.default_rng(0).standard_normal((12, 8, 6)).astype(np.float32)
        cfg = ClassifierConfig(num_classes=3, latent_channels=6, hidden=8, epochs=2,
                               batch_size=5, pooling=pooling, anchor_class=0 if anchored else None)
        ckpt = train_classifier(lat, np.arange(12) % 3, cfg, seed=0,
                                substitution_base=np.zeros((8, 6), np.float32))
        assert np.isfinite(ckpt.metadata["final_loss"])


def test_encode_batch_of_no_clips(cfg, params):
    assert encode_batch(np.zeros((0, 4096), np.float32), params, cfg).shape == (0, 64, 32)


def test_encode_batch_is_float32(cfg, params):
    """float64 waveforms encode as their float32 cast does, to float32 latents."""
    x = np.random.default_rng(1).uniform(-0.5, 0.5, (ENCODE_ROWS + 2, 4096))
    got = encode_batch(x, params, cfg)
    assert got.dtype == np.float32
    assert got.tobytes() == encode_batch(x.astype(np.float32), params, cfg).tobytes()


@pytest.mark.parametrize("rows", [0, 1, ENCODE_ROWS, 13])
def test_encode_batch_equals_encode_per_clip(kw_data, codec_kw, codec_config, rows):
    """Passes share one workspace: no pass may overwrite the latents of an earlier one."""
    clips = kw_data.clips[kw_data.test_idx[:rows]]
    got = encode_batch(clips, codec_kw.params, codec_config)
    assert got.shape == (rows, 256, codec_config.latent_channels) and got.dtype == np.float32
    for z, clip in zip(got, clips):
        want = encode(AudioClip(clip, codec_config.sample_rate), codec_kw.params, codec_config)
        assert z.tobytes() == want.values.tobytes()


def test_encode_batch_peak_memory(cfg, params):
    """An encode of ENCODE_ROWS clips runs passes of SPLIT_ROWS rows as two halves, each on a
    workspace of its own: together they hold, for SPLIT_ROWS rows, each layer's output and one
    buffer of each other kind (scratch, block gradient, tap product) sized for the largest
    layer, and the pass's rows fitted to the encoder's input length. Besides that only the
    latents; no padded copy of the whole input. 128 KiB covers the taps and their
    temporaries."""
    n = cfg.required_input_length(256)
    io = (SPLIT_ROWS * n + ENCODE_ROWS * 256 * cfg.latent_channels) * 4
    outs = largest = 0
    cin = 1
    for c, k, s in zip(cfg.channels, cfg.kernel_sizes, cfg.strides):
        n, taps = (n - k) // s + 1, -(-k // s)
        outs += SPLIT_ROWS * n * c * 4
        largest = max(largest, SPLIT_ROWS * max(n * c, (n + taps - 1) * s * cin) * 4)
        cin = c
    x = np.random.default_rng(0).uniform(-0.5, 0.5, (ENCODE_ROWS, 16384)).astype(np.float32)
    tracemalloc.start()
    try:
        encode_batch(x, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < outs + 3 * largest + io + 2**17


def test_train_autoencoder_pads_no_copy_of_its_training_set():
    """Each step fits its own minibatch to the encoder's input length (1,108 samples for these
    1,024-sample clips), so the peak stays under half the training set's bytes: a padded copy
    of the set alone would be 1.08 times them."""
    cfg = CodecConfig(channels=(4, 4, 4), kernel_sizes=(8, 8, 8), strides=(4, 4, 4),
                      latent_channels=4)
    clips = np.random.default_rng(0).uniform(-0.5, 0.5, (256, 1024)).astype(np.float32)
    assert cfg.required_input_length(1024 // cfg.stride_product) == 1108
    tracemalloc.start()
    try:
        train_autoencoder(clips, cfg, CodecTrainConfig(batch_size=4, epochs=1), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < clips.nbytes // 2


class TestEncodeBatchOnTwoThreads:
    """A pass of at least SPLIT_ROWS rows runs as two halves, on the caller and on the helper
    thread; every latent keeps the bytes of the one-thread encoder."""

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 5, 8, 9, 21])
    @pytest.mark.parametrize("task", ["kw", "emo"])
    def test_matches_one_thread_oracle(self, task, rows, request, codec_config):
        data = request.getfixturevalue(f"{task}_data")
        codec = request.getfixturevalue(f"codec_{task}").params
        clips = data.clips[data.test_idx[:rows]]
        got = encode_batch(clips, codec, codec_config)
        assert got.tobytes() == one_thread_encode_batch(clips, codec, codec_config).tobytes()

    def test_four_threads_at_once_match_serial_calls(self, cfg, params):
        """Callers that find the helper busy run both halves themselves."""
        rng = np.random.default_rng(4)
        xs = [rng.uniform(-0.5, 0.5, (rows, 4096)).astype(np.float32)
              for rows in (SPLIT_ROWS, 5, 9, 13) * 3]
        serial = [encode_batch(x, params, cfg) for x in xs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = [f.result(timeout=120)
                            for f in [pool.submit(encode_batch, x, params, cfg) for x in xs]]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert a.tobytes() == b.tobytes()

    def test_busy_helper_leaves_both_halves_to_the_caller(self, cfg, params, busy_helper):
        x = np.random.default_rng(5).uniform(-0.5, 0.5, (9, 4096)).astype(np.float32)
        got = finishes(lambda: encode_batch(x, params, cfg))
        assert got.tobytes() == one_thread_encode_batch(x, params, cfg).tobytes()

    def test_halves_and_an_error_in_one(self):
        def rows(lo, hi, ws):
            return lo, hi, ws

        assert run_pass(rows, 0, 3, ["a", "b"]) == ((0, 3, "a"),)
        assert run_pass(rows, 2, 7, ["a", "b"]) == ((2, 5, "a"), (5, 7, "b"))

        def fails_on_the_helper(lo, hi, ws):
            if ws == "b":
                raise LengthError(f"rows {lo}-{hi}")
            return lo

        with pytest.raises(LengthError, match="rows 2-4"):
            run_pass(fails_on_the_helper, 0, 4, ["a", "b"])
        assert run_pass(rows, 0, 4, ["a", "b"]) == ((0, 2, "a"), (2, 4, "b"))

    @staticmethod
    def run_python(code: str, timeout: float = 60) -> None:
        src = str(Path(codec_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=timeout,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_helper_does_not_keep_the_process_alive(self):
        self.run_python(
            "import threading\n"
            "import numpy as np\n"
            "from latentexplain import codec as c\n"
            "cfg = c.CodecConfig()\n"
            "c.encode_batch(np.zeros((4, 4096), np.float32), c.init_codec_params(cfg, 0), cfg)\n"
            "assert any(t.name.startswith('encoder-half') and t.is_alive()\n"
            "           for t in threading.enumerate())\n", timeout=30)

    def test_forked_child_splits_its_passes(self):
        """A child forked after a split pass has no helper thread; its own split passes
        start one and keep their bytes. The parent waits for the one child with a timeout."""
        self.run_python(
            "import os, signal, threading, time\n"
            "import numpy as np\n"
            "from latentexplain import codec as c\n"
            "cfg = c.CodecConfig()\n"
            "params = c.init_codec_params(cfg, 0)\n"
            "x = np.random.default_rng(0).uniform(-0.5, 0.5, (9, 4096)).astype(np.float32)\n"
            "want = c.encode_batch(x, params, cfg).tobytes()\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    ok = False\n"
            "    try:\n"
            "        ok = c.encode_batch(x, params, cfg).tobytes() == want and any(\n"
            "            t.name.startswith('encoder-half') for t in threading.enumerate())\n"
            "    finally:\n"
            "        os._exit(0 if ok else 1)\n"
            "deadline = time.monotonic() + 30\n"
            "while not (done := os.waitpid(pid, os.WNOHANG))[0]:\n"
            "    if time.monotonic() > deadline:\n"
            "        os.kill(pid, signal.SIGKILL)\n"
            "        os.waitpid(pid, 0)\n"
            "        raise SystemExit('the forked child hung')\n"
            "    time.sleep(0.05)\n"
            "assert os.waitstatus_to_exitcode(done[1]) == 0, done\n")


@pytest.mark.parametrize("rows,n", [(1, 500), (3, 1234), (8, 4116)])
def test_workspace_cells_count_the_workspace_buffers(rows, n):
    """``workspace_cells``, the CLI's encoder budget, counts every cell an ``EncoderWorkspace``
    allocates; a kernel of 4 over stride 3 has two taps."""
    cfg = CodecConfig(channels=(4, 6, 8), kernel_sizes=(8, 6, 4), strides=(4, 2, 3),
                      latent_channels=8)
    ws = EncoderWorkspace(init_codec_params(cfg, 0), cfg, np.float32, rows, n)
    owners = {id(a if a.base is None else a.base): (a if a.base is None else a.base).size
              for a in ws.out + ws.scratch + ws.gb + ws.gprod}
    assert sum(owners.values()) == workspace_cells(cfg, rows, n)


class TestNonFiniteSamples:
    """NaN or infinite samples are rejected where they enter, before any conv work."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_encode_batch_rejects_one_bad_sample(self, cfg, params, bad):
        x = np.tile(tone(4096).samples, (3, 1))
        x[1, 100] = bad
        with pytest.raises(NonFiniteError, match="1 non-finite samples"):
            encode_batch(x, params, cfg)

    def test_encode_rejects_nan(self, cfg, params):
        clip = tone(4096)
        clip.samples[7] = np.nan
        with pytest.raises(NonFiniteError):
            encode(clip, params, cfg)

    def test_finite_input_builds_no_mask(self, cfg):
        """A mask of the 1 MB input alone would be 256 KiB."""
        x = np.random.default_rng(0).uniform(-0.5, 0.5, (64, 4096)).astype(np.float32)
        tracemalloc.start()
        try:
            assert encoder_input_length(x, cfg) == cfg.required_input_length(4096 // cfg.stride_product)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**14

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_input_whose_sum_overflows_passes(self, cfg, dtype):
        x = np.full((2, 1024), np.finfo(dtype).max / 2, dtype=dtype)
        assert encoder_input_length(x, cfg) == cfg.required_input_length(1024 // cfg.stride_product)
        x[1, 3] = -np.inf
        with pytest.raises(NonFiniteError, match="1 non-finite samples of 2048"):
            encoder_input_length(x, cfg)


class TestConfigValidation:
    def test_latent_channel_mismatch(self):
        with pytest.raises(ValueError):
            CodecConfig(channels=(8, 16), kernel_sizes=(8, 8), strides=(4, 4), latent_channels=32)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            CodecConfig(channels=(8, 16), kernel_sizes=(8,), strides=(4, 4), latent_channels=16)

    def test_dict_round_trip(self):
        cfg = CodecConfig()
        assert CodecConfig.from_dict(cfg.to_dict()) == cfg


class TestTraining:
    def test_loss_decreases_and_deterministic(self):
        rng = np.random.default_rng(0)
        t = np.arange(1024) / 16000.0
        clips = np.stack(
            [0.5 * np.sin(2 * np.pi * rng.uniform(200, 800) * t) for _ in range(8)]
        ).astype(np.float32)
        cfg = CodecConfig(channels=(8, 8), kernel_sizes=(8, 8), strides=(4, 4), latent_channels=8)
        tc = CodecTrainConfig(epochs=4, batch_size=4)
        a = train_autoencoder(clips, cfg, tc, seed=1)
        b = train_autoencoder(clips, cfg, tc, seed=1)
        assert a.metadata["final_loss"] < a.metadata["initial_loss"]
        assert params_sha256(a.params) == params_sha256(b.params)

    def test_epoch_losses_in_metadata(self):
        clips = np.tile(tone(1024).samples, (6, 1))
        cfg = CodecConfig(channels=(4, 6), kernel_sizes=(8, 8), strides=(4, 4), latent_channels=6)
        tc = CodecTrainConfig(epochs=3, batch_size=4)
        a = train_autoencoder(clips, cfg, tc, seed=2).metadata
        assert a == train_autoencoder(clips, cfg, tc, seed=2).metadata
        assert len(a["epoch_losses"]) == 3
        assert a["epoch_losses"][0] == a["initial_loss"]
        assert a["epoch_losses"][-1] == a["final_loss"]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_autoencoder(np.zeros((0, 1024), dtype=np.float32), CodecConfig())


class TestTrainedCodec:
    def test_held_out_snr(self, kw_data, codec_kw, codec_config):
        snrs = []
        for i in kw_data.test_idx[:40]:
            clip = AudioClip(kw_data.clips[i], 16000)
            z = encode(clip, codec_kw.params, codec_config)
            snrs.append(reconstruction_snr(clip, decode(z, codec_kw.params, codec_config)))
        assert float(np.mean(snrs)) >= 10.0


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ck = Checkpoint(
            kind="codec",
            config=CodecConfig().to_dict(),
            params={"a": rng.standard_normal((3, 4)).astype(np.float32),
                    "b": rng.standard_normal(7).astype(np.float32)},
            metadata={"seed": 1},
        )
        path = tmp_path / "x.ckpt"
        write_checkpoint(ck, path)
        back = read_checkpoint(path)
        assert back.kind == "codec"
        assert back.config == ck.config
        for k in ck.params:
            assert np.array_equal(back.params[k], ck.params[k])

    def test_read_records_the_file_hash(self, tmp_path):
        path = self._written(tmp_path)
        assert read_checkpoint(path).sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_version_enforced(self, tmp_path):
        import json
        import struct

        header = json.dumps({"version": 99, "kind": "codec", "config": {}, "tensors": [],
                             "metadata": {}}).encode()
        path = tmp_path / "v99.ckpt"
        path.write_bytes(b"AXG1" + struct.pack("<I", len(header)) + header)
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def _written(self, tmp_path):
        ck = Checkpoint(kind="codec", config={}, metadata={},
                        params={"a": np.ones((3, 4), np.float32), "b": np.zeros(7, np.float32)})
        path = tmp_path / "ok.ckpt"
        write_checkpoint(ck, path)
        return path

    def test_header_length_missing(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"AXG1\0\0")
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, value):
        ck = Checkpoint(kind="codec", config={}, metadata={},
                        params={"a": np.ones((3, 4), np.float32), "b": np.zeros(7, np.float32)})
        ck.params["b"][2] = value
        path = tmp_path / "bad.ckpt"
        write_checkpoint(ck, path)
        with pytest.raises(CheckpointError, match="tensor 'b' has 1 non-finite values of 7"):
            read_checkpoint(path)

    def test_cut_short(self, tmp_path):
        path = self._written(tmp_path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = self._written(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0" * 4)
        with pytest.raises(CheckpointError, match="after its last tensor"):
            read_checkpoint(path)
