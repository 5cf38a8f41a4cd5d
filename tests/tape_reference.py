"""The codec on the autodiff tape: the reference for the numpy encoder, decoder and training.

Its conv nodes are a sliding-window ``einsum`` conv of their own, so the reference shares
no code with the ``autodiff`` conv kernels (``_conv``, ``_conv_t``, ``_kernel_grad``) that
the codec and the tape's ``conv1d``/``conv1d_transpose`` run.

The numpy references here are waveform IG with every encoder layer in the step loop
(``per_pass_input_ig``), as it ran before layer 0 was taken out of it; the head
forward, backward and latent IG over whole arrays (``whole_array_head_from_preact``,
``whole_array_head_vjp``, ``whole_array_latent_ig``), as they ran before the head
worked through its pre-activations in tiles; and ``encode_batch`` and waveform IG with
every pass whole on the calling thread (``one_thread_encode_batch``,
``one_thread_input_ig``), as they ran before a pass split into two halves on two threads.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from latentexplain import autodiff as ad
from latentexplain.autodiff import _conv, _conv_t
from latentexplain.classifier import (_head_from_preact, _head_vjp, _onehot, _pool_gate,
                                      _preact_grad)
from latentexplain.attribution import ENCODE_ROWS
from latentexplain.codec import (CodecConfig, EncoderWorkspace, encoder_forward,
                                 encoder_input_length, encoder_vjp)


def pad_for_encode(samples: np.ndarray, config: CodecConfig) -> np.ndarray:
    """Waveforms cut or zero-padded along their last axis to the encoder's input length, as
    ``encode_batch`` and waveform IG padded a copy of their whole input before each pass
    fitted its own rows."""
    need = encoder_input_length(samples, config)
    pad = [(0, 0)] * (samples.ndim - 1) + [(0, max(need - samples.shape[-1], 0))]
    return np.pad(samples[..., :need], pad)


def tape(params: dict, requires_grad: bool = False) -> dict:
    return {k: ad.Tensor(v, requires_grad=requires_grad) for k, v in params.items()}


def conv1d(x: ad.Tensor, w: ad.Tensor, stride: int) -> ad.Tensor:
    """Valid strided cross-correlation; x: (B, C_in, N), w: (C_out, C_in, K)."""
    k = w.data.shape[2]
    nout = (x.data.shape[2] - k) // stride + 1
    win = sliding_window_view(x.data, k, axis=2)[:, :, ::stride, :][:, :, :nout, :]
    out_data = np.einsum("bcnk,ock->bon", win, w.data, optimize=True)

    def bwd(g):
        if w.requires_grad:
            w._accumulate(np.einsum("bcnk,bon->ock", win, g, optimize=True))
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for kk in range(k):
                gx[:, :, kk : kk + nout * stride : stride] += np.einsum(
                    "bon,oc->bcn", g, w.data[:, :, kk], optimize=True
                )
            x._accumulate(gx)

    return ad.Tensor(out_data, _parents=(x, w), _backward=bwd, _op="conv1d")


def conv1d_transpose(x: ad.Tensor, w: ad.Tensor, stride: int) -> ad.Tensor:
    """Scatter-add adjoint of ``conv1d``; x: (B, C_in, T), w: (C_in, C_out, K)."""
    b, _, t = x.data.shape
    cout, k = w.data.shape[1:]
    out_data = np.zeros((b, cout, (t - 1) * stride + k), dtype=x.data.dtype)
    for kk in range(k):
        out_data[:, :, kk : kk + t * stride : stride] += np.einsum(
            "bct,co->bot", x.data, w.data[:, :, kk], optimize=True
        )

    def bwd(g):
        # windows of the output gradient seen by each input frame
        win = sliding_window_view(g, k, axis=2)[:, :, ::stride, :][:, :, :t, :]
        if x.requires_grad:
            x._accumulate(np.einsum("botk,cok->bct", win, w.data, optimize=True))
        if w.requires_grad:
            w._accumulate(np.einsum("bct,botk->cok", x.data, win, optimize=True))

    return ad.Tensor(out_data, _parents=(x, w), _backward=bwd, _op="conv1d_transpose")


def encode_tensor(x: ad.Tensor, pt: dict, config: CodecConfig) -> ad.Tensor:
    """Differentiable encoder on (B, 1, N_padded); returns (B, L, T)."""
    h = x
    n_layers = len(config.channels)
    for i in range(n_layers):
        h = conv1d(h, pt[f"enc{i}_w"], config.strides[i])
        h = ad.add(h, ad.reshape(pt[f"enc{i}_b"], (1, -1, 1)))
        if i < n_layers - 1:
            h = ad.elu(h)
    return h


def decode_tensor(z: ad.Tensor, pt: dict, config: CodecConfig) -> ad.Tensor:
    """Differentiable decoder on (B, L, T); returns (B, 1, N_out) in [-1, 1]."""
    h = z
    n_layers = len(config.channels)
    for i in range(n_layers):
        h = conv1d_transpose(h, pt[f"dec{i}_w"], tuple(reversed(config.strides))[i])
        h = ad.add(h, ad.reshape(pt[f"dec{i}_b"], (1, -1, 1)))
        if i < n_layers - 1:
            h = ad.elu(h)
    return ad.tanh(h)


def per_pass_input_ig(x, baseline, codec_params, codec_config, cls_params, target, steps):
    """Waveform IG scores: per chunk of ENCODE_ROWS path points, the whole encoder forward,
    the head's backward for the target logit, the encoder's VJP and layer 0's transposed conv,
    summed per row."""
    x = np.asarray(x, dtype=np.float32).reshape(-1)
    xp = pad_for_encode(x, codec_config)
    bp = pad_for_encode(np.asarray(baseline, dtype=np.float32).reshape(-1), codec_config)
    delta = xp - bp
    w0, b0 = cls_params["w0"], cls_params["b0"]
    grad_sum = np.zeros_like(xp)
    ws = EncoderWorkspace(codec_params, codec_config, np.float32, ENCODE_ROWS, len(xp))
    alphas = ((np.arange(steps, dtype=np.float64) + 0.5) / steps).astype(np.float32)
    for start in range(0, steps, ENCODE_ROWS):
        a = alphas[start : start + ENCODE_ROWS]
        z, acts = encoder_forward(bp[None, :] + a[:, None] * delta[None, :], codec_config, ws)
        fwd = _head_from_preact(z @ w0 + b0, cls_params)
        d_logits = _onehot(target, len(a), cls_params["w2"].shape[1])
        g_pre = _preact_grad(*_head_vjp(fwd, cls_params, d_logits), cls_params)
        g0 = encoder_vjp(acts, g_pre @ w0.T, codec_config, ws)  # layer 0's pre-activation
        grad_sum += ad._conv_t(g0, ws.taps[0], codec_config.strides[0], len(xp)).sum(axis=0)[:, 0]
    return (delta * (grad_sum / steps))[: len(x)]


def whole_array_head_from_preact(pre, params):
    """The head after its first affine layer over the whole (B, T, H) array at once: returns
    elu(pre) (over ``pre``), the first-argmax frames or None, pooled, hidden, act, logits."""
    emb = ad.elu_array(pre, out=pre)
    pooled = emb.mean(axis=1)
    gate = _pool_gate(params)
    arg = None
    if gate:
        arg = emb.argmax(axis=1)
        pooled = pooled + gate * np.take_along_axis(emb, arg[:, None, :], axis=1)[:, 0]
    hidden = pooled @ params["w1"] + params["b1"]
    act = ad.elu_array(hidden)
    return emb, arg, pooled, hidden, act, act @ params["w2"] + params["b2"]


def whole_array_head_vjp(fwd, params, d_logits, grads=None):
    """``_head_vjp`` on ``whole_array_head_from_preact``'s output, with elu'(pre)
    recomputed as min(elu(pre), 0) + 1 over a fresh array."""
    d_emb = np.minimum(fwd[0], 0.0)
    d_emb += 1.0
    return _head_vjp((d_emb, *fwd[1:]), params, d_logits, grads)


def whole_array_logits(latents, params):
    return whole_array_head_from_preact(latents @ params["w0"] + params["b0"], params)[-1]


def whole_array_latent_ig(z, base, params, target, steps):
    """Latent IG scores with every step's temporaries allocated afresh over whole arrays."""
    delta = z - base
    alphas = ((np.arange(steps, dtype=np.float64) + 0.5) / steps).astype(np.float32)
    w0t = params["w0"].T
    p0 = w0t @ base.T + params["b0"][:, None]
    dp = w0t @ delta.T
    h, t = p0.shape
    pre = (alphas[:, None, None] * dp + p0).transpose(0, 2, 1)
    d_pooled, d_emb, top = whole_array_head_vjp(
        whole_array_head_from_preact(pre, params), params,
        _onehot(target, steps, params["w2"].shape[1]))
    g_pre = np.einsum("sh,sth->th", d_pooled / np.float32(t * steps), d_emb)
    if top is not None:
        arg, at_max = top
        np.add.at(g_pre, (arg, np.arange(h)), (_pool_gate(params) / steps) * d_pooled * at_max)
    return (delta * (g_pre @ w0t)).astype(np.float32)


def one_thread_encode_batch(samples, params, config):
    """``encode_batch`` with ENCODE_ROWS waveforms per pass, every pass on one workspace."""
    x = pad_for_encode(samples, config)
    ws = EncoderWorkspace(params, config, np.float32, min(len(x), ENCODE_ROWS), x.shape[1])
    z = np.empty((len(x),) + ws.out[-1].shape[1:], dtype=np.float32)
    for i in range(0, len(x), ENCODE_ROWS):
        z[i : i + ENCODE_ROWS] = encoder_forward(x[i : i + ENCODE_ROWS], config, ws)[0]
    return z


def one_thread_input_ig(x, baseline, codec_params, codec_config, cls_params, target, steps):
    """Waveform IG scores with each chunk of ENCODE_ROWS path points one pass on one
    workspace, its rows summed by one ``sum(axis=0)``."""
    x = np.asarray(x, dtype=np.float32).reshape(-1)
    xp = pad_for_encode(x, codec_config)
    bp = pad_for_encode(np.asarray(baseline, dtype=np.float32).reshape(-1), codec_config)
    delta = xp - bp
    w0, b0 = cls_params["w0"], cls_params["b0"]
    ws = EncoderWorkspace(codec_params, codec_config, np.float32, min(steps, ENCODE_ROWS), len(xp))
    s0, t0 = codec_config.strides[0], ws.out[0].shape[1]
    p0, d0 = _conv(np.stack([bp, delta])[:, :, None], ws.taps[0], s0, t0)
    p0 += ws.bias[0]
    g0_sum = np.zeros_like(p0)
    alphas = ((np.arange(steps, dtype=np.float64) + 0.5) / steps).astype(np.float32)
    for start in range(0, steps, ENCODE_ROWS):
        a = alphas[start : start + ENCODE_ROWS]
        pre0 = np.multiply(a[:, None, None], d0, out=ws.out[0][: len(a)])
        pre0 += p0
        z, acts = encoder_forward(None, codec_config, ws, pre0)
        fwd = _head_from_preact(z @ w0 + b0, cls_params)
        d_logits = _onehot(target, len(a), cls_params["w2"].shape[1])
        g_pre = _preact_grad(*_head_vjp(fwd, cls_params, d_logits), cls_params)
        g0_sum += encoder_vjp(acts, g_pre @ w0.T, codec_config, ws).sum(axis=0)
    grad_sum = _conv_t(g0_sum[None], ws.taps[0], s0, len(xp))[0, :, 0]
    return ((delta * (grad_sum / steps))[: len(x)]).astype(np.float32)
