"""The codec on the autodiff tape: the reference for the numpy encoder, decoder and training."""

from latentexplain import autodiff as ad
from latentexplain.codec import CodecConfig


def tape(params: dict, requires_grad: bool = False) -> dict:
    return {k: ad.Tensor(v, requires_grad=requires_grad) for k, v in params.items()}


def encode_tensor(x: ad.Tensor, pt: dict, config: CodecConfig) -> ad.Tensor:
    """Differentiable encoder on (B, 1, N_padded); returns (B, L, T)."""
    h = x
    n_layers = len(config.channels)
    for i in range(n_layers):
        h = ad.conv1d(h, pt[f"enc{i}_w"], config.strides[i])
        h = ad.add(h, ad.reshape(pt[f"enc{i}_b"], (1, -1, 1)))
        if i < n_layers - 1:
            h = ad.elu(h)
    return h


def decode_tensor(z: ad.Tensor, pt: dict, config: CodecConfig) -> ad.Tensor:
    """Differentiable decoder on (B, L, T); returns (B, 1, N_out) in [-1, 1]."""
    h = z
    n_layers = len(config.channels)
    for i in range(n_layers):
        h = ad.conv1d_transpose(h, pt[f"dec{i}_w"], tuple(reversed(config.strides))[i])
        h = ad.add(h, ad.reshape(pt[f"dec{i}_b"], (1, -1, 1)))
        if i < n_layers - 1:
            h = ad.elu(h)
    return ad.tanh(h)
