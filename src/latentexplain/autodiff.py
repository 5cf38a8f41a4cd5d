"""Minimal reverse-mode autodiff on numpy, and the array kernels the runtime calls directly.

The kernels are the channels-last conv pair ``_conv``/``_conv_t`` with ``_kernel_grad``,
ELU with its VJP, and softmax cross-entropy. The tape is define-by-run: every op builds
a fresh node; ``backward()`` on a scalar walks the graph in reverse topological order.
Its ``conv1d`` and ``conv1d_transpose`` nodes run the same conv kernels, so the gradcheck
covers the convs the runtime runs. float32 by default; float64 inputs are respected
(the gradcheck helper relies on this).
"""

from __future__ import annotations

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class Tensor:
    """A dense nd-array plus an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, _op=""):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward = _backward
        self._op = _op

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self):
        """Populate ``grad`` on every requires_grad leaf reachable from this scalar."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _backward=bwd, _op="add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _backward=bwd, _op="mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dims disagree: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return Tensor(out_data, _parents=(a, b), _backward=bwd, _op="matmul")


def reshape(x: Tensor, shape) -> Tensor:
    out_data = x.data.reshape(shape)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.data.shape))

    return Tensor(out_data, _parents=(x,), _backward=bwd, _op="reshape")


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out_data = np.transpose(x.data, axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        if x.requires_grad:
            x._accumulate(np.transpose(g, inv))

    return Tensor(out_data, _parents=(x,), _backward=bwd, _op="transpose")


def tsum(x: Tensor, axis=None) -> Tensor:
    out_data = x.data.sum(axis=axis)

    def bwd(g):
        if not x.requires_grad:
            return
        if axis is None:
            x._accumulate(np.broadcast_to(g, x.data.shape))
        else:
            x._accumulate(np.broadcast_to(np.expand_dims(g, axis), x.data.shape))

    return Tensor(out_data, _parents=(x,), _backward=bwd, _op="sum")


def tmean(x: Tensor, axis=None) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    return scale(tsum(x, axis=axis), 1.0 / n)


def tmax(x: Tensor, axis: int) -> Tensor:
    """Maximum along one axis; the gradient flows to the first-argmax entries."""
    out_data = x.data.max(axis=axis)
    arg = x.data.argmax(axis=axis)

    def bwd(g):
        if not x.requires_grad:
            return
        grad = np.zeros_like(x.data)
        np.put_along_axis(
            grad, np.expand_dims(arg, axis), np.expand_dims(g, axis), axis=axis
        )
        x._accumulate(grad)

    return Tensor(out_data, _parents=(x,), _backward=bwd, _op="max")


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * (1.0 - out_data * out_data))

    return Tensor(out_data, _parents=(x,), _backward=bwd, _op="tanh")


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * (x.data > 0))

    return Tensor(out_data, _parents=(x,), _backward=bwd, _op="relu")


def elu_array(x: np.ndarray, out: np.ndarray | None = None,
              neg: np.ndarray | None = None) -> np.ndarray:
    """ELU of a plain array, in the array's dtype; ``out=x`` computes it in place.

    expm1(min(x, 0)) + max(x, 0) equals np.where(x > 0, x, expm1(x)) bit for bit,
    except that -0.0 comes out as +0.0, and is several times faster: a where over a
    mask that is half true branches badly. ``neg``, if given, holds the negative part.
    """
    neg = np.minimum(x, 0.0, out=neg)
    np.expm1(neg, out=neg)
    out = np.maximum(x, 0.0, out=out)
    out += neg
    return out


def elu_vjp(out: np.ndarray, g: np.ndarray, d: np.ndarray | None = None) -> np.ndarray:
    """g * elu'(x), from the ELU's output: elu'(x) = min(elu(x), 0) + 1; into ``d`` if given."""
    d = np.minimum(out, 0.0, out=d)
    d += 1.0
    return np.multiply(d, g, out=d)


def elu(x: Tensor) -> Tensor:
    out_data = elu_array(x.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(elu_vjp(out_data, g))

    return Tensor(out_data, _parents=(x,), _backward=bwd, _op="elu")


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = x.data * np.asarray(c, dtype=x.data.dtype)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * np.asarray(c, dtype=x.data.dtype))

    return Tensor(out_data, _parents=(x,), _backward=bwd, _op="scale")


def _taps(w: np.ndarray, stride: int, dtype) -> np.ndarray:
    """A (C_out, C_in, K) kernel, zero-padded to m = ceil(K / S) taps of (S * C_in, C_out).

    Row j * C_in + c of tap a weighs channel c of sample a * S + j of a window,
    which is row j * C_in + c of the window's a-th block of S channels-last samples.
    """
    cout, cin, k = w.shape
    m = -(-k // stride)
    wp = np.pad(w.astype(dtype), ((0, 0), (0, 0), (0, m * stride - k)))
    return wp.reshape(cout, cin, m, stride).transpose(2, 3, 1, 0).reshape(m, stride * cin, cout)


def _fit(h: np.ndarray, n: int) -> np.ndarray:
    """(B, N', C) cut or zero-padded along time to N samples."""
    return h[:, :n] if h.shape[1] >= n else np.pad(h, ((0, 0), (0, n - h.shape[1]), (0, 0)))


def _blocks(h: np.ndarray, nb: int, s: int) -> np.ndarray:
    """(B, N, C) fitted to nb * S samples and viewed as (B, nb, S * C) blocks."""
    return _fit(h, nb * s).reshape(h.shape[0], nb, s * h.shape[2])


def _conv(h: np.ndarray, taps: np.ndarray, s: int, nout: int, out: np.ndarray | None = None,
          prod: np.ndarray | None = None) -> np.ndarray:
    """Stride-S conv of (B, N, C_in) to (B, nout, C_out): one GEMM per tap over the blocks.

    Writes into ``out`` and each later tap's product into ``prod`` where given, both
    (B, nout, C_out); allocates them otherwise.
    """
    blocks = _blocks(h, nout + len(taps) - 1, s)
    out = np.matmul(blocks[:, :nout], taps[0], out=out)
    for a in range(1, len(taps)):
        out += np.matmul(blocks[:, a : a + nout], taps[a], out=prod)
    return out


def _conv_t(g: np.ndarray, taps: np.ndarray, s: int, n: int, gb: np.ndarray | None = None,
            prod: np.ndarray | None = None) -> np.ndarray:
    """Transpose of ``_conv``, (B, nout, C_out) to (B, n, C_in): g @ tapᵀ added onto the blocks.

    The block gradient goes into ``gb`` (B, nout + m - 1, S * C_in) and each later tap's
    product into ``prod`` (B, nout, S * C_in) where given; the result may be a view of ``gb``.
    """
    b, nout, _ = g.shape
    nb = nout + len(taps) - 1
    if gb is None:
        gb = np.empty((b, nb, taps.shape[1]), dtype=g.dtype)
    np.matmul(g, taps[0].T, out=gb[:, :nout])
    gb[:, nout:] = 0.0
    for a in range(1, len(taps)):
        gb[:, a : a + nout] += np.matmul(g, taps[a].T, out=prod)
    return _fit(gb.reshape(b, nb * s, -1), n)


def _kernel_grad(h: np.ndarray, g: np.ndarray, s: int, k: int) -> np.ndarray:
    """Gradient of sum(_conv(h, _taps(w), s, nout) * g) w.r.t. the (C_out, C_in, K) kernel w."""
    nout, cout, cin = g.shape[1], g.shape[2], h.shape[2]
    m = -(-k // s)
    blocks = _blocks(h, nout + m - 1, s)
    dt = np.stack([np.matmul(blocks[:, a : a + nout].transpose(0, 2, 1), g).sum(axis=0)
                   for a in range(m)])
    return dt.reshape(m, s, cin, cout).transpose(3, 2, 0, 1).reshape(cout, cin, m * s)[:, :, :k]


def conv1d(x: Tensor, w: Tensor, stride: int) -> Tensor:
    """Valid (no padding) strided cross-correlation on ``_conv``.

    x: (B, C_in, N); w: (C_out, C_in, K).
    """
    if stride < 1:
        raise ValueError("stride must be positive")
    if x.data.ndim != 3:
        raise DimensionError(f"conv1d input must be (B,C_in,N), got {x.data.shape}")
    if w.data.ndim != 3:
        raise DimensionError(f"conv1d kernels must be (C_out,C_in,K), got {w.data.shape}")
    _, cin, k = w.data.shape
    _, cin_x, n = x.data.shape
    if cin_x != cin:
        raise DimensionError(f"conv1d channel mismatch: input {cin_x}, kernels {cin}")
    if n < k:
        raise DimensionError(f"conv1d input length {n} shorter than kernel {k}")
    h = x.data.transpose(0, 2, 1)
    taps = _taps(w.data, stride, h.dtype)
    out_data = _conv(h, taps, stride, (n - k) // stride + 1).transpose(0, 2, 1)

    def bwd(g):
        g = g.transpose(0, 2, 1)
        if w.requires_grad:
            w._accumulate(_kernel_grad(h, g, stride, k))
        if x.requires_grad:
            x._accumulate(_conv_t(g, taps, stride, n).transpose(0, 2, 1))

    return Tensor(out_data, _parents=(x, w), _backward=bwd, _op="conv1d")


def conv1d_transpose(x: Tensor, w: Tensor, stride: int) -> Tensor:
    """Adjoint of conv1d on ``_conv_t``: w is read as the (C_out, C_in, K) kernel it transposes.

    x: (B, C_in, T); w: (C_in, C_out, K); output length (T-1)*stride + K.
    """
    if stride < 1:
        raise ValueError("stride must be positive")
    if x.data.ndim != 3:
        raise DimensionError(f"conv1d_transpose input must be (B,C_in,T), got {x.data.shape}")
    if w.data.ndim != 3:
        raise DimensionError(f"conv1d_transpose kernels must be (C_in,C_out,K), got {w.data.shape}")
    cin, _, k = w.data.shape
    _, cin_x, t = x.data.shape
    if cin_x != cin:
        raise DimensionError(f"conv1d_transpose channel mismatch: input {cin_x}, kernels {cin}")
    h = x.data.transpose(0, 2, 1)
    taps = _taps(w.data, stride, h.dtype)
    out_data = _conv_t(h, taps, stride, (t - 1) * stride + k).transpose(0, 2, 1)

    def bwd(g):
        g = g.transpose(0, 2, 1)
        if x.requires_grad:
            x._accumulate(_conv(g, taps, stride, t).transpose(0, 2, 1))
        if w.requires_grad:
            w._accumulate(_kernel_grad(g, h, stride, k))

    return Tensor(out_data, _parents=(x, w), _backward=bwd, _op="conv1d_transpose")


def softmax(logits: np.ndarray, axis=-1) -> np.ndarray:
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_cross_entropy_array(logits: np.ndarray, labels: np.ndarray):
    """Mean of -log softmax(logits)[label] over (B, C) logits, and its gradient (B, C).

    The labels are not range-checked.
    """
    b = len(labels)
    rows = np.arange(b)
    zmax = logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(logits - zmax).sum(axis=1)) + zmax[:, 0]
    loss = (logsumexp - logits[rows, labels]).mean()
    grad = softmax(logits, axis=1)
    grad[rows, labels] -= 1.0
    grad *= np.asarray(1.0, dtype=logits.dtype) / b
    return loss, grad


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean of -log softmax(logits)[label].

    logits: (C,) with an int label, or (B, C) with a length-B label array.
    """
    single = logits.data.ndim == 1
    lg = logits.data[None, :] if single else logits.data
    lab = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    b, c = lg.shape
    if lab.shape != (b,):
        raise IndexError(f"labels shape {lab.shape} does not match batch {b}")
    if lab.min() < 0 or lab.max() >= c:
        raise IndexError(f"label out of range [0,{c})")
    loss, grad = softmax_cross_entropy_array(lg, lab)

    def bwd(g):
        if logits.requires_grad:
            logits._accumulate(grad[0] * g if single else grad * g)

    return Tensor(np.asarray(loss, dtype=lg.dtype), _parents=(logits,), _backward=bwd,
                  _op="softmax_cross_entropy")


def gradcheck(fn, inputs, h=1e-3, rtol=1e-3, atol=1e-6):
    """Compare analytic gradients of ``fn(*tensors) -> scalar Tensor`` to central differences.

    Runs in float64 regardless of input dtype. Returns the worst relative error.
    """
    ts = [Tensor(np.asarray(x, dtype=np.float64), requires_grad=True) for x in inputs]
    out = fn(*ts)
    out.backward()
    worst = 0.0
    for t in ts:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(fn(*ts).data)
            flat[i] = orig - h
            fm = float(fn(*ts).data)
            flat[i] = orig
            num[i] = (fp - fm) / (2 * h)
        num = num.reshape(t.data.shape)
        denom = np.maximum(np.abs(num), np.abs(analytic))
        err = np.abs(analytic - num) / np.maximum(denom, atol / rtol)
        worst = max(worst, float(err.max()) if err.size else 0.0)
        if not np.allclose(analytic, num, rtol=rtol, atol=atol):
            raise AssertionError(
                f"gradcheck failed: max rel err {err.max():.3e} (shape {t.data.shape})"
            )
    return worst
