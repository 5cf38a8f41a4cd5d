import sys
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentexplain import autodiff as ad
from latentexplain.optim import Adam, AdamConfig


def t(x, rg=False):
    return ad.Tensor(np.asarray(x, dtype=np.float32), requires_grad=rg)


class TestMatmul:
    def test_identity(self):
        a = t(np.eye(2))
        b = t([[1, 2], [3, 4]])
        assert np.allclose(ad.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_dot_product(self):
        # direct dot-product oracle: 1*3 + 2*4 = 11
        out = ad.matmul(t([[1, 2]]), t([[3], [4]]))
        assert np.allclose(out.data, [[11]])

    def test_zeros(self):
        out = ad.matmul(t(np.random.randn(3, 4)), t(np.zeros((4, 2))))
        assert np.all(out.data == 0)

    def test_shape_mismatch(self):
        with pytest.raises(ad.DimensionError):
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))

    def test_gradients_flow_to_both_operands(self):
        a = t(np.random.randn(2, 3), rg=True)
        b = t(np.random.randn(3, 2), rg=True)
        ad.tsum(ad.matmul(a, b)).backward()
        assert a.grad is not None and b.grad is not None


class TestConv1d:
    def test_sliding_dot_product(self):
        # sliding dot-product oracle for kernel [1,0,-1]
        x = t(np.array([[[1, 2, 3, 4]]], dtype=np.float32))
        w = t(np.array([[[1, 0, -1]]], dtype=np.float32))
        out = ad.conv1d(x, w, stride=1)
        assert np.allclose(out.data, [[[-2, -2]]])

    def test_identity_kernel(self):
        x = t(np.random.randn(1, 1, 7))
        w = t(np.ones((1, 1, 1)))
        assert np.allclose(ad.conv1d(x, w, 1).data, x.data)

    def test_output_length(self):
        out = ad.conv1d(t(np.random.randn(1, 1, 6)), t(np.random.randn(1, 1, 2)), stride=2)
        assert out.data.shape == (1, 1, 3)

    def test_too_short_input(self):
        with pytest.raises(ad.DimensionError, match="shorter than kernel"):
            ad.conv1d(t(np.random.randn(1, 1, 2)), t(np.random.randn(1, 1, 3)), 1)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 2, 12)).astype(np.float32)
        w = t(rng.standard_normal((3, 2, 4)).astype(np.float32))
        batched = ad.conv1d(t(x), w, 2).data
        for i in range(4):
            single = ad.conv1d(t(x[i : i + 1]), w, 2).data
            assert np.array_equal(batched[i], single[0])


@pytest.mark.parametrize("op", [ad.conv1d, ad.conv1d_transpose])
def test_conv_rejects_unbatched_input(op):
    with pytest.raises(ad.DimensionError, match="input must be"):
        op(t(np.zeros((2, 8))), t(np.zeros((2, 2, 3))), 1)


class TestConv1dTranspose:
    def test_scatter_add(self):
        x = t(np.array([[[1, 0]]], dtype=np.float32))
        w = t(np.array([[[1, 1]]], dtype=np.float32))
        out = ad.conv1d_transpose(x, w, stride=2)
        assert np.allclose(out.data, [[[1, 1, 0, 0]]])

    def test_zeros(self):
        out = ad.conv1d_transpose(t(np.zeros((1, 2, 5))), t(np.random.randn(2, 3, 4)), 2)
        assert np.all(out.data == 0)

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_adjoint_identity(self, seed):
        # <conv1d(x,W), y> == <x, conv1d_transpose(y, W)> with W read in transpose layout
        rng = np.random.default_rng(seed)
        stride = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        n = int(rng.integers(k, k + 12))
        x = rng.standard_normal((1, cin, n)).astype(np.float32)
        w = rng.standard_normal((cout, cin, k)).astype(np.float32)
        nout = (n - k) // stride + 1
        y = rng.standard_normal((1, cout, nout)).astype(np.float32)
        lhs = float(np.sum(ad.conv1d(t(x), t(w), stride).data * y))
        back = ad.conv1d_transpose(t(y), t(w), stride).data[:, :, :n]
        rhs = float(np.sum(x[:, :, : back.shape[2]] * back))
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))


@pytest.mark.parametrize("shape,n,axis", [
    # _taps: a (C_out, C_in, K) kernel to m * S taps
    ((3, 2, 8), 8, -1), ((3, 2, 7), 8, -1), ((3, 2, 5), 6, -1), ((3, 2, 1), 3, -1),
    # _fit: (B, N', C) along time
    ((2, 9, 3), 9, 1), ((2, 9, 3), 10, 1), ((2, 9, 3), 16, 1),
    # _fit: codec training minibatches (B, N) along time; waveforms along their last axis
    ((16383,), 16467, -1), ((3, 16467), 16467, -1), ((3, 16384), 16467, -1),
])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zero_pad_matches_np_pad(shape, n, axis, dtype):
    """np.pad's values and dtype, zero-width pads and non-contiguous views included."""
    x = np.random.default_rng(n).standard_normal(shape).astype(dtype)
    widths = [(0, 0)] * x.ndim
    widths[axis] = (0, n - shape[axis])
    ref = np.pad(x, widths).tobytes()
    got = ad._zero_pad(x, n, axis)
    assert got.dtype == dtype and got.tobytes() == ref
    assert ad._zero_pad(x.T.copy().T, n, axis).tobytes() == ref


class TestUnary:
    def test_tanh_fixed_point(self):
        assert ad.tanh(t([0.0])).data[0] == 0.0

    def test_relu(self):
        out = ad.relu(t([-3.0, 3.0]))
        assert np.allclose(out.data, [0.0, 3.0])

    def test_scale(self):
        assert np.allclose(ad.scale(t([1.0, 2.0]), 2).data, [2.0, 4.0])

    def test_elu_negative_branch(self):
        out = ad.elu(t([-1.0]))
        assert np.allclose(out.data, np.expm1(-1.0))


class TestEluMatchesWhereForm:
    """Oracle: the np.where form of ELU and of its derivative that the tape used before."""

    X = np.concatenate([
        np.array([-0.0, 0.0, 1e-45, -1e-45, -1e-30, -20.0, -104.0, -1e30, -np.inf, 3.0, np.inf],
                 dtype=np.float32),
        np.random.default_rng(4).standard_normal(4096).astype(np.float32) * 8,
    ])

    def test_forward_bits(self):
        old = np.where(self.X > 0, self.X, np.expm1(self.X))
        new = ad.elu_array(self.X)
        assert new.dtype == np.float32
        # -0.0 comes out as +0.0 (the where form keeps -0.0); equal as values. Every ELU
        # input in the pipeline is a sum with a bias that is never -0.0, so it is never -0.0.
        nz = self.X.view(np.uint32) != np.float32(-0.0).view(np.uint32)
        assert np.array_equal(new[nz].view(np.uint32), old[nz].view(np.uint32))
        assert np.array_equal(new, old)

    def test_backward_bits(self):
        x = t(self.X, rg=True)
        ad.tsum(ad.elu(x)).backward()
        old = np.where(self.X > 0, 1.0, np.expm1(self.X) + 1).astype(np.float32)
        assert np.array_equal(x.grad.view(np.uint32), old.view(np.uint32))

    def test_keeps_float64(self):
        x = np.array([-2.0, 0.5])
        assert ad.elu_array(x).dtype == np.float64
        assert np.array_equal(ad.elu_array(x), np.where(x > 0, x, np.expm1(x)))


def _elu_inputs(dtype, shape, seed=0):
    """Values of ``dtype`` in ``shape``: +-0, +-inf, +-NaN, subnormals and huge values among
    normal ones, in shuffled places."""
    info = np.finfo(dtype)
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, info.smallest_subnormal,
               -info.smallest_subnormal, -float(info.tiny) / 3, float(info.max), -float(info.max)]
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    flat = np.concatenate([np.array(special, dtype=dtype),
                           (rng.standard_normal(n) * 8).astype(dtype)])[:n]
    return rng.permutation(flat).reshape(shape)


# the layouts the runtime hands ELU: a buffer -> the array ELU reads
ELU_LAYOUTS = {
    "contiguous": lambda a: a,
    "row-slice": lambda a: a[1:3],
    # latent IG's (S, H, T) step buffer seen as (S, T, H), one head tile of its rows
    "ig-tile": lambda a: np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1)[1:3],
    "encoder-out": lambda a: a[:2],  # ``out[:b]`` of a workspace's (rows, T, C) buffer
    "reversed": lambda a: a[:, ::-1, ::-3],
}


class TestEluZeroOperand:
    """ELU's min and max run against a read-only zero array with the input's strides (a view
    of one zero buffer), and give the bits of the where form and of the scalar-operand VJP."""

    @pytest.mark.parametrize("layout", list(ELU_LAYOUTS))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_in_every_layout(self, dtype, layout):
        x = ELU_LAYOUTS[layout](_elu_inputs(dtype, (4, 37, 6)))
        with np.errstate(over="ignore", invalid="ignore"):
            where = np.where(x > 0, x, np.expm1(x)) + dtype(0)  # -0.0 comes out as +0.0
            got = ad.elu_array(x)
            buf = x.copy(order="K")  # in place, with a negative part in the input's layout
            ad.elu_array(buf, out=buf, neg=np.empty_like(buf))
            g = _elu_inputs(dtype, x.shape, seed=1)
            scalar = np.minimum(got, 0.0)
            scalar += 1.0
            scalar = np.multiply(scalar, g, out=scalar)
            vjp = ad.elu_vjp(got, g)
        assert got.dtype == buf.dtype == vjp.dtype == dtype
        assert got.tobytes() == where.tobytes() and buf.tobytes() == where.tobytes()
        assert vjp.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("layout", list(ELU_LAYOUTS))
    def test_zero_view_has_the_input_layout_and_is_never_writeable(self, layout):
        x = ELU_LAYOUTS[layout](np.ones((4, 37, 6), dtype=np.float32))
        zero = ad._zeros_as(x)
        assert (zero.shape, zero.strides, zero.dtype) == (x.shape, x.strides, x.dtype)
        assert not zero.flags.writeable and not np.any(zero)
        with pytest.raises(ValueError):
            zero.flags.writeable = True
        assert isinstance(ad._zero_bytes, bytes) and ad._zero_bytes.count(0) == len(ad._zero_bytes)

    def test_two_threads_growing_the_buffer(self, monkeypatch):
        monkeypatch.setattr(ad, "_zero_bytes", b"")
        errors, start = [], threading.Barrier(2)

        def work(seed):
            try:
                start.wait(10)
                for k in range(1, 40):
                    x = _elu_inputs(np.float32, (k, 97, 3), seed=seed + k).transpose(2, 1, 0)
                    with np.errstate(over="ignore", invalid="ignore"):
                        want = np.where(x > 0, x, np.expm1(x)) + np.float32(0)
                    if ad.elu_array(x).tobytes() != want.tobytes():
                        errors.append(f"thread {seed}, size {k}")
            except Exception as e:  # reported by the assertion below
                errors.append(repr(e))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in (0, 100)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert len(ad._zero_bytes) >= 39 * 97 * 3 * 4


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = ad.softmax_cross_entropy(t([1.0, 1.0, 1.0, 1.0]), 2)
        assert abs(float(loss.data) - np.log(4)) < 1e-6

    def test_stabilized_no_overflow(self):
        loss = ad.softmax_cross_entropy(t([1000.0, 0.0]), 0)
        assert np.isfinite(loss.data) and float(loss.data) < 1e-6

    def test_gradient_at_uniform(self):
        x = t([0.0, 0.0, 0.0, 0.0], rg=True)
        ad.softmax_cross_entropy(x, 1).backward()
        expected = np.full(4, 0.25) - np.eye(4)[1]
        assert np.allclose(x.grad, expected, atol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            ad.softmax_cross_entropy(t([0.0, 0.0]), 5)


class TestBackward:
    def test_sum_of_squares(self):
        x = t([1.0, 2.0, 3.0], rg=True)
        ad.tsum(ad.mul(x, x)).backward()
        assert np.allclose(x.grad, [2.0, 4.0, 6.0])

    def test_constant_loss(self):
        x = t([1.0, 2.0], rg=True)
        ad.tsum(ad.scale(x, 0.0)).backward()
        assert np.allclose(x.grad, [0.0, 0.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            t([1.0, 2.0], rg=True).backward()

    def test_accumulation_over_fanout(self):
        x = t([2.0], rg=True)
        y = ad.add(ad.mul(x, x), ad.scale(x, 3.0))  # x^2 + 3x -> 2x + 3 = 7
        ad.tsum(y).backward()
        assert np.allclose(x.grad, [7.0])

    def test_deterministic_gradients(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((1, 3, 8)).astype(np.float32)
        wdata = rng.standard_normal((2, 3, 3)).astype(np.float32)
        grads = []
        for _ in range(2):
            x = t(data, rg=True)
            w = t(wdata, rg=True)
            ad.tsum(ad.mul(ad.elu(ad.conv1d(x, w, 2)), ad.tanh(ad.conv1d(x, w, 2)))).backward()
            grads.append((x.grad.copy(), w.grad.copy()))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])


@pytest.mark.parametrize("case", range(10))
@pytest.mark.parametrize(
    "opname",
    ["matmul", "conv1d", "conv1d_transpose", "tanh", "relu", "elu", "scale", "xent", "mean",
     "add", "max",
     # conv geometries beyond K = 3, S = 2: K < S, and K not a multiple of S
     "conv1d_k2s3", "conv1d_k5s2", "conv1d_transpose_k2s3", "conv1d_transpose_k5s2"],
)
def test_gradcheck_each_op(opname, case):
    rng = np.random.default_rng(zlib.crc32(f"{opname}/{case}".encode()))
    op, _, geometry = opname.partition("_k")
    k, s = map(int, geometry.split("s")) if geometry else (3, 2)
    if opname == "matmul":
        ad.gradcheck(lambda a, b: ad.tsum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
                     [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))])
    elif op == "conv1d":
        ad.gradcheck(lambda x, w: ad.tsum(ad.mul(ad.conv1d(x, w, s), ad.conv1d(x, w, s))),
                     [rng.standard_normal((1, 2, 3 * s + k)), rng.standard_normal((3, 2, k))])
    elif op == "conv1d_transpose":
        ad.gradcheck(
            lambda x, w: ad.tsum(ad.mul(ad.conv1d_transpose(x, w, s), ad.conv1d_transpose(x, w, s))),
            [rng.standard_normal((1, 2, 4)), rng.standard_normal((2, 3, k))])
    elif opname == "tanh":
        ad.gradcheck(lambda x: ad.tsum(ad.tanh(x)), [rng.standard_normal(6)])
    elif opname == "relu":
        # keep values away from the kink
        x = rng.standard_normal(6)
        x[np.abs(x) < 0.1] += 0.2
        ad.gradcheck(lambda x: ad.tsum(ad.mul(ad.relu(x), ad.relu(x))), [x])
    elif opname == "elu":
        ad.gradcheck(lambda x: ad.tsum(ad.mul(ad.elu(x), ad.elu(x))), [rng.standard_normal(6)])
    elif opname == "scale":
        ad.gradcheck(lambda x: ad.tsum(ad.mul(ad.scale(x, 1.7), ad.scale(x, 1.7))),
                     [rng.standard_normal(5)])
    elif opname == "xent":
        ad.gradcheck(lambda x: ad.softmax_cross_entropy(x, 1), [rng.standard_normal(5)])
    elif opname == "mean":
        ad.gradcheck(lambda x: ad.tsum(ad.mul(ad.tmean(x, axis=1), ad.tmean(x, axis=1))),
                     [rng.standard_normal((3, 4))])
    elif opname == "add":
        ad.gradcheck(lambda a, b: ad.tsum(ad.mul(ad.add(a, b), ad.add(a, b))),
                     [rng.standard_normal((3, 4)), rng.standard_normal((1, 4))])
    elif opname == "max":
        # keep the runner-up clear of the maximum so finite differences
        # do not cross the argmax switch
        x = rng.standard_normal((3, 5))
        x[np.arange(3), x.argmax(axis=1)] += 0.5
        ad.gradcheck(lambda x: ad.tsum(ad.mul(ad.tmax(x, 1), ad.tmax(x, 1))), [x])


def test_no_nan_inf_forward_backward():
    rng = np.random.default_rng(3)
    x = t(rng.standard_normal((2, 1, 64)), rg=True)
    w1 = t(rng.standard_normal((4, 1, 8)) * 0.3, rg=True)
    w2 = t(rng.standard_normal((4, 2, 8)) * 0.3, rg=True)
    h = ad.elu(ad.conv1d(x, w1, 4))
    y = ad.tanh(ad.conv1d_transpose(h, w2, 4))
    loss = ad.tmean(ad.mul(y, y))
    loss.backward()
    for arr in (y.data, loss.data, x.grad, w1.grad, w2.grad):
        assert np.all(np.isfinite(arr))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = np.array([1.0, 2.0], dtype=np.float32)
        opt = Adam({"p": p})
        opt.step({"p": np.zeros(2, dtype=np.float32)})
        assert np.allclose(p, [1.0, 2.0])

    def test_single_step_hand_computed(self):
        # step 1 with bias correction collapses to -lr * g / (|g| + eps)
        g = np.array([0.5, -2.0], dtype=np.float32)
        p = np.array([1.0, 1.0], dtype=np.float32)
        opt = Adam({"p": p}, AdamConfig(lr=0.001))
        opt.step({"p": g.copy()})
        expected = 1.0 - 0.001 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p, expected, atol=1e-7)

    def test_determinism(self):
        results = []
        for _ in range(2):
            p = np.array([0.3, -0.7], dtype=np.float32)
            opt = Adam({"p": p}, AdamConfig())
            for step in range(5):
                opt.step({"p": np.array([0.1 * step, -0.2], dtype=np.float32)})
            results.append(p.copy())
        assert np.array_equal(results[0], results[1])

    def test_parameters_without_a_gradient_stay(self):
        p, q = np.ones(2, dtype=np.float32), np.ones(3, dtype=np.float32)
        opt = Adam({"p": p, "q": q})
        opt.step({"p": np.ones(2, dtype=np.float32)})
        assert np.all(p < 1.0) and np.array_equal(q, np.ones(3, dtype=np.float32))
