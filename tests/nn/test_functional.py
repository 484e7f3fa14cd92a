"""Unit tests for nn functional ops: convolutions, pooling, norm, losses."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.functional import col2im, im2col
from repro.nn.tensor import Tensor

from ..conftest import numeric_gradient


class TestIm2Col:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = im2col(x, (3, 3), (1, 1), (1, 1))
        assert cols.shape == (2, 27, 64)

    def test_values_simple(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        cols = im2col(x, (2, 2), (2, 2), (0, 0))
        # First patch is the top-left 2x2 block.
        np.testing.assert_allclose(cols[0, :, 0], [0, 1, 4, 5])

    def test_empty_output_raises(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((1, 1, 2, 2)), (5, 5), (1, 1), (0, 0))

    def test_col2im_is_adjoint(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining property the
        conv backward pass relies on."""
        shape = (2, 3, 6, 6)
        kernel, stride, padding = (3, 3), (2, 2), (1, 1)
        x = rng.normal(size=shape)
        cols = im2col(x, kernel, stride, padding)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, shape, kernel, stride, padding)).sum())
        assert abs(lhs - rhs) < 1e-9


def _patch_loop(x, kernel, stride, padding):
    """im2col by explicit patch extraction: row ``(c, i, j)``, column
    ``(oy, ox)`` holds ``x_padded[c, oy * sh + i, ox * sw + j]``."""
    n, c, h, w = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    padded[:, :, ph:ph + h, pw:pw + w] = x
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    cols = np.empty((n, c * kh * kw, oh * ow), dtype=x.dtype)
    for oy in range(oh):
        for ox in range(ow):
            patch = padded[:, :, oy * sh:oy * sh + kh, ox * sw:ox * sw + kw]
            cols[:, :, oy * ow + ox] = patch.reshape(n, -1)
    return cols


# (input shape, kernel, stride, padding): the network's convolutions
# (3x3/1 same, 4x4/2 encoder, 1x1 head), the pooling windows (2x2/2
# and the 8x8/8 resolution bridge) and ragged or non-square cases.
GEOMETRIES = [
    ((2, 3, 8, 8), (3, 3), (1, 1), (1, 1)),
    ((2, 2, 8, 8), (4, 4), (2, 2), (1, 1)),
    ((1, 4, 5, 5), (1, 1), (1, 1), (0, 0)),
    ((2, 1, 6, 6), (2, 2), (2, 2), (0, 0)),
    ((1, 1, 16, 16), (8, 8), (8, 8), (0, 0)),
    ((1, 2, 7, 9), (3, 3), (2, 2), (0, 0)),
    ((2, 2, 6, 7), (3, 2), (1, 2), (0, 1)),
    ((1, 3, 11, 10), (5, 5), (3, 3), (2, 2)),
]


@pytest.mark.parametrize("shape,kernel,stride,padding", GEOMETRIES)
class TestIm2ColGeometries:
    def test_matches_patch_loop(self, rng, shape, kernel, stride, padding):
        x = rng.normal(size=shape)
        np.testing.assert_array_equal(
            im2col(x, kernel, stride, padding),
            _patch_loop(x, kernel, stride, padding))

    def test_out_buffer_is_bit_identical(self, rng, shape, kernel, stride,
                                         padding):
        """The workspace path writes the same gather into ``out``."""
        x = rng.normal(size=shape)
        expected = im2col(x, kernel, stride, padding)
        out = np.full(expected.shape, np.nan)
        assert im2col(x, kernel, stride, padding, out=out) is out
        np.testing.assert_array_equal(out, expected)

    def test_keeps_f32(self, rng, shape, kernel, stride, padding):
        """A gather is a copy: f32 columns are the f64 ones rounded."""
        x = rng.normal(size=shape)
        cols = im2col(x.astype(np.float32), kernel, stride, padding)
        assert cols.dtype == np.float32
        np.testing.assert_array_equal(
            cols, im2col(x, kernel, stride, padding).astype(np.float32))

    def test_col2im_is_adjoint(self, rng, shape, kernel, stride, padding):
        x = rng.normal(size=shape)
        cols = im2col(x, kernel, stride, padding)
        y = rng.normal(size=cols.shape)
        back = col2im(y, shape, kernel, stride, padding)
        assert back.shape == shape
        lhs = float((cols * y).sum())
        rhs = float((x * back).sum())
        assert abs(lhs - rhs) <= 1e-12 * float(np.abs(cols * y).sum())


class TestConv2d:
    def test_shape_stride_padding(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 9, 9)))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)))
        out = F.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 5, 5, 5)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 2, 4, 4))),
                     Tensor(np.zeros((1, 3, 3, 3))))

    def test_identity_kernel(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = F.conv2d(x, Tensor(w), padding=1)
        np.testing.assert_allclose(out.data, x.data)

    def test_matches_direct_computation(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        w = rng.normal(size=(1, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w)).data
        # Direct cross-correlation at (1, 1).
        expected = float((x[0, 0, 0:3, 0:3] * w[0, 0]).sum())
        assert abs(out[0, 0, 0, 0] - expected) < 1e-10

    def test_gradients_against_numeric(self, rng):
        x_data = rng.normal(size=(2, 2, 5, 5))
        w_data = rng.normal(size=(3, 2, 3, 3))
        b_data = rng.normal(size=(3,))

        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (F.conv2d(x, w, b, stride=2, padding=1) ** 2).sum().backward()

        def objective():
            out = F.conv2d(Tensor(x_data), Tensor(w_data), Tensor(b_data),
                           stride=2, padding=1)
            return float((out.data ** 2).sum())

        np.testing.assert_allclose(x.grad, numeric_gradient(objective, x_data),
                                   rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(w.grad, numeric_gradient(objective, w_data),
                                   rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(b.grad, numeric_gradient(objective, b_data),
                                   rtol=1e-4, atol=1e-7)


class TestConvTranspose2d:
    def test_output_shape(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 5, 5)))
        w = Tensor(rng.normal(size=(4, 2, 4, 4)))
        out = F.conv_transpose2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 2, 10, 10)

    def test_inverts_conv_shape(self, rng):
        """deconv(stride s) maps the conv(stride s) output shape back."""
        x = Tensor(rng.normal(size=(1, 1, 16, 16)))
        w_down = Tensor(rng.normal(size=(3, 1, 3, 3)))
        down = F.conv2d(x, w_down, stride=2, padding=1)
        w_up = Tensor(rng.normal(size=(3, 1, 4, 4)))
        up = F.conv_transpose2d(down, w_up, stride=2, padding=1)
        assert up.shape == (1, 1, 16, 16)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv_transpose2d(Tensor(np.zeros((1, 2, 4, 4))),
                               Tensor(np.zeros((3, 1, 3, 3))))

    def test_gradients_against_numeric(self, rng):
        x_data = rng.normal(size=(2, 2, 4, 4))
        w_data = rng.normal(size=(2, 3, 3, 3))
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        (F.conv_transpose2d(x, w, stride=2, padding=1,
                            output_padding=1) ** 2).sum().backward()

        def objective():
            out = F.conv_transpose2d(Tensor(x_data), Tensor(w_data), stride=2,
                                     padding=1, output_padding=1)
            return float((out.data ** 2).sum())

        np.testing.assert_allclose(x.grad, numeric_gradient(objective, x_data),
                                   rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(w.grad, numeric_gradient(objective, w_data),
                                   rtol=1e-4, atol=1e-7)

    def test_adjointness_with_conv(self, rng):
        """conv_transpose(w) is the adjoint of conv(w) (same layout)."""
        x = rng.normal(size=(1, 2, 8, 8))
        y = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        conv_out = F.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
        # Transposed conv expects (in=3, out=2) layout = same array here.
        deconv_out = F.conv_transpose2d(Tensor(y), Tensor(w), stride=2,
                                        padding=1, output_padding=1).data
        lhs = float((conv_out * y).sum())
        rhs = float((x * deconv_out).sum())
        assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-9


class TestPooling:
    def test_avg_pool_exact(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradient(self):
        x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        F.avg_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))

    def test_max_pool_exact(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradient_to_argmax(self):
        data = np.zeros((1, 1, 2, 2))
        data[0, 0, 1, 1] = 5.0
        x = Tensor(data, requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 1, 1] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_upsample_nearest(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2),
                   requires_grad=True)
        out = F.upsample_nearest2d(x, 2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out.data[0, 0, :2, :2], 1.0)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 4.0))


class TestBatchNorm:
    def test_normalizes_in_training(self, rng):
        x = Tensor(rng.normal(3.0, 2.0, size=(8, 4, 5, 5)))
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        rm, rv = np.zeros(4), np.ones(4)
        out = F.batch_norm(x, gamma, beta, rm, rv, training=True)
        assert abs(out.data.mean()) < 1e-10
        assert abs(out.data.std() - 1.0) < 1e-2

    def test_running_stats_updated(self, rng):
        x = Tensor(rng.normal(5.0, 1.0, size=(16, 2, 4, 4)))
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        rm, rv = np.zeros(2), np.ones(2)
        F.batch_norm(x, gamma, beta, rm, rv, training=True, momentum=1.0)
        np.testing.assert_allclose(rm, x.data.mean(axis=(0, 2, 3)), rtol=1e-10)

    def test_eval_uses_running_stats(self):
        x = Tensor(np.full((2, 1, 2, 2), 10.0))
        gamma, beta = Tensor(np.ones(1)), Tensor(np.zeros(1))
        rm, rv = np.array([10.0]), np.array([4.0])
        out = F.batch_norm(x, gamma, beta, rm, rv, training=False)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_2d_input(self, rng):
        x = Tensor(rng.normal(size=(10, 3)))
        gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
        out = F.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3),
                           training=True)
        assert out.shape == (10, 3)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            F.batch_norm(Tensor(np.zeros((2, 3, 4))), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)), np.zeros(3), np.ones(3), True)

    def test_input_gradient_numeric(self, rng):
        x_data = rng.normal(size=(4, 2, 3, 3))
        gamma_data = rng.random(2) + 0.5
        beta_data = rng.normal(size=2)

        x = Tensor(x_data, requires_grad=True)
        gamma = Tensor(gamma_data, requires_grad=True)
        beta = Tensor(beta_data, requires_grad=True)
        out = F.batch_norm(x, gamma, beta, np.zeros(2), np.ones(2), True)
        (out ** 2).sum().backward()

        def objective():
            o = F.batch_norm(Tensor(x_data), Tensor(gamma_data),
                             Tensor(beta_data), np.zeros(2), np.ones(2), True)
            return float((o.data ** 2).sum())

        np.testing.assert_allclose(x.grad,
                                   numeric_gradient(objective, x_data, 1e-5),
                                   rtol=1e-3, atol=1e-6)
        np.testing.assert_allclose(gamma.grad,
                                   numeric_gradient(objective, gamma_data, 1e-5),
                                   rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(beta.grad,
                                   numeric_gradient(objective, beta_data, 1e-5),
                                   rtol=1e-4, atol=1e-6)


def _batch_norm_textbook(x, gamma, beta, g, eps=1e-5):
    """Train-mode output and gradients straight from the batch-norm
    paper's formulas, per channel over every non-channel axis: biased
    variance in the forward pass, and
    dx = gamma / (m * std) * (m * g - sum(g) - x_hat * sum(g * x_hat))."""
    axes = (0,) + tuple(range(2, x.ndim))
    shape = (1, -1) + (1,) * (x.ndim - 2)
    m = x.size // x.shape[1]
    mean = x.mean(axis=axes, keepdims=True)
    var = ((x - mean) ** 2).sum(axis=axes, keepdims=True) / m
    std = np.sqrt(var + eps)
    x_hat = (x - mean) / std
    out = gamma.reshape(shape) * x_hat + beta.reshape(shape)
    sum_g = g.sum(axis=axes, keepdims=True)
    sum_gx = (g * x_hat).sum(axis=axes, keepdims=True)
    dx = gamma.reshape(shape) / (m * std) * (m * g - sum_g - x_hat * sum_gx)
    return out, dx, sum_gx.reshape(-1), sum_g.reshape(-1)


class TestBatchNormTextbook:
    """Batch norm against the textbook formulas to 1e-12, in both
    modes and for 2-D ``(N, C)`` and 4-D ``(N, C, H, W)`` input."""

    SHAPES = [(4, 3, 5, 7), (9, 4)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_training_forward_and_gradients(self, shape, rng):
        c = shape[1]
        x_data = rng.normal(2.0, 3.0, size=shape)
        gamma_data, beta_data = rng.random(c) + 0.5, rng.normal(size=c)
        g = rng.normal(size=shape)
        x = Tensor(x_data, requires_grad=True)
        gamma = Tensor(gamma_data, requires_grad=True)
        beta = Tensor(beta_data, requires_grad=True)
        out = F.batch_norm(x, gamma, beta, np.zeros(c), np.ones(c),
                           training=True)
        out.backward(g)
        expected = _batch_norm_textbook(x_data, gamma_data, beta_data, g)
        for actual, reference in zip((out.data, x.grad, gamma.grad,
                                      beta.grad), expected):
            np.testing.assert_allclose(actual, reference, rtol=1e-12,
                                       atol=1e-12 * np.abs(reference).max())

    @pytest.mark.parametrize("shape", SHAPES)
    def test_running_statistics_use_unbiased_variance(self, shape, rng):
        c = shape[1]
        x_data = rng.normal(1.0, 2.0, size=shape)
        start_mean, start_var = rng.normal(size=c), rng.random(c) + 0.5
        rm, rv = start_mean.copy(), start_var.copy()
        F.batch_norm(Tensor(x_data), Tensor(np.ones(c)), Tensor(np.zeros(c)),
                     rm, rv, training=True, momentum=0.1)
        axes = (0,) + tuple(range(2, len(shape)))
        np.testing.assert_allclose(
            rm, 0.9 * start_mean + 0.1 * x_data.mean(axis=axes), rtol=1e-12)
        np.testing.assert_allclose(
            rv, 0.9 * start_var + 0.1 * x_data.var(axis=axes, ddof=1),
            rtol=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_eval_is_affine_in_running_statistics(self, shape, rng):
        c = shape[1]
        bshape = (1, -1) + (1,) * (len(shape) - 2)
        x_data = rng.normal(size=shape)
        gamma_data, beta_data = rng.random(c) + 0.5, rng.normal(size=c)
        rm, rv = rng.normal(size=c), rng.random(c) + 0.5
        g = rng.normal(size=shape)
        x = Tensor(x_data, requires_grad=True)
        gamma = Tensor(gamma_data, requires_grad=True)
        beta = Tensor(beta_data, requires_grad=True)
        out = F.batch_norm(x, gamma, beta, rm.copy(), rv.copy(),
                           training=False)
        out.backward(g)
        std = np.sqrt(rv + 1e-5).reshape(bshape)
        x_hat = (x_data - rm.reshape(bshape)) / std
        axes = (0,) + tuple(range(2, len(shape)))
        np.testing.assert_allclose(
            out.data, gamma_data.reshape(bshape) * x_hat
            + beta_data.reshape(bshape), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(x.grad, g * gamma_data.reshape(bshape)
                                   / std, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gamma.grad, (g * x_hat).sum(axis=axes),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(beta.grad, g.sum(axis=axes), rtol=1e-12,
                                   atol=1e-12)


class TestLosses:
    def test_mse_reductions(self):
        p = Tensor([1.0, 3.0])
        t = Tensor([0.0, 0.0])
        assert float(F.mse_loss(p, t, "sum").data) == 10.0
        assert float(F.mse_loss(p, t, "mean").data) == 5.0
        assert F.mse_loss(p, t, "none").shape == (2,)
        with pytest.raises(ValueError):
            F.mse_loss(p, t, "bogus")

    def test_mse_sum_is_squared_l2(self, rng):
        a = rng.random((4, 4))
        b = rng.random((4, 4))
        loss = F.mse_loss(Tensor(a), Tensor(b), "sum")
        np.testing.assert_allclose(float(loss.data), ((a - b) ** 2).sum())

    def test_l1(self):
        loss = F.l1_loss(Tensor([2.0, -1.0]), Tensor([0.0, 0.0]), "sum")
        assert float(loss.data) == 3.0

    def test_bce_matches_formula(self):
        p = Tensor([0.8])
        t = Tensor([1.0])
        np.testing.assert_allclose(float(F.bce_loss(p, t).data),
                                   -np.log(0.8), rtol=1e-9)

    def test_bce_saturated_is_finite(self):
        loss = F.bce_loss(Tensor([0.0, 1.0]), Tensor([1.0, 0.0]))
        assert np.isfinite(float(loss.data))

    def test_bce_with_logits_matches_bce(self, rng):
        z = rng.normal(size=(6,))
        t = (rng.random(6) > 0.5).astype(float)
        direct = F.bce_with_logits(Tensor(z), Tensor(t))
        via_sigmoid = F.bce_loss(Tensor(z).sigmoid(), Tensor(t))
        np.testing.assert_allclose(float(direct.data),
                                   float(via_sigmoid.data), rtol=1e-6)

    def test_bce_with_logits_stable_at_extremes(self):
        loss = F.bce_with_logits(Tensor([100.0, -100.0]), Tensor([0.0, 1.0]))
        assert np.isfinite(float(loss.data))

    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.normal(size=(3, 5)))
        out = F.softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(3), rtol=1e-10)

    def test_linear(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2,)))
        out = F.linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data.T + b.data)
