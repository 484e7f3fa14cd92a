"""Convolution lowering economics: cached columns and workspace reuse.

The forward pass lowers patches with im2col once; the backward pass must
reuse those cached columns for the weight gradient instead of re-running
the gather (the gather is ~a third of a conv step's time).  The input
gradient and the transposed convolution are one gather of the upstream
plus one GEMM (sub-pixel decomposition), never a col2im scatter.  In
eval mode the closure is dropped, so the columns may live in the module
workspace and be reused across calls.
"""

import numpy as np
import pytest

from repro.backend import ops as backend_ops
from repro.nn import functional as F
from repro.nn import no_grad
from repro.nn.tensor import Tensor


def _counting_im2col(monkeypatch):
    """Record the shape of every image ``F.im2col`` gathers."""
    calls = []
    original = F.im2col

    def wrapper(image, *args, **kwargs):
        calls.append(image.shape)
        return original(image, *args, **kwargs)

    monkeypatch.setattr(F, "im2col", wrapper)
    return calls


@pytest.fixture
def no_col2im(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("col2im scatter reached")

    monkeypatch.setattr(F, "col2im", refuse)
    monkeypatch.setattr(backend_ops, "col2im", refuse)


class TestColumnCaching:
    def test_conv2d_backward_reuses_forward_columns(self, monkeypatch, rng,
                                                    no_col2im):
        calls = _counting_im2col(monkeypatch)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        out = F.conv2d(x, w, stride=1, padding=1)
        assert calls == [x.shape]
        (out ** 2).sum().backward()
        # The weight gradient contracts the cached columns: no re-gather
        # of x.  The input gradient gathers the 4-channel upstream once.
        assert len(calls) == 2
        assert calls[1][:2] == (2, 4)
        assert x.grad.shape == x.shape and w.grad.shape == w.shape

    def test_conv2d_backward_skips_input_gradient_without_grad(
            self, monkeypatch, rng, no_col2im):
        calls = _counting_im2col(monkeypatch)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        out = F.conv2d(x, w, stride=2, padding=1)
        (out ** 2).sum().backward()
        # Only the forward gather: x takes no gradient, so the upstream
        # is never gathered.
        assert calls == [x.shape]
        assert x.grad is None
        assert w.grad.shape == w.shape

    def test_conv_transpose2d_backward_gathers_once(self, monkeypatch, rng,
                                                    no_col2im):
        calls = _counting_im2col(monkeypatch)
        x = Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        out = F.conv_transpose2d(x, w, stride=2, padding=1)
        assert len(calls) == 1  # forward: one gather of x
        assert calls[0][:2] == (2, 4)
        (out ** 2).sum().backward()
        assert len(calls) == 2  # backward: one gather of the upstream
        assert calls[1] == out.shape
        assert x.grad.shape == x.shape and w.grad.shape == w.shape

    def test_backward_matches_einsum_reference(self, rng):
        """The batched-matmul backward is the same math as the obvious
        einsum contraction."""
        x_data = rng.normal(size=(3, 2, 6, 6))
        w_data = rng.normal(size=(5, 2, 3, 3))
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        out = F.conv2d(x, w, stride=1, padding=1)
        grad_out = rng.normal(size=out.shape)
        out.backward(grad_out)

        cols = F.im2col(x_data, (3, 3), (1, 1), (1, 1))
        grad_flat = grad_out.reshape(3, 5, -1)
        ref_w = np.einsum("nfl,nkl->fk", grad_flat, cols).reshape(w_data.shape)
        np.testing.assert_allclose(w.grad, ref_w, rtol=1e-10, atol=1e-12)
        ref_cols = np.einsum("fk,nfl->nkl", w_data.reshape(5, -1), grad_flat)
        ref_x = F.col2im(ref_cols, x_data.shape, (3, 3), (1, 1), (1, 1))
        np.testing.assert_allclose(x.grad, ref_x, rtol=1e-10, atol=1e-12)


class TestInferenceWorkspace:
    def test_eval_mode_reuses_column_scratch(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        with no_grad():
            F.conv2d(x, w, padding=1)
            before = F._WORKSPACE.hits
            F.conv2d(x, w, padding=1)
        assert F._WORKSPACE.hits > before

    def test_grad_mode_never_touches_workspace(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        before = (F._WORKSPACE.hits, F._WORKSPACE.misses)
        out = F.conv2d(x, w, padding=1)
        (out ** 2).sum().backward()
        assert (F._WORKSPACE.hits, F._WORKSPACE.misses) == before

    def test_eval_and_grad_results_identical(self, rng):
        x_data = rng.normal(size=(2, 3, 8, 8))
        w_data = rng.normal(size=(4, 3, 3, 3))
        with no_grad():
            eval_out = F.conv2d(Tensor(x_data), Tensor(w_data), padding=1)
            # Second call overwrites the scratch the first call used;
            # the first result must be a private copy.
            eval_out2 = F.conv2d(Tensor(2.0 * x_data), Tensor(w_data),
                                 padding=1)
        grad_out = F.conv2d(Tensor(x_data, requires_grad=True),
                            Tensor(w_data, requires_grad=True), padding=1)
        np.testing.assert_allclose(eval_out.data, grad_out.data,
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(eval_out2.data, 2.0 * grad_out.data,
                                   rtol=1e-12, atol=1e-12)
