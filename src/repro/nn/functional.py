"""Neural-network functional operations for the ``repro.nn`` substrate.

Implements the convolutional primitives the GAN-OPC generator (stacked
conv encoder + deconv decoder, Figure 4 of the paper) and discriminator
are built from, plus the pooling / interpolation operations the paper's
resolution bridge uses (8x8 average pooling before the network, linear
interpolation after — Section 4).

Convolutions are lowered to one patch gather (im2col) plus one BLAS
GEMM per product — the only way a pure-numpy CNN trains in reasonable
time.  The forward pass gathers the input; the weight gradient reuses
those cached columns; the input gradient and the transposed
convolution, which are the same adjoint, gather the upstream in a
sub-pixel (per-stride-phase) decomposition instead of scattering
columns back with col2im (DESIGN.md §3b).  ``col2im`` remains only for
the pooling backward passes.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple, Union

import numpy as np

from repro.backend import ops as _backend_ops
from repro.obs import profiler as _profiler
from repro.obs.profiler import conv2d_flops, conv_transpose2d_flops
from repro.workspace import Workspace

from .tensor import Tensor, is_grad_enabled

IntPair = Union[int, Tuple[int, int]]

#: Module-level scratch arena for the convolution gathers.  Only the
#: *inference* path draws from it: with autograd enabled the forward
#: columns are cached in the backward closure (so the weight gradient
#: never recomputes im2col) and must therefore own their memory, while
#: in eval mode ``Tensor._make`` drops the closure and the columns (and
#: the upstream gather of a transposed convolution) can safely live in
#: reused scratch.
_WORKSPACE = Workspace()


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def im2col(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int],
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """Lower image patches to columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel, stride, padding:
        Spatial convolution geometry.
    out:
        Optional preallocated ``(N, C * KH * KW, OH * OW)`` destination
        (e.g. a workspace buffer); the patch gather is written into it
        instead of allocating.

    Returns
    -------
    ndarray of shape ``(N, C * KH * KW, OH * OW)``.

    The implementation lives in :mod:`repro.backend.ops` (shared,
    array-module-generic); this wrapper pins it to host numpy.
    """
    return _backend_ops.im2col(np, x, kernel, stride, padding, out=out)


def col2im(cols: np.ndarray, image_shape: Tuple[int, int, int, int],
           kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int]) -> np.ndarray:
    """Scatter-add columns back into an image (adjoint of :func:`im2col`).

    Only the pooling backward passes use it; convolutions never scatter.
    """
    return _backend_ops.col2im(np, cols, image_shape, kernel, stride, padding)


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
def _phase_weight(weight: np.ndarray, stride: Tuple[int, int],
                  taps: Tuple[int, int]) -> np.ndarray:
    """Stack ``weight`` ``(F, C, KH, KW)`` by output phase.

    Row ``(rh, rw, c)``, column ``(f, uh, uw)`` holds
    ``weight[f, c, rh + sh * (TH - 1 - uh), rw + sw * (TW - 1 - uw)]``:
    the taps of phase ``r`` in reversed order, zero past the kernel.
    """
    f, c, kh, kw = weight.shape
    (sh, sw), (th, tw) = stride, taps
    padded = np.zeros((f, c, th * sh, tw * sw), dtype=weight.dtype)
    padded[:, :, :kh, :kw] = weight
    phased = padded.reshape(f, c, th, sh, tw, sw)[:, :, ::-1, :, ::-1, :]
    return phased.transpose(3, 5, 1, 0, 2, 4).reshape(sh * sw * c,
                                                      f * th * tw)


def _conv2d_adjoint(grad: np.ndarray, weight: np.ndarray,
                    size: Tuple[int, int], stride: Tuple[int, int],
                    padding: Tuple[int, int]) -> np.ndarray:
    """Adjoint of :func:`conv2d` with respect to its input.

    ``grad`` ``(N, F, OH, OW)`` is mapped through ``weight``
    ``(F, C, KH, KW)`` to an ``(N, C, *size)`` image, with no scatter:
    each output phase ``r`` (position ``≡ r`` mod stride in the padded
    frame) only meets the taps ``r + stride * t``, so all phases are one
    gather of ``grad`` with a ``T×T`` window at stride 1 and one GEMM
    against :func:`_phase_weight`; a depth-to-space copy interleaves the
    phases and a crop removes the padding.  Derivation in DESIGN.md §3b.
    """
    n, f, oh, ow = grad.shape
    c = weight.shape[1]
    taps, starts, counts, leads = [], [], [], []
    for x, k, s, p in zip(size, weight.shape[2:], stride, padding):
        t = -(-k // s)                       # taps per phase, ceil(k/s)
        q0 = p // s                          # first coarse row kept
        taps.append(t)
        starts.append(p - s * q0)            # crop inside the interleave
        counts.append(-(-(x + p) // s) - q0)
        leads.append(t - 1 - q0)             # front zero rows (or cut)
    (th, tw), (qh, qw) = taps, counts
    # Upstream placed in a zero frame of (Q + T - 1) rows and columns:
    # frame row m holds grad row m - lead.
    frame = np.zeros((n, f, qh + th - 1, qw + tw - 1), dtype=grad.dtype)
    src, dst = [], []
    for o, lead, length in zip((oh, ow), leads, frame.shape[2:]):
        lo, hi = max(lead, 0), min(lead + o, length)
        src.append(slice(lo - lead, hi - lead))
        dst.append(slice(lo, hi))
    frame[:, :, dst[0], dst[1]] = grad[:, :, src[0], src[1]]
    scratch = None
    if not is_grad_enabled():
        scratch = _WORKSPACE.get(("adjoint.cols", n, f * th * tw, qh * qw),
                                 (n, f * th * tw, qh * qw), frame.dtype)
    cols = im2col(frame, (th, tw), (1, 1), (0, 0), out=scratch)
    phased = np.matmul(_phase_weight(weight, stride, (th, tw)), cols)
    sh, sw = stride
    full = phased.reshape(n, sh, sw, c, qh, qw).transpose(
        0, 3, 4, 1, 5, 2).reshape(n, c, qh * sh, qw * sw)
    (ch, cw), (xh, xw) = starts, size
    return full[:, :, ch:ch + xh, cw:cw + xw]


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: IntPair = 1, padding: IntPair = 0) -> Tensor:
    """2-D cross-correlation over NCHW input.

    ``weight`` has shape ``(out_channels, in_channels, KH, KW)``.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    f, c_w, kh, kw = weight.shape
    if c != c_w:
        raise ValueError(f"input channels {c} != weight channels {c_w}")

    prof = _profiler.ACTIVE
    started = time.perf_counter() if prof is not None else 0.0
    oh = (h + 2 * padding[0] - kh) // stride[0] + 1
    ow = (w + 2 * padding[1] - kw) // stride[1] + 1
    # With grad enabled the columns are closed over below so the weight
    # gradient reuses them instead of re-running im2col; they must own
    # their memory.  In eval mode the closure is dropped and the gather
    # can target reused workspace scratch.
    scratch = None
    if not is_grad_enabled():
        scratch = _WORKSPACE.get(("conv2d.cols", n, c * kh * kw, oh * ow),
                                 (n, c * kh * kw, oh * ow), x.data.dtype)
    cols = im2col(x.data, (kh, kw), stride, padding, out=scratch)
    w_flat = weight.data.reshape(f, -1)               # (F, C*KH*KW)
    out = w_flat @ cols                               # (N, F, L)
    out = out.reshape(n, f, oh, ow)
    if bias is not None:
        out = out + bias.data.reshape(1, f, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        # Each product runs only for a parent that takes a gradient
        # (detached inputs and network inputs do not).
        grads = [None, None]
        if x.requires_grad:
            grads[0] = _conv2d_adjoint(grad, weight.data, (h, w), stride,
                                       padding)
        if weight.requires_grad:
            # Batched GEMM (einsum here would bypass BLAS) against the
            # cached forward columns, summed over the batch.
            grad_flat = np.ascontiguousarray(grad.reshape(n, f, -1))
            grads[1] = np.matmul(grad_flat, cols.transpose(0, 2, 1)
                                 ).sum(axis=0).reshape(weight.shape)
        if bias is not None:
            grads.append(grad.sum(axis=(0, 2, 3))
                         if bias.requires_grad else None)
        return tuple(grads)

    if prof is not None:
        prof.record("conv2d", time.perf_counter() - started,
                    flops=conv2d_flops(n, c, f, oh, ow, kh, kw,
                                       bias=bias is not None),
                    nbytes=out.nbytes)
        backward = prof.wrap_backward("conv2d", backward)
    return Tensor._make(out, parents, backward)


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
                     stride: IntPair = 1, padding: IntPair = 0,
                     output_padding: IntPair = 0) -> Tensor:
    """2-D transposed convolution (deconvolution).

    ``weight`` has shape ``(in_channels, out_channels, KH, KW)`` following
    the PyTorch convention; the forward pass of this op is the gradient of
    :func:`conv2d` with respect to its input, which is exactly the
    "decoder operates in an opposite way" architecture of the paper's
    generator (Section 3.1).
    """
    stride = _pair(stride)
    padding = _pair(padding)
    output_padding = _pair(output_padding)
    n, c, h, w = x.shape
    c_w, f, kh, kw = weight.shape
    if c != c_w:
        raise ValueError(f"input channels {c} != weight channels {c_w}")
    oh = (h - 1) * stride[0] - 2 * padding[0] + kh + output_padding[0]
    ow = (w - 1) * stride[1] - 2 * padding[1] + kw + output_padding[1]

    prof = _profiler.ACTIVE
    started = time.perf_counter() if prof is not None else 0.0
    out = _conv2d_adjoint(x.data, weight.data, (oh, ow), stride, padding)
    if bias is not None:
        out = out + bias.data.reshape(1, f, 1, 1)
    else:
        out = np.ascontiguousarray(out)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grads = [None, None]
        if x.requires_grad or weight.requires_grad:
            grad_cols = im2col(grad, (kh, kw), stride, padding)  # (N, F*KH*KW, L)
            if x.requires_grad:
                grads[0] = np.matmul(weight.data.reshape(c, f * kh * kw),
                                     grad_cols).reshape(n, c, h, w)
            if weight.requires_grad:
                grads[1] = np.matmul(x.data.reshape(n, c, h * w),
                                     grad_cols.transpose(0, 2, 1)
                                     ).sum(axis=0).reshape(weight.shape)
        if bias is not None:
            grads.append(grad.sum(axis=(0, 2, 3))
                         if bias.requires_grad else None)
        return tuple(grads)

    if prof is not None:
        prof.record("deconv2d", time.perf_counter() - started,
                    flops=conv_transpose2d_flops(n, c, h, w, f, kh, kw,
                                                 oh=oh, ow=ow,
                                                 bias=bias is not None),
                    nbytes=out.nbytes)
        backward = prof.wrap_backward("deconv2d", backward)
    return Tensor._make(out, parents, backward)


# ----------------------------------------------------------------------
# Linear
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight ``(out, in)``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def avg_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling; the paper applies 8x8 average pooling to 2048px
    layout images before feeding the network (Section 4)."""
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    kh, kw = kernel
    sh, sw = stride
    n, c, h, w = x.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1

    cols = im2col(x.data, kernel, stride, (0, 0)).reshape(n, c, kh * kw, oh * ow)
    out = cols.mean(axis=2).reshape(n, c, oh, ow)

    def backward(grad):
        grad_cols = np.repeat(grad.reshape(n, c, 1, oh * ow), kh * kw, axis=2)
        grad_cols = (grad_cols / (kh * kw)).reshape(n, c * kh * kw, oh * ow)
        return (col2im(grad_cols, (n, c, h, w), kernel, stride, (0, 0)),)

    return Tensor._make(out, (x,), backward)


def max_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    kh, kw = kernel
    sh, sw = stride
    n, c, h, w = x.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1

    cols = im2col(x.data, kernel, stride, (0, 0)).reshape(n, c, kh * kw, oh * ow)
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None, :], axis=2)[:, :, 0, :]
    out = out.reshape(n, c, oh, ow)

    def backward(grad):
        grad_cols = np.zeros((n, c, kh * kw, oh * ow), dtype=grad.dtype)
        np.put_along_axis(grad_cols, argmax[:, :, None, :],
                          grad.reshape(n, c, 1, oh * ow), axis=2)
        grad_cols = grad_cols.reshape(n, c * kh * kw, oh * ow)
        return (col2im(grad_cols, (n, c, h, w), kernel, stride, (0, 0)),)

    return Tensor._make(out, (x,), backward)


def upsample_nearest2d(x: Tensor, scale: int) -> Tensor:
    """Nearest-neighbour upsampling by an integer factor."""
    scale = int(scale)
    a = x
    out = a.data.repeat(scale, axis=-2).repeat(scale, axis=-1)
    n, c, h, w = a.shape

    def backward(grad):
        g = grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        return (g,)

    return Tensor._make(out, (a,), backward)


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------
def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1,
               eps: float = 1e-5) -> Tensor:
    """Batch normalization over the channel axis of NCHW (or NC) input.

    ``running_mean`` / ``running_var`` are plain arrays updated in place
    during training, used directly in eval mode.
    """
    if x.ndim not in (2, 4):
        raise ValueError(f"batch_norm expects 2D or 4D input, got {x.ndim}D")
    # Work on an (N, C, L) view: every per-channel statistic is a
    # reduction over axes (0, 2) and broadcasts as (1, C, 1).
    n, c = x.shape[:2]
    count = x.size // c
    shape = (1, c, 1)
    data = x.data.reshape(n, c, -1)

    if training:
        mean = data.sum(axis=(0, 2)) / count
        x_hat = data - mean.reshape(shape)
        var = np.einsum("ncl,ncl->c", x_hat, x_hat) / count
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean
        unbiased = var * count / max(count - 1, 1)
        running_var *= (1.0 - momentum)
        running_var += momentum * unbiased
    else:
        var = running_var
        x_hat = data - running_mean.reshape(shape)

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat *= inv_std.reshape(shape)
    out = x_hat * gamma.data.reshape(shape)
    out += beta.data.reshape(shape)

    def backward(grad):
        grad = grad.reshape(n, c, -1)
        grad_beta = grad.sum(axis=(0, 2))
        grad_gamma = np.einsum("ncl,ncl->c", grad, x_hat)
        grad_x = None
        if x.requires_grad:
            scale = gamma.data * inv_std
            grad_x = grad * scale.reshape(shape)
            if training:
                # Through the batch statistics: the two per-channel means
                # of the textbook formula are the sums already taken for
                # beta and gamma, over ``count``.
                grad_x -= x_hat * (scale * grad_gamma / count).reshape(shape)
                grad_x -= (scale * grad_beta / count).reshape(shape)
            grad_x = grad_x.reshape(x.shape)
        return (grad_x, grad_gamma, grad_beta)

    return Tensor._make(out.reshape(x.shape), (x, gamma, beta), backward)


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def mse_loss(prediction: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Squared error; with ``reduction='sum'`` this is exactly the paper's
    squared L2 metric (Definition 1)."""
    diff = prediction - (target if isinstance(target, Tensor) else Tensor(target))
    squared = diff * diff
    if reduction == "mean":
        return squared.mean()
    if reduction == "sum":
        return squared.sum()
    if reduction == "none":
        return squared
    raise ValueError(f"unknown reduction {reduction!r}")


def l1_loss(prediction: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    diff = (prediction - (target if isinstance(target, Tensor) else Tensor(target))).abs()
    if reduction == "mean":
        return diff.mean()
    if reduction == "sum":
        return diff.sum()
    if reduction == "none":
        return diff
    raise ValueError(f"unknown reduction {reduction!r}")


def bce_loss(probability: Tensor, target: Tensor, eps: float = 1e-7,
             reduction: str = "mean") -> Tensor:
    """Binary cross-entropy on probabilities (post-sigmoid).

    The GAN objectives (Eqs. 7-8) are log-likelihood terms of exactly this
    form; ``eps`` clamping keeps ``log`` finite when the discriminator
    saturates early in training.
    """
    target = target if isinstance(target, Tensor) else Tensor(target)
    p = probability.clip(eps, 1.0 - eps)
    loss = -(target * p.log() + (1.0 - target) * (1.0 - p).log())
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")


def bce_with_logits(logits: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Numerically stable BCE on raw logits:
    ``max(z, 0) - z * t + log(1 + exp(-|z|))``."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    z = logits
    relu_z = z.relu()
    abs_z = z.abs()
    loss = relu_z - z * target + ((-abs_z).exp() + 1.0).log()
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)
