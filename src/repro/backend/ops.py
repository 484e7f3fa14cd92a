"""Array-module-generic implementations of the conv lowering primitives.

``im2col``/``col2im`` are written once against an ``xp`` array module
(``numpy`` or ``cupy``); ``repro.nn.functional``'s public
``im2col``/``col2im`` delegate here with ``xp=numpy``.  Both modules
expose the same ``pad`` / ``lib.stride_tricks.as_strided`` /
``copyto`` surface, so one implementation serves either.
"""

from __future__ import annotations

from typing import Tuple


def im2col(xp, x, kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int], out=None):
    """Lower ``(N, C, H, W)`` patches to ``(N, C*KH*KW, OH*OW)`` columns.

    ``out``, when given, receives the gather (workspace reuse); it must
    live on the same backend as ``x``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"convolution output would be empty: input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {sh}x{sw}, padding {ph}x{pw}")
    if ph or pw:
        # A zero frame plus one copy: ``xp.pad``'s generic machinery
        # costs more than the copy itself at network sizes.
        padded = xp.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = x
        x = padded
    sn, sc, sh_, sw_ = x.strides
    shape = (n, c, kh, kw, oh, ow)
    strides = (sn, sc, sh_, sw_, sh_ * sh, sw_ * sw)
    patches = xp.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    if out is not None:
        xp.copyto(out.reshape(shape), patches)
        return out
    return patches.reshape(n, c * kh * kw, oh * ow) if patches.flags.c_contiguous \
        else xp.ascontiguousarray(patches).reshape(n, c * kh * kw, oh * ow)


def col2im(xp, cols, image_shape: Tuple[int, int, int, int],
           kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int]):
    """Scatter-add columns back into an image (adjoint of :func:`im2col`)."""
    n, c, h, w = image_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    padded = xp.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        h_end = i + sh * oh
        for j in range(kw):
            w_end = j + sw * ow
            padded[:, :, i:h_end:sh, j:w_end:sw] += cols[:, :, i, j]
    if ph or pw:
        return padded[:, :, ph:h + ph, pw:w + pw]
    return padded
