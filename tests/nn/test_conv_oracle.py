"""Convolutions against a direct nested-loop oracle (no im2col).

The oracle walks every (output pixel, kernel tap) pair of the textbook
definition and accumulates one small channel product per pair, so it
shares no lowering code with :mod:`repro.nn.functional`.  Forward
passes and the input, weight and bias gradients of ``conv2d`` and
``conv_transpose2d`` must match it to 1e-12 relative in float64 and
1e-5 in float32, over strides 1-3, non-square kernels and strides,
every padding ``0..k-1``, ``output_padding``, odd sizes and single
input or output channels.
"""

import itertools

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

TOLERANCE = {np.float64: 1e-12, np.float32: 1e-5}


def _taps(in_size, out_size, kernel, stride, padding):
    """Yield ``(oy, ox, i, j, y, x)``: conv output ``(oy, ox)`` reads
    input ``(y, x)`` through tap ``(i, j)``, for every in-bounds pair."""
    for oy, ox, i, j in itertools.product(range(out_size[0]),
                                          range(out_size[1]),
                                          range(kernel[0]), range(kernel[1])):
        y = oy * stride[0] + i - padding[0]
        x = ox * stride[1] + j - padding[1]
        if 0 <= y < in_size[0] and 0 <= x < in_size[1]:
            yield oy, ox, i, j, y, x


def conv2d_oracle(x, w, b, g, stride, padding):
    """Forward output and the gradients of ``<conv2d(x), g>``."""
    (h, wd), (kh, kw) = x.shape[2:], w.shape[2:]
    oh = (h + 2 * padding[0] - kh) // stride[0] + 1
    ow = (wd + 2 * padding[1] - kw) // stride[1] + 1
    out = np.zeros((x.shape[0], w.shape[0], oh, ow))
    gx, gw = np.zeros(x.shape), np.zeros(w.shape)
    for oy, ox, i, j, y, xx in _taps((h, wd), (oh, ow), (kh, kw), stride,
                                     padding):
        out[:, :, oy, ox] += x[:, :, y, xx] @ w[:, :, i, j].T
        gx[:, :, y, xx] += g[:, :, oy, ox] @ w[:, :, i, j]
        gw[:, :, i, j] += g[:, :, oy, ox].T @ x[:, :, y, xx]
    return out + b[None, :, None, None], gx, gw, g.sum(axis=(0, 2, 3))


def conv_transpose2d_oracle(x, w, b, g, stride, padding, output_padding):
    """Forward output and the gradients of ``<conv_transpose2d(x), g>``:
    input pixel ``(iy, ix)`` adds ``x @ w[:, :, i, j]`` into output
    pixel ``(iy * s + i - p, ix * s + j - p)`` when that lies inside."""
    (h, wd), (kh, kw) = x.shape[2:], w.shape[2:]
    oh = (h - 1) * stride[0] - 2 * padding[0] + kh + output_padding[0]
    ow = (wd - 1) * stride[1] - 2 * padding[1] + kw + output_padding[1]
    out = np.zeros((x.shape[0], w.shape[1], oh, ow))
    gx, gw = np.zeros(x.shape), np.zeros(w.shape)
    # Same index relation as conv2d with the roles of the two images
    # swapped: the transposed conv's input is the conv's output.
    for iy, ix, i, j, y, xx in _taps((oh, ow), (h, wd), (kh, kw), stride,
                                     padding):
        out[:, :, y, xx] += x[:, :, iy, ix] @ w[:, :, i, j]
        gx[:, :, iy, ix] += g[:, :, y, xx] @ w[:, :, i, j].T
        gw[:, :, i, j] += x[:, :, iy, ix].T @ g[:, :, y, xx]
    return out + b[None, :, None, None], gx, gw, g.sum(axis=(0, 2, 3))


# (kernel, stride) pairs: square and non-square, strides 1-3.
GEOMETRIES = [((1, 1), (1, 1)), ((3, 3), (1, 1)), ((3, 3), (2, 2)),
              ((4, 4), (2, 2)), ((2, 2), (3, 3)), ((5, 3), (3, 2)),
              ((3, 2), (2, 1)), ((2, 5), (1, 3)), ((4, 3), (3, 3))]
# (batch, in channels, out channels, height, width): odd sizes, C=1, F=1.
SHAPES = [(2, 3, 2, 7, 6), (1, 1, 3, 9, 5), (2, 2, 1, 6, 7)]


def _cases(transposed):
    """Every padding 0..k-1 per geometry; shapes (and, for the
    transposed conv, output paddings below the stride) cycle along."""
    cases = []
    for (kernel, stride) in GEOMETRIES:
        for step in range(max(kernel)):
            padding = (step % kernel[0], step % kernel[1])
            shape = SHAPES[len(cases) % len(SHAPES)]
            extra = ((step % stride[0], (step + 1) % stride[1])
                     if transposed else (0, 0))
            cases.append(pytest.param(
                kernel, stride, padding, extra, shape,
                id=f"k{kernel}-s{stride}-p{padding}-op{extra}-{shape}"
                .replace(" ", "")))
    return cases


def _relative_error(actual, expected):
    return np.abs(actual - expected).max() / max(np.abs(expected).max(),
                                                 1e-300)


def _check(op, oracle, x_data, w_data, b_data, dtype, rng, **geometry):
    x = Tensor(x_data.astype(dtype), requires_grad=True)
    w = Tensor(w_data.astype(dtype), requires_grad=True)
    b = Tensor(b_data.astype(dtype), requires_grad=True)
    out = op(x, w, b, **geometry)
    g = rng.normal(size=out.shape)
    out.backward(g.astype(dtype))
    expected = oracle(x_data, w_data, b_data, g, *geometry.values())
    tol = TOLERANCE[dtype]
    for name, actual, reference in zip(("out", "x", "weight", "bias"),
                                       (out.data, x.grad, w.grad, b.grad),
                                       expected):
        assert actual.dtype == dtype, name
        assert actual.shape == reference.shape, name
        assert _relative_error(actual, reference) < tol, name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kernel,stride,padding,_,shape", _cases(False))
def test_conv2d_matches_loop_oracle(kernel, stride, padding, _, shape,
                                    dtype, rng):
    n, c, f, h, w = shape
    _check(F.conv2d, conv2d_oracle, rng.normal(size=(n, c, h, w)),
           rng.normal(size=(f, c) + kernel), rng.normal(size=f), dtype,
           rng, stride=stride, padding=padding)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kernel,stride,padding,output_padding,shape",
                         _cases(True))
def test_conv_transpose2d_matches_loop_oracle(kernel, stride, padding,
                                              output_padding, shape, dtype,
                                              rng):
    n, c, f, h, w = shape
    _check(F.conv_transpose2d, conv_transpose2d_oracle,
           rng.normal(size=(n, c, h, w)), rng.normal(size=(c, f) + kernel),
           rng.normal(size=f), dtype, rng, stride=stride, padding=padding,
           output_padding=output_padding)


def test_cases_cover_the_stated_ranges():
    """The parametrization above really spans what the docstring says."""
    conv = [p.values for p in _cases(False)]
    deconv = [p.values for p in _cases(True)]
    assert {s for _, s, *_ in conv} >= {(1, 1), (2, 2), (3, 3), (3, 2)}
    assert any(k[0] != k[1] for k, *_ in conv)
    for kernel, _, padding, *_ in conv:
        assert 0 <= padding[0] < kernel[0] and 0 <= padding[1] < kernel[1]
    for kernel in {k for k, *_ in conv}:
        paddings = {p for k, _, p, *_ in conv if k == kernel}
        assert {p[0] for p in paddings} == set(range(kernel[0]))
    assert any(op != (0, 0) for *_, op, _ in deconv)
    shapes = {shape for *_, shape in conv}
    assert any(c == 1 for _, c, *_ in shapes)
    assert any(f == 1 for _, _, f, *_ in shapes)
    assert any(h % 2 or w % 2 for *_, h, w in shapes)
