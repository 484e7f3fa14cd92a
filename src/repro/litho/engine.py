"""Unified Hopkins forward/adjoint engine (Eqs. 1-3, 11-14).

Every workload in the repo — forward simulation, the ILT baseline,
Algorithm 2 pre-training, the Fig. 6 refinement stage and the Table 2
benchmarks — bottoms out in the same two FFT pipelines:

* **forward** (Eq. 2): ``I = sum_k w_k |IFFT(FFT(M) * H_k)|^2`` followed
  by a hard or sigmoid resist (Eqs. 3, 12);
* **adjoint** (Eq. 14): the chain-rule gradient of the relaxed litho
  error ``E = ||Z_t - Z||^2`` back through the resist and the coherent
  systems onto the mask.

:class:`LithoEngine` is the one implementation of both.  It accepts
single ``(H, W)`` masks and batched ``(N, H, W)`` stacks through a
single code path and caches derived kernel tensors at construction.
Nominal and process-window gradients share one resist epilogue over a
corner tensor ``(n, N, C, N)`` (:meth:`LithoEngine._epilogue`); the
nominal engine is its ``C = 1`` case.

The kernels are bandlimited by the pupil cutoff: at grid 64 each
``H_k`` is exactly zero outside a 13x13 block of frequency rows and
columns (25x25 at grid 128).  The mask is real, so for a kernel
``h = a + i b`` the coherent intensity is
``|m (x) h|^2 = (m (x) a)^2 + (m (x) b)^2``; the engine rotates
``(a, b)`` onto their principal axes and keeps the minor one only when
it carries at least ``eps_f64`` of the energy, so every focus kernel
becomes one *real* kernel and every defocused one two.  With real
kernels every field is real and every spectrum in the pipeline is
Hermitian, so the DFTs run on the ``v >= 0`` half of the passband
columns.  Every per-kernel step then runs on a small *coarse* grid
(:class:`_HopkinsStage`): the fields only hold passband frequencies,
so the intensity and the adjoint product only hold their
differences, and an ``M x M`` grid with ``M = 2 D + 1`` (``D`` the
passband's signed span; ``M`` is 25 at grid 64 and 49 at grid 128)
represents both without aliasing.  All kernels run as one folded GEMM
pair per direction (a complex one over the passband rows, a real one
over the half columns, fields ``(n, M, J, M)`` real); one real
Dirichlet interpolation maps the intensity back to the mask grid, and
its transpose projects the upstream gradient onto the coarse grid.
The work that touches the full grid happens once per call, not once
per kernel.  Results match the plain ``fft2`` reference to ~1e-14
relative (DESIGN.md §3a).

Two single-process fast paths are built in:

* **precision mode** — ``precision="f32"`` runs the whole pipeline in
  ``float32``/``complex64`` (kernels, DFT factors, fields, resist),
  roughly halving memory traffic; ``"f64"`` (the default, also
  selectable via ``REPRO_PRECISION``) remains the bit-parity
  reference.  Documented f32 tolerance: relaxed litho error within
  1e-3 of the f64 value on normalized masks (see DESIGN.md §10).
* **workspace arena** — per-engine scratch buffers
  (:class:`repro.workspace.Workspace`) are reused across iterations
  for every intermediate that does not escape the call: field
  tensors, compact spectra, adjoint accumulators.  Arrays returned to
  callers are always freshly allocated.

Engines are cheap but not free (building them reads the
``O(K * H * W)`` kernel tensor and lowers it to real kernels), so
:meth:`LithoEngine.for_kernels` memoizes one engine per
(:class:`~repro.litho.kernels.KernelSet`, precision) pair — the
facades in :mod:`repro.litho.aerial`, :mod:`repro.litho.simulator` and
:mod:`repro.ilt` all share it automatically.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.obs import trace
from repro.obs.registry import MetricsRegistry
from repro.workspace import Workspace

from .conditions import ConditionSet
from .config import LithoConfig
from .kernels import KernelSet, build_kernels
from .resist import (binarize_mask, hard_resist, sigmoid_mask,
                     _stable_sigmoid, _stable_sigmoid_into)

ArrayOrScalar = Union[float, np.ndarray]

#: precision name -> (real dtype, complex dtype)
PRECISION_DTYPES: Dict[str, Tuple[np.dtype, np.dtype]] = {
    "f64": (np.dtype(np.float64), np.dtype(np.complex128)),
    "f32": (np.dtype(np.float32), np.dtype(np.complex64)),
}

_PRECISION_ALIASES = {
    "f64": "f64", "float64": "f64", "double": "f64",
    "f32": "f32", "float32": "f32", "single": "f32",
}


def resolve_precision(precision: Optional[str]) -> str:
    """Normalize a precision name; ``None`` consults ``REPRO_PRECISION``
    and falls back to ``"f64"``."""
    if precision is None:
        precision = os.environ.get("REPRO_PRECISION") or "f64"
    key = str(precision).strip().lower()
    if key not in _PRECISION_ALIASES:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of "
            f"{sorted(set(_PRECISION_ALIASES))}")
    return _PRECISION_ALIASES[key]


class EngineStats:
    """Cumulative call counters and wall-clock for one engine instance.

    A facade over the engine's :class:`~repro.obs.MetricsRegistry` —
    the counters live in the registry (under ``litho.*`` names) and
    this class preserves the historic attribute / ``snapshot()`` /
    ``delta()`` API on top of them.

    ``forward_*`` counts executions of the *public* aerial-intensity
    pipeline only; the forward pass nested inside each adjoint
    evaluation is attributed to ``gradient_*`` instead, so
    ``forward_seconds`` and ``gradient_seconds`` partition engine
    compute time with no double-counting, and the call counters
    reconcile 1:1 with the ``litho.forward`` / ``litho.adjoint`` span
    counts of an active tracer.  ``*_masks`` accumulate batch sizes,
    so throughput is ``masks / seconds``.  The run telemetry records
    per-iteration deltas of :meth:`snapshot`.
    """

    _INT_FIELDS = ("forward_calls", "forward_masks",
                   "gradient_calls", "gradient_masks")
    _FLOAT_FIELDS = ("forward_seconds", "gradient_seconds")
    _FIELDS = _INT_FIELDS + _FLOAT_FIELDS

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {name: self.registry.counter(f"litho.{name}")
                          for name in self._FIELDS}
        self._counter_items = tuple(self._counters.items())
        # (baseline, flat (name, counter, baseline value) triples) for
        # the last baseline :meth:`since` read against.
        self._since_memo: Tuple[Optional[Dict[str, float]], tuple] = (None, ())

    def __getattr__(self, name: str):
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            value = counters[name].value
            return int(value) if name in self._INT_FIELDS else value
        raise AttributeError(name)

    def record_forward(self, masks: int, seconds: float) -> None:
        self._counters["forward_calls"].inc()
        self._counters["forward_masks"].inc(masks)
        self._counters["forward_seconds"].inc(seconds)

    def record_gradient(self, masks: int, seconds: float) -> None:
        self._counters["gradient_calls"].inc()
        self._counters["gradient_masks"].inc(masks)
        self._counters["gradient_seconds"].inc(seconds)

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict copy (for telemetry deltas and assertions)."""
        return {name: getattr(self, name) for name in self._FIELDS}

    def delta(self, previous: Dict[str, float]) -> Dict[str, float]:
        """Per-field difference against an earlier :meth:`snapshot`."""
        now = self.snapshot()
        return {key: now[key] - previous.get(key, 0) for key in now}

    def since(self, baseline: Dict[str, float],
              earlier: Optional[Dict[str, float]] = None
              ) -> Dict[str, float]:
        """Float per-field increase over ``baseline``, read straight
        from the counters: the cheap form of :meth:`delta` (no int
        conversion) for the worker pool's per-task bookkeeping.

        With ``earlier`` (a previous reading over the same baseline, or
        an empty dict for "nothing read yet") the result is the
        increase since that reading, built in the same pass that reads
        the counters.
        A baseline is read once and must not change afterwards: its
        values are paired with the counters on first use and reused
        while the same dict comes back.
        """
        memo = self._since_memo
        if memo[0] is not baseline:
            memo = self._since_memo = (baseline, tuple(
                item for name, counter in self._counter_items
                for item in (name, counter, baseline[name])))
        # One dict display per reading, with no comprehension frame:
        # this runs twice per worker-pool task.
        (n0, c0, b0, n1, c1, b1, n2, c2, b2,
         n3, c3, b3, n4, c4, b4, n5, c5, b5) = memo[1]
        if earlier:
            return {n0: c0.value - b0 - earlier[n0],
                    n1: c1.value - b1 - earlier[n1],
                    n2: c2.value - b2 - earlier[n2],
                    n3: c3.value - b3 - earlier[n3],
                    n4: c4.value - b4 - earlier[n4],
                    n5: c5.value - b5 - earlier[n5]}
        return {n0: c0.value - b0, n1: c1.value - b1, n2: c2.value - b2,
                n3: c3.value - b3, n4: c4.value - b4, n5: c5.value - b5}

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()


def real_spectrum(masks: np.ndarray) -> np.ndarray:
    """Full complex FFT of a real mask (stack) via ``rfft2``.

    Computes the half-spectrum with a real-input transform and expands
    it to the full FFT grid using Hermitian symmetry
    ``F[-u, -v] = conj(F[u, v])`` — the full grid is needed because the
    coherent kernels ``H_k`` are not Hermitian, so the field spectra
    ``FFT(M) * H_k`` cannot stay in half-spectrum form.
    """
    masks = np.asarray(masks, dtype=float)
    grid = masks.shape[-1]
    half = np.fft.rfft2(masks, axes=(-2, -1))
    n_half = half.shape[-1]
    full = np.empty(masks.shape[:-2] + (grid, grid), dtype=complex)
    full[..., :n_half] = half
    rows = (-np.arange(grid)) % grid
    cols = grid - np.arange(n_half, grid)
    full[..., n_half:] = np.conj(half[..., rows, :][..., cols])
    return full


def _dft_factor(a: np.ndarray, b: np.ndarray, sign: int, scale: float,
                grid: int, cdtype: np.dtype) -> np.ndarray:
    """DFT factor matrix ``exp(sign * 2j*pi/grid * a b^T) * scale``.

    The integer phase ``a b`` is reduced modulo ``grid`` before the
    exponential, so the argument stays in ``[0, 2 pi)`` and the factor
    is accurate to a few ulp at any grid size.
    """
    phase = np.outer(a, b) % grid
    return (np.exp(sign * 2j * np.pi / grid * phase) * scale).astype(cdtype)


def _support(kernels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Frequency rows and columns where any kernel is nonzero."""
    rows = np.where(np.any(kernels != 0, axis=(0, 2)))[0]
    cols = np.where(np.any(kernels != 0, axis=(0, 1)))[0]
    return rows, cols


def _signed(indices: np.ndarray, grid: int) -> np.ndarray:
    """FFT bin indices as signed frequencies in ``(-grid/2, grid/2]``."""
    return np.where(2 * indices <= grid, indices, indices - grid)


def _ri_columns(factor: np.ndarray, rdtype: np.dtype) -> np.ndarray:
    """A complex ``(a, b)`` factor as a real ``(a, 2 b)`` one with
    interleaved (re, im) columns: a real operand times it is the
    complex product's float view."""
    return np.ascontiguousarray(factor.view(np.float64), dtype=rdtype)


def _re_rows(factor: np.ndarray, mult: np.ndarray,
             rdtype: np.dtype) -> np.ndarray:
    """A complex ``(a, b)`` factor as a real ``(2 a, b)`` one with
    interleaved ``(c Re, -c Im)`` rows: a complex operand's float view
    times it is ``Re(operand @ (c * factor))``."""
    ri = np.empty((2 * len(factor), factor.shape[1]))
    ri[0::2] = mult[:, None] * factor.real
    ri[1::2] = -mult[:, None] * factor.imag
    return ri.astype(rdtype)


def _real_kernels(freq: np.ndarray, rows: np.ndarray, cols: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Lower complex kernels to real spatial kernels on a passband block.

    For a real mask ``m`` and a kernel ``h = a + i b``,
    ``|m (x) h|^2 = (m (x) a)^2 + (m (x) b)^2``, and any rotation of
    ``(a, b)`` leaves that sum unchanged.  Rotating onto the principal
    axes of their 2x2 Gram matrix (computed by Parseval on the block)
    puts all but a rounding-level share of a focus kernel's energy on
    one axis; the minor axis is kept only when it carries at least
    ``eps_f64`` of the kernel's energy.  ``rows``/``cols`` must be
    closed under negation modulo the grid, so the spectra ``A``, ``B``
    of ``a``, ``b`` live on the same block as ``H``.

    Returns ``(spectra, parent)``: the real kernels' spectra
    ``(J, P, Pc)`` (each Hermitian, ``R(-f) = conj(R(f))``) and, per
    real kernel, the index of the complex kernel it came from, in
    order — each real kernel takes its parent's weight.
    """
    grid = freq.shape[-1]
    block = freq[:, rows[:, None], cols[None, :]]
    mirrored = np.conj(
        freq[:, ((-rows) % grid)[:, None], ((-cols) % grid)[None, :]])
    parts = np.stack([0.5 * (block + mirrored),        # FFT(Re h)
                      -0.5j * (block - mirrored)], 1)  # FFT(Im h)
    gram = np.real(np.einsum("kapq,kbpq->kab", parts, np.conj(parts)))
    energy, axes = np.linalg.eigh(gram)                # ascending
    keep = energy[:, 0] >= np.finfo(np.float64).eps * energy.sum(axis=1)
    spectra, parent = [], []
    for k in range(len(freq)):
        for axis in ((1, 0) if keep[k] else (1,)):
            spectra.append(np.tensordot(axes[k, :, axis], parts[k], 1))
            parent.append(k)
    return np.array(spectra), np.array(parent, dtype=int)


class _HopkinsStage:
    """The per-kernel Hopkins work: real kernels on an alias-free
    coarse grid, Hermitian half-spectrum DFTs.

    The complex kernels are first lowered to real ones
    (:func:`_real_kernels`), so every coherent field
    ``G_j = m (x) r_j`` is real and the aerial image is
    ``sum_j w_j G_j^2``.  Each ``G_j`` is bandlimited to the kernel
    passband (``P`` signed frequencies per axis spanning
    ``D = max - min``), so the image only holds difference frequencies
    ``|d| <= D``.  Sampling the fields on an ``M x M`` grid with
    ``M = 2 D + 1`` therefore represents it exactly; one real Dirichlet
    interpolation ``I = U Ic U^T`` carries it back to the ``N x N``
    mask grid.  The adjoint is the transpose: the upstream ``dE/dI`` is
    projected onto the same difference band (``(M/N)^2 U^T g U``),
    multiplied by ``G_j`` on the coarse grid and transformed onto the
    passband, where no product term can alias because every frequency
    involved lies within ``2 D < M`` of the target bin; the adjoint
    kernel is ``2 w_j conj(R_j)``.  DESIGN.md §3a has the derivation.

    Every spectrum in the stage is Hermitian, so only the ``v >= 0``
    half of the passband columns (``Ph`` of them) is computed; the
    real column transforms weight column ``v`` by its multiplicity
    ``c_v`` (1 at ``v = 0`` and at a Nyquist column, else 2).  All
    ``J`` real kernels run as one folded GEMM pair per direction: a
    complex one over the rows and a real one over the half columns.
    The kernel axis sits between the two coarse spatial axes (fields
    are real ``(n, M, J, M)``), so neither direction needs a transpose
    copy.  Kernels may be split into contiguous *groups* (the
    condition stack's defocus planes); the intensity comes back per
    group as ``(n, N, G, N)`` and the adjoint takes a per-group
    upstream of the same layout.  When ``M`` would not be smaller than
    ``N`` (or the passband reaches ``N/2``) the stage runs on the full
    grid itself with ``U = I``.

    ``coarse`` overrides ``M`` (tests use it to show ``M - 1`` aliases);
    ``tag`` namespaces the stage's workspace buffers.
    """

    def __init__(self, freq: np.ndarray, weights: np.ndarray,
                 group_sizes: List[int], rdtype: np.dtype, cdtype: np.dtype,
                 tag: str, coarse: Optional[int] = None):
        grid = freq.shape[-1]
        self.grid, self.tag = grid, tag
        self.rdtype, self.cdtype = rdtype, cdtype
        rows, cols = _support(freq)
        self.rows = rows = np.union1d(rows, (-rows) % grid)
        self.cols = cols = np.union1d(cols, (-cols) % grid)
        spectra, parent = _real_kernels(freq, rows, cols)
        weights = np.asarray(weights)[parent]
        num_kernels = len(weights)
        group_of = np.repeat(np.arange(len(group_sizes)), group_sizes)
        self.num_kernels, self.num_groups = num_kernels, len(group_sizes)

        # The v >= 0 half of the passband columns and its Hermitian
        # multiplicities (a Nyquist column is its own mirror).
        s_rows, s_cols = _signed(rows, grid), _signed(cols, grid)
        half = s_cols >= 0
        half_cols, s_half = cols[half], s_cols[half]
        mult = np.where((s_half == 0) | (2 * s_half == grid), 1.0, 2.0)

        # Compact kernels in ``(P, J, Ph)`` layout; the adjoint ones are
        # ``2 w_j conj(R_j)`` (Eq. 14).
        spectra = spectra[:, :, half]
        self.freq_t = np.ascontiguousarray(spectra.transpose(1, 0, 2),
                                           dtype=cdtype)
        self.adj_t = np.ascontiguousarray(
            ((2.0 * weights)[:, None, None] * np.conj(spectra))
            .transpose(1, 0, 2), dtype=cdtype)
        # The defocus group of each real kernel.
        self.kernel_group = group_of[parent]
        group_weights = np.zeros((self.num_groups, num_kernels))
        group_weights[self.kernel_group, np.arange(num_kernels)] = weights
        self.group_weights = group_weights.astype(rdtype)

        # Coarse size: the smallest grid holding every difference
        # frequency of the passband.
        span = max(int(s.max() - s.min()) for s in (s_rows, s_cols))
        reaches_nyquist = bool(np.any(2 * s_rows == grid)
                               or np.any(2 * s_cols == grid))
        if coarse is None:
            coarse = 2 * span + 1
        if coarse >= grid or reaches_nyquist:
            coarse = grid
        self.coarse = coarse

        # Mask spectrum on the half passband from a *real* mask: the
        # column DFT is a real GEMM against interleaved (re, im) columns
        # whose output views as complex, then one thin complex GEMM.
        x = np.arange(grid)
        self.spec_row = _dft_factor(rows, x, -1, 1.0, grid, cdtype)
        self.spec_col_ri = _ri_columns(
            _dft_factor(x, half_cols, -1, 1.0, grid, np.complex128), rdtype)
        # Passband -> coarse-grid inverse DFT (1/N per axis, as on the
        # full grid), and coarse grid -> passband forward DFT.  The
        # latter's exact scale, N/M per axis, cancels the (M/N)^2 of the
        # upstream projection, so neither is applied.  The column
        # inverses keep the real part of a Hermitian sum.
        j = np.arange(coarse)
        self.inv_row = _dft_factor(j, s_rows, +1, 1.0 / grid, coarse, cdtype)
        self.inv_col_ri = _re_rows(
            _dft_factor(s_half, j, +1, 1.0 / grid, coarse, np.complex128),
            mult, rdtype)
        self.fwd_row = _dft_factor(s_rows, j, -1, 1.0, coarse, cdtype)
        self.fwd_col_ri = _ri_columns(
            _dft_factor(j, s_half, -1, 1.0, coarse, np.complex128), rdtype)
        # Passband -> full grid, real part only.
        self.grad_row = _dft_factor(x, rows, +1, 1.0 / grid, grid, cdtype)
        self.grad_col_ri = _re_rows(
            _dft_factor(half_cols, x, +1, 1.0 / grid, grid, np.complex128),
            mult, rdtype)

        if coarse < grid:
            # Dirichlet interpolation over the difference band |d| <= D.
            d = np.arange(-span, span + 1)
            interp = np.real(
                _dft_factor(x, d, +1, 1.0, grid, np.complex128)
                @ _dft_factor(d, j, -1, 1.0 / coarse, coarse,
                              np.complex128))
            self.interp = interp.astype(rdtype)
            self.interp_t = np.ascontiguousarray(interp.T, dtype=rdtype)
        else:
            self.interp = self.interp_t = None

        # Batched-gradient chunk: cap the coarse field tensor of one
        # chunk at ~2 MB so the stage's working set (a few tensors that
        # size) stays cache-resident.  Measured on one core, f64, 32
        # masks: 8 MB chunks ran 18% (64 px) to 30% (128 px) slower
        # per sample than 2 MB ones.
        bytes_per_sample = num_kernels * coarse * coarse * rdtype.itemsize
        self.gradient_chunk = max(1, (2 << 20) // bytes_per_sample)

    def spectrum(self, ws: Workspace, batch: np.ndarray) -> np.ndarray:
        """Mask spectrum on the half passband, ``(n, P, Ph)``."""
        n, grid = batch.shape[0], self.grid
        n_rows, n_half = self.freq_t.shape[0], self.freq_t.shape[2]
        with trace.span("litho.spectrum", masks=n):
            half = np.matmul(
                batch, self.spec_col_ri,
                out=ws.get(self.tag + "spec.half", (n, grid, 2 * n_half),
                           self.rdtype))
            return np.matmul(
                self.spec_row, half.view(self.cdtype),
                out=ws.get(self.tag + "spec.compact", (n, n_rows, n_half),
                           self.cdtype))

    def forward(self, ws: Workspace, batch: np.ndarray,
                out: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, np.ndarray]:
        """``(intensity, fields)``: per-group aerial images
        ``(n, N, G, N)`` and real coarse fields ``(n, M, J, M)``.

        Fields always live in the workspace; the intensity is written
        to ``out`` (shape ``(n, N, G * N)``) when given, else to the
        workspace.
        """
        n, grid, coarse = batch.shape[0], self.grid, self.coarse
        n_rows, num_kernels, n_half = self.freq_t.shape
        groups = self.num_groups
        ws_get, tag = ws.get, self.tag
        compact = self.spectrum(ws, batch)
        product = ws_get(tag + "fwd.product",
                         (n, n_rows, num_kernels, n_half), self.cdtype)
        np.multiply(compact[:, :, None, :], self.freq_t, out=product)
        by_rows = np.matmul(
            self.inv_row, product.reshape(n, n_rows, num_kernels * n_half),
            out=ws_get(tag + "fwd.rows", (n, coarse, num_kernels * n_half),
                       self.cdtype))
        fields = np.matmul(
            by_rows.view(self.rdtype).reshape(n, coarse * num_kernels,
                                              2 * n_half),
            self.inv_col_ri,
            out=ws_get(tag + "fwd.fields", (n, coarse * num_kernels, coarse),
                       self.rdtype)).reshape(n, coarse, num_kernels, coarse)

        # sum_j w_j G_j^2 per group: square, then contract the kernel
        # axis.
        squared = ws_get(tag + "fwd.squared", fields.shape, self.rdtype)
        np.multiply(fields, fields, out=squared)
        if out is None:
            out = ws_get(tag + "fwd.intensity", (n, grid, groups * grid),
                         self.rdtype)
        if self.interp is None:  # clamped: the coarse grid is the grid
            coarse_intensity = out.reshape(n, grid, groups, grid)
        else:
            coarse_intensity = ws_get(tag + "fwd.coarse",
                                      (n, coarse, groups, coarse),
                                      self.rdtype)
        np.matmul(self.group_weights, squared, out=coarse_intensity)
        if self.interp is not None:
            right = np.matmul(
                coarse_intensity.reshape(n, coarse * groups, coarse),
                self.interp_t,
                out=ws_get(tag + "fwd.right", (n, coarse * groups, grid),
                           self.rdtype))
            np.matmul(self.interp, right.reshape(n, coarse, groups * grid),
                      out=out)
        return out.reshape(n, grid, groups, grid), fields

    def adjoint(self, ws: Workspace, fields: np.ndarray,
                upstream: np.ndarray) -> np.ndarray:
        """Mask gradient ``(n, N, N)`` (freshly allocated) from the
        :meth:`forward` fields and the per-group upstream ``dE/dI``
        (any array reshapeable to ``(n, N, G * N)``)."""
        n, grid, coarse = fields.shape[0], self.grid, self.coarse
        n_rows, num_kernels, n_half = self.adj_t.shape
        groups = self.num_groups
        ws_get, tag = ws.get, self.tag
        upstream = upstream.reshape(n, grid, groups * grid)
        if self.interp is None:
            coarse_up = upstream.reshape(n, coarse, groups, coarse)
        else:
            # U^T g U: the difference-band projection of dE/dI, short
            # of its (M/N)^2 scale (see ``fwd_row``).
            left = np.matmul(
                self.interp_t, upstream,
                out=ws_get(tag + "adj.left", (n, coarse, groups * grid),
                           self.rdtype))
            coarse_up = np.matmul(
                left.reshape(n, coarse * groups, grid), self.interp,
                out=ws_get(tag + "adj.coarse", (n, coarse * groups, coarse),
                           self.rdtype)).reshape(n, coarse, groups, coarse)

        # Each kernel's field times its group's upstream.
        weighted = ws_get(tag + "adj.weighted", fields.shape, self.rdtype)
        if groups > 1:
            # With ``out``, mode "raise" gathers through a temporary
            # buffer; the indices are valid, so "clip" only skips it.
            coarse_up = np.take(coarse_up, self.kernel_group, axis=2,
                                out=weighted, mode="clip")
        np.multiply(fields, coarse_up, out=weighted)
        half = np.matmul(
            weighted.reshape(n, coarse * num_kernels, coarse),
            self.fwd_col_ri,
            out=ws_get(tag + "adj.half", (n, coarse * num_kernels, 2 * n_half),
                       self.rdtype))
        spectra = np.matmul(
            self.fwd_row,
            half.view(self.cdtype).reshape(n, coarse, num_kernels * n_half),
            out=ws_get(tag + "adj.spectra",
                       (n, n_rows, num_kernels * n_half), self.cdtype)
        ).reshape(n, n_rows, num_kernels, n_half)
        spectra *= self.adj_t
        accumulated = spectra.sum(
            axis=2, out=ws_get(tag + "adj.acc", (n, n_rows, n_half),
                               self.cdtype))
        expanded = np.matmul(
            self.grad_row, accumulated,
            out=ws_get(tag + "adj.expand", (n, grid, n_half), self.cdtype))
        return np.matmul(expanded.view(self.rdtype), self.grad_col_ri)


class _Corners:
    """The process corners one :class:`_HopkinsStage` serves: corner
    ``c`` is the stage's defocus group ``group_of[c]`` at relative dose
    ``doses[c]`` with objective weight ``lam[c]`` (normalized).

    Corners sharing a defocus share that group's coherent fields; dose
    is a pure intensity scale applied afterwards.  The nominal engine's
    own corner is the case ``C = G = 1``.  ``combine`` is the weighted
    objective's ``(G, C)`` fold of corner upstreams onto groups:
    ``lam_c`` at ``(group_of[c], c)``, zero elsewhere.  ``chunk`` is
    the stage's batched-gradient chunk (its ~2 MB cache heuristic).
    """

    __slots__ = ("stage", "group_of", "gather", "doses", "lam", "combine",
                 "chunk")

    def __init__(self, stage: _HopkinsStage, group_of: np.ndarray,
                 doses: np.ndarray, lam: np.ndarray):
        num_corners, rdtype = len(group_of), stage.rdtype
        self.stage, self.chunk = stage, stage.gradient_chunk
        self.group_of = np.asarray(group_of, dtype=int)
        # Gather groups onto corners unless the group intensity already
        # is the corner tensor.
        self.gather = not num_corners == stage.num_groups == 1
        # Dose as a (C, 1) scale over the (n, N, C, N) corner tensor;
        # ``None`` when every corner is at dose 1.
        doses = np.asarray(doses, dtype=float)
        self.doses = (None if np.all(doses == 1.0)
                      else doses.astype(rdtype)[:, None])
        self.lam = np.asarray(lam).astype(rdtype)
        combine = np.zeros((stage.num_groups, num_corners))
        combine[self.group_of, np.arange(num_corners)] = lam
        self.combine = combine.astype(rdtype)


class LithoEngine:
    """Batched, cached Hopkins forward/adjoint lithography engine.

    Parameters
    ----------
    config:
        Lithography configuration; defaults to :meth:`LithoConfig.paper`
        when no kernel set is injected.
    kernels:
        Optional prebuilt :class:`KernelSet`; its config becomes the
        engine's config (and must match ``config`` when both are given).
    precision:
        ``"f64"`` (default) or ``"f32"``; ``None`` consults the
        ``REPRO_PRECISION`` environment variable.  f32 engines compute
        spectra, fields and the resist in single precision.
    conditions:
        Optional :class:`~repro.litho.conditions.ConditionSet` of
        (defocus, dose) process corners served by the ``condition_*``
        methods.  Defaults to the single nominal corner of ``config``;
        the corner kernel tensors are built lazily on first use, so
        nominal engines pay nothing.  The nominal methods (``aerial``,
        ``litho_error``, ...) always evaluate the engine's own config
        regardless of ``conditions``.

    All mask-consuming methods accept either a single ``(H, W)`` array
    or a batch ``(N, H, W)`` and return results of matching rank; error
    terms come back as a ``float`` for single masks and an ``(N,)``
    array for batches.  The ``condition_*`` methods add a corner axis
    ``C`` directly after the batch axis (or in front, for single
    masks).
    """

    def __init__(self, config: Optional[LithoConfig] = None,
                 kernels: Optional[KernelSet] = None,
                 precision: Optional[str] = None,
                 conditions: Optional[ConditionSet] = None):
        if kernels is None:
            config = config or LithoConfig.paper()
            kernels = build_kernels(config)
        elif config is not None and kernels.config != config:
            raise ValueError("injected kernels were built for a different config")
        self.config = kernels.config
        self.kernels = kernels
        self.precision = resolve_precision(precision)
        rdtype, cdtype = PRECISION_DTYPES[self.precision]
        self._rdtype, self._cdtype = rdtype, cdtype

        # The hot path: every per-kernel step runs on the coarse grid.
        self._stage = _HopkinsStage(
            kernels.freq_kernels, kernels.weights, [len(kernels.weights)],
            rdtype, cdtype, tag="")
        # The nominal stage's one corner at dose 1 (other doses build
        # theirs per call).
        self._nominal = _Corners(self._stage, [0], [1.0], [1.0])
        self._gradient_chunk = self._nominal.chunk

        if conditions is None:
            conditions = ConditionSet.nominal(
                defocus=self.config.optics.defocus)
        elif not isinstance(conditions, ConditionSet):
            raise TypeError(
                f"conditions must be a ConditionSet, got {conditions!r}")
        self.conditions = conditions
        self._condition_stack: Optional[_Corners] = None

        self.workspace = Workspace()
        self.metrics = MetricsRegistry()
        self.stats = EngineStats(self.metrics)

    # ------------------------------------------------------------------
    @classmethod
    def for_kernels(cls, kernels: KernelSet,
                    precision: Optional[str] = None) -> "LithoEngine":
        """Shared engine for a kernel set (memoized per precision on
        the instance)."""
        precision = resolve_precision(precision)
        engines = kernels.__dict__.get("_engines")
        if engines is None:
            engines = {}
            object.__setattr__(kernels, "_engines", engines)
        engine = engines.get(precision)
        if engine is None:
            engine = cls(kernels=kernels, precision=precision)
            engines[precision] = engine
        return engine

    @classmethod
    def for_conditions(cls, kernels: KernelSet, conditions: ConditionSet,
                       precision: Optional[str] = None) -> "LithoEngine":
        """Shared engine serving a condition stack (memoized per
        (conditions, precision) on the nominal kernel set).

        A single-nominal-corner stack *is* the plain engine: this
        returns the :meth:`for_kernels` instance, so C=1 results are
        bit-exact with the current nominal engine by construction.
        """
        if conditions.is_single_nominal(kernels.config.optics.defocus):
            return cls.for_kernels(kernels, precision)
        precision = resolve_precision(precision)
        engines = kernels.__dict__.get("_condition_engines")
        if engines is None:
            engines = {}
            object.__setattr__(kernels, "_condition_engines", engines)
        key = (conditions, precision)
        engine = engines.get(key)
        if engine is None:
            engine = cls(kernels=kernels, precision=precision,
                         conditions=conditions)
            engines[key] = engine
        return engine

    @property
    def grid(self) -> int:
        return self.kernels.grid

    @property
    def passband_shape(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """``((rows, cols), (rows, half_cols))``: the kernel passband
        and the ``v >= 0`` half of it the stage computes on."""
        stage = self._stage
        return ((len(stage.rows), len(stage.cols)),
                (stage.freq_t.shape[0], stage.freq_t.shape[2]))

    @property
    def num_real_kernels(self) -> int:
        """Real kernels the stage runs (one per focus kernel)."""
        return self._stage.num_kernels

    @property
    def coarse_grid(self) -> int:
        """Side ``M`` of the coarse grid the per-kernel work runs on
        (``grid`` itself when the passband is too wide to shrink)."""
        return self._stage.coarse

    @property
    def threshold(self) -> float:
        return self.config.threshold

    # ------------------------------------------------------------------
    def _as_batch(self, masks: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Promote a mask or mask stack to ``(N, grid, grid)``."""
        masks = np.asarray(masks)
        if masks.dtype != self._rdtype:
            masks = masks.astype(self._rdtype)
        single = masks.ndim == 2
        if single:
            masks = masks[None]
        if masks.ndim != 3 or masks.shape[-2] != masks.shape[-1]:
            raise ValueError(
                "mask must be square 2-D or a square (N, H, W) batch, got "
                f"shape {masks.shape if not single else masks.shape[1:]}")
        if masks.shape[-1] != self.grid:
            raise ValueError(
                f"mask grid {masks.shape[-1]} != kernel grid {self.grid}")
        return masks, single

    def _as_targets(self, targets: np.ndarray,
                    shape: Tuple[int, ...]) -> np.ndarray:
        """Targets as an array of the mask batch's ``shape``: a 2-D or
        ``(1, H, W)`` target is shared by every mask."""
        targets = np.asarray(targets)
        if targets.dtype != self._rdtype:
            targets = targets.astype(self._rdtype)
        stacked = targets[None] if targets.ndim == 2 else targets
        if (stacked.shape[1:] != shape[1:]
                or stacked.shape[0] not in (1, shape[0])):
            raise ValueError(f"target shape {targets.shape} does not match "
                             f"mask batch shape {shape}")
        if stacked.shape != shape:
            stacked = np.broadcast_to(stacked, shape)
        return stacked

    def _forward(self, batch: np.ndarray, dose: float) -> np.ndarray:
        """Public forward pipeline: the stage's intensity, dose-scaled,
        plus accounting.

        Every execution bumps the ``forward_*`` stats and opens a
        ``litho.forward`` span; the gradient paths run the stage
        directly so their nested forward work is attributed to
        ``gradient_*`` instead of being double-counted.
        """
        started = time.perf_counter()
        n, grid = batch.shape[0], self.grid
        with trace.span("litho.forward", masks=n):
            intensity, _ = self._stage.forward(
                self.workspace, batch,
                out=np.empty((n, grid, grid), dtype=self._rdtype))
            intensity = intensity[:, :, 0]
            if dose != 1.0:
                intensity *= dose
        self.stats.record_forward(n, time.perf_counter() - started)
        return intensity

    def _fields(self, batch: np.ndarray,
                spectrum: Optional[np.ndarray] = None) -> np.ndarray:
        """Complex coherent fields ``M (x) h_k`` of the kernel set's own
        kernels, ``(N, K, grid, grid)``: an ``ifft2`` per kernel (not a
        hot path)."""
        if spectrum is None:
            spectrum = real_spectrum(batch)
        fields = np.fft.ifft2(spectrum[:, None] * self.kernels.freq_kernels,
                              axes=(-2, -1))
        return fields.astype(self._cdtype, copy=False)

    # ------------------------------------------------------------------
    # Forward model
    # ------------------------------------------------------------------
    def spectrum(self, mask: np.ndarray) -> np.ndarray:
        """Full FFT of a mask or mask batch (rfft2 + Hermitian expand).

        A reference path: the hot paths never call it — they evaluate
        the passband directly via matmul-DFTs.
        """
        batch, single = self._as_batch(mask)
        full = real_spectrum(batch)
        return full[0] if single else full

    def fields(self, mask: np.ndarray,
               spectrum: Optional[np.ndarray] = None) -> np.ndarray:
        """Coherent fields per kernel: ``(K, H, W)`` or ``(N, K, H, W)``."""
        batch, single = self._as_batch(mask)
        if spectrum is not None and spectrum.ndim == 2:
            spectrum = spectrum[None]
        fields = self._fields(batch, spectrum)
        return fields[0] if single else fields

    def aerial(self, mask: np.ndarray, dose: float = 1.0) -> np.ndarray:
        """Aerial image (Eq. 2), scaled by the exposure ``dose``."""
        batch, single = self._as_batch(mask)
        intensity = self._forward(batch, dose)
        return intensity[0] if single else intensity

    def aerial_and_fields(self, mask: np.ndarray, dose: float = 1.0
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """``(intensity, fields)`` with the complex full-grid fields of
        the kernel set's kernels, ``(K, H, W)`` or ``(N, K, H, W)``
        (not a hot path: the fields come from a full-grid ``ifft2``)."""
        batch, single = self._as_batch(mask)
        intensity = self._forward(batch, dose)
        fields = self._fields(batch)
        if single:
            return intensity[0], fields[0]
        return intensity, fields

    def wafer(self, mask: np.ndarray, dose: float = 1.0) -> np.ndarray:
        """Binary wafer image under the hard-threshold resist (Eq. 3)."""
        return hard_resist(self.aerial(mask, dose=dose), self.threshold)

    def relaxed_wafer(self, mask: np.ndarray, dose: float = 1.0,
                      resist_steepness: Optional[float] = None) -> np.ndarray:
        """Differentiable wafer image under the sigmoid resist (Eq. 12)."""
        steepness = (self.config.resist_steepness if resist_steepness is None
                     else resist_steepness)
        return _stable_sigmoid(
            steepness * (self.aerial(mask, dose=dose) - self.threshold))

    def litho_error(self, mask: np.ndarray, target: np.ndarray,
                    relaxed: bool = False, dose: float = 1.0) -> ArrayOrScalar:
        """Squared L2 litho error ``||Z_t - Z||^2`` (Eq. 11) per mask."""
        batch, single = self._as_batch(mask)
        targets = self._as_targets(target, batch.shape)
        wafer = (self.relaxed_wafer(batch, dose=dose) if relaxed
                 else self.wafer(batch, dose=dose))
        diff = wafer - targets
        errors = np.sum(diff * diff, axis=(-2, -1))
        return float(errors[0]) if single else errors

    def discrete_l2(self, mask: np.ndarray, target: np.ndarray,
                    dose: float = 1.0) -> ArrayOrScalar:
        """Discrete squared-L2 (Definition 1) of hard-resist wafers."""
        return self.litho_error(mask, target, relaxed=False, dose=dose)

    # ------------------------------------------------------------------
    # Adjoint model (Eq. 14)
    # ------------------------------------------------------------------
    def error_and_gradient_wrt_mask(
            self, mask_relaxed: np.ndarray, target: np.ndarray,
            threshold: Optional[float] = None,
            resist_steepness: Optional[float] = None,
            dose: float = 1.0) -> Tuple[ArrayOrScalar, np.ndarray]:
        """Relaxed litho error and gradient w.r.t. the relaxed mask.

        This is the inner term of Eq. 14 — the quantity Algorithm 2
        back-propagates into the generator — computed for the whole
        batch in one pipeline.  The adjoint sum over kernels is
        accumulated on the half passband, so the backward pass never
        evaluates a frequency bin the kernels cannot touch; one small
        inverse DFT expands the accumulated spectrum back to the mask
        grid.
        """
        corners = (self._nominal if dose == 1.0
                   else _Corners(self._stage, [0], [dose], [1.0]))
        return self._gradient(corners, mask_relaxed, target, threshold,
                              resist_steepness, "weighted", {})

    def error_and_gradient(
            self, mask_params: np.ndarray, target: np.ndarray,
            threshold: Optional[float] = None,
            resist_steepness: Optional[float] = None,
            mask_steepness: Optional[float] = None,
            dose: float = 1.0) -> Tuple[ArrayOrScalar, np.ndarray]:
        """Relaxed litho error and gradient w.r.t. unconstrained ILT
        parameters ``M`` (Eq. 14 in full, including the mask sigmoid)."""
        return self._through_mask_sigmoid(
            mask_params, mask_steepness,
            lambda relaxed: self.error_and_gradient_wrt_mask(
                relaxed, target, threshold=threshold,
                resist_steepness=resist_steepness, dose=dose))

    def _through_mask_sigmoid(self, mask_params: np.ndarray,
                              mask_steepness: Optional[float],
                              gradient_wrt_mask
                              ) -> Tuple[ArrayOrScalar, np.ndarray]:
        """Chain a relaxed-mask gradient through ``M_b = sigma(beta M)``
        (Eq. 13)."""
        beta = (self.config.mask_steepness if mask_steepness is None
                else mask_steepness)
        params = np.asarray(mask_params)
        if params.dtype != self._rdtype:
            params = params.astype(self._rdtype)
        relaxed = sigmoid_mask(params, beta)
        error, grad_mb = gradient_wrt_mask(relaxed)
        return error, beta * relaxed * (1.0 - relaxed) * grad_mb

    def _gradient(self, corners: _Corners, mask_relaxed: np.ndarray,
                  target: np.ndarray, threshold: Optional[float],
                  resist_steepness: Optional[float], objective: str,
                  span_args: dict) -> Tuple[ArrayOrScalar, np.ndarray]:
        """Corner-aggregated relaxed error and mask gradient, with
        accounting: the batch runs through :meth:`_epilogue` in
        chunks."""
        started = time.perf_counter()
        threshold = float(self.threshold if threshold is None
                          else threshold)
        steepness = float(self.config.resist_steepness
                          if resist_steepness is None else resist_steepness)
        batch, single = self._as_batch(mask_relaxed)
        targets = self._as_targets(target, batch.shape)
        n, chunk = batch.shape[0], corners.chunk
        # Samples are independent, so large batches are processed in
        # chunks sized to keep the per-chunk field tensor cache-resident
        # (~2 MB); past that point batching degrades on one core.
        with trace.span("litho.adjoint", masks=n, **span_args):
            if n > chunk:
                errors = np.empty(n, dtype=self._rdtype)
                grads = np.empty(batch.shape, dtype=self._rdtype)
                for i in range(0, n, chunk):
                    errors[i:i + chunk], grads[i:i + chunk] = self._epilogue(
                        corners, batch[i:i + chunk], targets[i:i + chunk],
                        threshold, steepness, objective)
            else:
                errors, grads = self._epilogue(corners, batch, targets,
                                               threshold, steepness,
                                               objective)
        self.stats.record_gradient(n, time.perf_counter() - started)
        if single:
            return float(errors[0]), grads[0]
        return errors, grads

    def _epilogue(self, corners: _Corners, batch: np.ndarray,
                  targets: np.ndarray, threshold: float, steepness: float,
                  objective: str) -> Tuple[np.ndarray, np.ndarray]:
        """Errors ``(n,)`` and mask gradient of one chunk: the stage
        forward, the resist over the corner tensor ``(n, N, C, N)``, the
        fold of the corner upstreams onto the defocus groups, and the
        stage adjoint.

        Every corner runs the nominal resist's operations in the
        nominal order, in place in the workspace, so ``C = 1`` is
        bit-identical to evaluating the nominal formulas directly.
        """
        stage, ws, rdtype = corners.stage, self.workspace, self._rdtype
        n, grid, num_corners = batch.shape[0], self.grid, len(corners.lam)
        # Keyed by corner count: a stage may serve the nominal corner
        # and a condition stack on one engine.
        tag = f"{stage.tag}epi{num_corners}."
        shape = (n, grid, num_corners, grid)
        intensity, fields = stage.forward(ws, batch)
        if corners.gather:
            intensity = np.take(intensity, corners.group_of, axis=2,
                                out=ws.get(tag + "intensity", shape, rdtype),
                                mode="clip")
        if corners.doses is not None:
            intensity *= corners.doses
        intensity -= threshold
        intensity *= steepness
        wafer = _stable_sigmoid_into(intensity,
                                     ws.get(tag + "wafer", shape, rdtype))
        diff = np.subtract(wafer, targets[:, :, None], out=intensity)
        squared = np.multiply(diff, diff,
                              out=ws.get(tag + "sq", shape, rdtype))
        errors = squared.sum(axis=(1, 3))

        # dE_c/dI = 2 s diff w (1 - w) dose, in place over ``diff``.
        upstream = np.multiply(diff, 2.0 * steepness, out=diff)
        upstream *= wafer
        upstream *= np.subtract(1.0, wafer, out=wafer)
        if corners.doses is not None:
            upstream *= corners.doses

        # Fold corner upstreams onto defocus groups:
        # (n, 1, G, C) @ (n, N, C, N) -> (n, N, G, N).
        if num_corners == 1:
            return errors[:, 0], stage.adjoint(ws, fields, upstream)
        if objective == "weighted":
            combine = corners.combine
            # A per-row sum, not ``errors @ lam``: a BLAS matrix-vector
            # product blocks by batch size, so a row's value would
            # depend on the batch it came in.
            aggregated = (errors * corners.lam).sum(axis=1)
        else:  # the per-sample worst corner
            worst = np.argmax(errors, axis=1)
            samples = np.arange(n)
            combine = np.zeros((n, 1, stage.num_groups, num_corners),
                               dtype=rdtype)
            combine[samples, 0, corners.group_of[worst], worst] = 1.0
            aggregated = errors[samples, worst]
        grouped = np.matmul(
            combine, upstream,
            out=ws.get(tag + "grouped", (n, grid, stage.num_groups, grid),
                       rdtype))
        return aggregated, stage.adjoint(ws, fields, grouped)

    # ------------------------------------------------------------------
    def binarized_score(self, mask_params: np.ndarray, target: np.ndarray,
                        mask_steepness: Optional[float] = None
                        ) -> Tuple[np.ndarray, ArrayOrScalar]:
        """Binarize relaxed parameters and score the hard-resist wafer.

        Returns ``(masks, discrete_l2)`` — the evaluate step both ILT
        optimizers run every few iterations to track the best discrete
        mask (Definition 1).
        """
        beta = (self.config.mask_steepness if mask_steepness is None
                else mask_steepness)
        masks = binarize_mask(sigmoid_mask(
            np.asarray(mask_params, dtype=np.float64), beta))
        return masks, self.discrete_l2(masks, target)

    # ------------------------------------------------------------------
    # Condition stacks (process-window corners)
    # ------------------------------------------------------------------
    @property
    def num_conditions(self) -> int:
        return self.conditions.num_conditions

    @property
    def _nominal_conditions(self) -> bool:
        """True when the stack is the engine's own single nominal corner
        — the C=1 fast path that delegates to the untouched nominal
        methods (bit-exact by construction)."""
        return self.conditions.is_single_nominal(self.config.optics.defocus)

    def _kernels_for_defocus(self, defocus: float) -> KernelSet:
        """Kernel set for one defocus plane, through the build caches.

        Defocus lives in ``OpticsConfig`` so :func:`build_kernels`
        serves repeats from its in-process cache and persists new
        planes to the disk kernel cache (``config_hash`` covers
        defocus).
        """
        if defocus == self.config.optics.defocus:
            return self.kernels
        focus_config = replace(
            self.config, optics=replace(self.config.optics,
                                        defocus=float(defocus)))
        return build_kernels(focus_config)

    def _condition(self) -> _Corners:
        """The lazily-built corner stack.

        Corner kernel stacks are concatenated along the kernel axis,
        grouped by unique defocus, and served by one
        :class:`_HopkinsStage` over the union passband: its group ``g``
        is defocus group ``g``.  A defocused plane lowers to two real
        kernels per complex one, the focus plane to one.  A stack whose
        every corner sits on the engine's own focus plane (dose-only
        corners) runs on the nominal stage.
        """
        if self._condition_stack is None:
            groups = self.conditions.defocus_groups()
            group_of = np.empty(self.num_conditions, dtype=int)
            for g, (_, indices) in enumerate(groups):
                group_of[list(indices)] = g
            if [defocus for defocus, _ in groups] == [
                    self.config.optics.defocus]:
                stage = self._stage
            else:
                kernel_sets = [self._kernels_for_defocus(defocus)
                               for defocus, _ in groups]
                # Defocus is a pure pupil phase so in practice all
                # groups share one support, but the union keeps the
                # slicing exact regardless.
                stage = _HopkinsStage(
                    np.concatenate([ks.freq_kernels for ks in kernel_sets]),
                    np.concatenate([ks.weights for ks in kernel_sets]),
                    [len(ks.weights) for ks in kernel_sets], self._rdtype,
                    self._cdtype, tag="cond.")
            self._condition_stack = _Corners(
                stage, group_of, self.conditions.doses,
                self.conditions.normalized_weights())
        return self._condition_stack

    def condition_aerial(self, mask: np.ndarray) -> np.ndarray:
        """Aerial images at every corner: ``(C, H, W)`` or ``(N, C, H, W)``.

        Corner ordering follows ``self.conditions.corners``.  One mask
        spectrum on the union passband serves every corner: defocus is
        a pupil phase and dose an intensity scale.
        """
        batch, single = self._as_batch(mask)
        if self._nominal_conditions:
            intensity = self.aerial(batch)[:, None]
            return intensity[0] if single else intensity
        corners = self._condition()
        started = time.perf_counter()
        with trace.span("litho.forward", masks=batch.shape[0],
                        corners=self.num_conditions):
            intensity, _ = corners.stage.forward(self.workspace, batch)
            intensity = np.take(intensity, corners.group_of, axis=2)
            if corners.doses is not None:
                intensity *= corners.doses
            out = np.ascontiguousarray(intensity.transpose(0, 2, 1, 3))
        self.stats.record_forward(batch.shape[0],
                                  time.perf_counter() - started)
        return out[0] if single else out

    def condition_wafers(self, mask: np.ndarray) -> np.ndarray:
        """Hard-resist wafers at every corner (Eq. 3 per corner)."""
        return hard_resist(self.condition_aerial(mask), self.threshold)

    def condition_relaxed_wafers(self, mask: np.ndarray,
                                 resist_steepness: Optional[float] = None
                                 ) -> np.ndarray:
        """Sigmoid-resist wafers at every corner (Eq. 12 per corner)."""
        steepness = (self.config.resist_steepness if resist_steepness is None
                     else resist_steepness)
        return _stable_sigmoid(
            steepness * (self.condition_aerial(mask) - self.threshold))

    def condition_litho_errors(self, mask: np.ndarray, target: np.ndarray,
                               relaxed: bool = False) -> np.ndarray:
        """Per-corner litho errors ``(C,)`` or ``(N, C)`` (Eq. 11)."""
        batch, single = self._as_batch(mask)
        targets = self._as_targets(target, batch.shape)
        wafers = (self.condition_relaxed_wafers(batch) if relaxed
                  else self.condition_wafers(batch))
        diff = wafers - targets[:, None]
        errors = np.sum(diff * diff, axis=(-2, -1))
        return errors[0] if single else errors

    def condition_error_and_gradient_wrt_mask(
            self, mask_relaxed: np.ndarray, target: np.ndarray,
            objective: str = "weighted",
            threshold: Optional[float] = None,
            resist_steepness: Optional[float] = None
            ) -> Tuple[ArrayOrScalar, np.ndarray]:
        """Corner-aggregated litho error and mask gradient (Eq. 14).

        ``objective="weighted"`` minimizes the corner-weight average
        ``E = sum_c lam_c E_c`` (lam normalized); ``"worst"`` follows
        the per-sample worst corner (a subgradient of ``max_c E_c``).
        Both share the nominal resist epilogue: per-corner upstream
        intensity gradients are folded per defocus group, pushed
        through the stacked adjoint kernels, and expanded once.
        """
        if objective not in ("weighted", "worst"):
            raise ValueError(
                f"objective must be 'weighted' or 'worst', got {objective!r}")
        if self._nominal_conditions:
            return self.error_and_gradient_wrt_mask(
                mask_relaxed, target, threshold=threshold,
                resist_steepness=resist_steepness)
        return self._gradient(self._condition(), mask_relaxed, target,
                              threshold, resist_steepness, objective,
                              {"corners": self.num_conditions})

    def condition_error_and_gradient(
            self, mask_params: np.ndarray, target: np.ndarray,
            objective: str = "weighted",
            threshold: Optional[float] = None,
            resist_steepness: Optional[float] = None,
            mask_steepness: Optional[float] = None
            ) -> Tuple[ArrayOrScalar, np.ndarray]:
        """Corner-aggregated error and gradient w.r.t. ILT parameters
        (the full Eq. 14 chain through the mask sigmoid)."""
        return self._through_mask_sigmoid(
            mask_params, mask_steepness,
            lambda relaxed: self.condition_error_and_gradient_wrt_mask(
                relaxed, target, objective=objective, threshold=threshold,
                resist_steepness=resist_steepness))
