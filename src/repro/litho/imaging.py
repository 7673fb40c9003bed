"""Partially-coherent aerial-image computation.

Two engines compute the same Hopkins integral:

* **Abbe** (sum over source): one coherent image per source point.  Exact
  for the discretized source; used as the reference in tests.
* **SOCS** (sum of coherent systems): the transmission cross coefficients
  are assembled on the band-limited frequency support, eigendecomposed
  once per (grid, defocus) and cached.  This is the production path,
  exactly as in the OPC tools of the paper's era.

The kernels live on the disk |f| <= (1 + sigma) NA / lambda, so each
coherent field holds only the frequencies -r..r (in grid steps) and the
intensity only -2r..2r.  The kernel sum therefore runs on a small grid of
m >= 4r + 2 samples per axis (about 40 nm pitch, against the 8 nm
pixel): one full-grid FFT of the mask, one small inverse FFT per kernel,
then one small forward FFT and one real inverse FFT that
Fourier-interpolate the intensity back to the pixel grid.  The result is
the full-grid sum to rounding; an axis whose small grid would not be
smaller than the pixel grid is summed on the pixel grid, as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.litho.pupil import Pupil
from repro.litho.raster import MaskGrid
from repro.litho.source import SourcePoint, make_source
from repro.pdk import LithoSettings
from repro.units import Dimensionless, Nanometers, NmPerPixel


@dataclass
class AerialImage:
    """Sampled image intensity over a simulation window (clear field = 1)."""

    x0: Nanometers
    y0: Nanometers
    pixel: NmPerPixel
    intensity: np.ndarray  # (ny, nx)

    @property
    def nx(self) -> int:
        return self.intensity.shape[1]

    @property
    def ny(self) -> int:
        return self.intensity.shape[0]

    def value_at(self, x: Nanometers, y: Nanometers) -> Dimensionless:
        """Bilinear interpolation at an arbitrary point (pixel centers).

        Points beyond the outer pixel centers take the edge value, as in
        :meth:`values_at`: the grid coordinate is clamped before the
        blend weights are taken from it.
        """
        gx = min(max((x - self.x0) / self.pixel - 0.5, 0.0), self.nx - 1.0)
        gy = min(max((y - self.y0) / self.pixel - 0.5, 0.0), self.ny - 1.0)
        i0 = int(np.floor(gx))
        j0 = int(np.floor(gy))
        tx = gx - i0
        ty = gy - j0
        i1 = min(i0 + 1, self.nx - 1)
        j1 = min(j0 + 1, self.ny - 1)
        inten = self.intensity
        top = inten[j1, i0] * (1 - tx) + inten[j1, i1] * tx
        bottom = inten[j0, i0] * (1 - tx) + inten[j0, i1] * tx
        return float(bottom * (1 - ty) + top * ty)

    def values_at(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized bilinear interpolation (same convention as value_at)."""
        from scipy import ndimage

        cols = np.asarray(xs, dtype=float)
        rows = np.asarray(ys, dtype=float)
        coords = np.stack(
            [(rows - self.y0) / self.pixel - 0.5, (cols - self.x0) / self.pixel - 0.5]
        )
        return ndimage.map_coordinates(
            self.intensity, coords.reshape(2, -1), order=1, mode="nearest"
        ).reshape(np.shape(xs))

    def profile(
        self,
        x_start: Nanometers,
        y_start: Nanometers,
        x_end: Nanometers,
        y_end: Nanometers,
        samples: int = 64,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Intensity along a cutline; returns (distances, intensities)."""
        ts = np.linspace(0.0, 1.0, samples)
        xs = x_start + ts * (x_end - x_start)
        ys = y_start + ts * (y_end - y_start)
        values = self.values_at(xs, ys)
        length = float(np.hypot(x_end - x_start, y_end - y_start))
        return ts * length, values


class OpticalModel:
    """The imaging engine for one optical setup (source + lens)."""

    def __init__(
        self,
        settings: LithoSettings,
        zernike: Optional[Dict[str, float]] = None,
        max_kernels: int = 40,
        energy_cutoff: float = 0.998,
    ):
        self.settings = settings
        self.zernike = dict(zernike or {})
        self.max_kernels = max_kernels
        self.energy_cutoff = energy_cutoff
        self.source: List[SourcePoint] = make_source(settings)
        self._kernel_cache: Dict[tuple, _SocsKernels] = {}

    def __getstate__(self):
        """Pickle without the SOCS kernel cache.

        The cache is pure derived data and can be tens of megabytes;
        dropping it keeps worker dispatch cheap — each parallel worker
        rebuilds the kernels for its tile geometry exactly once.
        """
        state = self.__dict__.copy()
        state["_kernel_cache"] = {}
        return state

    # -- public API ----------------------------------------------------------

    def aerial_image(
        self,
        mask: MaskGrid,
        defocus_nm: float = 0.0,
        method: str = "socs",
        background: complex = 1.0,
        feature: complex = 0.0,
    ) -> AerialImage:
        """Image the ``mask`` grid (clear-field normalized to 1.0)."""
        transmission = mask.transmission(background=background, feature=feature)
        if method == "abbe":
            intensity = self._abbe(transmission, mask.pixel, defocus_nm)
        elif method == "socs":
            intensity = self._socs(transmission, mask.pixel, defocus_nm)
        else:
            raise ValueError(f"unknown imaging method {method!r}")
        return AerialImage(mask.x0, mask.y0, mask.pixel, intensity)

    def kernel_count(self, nx: int, ny: int, pixel: float, defocus_nm: float = 0.0) -> int:
        """Number of SOCS kernels retained for a grid (diagnostics)."""
        return len(self._kernels(nx, ny, pixel, defocus_nm).eigvals)

    # -- Abbe path -------------------------------------------------------------

    def _abbe(self, transmission: np.ndarray, pixel: float, defocus_nm: float) -> np.ndarray:
        ny, nx = transmission.shape
        fx = np.fft.fftfreq(nx, d=pixel)
        fy = np.fft.fftfreq(ny, d=pixel)
        fxg, fyg = np.meshgrid(fx, fy)
        pupil = Pupil(self.settings, defocus_nm, self.zernike)
        sigma_to_f = self.settings.numerical_aperture / self.settings.wavelength
        edge_width = self._pupil_edge_width(nx, ny, pixel)
        spectrum = np.fft.fft2(transmission)
        intensity = np.zeros((ny, nx))
        clear = 0.0
        for point in self.source:
            shifted = pupil.evaluate(
                fxg - point.sx * sigma_to_f, fyg - point.sy * sigma_to_f,
                edge_width=edge_width,
            )
            field = np.fft.ifft2(spectrum * shifted)
            intensity += point.weight * np.abs(field) ** 2
            clear += point.weight * abs(
                pupil.evaluate(
                    np.array([-point.sx * sigma_to_f]),
                    np.array([-point.sy * sigma_to_f]),
                    edge_width=edge_width,
                )[0]
            ) ** 2
        return intensity / clear

    def _pupil_edge_width(self, nx: int, ny: int, pixel: float) -> float:
        """Anti-aliasing span for the pupil cutoff: one frequency-grid cell,
        clamped so coarse grids (tiny windows) keep a physical pupil."""
        df = max(1.0 / (nx * pixel), 1.0 / (ny * pixel))
        f_max = self.settings.numerical_aperture / self.settings.wavelength
        return min(df, 0.12 * f_max)

    # -- SOCS path -------------------------------------------------------------

    def _socs(self, transmission: np.ndarray, pixel: float, defocus_nm: float) -> np.ndarray:
        ny, nx = transmission.shape
        kernels = self._kernels(nx, ny, pixel, defocus_nm)
        masked_spectrum = np.fft.fft2(transmission)[kernels.support]
        # Every kernel writes the same support samples, so the grid needs
        # zeroing only once.
        field_spectrum = np.zeros(kernels.grid, dtype=complex)
        small = np.zeros(kernels.grid)
        for value, vec in zip(kernels.eigvals, kernels.vectors):
            field_spectrum[kernels.grid_support] = masked_spectrum * vec
            field = np.fft.ifft2(field_spectrum)
            small += value * (field.real ** 2 + field.imag ** 2)
        return _fourier_interpolate(small, (ny, nx), kernels.band)

    def _kernels(self, nx: int, ny: int, pixel: float, defocus_nm: float) -> _SocsKernels:
        """Cached TCC eigen-kernels for a grid geometry.

        The clear field of the truncated kernel set is renormalized to
        exactly 1.  The entry also holds where the support lands on the
        small grid the kernel sum runs on (see :class:`_SocsKernels`).
        """
        key = (nx, ny, round(pixel, 9), round(defocus_nm, 6),
               tuple(sorted(self.zernike.items())))
        if key in self._kernel_cache:
            return self._kernel_cache[key]

        fx = np.fft.fftfreq(nx, d=pixel)
        fy = np.fft.fftfreq(ny, d=pixel)
        fxg, fyg = np.meshgrid(fx, fy)
        sigma_to_f = self.settings.numerical_aperture / self.settings.wavelength
        f_support = (1.0 + self.settings.sigma_outer) * sigma_to_f * 1.0001
        support = np.nonzero(fxg * fxg + fyg * fyg <= f_support * f_support)
        sup_fx = fxg[support]
        sup_fy = fyg[support]
        n_sup = sup_fx.size

        pupil = Pupil(self.settings, defocus_nm, self.zernike)
        edge_width = self._pupil_edge_width(nx, ny, pixel)
        # Rows are conjugated so that (A^H A)[m, n] = sum_s w P(f_m - s) P*(f_n - s),
        # the Hopkins TCC orientation whose eigenvectors are the SOCS kernels.
        amplitudes = np.empty((len(self.source), n_sup), dtype=complex)
        for row, point in enumerate(self.source):
            amplitudes[row] = np.sqrt(point.weight) * np.conj(
                pupil.evaluate(sup_fx - point.sx * sigma_to_f, sup_fy - point.sy * sigma_to_f,
                               edge_width=edge_width)
            )
        # The TCC = A^H A has rank <= n_source_points, so its eigenpairs come
        # from the SVD of the small A matrix (n_src x n_sup) directly — far
        # cheaper than eigendecomposing the n_sup x n_sup TCC itself.
        _, singular, vh = np.linalg.svd(amplitudes, full_matrices=False)
        eigvals = singular ** 2
        total = eigvals.sum()
        keep = 1
        running = eigvals[0]
        while keep < min(self.max_kernels, len(eigvals)) and running < self.energy_cutoff * total:
            running += eigvals[keep]
            keep += 1

        kept_vals = eigvals[:keep]
        kept_vecs = [np.conj(vh[k]) for k in range(keep)]

        # Renormalize so a clear mask images to exactly 1.0 despite truncation.
        zero_index = np.nonzero((sup_fx == 0.0) & (sup_fy == 0.0))[0]
        clear = sum(
            val * abs(vec[zero_index[0]]) ** 2 for val, vec in zip(kept_vals, kept_vecs)
        ) if zero_index.size else 1.0
        if clear <= 0:
            raise RuntimeError("SOCS truncation lost the DC response")
        kept_vals = kept_vals / clear

        my, rows, band_y = _small_axis(support[0], ny)
        mx, cols, band_x = _small_axis(support[1], nx)
        result = _SocsKernels(kept_vals, support, kept_vecs,
                              (my, mx), (rows, cols), (band_y, band_x))
        self._kernel_cache[key] = result
        return result


class _SocsKernels(NamedTuple):
    """One cached SOCS kernel set and the small grid its sum runs on."""

    eigvals: np.ndarray
    #: full-grid (row, column) indices of the kernel support
    support: Tuple[np.ndarray, ...]
    vectors: List[np.ndarray]
    #: small-grid shape (m_y, m_x)
    grid: Tuple[int, int]
    #: the support's (row, column) indices on the small grid
    grid_support: Tuple[np.ndarray, ...]
    #: per axis, the intensity band 2r, or None where the small grid is
    #: the full grid
    band: Tuple[Optional[int], Optional[int]]


def _smooth_size(n: int) -> int:
    """The smallest 2*3*5-smooth integer >= ``n`` (a fast FFT length).

    ``scipy.fft.next_fast_len(n, real=True)`` gives the same, but the flow
    does not otherwise import ``scipy.fft`` (~30 ms of set-up).
    """
    while True:
        rest = n
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return n
        n += 1


def _small_axis(index: np.ndarray, n: int) -> Tuple[int, np.ndarray, Optional[int]]:
    """Small-grid size, support indices and band for one axis.

    ``index`` holds full-grid FFT indices whose signed frequencies reach
    at most r; the intensity then spans -2r..2r, which m >= 4r + 2
    samples hold without aliasing and with an empty Nyquist bin.  Where
    that m is not smaller than ``n`` the axis keeps the full grid, whose
    (possibly aliased) sum is the pixel-grid result by definition.
    """
    signed = (index + n // 2) % n - n // 2
    reach = int(np.abs(signed).max())
    m = _smooth_size(4 * reach + 2)
    if m >= n:
        return n, index, None
    return m, signed % m, 2 * reach


def _fourier_interpolate(small: np.ndarray, shape: Tuple[int, int],
                         band: Tuple[Optional[int], Optional[int]]) -> np.ndarray:
    """Resample the band-limited real ``small`` grid onto ``shape``.

    The band -b..b of each reduced axis moves into a zero-padded half
    spectrum of the full grid; an axis with band None is already full.
    The factor m_x m_y / (n_x n_y) undoes the small grid's ifft2
    normalization in the squared fields and the change of FFT length.
    """
    ny, nx = shape
    my, mx = small.shape
    if (my, mx) == (ny, nx):
        return small
    band_y, band_x = band
    if band_y is None:
        src_rows = dst_rows = np.arange(ny)
    else:
        src_rows = np.r_[0:band_y + 1, my - band_y:my]
        dst_rows = np.r_[0:band_y + 1, ny - band_y:ny]
    cols = np.arange(nx // 2 + 1 if band_x is None else band_x + 1)
    half = np.zeros((ny, nx // 2 + 1), dtype=complex)
    half[np.ix_(dst_rows, cols)] = (
        np.fft.rfft2(small)[np.ix_(src_rows, cols)] * (mx * my / (nx * ny))
    )
    return np.fft.irfft2(half, s=(ny, nx))
