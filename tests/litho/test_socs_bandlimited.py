"""The band-limited SOCS kernel sum against the full-grid sum it replaces.

``_full_grid_socs`` is the previous production path, kept here only as
the oracle: every retained kernel is inverse-transformed on the full
pixel grid.  The small-grid sum must reproduce it to rounding.
"""

import dataclasses

import numpy as np
import pytest

from repro.geometry import Polygon, Rect
from repro.litho import OpticalModel, rasterize
from repro.litho.imaging import AerialImage
from repro.pdk import LithoSettings

TOLERANCE = 1e-12


def _full_grid_socs(model, transmission, pixel, defocus_nm=0.0):
    ny, nx = transmission.shape
    kernels = model._kernels(nx, ny, pixel, defocus_nm)
    masked_spectrum = np.fft.fft2(transmission)[kernels.support]
    intensity = np.zeros((ny, nx))
    kernel_grid = np.zeros((ny, nx), dtype=complex)
    for value, vec in zip(kernels.eigvals, kernels.vectors):
        kernel_grid[:] = 0.0
        kernel_grid[kernels.support] = masked_spectrum * vec
        field = np.fft.ifft2(kernel_grid)
        intensity += value * np.abs(field) ** 2
    return intensity


def _layout_mask(nx, ny, pixel):
    """Gate-like lines, a pad and a jog over an ``nx`` x ``ny`` window."""
    width, height = nx * pixel, ny * pixel
    shapes = [Rect(x, 0.2 * height, x + 90.0, 0.8 * height)
              for x in np.arange(0.15, 0.85, 0.12) * width]
    shapes.append(Rect(0.1 * width, 0.05 * height, 0.6 * width, 0.15 * height))
    shapes.append(Rect(0.7 * width, 0.85 * height, 0.95 * width, 0.97 * height))
    return rasterize([Polygon.from_rect(r) for r in shapes],
                     Rect(0.0, 0.0, width, height), pixel)


@pytest.fixture(scope="module")
def model():
    return OpticalModel(LithoSettings())


def _max_error(model, mask, defocus_nm=0.0, feature=0.0):
    image = model.aerial_image(mask, defocus_nm=defocus_nm, feature=feature)
    oracle = _full_grid_socs(model, mask.transmission(feature=feature),
                             mask.pixel, defocus_nm)
    return np.abs(image.intensity - oracle).max()


@pytest.mark.parametrize("nx, ny", [(384, 384), (448, 320), (257, 300)])
def test_matches_full_grid(model, nx, ny):
    mask = _layout_mask(nx, ny, 8.0)
    assert (mask.nx, mask.ny) == (nx, ny)
    kernels = model._kernels(nx, ny, 8.0, 0.0)
    assert kernels.grid[0] < ny and kernels.grid[1] < nx
    assert _max_error(model, mask) <= TOLERANCE


def test_coarse_pixel_keeps_full_grid(model):
    mask = _layout_mask(72, 60, 48.0)
    kernels = model._kernels(mask.nx, mask.ny, mask.pixel, 0.0)
    assert kernels.grid == (mask.ny, mask.nx)
    assert kernels.band == (None, None)
    assert _max_error(model, mask) <= TOLERANCE


def test_defocus_and_aberrations():
    aberrated = OpticalModel(LithoSettings(),
                             zernike={"astig": 0.05, "coma_x": 0.03})
    mask = _layout_mask(320, 288, 8.0)
    assert _max_error(aberrated, mask, defocus_nm=150.0) <= TOLERANCE


def test_attenuated_psm(model):
    feature = -np.sqrt(LithoSettings().psm_transmission)
    mask = _layout_mask(300, 256, 8.0)
    assert _max_error(model, mask, feature=feature) <= TOLERANCE


def test_clear_field_is_one(model):
    image = model.aerial_image(rasterize([], Rect(0, 0, 3000, 2600), 8.0))
    assert np.abs(image.intensity - 1.0).max() <= TOLERANCE


def test_kernel_cache_hit_on_repeated_geometry():
    fresh = OpticalModel(dataclasses.replace(LithoSettings(), source_grid=7))
    first = _layout_mask(256, 256, 8.0)
    second = rasterize([Polygon.from_rect(Rect(500, 500, 590, 1500))],
                       Rect(0, 0, 2048, 2048), 8.0)
    fresh.aerial_image(first)
    entry = fresh._kernels(256, 256, 8.0, 0.0)
    fresh.aerial_image(second)
    assert len(fresh._kernel_cache) == 1
    assert fresh._kernels(256, 256, 8.0, 0.0) is entry


def test_value_at_agrees_with_values_at():
    rng = np.random.default_rng(13)
    image = AerialImage(-40.0, 24.0, 8.0, rng.random((9, 12)))
    # The window spans x in [-40, 56] and y in [24, 96]; sample well
    # inside, within half a pixel of every edge, and far outside.
    xs = np.concatenate([rng.uniform(-40.0, 56.0, 200),
                         rng.uniform(-44.0, -32.0, 50),
                         rng.uniform(48.0, 60.0, 50),
                         rng.uniform(-1e4, 1e4, 100)])
    ys = np.concatenate([rng.uniform(24.0, 96.0, 200),
                         rng.uniform(20.0, 32.0, 50),
                         rng.uniform(88.0, 100.0, 50),
                         rng.uniform(-1e4, 1e4, 100)])
    expected = image.values_at(xs, ys)
    got = np.array([image.value_at(x, y) for x, y in zip(xs, ys)])
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


def test_value_at_low_edge_example():
    image = AerialImage(0.0, 0.0, 8.0, np.arange(16.0).reshape(4, 4))
    assert image.value_at(-1.0, 12.0) == 4.0
    assert image.value_at(-10000.0, 12.0) == 4.0
