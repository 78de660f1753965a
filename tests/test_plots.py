"""The array heatmap renderer against the scalar oracle, byte for byte."""

import math
import tracemalloc

import numpy as np
import pytest

from matchflow import plots

from util import heatmap_oracle


def _blue(v):
    return 84 + 60 * (1.0 - v) ** 2 - 84 * v


def _nearby(v, ulps):
    """The floats within `ulps` steps of v that lie in [0, 1]."""
    lo = v
    for _ in range(ulps):
        lo = math.nextafter(lo, -math.inf)
    out = []
    for _ in range(2 * ulps + 1):
        if 0.0 <= lo <= 1.0:
            out.append(lo)
        lo = math.nextafter(lo, math.inf)
    return out


def ramp_ties():
    """Ramp positions v where a colour channel lands on a rounding boundary.

    253 v, 40 + 191 v or the blue term 84 + 60 (1 - v)^2 - 84 v equal k + 0.5
    exactly, or the blue term rounds differently when (1 - v)^2 is taken as a
    product instead of a power.
    """
    ties = set()
    for k in range(256):
        half = k + 0.5
        ties.update(v for v in _nearby(half / 253, 4) if 253 * v == half)
        ties.update(v for v in _nearby((half - 40) / 191, 4) if 40 + 191 * v == half)
        disc = 204.0**2 - 240.0 * (143.5 - k)  # 60 v^2 - 204 v + 143.5 - k = 0
        if disc >= 0:
            for v in _nearby((204.0 - math.sqrt(disc)) / 120.0, 150):
                product = 84 + 60 * (1.0 - v) * (1.0 - v) - 84 * v
                if _blue(v) == half or round(_blue(v)) != round(product):
                    ties.add(v)
    return sorted(ties)


def grid(values, cols):
    """values laid out row-major in a matrix with `cols` columns, padded with 0."""
    values = np.asarray(values, dtype=float)
    out = np.zeros(-(-values.size // cols) * cols)
    out[: values.size] = values
    return out.reshape(-1, cols)


def assert_same_svg(tmp_path, matrix, **kwargs):
    got, want = tmp_path / "got.svg", tmp_path / "want.svg"
    plots.heatmap_svg(matrix, got, **kwargs)
    heatmap_oracle(matrix, want, **kwargs)
    assert got.read_bytes() == want.read_bytes()


def test_ramp_ties_cover_every_kind_of_boundary():
    ties = ramp_ties()
    product = [84 + 60 * (1.0 - v) * (1.0 - v) - 84 * v for v in ties]
    assert any(253 * v % 1 == 0.5 for v in ties)
    assert any((40 + 191 * v) % 1 == 0.5 for v in ties)
    assert any(_blue(v) % 1 == 0.5 for v in ties)
    assert any(round(_blue(v)) != round(p) for v, p in zip(ties, product))


def test_heatmap_matches_the_scalar_oracle_on_ramp_ties(tmp_path):
    ties = ramp_ties()
    # 0 and 1 in the matrix make its range [0, 1], so each cell's ramp position is its value
    assert_same_svg(tmp_path, grid([0.0, 1.0, *ties], cols=40))
    assert_same_svg(tmp_path, grid([0.0, 1.0, *ties], cols=1)[:64])
    # the same positions on a shifted, negative range: lo + v * span is not exact, so this
    # lands near the ties rather than on them
    assert_same_svg(tmp_path, -7.0 + 4.0 * grid([0.0, 1.0, *ties], cols=25))


@pytest.mark.parametrize("shape", [(32, 210), (1, 17), (17, 1), (1, 1), (3, 4)])
def test_heatmap_matches_the_scalar_oracle_on_seeded_matrices(tmp_path, shape):
    rng = np.random.default_rng([6, *shape])
    for matrix in (rng.random(shape), rng.uniform(-9.0, -2.0, shape),
                   rng.standard_normal(shape) * 1e-9, np.round(rng.random(shape), 2)):
        assert_same_svg(tmp_path, matrix)
    labels = dict(x_labels=np.arange(shape[1]) * 1.5, y_labels=np.geomspace(2, 50, shape[0]))
    assert_same_svg(tmp_path, rng.random(shape), title="t", **labels)
    assert_same_svg(tmp_path, rng.random(shape), width=333, height=101, **labels)


def test_constant_matrix_renders_one_colour(tmp_path):
    assert_same_svg(tmp_path, np.full((3, 5), 2.5))
    plots.heatmap_svg(np.full((3, 5), -1.0), tmp_path / "c.svg")
    text = (tmp_path / "c.svg").read_text()
    assert text.count('fill="#0028') == 15  # every cell at the ramp's start


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "range"])
def test_non_finite_heatmap_input_is_rejected(tmp_path, bad):
    matrix = np.ones((4, 6))
    if bad == "range":  # finite cells whose range overflows
        matrix[0, 0], matrix[3, 5] = -1e308, 1e308
    else:
        matrix[2, 3] = bad
    with pytest.raises(ValueError, match="heatmap matrix is not finite"):
        plots.heatmap_svg(matrix, tmp_path / "bad.svg")
    assert not (tmp_path / "bad.svg").exists()


def test_heatmap_is_written_row_by_row_within_a_memory_bound(tmp_path):
    """Traced peak of heatmap_svg on a 32 x 1000 matrix with both label axes.

    Holding every cell's colour string and the whole document as one list and one
    string peaked at about 12.2 MB.  With three colour bytes per cell and the text
    formatted and written one row at a time it peaks at about 1.2 MB, nearly all of
    it the ramp positions and the float temporaries of the colour ramp.
    """
    rng = np.random.default_rng([7, 32, 1000])
    matrix = rng.random((32, 1000))
    labels = dict(x_labels=np.arange(1000), y_labels=np.geomspace(2, 50, 32))
    path = tmp_path / "big.svg"
    tracemalloc.start()
    try:
        plots.heatmap_svg(matrix, path, title="t", **labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6, peak
    heatmap_oracle(matrix, tmp_path / "want.svg", title="t", **labels)
    assert path.read_bytes() == (tmp_path / "want.svg").read_bytes()
