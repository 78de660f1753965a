import tracemalloc

import numpy as np
import pytest

from matchflow.errors import DataError
from matchflow.ingest import FeatureTable
from matchflow.sweep import MAX_GRID_CELLS, SweepSpec, fit_response_model, sweep_grid

from util import sweep_oracle


def crossover_model(features):
    """serve-first response x, serve-second response 0.12 - x."""
    x = features["psych"]
    return x if features["serve_indicator"] == 1.0 else 0.12 - x


def spec_1d(**overrides):
    kwargs = dict(
        indicators=("psych",),
        ranges=((0.0, 0.12),),
        steps=(0.01,),
        baseline={"psych": 0.05, "other": 1.0, "serve_indicator": 1.0},
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def test_linear_crossover_found_at_intersection():
    result = sweep_grid(crossover_model, spec_1d())
    assert not result.coincident
    assert len(result.crossovers) == 1
    assert result.crossovers[0] == pytest.approx(0.06, abs=0.01)


def test_coincident_curves_sentinel():
    result = sweep_grid(lambda f: 0.4, spec_1d())
    assert result.coincident
    assert result.crossovers == []


def test_monotone_non_crossing_curves_have_no_crossovers():
    def model(features):
        x = features["psych"]
        return 0.2 + x if features["serve_indicator"] == 1.0 else 0.1 + x

    result = sweep_grid(model, spec_1d())
    assert not result.coincident
    assert result.crossovers == []


def test_every_crossover_brackets_a_sign_change():
    def wiggly(features):
        x = features["psych"]
        base = np.sin(60.0 * x) * 0.05
        return base if features["serve_indicator"] == 1.0 else -base

    spec = spec_1d(steps=(0.005,))
    result = sweep_grid(wiggly, spec)
    diff = result.serve_first - result.serve_second
    grid = result.grids[0]
    for crossing in result.crossovers:
        i = int(np.searchsorted(grid, crossing, side="right")) - 1
        i = min(max(i, 0), grid.size - 2)
        window = diff[max(0, i - 1) : i + 3]
        assert np.min(window) <= 0.0 <= np.max(window)


def test_tangent_touch_is_not_a_crossover():
    def touching(features):
        x = features["psych"]
        gap = (x - 0.06) ** 2  # touches zero at 0.06 without changing sign
        return 0.5 + gap if features["serve_indicator"] == 1.0 else 0.5

    spec = spec_1d(tolerance=1e-9)
    result = sweep_grid(touching, spec)
    assert result.crossovers == []


def test_refining_the_step_keeps_the_crossover():
    coarse = sweep_grid(crossover_model, spec_1d(steps=(0.02,)))
    fine = sweep_grid(crossover_model, spec_1d(steps=(0.01,)))
    assert len(coarse.crossovers) == len(fine.crossovers) == 1
    assert coarse.crossovers[0] == pytest.approx(fine.crossovers[0], abs=0.02)


def test_mean_curve_and_argmax():
    result = sweep_grid(crossover_model, spec_1d())
    assert np.allclose(result.mean, (result.serve_first + result.serve_second) / 2.0)
    best = result.argmax_mean
    assert best["value"] == pytest.approx(float(result.mean.max()))
    assert "psych" in best["at"]


def test_sweep_is_pure():
    baseline = {"psych": 0.05, "other": 1.0, "serve_indicator": 1.0}
    frozen = dict(baseline)
    spec = spec_1d(baseline=baseline)
    sweep_grid(crossover_model, spec)
    assert baseline == frozen


def test_spec_validation():
    with pytest.raises(DataError, match="unknown indicator"):
        spec_1d(indicators=("missing",))
    # each context sets it, so a swept value would be overwritten in every cell
    with pytest.raises(DataError, match="'serve_indicator' cannot be swept"):
        spec_1d(indicators=("serve_indicator",))
    with pytest.raises(DataError, match="lo < hi"):
        spec_1d(ranges=((0.2, 0.1),))
    with pytest.raises(DataError, match="positive"):
        spec_1d(steps=(0.0,))
    with pytest.raises(DataError, match="fewer than 2"):
        spec_1d(ranges=((0.0, 0.005),))
    with pytest.raises(DataError, match="one or two"):
        SweepSpec(indicators=(), ranges=(), steps=(), baseline={})
    with pytest.raises(DataError, match="one or two distinct indicators"):
        SweepSpec(indicators=("psych", "psych"), ranges=((0.0, 1.0),) * 2, steps=(0.1, 0.1),
                  baseline={"psych": 0.5})


def test_grid_cell_budget_enforced():
    with pytest.raises(DataError, match="exceeds"):
        SweepSpec(
            indicators=("a", "b"),
            ranges=((0.0, 1.0), (0.0, 1.0)),
            steps=(1e-4, 1e-4),
            baseline={"a": 0.0, "b": 0.0},
        )


def sep_2d_spec(step=0.1):
    return SweepSpec(
        indicators=("a", "b"),
        ranges=((0.0, 1.0), (0.0, 1.0)),
        steps=(step, step),
        baseline={"a": 0.5, "b": 0.5},
    )


def test_2d_intersection_locus_tracks_the_line():
    def model(features):
        if features["serve_indicator"] == 1.0:
            return features["a"] + features["b"]
        return 1.0

    result = sweep_grid(model, sep_2d_spec())
    assert not result.coincident
    assert result.crossovers, "intersection locus must not be empty"
    for cell in result.crossovers:
        assert abs(cell["a"] + cell["b"] - 1.0) <= 0.2 + 1e-9  # within one cell


def test_2d_identical_surfaces_flagged_coincident():
    result = sweep_grid(lambda f: 0.7, sep_2d_spec())
    assert result.coincident
    assert result.crossovers == []


def test_minimal_2x2_grid_matches_direct_calls():
    calls = []

    def model(features):
        calls.append(dict(features))
        return features["a"] * 10.0 + features["b"] + features["serve_indicator"] * 0.5

    spec = SweepSpec(
        indicators=("a", "b"),
        ranges=((0.0, 1.0), (0.0, 1.0)),
        steps=(1.0, 1.0),
        baseline={"a": 0.0, "b": 0.0, "extra": 3.0},
    )
    result = sweep_grid(model, spec)
    assert result.serve_first.shape == (2, 2)
    assert len(calls) == 8  # 4 cells x 2 contexts
    for i, va in enumerate((0.0, 1.0)):
        for j, vb in enumerate((0.0, 1.0)):
            assert result.serve_first[i, j] == va * 10.0 + vb + 0.5
            assert result.serve_second[i, j] == va * 10.0 + vb
    assert all(call["extra"] == 3.0 for call in calls)


def test_response_model_fits_linear_map():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 3))
    target = 0.3 + 0.5 * x[:, 0] - 0.2 * x[:, 2]
    table = FeatureTable("t", ["u", "v", "w"], x)
    model = fit_response_model(table, target, degree=1)
    for i in range(5):
        features = dict(zip(["u", "v", "w"], x[i]))
        assert model(features) == pytest.approx(target[i], abs=1e-8)


def test_response_model_quadratic_peak():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(80, 1))
    target = 1.0 - (x[:, 0] - 0.2) ** 2
    table = FeatureTable("t", ["p"], x)
    model = fit_response_model(table, target, degree=2)
    probe = np.linspace(-1, 1, 41)
    values = [model({"p": v}) for v in probe]
    assert probe[int(np.argmax(values))] == pytest.approx(0.2, abs=0.06)


def test_response_model_missing_feature():
    table = FeatureTable("t", ["p"], np.zeros((10, 1)))
    model = fit_response_model(table, np.zeros(10))
    with pytest.raises(DataError, match="needs feature"):
        model({"q": 1.0})


def test_response_model_bad_degree():
    table = FeatureTable("t", ["p"], np.zeros((10, 1)))
    with pytest.raises(DataError, match="degree"):
        fit_response_model(table, np.zeros(10), degree=3)


def serve_gap(gap):
    """A model whose serve-first response is 0.3 + gap(features) and serve-second 0.3."""
    return lambda f: 0.3 + gap(f) if f["serve_indicator"] == 1.0 else 0.3


STEPS = (-1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0)  # zero runs, one crossing


@pytest.mark.parametrize("model,spec", [
    # interpolated crossings of a sine
    (serve_gap(lambda f: 0.05 * np.sin(60.0 * f["psych"])), spec_1d(steps=(0.005,))),
    # runs of exact zeros on an integer grid, one between opposite signs
    (serve_gap(lambda f: STEPS[int(f["psych"])]), spec_1d(ranges=((0.0, 10.0),), steps=(1.0,))),
    # a tangent touch at 5
    (serve_gap(lambda f: (f["psych"] - 5.0) ** 2),
     spec_1d(ranges=((0.0, 10.0),), steps=(1.0,), tolerance=1e-9)),
    (lambda f: 0.4 + f["psych"], spec_1d()),  # coincident curves
    # 7 x 5 grids with sign changes along both axes, with and without exact zeros
    (serve_gap(lambda f: (f["a"] - 2.5) * (f["b"] - 1.2) + 0.1 * f["a"]),
     SweepSpec(indicators=("a", "b"), ranges=((0.0, 6.0), (0.0, 2.0)), steps=(1.0, 0.5),
               baseline={"a": 0.0, "b": 0.0, "c": 2.0})),
    (serve_gap(lambda f: (f["a"] - 3.0) * np.cos(3.0 * f["b"])),
     SweepSpec(indicators=("a", "b"), ranges=((0.0, 6.0), (0.0, 2.0)), steps=(1.0, 0.5),
               baseline={"a": 0.0, "b": 0.0})),
    (lambda f: f["a"] * f["b"], sep_2d_spec()),  # coincident surfaces
], ids=["sine", "zero-runs", "tangent", "coincident", "2d-7x5", "2d-7x5-zeros", "2d-coincident"])
def test_sweep_equals_the_oracle_exactly(model, spec):
    result = sweep_grid(model, spec)
    grids, first, second, mean, crossovers, coincident, argmax_mean = sweep_oracle(model, spec)
    assert result.indicators == spec.indicators
    for got, want in zip([*result.grids, result.serve_first, result.serve_second, result.mean],
                         [*grids, first, second, mean]):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert len(result.grids) == len(grids)
    assert result.crossovers == crossovers
    assert result.coincident is coincident
    assert result.argmax_mean == argmax_mean


def test_grid_sizes_are_checked_before_any_grid_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="grid of 15000003 cells exceeds"):
            SweepSpec(indicators=("psych", "other"), ranges=((0.0, 1.0), (0.0, 1.0)),
                      steps=(2e-7, 0.5), baseline={"psych": 0.0, "other": 0.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # the first grid alone is 40 MB
    with pytest.raises(DataError, match="grid of inf cells exceeds"):  # the span overflows
        spec_1d(ranges=((-1e308, 1e308),), steps=(1.0,))


def test_grid_cell_budget_applies_to_one_indicator():
    with pytest.raises(DataError, match="exceeds"):
        spec_1d(ranges=((0.0, 1.0),), steps=(1.0 / (MAX_GRID_CELLS + 10),))
