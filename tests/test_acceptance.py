"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 1 and 2 additionally check the published corpus figures
when the official point-by-point CSV is available (set the
MATCHFLOW_WIMBLEDON_CSV environment variable or drop the file at
data/Wimbledon_featured_matches.csv); otherwise the documented synthetic
fallbacks apply.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import matchflow as mf
from matchflow.classifier import TrainConfig, nll_and_grad
from matchflow.ingest import FEATURE_NAMES, FeatureTable
from matchflow.momentum import MomentumParams, momentum_from_victors
from matchflow.schemas import load_schema
from matchflow.sweep import SweepSpec, sweep_1d
from matchflow.trend import randomness_test
from matchflow.wavelet import WaveletConfig, cwt, scale_for_period

from util import (
    auc_oracle,
    confusion_oracle,
    cwt_oracle,
    ks_distance_uniform,
    make_timeline,
    momentum_oracle,
    posterior_via_prior,
    streak_lengths_oracle,
)

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "data" / "fixture_matches.csv"

OFFICIAL_ENV = "MATCHFLOW_WIMBLEDON_CSV"
OFFICIAL_DEFAULT = ROOT / "data" / "Wimbledon_featured_matches.csv"


def official_corpus():
    path = os.environ.get(OFFICIAL_ENV) or OFFICIAL_DEFAULT
    path = Path(path)
    if not path.exists():
        return None
    timelines, _ = mf.load_and_clean(path)
    return timelines


def ok(line):
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_01_serve_win_posterior():
    corpus = official_corpus()
    if corpus is not None:
        start = time.perf_counter()
        stats = mf.estimate_serve_win_posterior(corpus, unit="point")
        elapsed = time.perf_counter() - start
        assert abs(stats.p_win_given_serve - 0.6734) <= 0.03
        assert abs(stats.p_lose_given_serve - 0.3266) <= 0.03
        assert elapsed < 1.0
        ok("01 serve-win posterior (official corpus)")
        return

    # fallback: exact counting on the synthetic 67-of-100 corpus
    rng = np.random.default_rng(0)
    servers = rng.integers(1, 3, size=100).tolist()
    outcomes = [True] * 67 + [False] * 33
    rng.shuffle(outcomes)
    victors = [s if win else 3 - s for s, win in zip(servers, outcomes)]
    tl = make_timeline(victors, servers, match_id="syn67")

    start = time.perf_counter()
    stats = mf.estimate_serve_win_posterior([tl], unit="point")
    elapsed = time.perf_counter() - start

    served = won = 0
    for server, victor in zip(tl.servers(), tl.victors()):  # brute-force counting oracle
        served += 1
        won += 1 if server == victor else 0
    assert stats.p_win_given_serve == won / served == 0.67
    assert abs(posterior_via_prior(stats) - stats.p_win_given_serve) <= 1e-12
    assert elapsed < 1.0
    ok("01 serve-win posterior (synthetic 67/100, official file not provided)")


def test_criterion_02_classifier():
    # always-on randomized checks: gradient, simplex, micro-F1 identity
    rng = np.random.default_rng(2024)
    h = 1e-5
    for _ in range(100):
        x = rng.normal(size=(5, 3))
        design = np.hstack([np.ones((5, 1)), x])
        y = rng.integers(0, 4, size=5)
        coef = rng.normal(scale=0.7, size=(3, 4))
        _, grad = nll_and_grad(coef, design, y, 4)
        fd = np.zeros_like(coef)
        for i in range(3):
            for j in range(4):
                up, down = coef.copy(), coef.copy()
                up[i, j] += h
                down[i, j] -= h
                fd[i, j] = (
                    nll_and_grad(up, design, y, 4)[0] - nll_and_grad(down, design, y, 4)[0]
                ) / (2 * h)
        rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad))
        assert rel <= 1e-5

        model = mf.SoftmaxModel(
            class_values=(0.0, 0.3, 0.7, 1.0),
            coef=rng.normal(scale=3.0, size=(3, 4)),
            feature_names=list("abc"),
            mean=np.zeros(3),
            std=np.ones(3),
        )
        proba = model.predict_proba(rng.normal(size=(8, 3)))
        assert np.all(proba >= 0.0)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

        truth = rng.integers(0, 4, size=40)
        pred = rng.integers(0, 4, size=40)
        summary = mf.summary_metrics(mf.confusion(truth, pred, n_classes=4))
        assert summary["micro"]["f_measure"] == pytest.approx(
            float(np.mean(truth == pred)), abs=1e-12
        )

    corpus = official_corpus()
    if corpus is None:
        ok("02 classifier (randomized checks; official corpus not provided)")
        return

    stats = mf.estimate_serve_win_posterior(corpus, unit="point")
    label_set = mf.LabelSet.from_stats(stats)
    rows, levels = [], []
    for tl in corpus:
        rows.append(mf.derive_features(tl).values)
        levels.append(mf.label_points(tl, stats))
    x = np.vstack(rows)
    y = np.concatenate(levels)
    cfg = TrainConfig(max_iters=300, seed=0)
    train_idx, test_idx = mf.train_test_split(y, fraction=cfg.split, seed=cfg.seed)
    model = mf.train(
        FeatureTable("corpus", list(FEATURE_NAMES), x[train_idx]),
        y[train_idx],
        cfg,
        class_values=label_set.values,
    )
    pred = model.predict(x[test_idx])
    micro = mf.summary_metrics(mf.confusion(y[test_idx], pred, n_classes=4))["micro"]
    assert abs(micro["accuracy"] - 0.931) <= 0.05
    ok("02 classifier (official corpus micro accuracy within 0.05 of 0.931)")


def test_criterion_03_metrics_match_oracles():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    for _ in range(100):
        truth = rng.integers(0, 4, size=50)
        pred = rng.integers(0, 4, size=50)
        counts = mf.confusion(truth, pred, n_classes=4)
        oracle = confusion_oracle(truth.tolist(), pred.tolist(), 4)
        for c in range(4):
            assert (counts.tp[c], counts.fp[c], counts.fn[c], counts.tn[c]) == oracle[c]

        summary = mf.summary_metrics(counts)
        precisions, recalls, f1s = [], [], []
        for c in range(4):
            tp, fp, fn, _ = oracle[c]
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            precisions.append(p)
            recalls.append(r)
            f1s.append(2 * p * r / (p + r) if p + r else 0.0)
        macro_p, macro_r = sum(precisions) / 4, sum(recalls) / 4
        want_macro_f1 = 2 * macro_p * macro_r / (macro_p + macro_r) if macro_p + macro_r else 0.0
        assert summary["macro"]["f_measure"] == pytest.approx(want_macro_f1, abs=1e-12)
        tp_sum = sum(oracle[c][0] for c in range(4))
        fp_sum = sum(oracle[c][1] for c in range(4))
        fn_sum = sum(oracle[c][2] for c in range(4))
        micro_p = tp_sum / (tp_sum + fp_sum)
        micro_r = tp_sum / (tp_sum + fn_sum)
        assert summary["micro"]["f_measure"] == pytest.approx(
            2 * micro_p * micro_r / (micro_p + micro_r), abs=1e-12
        )

        binary_truth = rng.integers(0, 2, size=50)
        if binary_truth.min() == binary_truth.max():
            binary_truth[0] = 1 - binary_truth[0]
        scores = np.round(rng.random(50), 2)
        curve = mf.roc_auc(binary_truth, scores, positive=1)
        assert abs(curve.auc - auc_oracle(binary_truth, scores, 1)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ok(f"03 metrics oracle equivalence (100 instances in {elapsed:.2f}s)")


def test_criterion_04_momentum_engine():
    start = time.perf_counter()
    scripted = [1, 1, 1, 2, 1, 2, 2, 2, 2, 1, 1, 2, 1, 1, 1, 1, 2, 2, 1, 2]
    result = momentum_from_victors(scripted)
    oracle_p1, oracle_p2 = momentum_oracle(scripted)
    assert np.array_equal(result["p1"], oracle_p1), "20-point fixture must match bit for bit"
    assert np.array_equal(result["p2"], oracle_p2)

    rng = np.random.default_rng(4)
    params = MomentumParams()
    balanced_points = 0
    for _ in range(1000):
        n = int(rng.integers(24, 48))
        v = rng.integers(1, 3, size=n)
        out = momentum_from_victors(v, params)

        # range
        for key in ("p1", "p2"):
            assert np.all(out[key] >= 0.0) and np.all(out[key] <= 1.0)

        # neutral baseline: balanced windows without a streak bonus sit at 0.5
        r1 = np.where(v == 1, 0.5, -0.5)
        csum = np.concatenate([[0.0], np.cumsum(r1)])
        idx = np.arange(n)
        sum3 = csum[np.minimum(n - 1, idx + 1) + 1] - csum[np.maximum(0, idx - 1)]
        sum7 = csum[np.minimum(n - 1, idx + 3) + 1] - csum[np.maximum(0, idx - 3)]
        s1, s2 = streak_lengths_oracle(v)
        run = np.maximum(s1, s2)
        neutral = (sum3 == 0.0) & (sum7 == 0.0) & (run < params.streak_min)
        balanced_points += int(neutral.sum())
        assert np.all(out["p1"][neutral] == 0.5)
        assert np.all(out["p2"][neutral] == 0.5)

        # label-swap bonus antisymmetry
        swapped = momentum_from_victors(3 - v, params)
        assert np.array_equal(swapped["p1"], out["p2"])
        assert np.array_equal(swapped["p2"], out["p1"])

        # locality: flipping point m cannot move momentum beyond 3 points away
        m = int(rng.integers(0, n))
        flipped = v.copy()
        flipped[m] = 3 - flipped[m]
        far = np.abs(idx - m) > 3
        out_flipped = momentum_from_victors(flipped, params)
        assert np.array_equal(out["p1"][far], out_flipped["p1"][far])
        assert np.array_equal(out["p2"][far], out_flipped["p2"][far])
    elapsed = time.perf_counter() - start
    assert balanced_points > 0, "baseline check must exercise real points"
    assert elapsed < 1.0
    ok(f"04 momentum engine (1000 timelines, {balanced_points} baseline points, {elapsed:.2f}s)")


def test_criterion_05_ahp_properties():
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = 3 + trial % 7  # orders 3..9
        target = rng.uniform(0.05, 4.0, size=n)
        matrix = mf.matrix_from_weights(target)
        recovered = mf.weights(matrix, method="geometric_mean")
        assert np.max(np.abs(recovered - target / target.sum())) <= 1e-9
        result = mf.consistency(matrix)
        assert abs(result.ci) < 1e-9
        assert abs(result.cr) < 1e-9
        assert result.consistent
    ok("05 AHP consistency and recovery (200 random consistent matrices, n=3..9)")


def test_criterion_06_surface_fit():
    x, y = np.meshgrid(np.arange(4.0), np.arange(4.0))
    x, y = x.ravel(), y.ravel()
    fit = mf.fit_poly22(x, y, x**2 + 2.0 * x * y)
    assert fit.coefficient("p20") == pytest.approx(1.0, abs=1e-8)
    assert fit.coefficient("p11") == pytest.approx(2.0, abs=1e-8)
    for term in ("p00", "p10", "p01", "p02"):
        assert abs(fit.coefficient(term)) <= 1e-8

    rng = np.random.default_rng(6)
    six_x = np.array([0.0, 1.0, 0.0, 2.0, 1.0, 0.5])
    six_y = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 0.7])
    interp = mf.fit_poly22(six_x, six_y, rng.normal(size=6))
    assert interp.r_squared == pytest.approx(1.0)
    ok("06 surface fit (exact quadratic recovery and 6-point interpolation)")


def test_criterion_07_randomness_calibration():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    pvalues = []
    for trial in range(200):
        victors = rng.integers(1, 3, size=60)
        report = randomness_test(
            victors, statistic="momentum_variance", n_permutations=199, seed=1000 + trial
        )
        pvalues.append(report.p_value)
    ks = ks_distance_uniform(pvalues)
    assert ks < 0.1, f"null p-values must be near-uniform, KS={ks:.3f}"

    alt = np.random.default_rng(9).integers(1, 3, size=60)
    alt[20:35] = 1  # injected 15-point run
    report = randomness_test(alt, statistic="max_streak", n_permutations=199, seed=5)
    assert report.p_value < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(f"07 randomness calibration (KS={ks:.3f}, alternative p={report.p_value:.4f}, {elapsed:.1f}s)")


def test_criterion_08_wavelet():
    start = time.perf_counter()
    n, period = 256, 16.0
    signal = np.sin(2.0 * math.pi * np.arange(n) / period)
    config = WaveletConfig()
    sg = cwt(signal, config)
    predicted = scale_for_period(period, config.center_frequency)
    middle = sg.amplitude[:, n // 4 : 3 * n // 4].mean(axis=1)
    found = sg.scales[int(np.argmax(middle))]
    step = sg.scales[1] / sg.scales[0]
    assert abs(math.log(found / predicted)) <= math.log(step) + 1e-12

    constant = np.full(64, 3.0)
    flat = cwt(constant, WaveletConfig(boundary="reflect"))
    assert flat.amplitude.max() < 1e-6 * np.linalg.norm(constant)

    rng = np.random.default_rng(8)
    short = rng.normal(size=32)
    scales = [2.0, 3.0, 5.0, 8.0]
    got = cwt(short, WaveletConfig(scales=np.array(scales), boundary="zero")).coefficients
    want = cwt_oracle(short, scales, 6.0, boundary="zero")
    assert np.max(np.abs(got - want)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    ok(f"08 wavelet (ridge at {found:.2f} vs {predicted:.2f}, oracle agreement, {elapsed:.2f}s)")


def test_criterion_09_sensitivity_crossover():
    def model(features):
        x = features["psychological_factor"]
        return x if features["serve_indicator"] == 1.0 else 0.12 - x

    spec = SweepSpec(
        indicators=("psychological_factor",),
        ranges=((0.0, 0.12),),
        steps=(0.01,),
        baseline={"psychological_factor": 0.0, "serve_indicator": 1.0},
    )
    result = sweep_1d(model, spec)
    assert len(result.crossovers) == 1
    assert abs(result.crossovers[0] - 0.06) <= 0.01
    ok(f"09 sensitivity crossover at {result.crossovers[0]:.4f} (target 0.06 +- 0.01)")


def test_criterion_10_cli_report(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    outputs = []
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "matchflow.cli",
                "report",
                str(FIXTURE),
                "--out-dir",
                str(out),
                "--seed",
                "11",
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))),
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 10.0
        outputs.append(out)

    report = json.loads((outputs[0] / "report.json").read_text())
    jsonschema.validate(report, load_schema("report"))
    for name, filename in (
        ("metrics", "metrics.json"),
        ("model", "model.json"),
        ("serve_stats", "serve_stats.json"),
        ("cleaning_report", "cleaning_report.json"),
        ("ahp", "ahp.json"),
        ("trend", "trend.json"),
        ("randomness", "randomness.json"),
        ("sweep", "sweep.json"),
        ("scalogram", "scalogram.json"),
        ("momentum_swings", "momentum_swings.json"),
    ):
        jsonschema.validate(json.loads((outputs[0] / filename).read_text()), load_schema(name))

    first = sorted(p.name for p in outputs[0].iterdir())
    second = sorted(p.name for p in outputs[1].iterdir())
    assert first == second
    for name in first:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name
    ok(f"10 CLI report ({len(first)} artifacts, schema-valid, byte-reproducible)")
