"""Command-line front end.

Commands: clean, train-eval, momentum, analyze {ahp|trend|random|sweep|
wavelet}, report.  Every command is a pure function of its input files, the
merged configuration and the seed; outputs are byte-identical across runs.
Option precedence is command line > config file > built-in defaults.

Every command but clean runs stages from the STAGES table on one Context
(config, seed, selected match, training matches), which derives the match's
features (or the error that fails them) and momentum series once: train-eval
runs train, momentum runs momentum, analyze X runs X, and report runs all
seven, then writes report.json.  A stage writes files and returns nothing.
The selected match owns a copy of its columns.  The training matches view the
three blocks their parse filled, of int64 counters, int8 codes and float64
values (see ingest), and Context.train_timelines is the one list that holds
them.  Only the train stage reads it.  Train fills the feature matrix and the
labels in place, one match at a time, so no list of per-match tables is held
beside them, and empties the list as soon as they are built, so the parsed
corpus is freed before the split and the fit allocate; every later stage sees
an empty list.  The feature matrix goes the same way: train keeps the test
rows, hands the training rows to classifier.train as its one reference to
them, and drops the whole matrix first, so the fit holds its standardized
design and no other copy.

A stage writes into a scratch directory inside the output directory and its
files land only if it succeeds; the files it may write (named in STAGES) are
removed before it runs, so none from an earlier run outlive it.
report.json indexes the bundle and copies no value of it: the match id, the
seed, each stage's status ("ok", or "failed" with the reason) and the name of
every file that landed; a failed stage does not stop the others.  No JSON
artifact holds NaN or Infinity; a payload that would fails its stage.  Any
Exception fails only its stage.  The stage errors are MatchFlowError,
ValueError and ArithmeticError (STAGE_ERRORS).  Any other one (a bug, such
as a KeyError or an IndexError, or an OSError) is recorded as
"<TypeName>: <message>" and, once the command has written what it writes,
re-raised with its traceback ahead of any stage error.
A BaseException such as KeyboardInterrupt stops the command where it is.
report removes report.json and cleaning_report.json before its first stage
and writes them last, each through a temporary file, so the bundle keeps one
invariant: if report.json exists, this run wrote it, and every file it lists
exists.  clean writes its two outputs through temporary files too.  Reading
the config or the inputs (no usable match, or a match id in two input files,
is a schema error), or selecting the match, stops a command at once; a
selected match whose every row was rejected at ingest is a schema error that
counts them, and an id no row holds is a config error.

Config: main resolves every key of every section with load_config before the
command starts, so an unknown key, a wrongly typed value, an out-of-range
value, an unknown feature name or choice (unit, AHP method, statistic, sweep
degree), a repeated AHP or sweep indicator, the same trend axis for x and y,
a list that does not line up with its indicators, an empty sweep range, a
configured sweep grid with an axis of fewer than 2 samples or more than
sweep.MAX_GRID_CELLS cells, a trend.grid whose grid**2 surface rows exceed
that same budget (so at most 1000), random.permutations past that budget, a
negative seed, or a faulty judgment matrix exits 3 whatever stages the
command runs; ahp.matrix is resolved to the one matrix the AHP stage uses.
A negative --seed also exits 3 before any input is read or output written.
Only the match's own data is checked by a stage.

Exit codes: 0 success, 1 analysis error, 2 I/O or schema error, 3 config
error, a config file that cannot be read included.  A command with a failed
stage exits with the code of its first failure, report after writing
report.json; a bug is raised, never mapped to a code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import ahp as ahp_mod
from . import classifier, ingest, labels, metrics, momentum, plots, sweep as sweep_mod, trend, wavelet
from .errors import ConfigError, DataError, MatchFlowError, SchemaError

OUT_DIR_ENV = "MATCHFLOW_OUT_DIR"

# Errors that fail one stage and let the others run; main maps each to an exit code.
STAGE_ERRORS = (MatchFlowError, ValueError, ArithmeticError)

DEFAULT_AHP_INDICATORS = ["score_diff", "psychological_factor", "unforced_error_ratio_p2",
                          "distance_run_diff", "set_diff"]

# Built-in pairwise judgments (i, j, a_ij) over the default indicators: the score
# margin dominates, pressure handling comes next, then the opponent's error rate.
DEFAULT_AHP_ENTRIES = [
    (0, 1, 2.0), (0, 2, 3.0), (0, 3, 5.0), (0, 4, 3.0),
    (1, 2, 2.0), (1, 3, 3.0), (1, 4, 2.0),
    (2, 3, 2.0), (2, 4, 1.0),
    (3, 4, 0.5),
]


# Sections that hold a library dataclass's fields, less those named; validated at load.
DATACLASS_SECTIONS = {
    "momentum": (momentum.MomentumParams, ()),
    "train": (classifier.TrainConfig, ("seed",)),  # the run's seed is the top-level seed
    "wavelet": (wavelet.WaveletConfig, ("scales",)),  # an explicit ladder is library-only
}

DEFAULTS = {
    "unit": "point",
    "holdout": "1701",
    "seed": 0,
    "columns": {},  # file column name -> canonical column name
    "ahp": {"indicators": DEFAULT_AHP_INDICATORS, "method": "geometric_mean", "matrix": None,
            "matrix_csv": None},
    "trend": {"x": "momentum", "y": "streak_len_p1", "grid": 20},
    "random": {"statistic": "max_streak", "permutations": 199},
    "sweep": {"indicators": ["psychological_factor"], "ranges": None, "steps": None,
              "degree": 2, "tolerance": 1e-3},
    **{name: {f.name: f.default for f in dataclasses.fields(cls) if f.name not in omit}
       for name, (cls, omit) in DATACLASS_SECTIONS.items()},
}


# ---------------------------------------------------------------- plumbing

def _replace(path, write):
    """Call write(tmp) on a temporary path beside path, then move it to path: never half-written."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _replace(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _is_number(value) -> bool:
    """A finite int or float; bool is not a number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_str(value) -> bool:
    return isinstance(value, str)


def _list_of(item, length=None):
    return lambda value: (isinstance(value, list) and all(map(item, value))
                          and length in (None, len(value)))


def _nullable(check):
    return lambda value: value is None or check(value)


# Keys whose default is None or a list: key -> (the shape wanted, its check).
SHAPES = {
    "sweep.ranges": ("null or a list of [lo, hi] number pairs",
                     _nullable(_list_of(_list_of(_is_number, 2)))),
    "sweep.steps": ("null or a list of numbers", _nullable(_list_of(_is_number))),
    "sweep.indicators": ("a list of strings", _list_of(_is_str)),
    "ahp.indicators": ("a list of strings", _list_of(_is_str)),
    "ahp.matrix": ("null or a list of number lists", _nullable(_list_of(_list_of(_is_number)))),
    "ahp.matrix_csv": ("null or a string", _nullable(_is_str)),
    "wavelet.max_period": ("null or a number", _nullable(_is_number)),
}

# The type a scalar default asks for: its type -> (the type wanted, its check).
TYPES = {
    bool: ("a boolean", lambda value: isinstance(value, bool)),
    int: ("an integer", lambda value: isinstance(value, int) and not isinstance(value, bool)),
    float: ("a finite number", _is_number),
    str: ("a string", _is_str),
}


def _floats(value):
    """value with every number in it, at any list depth, as a float."""
    if isinstance(value, list):
        return [_floats(item) for item in value]
    return float(value) if _is_number(value) else value


def _typed(key, value, default):
    """value if it has default's type (or the shape SHAPES gives key), else a ConfigError.

    bool is not a number, an int needs an int, a number must be finite, and an
    int given for a float (or among a shape's numbers) comes back as a float.
    """
    wanted, check = SHAPES[key] if key in SHAPES else TYPES[type(default)]
    if not check(value):
        raise ConfigError(f"{key} must be {wanted}, got {json.dumps(value)}")
    return value if type(default) is int else _floats(value)


def load_config(path) -> dict:
    """Every key of every section: its value in the JSON file at path, else its default."""
    config = json.loads(json.dumps(DEFAULTS))  # deep copy
    user = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
    for key, value in user.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config section {key!r}")
        if not isinstance(config[key], dict):
            config[key] = _typed(key, value, config[key])
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be a JSON object")
        for name, item in value.items():
            if key != "columns" and name not in config[key]:
                raise ConfigError(f"unknown config key {key}.{name}")
            # columns takes any file column name; each maps to a string
            config[key][name] = _typed(f"{key}.{name}", item, config[key].get(name, ""))
    for key, (cls, _) in DATACLASS_SECTIONS.items():
        try:
            cls(**config[key]).validate()
        except DataError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    _check_values(config)
    config["ahp"]["matrix"] = _judgment_matrix(config["ahp"])
    return config


def _check_values(config):
    """ConfigError for the first value, of those checkable without input data, out of range."""
    features = ingest.FEATURE_NAMES
    # the sweep sets serve_indicator itself, once per context
    sweepable = [name for name in features if name != sweep_mod.SERVE_INDICATOR]
    ahp, trend_cfg, sweep = config["ahp"], config["trend"], config["sweep"]
    n_ahp, n_sweep = len(ahp["indicators"]), len(sweep["indicators"])
    max_ahp = max(ahp_mod.RANDOM_INDEX)  # the largest judgment matrix order with a random index
    # the trend surface's budget too (grid**2 rows), and the permutation test's
    max_cells = sweep_mod.MAX_GRID_CELLS
    choices = {"unit": labels.UNITS, "ahp.method": ahp_mod.WEIGHT_METHODS,
               "random.statistic": tuple(trend.STATISTICS), "sweep.degree": sweep_mod.DEGREES,
               "trend.x": ("momentum", *features), "trend.y": ("momentum", *features)}
    checks = [(key, _value(config, key) in allowed, f"one of {list(allowed)}")
              for key, allowed in choices.items()]
    checks += [  # (key, whether its value passes, what it must be)
        ("ahp.indicators", 2 <= n_ahp <= max_ahp
         and len(set(ahp["indicators"]) & set(features)) == n_ahp,
         f"2 to {max_ahp} distinct feature names from {features}"),
        ("trend.y", trend_cfg["y"] != trend_cfg["x"], "an axis other than trend.x"),
        ("seed", config["seed"] >= 0, "at least 0"),
        ("trend.grid", 1 <= trend_cfg["grid"] and trend_cfg["grid"] ** 2 <= max_cells,
         f"1 to {math.isqrt(max_cells)}"),
        ("random.permutations",
         trend.MIN_PERMUTATIONS <= config["random"]["permutations"] <= max_cells,
         f"{trend.MIN_PERMUTATIONS} to {max_cells}"),
        ("sweep.indicators", 1 <= n_sweep <= 2
         and len(set(sweep["indicators"]) & set(sweepable)) == n_sweep,
         f"one or two distinct feature names from {sweepable}"),
        ("sweep.ranges", sweep["ranges"] is None
         or (len(sweep["ranges"]) == n_sweep and all(lo < hi for lo, hi in sweep["ranges"])),
         f"null or {n_sweep} [lo, hi] pair(s), one per indicator, each with lo < hi"),
        ("sweep.steps", sweep["steps"] is None
         or (len(sweep["steps"]) == n_sweep and all(step > 0 for step in sweep["steps"])),
         f"null or {n_sweep} positive step(s), one per indicator"),
    ]
    for key, passes, wanted in checks:
        if not passes:
            raise ConfigError(f"{key} must be {wanted}, got {json.dumps(_value(config, key))}")
    if sweep["ranges"] is not None:  # otherwise the ranges come from the match's data
        try:
            sweep_mod.check_grid(sweep["indicators"], sweep["ranges"],
                                 _sweep_steps(sweep["ranges"], sweep["steps"]))
        except DataError as exc:
            raise ConfigError(f"sweep: {exc}") from None


def _judgment_matrix(ahp) -> list:
    """Rows of the judgment matrix the AHP stage uses; a ConfigError names the key at fault."""
    if ahp["matrix"] is not None and ahp["matrix_csv"] is not None:
        raise ConfigError("ahp.matrix and ahp.matrix_csv are both set; give one of them")
    key, rows, n = "ahp.matrix", ahp["matrix"], len(ahp["indicators"])
    try:
        if ahp["matrix_csv"] is not None:
            key = "ahp.matrix_csv"
            with open(ahp["matrix_csv"], encoding="utf-8") as fh:
                rows = [[float(cell) for cell in row] for row in csv.reader(fh) if row]
        elif rows is None:  # other indicator lists fall back to equal importance
            rows = np.ones((n, n))
            if ahp["indicators"] == DEFAULT_AHP_INDICATORS:
                for i, j, value in DEFAULT_AHP_ENTRIES:
                    rows[i, j], rows[j, i] = value, 1.0 / value
            rows = rows.tolist()
        if list(map(len, rows)) != [n] * n:
            raise DataError(f"need a {n} x {n} matrix, one row and column per indicator")
        ahp_mod.JudgmentMatrix(np.asarray(rows))
    except (OSError, ValueError, csv.Error, DataError) as exc:
        raise ConfigError(f"{key}: {exc}") from None
    return rows


def _value(config, key):
    """The value of a dotted config key such as "sweep.degree"."""
    return functools.reduce(dict.__getitem__, key.split("."), config)


def _fits(ids, wanted) -> list:
    """[wanted] if it is one of ids, else each id that ends with it."""
    return [wanted] if wanted in ids else [i for i in ids if i.endswith(wanted)]


def _select_match(timelines, wanted, rejected_ids, fallback=False):
    """The match with id `wanted`, else the one whose id ends with it; None takes the first.

    Two or more ids that end with `wanted`, and none equal to it, are a ConfigError.
    rejected_ids holds the match id of each row rejected at ingest for its
    point_no; a wanted match with no usable row but some rejected is a
    SchemaError that counts them.  Only a `wanted` that no row of the inputs
    names takes the first match under `fallback`; otherwise it is a ConfigError.
    """
    if wanted is None:
        return timelines[0]
    fits = _fits(dict.fromkeys(tl.match_id for tl in timelines), wanted)  # distinct, in order
    if len(fits) > 1:
        raise ConfigError(f"match id suffix {wanted!r} fits more than one match: {fits}")
    if fits:
        return next(tl for tl in timelines if tl.match_id == fits[0])
    lost = _fits(dict.fromkeys(rejected_ids), wanted)
    if len(lost) == 1:
        raise SchemaError(f"match {lost[0]!r} has no usable rows: all "
                          f"{rejected_ids.count(lost[0])} of its rows were rejected at ingest")
    if fallback:
        return timelines[0]
    raise ConfigError(f"no match with id (or id suffix) {wanted!r} in the inputs")


@dataclasses.dataclass
class Context:
    """What every stage reads: the run's settings and the selected match."""

    config: dict
    seed: int
    match: ingest.MatchTimeline
    train_timelines: list  # every input match but the selected one, until train empties it
    plot: bool

    @functools.cached_property
    def _features(self):
        """The match's feature table, or the stage error that deriving it raised."""
        try:
            return ingest.derive_features(self.match)
        except STAGE_ERRORS as exc:  # kept, so every stage that reads the features fails alike
            return exc

    @property
    def features(self) -> ingest.FeatureTable:
        if isinstance(self._features, STAGE_ERRORS):
            raise self._features
        return self._features

    @functools.cached_property
    def params(self) -> momentum.MomentumParams:
        return momentum.MomentumParams(**self.config["momentum"])

    @functools.cached_property
    def series(self) -> dict:
        return momentum.momentum_series(self.match, self.params)


def _stage_file(scratch, files, name, key=None) -> Path:
    """Path of a stage's file in its scratch directory; records it under its report key."""
    files[key or Path(name).stem] = name
    return Path(scratch, name)


# ---------------------------------------------------------------- stages

def _training_rows(timelines):
    """The feature matrix and the labels of timelines, filled in place one match at a time.

    No name here outlives the call, so once the caller drops the timelines
    their parsed blocks are freed.
    """
    n = sum(map(len, timelines))
    x = np.empty((n, len(ingest.FEATURE_NAMES)))
    y = np.empty(n, dtype=int)
    start = 0
    for timeline in timelines:
        rows = slice(start, start + len(timeline))
        x[rows] = ingest.derive_features(timeline).values
        y[rows] = labels.label_points(timeline)
        start = rows.stop
    return x, y


def _train(ctx, out):
    """Fit the classifier on the other matches; score a split and the match."""
    if not ctx.train_timelines:
        raise ConfigError("holdout match leaves no data to train on")
    stats = labels.estimate_serve_win_posterior(ctx.train_timelines, unit=ctx.config["unit"])
    label_set = labels.LabelSet.from_stats(stats)
    x, y = _training_rows(ctx.train_timelines)
    n_matches = len(ctx.train_timelines)
    ctx.train_timelines.clear()  # frees each parsed block in one piece before the fit allocates
    cfg = classifier.TrainConfig(**ctx.config["train"], seed=ctx.seed)
    train_idx, test_idx = classifier.train_test_split(y, fraction=cfg.split, seed=cfg.seed)
    test_x, test_y = x[test_idx], y[test_idx]
    held = [ingest.FeatureTable("corpus", list(ingest.FEATURE_NAMES), x[train_idx])]
    del x  # held.pop() hands train the one reference to the training rows
    model = classifier.train(held.pop(), y[train_idx], cfg, class_values=label_set.values)
    _write_json(out("model.json"), model.to_dict())
    _write_json(out("serve_stats.json"), stats)

    proba = model.predict_proba(test_x)
    counts = metrics.confusion(test_y, np.argmax(proba, axis=1), n_classes=label_set.n_classes)
    summary = metrics.summary_metrics(counts)
    auc = {}
    for level in range(label_set.n_classes):
        curve = metrics.roc_auc(test_y, proba[:, level], level)
        ingest.write_csv(out(f"roc_level{level}.csv"), ["threshold", "fpr", "tpr"],
                         [[curve.thresholds, curve.fpr, curve.tpr]])
        auc[f"roc_level{level}"] = curve.auc
    _write_json(out("metrics.json"), {**metrics.metrics_table(summary, label_set.values),
                                      "auc": auc})

    proba = model.predict_proba(ctx.features.values)
    pred = np.argmax(proba, axis=1)
    ingest.write_csv(
        out("holdout_probabilities.csv"),
        ["point_no", *(f"proba_{v:g}" for v in label_set.values), "predicted_value",
         "predicted_outcome"],
        [[ctx.match.columns["point_no"], *proba.T,
          [f"{label_set.values[level]:g}" for level in pred],
          [f"Player {label_set.winner(level)} wins" for level in pred]]],
    )

    micro = summary["micro"]
    print(f"trained on {n_matches} match(es), held out {ctx.match.match_id}")
    print(f"{model.n_iters} training iteration(s), stop reason {model.stop_reason}, "
          f"final loss {model.final_loss:.3g}")
    print(f"micro accuracy {micro['accuracy']:.3f}, micro F1 {micro['f_measure']:.3f}")
    for name, value in auc.items():
        print(f"{name}: AUC {value:.3f}")


def _unit_end_points(match, unit):
    ends = labels.unit_ends(match, unit)
    columns = (match.columns[name][ends].tolist()
               for name in ("point_no", "set_no", "game_no", "point_victor"))
    return [{"point_no": p, "set_no": s, "game_no": g, "victor": v}
            for p, s, g, v in zip(*columns)]


def _momentum(ctx, out):
    s, match = ctx.series, ctx.match
    point_no = match.columns["point_no"]
    ingest.write_csv(
        out("momentum.csv", key="momentum_csv"),
        ["point_no", "p1_momentum", "p2_momentum", "p1_short_window", "p1_long_window",
         "p2_short_window", "p2_long_window", "streak_len", "streak_holder"],
        [[point_no, *s.values()]],  # p1, p2, the four windows, streak_len, streak_holder
    )
    _write_json(out("momentum_swings.json"), {
        "version": 1,
        "match_id": match.match_id,
        "swings": momentum.find_swings(s["p1"], point_no),
        "game_end_points": _unit_end_points(match, "game"),
        "set_end_points": _unit_end_points(match, "set"),
    })
    if ctx.plot:
        plots.line_plot_svg(
            point_no,
            {"player 1": s["p1"], "player 2": s["p2"]},
            out("momentum.svg", key="momentum_plot"),
            title=f"momentum: {match.match_id}",
        )
    print(f"momentum series for {match.match_id}: {point_no.size} points")
    print(f"p1 mean momentum {float(s['p1'].mean()):.3f}")


def _ahp(ctx, out):
    section = ctx.config["ahp"]
    matrix = ahp_mod.JudgmentMatrix(np.asarray(section["matrix"]))  # resolved by load_config
    indicator_names = section["indicators"]
    columns = np.column_stack([ctx.features.column(name) for name in indicator_names])

    scoring_weights = ahp_mod.weights(matrix, method=section["method"])
    result = ahp_mod.consistency(matrix)
    rounds = ahp_mod.score_rounds(columns, scoring_weights, indicator_names)
    payload = {
        "version": 1,
        "indicators": list(indicator_names),
        "weighting_method": section["method"],
        "scoring_weights": scoring_weights.tolist(),
        "result": result,
    }
    _write_json(out("ahp.json"), payload)
    ingest.write_csv(out("ahp_ranking.csv"), ["round", "score", "standardization", "ranking"],
                     [[np.arange(1, rounds.scores.size + 1), rounds.scores, rounds.standardized,
                       rounds.ranking]])
    print(f"CR {result['consistency_ratio']:.4f} (consistent: {result['consistent']})")


def _trend(ctx, out):
    section = ctx.config["trend"]
    p1 = ctx.series["p1"]
    won = np.column_stack([ctx.match.columns["p1_points_won"],
                           ctx.match.columns["p2_points_won"]]).astype(float)
    win_rate = won[:, 0] / np.maximum(won[:, 0] + won[:, 1], 1.0)  # player 1's share so far
    axes = dict(zip(ctx.features.feature_names, ctx.features.values.T), momentum=p1)
    x, y = axes[section["x"]], axes[section["y"]]
    fit = trend.fit_poly22(x, y, win_rate, axes=(section["x"], section["y"]))
    grid_n = section["grid"]
    gx = np.linspace(float(x.min()), float(x.max()), grid_n)
    gy = np.linspace(float(y.min()), float(y.max()), grid_n)
    ingest.write_csv(out("trend_surface.csv"), [section["x"], section["y"], "fitted_win_rate"],
                     _grid_groups((gx, gy), fit.predict(gx[:, None], gy[None, :])))

    payload = {
        "version": 1,
        "pairing": {
            "similarity_pair": ["p1_momentum", "cumulative_win_rate"],
            "surface_x": section["x"],
            "surface_y": section["y"],
            "surface_z": "cumulative_win_rate",
        },
        "cosine_similarity": trend.cosine_similarity(p1, win_rate),
        "euclidean_distance": trend.euclidean_distance(p1, win_rate),
        "surface": fit.to_dict(),
    }
    _write_json(out("trend.json"), payload)
    print(f"cosine similarity {payload['cosine_similarity']:.4f}, "
          f"R^2 {payload['surface']['r_squared']:.4f}")


def _random(ctx, out):
    section = ctx.config["random"]
    payload = trend.randomness_test(
        ctx.match.columns["point_victor"],
        params=ctx.params,
        statistic=section["statistic"],
        n_permutations=section["permutations"],
        seed=ctx.seed,
    )
    _write_json(out("randomness.json"), payload)
    print(f"{payload['statistic']}: observed {payload['observed']:.4f}, "
          f"p = {payload['p_value']:.4f}")


def _sweep(ctx, out):
    section, table = ctx.config["sweep"], ctx.features
    # first, so a column too spread to scale fails here before its median can overflow
    model = sweep_mod.fit_response_model(table, ctx.series["p1"], degree=section["degree"])
    ranges = []
    for i, name in enumerate(section["indicators"]):
        column = table.column(name)
        lo, hi = section["ranges"][i] if section["ranges"] else (column.min(), column.max())
        hi = hi if lo < hi else lo + 1.0  # a constant column (load_config rejects lo >= hi)
        ranges.append((lo, hi))
    spec = sweep_mod.SweepSpec(
        indicators=section["indicators"], ranges=ranges,
        steps=_sweep_steps(ranges, section["steps"]),
        baseline={name: _median(table.column(name)) for name in table.feature_names},
        tolerance=section["tolerance"],
    )
    result = sweep_mod.sweep_grid(model, spec)
    # one row per grid point (first indicator outermost) and context
    contexts = np.array(["serve_first", "serve_second", "mean"], dtype=object)
    ingest.write_csv(out("sweep.csv", key="sweep_csv"), [*spec.indicators, "context", "momentum"],
                     _grid_groups((*result.grids, contexts),
                                  np.stack([getattr(result, c) for c in contexts], axis=-1)))
    payload = result.to_dict()
    _write_json(out("sweep.json"), payload)
    print(f"crossovers: {payload['crossovers']}")


def _grid_groups(axes, values):
    """write_csv's groups for a table over the axes' grid, PARSE_BLOCK cells at a time.

    values has the grid's shape.  A cell's row holds its coordinate on each
    axis, then its value; cells run in row-major order, first axis outermost,
    so no column spans the grid and a large table is never held whole.
    """
    flat = values.ravel()
    for start in range(0, flat.size, ingest.PARSE_BLOCK):
        index = np.unravel_index(np.arange(start, min(start + ingest.PARSE_BLOCK, flat.size)),
                                 values.shape)
        yield [axis[i] for axis, i in zip(axes, index)] + [flat[start:start + ingest.PARSE_BLOCK]]


def _median(values) -> float:
    """np.median of a nonempty finite 1-D array bit for bit, without the numpy.ma import it makes:
    partitions at the indices np.median does, then takes np.mean of the middle."""
    m = values.size // 2
    kth = [m - 1, m] if values.size % 2 == 0 else [m]  # the middle one or two
    part = np.partition(values, [*kth, -1])
    return float(np.mean(part[kth[0] : m + 1]))


def _sweep_steps(ranges, steps) -> list:
    """The configured steps, or 24 equal steps across each range."""
    return steps or [(hi - lo) / 24.0 for lo, hi in ranges]


def _wavelet(ctx, out):
    section = ctx.config["wavelet"]
    scalogram = wavelet.cwt(ctx.series["p1"], wavelet.WaveletConfig(**section))
    ingest.write_csv(out("scalogram.csv", key="scalogram_csv"), ["scale", "time", "amplitude"],
                     _grid_groups((scalogram.scales, scalogram.times), scalogram.amplitude))
    payload = {**wavelet.scalogram_export(scalogram), "config": section}
    _write_json(out("scalogram.json"), payload)
    if ctx.plot:
        plots.heatmap_svg(
            scalogram.amplitude,
            out("scalogram.svg", key="scalogram_plot"),
            title=f"momentum scalogram: {ctx.match.match_id}",
            x_labels=scalogram.times,
            y_labels=scalogram.scales,
        )
    peak = payload["global_peak"]
    print(f"peak amplitude {peak['amplitude']:.4f} at scale {peak['scale']:.2f}, "
          f"point {peak['time']}")


# name -> (stage, the files it may write), in report order
STAGES = {
    "train": (_train, ("model.json", "serve_stats.json", "metrics.json",
                       "holdout_probabilities.csv",
                       *(f"roc_level{level}.csv" for level in range(4)))),  # one per label level
    "momentum": (_momentum, ("momentum.csv", "momentum_swings.json", "momentum.svg")),
    "ahp": (_ahp, ("ahp.json", "ahp_ranking.csv")),
    "trend": (_trend, ("trend.json", "trend_surface.csv")),
    "random": (_random, ("randomness.json",)),
    "sweep": (_sweep, ("sweep.json", "sweep.csv")),
    "wavelet": (_wavelet, ("scalogram.json", "scalogram.csv", "scalogram.svg")),
}


# ---------------------------------------------------------------- commands

def cmd_clean(args, config):
    timelines, report = ingest.load_and_clean(args.input, columns=config["columns"])
    _replace(args.output, functools.partial(ingest.write_clean_csv, timelines))
    _write_json(args.report, report.to_dict())
    print(f"cleaned {sum(len(t) for t in timelines)} points from {len(timelines)} match(es)")
    print(f"wrote {args.output} and {args.report}")
    return 0


def _read_inputs(paths, config):
    """(timelines, cleaning report) of every input file; a match id in two files is an error."""
    timelines, cleaning, sources = [], ingest.CleaningReport(), {}
    for path in paths:
        part, part_report = ingest.load_and_clean(path, columns=config["columns"])
        for tl in part:  # a match in two files would be counted twice
            if tl.match_id in sources:
                raise SchemaError(f"match id {tl.match_id!r} is in both "
                                  f"{sources[tl.match_id]} and {path}")
            sources[tl.match_id] = path
        timelines.extend(part)
        cleaning.merge(part_report)
    if not timelines:
        raise SchemaError("no matches found in the input files")
    return timelines, cleaning


def cmd_stages(args, config):
    """Run the command's stage, or every stage for report, into the output directory."""
    seed = args.seed if args.seed is not None else config["seed"]
    if seed < 0:  # load_config has checked the config's seed
        raise ConfigError(f"--seed must be at least 0, got {seed}")
    timelines, cleaning = _read_inputs(args.inputs, config)
    bundle = args.stage is None
    # train-eval and report default to the configured holdout; only report
    # falls back to the first match when the inputs lack it
    wanted = args.match or (config["holdout"] if bundle or args.stage == "train" else None)
    match = _select_match(timelines, wanted, cleaning.rejected_ids,
                          fallback=bundle and not args.match)
    timelines.remove(match)  # the rest are the training matches: ctx's list, which train empties
    # the match owns its columns, so no view of it keeps a parsed block alive
    match = dataclasses.replace(match, columns={name: values.copy()
                                                for name, values in match.columns.items()})
    ctx = Context(config, seed, match, timelines, args.plot)
    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    if bundle:  # neither may describe an earlier run if this one stops
        for file_name in ("report.json", "cleaning_report.json"):
            (out_dir / file_name).unlink(missing_ok=True)

    statuses, artifacts, failures = {}, {}, []
    for name in list(STAGES) if bundle else [args.stage]:
        stage, owned = STAGES[name]
        for file_name in owned:  # no file of an earlier run may outlive this run of the stage
            (out_dir / file_name).unlink(missing_ok=True)
        files = {}  # report.json artifact key -> file name
        with tempfile.TemporaryDirectory(prefix=".stage-", dir=out_dir) as scratch:
            try:
                stage(ctx, functools.partial(_stage_file, scratch, files))
            except Exception as exc:  # a BaseException such as KeyboardInterrupt is not caught
                reason = (str(exc) if isinstance(exc, STAGE_ERRORS)
                          else f"{type(exc).__name__}: {exc}")
                statuses[name] = {"status": "failed", "reason": reason}
                failures.append(exc)
                continue
            for file_name in files.values():
                os.replace(Path(scratch, file_name), out_dir / file_name)
        statuses[name] = {"status": "ok"}
        artifacts.update(files)

    if bundle:
        _write_json(out_dir / "cleaning_report.json", cleaning.to_dict())
        artifacts["cleaning_report"] = "cleaning_report.json"
        _write_json(out_dir / "report.json", {
            "version": 2,
            "match_id": match.match_id,
            "seed": seed,
            "artifacts": artifacts,
            "stages": statuses,
        })
        print(f"report for {match.match_id} written to {out_dir}")
    if failures:  # the first bug, which no exit code stands for, else the first stage error
        raise min(failures, key=lambda exc: isinstance(exc, STAGE_ERRORS))
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchflow", description="point-by-point tennis match-flow analytics"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("inputs", nargs="+", help="point-by-point CSV file(s)")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="seed for stochastic components")
        p.add_argument("--out-dir", default=None,
                       help=f"output directory (or ${OUT_DIR_ENV}, default .)")

    p_clean = sub.add_parser("clean", help="clean a CSV and report the repairs")
    p_clean.add_argument("input", help="point-by-point CSV file")
    p_clean.add_argument("--output", default="cleaned.csv", help="cleaned CSV path")
    p_clean.add_argument("--report", default="cleaning_report.json", help="report JSON path")
    p_clean.add_argument("--config", help="JSON config file")
    p_clean.set_defaults(func=cmd_clean)

    p_train = sub.add_parser("train-eval", help="train the classifier and evaluate it")
    common(p_train)
    p_train.add_argument("--holdout", dest="match", default=None,
                         help=f"match id (or suffix) to hold out; default {DEFAULTS['holdout']}")
    p_train.set_defaults(func=cmd_stages, stage="train", plot=False)

    p_mom = sub.add_parser("momentum", help="momentum series and swing annotations")
    common(p_mom)
    p_mom.add_argument("--match", default=None, help="match id or suffix (default: first)")
    p_mom.add_argument("--plot", action="store_true", help="also render an SVG line plot")
    p_mom.set_defaults(func=cmd_stages, stage="momentum")

    p_an = sub.add_parser("analyze", help="run one analysis")
    p_an.add_argument("stage", choices=list(STAGES)[2:])  # the stages after train, momentum
    common(p_an)
    p_an.add_argument("--match", default=None, help="match id or suffix (default: first)")
    p_an.add_argument("--plot", action="store_true", help="render SVG where applicable")
    p_an.set_defaults(func=cmd_stages)

    p_rep = sub.add_parser("report", help="bundle every analysis for one match")
    common(p_rep)
    p_rep.add_argument("--match", default=None,
                       help="match id or suffix (default: the configured holdout)")
    p_rep.set_defaults(func=cmd_stages, stage=None, plot=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, load_config(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (SchemaError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except STAGE_ERRORS as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
