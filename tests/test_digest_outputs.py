import json
import sys
from pathlib import Path

from matchflow import ahp, cli, labels, sweep, trend

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import digest_outputs  # noqa: E402

# config key -> every value it may take
CHOICES = {
    "unit": labels.UNITS,
    "ahp.method": ahp.WEIGHT_METHODS,
    "random.statistic": tuple(trend.STATISTICS),
    "sweep.degree": sweep.DEGREES,
    "wavelet.boundary": ("reflect", "zero"),
    "momentum.causal": (False, True),
}


def test_every_choice_of_a_config_key_is_run_by_some_digest_config(tmp_path, monkeypatch):
    """A choice that no listing runs could change its outputs unseen."""
    monkeypatch.chdir(tmp_path)  # matrix-csv reads matrix.csv here, as in the tool's runs
    (tmp_path / "matrix.csv").write_text(digest_outputs.MATRIX_CSV)
    configs = [*digest_outputs.CONFIGS.values(), digest_outputs.BLOCKS_CONFIG,
               *(config for config, _ in digest_outputs.CHOICE_CONFIGS.values())]
    resolved = []
    for i, config in enumerate(configs):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(config))
        resolved.append(cli.load_config(path))
    for key, choices in CHOICES.items():
        assert {cli._value(config, key) for config in resolved} == set(choices), key
