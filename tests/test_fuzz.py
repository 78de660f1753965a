import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import fuzz  # noqa: E402

# the committed reproducers, then the first 40 seeds of the grammar
CASES = {**fuzz.REPRODUCERS, **{f"seed-{seed}": fuzz.random_case(seed) for seed in range(40)}}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_report_keeps_its_invariants_on_a_mutated_fixture(case):
    assert fuzz.run_case(case) == []


def test_the_invariant_checks_flag_non_finite_outputs(tmp_path):
    (tmp_path / "model.json").write_text('{"std": [1.0, Infinity]}')
    (tmp_path / "report.json").write_text(json.dumps({"stages": {
        "train": {"status": "failed", "reason": "divergence: training loss is not finite"},
        "sweep": {"status": "failed", "reason": "SVD did not converge in Linear Least Squares"},
        "ahp": {"status": "ok"}}}))
    (tmp_path / "roc_level0.csv").write_text("threshold,fpr,tpr\ninf,0.0,0.0\n0.5,nan,1.0\n")
    (tmp_path / "sweep.csv").write_text("x,context,momentum\n1.0,mean,-inf\n2.0,mean,-inf\n")
    (tmp_path / "momentum.svg").write_text("<svg><text>momentum: R&D<1701></text></svg>")
    assert fuzz.check_outputs(tmp_path) == [
        "model.json: non-finite constant Infinity",
        "stage train fails on numerics: divergence: training loss is not finite",
        "stage sweep fails on numerics: SVD did not converge in Linear Least Squares",
        "roc_level0.csv fpr: 1 non-finite cells from row 2",
        "sweep.csv momentum: 2 non-finite cells from row 1",
        "momentum.svg: not well-formed (invalid token): line 1, column 24",
    ]


def test_a_case_applies_its_mutations_in_order():
    rows = fuzz.fixture_rows()
    got = fuzz.mutated([("set", fuzz.SELECTED, 2, "speed_mph", "x"), ("drop", 0),
                        ("dup", 0), ("swap", 0, -1),
                        ("column", fuzz.TRAINING, "rally_count", "AD")])
    want = [dict(row) for row in rows]
    want[[r["match_id"] for r in want].index(fuzz.SELECTED) + 1]["speed_mph"] = "x"
    del want[0]
    want.insert(0, dict(want[0]))
    want[0], want[-1] = want[-1], want[0]
    for row in want:
        if row["match_id"] == fuzz.TRAINING:
            row["rally_count"] = "AD"
    assert got == want
