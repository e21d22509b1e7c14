"""``report_diff`` tells a verdict flip, a count change and a residual move
apart, each planted in a copy of a real report."""

import copy
import json
import math

import pytest

from absval import TolerancePolicy, run_suite
from report_diff import diff_reports, main, summary

FORCED = TolerancePolicy(rel=1e-15, abs=1e-300)


@pytest.fixture(scope="module")
def report():
    # C-EIGHT has violation records at this tolerance; CE-0 is a registry claim
    out = run_suite(["C-EIGHT", "C-TRI", "CE-0"], [2], 40, 5, FORCED).to_dict()
    assert out["claims"][0]["violations"] and not out["claims"][1]["violations"]
    return out


def by_id(old, new):
    return {d.claim_id: d for d in diff_reports(old, new)}


def exit_code(tmp_path, old, new):
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, rep in zip(paths, (old, new)):
        path.write_text(json.dumps(rep), encoding="utf-8")
    return main([str(p) for p in paths])


def test_a_report_matches_itself(report, tmp_path):
    same = copy.deepcopy(report)
    assert all(d.kind is None for d in diff_reports(report, same))
    assert summary(report, same) == "0 of 3 claims differ"
    assert exit_code(tmp_path, report, same) == 0


def test_a_planted_verdict_flip(report, tmp_path):
    flipped = copy.deepcopy(report)
    tri = flipped["claims"][1]
    tri["passes"] -= 1
    record = {"seed": 1, "claim_tag": "C-TRI:2", "dim": 2, "trial": 7}
    tri["violations"].append({**record, "residuals": {"conclusion": 1e-3}})
    diffs = by_id(report, flipped)
    d = diffs["C-TRI"]
    assert d.kind == "verdict" and not d.removed and not d.moves
    assert d.added == [("violations", "C-TRI:2", 2, 7)]
    assert {k: v for k, v in d.counts.items() if v[0] != v[1]} == {
        "passes": (40, 39), "violations": (0, 1)
    }
    assert diffs["C-EIGHT"].kind is diffs["CE-0"].kind is None
    assert by_id(flipped, report)["C-TRI"].removed == d.added
    text = summary(report, flipped)
    assert text.splitlines()[0] == "1 of 3 claims differ"
    assert "C-TRI (verdict): trials 40, passes 40 -> 39," in text
    assert "  + violation C-TRI:2 dim 2 trial 7" in text
    assert exit_code(tmp_path, report, flipped) == 1


def test_a_planted_count_change(report):
    moved = copy.deepcopy(report)
    tri = moved["claims"][1]
    tri["passes"] -= 1
    tri["hypothesis_failures"] += 1
    d = by_id(report, moved)["C-TRI"]
    assert d.kind == "count" and not d.added and not d.removed and not d.moves
    assert {k: v for k, v in d.counts.items() if v[0] != v[1]} == {
        "passes": (40, 39), "hypothesis_failures": (0, 1)
    }
    assert "hypothesis_failures 0 -> 1" in summary(report, moved)


def test_a_one_ulp_residual_move(report):
    moved = copy.deepcopy(report)
    residuals = moved["claims"][0]["violations"][0]["residuals"]
    old = residuals["conclusion"]
    residuals["conclusion"] = math.nextafter(old, math.inf)
    registry = moved["claims"][2]
    registry["worst_residual"] = math.nextafter(registry["worst_residual"], -math.inf)
    diffs = by_id(report, moved)
    for cid, value in (("C-EIGHT", old), ("CE-0", report["claims"][2]["worst_residual"])):
        d = diffs[cid]
        assert d.kind == "residual" and not d.added and not d.removed and not d.changed
        assert all(a == b for a, b in d.counts.values())
        ((name, (move, multiple)),) = d.moves.items()
        assert name == ("conclusion" if cid == "C-EIGHT" else "worst_residual")
        assert move == math.ulp(value)
        assert multiple == move / (FORCED.rel * max(1.0, abs(value)) + FORCED.abs) < 1
    assert diffs["C-TRI"].kind is None
    assert "  residual conclusion: moved " in summary(report, moved)
