"""The golden report: a fixed full-catalog run reproduces bit for bit.

``perfbench/golden_report.json`` holds the report of
``absval --claims all --dims 2,3,8 --trials 50 --seed 20170228`` at default
tolerances.  Any change to a computed value, a verdict or a seed record
shows here; an intended numeric change regenerates that file and says so.
"""

import json
from pathlib import Path

from absval import catalog, run_suite

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden_report.json"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def test_golden_report_reproduces():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    report = run_suite(list(catalog()), [2, 3, 8], 50, 20170228)
    for key in ("config", "verdict"):
        assert canonical(golden[key]) == canonical(report.to_dict()[key]), key
    produced = {c.claim_id: c.to_dict() for c in report.claims}
    assert [c["id"] for c in golden["claims"]] == list(produced)
    for claim in golden["claims"]:
        assert canonical(claim) == canonical(produced[claim["id"]]), claim["id"]
