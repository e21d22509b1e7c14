"""The golden report: a fixed full-catalog run reproduces bit for bit.

``perfbench/golden_report.json`` holds the report of
``absval --claims all --dims 2,3,8 --trials 50 --seed 20170228`` at default
tolerances.  Any change to a computed value, a verdict or a seed record
shows here, with the claim-by-claim summary of ``report_diff`` in the
failure message; an intended numeric change regenerates that file and says so.
"""

import json
from pathlib import Path

from absval import catalog, run_suite
from report_diff import summary

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden_report.json"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def test_golden_report_reproduces():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    report = run_suite(list(catalog()), [2, 3, 8], 50, 20170228)
    new = report.to_dict()  # each message below, the claim-by-claim diff, is made on failure only
    for key in ("config", "verdict"):
        assert canonical(golden[key]) == canonical(new[key]), f"{key}\n{summary(golden, new)}"
    produced = {c.claim_id: c.to_dict() for c in report.claims}
    assert [c["id"] for c in golden["claims"]] == list(produced), summary(golden, new)
    for claim in golden["claims"]:
        assert canonical(claim) == canonical(produced[claim["id"]]), (
            f"{claim['id']}\n{summary(golden, new)}"
        )
