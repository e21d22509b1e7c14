"""
Driving the claim suite
=======================

Every identity in the catalog runs as a claim: hypotheses are satisfied by
construction in seeded ensembles, conclusions are checked with one shared
tolerance doctrine, and any violation ships with a seed that replays it
bit-for-bit.  The probe at the end turns each conclusion loose on
unconstrained random matrices to show the checks are falsifiable.
"""

from absval import catalog, probe_conclusions, run_suite
from absval.cli import emit_report

# A quick pass over the whole catalog (the acceptance configuration uses
# 1000 trials per dimension in {2, 3, 4, 8}).
# The report's last line ends in the suite's wall time; printed without it,
# the demo's output is the same on every run.
report = run_suite(list(catalog()), dims=[2, 3], trials=50, master_seed=42, jobs=2)
*table, _ = emit_report(report, "text").splitlines()
print("\n".join(table))
print(f"verdict: {report.verdict}\n")

# Non-vacuity probe: run every always-holds conclusion against unconstrained
# random pairs.  Most fail often, which is the point; the ones that never fail
# are either true without hypotheses or cannot be evaluated off-hypothesis.
ids = [cid for cid, c in catalog().items() if c.expect == "ALWAYS_HOLDS"]
print("conclusion failures on 200 unconstrained draws (n=2):")
exceptions = []
for ps in probe_conclusions(ids, dim=2, count=200, master_seed=2024):
    print(f"  {ps.claim_id:<14} failures={ps.conclusion_failures:<4} errors={ps.errors}")
    if ps.conclusion_failures == 0:
        exceptions.append(ps.claim_id)
print("never failed off-hypothesis:", ", ".join(exceptions) or "none")
