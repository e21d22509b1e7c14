"""Claim-by-claim difference of two suite reports, as ``SuiteReport.to_dict()``
gives them (or their JSON): what moved between them, and by how much.

For each claim it gives:

- the trial, pass, hypothesis-failure, violation and error counts, old and new;
- the violation and error records that one report holds and the other lacks,
  by (claim_tag, dim, trial);
- the largest move of each residual, absolutely and as a multiple of the
  tolerance ``tol_rel * max(1, |old|) + tol_abs`` of the old report's
  config.  A residual is the claim's worst residual, or one named in a
  record that both reports hold.

It reads the two reports and moves no number.  A change that moves numbers
on purpose runs it on the reports before and after, so that the summary
shows whether only residual bits moved::

    python tests/report_diff.py OLD.json NEW.json

prints the summary and exits 1 when the reports differ.  Standard library only.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

COUNTS = ("trials", "passes", "hypothesis_failures", "violations", "errors")
RECORDS = ("violations", "errors")


@dataclass
class ClaimDiff:
    claim_id: str
    counts: dict = field(default_factory=dict)  # count -> (old, new)
    added: list = field(default_factory=list)  # (record kind, claim_tag, dim, trial)
    removed: list = field(default_factory=list)
    changed: list = field(default_factory=list)  # what else of a kept record moved
    moves: dict = field(default_factory=dict)  # residual -> (largest move, largest multiple)

    @property
    def kind(self) -> str | None:
        """What moved, the gravest first: ``"verdict"`` when a violation or
        error record comes or goes, ``"count"`` when only counts move,
        ``"record"`` when a kept record changes other than in its residuals,
        ``"residual"`` when only residual bits move; None when nothing did."""
        if self.added or self.removed:
            return "verdict"
        if any(old != new for old, new in self.counts.values()):
            return "count"
        if self.changed:
            return "record"
        return "residual" if self.moves else None


def _key(record: dict) -> tuple:
    return record["claim_tag"], record["dim"], record["trial"]


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def diff_claim(old: dict, new: dict, tol_rel: float, tol_abs: float) -> ClaimDiff:
    """The :class:`ClaimDiff` of one claim's two ``to_dict()`` records; a
    claim that one report lacks is ``{}`` there."""
    out = ClaimDiff(old.get("id", new.get("id")))
    for name in COUNTS:
        values = [c.get(name, 0) for c in (old, new)]
        out.counts[name] = tuple(len(v) if isinstance(v, list) else v for v in values)
    # (name, old value, new value) of each residual both reports hold
    pairs = [("worst_residual", old.get("worst_residual"), new.get("worst_residual"))]
    for kind in RECORDS:
        mine = {_key(r): r for r in old.get(kind, [])}
        theirs = {_key(r): r for r in new.get(kind, [])}
        out.removed += [(kind, *key) for key in mine if key not in theirs]
        out.added += [(kind, *key) for key in theirs if key not in mine]
        for key in (key for key in mine if key in theirs):
            a, b = dict(mine[key]), dict(theirs[key])
            ra, rb = a.pop("residuals", {}), b.pop("residuals", {})
            if a != b:  # a seed, a message or a detail
                out.changed.append(f"{kind[:-1]} {key}: {a} -> {b}")
            pairs += [(name, ra[name], rb[name]) for name in ra if name in rb]
    for name in ("worst_residual_seed", "note"):
        if old.get(name) != new.get(name):
            out.changed.append(f"{name}: {old.get(name)!r} -> {new.get(name)!r}")
    for name, a, b in pairs:
        if not (_number(a) and _number(b)) or repr(a) == repr(b):  # repr keeps every bit
            continue
        finite = math.isfinite(a) and math.isfinite(b)
        move = abs(b - a) if finite else math.inf
        multiple = move / (tol_rel * max(1.0, abs(a)) + tol_abs) if finite else math.inf
        largest = out.moves.get(name, (0.0, 0.0))
        out.moves[name] = (max(largest[0], move), max(largest[1], multiple))
    return out


def diff_reports(old: dict, new: dict) -> list[ClaimDiff]:
    """One :class:`ClaimDiff` per claim of either report, old order first."""
    mine = {c["id"]: c for c in old["claims"]}
    theirs = {c["id"]: c for c in new["claims"]}
    ids = [*mine, *(cid for cid in theirs if cid not in mine)]
    config = old["config"]
    return [
        diff_claim(mine.get(cid, {}), theirs.get(cid, {}), config["tol_rel"], config["tol_abs"])
        for cid in ids
    ]


def summary(old: dict, new: dict) -> str:
    """The diff as text: the config and verdict where they moved, then every
    claim that moved, with its counts (``old -> new`` where they differ),
    its records added (+), removed (-) or changed (~), and its residual moves."""
    was, now = old["config"], new["config"]
    lines = [f"config {k}: {was.get(k)!r} -> {now.get(k)!r}"
             for k in sorted(was.keys() | now.keys()) if was.get(k) != now.get(k)]
    if old.get("verdict") != new.get("verdict"):
        lines.append(f"verdict: {old.get('verdict')} -> {new.get('verdict')}")
    diffs = diff_reports(old, new)
    moved = [d for d in diffs if d.kind]
    lines.append(f"{len(moved)} of {len(diffs)} claims differ")
    for d in moved:
        counts = ", ".join(f"{name} {a}" + (f" -> {b}" if a != b else "")
                           for name, (a, b) in d.counts.items())
        lines += [f"{d.claim_id} ({d.kind}): {counts}"]
        lines += [f"  + {kind[:-1]} {tag} dim {dim} trial {t}" for kind, tag, dim, t in d.added]
        lines += [f"  - {kind[:-1]} {tag} dim {dim} trial {t}" for kind, tag, dim, t in d.removed]
        lines += [f"  ~ {what}" for what in d.changed]
        lines += [f"  residual {name}: moved {move:.3g}, {multiple:.3g} x tolerance"
                  for name, (move, multiple) in d.moves.items()]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    old, new = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    print(summary(old, new))
    same = old["config"] == new["config"] and old.get("verdict") == new.get("verdict")
    return 0 if same and not any(d.kind for d in diff_reports(old, new)) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
