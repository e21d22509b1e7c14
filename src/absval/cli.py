"""Command-line harness: configure suites, bind user matrices, emit reports.

Exit codes: 0 clean run, 1 any violation (or registry mismatch, or numerical
error), 2 usage error (arguments, unreadable files, malformed literals).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import cache

from . import __version__
from .core import NumericalError, TolerancePolicy, matrix_from_literal
from .claims import (
    ClaimInstance,
    ClaimStats,
    SuiteReport,
    catalog,
    check_claim,
    run_suite,
)


@dataclass
class RunConfig:
    claims: list
    dims: list
    trials: int
    master_seed: int
    policy: TolerancePolicy
    fmt: str = "text"
    list_only: bool = False
    matrix_files: list = field(default_factory=list)
    jobs: int = 1


def _parse_int_list(text: str, flag: str, parser: argparse.ArgumentParser):
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        parser.error(f"{flag} expects a comma-separated list of integers, got {text!r}")
    if not values or any(v < 1 for v in values):
        parser.error(f"{flag} expects positive integers, got {text!r}")
    if len(set(values)) < len(values):
        parser.error(f"{flag} repeats a value: {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absval",
        description="Check matrix absolute-value identities over seeded random ensembles.",
    )
    parser.add_argument("--claims", default="all", help="comma-separated claim ids, or 'all'")
    parser.add_argument("--dims", default="2,3,4", help="comma-separated matrix dimensions")
    parser.add_argument("--trials", type=int, default=100, help="trials per claim and dimension")
    parser.add_argument("--seed", type=int, default=0, help="master seed for all ensembles")
    parser.add_argument("--tol-rel", type=float, default=None, help="relative tolerance override")
    parser.add_argument("--tol-abs", type=float, default=None, help="absolute tolerance override")
    parser.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    parser.add_argument("--list", action="store_true", help="print the claim catalog and exit")
    parser.add_argument(
        "--matrix-file",
        action="append",
        default=[],
        metavar="PATH",
        help="bind user matrices (JSON literals) to a single claim's slots, one file per slot",
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for suite trials")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use: building one costs more
    than a replay's parsing, and ``parse_args`` leaves the parser as it found
    it (``append`` copies its default list before appending)."""
    return build_parser()


def parse_config(argv) -> RunConfig:
    parser = _parser()
    args = parser.parse_args(argv)
    table = catalog()
    if args.claims.strip().lower() == "all":
        claim_ids = list(table)
    else:
        # an empty filter is legal and yields an empty (passing) report
        claim_ids = [part.strip() for part in args.claims.split(",") if part.strip()]
        unknown = [c for c in claim_ids if c not in table]
        if unknown:
            parser.error(f"unknown claim ids: {', '.join(unknown)} (use --list)")
        if len(set(claim_ids)) < len(claim_ids):
            parser.error(f"--claims repeats a claim id: {args.claims!r}")
    dims = _parse_int_list(args.dims, "--dims", parser)
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    defaults = TolerancePolicy()
    try:
        policy = TolerancePolicy(
            rel=args.tol_rel if args.tol_rel is not None else defaults.rel,
            abs=args.tol_abs if args.tol_abs is not None else defaults.abs,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.matrix_file:
        if len(claim_ids) != 1:
            parser.error("--matrix-file requires exactly one claim id in --claims")
        claim = table[claim_ids[0]]
        if claim.arity > 0 and len(args.matrix_file) != claim.arity:
            parser.error(
                f"claim {claim.id} takes {claim.arity} matrices, got {len(args.matrix_file)} files"
            )
    return RunConfig(
        claims=claim_ids,
        dims=dims,
        trials=args.trials,
        master_seed=args.seed,
        policy=policy,
        fmt=args.fmt,
        list_only=args.list,
        matrix_files=list(args.matrix_file),
        jobs=args.jobs,
    )


def _jsonable(value):
    """Make report payloads strictly JSON: plain types, finite numbers."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int,)):
        return int(value)
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if hasattr(value, "item"):  # numpy scalars
        return _jsonable(value.item())
    return value


def format_catalog() -> str:
    lines = []
    for claim in catalog().values():
        kind = claim.ensemble.kind if claim.ensemble else "registry"
        arity = "k" if claim.arity < 0 else str(claim.arity)
        lines.append(f"{claim.id:<14} arity={arity:<2} ensemble={kind:<32} {claim.description}")
    return "\n".join(lines) + "\n"


def execute(cfg: RunConfig) -> tuple[SuiteReport, int]:
    """Run the configured suite, or check the one claim on the user's
    matrices; exit code 0 only for a clean pass."""
    if cfg.matrix_files:
        started = time.perf_counter()
        claim_id = cfg.claims[0]
        matrices = []
        for path in cfg.matrix_files:
            with open(path, encoding="utf-8") as fh:
                matrices.append(matrix_from_literal(json.load(fh)))
        result = check_claim(ClaimInstance(claim_id, tuple(matrices)), cfg.policy)
        stats = ClaimStats(claim_id, trials=1, note=catalog()[claim_id].note)
        stats.record(
            result.verdict,
            result.residuals,
            {"seed": "USER", "claim_tag": claim_id, "dim": matrices[0].shape[0], "trial": 0},
            verdict=result.verdict,
            hypothesis_flags=result.hypothesis_flags,
        )
        config = {
            "claims": [claim_id],
            "matrix_files": list(cfg.matrix_files),
            "trials": 1,
            "tol_rel": cfg.policy.rel,
            "tol_abs": cfg.policy.abs,
        }
        report = SuiteReport(
            config, [stats], time.perf_counter() - started, "fail" if stats.violations else "pass"
        )
    else:
        report = run_suite(
            cfg.claims, cfg.dims, cfg.trials, cfg.master_seed, cfg.policy, jobs=cfg.jobs
        )
    report.config["format"] = cfg.fmt
    report.config["version"] = __version__
    return report, (0 if report.verdict == "pass" else 1)


def emit_report(report: SuiteReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_jsonable(report.to_dict()), indent=2, allow_nan=False) + "\n"
    lines = [
        f"{'claim':<14} {'trials':>7} {'passes':>7} {'viol':>5} {'hypfail':>8} {'errors':>7}  worst residual",
    ]
    for st in report.claims:
        worst = f"{st.worst_residual:.3e}" if st.worst_residual_seed else "-"
        lines.append(
            f"{st.claim_id:<14} {st.trials:>7} {st.passes:>7} {len(st.violations):>5} "
            f"{st.hypothesis_failures:>8} {len(st.errors):>7}  {worst}"
        )
        for violation in st.violations:
            lines.append(f"    violation seed={violation['seed']} tag={violation['claim_tag']}")
        if st.note:
            lines.append(f"    note: {st.note}")
    lines.append(f"verdict: {report.verdict} ({report.wall_time:.2f}s)")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse signals usage errors with code 2
        return int(exc.code or 0)
    if cfg.list_only:
        sys.stdout.write(format_catalog())
        return 0
    try:
        report, code = execute(cfg)
    except NumericalError as exc:  # before ValueError: several are ValueErrors too
        sys.stderr.write(f"absval: {exc}\n")
        return 1
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"absval: {exc}\n")
        return 2
    sys.stdout.write(emit_report(report, cfg.fmt))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
