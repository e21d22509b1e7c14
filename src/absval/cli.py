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
from functools import cache
from json.encoder import encode_basestring_ascii

from . import __version__
from .core import DEFAULT_POLICY, NumericalError, TolerancePolicy, matrix_from_literal
from .claims import (
    ClaimInstance,
    ClaimStats,
    SuiteReport,
    _checked_run,
    catalog,
    check_claim,
    run_suite,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absval",
        description="Check matrix absolute-value identities over seeded random ensembles.",
    )
    parser.add_argument("--claims", default="all", help="comma-separated claim ids, or 'all'")
    parser.add_argument("--dims", default="2,3,4", help="comma-separated matrix dimensions")
    parser.add_argument("--trials", type=int, default=100, help="trials per claim and dimension")
    parser.add_argument(
        "--seed", type=int, default=0, dest="master_seed", metavar="SEED",
        help="master seed for all ensembles",
    )
    parser.add_argument("--tol-rel", type=float, default=DEFAULT_POLICY.rel,
                        help="relative tolerance override")
    parser.add_argument("--tol-abs", type=float, default=DEFAULT_POLICY.abs,
                        help="absolute tolerance override")
    parser.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    parser.add_argument(
        "--list", action="store_true", dest="list_only", help="print the claim catalog and exit"
    )
    parser.add_argument(
        "--matrix-file",
        action="append",
        default=[],
        dest="matrix_files",
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


def parse_config(argv) -> argparse.Namespace:
    """The run that ``argv`` asks for, checked as :func:`run_suite` checks
    it: the parser's namespace, with ``claims`` and ``dims`` as lists and the
    tolerances as ``policy``.  A usage error exits 2 with the usage line."""
    parser = _parser()
    args = parser.parse_args(argv)
    args.matrix_files = list(args.matrix_files)  # not the shared parser's default list
    if args.claims.strip().lower() == "all":
        args.claims = list(catalog())
    else:
        # an empty filter is legal and yields an empty (passing) report
        args.claims = [part.strip() for part in args.claims.split(",") if part.strip()]
    try:
        args.dims = [int(part) for part in args.dims.split(",") if part.strip()]
    except ValueError:
        parser.error(f"--dims expects a comma-separated list of integers, got {args.dims!r}")
    if args.matrix_files and len(args.claims) != 1:
        parser.error("--matrix-file requires exactly one claim id in --claims")
    try:
        _checked_run(args.claims, args.dims, args.trials, args.master_seed, args.jobs)
        args.policy = TolerancePolicy(rel=args.tol_rel, abs=args.tol_abs)
    except (KeyError, ValueError) as exc:
        parser.error(exc.args[0])
    return args


def _json(value, pad: str = "") -> str:
    """What ``json.dumps(value, indent=2)`` writes at indent ``pad`` once keys
    are ``str(k)`` (distinct), tuples lists, numpy scalars ``.item()`` and
    non-finite floats the strings "nan", "inf" and "-inf": in one walk, with
    no encoder left behind whose closures form a reference cycle."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):  # np.float64 too, whose repr names numpy
        return float.__repr__(value) if math.isfinite(value) else f'"{float(value)!r}"'
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{inner}{encode_basestring_ascii(str(k))}: {_json(v, inner)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _json(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"
    if hasattr(value, "item"):  # numpy scalars
        return _json(value.item(), pad)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def format_catalog() -> str:
    lines = []
    for claim in catalog().values():
        kind = claim.ensemble.kind if claim.ensemble else "registry"
        arity = "k" if claim.arity < 0 else str(claim.arity)
        lines.append(f"{claim.id:<14} arity={arity:<2} ensemble={kind:<32} {claim.description}")
    return "\n".join(lines) + "\n"


def execute(cfg: argparse.Namespace) -> tuple[SuiteReport, int]:
    """Run the suite that :func:`parse_config` returned, or check its one
    claim on the user's matrices; exit code 0 only for a clean pass."""
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
        report = SuiteReport(config, [stats], time.perf_counter() - started)
    else:
        report = run_suite(
            cfg.claims, cfg.dims, cfg.trials, cfg.master_seed, cfg.policy, jobs=cfg.jobs
        )
    report.config["format"] = cfg.fmt
    report.config["version"] = __version__
    return report, (0 if report.verdict == "pass" else 1)


def emit_report(report: SuiteReport, fmt: str) -> str:
    if fmt == "json":
        return _json(report.to_dict()) + "\n"
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
