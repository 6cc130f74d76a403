"""Command-line front end.

Subcommands: gen (family polynomials), verify (zero certification over k
ranges), criteria (margin tables), zeta (the two zeta(3) schemes), identity
(residual/identity regression runs).  Exit codes: 0 all certified, 1 any
certified-false, 2 usage error, 3 any indeterminate, 4 numeric failure,
5 internal error (an unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction

from . import approx as approx_mod
from . import families as fam_mod
from . import verify as verify_mod
from .criteria import observation_identity
from .enclosure import MIN_BITS
from .errors import CircleZeroError, DomainError, NumericError
from .reports import (CERTIFIED_FALSE, CERTIFIED_TRUE, CRITERIA_COLUMNS, VERIFY_COLUMNS,
                      csv_text, json_document, table_text)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5

IDENTITY_KINDS = ("ramanujan", "sech", "observation", "qk-sum", "sk-at-1",
                  "combination-vs-closed-form")


@dataclass(frozen=True)
class RunConfig:
    """A validated batch request: families x k values, method, precision, workers."""

    families: tuple[str, ...]
    k_values: tuple[int, ...]
    method: str
    bits: int
    workers: int = 1
    keep_going: bool = False

    def __post_init__(self):
        if self.workers < 1:
            raise DomainError("workers must be >= 1")
        if not self.k_values:
            raise DomainError("empty k selection")
        for fam in self.families:
            lo = fam_mod.FAMILIES[fam].min_k
            if min(self.k_values) < lo:
                raise DomainError(f"family {fam} needs k >= {lo}")

    def tasks(self):
        return [(fam, k, self.method, self.bits, self.keep_going)
                for fam in self.families for k in self.k_values]


def _run_config(args, method: str = "all") -> RunConfig:
    return RunConfig(
        families=tuple(_parse_families(args.family)),
        k_values=tuple(_parse_k_range(args)),
        method=method,
        bits=args.bits,
        workers=getattr(args, "workers", 1),
        keep_going=getattr(args, "keep_going", False),
    )


def _parse_k_range(args) -> list[int]:
    if args.k is not None and args.k_range is not None:
        raise DomainError("give either --k or --k-range, not both")
    if args.k is not None:
        return [args.k]
    if args.k_range is not None:
        lo, _, hi = args.k_range.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise DomainError(f"bad k range {args.k_range!r}; expected A..B") from None
        if lo_i > hi_i:
            raise DomainError(f"empty k range {args.k_range!r}")
        return list(range(lo_i, hi_i + 1))
    raise DomainError("missing --k or --k-range")


def _parse_families(arg: str) -> list[str]:
    fams = [f.strip().upper() for f in arg.split(",") if f.strip()]
    for f in fams:
        if f not in fam_mod.FAMILIES:
            raise DomainError(f"unknown family {f!r}")
    return fams


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"bad rational number {text!r}") from None


def _parse_fraction(text: str) -> tuple[Fraction, Fraction]:
    """Real or complex rational: '1/2', '1', '0.3+0.7i'."""
    text = text.strip()
    if text.endswith(("i", "j")):
        body = text[:-1]
        for sep_pos in range(len(body) - 1, 0, -1):
            if body[sep_pos] in "+-" and body[sep_pos - 1] not in "eE/":
                return _rational(body[:sep_pos]), _rational(body[sep_pos:] or "1")
        return Fraction(0), _rational(body or "1")
    return _rational(text), Fraction(0)


def _emit(args, kind: str, columns: list[str], rows: list[dict]) -> None:
    if args.format == "json":
        text = json_document(kind, rows, meta={"bits": args.bits})
    elif args.format == "csv":
        text = csv_text(columns, rows)
    else:
        text = table_text(columns, rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verdict_exit(verdicts: list[str]) -> int:
    if any(v == CERTIFIED_FALSE for v in verdicts):
        return EXIT_REFUTED
    if any(v != CERTIFIED_TRUE for v in verdicts):
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_gen(args) -> int:
    cfg = _run_config(args)
    rows = []
    for fam in cfg.families:
        for k in cfg.k_values:
            poly = fam_mod.build_family(fam, k)
            doc = poly.to_doc()
            if args.format != "json":
                doc["coeffs"] = ";".join(",".join(t) for t in doc["coeffs"])
            rows.append(doc)
    _emit(args, "family_poly", ["family", "k", "degree", "pi_power", "epsilon", "coeffs", "note"], rows)
    return EXIT_OK


def _verify_task(task) -> tuple[list[dict], str]:
    """One task's report documents, or with --keep-going the numeric failure;
    every package error it raises or records names the family and k."""
    fam, k, method, bits, keep_going = task
    try:
        reports = verify_mod.verify_family(fam, k, method, bits)
    except CircleZeroError as exc:
        exc.args = (f"{fam}_{k}: {exc}", *exc.args[1:])
        if keep_going and isinstance(exc, NumericError):
            return [], str(exc)
        raise
    return [r.to_doc() for r in reports], ""


def cmd_verify(args) -> int:
    cfg = _run_config(args, args.method)
    tasks = cfg.tasks()
    rows: list[dict] = []
    failures: list[str] = []
    if cfg.workers > 1:
        # imported here: concurrent.futures loads multiprocessing, socket and
        # logging, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor

        # the fork start method launches every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(tasks))) as pool:
            results = list(pool.map(_verify_task, tasks, chunksize=1))
    else:
        results = [_verify_task(t) for t in tasks]
    for docs, err in results:
        rows.extend(docs)
        if err:
            failures.append(err)
    if args.format != "json":
        for row in rows:
            row.pop("detail", None)
    _emit(args, "verification_report", VERIFY_COLUMNS, rows)
    if failures:
        print(f"numeric failures: {failures}", file=sys.stderr)
        return EXIT_NUMERIC
    return _verdict_exit([r["verdict"] for r in rows])


def cmd_criteria(args) -> int:
    cfg = _run_config(args, "criteria")
    rows = []
    for fam in cfg.families:
        for k in cfg.k_values:
            poly = fam_mod.build_family(fam, k)
            rows.append(verify_mod.criteria_check(poly, args.bits).to_doc())
    _emit(args, "criteria_report", CRITERIA_COLUMNS, rows)
    return _verdict_exit([r["holds"] for r in rows])


def cmd_zeta(args) -> int:
    if args.scheme == "approx1":
        res = approx_mod.approx1_zeta3(args.bits, args.seed_convention)
    else:
        res = approx_mod.approx2_zeta3(args.bits)
    row = res.to_doc()
    _emit(args, "approx_result", list(row.keys()), [row])
    return EXIT_OK


def cmd_identity(args) -> int:
    ks = _parse_k_range(args)
    rows: list[dict] = []
    ok = True
    if args.which in ("ramanujan", "sech"):
        if args.which == "ramanujan":
            parse, last, residual = _parse_fraction, "3/2", approx_mod.ramanujan_identity_residual
        else:
            parse, last, residual = _rational, "2", approx_mod.sech_identity_residual
        zs = [parse(z) for z in (args.z or ["1/2", "1", last])]
        for k in ks:
            for z in zs:
                rows.append(residual(k, z, args.n_terms, args.bits).to_doc())
                ok = ok and rows[-1]["encloses_zero"]
    elif args.which == "observation":
        for k in ks:
            exact_ok, residual = observation_identity(k, max(args.bits, 256))
            mid, rad = residual.str_pair()
            rows.append({"k": k, "exact": exact_ok, "residual_mid": mid, "residual_rad": rad,
                         "encloses_zero": residual.contains_zero()})
            ok = ok and exact_ok
    elif args.which in ("qk-sum", "sk-at-1"):
        sides, name = ((fam_mod.y_coeff_sum, "sum") if args.which == "qk-sum"
                       else (fam_mod.s_at_one, "abs_value_at_1"))
        for k in ks:
            lhs, rhs = sides(k)
            rows.append({"k": k, name: fam_mod.fraction_str(lhs),
                         "closed_form": fam_mod.fraction_str(rhs), "equal": lhs == rhs})
            ok = ok and lhs == rhs
    elif args.which == "combination-vs-closed-form":
        for k in ks:
            q_match, scalar = fam_mod.combination_identity(k)
            rows.append({"k": k, "q_match": q_match, "w_scalar": str(scalar)})
            ok = ok and q_match and scalar == 2
    columns = list(rows[0].keys()) if rows else ["k"]
    _emit(args, f"identity_{args.which}", columns, rows)
    return EXIT_OK if ok else EXIT_INDETERMINATE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlezero",
        description="Construct Bernoulli/Euler/odd-zeta polynomial families and "
                    "certify that their zeros lie on the unit circle.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_k=True):
        # a string default is parsed by `type` like a command-line value
        p.add_argument("--bits", type=int, default=os.environ.get("CIRCLEZERO_BITS") or "128",
                       help="working precision in bits (env CIRCLEZERO_BITS)")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", help="write output to a file instead of stdout")
        if needs_k:
            p.add_argument("--k", type=int)
            p.add_argument("--k-range", dest="k_range", metavar="A..B")

    p = sub.add_parser("gen", help="emit family polynomial documents")
    p.add_argument("--family", required=True, help="comma list from R,P,Q,Y,W,S")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run zero-certification methods")
    p.add_argument("--family", required=True)
    p.add_argument("--method", default="all",
                   choices=("criteria", "oscillation", "sign-count", "roots", "all"))
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--keep-going", action="store_true",
                   help="continue past numeric failures (reported, exit 4)")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("criteria", help="Lakatos/Schinzel margin table")
    p.add_argument("--family", required=True)
    common(p)
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("zeta", help="zeta(3) approximation schemes")
    p.add_argument("scheme", choices=("approx1", "approx2"))
    p.add_argument("--seed-convention", choices=("principal", "secondary"),
                   default="principal")
    common(p, needs_k=False)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("identity", help="identity residual regression runs")
    p.add_argument("which", choices=IDENTITY_KINDS)
    p.add_argument("--z", action="append", help="evaluation point (repeatable)")
    p.add_argument("--n-terms", dest="n_terms", type=int,
                   help="series truncation override (default: auto)")
    common(p)
    p.set_defaults(func=cmd_identity)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.bits < MIN_BITS:
            raise DomainError(f"--bits must be at least {MIN_BITS}, got {args.bits}")
        return args.func(args)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc} {exc.diagnostics}", file=sys.stderr)
        return EXIT_NUMERIC
    except CircleZeroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception:
        # without this, Python's own exit status 1 would read as "certified false"
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
