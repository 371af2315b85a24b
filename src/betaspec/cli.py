"""Command-line front end.

Every analysis is exposed as a subcommand writing CSV or JSON to --out (or
stdout), plus a ``reproduce`` runner that regenerates the reference figure
data files and tables.  Exit codes: 0 success, 1 computational failure,
2 usage error.  Identical flags produce byte-identical output files.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import BetaSpecError
from .charpoly import charpoly_closed_form, poly_to_json
from .limitcase import (
    beta1_table_csv,
    first_component_reference,
    lambda_max_beta1,
    power_method_trace,
)
from .matrices import (
    REAL_GT1,
    BetaParam,
    build_beta_matrix,
    matrix_to_csv,
)
from .numerics import decimal_str
from .spectra import (
    BUILTIN_TEST_FUNCTIONS,
    cluster_count,
    cluster_csv,
    eigenvalues,
    find_outliers,
    outlier_csv,
    singular_values,
    weyl_csv,
    weyl_sum,
)

REPRODUCE_TARGETS = ("fig1", "fig2", "fig3", "outlier-digits", "table1", "table2")
FIGURE_BETAS = {"fig1": "5", "fig2": "3", "fig3": "4/3"}
REFERENCE_ORDERS = (50, 100, 200, 400)
TABLE1_ORDERS = (10, 50, 100)


class UsageError(Exception):
    """Flag combination that fails a command's preconditions (exit code 2)."""


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"--n expects integers separated by commas: {exc}")
    if not values or any(v < 1 for v in values):
        raise UsageError("--n values must be positive integers")
    return values


def _parse_beta(text: str) -> BetaParam:
    try:
        return BetaParam.parse(text)
    except BetaSpecError as exc:
        raise UsageError(str(exc))


def _require(beta: BetaParam, allowed, command: str) -> None:
    if beta.beta_class not in allowed:
        raise UsageError(
            f"command {command!r} requires beta in class {sorted(allowed)}, "
            f"got {beta} (class {beta.beta_class})")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


# Flags that only some commands read; a command accepts them only if it uses them.
PREC_COMMANDS = ("singvals", "weyl")
EXACT_COMMANDS = ("matrix", "charpoly")


def _command(sub, name: str, beta=True, nlist=True, **kwargs) -> argparse.ArgumentParser:
    """Subcommand parser with the shared flags plus the ones from the table above."""
    p = sub.add_parser(name, **kwargs)
    if beta:
        p.add_argument("--beta", required=True, help="parameter as p/q, decimal, or a+bi")
    if nlist:
        p.add_argument("--n", required=True, help="matrix order, or comma list of orders")
    p.add_argument("--digits", type=int, default=30, help="significant digits target")
    if name in PREC_COMMANDS:
        p.add_argument("--prec", type=int, default=256, help="working precision in bits")
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    if name in EXACT_COMMANDS:
        p.add_argument("--exact", action="store_true", help="exact p/q output")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="betaspec",
        description="Spectra of rank-one corrections of the shift matrix at "
                    "arbitrary precision.")
    sub = ap.add_subparsers(dest="command", required=True)

    _command(sub, "matrix", help="dense matrix export",
             epilog="CSV: one matrix row per line.")
    _command(sub, "charpoly", help="characteristic polynomial coefficients",
             epilog="CSV columns: k,coefficient (low to high). JSON: "
                    "{degree, coeffs, beta, exact}.")
    _command(sub, "eigs", help="all eigenvalues with residual certificates",
             epilog="CSV columns: re,im,residual. JSON: root report.")
    p = _command(sub, "cluster", help="unit-circle annulus partition counts",
                 epilog="CSV columns: n,beta,epsilon,inside_count,outside_count.")
    p.add_argument("--eps", type=float, default=0.05, help="annulus half-width")
    p = _command(sub, "outliers", help="outlier tracking for beta in (1,2)",
                 epilog="CSV columns: n,large,small,err_large,err_small.")
    p.add_argument("--eps", type=float, default=0.05, help="annulus half-width")
    _command(sub, "singvals", help="singular values, sorted nonincreasing",
             epilog="CSV: one singular value per line.")
    p = _command(sub, "weyl", help="averaged test-function distribution sums",
                 epilog="CSV columns: n,f_id,kind,empirical,reference,gap. "
                        f"Built-in functions: {', '.join(sorted(BUILTIN_TEST_FUNCTIONS))}.")
    p.add_argument("--kind", choices=("eigen", "singular", "both"), default="both")
    _command(sub, "beta1", beta=False, help="degenerate-parameter (beta=1) analysis",
             epilog="CSV columns: n,c0_est,c1_est. JSON adds the "
                    "exact power-method trace.")

    p = sub.add_parser("reproduce", help="regenerate reference data files",
                       epilog="Targets: " + ", ".join(REPRODUCE_TARGETS) + ". "
                              "Figure targets write one scatter CSV (re,im) per order.")
    p.add_argument("target", choices=REPRODUCE_TARGETS)
    p.add_argument("--n", default=None, help="override the order grid (comma list)")
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--out", default=".", help="output directory")
    return ap


def _cmd_matrix(args) -> int:
    beta = _parse_beta(args.beta)
    ns = _parse_n_list(args.n)
    if len(ns) != 1:
        raise UsageError("matrix export takes a single --n")
    mat = build_beta_matrix(beta, ns[0])
    if args.fmt == "csv":
        _emit(matrix_to_csv(mat.dense_exact(), digits=args.digits, exact=args.exact),
              args.out)
    else:
        rows = mat.dense_exact()
        payload = {
            "n": mat.n, "beta": str(beta),
            "rows": [[str(x) if args.exact else decimal_str(x, args.digits)
                      for x in row] for row in rows],
        }
        _emit(json.dumps(payload) + "\n", args.out)
    return 0


def _cmd_charpoly(args) -> int:
    beta = _parse_beta(args.beta)
    ns = _parse_n_list(args.n)
    if len(ns) != 1:
        raise UsageError("charpoly takes a single --n")
    poly = charpoly_closed_form(beta, ns[0])
    if args.fmt == "json":
        _emit(poly_to_json(poly, digits=args.digits) + "\n", args.out)
    else:
        lines = ["k,coefficient"]
        for k, c in enumerate(poly.coeffs):
            lines.append(f"{k},{str(c) if args.exact else decimal_str(c, args.digits)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_eigs(args) -> int:
    beta = _parse_beta(args.beta)
    ns = _parse_n_list(args.n)
    if len(ns) != 1:
        raise UsageError("eigs takes a single --n")
    rs = eigenvalues(beta, ns[0], args.digits)
    if args.fmt == "json":
        _emit(rs.as_json(args.digits) + "\n", args.out)
    else:
        lines = ["re,im,residual"]
        for z, r in zip(rs.roots, rs.residuals):
            lines.append(f"{decimal_str(z.real, args.digits)},"
                         f"{decimal_str(z.imag, args.digits)},{decimal_str(r, 3)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cluster(args) -> int:
    beta = _parse_beta(args.beta)
    _require(beta, {REAL_GT1}, "cluster")
    if args.eps <= 0:
        raise UsageError("--eps must be positive")
    ns = _parse_n_list(args.n)
    reports = [cluster_count(eigenvalues(beta, n, args.digits), args.eps) for n in ns]
    if args.fmt == "json":
        _emit("[" + ",".join(r.as_json(args.digits) for r in reports) + "]\n", args.out)
    else:
        _emit(cluster_csv(reports), args.out)
    return 0


def _cmd_outliers(args) -> int:
    beta = _parse_beta(args.beta)
    _require(beta, {REAL_GT1}, "outliers")
    if not (1 < beta.real_value < 2):
        raise UsageError("outlier tracking requires beta strictly between 1 and 2")
    ns = _parse_n_list(args.n)
    records = [find_outliers(beta, n, args.digits, annulus_eps=args.eps) for n in ns]
    if args.fmt == "json":
        payload = []
        for r in records:
            payload.append({
                "n": r.n, "beta": str(r.beta), "eps": r.annulus_eps,
                "large": decimal_str(r.large, args.digits) if r.large is not None else None,
                "small": decimal_str(r.small, args.digits) if r.small is not None else None,
                "err_large": decimal_str(r.err_large, 6) if r.err_large is not None else None,
                "err_small": decimal_str(r.err_small, 6) if r.err_small is not None else None,
                "count_verified": r.count_verified,
                "diagnostic": r.diagnostic,
            })
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        _emit(outlier_csv(records, digits=args.digits), args.out)
    return 0


def _cmd_singvals(args) -> int:
    beta = _parse_beta(args.beta)
    ns = _parse_n_list(args.n)
    if len(ns) != 1:
        raise UsageError("singvals takes a single --n")
    sv = singular_values(beta, ns[0], bits=args.prec)
    if args.fmt == "json":
        _emit(json.dumps({"n": ns[0], "beta": str(beta),
                          "singular_values": [decimal_str(s, args.digits) for s in sv]})
              + "\n", args.out)
    else:
        _emit("\n".join(decimal_str(s, args.digits) for s in sv) + "\n", args.out)
    return 0


def _cmd_weyl(args) -> int:
    beta = _parse_beta(args.beta)
    kinds = ("eigen", "singular") if args.kind == "both" else (args.kind,)
    if "eigen" in kinds and beta.abs2() < 1:
        raise UsageError("eigen-kind distribution sums require |beta| >= 1")
    ns = _parse_n_list(args.n)
    reports = []
    for n in ns:
        for kind in kinds:
            values = (eigenvalues(beta, n, args.digits).roots if kind == "eigen"
                      else singular_values(beta, n, bits=args.prec))
            for fid in sorted(BUILTIN_TEST_FUNCTIONS):
                reports.append(weyl_sum(values, fid, kind))
    if args.fmt == "json":
        _emit("[" + ",".join(r.as_json() for r in reports) + "]\n", args.out)
    else:
        _emit(weyl_csv(reports), args.out)
    return 0


def _cmd_beta1(args) -> int:
    ns = _parse_n_list(args.n)
    if any(n < 2 for n in ns):
        raise UsageError("beta1 analysis requires n >= 2")
    if args.fmt == "csv":
        _emit(beta1_table_csv(ns, target_digits=args.digits), args.out)
    else:
        payload = []
        for n in ns:
            fit = lambda_max_beta1(n, args.digits)
            entry = json.loads(fit.as_json(args.digits))
            if n >= 3:
                trace = power_method_trace(n, 5)
                entry["power_trace"] = json.loads(trace.as_json())
            payload.append(entry)
        _emit(json.dumps(payload) + "\n", args.out)
    return 0


def _cmd_reproduce(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ns = _parse_n_list(args.n) if args.n else list(REFERENCE_ORDERS)
    written: list[Path] = []

    if args.target in FIGURE_BETAS:
        beta = BetaParam.parse(FIGURE_BETAS[args.target])
        digits = args.digits or 30
        for n in ns:
            rs = eigenvalues(beta, n, digits)
            lines = ["re,im"]
            for z in rs.roots:
                lines.append(f"{decimal_str(z.real, digits)},{decimal_str(z.imag, digits)}")
            path = outdir / f"{args.target}_n{n}.csv"
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
    elif args.target == "outlier-digits":
        beta = BetaParam.parse("4/3")
        digits = args.digits or 50
        records = [find_outliers(beta, n, digits) for n in ns]
        path = outdir / "outlier_digits.csv"
        lines = ["n,lambda_max"]
        for r in records:
            lines.append(f"{r.n},{decimal_str(r.large, digits + 1)}")
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    elif args.target == "table1":
        ns_t = _parse_n_list(args.n) if args.n else list(TABLE1_ORDERS)
        path = outdir / "table1.csv"
        lines = ["n,k,first_component,reference,match"]
        for n in ns_t:
            trace = power_method_trace(n, 5)
            for k in range(1, 6):
                got = trace.first_components[k]
                ref = first_component_reference(k, n)
                lines.append(f"{n},{k},{got},{ref},{got == ref}")
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    elif args.target == "table2":
        digits = args.digits or 12
        path = outdir / "table2.csv"
        path.write_text(beta1_table_csv(ns, target_digits=digits))
        written.append(path)

    sys.stdout.write("".join(f"wrote {p}\n" for p in written))
    return 0


_DISPATCH = {
    "matrix": _cmd_matrix,
    "charpoly": _cmd_charpoly,
    "eigs": _cmd_eigs,
    "cluster": _cmd_cluster,
    "outliers": _cmd_outliers,
    "singvals": _cmd_singvals,
    "weyl": _cmd_weyl,
    "beta1": _cmd_beta1,
    "reproduce": _cmd_reproduce,
}


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if getattr(args, "digits", None) is not None and args.digits < 1:
            raise UsageError("--digits must be >= 1")
        if getattr(args, "prec", 256) < 64:
            raise UsageError("--prec must be >= 64 bits")
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except BetaSpecError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
