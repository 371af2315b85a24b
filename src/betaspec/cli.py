"""Command-line front end.

Every analysis is exposed as a subcommand writing CSV or JSON to --out (or
stdout), plus a ``reproduce`` runner that regenerates the reference figure
data files and tables.  Exit codes: 0 success, 1 computational failure,
2 usage error, an --n below the command's least order included.  Identical
flags produce byte-identical output files.

Each flag's argparse spec is in ``FLAGS`` once; ``COMMANDS`` gives each
subcommand its handler, the flags it reads (the only ones it accepts), its
help and epilog.  :func:`run` checks the flags and writes what it returns.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import BetaSpecError, InvalidOrderError
from .charpoly import charpoly_closed_form, charpoly_strings, poly_to_json
from .limitcase import (
    beta1_table_csv,
    first_component_reference,
    lambda_max_beta1,
    power_method_trace,
)
from .matrices import BetaParam, build_beta_matrix, matrix_to_csv
from .numerics import decimal_str, scalar_str
from .spectra import (
    BUILTIN_TEST_FUNCTIONS,
    DEFAULT_EIG_DIGITS,
    OUTLIER_ANNULUS_EPS,
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


_ORDERS = dict(required=True, help="matrix order, or comma list of orders")

# argparse spec of each flag, by the name COMMANDS lists it under.  "order"
# (one matrix order) and "orders" (a comma list) are both --n; "grid",
# "target_digits" and "outdir" are reproduce's --n, --digits and --out.
FLAGS = {
    "beta": (("--beta",), dict(required=True, help="parameter as p/q, decimal, or a+bi")),
    "order": (("--n",), _ORDERS),
    "orders": (("--n",), _ORDERS),
    "digits": (("--digits",), dict(type=int, default=DEFAULT_EIG_DIGITS,
                                   help="significant digits target")),
    "format": (("--format",), dict(choices=("csv", "json"), default="csv", dest="fmt")),
    "out": (("--out",), dict(default=None, help="output path (default stdout)")),
    "exact": (("--exact",), dict(action="store_true", help="exact p/q output")),
    "eps": (("--eps",), dict(type=float, default=OUTLIER_ANNULUS_EPS, help="annulus half-width")),
    "kind": (("--kind",), dict(choices=("eigen", "singular", "both"), default="both")),
    "target": (("target",), dict(choices=REPRODUCE_TARGETS)),
    "grid": (("--n",), dict(default=None, help="override the order grid (comma list)")),
    "target_digits": (("--digits",), dict(type=int, default=None)),
    "outdir": (("--out",), dict(default=".", dest="outdir", metavar="OUT",
                                help="output directory")),
}


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"--n expects integers separated by commas: {exc}")
    if not values or any(v < 1 for v in values):
        raise UsageError("--n values must be positive integers")
    return values


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)


def _lines(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _root_row(z, digits: int) -> str:
    return f"{decimal_str(z.real, digits)},{decimal_str(z.imag, digits)}"


def _matrix(args) -> str:
    rows = build_beta_matrix(args.beta, args.n).dense_exact()
    if args.fmt == "csv":
        return matrix_to_csv(rows, digits=args.digits, exact=args.exact)
    return json.dumps({
        "n": args.n, "beta": str(args.beta),
        "rows": [[scalar_str(x, args.digits, args.exact) for x in row] for row in rows],
    }) + "\n"


def _charpoly(args) -> str:
    """Exact text (JSON, --exact CSV) from :func:`charpoly_strings`; decimal
    CSV from the Fractions."""
    if args.fmt == "json":
        return poly_to_json(charpoly_strings(args.beta, args.n), args.beta) + "\n"
    if args.exact:
        coeffs = charpoly_strings(args.beta, args.n)
    else:
        coeffs = [decimal_str(c, args.digits)
                  for c in charpoly_closed_form(args.beta, args.n).coeffs]
    return _lines("k,coefficient", (f"{k},{c}" for k, c in enumerate(coeffs)))


def _eigs(args) -> str:
    rs = eigenvalues(args.beta, args.n, args.digits)
    if args.fmt == "json":
        return rs.as_json() + "\n"
    return _lines("re,im,residual", (f"{_root_row(z, args.digits)},{decimal_str(r, 3)}"
                                     for z, r in zip(rs.roots, rs.residuals)))


def _cluster(args) -> str:
    reports = [cluster_count(eigenvalues(args.beta, n, args.digits), args.eps)
               for n in args.n]
    if args.fmt == "json":
        return "[" + ",".join(r.as_json(args.digits) for r in reports) + "]\n"
    return cluster_csv(reports)


def _outliers(args) -> str:
    if not (1 < args.beta.real_value < 2):
        raise UsageError("outlier tracking requires beta strictly between 1 and 2")
    records = [find_outliers(args.beta, n, args.digits, annulus_eps=args.eps)
               for n in args.n]
    if args.fmt == "csv":
        return outlier_csv(records)

    def num(x, digits):
        return decimal_str(x, digits) if x is not None else None
    return json.dumps([{
        "n": r.n, "beta": str(r.beta), "eps": r.annulus_eps,
        "large": num(r.large, args.digits), "small": num(r.small, args.digits),
        "err_large": num(r.err_large, 6), "err_small": num(r.err_small, 6),
        "count_verified": r.count_verified, "diagnostic": r.diagnostic,
    } for r in records]) + "\n"


def _singvals(args) -> str:
    sv = [decimal_str(s, args.digits) for s in singular_values(args.beta, args.n, args.digits)]
    if args.fmt == "json":
        return json.dumps({"n": args.n, "beta": str(args.beta),
                           "singular_values": sv}) + "\n"
    return "\n".join(sv) + "\n"


def _weyl(args) -> str:
    """Sums at the solver defaults: the test functions read float64 values."""
    kinds = ("eigen", "singular") if args.kind == "both" else (args.kind,)
    if "eigen" in kinds and args.beta.abs2() < 1:
        raise UsageError("eigen-kind distribution sums require |beta| >= 1")
    reports = []
    for n in args.n:
        for kind in kinds:
            values = (eigenvalues(args.beta, n, DEFAULT_EIG_DIGITS).roots
                      if kind == "eigen" else singular_values(args.beta, n))
            reports += [weyl_sum(values, fid, kind) for fid in sorted(BUILTIN_TEST_FUNCTIONS)]
    if args.fmt == "json":
        return "[" + ",".join(r.as_json() for r in reports) + "]\n"
    return weyl_csv(reports)


def _beta1(args) -> str:
    if args.fmt == "csv":
        return beta1_table_csv(args.n, target_digits=args.digits)
    payload = []
    for n in args.n:
        entry = json.loads(lambda_max_beta1(n, args.digits).as_json(args.digits))
        if n >= 3:
            entry["power_trace"] = json.loads(power_method_trace(n, 5).as_json())
        payload.append(entry)
    return json.dumps(payload) + "\n"


def _reproduce(args) -> str:
    """Write the target's files to --out; the text lists them."""
    if args.target == "table1" and args.digits is not None:
        raise UsageError("reproduce table1 is exact and takes no --digits")
    ns = args.n or list(TABLE1_ORDERS if args.target == "table1" else REFERENCE_ORDERS)
    files = {}
    if args.target in FIGURE_BETAS:
        beta = BetaParam.parse(FIGURE_BETAS[args.target])
        digits = args.digits or DEFAULT_EIG_DIGITS
        for n in ns:
            files[f"{args.target}_n{n}.csv"] = _lines("re,im", (
                _root_row(z, digits) for z in eigenvalues(beta, n, digits).roots))
    elif args.target == "outlier-digits":
        digits = args.digits or 50
        records = [find_outliers(BetaParam.parse("4/3"), n, digits) for n in ns]
        files["outlier_digits.csv"] = _lines("n,lambda_max", (
            f"{r.n},{'' if r.large is None else decimal_str(r.large, digits + 1)}"
            for r in records))
    elif args.target == "table1":
        rows = []
        for n in ns:
            trace = power_method_trace(n, 5)
            for k in range(1, 6):
                got, ref = trace.first_components[k], first_component_reference(k, n)
                rows.append(f"{n},{k},{got},{ref},{got == ref}")
        files["table1.csv"] = _lines("n,k,first_component,reference,match", rows)
    else:  # table2
        files["table2.csv"] = beta1_table_csv(ns, target_digits=args.digits or 10)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (outdir / name).write_text(text)
    return "".join(f"wrote {outdir / name}\n" for name in files)


class Command(NamedTuple):
    handler: Callable[[argparse.Namespace], str]
    flags: tuple
    help: str
    epilog: str
    real_gt1: bool = False   # --beta must be real and > 1


_OUTPUT = ("digits", "format", "out")

COMMANDS = {
    "matrix": Command(_matrix, ("beta", "order", *_OUTPUT, "exact"), "dense matrix export",
                      "CSV: one matrix row per line."),
    "charpoly": Command(_charpoly, ("beta", "order", *_OUTPUT, "exact"),
                        "characteristic polynomial coefficients",
                        "CSV columns: k,coefficient (low to high). JSON: "
                        "{degree, coeffs, beta, exact}."),
    "eigs": Command(_eigs, ("beta", "order", *_OUTPUT),
                    "all eigenvalues with residual certificates",
                    "CSV columns: re,im,residual, the residual being the certified "
                    "disk's radius over (1 + |root|), at most 10^-digits. JSON: root report."),
    "cluster": Command(_cluster, ("beta", "orders", *_OUTPUT, "eps"),
                       "unit-circle annulus partition counts",
                       "CSV columns: n,beta,epsilon,inside_count,outside_count.", True),
    "outliers": Command(_outliers, ("beta", "orders", *_OUTPUT, "eps"),
                        "outlier tracking for beta in (1,2)",
                        "CSV columns: n,large,small,err_large,err_small. JSON adds "
                        "count_verified (one eigenvalue inside and one beyond the annulus, "
                        "proved by Rouché's theorem) and diagnostic.", True),
    "singvals": Command(_singvals, ("beta", "order", *_OUTPUT),
                        "singular values, sorted nonincreasing",
                        "CSV: one singular value per line."),
    "weyl": Command(_weyl, ("beta", "orders", "format", "out", "kind"),
                    "averaged test-function distribution sums",
                    "CSV columns: n,f_id,kind,empirical,reference,gap. Eigenvalues and "
                    f"singular values at {DEFAULT_EIG_DIGITS} digits. Built-in functions: "
                    f"{', '.join(sorted(BUILTIN_TEST_FUNCTIONS))}."),
    "beta1": Command(_beta1, ("orders", *_OUTPUT), "degenerate-parameter (beta=1) analysis",
                     "CSV columns: n,c0_est,c1_est. JSON adds the exact power-method trace."),
    "reproduce": Command(_reproduce, ("target", "grid", "target_digits", "outdir"),
                         "regenerate reference data files",
                         "Targets: " + ", ".join(REPRODUCE_TARGETS) + ". Figure targets "
                         "write one scatter CSV (re,im) per order."),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="betaspec",
        description="Spectra of rank-one corrections of the shift matrix at "
                    "arbitrary precision.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help, epilog=cmd.epilog)
        for flag in cmd.flags:
            names, spec = FLAGS[flag]
            p.add_argument(*names, **spec)
    return ap


def _validate(args) -> None:
    """Check the flags the command read, and parse --n and --beta in place."""
    cmd = COMMANDS[args.command]
    if getattr(args, "digits", None) is not None and args.digits < 1:
        raise UsageError("--digits must be >= 1")
    eps = getattr(args, "eps", 1)
    if not eps > 0:  # nan too
        raise UsageError("--eps must be positive")
    if eps == math.inf:
        raise UsageError("--eps must be finite")
    if args.n is not None:
        args.n = _parse_n_list(args.n)
        if "order" in cmd.flags:
            if len(args.n) != 1:
                raise UsageError(f"{args.command} takes a single --n")
            args.n = args.n[0]
    if "beta" in cmd.flags:
        try:
            args.beta = BetaParam.parse(args.beta)
        except BetaSpecError as exc:
            raise UsageError(str(exc))
        if cmd.real_gt1 and not args.beta.real_gt1:
            raise UsageError(f"command {args.command!r} requires real beta > 1, got {args.beta}")


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        text = COMMANDS[args.command].handler(args)
    except (UsageError, InvalidOrderError) as exc:  # only --n gives an order error
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except BetaSpecError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 1
    _emit(text, getattr(args, "out", None))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
