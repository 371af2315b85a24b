"""Command-line contract: schemas, exit codes, determinism."""
import hashlib
import json
import logging
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import betaspec
from betaspec import BetaParam, build_beta_matrix, charpoly_closed_form
from betaspec.cli import COMMANDS, FLAGS, build_parser, run
from betaspec.spectra import eigenvalues

REFERENCE_N50 = "2.99999796124162120902813536126303334491749260835507"

# sha256 of the files the reference commands write ("{out}" is a fresh
# directory).  A deliberate change to the output must update these hashes and
# say why in CHANGES.md; any other change to them is a regression.
REFERENCE_OUTPUTS = (
    # the outlier near 3 prints im 0.0: its inclusion disk certifies it real
    (("reproduce", "fig3", "--n", "50", "--out", "{out}"), "fig3_n50.csv",
     "442287ecc099fce4df099fbfb5f2bb16b965b26be2846e67a9529bc01c8fd0c8"),
    (("singvals", "--beta=1+1i", "--n", "12", "--digits", "60", "--out", "{out}/sv.csv"),
     "sv.csv", "cfba90c3edc572ebe1cf7907386ece1344cde4a05f37f5cae665ac869154327f"),
    (("outliers", "--beta=4/3", "--n", "60", "--digits", "60", "--out", "{out}/out.csv"),
     "out.csv", "276072a5b92174ef4f34ed0384fccd50f6f311f58771f2f646258aafe3965c08"),
    # errors far below the printed roots: err_small is about 1e-763
    (("outliers", "--beta=4/3", "--n", "1600", "--digits", "100", "--out", "{out}/out.csv"),
     "out.csv", "1d4d9857837a74fadb60cf99c1c9fe2ade572c4a7c08ec49b2ea74c9801781df"),
    # certified lambda_max and the exact power trace of the beta = 1 block
    (("beta1", "--n", "3,50,400", "--digits", "40", "--format", "json", "--out", "{out}/b1.json"),
     "b1.json", "99187b6bb6cdf8b8d86f428d3bd837e4bba22f58368791beaf71aa4edb375df5"),
    # the order the structured benchmark runs; pins the closed-form Gram block
    (("singvals", "--beta=4/3", "--n", "1600", "--digits", "30", "--out", "{out}/sv.csv"),
     "sv.csv", "705606948c39fce8bcdc65543d32714c71982f5df3942fb5837d9186902ec0e3"),
    # eigenvalue and singular-value sums at the solver's defaults, 30 digits and
    # 256 bits, against the exact circle means
    (("weyl", "--beta=3", "--n", "40", "--kind", "both", "--out", "{out}/weyl.csv"),
     "weyl.csv", "bed56b8903974e49135ac2b30f410710544b155359ac336450d882fefaa344ab"),
    (("reproduce", "table1", "--out", "{out}"), "table1.csv",
     "7d8d4628923bf7501715fc35ca77e03c8518301cdbf65b06cb351efea1c4e4d8"),
    # the sparse route: float64 phase seeds and the disjointness test
    (("eigs", "--beta=4/3", "--n", "100", "--out", "{out}/eigs.csv"),
     "eigs.csv", "4511f4a8438f6a4da4e004660257b19fb261f05eba029a32434bd54b8a39e5e1"),
    # declines the sparse route (seeds=42): the float64 Aberth warm start
    (("eigs", "--beta=1/2", "--n", "40", "--out", "{out}/eigs.csv"),
     "eigs.csv", "97a724cd858facaf2a6047d49ca19a1caa8d0502b12dda5ea635acb0a2ad8fb2"),
    (("cluster", "--beta=4/3", "--n", "60", "--out", "{out}/cluster.csv"),
     "cluster.csv", "e2d25af205ee9d750ad82b1ee7828e5fcfe3e47f8ec7971d0de0268bbc1ac434"),
    # exact coefficients at the order the structured benchmark prints
    (("charpoly", "--beta=4/3", "--n", "1600", "--exact", "--out", "{out}/cp.csv"),
     "cp.csv", "3510264b34f73d2f61ceea0e24bacb1818830d80e37b013118ddf5d2ad3feb0c"),
    (("charpoly", "--beta=4/3", "--n", "1600", "--format", "json", "--out", "{out}/cp.json"),
     "cp.json", "eada52b1d49fdb8270e037b1d9987377c0c5e3d62d4f7056be27b3a1e0709d6d"),
    (("charpoly", "--beta=3/2+1i", "--n", "50", "--exact", "--out", "{out}/cp.csv"),
     "cp.csv", "3db492ab6c2e25511977f655072742cb22c98692f05fc7a13880c701a8c8512b"),
    # a complex spectrum; the QComplex and Fraction branches of decimal_str
    (("eigs", "--beta=3/2+1i", "--n", "30", "--format", "json", "--out", "{out}/eigs.json"),
     "eigs.json", "0c146ef25309adc524133d2f60bf56ecb1e61f79112c1dc26ba1fba221def552"),
    (("matrix", "--beta=3/2+1i", "--n", "5", "--format", "json", "--out", "{out}/m.json"),
     "m.json", "c08e11fb9f6749f80bd4f5c05b0da213dd086818dd49751133ef92528211023e"),
    (("charpoly", "--beta=4/3", "--n", "40", "--out", "{out}/cp.csv"),
     "cp.csv", "c8ef382bea9b23dc690e1b609502ad076ef35040990684a1efc9df42386685ab"),
)

# Commands run in a fresh process, and whether they load numpy.  Only the
# eigensolver (eigs, cluster, weyl, the figure targets) calls it, and no
# command calls scipy; the import is most of a process's start-up.
NUMPY_USE = (
    ((), False),
    (("outliers", "--beta=4/3", "--n", "100", "--digits", "50"), False),
    (("charpoly", "--beta=4/3", "--n", "20"), False),
    (("singvals", "--beta=4/3", "--n", "100"), False),
    (("beta1", "--n", "50"), False),
    (("matrix", "--beta=4/3", "--n", "5"), False),
    (("reproduce", "table1"), False),
    (("reproduce", "table2"), False),
    (("reproduce", "outlier-digits"), False),
    # positive control: the check does see numpy when a command loads it
    (("eigs", "--beta=4/3", "--n", "30"), True),
)


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_lists_every_command():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("matrix", "charpoly", "eigs", "cluster", "outliers",
                "singvals", "weyl", "beta1", "reproduce"):
        assert cmd in text


@pytest.mark.parametrize("argv,loads_numpy", NUMPY_USE,
                         ids=["import", "outliers", "charpoly", "singvals", "beta1", "matrix",
                              "table1", "table2", "outlier-digits", "eigs"])
def test_cli_loads_numpy_only_where_used(tmp_path, argv, loads_numpy):
    src = str(Path(betaspec.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from betaspec import cli\n"
            "cli.build_parser()\n"
            f"assert not {list(argv)!r} or cli.run({list(argv)!r}) == 0\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], check=True, cwd=tmp_path,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.splitlines()[-1] == str(["numpy"] if loads_numpy else [])


def test_matrix_exact_csv(capsys):
    code, out, _ = _run(capsys, "matrix", "--beta", "1", "--n", "3",
                        "--format", "csv", "--exact")
    assert code == 0
    assert out.splitlines() == ["0,0,0", "2,1,1", "1,2,1"]


def test_matrix_json(capsys):
    code, out, _ = _run(capsys, "matrix", "--beta", "2", "--n", "1",
                        "--format", "json", "--exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [["-1/2"]]


def test_charpoly_json_schema(capsys):
    code, out, _ = _run(capsys, "charpoly", "--beta", "4/3", "--n", "4",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 4 and doc["beta"] == "4/3" and doc["exact"]


def test_eigs_json_contains_reference_digits(capsys):
    code, out, _ = _run(capsys, "eigs", "--beta", "4/3", "--n", "50",
                        "--digits", "50", "--format", "json")
    assert code == 0
    assert REFERENCE_N50[:45] in out


def test_cluster_counts_and_class_guard(capsys):
    code, out, _ = _run(capsys, "cluster", "--beta", "5", "--n", "50",
                        "--eps", "0.05")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,beta,epsilon,inside_count,outside_count"
    assert lines[1] == "50,5,0.05,50,0"

    code, _, err = _run(capsys, "cluster", "--beta", "1/2", "--n", "10")
    assert code == 2
    assert "usage error" in err


def test_outliers_csv(capsys):
    code, out, _ = _run(capsys, "outliers", "--beta", "4/3", "--n", "30,50",
                        "--digits", "30", "--eps", "0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,large,small,err_large,err_small"
    assert len(lines) == 3
    assert lines[1].startswith("30,") and lines[2].startswith("50,")

    code, _, err = _run(capsys, "outliers", "--beta", "3", "--n", "30")
    assert code == 2


def test_singvals(capsys):
    code, out, _ = _run(capsys, "singvals", "--beta", "2", "--n", "1",
                        "--digits", "6")
    assert code == 0
    assert out.strip() == "0.5"


def test_weyl_schema_and_guard(capsys):
    code, out, _ = _run(capsys, "weyl", "--beta", "3", "--n", "20",
                        "--kind", "singular")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,f_id,kind,empirical,reference,gap"
    assert len(lines) == 1 + 4  # four built-in test functions

    code, _, err = _run(capsys, "weyl", "--beta", "1/2", "--n", "10",
                        "--kind", "eigen")
    assert code == 2


def test_beta1_csv_matches_reference_row(capsys):
    code, out, _ = _run(capsys, "beta1", "--n", "50", "--digits", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,c0_est,c1_est"
    assert lines[1].startswith("50,-0.0204166702")


def test_beta1_json_includes_power_trace(capsys):
    code, out, _ = _run(capsys, "beta1", "--n", "10", "--digits", "10",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["n"] == 10
    assert doc[0]["power_trace"]["first_components"][1] == "9"


def test_usage_errors():
    assert run(["eigs", "--beta", "3", "--n", "0"]) == 2
    assert run(["eigs", "--beta", "3", "--n", "4", "--digits", "0"]) == 2
    assert run(["eigs", "--beta", "0", "--n", "4"]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["reproduce", "not-a-target"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["eigs", "--beta", "3", "--n", "4", "--frobnicate"])
    assert exc.value.code == 2
    # --digits sets the working precision: no command takes --prec
    with pytest.raises(SystemExit) as exc:
        run(["eigs", "--beta", "3", "--n", "4", "--prec", "512"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["singvals", "--beta", "2", "--n", "4", "--prec", "32"])
    assert exc.value.code == 2
    # --exact is accepted only by the commands that read it
    with pytest.raises(SystemExit) as exc:
        run(["cluster", "--beta", "3", "--n", "4", "--exact"])
    assert exc.value.code == 2
    # reproduce writes CSV only
    with pytest.raises(SystemExit) as exc:
        run(["reproduce", "fig1", "--format", "json"])
    assert exc.value.code == 2


def _exit_code(argv) -> int:
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


BASE_ARGV = {
    "matrix": ("matrix", "--beta=4/3", "--n", "3"),
    "charpoly": ("charpoly", "--beta=4/3", "--n", "4"),
    "eigs": ("eigs", "--beta=4/3", "--n", "10"),
    "cluster": ("cluster", "--beta=4/3", "--n", "20"),
    "outliers": ("outliers", "--beta=4/3", "--n", "60"),
    "singvals": ("singvals", "--beta=4/3", "--n", "10"),
    "weyl": ("weyl", "--beta=3", "--n", "10"),
    "beta1": ("beta1", "--n", "10"),
    "reproduce": ("reproduce", "fig3"),
}

# (command, flag, value1, value2, other flags): None leaves the flag out and
# "" gives it alone; "{out}" is a fresh directory.  cluster --digits shows only
# in the JSON, whose outside points it prints; the CSV holds counts.
FLAG_CASES = [
    ("matrix", "--digits", "5", "20", ()),
    ("matrix", "--format", "csv", "json", ()),
    ("matrix", "--out", None, "{out}/m.csv", ()),
    ("matrix", "--exact", None, "", ()),
    ("charpoly", "--digits", "5", "20", ()),
    ("charpoly", "--format", "csv", "json", ()),
    ("charpoly", "--out", None, "{out}/c.csv", ()),
    ("charpoly", "--exact", None, "", ()),
    ("eigs", "--digits", "10", "20", ()),
    ("eigs", "--format", "csv", "json", ()),
    ("eigs", "--out", None, "{out}/e.csv", ()),
    ("cluster", "--digits", "10", "20", ("--format", "json")),
    ("cluster", "--format", "csv", "json", ()),
    ("cluster", "--out", None, "{out}/c.csv", ()),
    ("cluster", "--eps", "0.01", "0.5", ()),
    ("outliers", "--digits", "10", "20", ()),
    ("outliers", "--format", "csv", "json", ()),
    ("outliers", "--out", None, "{out}/o.csv", ()),
    ("outliers", "--eps", "0.05", "0.9", ()),
    ("singvals", "--digits", "10", "20", ()),
    ("singvals", "--format", "csv", "json", ()),
    ("singvals", "--out", None, "{out}/s.csv", ()),
    ("weyl", "--format", "csv", "json", ()),
    ("weyl", "--out", None, "{out}/w.csv", ()),
    ("weyl", "--kind", "eigen", "singular", ()),
    ("beta1", "--digits", "10", "20", ()),
    ("beta1", "--format", "csv", "json", ()),
    ("beta1", "--out", None, "{out}/b.csv", ()),
    ("reproduce", "--n", "10", "20", ("--out", "{out}")),
    ("reproduce", "--digits", "10", "20", ("--n", "10", "--out", "{out}")),
    ("reproduce", "--out", "{out}/a", "{out}/b", ("--n", "10")),
]


def test_flag_cases_cover_every_optional_flag():
    accepted = {(name, FLAGS[flag][0][0]) for name, cmd in COMMANDS.items()
                for flag in cmd.flags
                if FLAGS[flag][0][0].startswith("--") and not FLAGS[flag][1].get("required")}
    cases = [case[:2] for case in FLAG_CASES]
    assert sorted(accepted) == sorted(cases)


@pytest.mark.parametrize("command,flag,first,second,other", FLAG_CASES,
                         ids=[" ".join(case[:2]) for case in FLAG_CASES])
def test_every_accepted_flag_changes_the_output(tmp_path, capsys, command, flag,
                                                first, second, other):
    outputs = []
    for i, value in enumerate((first, second)):
        out = tmp_path / str(i)
        out.mkdir()
        given = () if value is None else (flag,) if value == "" else (flag, value)
        argv = [a.replace("{out}", str(out)) for a in BASE_ARGV[command] + other + given]
        eigenvalues.cache_clear()
        code, stdout, _ = _run(capsys, *argv)
        assert code == 0
        files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        outputs.append((stdout.replace(str(out), "{out}"), files))
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("argv", [
    ("weyl", "--beta=3", "--n", "10", "--digits", "20"),
    ("weyl", "--beta=3", "--n", "10", "--prec", "512"),
    ("reproduce", "table1", "--digits", "3"),
], ids=["weyl --digits", "weyl --prec", "reproduce table1 --digits"])
def test_flags_the_output_ignores_are_refused(tmp_path, argv):
    assert _exit_code([*argv, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["cluster", "outliers"])
@pytest.mark.parametrize("eps", ["0", "-1", "nan"])
def test_eps_must_be_positive(capsys, command, eps):
    code, out, err = _run(capsys, command, "--beta=4/3", "--n", "60", "--eps", eps)
    assert code == 2 and out == ""
    assert err == "usage error: --eps must be positive\n"


@pytest.mark.parametrize("command", ["cluster", "outliers"])
@pytest.mark.parametrize("eps", ["inf", "1e999"])
def test_eps_must_be_finite(capsys, tmp_path, command, eps):
    code, out, err = _run(capsys, command, "--beta=4/3", "--n", "10", "--eps", eps,
                          "--out", str(tmp_path / "out.csv"))
    assert code == 2 and out == "" and not (tmp_path / "out.csv").exists()
    assert err == "usage error: --eps must be finite\n"


def test_charpoly_exact_csv(capsys):
    code, out, _ = _run(capsys, "charpoly", "--beta", "4/3", "--n", "3", "--exact")
    assert code == 0
    assert out.splitlines() == ["k,coefficient", "0,1/4", "1,-5/16", "2,-47/64", "3,1"]


def test_outliers_ladder_exhaustion_exits_1(monkeypatch, capsys):
    # a 200-digit certificate needs about 680 bits, more than 512
    monkeypatch.setattr("betaspec.rootfind.PRECISION_LADDER", (256, 512))
    code, out, err = _run(capsys, "outliers", "--beta=9/8", "--n", "200",
                          "--digits", "200")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ConvergenceFailureError"


def test_eigs_certifies_700_digits_above_2048_bits(capsys):
    # 700 digits need about 2326 bits: the ladder climbs to 4096
    code, out, _ = _run(capsys, "eigs", "--beta=4/3", "--n", "10", "--digits", "700",
                        "--format", "json")
    assert code == 0
    rs = eigenvalues(BetaParam.parse("4/3"), 10, 700)
    assert json.loads(out)["precision_bits"] == rs.precision_used == 4096
    with mp.workprec(rs.precision_used + 32):
        tol = mp.mpf(10) ** -700
        assert all(r <= tol * (1 + abs(z)) for z, r in zip(rs.roots, rs.radii))


@pytest.mark.parametrize("command", ["eigs", "outliers", "singvals"])
def test_digits_beyond_the_ladder_top_exit_1(capsys, caplog, command):
    # 2500 digits need about 8305 bits, more than the 8192-bit top level;
    # the sparse route raises without handing over to the Aberth ladder, and
    # singvals refuses before it computes
    with caplog.at_level(logging.DEBUG, logger="betaspec"):
        code, out, err = _run(capsys, command, "--beta=4/3", "--n", "10", "--digits", "2500")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == "ConvergenceFailureError"
    if command == "eigs":
        assert not any(r.getMessage().startswith("solve_all degree=") for r in caplog.records)


def test_a_certified_sparse_spectrum_never_builds_the_dense_polynomial(
        tmp_path, capsys, monkeypatch):
    # the closed-form p_n reaches the solver as its five-term form; its n + 1
    # dense coefficients are built only where the sparse route declines
    calls = []
    build = betaspec.rootfind.charpoly_closed_form

    def counted(beta, n):
        calls.append((str(beta), n))
        return build(beta, n)

    eigenvalues.cache_clear()
    for module in (betaspec.rootfind, betaspec.spectra):
        monkeypatch.setattr(module, "charpoly_closed_form", counted)
    for argv in (["eigs", "--beta=4/3", "--n", "100"],
                 ["reproduce", "fig1", "--n", "50", "--out", str(tmp_path)],
                 ["cluster", "--beta=4/3", "--n", "60"],
                 ["weyl", "--beta=3", "--n", "40", "--kind", "eigen"]):
        assert run(argv) == 0, argv
    capsys.readouterr()
    assert calls == []
    # beta = 1/2 declines (seeds=42): one build, and the Aberth route's bytes
    argv, name, digest = next(r for r in REFERENCE_OUTPUTS if "--beta=1/2" in r[0])
    assert run([a.replace("{out}", str(tmp_path)) for a in argv]) == 0
    assert calls == [("1/2", 40)]
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python does not cap int-to-str conversion")
def test_exact_output_past_the_int_str_digit_cap(tmp_path):
    # beta**-45 has a numerator and a denominator of about 4500 digits, past
    # the 4300 to which str(int) is capped by default
    text = f"{10 ** 100 + 1}/{10 ** 100}"
    beta, n = BetaParam.parse(text), 45
    outputs = {"matrix.csv": ("matrix", "--exact"), "charpoly.csv": ("charpoly", "--exact"),
               "charpoly.json": ("charpoly", "--format", "json")}
    for name, argv in outputs.items():
        assert run([*argv, f"--beta={text}", "--n", str(n), "--out", str(tmp_path / name)]) == 0
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rows = build_beta_matrix(beta, n).dense_exact()
        want_matrix = "".join(",".join(map(str, row)) + "\n" for row in rows)
        want = [str(c) for c in charpoly_closed_form(beta, n).coeffs]
    finally:
        sys.set_int_max_str_digits(cap)
    assert len(want[-2]) > 2 * 4300
    assert (tmp_path / "matrix.csv").read_text() == want_matrix
    lines = (tmp_path / "charpoly.csv").read_text().splitlines()
    assert lines == ["k,coefficient", *(f"{k},{c}" for k, c in enumerate(want))]
    assert json.loads((tmp_path / "charpoly.json").read_text())["coeffs"] == want


def test_beta1_digits_beyond_the_ladder_top_exit_1(capsys):
    # 3000 digits at n = 50 need a bracket of about 10000 bits, more than the
    # 8192-bit top level: the refinement refuses rather than print uncertified digits
    code, out, err = _run(capsys, "beta1", "--n", "50", "--digits", "3000")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == "ConvergenceFailureError"


def test_outliers_far_outlier_at_order_3200(capsys, dense_newton_root):
    # the outlier near 8 sits about 1.67e-163 from its limit; on the dense
    # power basis it needs about 3200 * log2(8) bits
    code, out, _ = _run(capsys, "outliers", "--beta=9/8", "--n", "3200",
                        "--digits", "100")
    assert code == 0
    n, large, small, err_large, err_small = out.strip().splitlines()[1].split(",")
    assert n == "3200" and large and small and err_small
    root = dense_newton_root(charpoly_closed_form(BetaParam.parse("9/8"), 3200),
                             Fraction(8), 12000)
    with mp.workprec(12000):
        assert mp.nstr(abs(root - 8), 12) == mp.nstr(mp.mpf(err_large), 12)
        assert abs(mp.mpf(err_large) / mp.mpf("1.6705e-163") - 1) < 1e-4


def test_debug_logging_leaves_stdout_unchanged(caplog, capsys):
    for argv, record in ((["eigs", "--beta", "4/3", "--n", "12", "--digits", "25"], "solve_all"),
                         (["singvals", "--beta", "4/3", "--n", "50"], "singvals")):
        eigenvalues.cache_clear()
        code, quiet, _ = _run(capsys, *argv)
        eigenvalues.cache_clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="betaspec"):
            code_logged, logged, _ = _run(capsys, *argv)
        assert code == code_logged == 0
        assert logged == quiet
        assert any(r.getMessage().startswith(record) and "bits=" in r.getMessage()
                   for r in caplog.records)


def test_singvals_digits_set_the_precision(capsys):
    # 100 digits are computed at 544 bits where 30 digits take 288; the
    # reference is mp.eighe on the dense Gram matrix B*B at 1024 bits
    beta, n = BetaParam.parse("4/3"), 8
    code, out, _ = _run(capsys, "singvals", "--beta=4/3", "--n", str(n), "--digits", "100")
    assert code == 0
    with mp.workprec(1024):
        dense = mp.matrix(build_beta_matrix(beta, n).dense_mp(1024))
        evs = mp.eighe(dense.H * dense, eigvals_only=True)
        ref = sorted((mp.sqrt(max(ev, 0)) for ev in evs), reverse=True)
        got = [mp.mpf(s) for s in out.split()]
        assert len(got) == n
        assert max(abs(a / b - 1) for a, b in zip(got, ref)) < mp.mpf(10) ** -98


def test_singvals_beta_one_prints_exact_zero(capsys):
    code, out, _ = _run(capsys, "singvals", "--beta", "1", "--n", "50")
    assert code == 0
    assert out.splitlines()[-1] == "0.0"


def test_determinism_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["eigs", "--beta", "4/3", "--n", "12", "--digits", "25",
                "--format", "json", "--out", str(out1)]) == 0
    assert run(["eigs", "--beta", "4/3", "--n", "12", "--digits", "25",
                "--format", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reproduce_table1(tmp_path, capsys):
    code = run(["reproduce", "table1", "--out", str(tmp_path), "--n", "10,50"])
    assert code == 0
    text = (tmp_path / "table1.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "n,k,first_component,reference,match"
    assert len(lines) == 1 + 2 * 5
    assert all(line.endswith("True") for line in lines[1:])


def test_reproduce_table2(tmp_path, capsys):
    code = run(["reproduce", "table2", "--out", str(tmp_path), "--n", "50,100"])
    assert code == 0
    text = (tmp_path / "table2.csv").read_text()
    assert text.splitlines()[1].startswith("50,-0.0204166702")


def test_reproduce_fig_scatter(tmp_path, capsys):
    code = run(["reproduce", "fig3", "--out", str(tmp_path), "--n", "30"])
    assert code == 0
    lines = (tmp_path / "fig3_n30.csv").read_text().strip().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 31
    pts = [complex(float(a), float(b)) for a, b in
           (line.split(",") for line in lines[1:])]
    outliers = [z for z in pts if abs(abs(z) - 1) > 0.1]
    assert len(outliers) == 2


def test_reproduce_fig1_no_outliers(tmp_path, capsys):
    code = run(["reproduce", "fig1", "--out", str(tmp_path), "--n", "30"])
    assert code == 0
    lines = (tmp_path / "fig1_n30.csv").read_text().strip().splitlines()
    pts = [complex(float(a), float(b)) for a, b in
           (line.split(",") for line in lines[1:])]
    assert sum(1 for z in pts if abs(abs(z) - 1) > 0.05) == 0


def test_reproduce_outlier_digits(tmp_path, capsys):
    code = run(["reproduce", "outlier-digits", "--out", str(tmp_path),
                "--n", "50", "--digits", "50"])
    assert code == 0
    text = (tmp_path / "outlier_digits.csv").read_text()
    assert REFERENCE_N50 in text


@pytest.mark.parametrize("argv,name,digest", REFERENCE_OUTPUTS,
                         ids=["reproduce", "singvals", "outliers", "outliers-4096bit",
                              "beta1", "singvals-n1600", "weyl", "table1",
                              "eigs-sparse", "eigs-aberth", "cluster", "charpoly-exact",
                              "charpoly-json", "charpoly-complex", "eigs-complex-json",
                              "matrix-complex-json", "charpoly-decimal"])
def test_reference_outputs_unchanged(tmp_path, capsys, argv, name, digest):
    assert run([a.replace("{out}", str(tmp_path)) for a in argv]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
