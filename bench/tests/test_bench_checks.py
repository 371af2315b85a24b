"""Each benchmark check accepts real betaspec output and rejects a corrupted copy.

Run with ``python -m pytest bench/tests`` from the repository root.
"""
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from betaspec import cli  # noqa: E402

BETA = Fraction(4, 3)


def _run(tmp_path, *argv) -> str:
    out = tmp_path / "out.txt"
    assert cli.run(list(argv) + ["--out", str(out)]) == 0
    return out.read_text()


def _bump_digit(text: str, position: int) -> str:
    """Change the ``position``-th significant digit of a decimal string."""
    seen = 0
    chars = list(text)
    for i, ch in enumerate(chars):
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            if seen == position:
                chars[i] = str((int(ch) + 1) % 10)
                return "".join(chars)
        if ch in "eE":
            break
    raise ValueError(f"{text!r} has fewer than {position} significant digits")


def _fired(problems, *checks_expected):
    """Each named check reported a problem."""
    text = " | ".join(problems)
    missing = [c for c in checks_expected if c not in text]
    assert not missing, f"{missing} not among: {text}"


@pytest.fixture(scope="module")
def spectrum(tmp_path_factory):
    text = _run(tmp_path_factory.mktemp("eigs"), "eigs", "--beta", "4/3", "--n", "50")
    return checks.parse_roots_csv(text)


def test_spectrum_check_accepts_real_output(spectrum):
    assert checks.check_spectrum(BETA, 50, 30, spectrum) == []


def test_spectrum_check_rejects_root_perturbed_in_20th_digit(spectrum):
    roots = list(spectrum)
    re, im = roots[7]
    roots[7] = (re, _bump_digit(im, 20))
    _fired(checks.check_spectrum(BETA, 50, 30, roots),
           "Newton-step", "root sum", "root product", "conjugate partner")


def test_spectrum_check_rejects_dropped_and_duplicated_root(spectrum):
    roots = list(spectrum)
    roots[3] = roots[4]
    _fired(checks.check_spectrum(BETA, 50, 30, roots),
           "Newton-step", "LAPACK eigvals", "root sum", "root product")


def test_outlier_check_rejects_wrong_digit(tmp_path):
    row = checks.parse_outliers_csv(
        _run(tmp_path, "outliers", "--beta", "4/3", "--n", "200", "--digits", "100"))
    assert checks.check_outliers(BETA, 200, 100, row) == []
    for key in ("large", "small"):
        bad = dict(row, **{key: _bump_digit(row[key], 20)})
        _fired(checks.check_outliers(BETA, 200, 100, bad), f"around the {key} outlier")


def test_singular_value_check_rejects_value_off_by_1e6(tmp_path):
    values = checks.parse_lines(_run(tmp_path, "singvals", "--beta", "4/3", "--n", "50"))
    assert checks.check_singvals(BETA, 50, 30, values) == []
    bad = list(values)
    bad[10] = str(Fraction(bad[10]) + Fraction(1, 10 ** 6))
    _fired(checks.check_singvals(BETA, 50, 30, bad),
           "product", "sum of squares", "LAPACK svd", "differ from 1")


def test_outlier_series_rejects_growing_error():
    rows = [{"n": 200, "large": "3.0", "small": "0.3", "err_large": "1e-5", "err_small": "1e-6"},
            {"n": 400, "large": "3.0", "small": "0.3", "err_large": "2e-5", "err_small": "1e-7"}]
    assert checks.check_outlier_series(rows, 30) == ["err_large did not decrease from n=200 to n=400"]


@pytest.mark.parametrize("beta", [Fraction(4, 3), Fraction(5), Fraction(13, 9)])
def test_charpoly_sign_matches_exact_horner(beta):
    n = 9
    coeffs = [c[0] for c in checks.exact_charpoly(checks.gq(beta), n)]
    for t in (Fraction(1, 3), Fraction(9, 10), Fraction(11, 10), Fraction(7, 5), Fraction(3)):
        value = Fraction(0)
        for c in reversed(coeffs):
            value = value * t + c
        assert checks.charpoly_sign(beta, n, t) == (value > 0) - (value < 0)


def test_exact_charpoly_matches_dense_determinant():
    import numpy as np
    beta = (Fraction(3, 2), Fraction(1, 2))
    coeffs = [complex(float(re), float(im)) for re, im in checks.exact_charpoly(beta, 7)]
    want = np.poly(checks.dense_matrix(beta, 7))[::-1]
    assert np.allclose(coeffs, want, atol=1e-12)


def test_benchmark_json_names_the_reported_metrics():
    import json
    import spans
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == spans.LAYER_METRICS
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "op_p50_s", "cpu_s", "peak_rss_mib"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    import shutil
    import subprocess
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
