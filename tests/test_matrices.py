"""Matrix family construction: entry formulas, blocks, structure invariants."""
from fractions import Fraction

import numpy as np
import pytest

from betaspec import (
    BetaParam,
    InvalidOrderError,
    InvalidParameterError,
    QComplex,
    build_aux_matrix,
    build_beta_matrix,
    build_shifted,
    build_x_block,
    matrix_to_csv,
)

B2 = BetaParam.parse("2")
B1 = BetaParam.parse("1")
B3 = BetaParam.parse("3")
B43 = BetaParam.parse("4/3")


def test_order_one_entry():
    assert build_beta_matrix(B2, 1).dense_exact() == [[Fraction(-1, 2)]]


def test_beta_one_order_three_dense():
    expected = [[0, 0, 0], [2, 1, 1], [1, 2, 1]]
    got = build_beta_matrix(B1, 3).dense_exact()
    assert got == [[Fraction(x) for x in row] for row in expected]


def test_subdiagonal_entry_formula():
    m = build_beta_matrix(B3, 3)
    assert m.entry(2, 1) == Fraction(10, 9)
    assert m.dense_exact()[1][0] == Fraction(10, 9)


def test_first_row_constant():
    m = build_beta_matrix(B43, 6).dense_exact()
    assert all(x == Fraction(3, 4) - 1 for x in m[0])


def test_invalid_inputs():
    with pytest.raises(InvalidOrderError):
        build_beta_matrix(B2, 0)
    with pytest.raises(InvalidParameterError):
        BetaParam.parse("0")
    with pytest.raises(InvalidParameterError):
        BetaParam.parse("0/5")


def test_aux_matrix_forms():
    t = Fraction(1, 3)
    assert build_aux_matrix(t, 1) == [[-1 - t]]
    assert build_aux_matrix(t, 2) == [[-1, t], [-t, -1 - t]]
    m3 = build_aux_matrix(Fraction(1), 3)
    assert m3[2] == [Fraction(-1), Fraction(-1), Fraction(-2)]
    assert m3[0] == [Fraction(-1), Fraction(1), Fraction(0)]


def test_shifted_matrix():
    # t = 0 gives -B entrywise
    b = build_beta_matrix(B43, 4).dense_exact()
    s0 = build_shifted(B43, 4, 0)
    assert all(s0[i][j] == -b[i][j] for i in range(4) for j in range(4))
    assert build_shifted(B2, 1, 1) == [[Fraction(3, 2)]]
    assert build_shifted(B2, 2, Fraction(7))[1][0] == Fraction(-5, 4)


def test_x_block():
    assert build_x_block(2) == [[1]]
    assert build_x_block(3) == [[1, 1], [2, 1]]
    x5 = build_x_block(5)
    assert x5[2][1] == 2 and x5[1][2] == 1
    assert all(v > 0 for row in x5 for v in row)
    with pytest.raises(InvalidOrderError):
        build_x_block(1)


def test_beta_one_block_structure():
    # first row identically zero; lower-right block is the positive block
    n = 7
    dense = build_beta_matrix(B1, n).dense_exact()
    assert all(x == 0 for x in dense[0])
    block = build_x_block(n)
    for i in range(n - 1):
        for j in range(n - 1):
            assert dense[i + 1][j + 1] == block[i][j]


@pytest.mark.parametrize("beta", [B43, B2, B3])
@pytest.mark.parametrize("n", [2, 5, 17])
def test_rank_one_correction(beta, n):
    dense = build_beta_matrix(beta, n).dense_numpy()
    shift = np.diag(np.ones(n - 1), -1)
    sv = np.linalg.svd(dense - shift, compute_uv=False)
    assert sv[0] > 1e-6
    if n >= 2:
        assert sv[1] < 1e-12


@pytest.mark.parametrize("beta", [B43, B2, B3, B1])
def test_trace_identity(beta, n=9):
    m = build_beta_matrix(beta, n)
    dense = m.dense_exact()
    assert sum(dense[i][i] for i in range(n)) == m.trace_exact()
    inv = beta.inverse_powers(n)
    assert m.trace_exact() == sum(inv) - 1


def test_structured_matvec_matches_dense():
    n = 8
    m = build_beta_matrix(B43, n)
    dense = m.dense_exact()
    x = [Fraction(k + 1, 3) for k in range(n)]
    direct = [sum(dense[i][j] * x[j] for j in range(n)) for i in range(n)]
    assert m.matvec_exact(x) == direct


def test_complex_beta_matrix():
    beta = BetaParam.parse("1+1i")
    m = build_beta_matrix(beta, 3)
    dense = m.dense_numpy()
    v1 = 1 / (1 + 1j)
    assert abs(dense[0, 0] - (v1 - 1)) < 1e-15
    assert abs(dense[1, 0] - (v1 ** 2 + 1)) < 1e-15


def test_real_beta_is_always_a_fraction():
    # a QComplex with imaginary part 0 is the same beta as the int: equal, and
    # hashed alike, so the two spellings share the eigenvalue cache
    spelled = BetaParam(QComplex(Fraction(3)))
    assert spelled == BetaParam(3) == BetaParam.parse("3+0i")
    assert hash(spelled) == hash(BetaParam(3))
    assert type(spelled.value) is Fraction and spelled.is_real
    assert type(spelled.inverse) is Fraction
    assert type(BetaParam.parse("3/2+1i").inverse) is QComplex


def test_csv_export_exact_and_decimal():
    m = build_beta_matrix(B43, 2)
    exact = matrix_to_csv(m.dense_exact(), exact=True)
    assert exact.splitlines()[0] == "-1/4,-1/4"
    dec = matrix_to_csv(m.dense_exact(), digits=6)
    assert dec.splitlines()[0] == "-0.25,-0.25"
