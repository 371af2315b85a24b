"""Shared test helpers."""
from fractions import Fraction

import mpmath as mp
import pytest


def _dense_newton_root(poly, seed: Fraction, bits: int, max_steps: int = 40):
    """Newton on the dense coefficients by ``mp.polyval`` at ``bits``, from
    ``seed`` until the step falls below 2**-(bits - 16) relative: an
    independent reference for the refined outliers."""
    with mp.workprec(bits):
        hi = [mp.mpf(c.numerator) / c.denominator for c in reversed(poly.coeffs)]
        x = mp.mpf(seed.numerator) / seed.denominator
        tol = mp.mpf(2) ** -(bits - 16)
        for _ in range(max_steps):
            p, dp = mp.polyval(hi, x, derivative=True)
            step = p / dp
            x -= step
            if abs(step) <= tol * abs(x):
                return x
    raise AssertionError(f"dense Newton did not settle at {bits} bits")


@pytest.fixture
def dense_newton_root():
    return _dense_newton_root
