import numpy as np
import pytest

from csorbit import load_model


@pytest.fixture(scope="session")
def su2_half():
    return load_model("su2", j=0.5)


@pytest.fixture(scope="session")
def su2_one():
    return load_model("su2", j=1)


@pytest.fixture(scope="session")
def heis10():
    return load_model("heisenberg", trunc=10, margin=3)


@pytest.fixture(scope="session")
def su11_k1():
    return load_model("su11", k=1)


@pytest.fixture(scope="session")
def su3_11():
    return load_model("su3", p=1, q=1)


@pytest.fixture(scope="session")
def su3_21():
    return load_model("su3", p=2, q=1)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def on_table():
    """Place coefficients (..., M) over an (M, n) exponent table on the
    monomials of another table, which must hold every monomial with a
    nonzero coefficient: the way two coefficient arrays are compared."""

    def place(exponents, coeffs, table):
        coeffs = np.asarray(coeffs)
        column = {tuple(e): m for m, e in enumerate(np.asarray(table).tolist())}
        out = np.zeros((*coeffs.shape[:-1], len(column)), dtype=complex)
        for m, e in enumerate(np.asarray(exponents).tolist()):
            if np.any(coeffs[..., m]):
                out[..., column[tuple(e)]] = coeffs[..., m]
        return out

    return place


@pytest.fixture(scope="session")
def coeff_gap(on_table):
    """The largest coefficient difference of two polynomial arrays of the
    same shape, over the union of their monomials."""

    def gap(a, b):
        union = np.unique(np.concatenate([a.exponents, b.exponents]), axis=0)
        diff = on_table(a.exponents, a.coeffs, union) - on_table(b.exponents, b.coeffs, union)
        return float(np.max(np.abs(diff), initial=0.0))

    return gap
