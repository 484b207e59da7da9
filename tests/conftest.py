import numpy as np
import pytest
import scipy.sparse as sp

from fmes import assemble, build_mesh, inverse_iteration, modal_decompose
from fmes import sparse


@pytest.fixture(scope="session")
def sys6():
    return assemble(build_mesh(6))


@pytest.fixture(scope="session")
def pair6(sys6):
    return inverse_iteration(sys6)


@pytest.fixture(scope="session")
def basis6(sys6):
    return modal_decompose(sys6)


@pytest.fixture(scope="session")
def sys11():
    return assemble(build_mesh(11))


@pytest.fixture(scope="session")
def pair11(sys11):
    return inverse_iteration(sys11)


@pytest.fixture(scope="session")
def basis11(sys11):
    return modal_decompose(sys11)


@pytest.fixture(scope="session")
def sys28():
    # the smallest multigrid grids: one level each, to 14 and 16 nodes a side
    return assemble(build_mesh(28))      # not nested in its coarse mesh


@pytest.fixture(scope="session")
def sys31():
    return assemble(build_mesh(31))      # nested


@pytest.fixture(scope="session")
def sys26():
    return assemble(build_mesh(26))


@pytest.fixture(scope="session")
def pair26(sys26):
    return inverse_iteration(sys26)


@pytest.fixture
def todia_calls(monkeypatch):
    """The dtype of every matrix converted to DIA while the test runs: each
    format's ``todia`` goes through COO's, a Galerkin level through
    ``sparse._galerkin_dia``, and a DIA matrix converts none."""
    calls = []
    todia, galerkin_dia = sp.coo_matrix.todia, sparse._galerkin_dia

    def counting(convert):
        def wrapper(A, *args, **kwargs):
            calls.append(A.dtype)
            return convert(A, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(sp.coo_matrix, "todia", counting(todia))
    monkeypatch.setattr(sparse, "_galerkin_dia", counting(galerkin_dia))
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def _no_output_dir_override(monkeypatch):
    # FMES_OUTPUT_DIR overrides every output_dir; the tests that use it set it
    monkeypatch.delenv("FMES_OUTPUT_DIR", raising=False)
