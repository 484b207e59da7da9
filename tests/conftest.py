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
    """The dtype of every matrix put into DIA storage while the test runs:
    by ``sparse._dia_sum`` (each Galerkin level) or by a format's ``todia``,
    which goes through COO's; a DIA matrix is put there by neither."""
    calls = []
    todia, dia_sum = sp.coo_matrix.todia, sparse._dia_sum

    def counting(convert, dtype):
        def wrapper(*args, **kwargs):
            calls.append(dtype(*args))
            return convert(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sp.coo_matrix, "todia",
                        counting(todia, lambda A, *_: A.dtype))
    monkeypatch.setattr(sparse, "_dia_sum", counting(
        dia_sum, lambda rows, cols, vals, shape: np.result_type(vals)))
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def _no_output_dir_override(monkeypatch):
    # FMES_OUTPUT_DIR overrides every output_dir; the tests that use it set it
    monkeypatch.delenv("FMES_OUTPUT_DIR", raising=False)
