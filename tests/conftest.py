import pytest

from poisson_forge.catalog import lefschetz_catalog
from poisson_forge.homology import HomologyEngine


@pytest.fixture(scope="session")
def cat():
    return lefschetz_catalog()


@pytest.fixture(scope="session")
def engine():
    # one engine per session so slice matrices and ranks are computed once
    return HomologyEngine()
