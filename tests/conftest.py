from pathlib import Path

import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

REPO = Path(__file__).resolve().parent.parent
TOY_CORPUS = REPO / "demos" / "data" / "toy_corpus.jsonl"
TOY_CONFIG = REPO / "demos" / "data" / "toy_config.json"
TOY_HIERARCHY = REPO / "demos" / "data" / "toy_hierarchy.json"


def as_scipy(matrix) -> sp.csr_matrix:
    """A returned ``mathns`` matrix as the scipy CSR over the same arrays,
    for tests that read it through scipy-only API."""
    return sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


@pytest.fixture(scope="session")
def toy_corpus_path() -> Path:
    assert TOY_CORPUS.exists(), "bundled toy corpus missing"
    return TOY_CORPUS


@pytest.fixture(scope="session")
def toy_config_path() -> Path:
    return TOY_CONFIG
