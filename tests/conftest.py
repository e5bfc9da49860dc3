import pytest
from hypothesis import settings

from omzv import GammaContext, OmegaParam, QuadConfig

# Property tests draw the same examples on every run: the cost of
# test_products_associate ranged over 0.5-33 s with the draw.  Each
# test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def p1():
    return OmegaParam(1.0)


@pytest.fixture(scope="session")
def cfg():
    return QuadConfig()


@pytest.fixture(scope="session")
def fast_cfg():
    """Connector-grade settings: the identities under test sit at
    tolerances around 1e-4, so the default 1e-9 target only buys grid."""
    return QuadConfig(rel_tol=1e-7, abs_tol=1e-9)


@pytest.fixture(scope="session")
def ctx1(p1, fast_cfg):
    return GammaContext(p1, cfg=fast_cfg)
