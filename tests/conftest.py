import pytest
from hypothesis import HealthCheck, settings

from wieferich import CycloFactorCache, FieldSpec

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def rational_field():
    return FieldSpec.from_d(0)


@pytest.fixture(scope="session")
def gauss_field():
    return FieldSpec.from_d(1)


@pytest.fixture(scope="session")
def d2_field():
    return FieldSpec.from_d(2)


@pytest.fixture(scope="session")
def d3_field():
    return FieldSpec.from_d(3)


@pytest.fixture(scope="session")
def base_2i(gauss_field):
    return gauss_field.element(2, 1)


@pytest.fixture(scope="session")
def cache_2i(base_2i):
    # shared so the big factorizations happen once per test session
    return CycloFactorCache(base_2i)
