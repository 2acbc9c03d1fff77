import pytest
from hypothesis import settings

from beattykit import build_table, parse_irrational

# large enough for q*floor(sqrt(2)*1e6) + a at any q <= 10; built once
BIG_LIMIT = 14_200_000


@pytest.fixture(scope="session")
def big_table():
    return build_table(BIG_LIMIT)


@pytest.fixture(scope="session")
def sqrt2():
    return parse_irrational("sqrt:2")


@pytest.fixture(scope="session")
def sqrt3():
    return parse_irrational("sqrt:3")


@pytest.fixture(scope="session")
def phi():
    return parse_irrational("quad:1/2+sqrt:5")


# differential suites run the same examples every time and stay within a
# few seconds of tier-1
settings.register_profile("beattykit", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("beattykit")
