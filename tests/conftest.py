import random

import pytest
from hypothesis import settings

from ringauction.group import gen_group_params, group_from_primes
from ringauction.ringsig import keygen, setup

# The same examples on every run, and no per-example deadline, which a slow
# machine can miss; each test's own @settings keeps its max_examples.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def tiny_params():
    """p=5, q=7: small enough to brute-force every group element."""
    return group_from_primes(5, 7, random.Random(1))


@pytest.fixture(scope="session")
def params16():
    return gen_group_params(16, 16, random.Random(42))


@pytest.fixture(scope="session")
def setup16(params16):
    """(public params, trace key) over the 16-bit group, k=8."""
    return setup(params16, 8, random.Random(43))


@pytest.fixture(scope="session")
def keys16(setup16):
    pp, _ = setup16
    rng = random.Random(44)
    return [keygen(pp, rng) for _ in range(5)]
