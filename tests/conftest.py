import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cohprobe.coherence import builtin_corpus
from cohprobe.gbasis import complete_to_degree
from cohprobe.linalg import QQ, PrimeField

FAST = PrimeField(32003)

# the tier-1 slice of the random-presentation sweep (tests/sweep.py)
SLICE = {"seed": 1, "algebras": 40, "D": 6}

# corpus label -> the generators of a right ideal that shows the algebra's
# right verdict; (x*y) for remark is a design choice
WITNESS_RIGHT = {
    "free1": ["x"],
    "free2": ["x"],
    "xy_zero": ["x"],
    "example1": ["x"],
    "example2": ["x"],
    "remark": ["x*y"],
    "noetherian_base": ["z"],
    "commutative_model": ["x"],
}


@pytest.fixture(scope="session")
def fast_field():
    return FAST


@pytest.fixture(scope="session")
def corpus_fast():
    """label -> presentation over F32003."""
    return {e.label: e for e in builtin_corpus(FAST)}


@pytest.fixture(scope="session")
def corpus_q():
    return {e.label: e for e in builtin_corpus(QQ)}


@pytest.fixture(scope="session")
def tgb_fast(corpus_fast):
    """label -> completed basis at D=10 over F32003, shared across tests."""
    cache = {}

    def get(label, D=10):
        key = (label, D)
        if key not in cache:
            cache[key] = complete_to_degree(corpus_fast[label].presentation, D)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def slice_cases():
    """The SweepCases of the tier-1 sweep slice, shared across tests."""
    from sweep import sweep

    return list(sweep(**SLICE))
