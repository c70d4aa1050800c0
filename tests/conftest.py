import functools
import os

import pytest

from hqcount.field import build_field
from hqcount.gauss import GaussTable

# pyproject's pythonpath puts src/ on this process's path; child processes
# (python -m hqcount) get it through the environment, so the suite runs
# from a fresh checkout with nothing installed
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@functools.lru_cache(maxsize=None)
def field(q: int):
    return build_field(q)


@functools.lru_cache(maxsize=None)
def gauss_table(q: int) -> GaussTable:
    return GaussTable(field(q))


@pytest.fixture
def f5():
    return field(5)


@pytest.fixture
def f7():
    return field(7)


@pytest.fixture
def f9():
    return field(9)


@pytest.fixture
def f13():
    return field(13)
