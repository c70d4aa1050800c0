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


def ref_add_rotated(acc: list, vec, shift: int, weight=1) -> None:
    """acc += weight * zeta^shift * vec, index by index: the loop that
    gauss.add_rotated and h_general's sliced rows replaced."""
    qq = len(acc)
    shift %= qq
    for i, c in enumerate(vec):
        if c:
            k = i + shift
            if k >= qq:
                k -= qq
            acc[k] += weight * c


def ref_convolve(u, v, qq: int) -> list[int]:
    """Cyclic convolution in Z[Z_qq] over every pair of nonzeros: the
    loop that gauss.convolve_ring's sliced rotation replaced."""
    out = [0] * qq
    unz = [(i, c) for i, c in enumerate(u) if c]
    vnz = [(i, c) for i, c in enumerate(v) if c]
    if len(vnz) < len(unz):
        unz, vnz = vnz, unz
    for i, ci in unz:
        for j, cj in vnz:
            k = i + j
            if k >= qq:
                k -= qq
            out[k] += ci * cj
    return out


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
