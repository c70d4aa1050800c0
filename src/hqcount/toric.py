"""Staircase-triangulation cells of the product of two simplices.

A cell is a weakly monotone chain of distinct index pairs (i, j) in the
r x s grid; exactly these arise as subsets of the maximal staircase
simplices, which biject with monotone lattice paths from (1, 1) to
(r, s).  The empty cell is a first-class value.  Cell bookkeeping feeds
the three summation identities and the per-cell counting numbers N(C)
that assemble the completed point count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .errors import IndexOutOfRange, ZeroArgument
from .field import FieldTable
from .gauss import GaussTable, table_for
from .hyper import CyclotomicData, _require_coprime
from .report import CountReport


@dataclass(frozen=True)
class Cell:
    """A staircase cell in the (r, s) grid; pairs are 1-based and sorted."""

    r: int
    s: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.pairs)

    @property
    def support_x(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.pairs)

    @property
    def support_y(self) -> frozenset[int]:
        return frozenset(j for _, j in self.pairs)

    @property
    def support_size(self) -> int:
        return len(self.support_x) + len(self.support_y)

    @property
    def is_maximal(self) -> bool:
        return self.support_size == self.r + self.s

    def render(self) -> str:
        return "[" + ",".join(f"({i},{j})" for i, j in self.pairs) + "]"

    def to_json(self) -> list[list[int]]:
        return [[i, j] for i, j in self.pairs]


def iter_cells(r: int, s: int):
    """Yield all cells of T_rs in lexicographic order (empty first)."""
    if r < 1 or s < 1:
        raise ValueError("r and s must be positive")

    def extend(chain: list[tuple[int, int]]):
        yield tuple(chain)
        i0, j0 = chain[-1] if chain else (1, 1)
        for i in range(i0, r + 1):
            for j in range(j0, s + 1):
                if chain and (i, j) == (i0, j0):
                    continue
                chain.append((i, j))
                yield from extend(chain)
                chain.pop()

    for pairs in extend([]):
        yield Cell(r, s, pairs)


def enumerate_cells(r: int, s: int) -> list[Cell]:
    """All cells of the staircase triangulation, deterministically ordered."""
    return list(iter_cells(r, s))


@lru_cache(maxsize=None)
def cell_profile(r: int, s: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """Counts of cells by (length, support size); drives the big sums."""
    counts: dict[tuple[int, int], int] = {(0, 0): 1}

    def extend(i: int, j: int, sx: int, sy: int, length: int):
        key = (length, sx + sy)
        counts[key] = counts.get(key, 0) + 1
        for ni in range(i, r + 1):
            for nj in range(j, s + 1):
                if (ni, nj) == (i, j):
                    continue
                extend(ni, nj, sx + (ni > i), sy + (nj > j), length + 1)

    for i in range(1, r + 1):
        for j in range(1, s + 1):
            extend(i, j, 1, 1, 1)
    return tuple(sorted(counts.items()))


def cell_gcd(data: CyclotomicData, cell: Cell) -> int:
    """a_S: gcd of the supported exponents; 0 for the empty cell."""
    if cell.r != data.r or cell.s != data.s:
        raise IndexOutOfRange(
            f"cell grid ({cell.r},{cell.s}) does not match data "
            f"({data.r},{data.s})")
    if not cell.pairs:
        return 0
    values = [data.p_list[i - 1] for i in cell.support_x]
    values += [data.q_list[j - 1] for j in cell.support_y]
    return gcd(*values)


def p_rs(r: int, s: int, q: int | None = None) -> int | tuple[int, ...]:
    """The polynomial P_rs; coefficients (constant first) when q is None."""
    if r < 1 or s < 1:
        raise ValueError("r and s must be positive")
    coeffs = [0] * max(r + s - 1, 1)
    for m in range(min(r - 1, s - 1) + 1):
        c = comb(r - 1, m) * comb(s - 1, m)
        for k in range(m, r + s - m - 2):
            coeffs[k] += c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if q is None:
        return tuple(coeffs)
    return sum(c * q**k for k, c in enumerate(coeffs))


def cell_sum_identity(r: int, s: int, q: int, which: str) -> CountReport:
    """Enumerated cell sum vs closed form, for one of the three identities."""
    profile = cell_profile(r, s)
    if which == "term":
        lhs = sum(count * (q - 1) ** (ss - length) * (-1) ** ss
                  for (length, ss), count in profile)
        rhs = q ** min(r, s)
    elif which == "main":
        lhs = sum(count * (q - 1) ** (r + s - length - 1)
                  for (length, ss), count in profile)
        rhs = sum(comb(r - 1, m) * comb(s - 1, m) * q ** (r + s - m - 1)
                  for m in range(min(r - 1, s - 1) + 1))
    elif which == "maximal":
        lhs = sum(count * (q - 1) ** (r + s - length - 1)
                  for (length, ss), count in profile if ss == r + s)
        rhs = sum(comb(r - 1, m) * comb(s - 1, m) * q ** m
                  for m in range(min(r - 1, s - 1) + 1))
    else:
        raise ValueError(f"unknown identity {which!r}")
    return CountReport.compare(f"cells:{which} r={r} s={s}", q, None, lhs, rhs)


def delta_sum(F: FieldTable, data: CyclotomicData, a_s: int, lam_twisted: int,
              table: GaussTable | None = None) -> Fraction:
    """sum over m of delta(a_S m) g(pm, -qm) omega(eps lam)^m, exactly.

    ``lam_twisted`` is the field element eps * lam; a_s = 0 means no
    delta restriction (the empty-cell convention).
    """
    T = table or table_for(F)
    qq = F.q - 1
    g0 = gcd(a_s, qq)          # a_s = 0 gives g0 = qq: every m survives
    step = qq // g0 if g0 else 1
    sums = T.fourier_table(data.multipliers, range(0, qq, step),
                           weighted=False)
    return Fraction(sums.value(F.log_table[lam_twisted]))


def counting_number(F: FieldTable, data: CyclotomicData, cell: Cell,
                    lam: int) -> Fraction:
    """N(C): the closed-form contribution of one cell to the completion.

    Vanishes when |S(C)| = r + s - 1 and degenerates to the torus count
    for the empty cell; both facts are exercised by the test suite rather
    than special-cased here.
    """
    if lam == 0:
        raise ZeroArgument("lambda must be nonzero")
    _require_coprime(F, data)
    a_s = cell_gcd(data, cell)
    eps_lam = lam if data.epsilon > 0 else F.mul(lam, F.minus_one)
    total = delta_sum(F, data, a_s, eps_lam)
    q = F.q
    r, s = data.r, data.s
    length, ss = cell.length, cell.support_size
    main = Fraction(q - 1) ** (r + s - length - 2) / q
    twist = Fraction((-1) ** ss, 1) * Fraction(q - 1) ** (ss - length) \
        / (q * (q - 1))
    return main + twist * total
