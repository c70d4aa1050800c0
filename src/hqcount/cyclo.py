"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is held in the group-ring presentation: a length-N vector c with
c[k] the coefficient of zeta_N^k, reduced only modulo x^N - 1.  Products
are plain cyclic convolutions, which is exactly how Gauss-sum summations
arrive.  Canonicalization modulo the N-th cyclotomic polynomial Phi_N
happens on demand (equality, rationality, integrality tests); Phi_N is
computed once per N by peeling the divisors of x^N - 1.

Coefficients are arbitrary-precision rationals (plain ints are accepted
and preserved; Fractions appear as soon as a scalar division does).  The
reduction itself runs on integers: the coefficients are put over one
common denominator, the integer numerators are reduced with the integral
rows of the monic Phi_N, and the deg Phi_N results are divided once.
Scalar multiplication and division carry an already computed reduced
form along (reduction is Q-linear), so dividing a reduced integer vector
costs deg Phi_N divisions and no second reduction.  There is no
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import NotRational, OrderMismatch

Rational = int | Fraction


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divexact(num: Sequence[int], den: Sequence[int]) -> tuple[int, ...]:
    """Exact division of integer polynomials (den monic up to sign)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        assert c % den[dd] == 0
        q = c // den[dd]
        out[i - dd] = q
        for j, dj in enumerate(den):
            num[i - dd + j] -= q * dj
    assert not any(num), "non-exact polynomial division"
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first."""
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    result: Sequence[int] = poly
    for d in divisors(n):
        if d < n:
            result = _poly_divexact(result, cyclotomic_polynomial(d))
    return tuple(result)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row j holds x^(deg Phi_n + j) reduced mod Phi_n, for j < n - deg."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    if deg >= n:
        return tuple(rows)
    base = tuple(-c for c in phi[:deg])  # x^deg mod Phi_n
    row = base
    rows.append(row)
    for _ in range(n - deg - 1):
        top = row[deg - 1]
        shifted = [0] + list(row[: deg - 1])
        if top:
            shifted = [a + top * b for a, b in zip(shifted, base)]
        row = tuple(shifted)
        rows.append(row)
    return tuple(rows)


class CycloNum:
    """An element of Q(zeta_N) in the group-ring presentation.

    Instances are immutable; all operations return fresh values, so they
    are safe to memoize.
    """

    __slots__ = ("order", "coeffs", "_canon")

    def __init__(self, order: int, coeffs: Iterable[Rational]):
        if order < 1:
            raise ValueError("order must be >= 1")
        cs = tuple(coeffs)
        if len(cs) != order:
            raise ValueError(f"expected {order} coefficients, got {len(cs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("CycloNum is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(order: int) -> CycloNum:
        return CycloNum(order, [0] * order)

    @staticmethod
    def const(order: int, value: Rational) -> CycloNum:
        cs = [0] * order
        cs[0] = value
        return CycloNum(order, cs)

    @staticmethod
    def from_sparse(order: int, terms: dict[int, Rational]) -> CycloNum:
        cs: list[Rational] = [0] * order
        for k, v in terms.items():
            cs[k % order] += v
        return CycloNum(order, cs)

    # -- basic structure -------------------------------------------------

    def _nonzero(self) -> list[tuple[int, Rational]]:
        return [(i, c) for i, c in enumerate(self.coeffs) if c]

    def __repr__(self) -> str:
        nz = self._nonzero()
        if not nz:
            return f"CycloNum({self.order}, 0)"
        parts = [f"{c}*z^{i}" if i else f"{c}" for i, c in nz[:6]]
        if len(nz) > 6:
            parts.append("...")
        return f"CycloNum({self.order}, {' + '.join(parts)})"

    def _check(self, other: CycloNum) -> None:
        if self.order != other.order:
            raise OrderMismatch(
                f"orders differ: {self.order} vs {other.order}; embed first")

    # -- ring operations ------------------------------------------------

    def __add__(self, other: CycloNum | Rational) -> CycloNum:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.const(self.order, other)
        self._check(other)
        return CycloNum(self.order,
                        [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other: CycloNum | Rational) -> CycloNum:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.const(self.order, other)
        self._check(other)
        return CycloNum(self.order,
                        [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other: Rational) -> CycloNum:
        return CycloNum.const(self.order, other) - self

    def __neg__(self) -> CycloNum:
        return CycloNum(self.order, [-a for a in self.coeffs])

    def _scaled(self, coeffs: list[Rational], canon) -> CycloNum:
        """A new value with these coefficients and, if known, reduced form."""
        out = CycloNum(self.order, coeffs)
        if canon is not None:
            object.__setattr__(out, "_canon", tuple(canon))
        return out

    def __mul__(self, other: CycloNum | Rational) -> CycloNum:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return CycloNum.zero(self.order)
            canon = self._canon
            return self._scaled(
                [a * other for a in self.coeffs],
                None if canon is None else (c * other for c in canon))
        self._check(other)
        n = self.order
        out: list[Rational] = [0] * n
        a_nz = self._nonzero()
        b_nz = other._nonzero()
        if len(b_nz) < len(a_nz):
            a_nz, b_nz = b_nz, a_nz
        for i, ci in a_nz:
            for j, cj in b_nz:
                k = i + j
                if k >= n:
                    k -= n
                out[k] += ci * cj
        return CycloNum(n, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Rational) -> CycloNum:
        if not isinstance(scalar, (int, Fraction)):
            raise TypeError("division only by rational scalars")
        canon = self._canon
        return self._scaled(
            [Fraction(a, scalar) for a in self.coeffs],
            None if canon is None else (Fraction(c, scalar) for c in canon))

    def __pow__(self, k: int) -> CycloNum:
        if k < 0:
            raise ValueError("negative powers are not supported")
        result = CycloNum.const(self.order, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- field structure -------------------------------------------------

    def galois(self, k: int) -> CycloNum:
        """Apply zeta_N -> zeta_N^k; requires gcd(k, N) = 1."""
        n = self.order
        if gcd(k, n) != 1:
            raise ValueError("galois substitution needs gcd(k, N) = 1")
        out: list[Rational] = [0] * n
        for i, c in self._nonzero():
            out[(i * k) % n] += c
        return CycloNum(n, out)

    def embed(self, order: int) -> CycloNum:
        """Embed into Q(zeta_M) for a multiple M of the current order."""
        if order % self.order:
            raise OrderMismatch(
                f"{self.order} does not divide target order {order}")
        step = order // self.order
        out: list[Rational] = [0] * order
        for i, c in self._nonzero():
            out[i * step] = c
        return CycloNum(order, out)

    # -- canonical form and predicates ------------------------------------

    def canonical(self) -> tuple[Rational, ...]:
        """Coefficients reduced mod Phi_N (length = deg Phi_N).

        The integer numerators over the lcm of the denominators are
        reduced, then divided by that lcm once; an int vector stays int.
        """
        cached = self._canon
        if cached is not None:
            return cached
        n = self.order
        coeffs = self.coeffs
        deg = len(cyclotomic_polynomial(n)) - 1
        den = lcm(*(c.denominator for c in coeffs))
        if den != 1:
            coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
        work = list(coeffs[:deg])
        rows = _reduction_rows(n)
        for j in range(deg, n):
            c = coeffs[j]
            if c:
                row = rows[j - deg]
                for i, ri in enumerate(row):
                    if ri:
                        work[i] += c * ri
        canon = (tuple(work) if den == 1
                 else tuple(Fraction(w, den) for w in work))
        object.__setattr__(self, "_canon", canon)
        return canon

    def is_zero(self) -> bool:
        return not any(self.canonical())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.const(self.order, other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        if self.order != other.order:
            raise OrderMismatch("cannot compare different root orders")
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash((self.order, self.canonical()))

    def is_rational(self) -> bool:
        return not any(self.canonical()[1:])

    def reduce_to_rational(self) -> Fraction:
        canon = self.canonical()
        if any(canon[1:]):
            raise NotRational(
                f"nonzero residual mod Phi_{self.order}", residual=canon[1:])
        return Fraction(canon[0])

    def is_algebraic_integer(self) -> bool:
        """True when the canonical coordinates all lie in Z.

        Valid because Z[zeta_N] is the full ring of integers of Q(zeta_N).
        """
        return all(Fraction(c).denominator == 1 for c in self.canonical())


def root_of_unity(order: int, k: int = 1) -> CycloNum:
    """zeta_order^k as a CycloNum."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return CycloNum.from_sparse(order, {k % order: 1})
