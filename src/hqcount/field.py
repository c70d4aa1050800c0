"""Fully tabulated finite fields F_q with a fixed multiplicative generator.

Elements are codes 0..q-1 read as base-p digit vectors, i.e. residues of
F_p[x] modulo a monic irreducible polynomial of degree f.  The modulus is
the lexicographically smallest irreducible (coefficients compared from the
constant term up) and the generator is the nonzero code of smallest value
with multiplicative order q - 1, so tables are reproducible across runs
and machines.  Tables are built eagerly; q is capped to bound memory.
For f > 1, addition reads a Zech table, Z[n] = log(1 + g^n), derived
from exp and log in O(q).

The fixed additive character is psi_q(x) = zeta_p^trace(x); the fixed
multiplicative generator realizes omega(x) = zeta_{q-1}^log(x).  Both are
consumed by the gauss module.
"""

from __future__ import annotations

import os
import struct
from itertools import product
from math import gcd, isqrt
from operator import mul

from .errors import CacheFormatError, NotPrimePower, ZeroHasNoLog

DEFAULT_MAX_Q = 10**6
_LOG_SENTINEL = 0xFFFFFFFF
_MAGIC = b"HQFT1"


def _prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^f or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    m = q
    p = 0
    for cand in range(2, isqrt(q) + 1):
        if m % cand == 0:
            p = cand
            break
    if p == 0:
        return q, 1  # q itself is prime
    f = 0
    while m % p == 0:
        m //= p
        f += 1
    if m != 1:
        raise NotPrimePower(f"{q} has at least two prime factors")
    return p, f


def _prime_factors(n: int) -> list[int]:
    out = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# -- polynomial arithmetic over F_p (dense digit tuples, constant first) ----

def _poly_mulmod(a: tuple[int, ...], b: tuple[int, ...],
                 modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    f = len(modulus) - 1
    prod_ = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod_[i + j] = (prod_[i + j] + ai * bj) % p
    for i in range(len(prod_) - 1, f - 1, -1):
        c = prod_[i]
        if c:
            prod_[i] = 0
            for j in range(f):
                prod_[i - f + j] = (prod_[i - f + j] - c * modulus[j]) % p
    out = prod_[:f]
    out += [0] * (f - len(out))
    return tuple(out)


def _poly_powmod(a: tuple[int, ...], e: int,
                 modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    f = len(modulus) - 1
    result = tuple([1] + [0] * (f - 1))
    base = a
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(list(a)), trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            if not a:
                break
            c = (a[-1] * inv) % p
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % p
            trim(a)
        a, b = b, a
    return a


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Rabin's test for a monic polynomial of degree f over F_p."""
    f = len(modulus) - 1
    if f == 1:
        return True
    x = tuple([0, 1] + [0] * (f - 2))
    # x^(p^f) must equal x mod modulus
    frob = x
    for _ in range(f):
        frob = _poly_powmod(frob, p, modulus, p)
    if frob != x:
        return False
    for r in _prime_factors(f):
        frob = x
        for _ in range(f // r):
            frob = _poly_powmod(frob, p, modulus, p)
        diff = [(a - b) % p for a, b in zip(frob, x)]
        g = _poly_gcd(list(modulus), diff, p)
        if len(g) - 1 != 0:
            return False
    return True


def _code_to_poly(code: int, p: int, f: int) -> tuple[int, ...]:
    digits = []
    for _ in range(f):
        digits.append(code % p)
        code //= p
    return tuple(digits)


class FieldTable:
    """A fully tabulated F_q.  Immutable after construction."""

    __slots__ = ("q", "p", "f", "modulus", "exp_table", "log_table",
                 "trace_table", "zech_table", "_log_minus_one")

    def __init__(self, q: int, p: int, f: int, modulus: tuple[int, ...],
                 exp_table: tuple[int, ...], log_table: tuple[int, ...],
                 trace_table: tuple[int, ...]):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "exp_table", exp_table)
        object.__setattr__(self, "log_table", log_table)
        object.__setattr__(self, "trace_table", trace_table)
        # Derived, never stored on disk.  -1 = g^((q-1)/2) for odd p.
        object.__setattr__(self, "_log_minus_one",
                           (q - 1) // 2 if p % 2 else 0)
        object.__setattr__(self, "zech_table",
                           _zech_table(p, exp_table, log_table) if f > 1
                           else None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FieldTable is immutable")

    def __repr__(self):
        return f"FieldTable(q={self.q}, p={self.p}, f={self.f})"

    def __eq__(self, other):
        return (isinstance(other, FieldTable)
                and self.q == other.q and self.modulus == other.modulus
                and self.exp_table == other.exp_table
                and self.trace_table == other.trace_table)

    def __hash__(self):
        return hash((self.q, self.modulus, self.exp_table[1 % (self.q - 1)]))

    # -- element arithmetic ------------------------------------------------

    @property
    def generator(self) -> int:
        return self.exp_table[1 % (self.q - 1)]

    def element(self, n: int) -> int:
        """The image of the integer n in F_q (a prime-field constant)."""
        return n % self.p

    def add(self, a: int, b: int) -> int:
        if self.f == 1:
            return (a + b) % self.p
        # g^i + g^j = g^i * (1 + g^(j-i)) = g^(i + Z(j-i))
        if a == 0:
            return b
        if b == 0:
            return a
        qq = self.q - 1
        la = self.log_table[a]
        k = self.zech_table[(self.log_table[b] - la) % qq]
        if k < 0:
            return 0
        return self.exp_table[(la + k) % qq]

    def neg(self, a: int) -> int:
        if self.f == 1:
            return (-a) % self.p
        if a == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self._log_minus_one)
                              % (self.q - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        qq = self.q - 1
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % qq]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        qq = self.q - 1
        return self.exp_table[(-self.log_table[a]) % qq]

    def pow_element(self, a: int, e: int) -> int:
        if a == 0:
            if e <= 0:
                raise ZeroDivisionError("0**e with e <= 0")
            return 0
        qq = self.q - 1
        return self.exp_table[(self.log_table[a] * e) % qq]

    @property
    def minus_one(self) -> int:
        return self.exp_table[self._log_minus_one]

    def log_minus_one(self) -> int:
        """log(-1); equals (q-1)/2 for odd q and 0 in characteristic 2."""
        return self._log_minus_one


def _zech_table(p: int, exp: tuple[int, ...],
                log: tuple[int, ...]) -> tuple[int, ...]:
    """Z[n] = log(1 + g^n), or -1 where 1 + g^n = 0.

    Adding 1 to a code changes only its constant digit, so the table costs
    O(q) with no polynomial arithmetic.
    """
    return tuple(log[c - c % p + (c + 1) % p] for c in exp)


def trace_exponent(table: FieldTable, x: int) -> int:
    """Tr_{F_q/F_p}(x) as a residue in [0, p)."""
    return table.trace_table[x]


def omega_log(table: FieldTable, x: int) -> int:
    """Discrete log of x for the fixed generator; omega^k(x) = zeta^{k log x}."""
    if x == 0:
        raise ZeroHasNoLog("omega(0) is undefined")
    return table.log_table[x]


def _find_modulus(p: int, f: int) -> tuple[int, ...]:
    if f == 1:
        return (0, 1)
    # a zero constant term makes the candidate divisible by x, so the
    # lexicographic search starts at constant term 1
    for low in product(range(1, p), *[range(p)] * (f - 1)):
        cand = low + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _element_order_ok(code: int, qq: int, modulus: tuple[int, ...],
                      p: int, f: int, qq_factors: list[int]) -> bool:
    poly = _code_to_poly(code, p, f)
    one = tuple([1] + [0] * (f - 1))
    for r in qq_factors:
        if _poly_powmod(poly, qq // r, modulus, p) == one:
            return False
    return True


def build_field(q: int, *, max_q: int = DEFAULT_MAX_Q) -> FieldTable:
    """Construct the canonical FieldTable for a prime power q."""
    if q > max_q:
        raise ValueError(f"q={q} exceeds the configured cap {max_q}")
    p, f = _prime_power(q)
    modulus = _find_modulus(p, f)
    qq = q - 1

    if qq == 1:
        exp = (1,)
        gen_code = 1
    else:
        qq_factors = _prime_factors(qq)
        gen_code = 0
        for cand in range(2, q):
            if _element_order_ok(cand, qq, modulus, p, f, qq_factors):
                gen_code = cand
                break
        assert gen_code, "no generator found"
        exp = _exp_table(gen_code, modulus, p, f, qq)

    trace = _linear_trace([_basis_trace(i, modulus, p) for i in range(f)], p)
    return FieldTable(q, p, f, modulus, exp, _log_table(exp, q), trace)


def _log_table(exp: tuple[int, ...], q: int) -> tuple[int, ...]:
    """The inverse of exp on the units, with log 0 = -1."""
    log_list = [_LOG_SENTINEL] * q
    for k, code in enumerate(exp):
        log_list[code] = k
    assert log_list.count(_LOG_SENTINEL) == 1, "generator order too small"
    log_list[0] = -1
    return tuple(log_list)


def _exp_table(gen_code: int, modulus: tuple[int, ...], p: int, f: int,
               qq: int) -> tuple[int, ...]:
    """exp[k] = g^k as codes, k < q - 1, one multiply-by-g step per power.

    For f > 1, cur * g is the sum over the nonzero digits g_k of
    g_k * x^k * cur, where x^k * cur comes from x^(k'-1) * cur for the
    previous digit by shift-and-reduce steps (x^f = -sum modulus[j] x^j,
    the modulus being monic): O(f * (deg g + 1)) per power, with no
    general polynomial product.
    """
    if f == 1:
        exp_list = [1]
        cur = 1
        for _ in range(qq - 1):
            cur = cur * gen_code % p
            exp_list.append(cur)
        return tuple(exp_list)
    terms = [(k, c) for k, c in enumerate(_code_to_poly(gen_code, p, f))
             if c]
    red = [-m % p for m in modulus[:f]]
    weights = [p**i for i in range(f)]
    exp_list = [1]
    cur = [1] + [0] * (f - 1)
    for _ in range(qq - 1):
        acc = None
        shifted = cur
        pos = 0
        for k, c in terms:
            for _ in range(k - pos):
                top = shifted[-1]
                shifted = [0] + shifted[:-1]
                if top:
                    shifted = [(a + top * r) % p
                               for a, r in zip(shifted, red)]
            pos = k
            term = shifted if c == 1 else [c * b for b in shifted]
            acc = term if acc is None else [a + b for a, b in zip(acc, term)]
        cur = [a % p for a in acc]
        exp_list.append(sum(map(mul, cur, weights)))
    return tuple(exp_list)


def _basis_trace(i: int, modulus: tuple[int, ...], p: int) -> int:
    """Tr(x^i) = sum_j (x^i)^(p^j) mod the modulus, an element of F_p."""
    f = len(modulus) - 1
    cur = tuple(1 if j == i else 0 for j in range(f))
    acc = [0] * f
    for _ in range(f):
        acc = [(s + c) % p for s, c in zip(acc, cur)]
        cur = _poly_powmod(cur, p, modulus, p)
    assert not any(acc[1:]), "trace landed outside the prime field"
    return acc[0]


def _linear_trace(basis: list[int], p: int) -> tuple[int, ...]:
    """The trace table from Tr(x^i), i < f: Tr(c) = sum_i digit_i(c) Tr(x^i)."""
    trace = [0]
    for t in basis:
        trace = [(e + d * t) % p for d in range(p) for e in trace]
    return tuple(trace)


def with_generator(table: FieldTable, gen_code: int) -> FieldTable:
    """Rebuild the tables over the same modulus with another generator.

    Exists for the independence checks: defined-over-Q results must not
    depend on which primitive element realizes omega.
    """
    qq = table.q - 1
    k = table.log_table[gen_code] if gen_code else -1
    if gen_code == 0 or gcd(k, qq) != 1:
        raise ValueError(f"code {gen_code} is not a primitive element")
    exp = _exp_table(gen_code, table.modulus, table.p, table.f, qq)
    return FieldTable(table.q, table.p, table.f, table.modulus, exp,
                      _log_table(exp, table.q), table.trace_table)


# -- on-disk cache -----------------------------------------------------------
#
# Layout (little-endian u32 throughout, after the 5-byte magic):
#   q, p, f, modulus digits (f+1), exp table (q-1), log table (q, with
#   0xFFFFFFFF for log 0), trace table (q).

def cache_path(directory: str, q: int) -> str:
    return os.path.join(directory, f"hqft-{q}.tbl")


def save_field(table: FieldTable, directory: str) -> str:
    """Write the table atomically: concurrent writers of the same q (pool
    workers) each replace the file whole, and a failed write leaves none."""
    os.makedirs(directory, exist_ok=True)
    path = cache_path(directory, table.q)
    words = [table.q, table.p, table.f]
    words += list(table.modulus)
    words += list(table.exp_table)
    words += [_LOG_SENTINEL if v < 0 else v for v in table.log_table]
    words += list(table.trace_table)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC + struct.pack(f"<{len(words)}I", *words))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


def load_field(path: str) -> FieldTable:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CacheFormatError(str(exc)) from exc
    if blob[:5] != _MAGIC:
        raise CacheFormatError(f"{path}: bad magic")
    body = blob[5:]
    if len(body) % 4:
        raise CacheFormatError(f"{path}: truncated")
    words = struct.unpack(f"<{len(body) // 4}I", body)
    if len(words) < 3:
        raise CacheFormatError(f"{path}: header missing")
    q, p, f = words[0], words[1], words[2]
    expect = 3 + (f + 1) + (q - 1) + q + q
    if len(words) != expect or f < 1 or p**f != q or _prime_factors(p) != [p]:
        raise CacheFormatError(f"{path}: inconsistent header")
    pos = 3
    modulus = words[pos:pos + f + 1]
    pos += f + 1
    exp = words[pos:pos + q - 1]
    pos += q - 1
    log = tuple(-1 if v == _LOG_SENTINEL else v for v in words[pos:pos + q])
    pos += q
    trace = words[pos:pos + q]
    # O(q) checks, so that a damaged file is rebuilt rather than trusted:
    # the modulus is monic and irreducible, exp is a bijection onto the
    # nonzero codes starting at 1, log inverts it, and trace is additive.
    if (modulus[f] != 1 or max(modulus) >= p
            or not _is_irreducible(modulus, p) or exp[0] != 1 or log[0] != -1
            or max(exp) >= q
            or [log[c] for c in exp] != list(range(q - 1))
            or not _is_additive_trace(trace, p, f)):
        raise CacheFormatError(f"{path}: tables are inconsistent")
    return FieldTable(q, p, f, tuple(modulus), tuple(exp), log, tuple(trace))


def _is_additive_trace(trace: tuple[int, ...], p: int, f: int) -> bool:
    """trace[c] = sum_i digit_i(c) * trace[p^i] mod p, and Tr(1) = f."""
    return (trace[1] == f % p
            and _linear_trace([trace[p**i] for i in range(f)], p) == trace)


def build_field_cached(q: int, directory: str, *,
                       max_q: int = DEFAULT_MAX_Q) -> FieldTable:
    path = cache_path(directory, q)
    if q <= max_q and os.path.exists(path):  # else build_field raises
        try:
            return load_field(path)
        except CacheFormatError:
            pass  # fall through and rebuild
    table = build_field(q, max_q=max_q)
    save_field(table, directory)
    return table
