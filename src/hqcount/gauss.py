"""Gauss sums, Jacobi sums, and division-free Gauss-sum products.

Gauss sums g(m) live in Q(zeta_N) with N = p(q-1); we pin the embedding
zeta_{q-1} = zeta_N^p and zeta_p = zeta_N^{q-1}.  Inverses are never
computed by field division: the reflection g(m)g(-m) = omega(-1)^m q
rewrites 1/g(m) with denominators confined to powers of q.

Balanced products (sum of the character exponents divisible by q-1) are
the workhorse of every closed formula downstream.  They are evaluated by
telescoping through Jacobi sums,

    g(a)g(b) = J(a, b) g(a+b),

which keeps all intermediates inside Z[zeta_{q-1}] -- short integer
vectors of length q-1 -- instead of the much larger Q(zeta_N).  The
Jacobi sums themselves come from the three-case evaluation (direct
summation in the generic case), so no floating point and no division
ever occurs.

Two engines share that telescoping (``_telescope``).  ``balanced_product``
multiplies the Jacobi vectors in the group ring; it serves the general
definition, Greene's form and Hasse-Davenport, whose values need not be
rational, and it is the oracle the modular engine is tested against.
``GaussTable.fourier_table`` evaluates the over-Q Fourier sums, whose
values are integers, as scalars modulo a proven modulus: O(q) per value
once the per-m table exists, so a full t-sweep costs O(q^2).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd
from operator import itemgetter, mul

from .cyclo import CycloNum, divisors, root_of_unity
from .errors import BadDivisor, NotRational
from .field import FieldTable

# Miller-Rabin with the first 13 prime bases is deterministic below
# _MR_LIMIT (Sorenson and Webster, 2015); moduli use primes below 2^81.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_PRIME_CEILING = 2**81


def convolve_ring(u: list[int], v: list[int] | tuple[int, ...],
                  qq: int) -> list[int]:
    """Cyclic convolution in the group ring Z[Z_{qq}], sparse-aware.

    A factor with one nonzero c at i (the special-case Jacobi sums) is
    c zeta^i: the product is one sliced rotation of the other factor.
    Otherwise the nonzeros are multiplied pairwise, which on the
    telescoped Jacobi products is faster than one rotation per nonzero.
    """
    if u.count(0) < v.count(0):
        u, v = v, u  # u is the sparser factor
    nonzero = list(compress(range(qq), u))
    if len(nonzero) == 1:
        i = nonzero[0]
        c = u[i]
        return [c * x for x in v[qq - i:] + v[:qq - i]]
    out = [0] * qq
    vnz = [(j, cj) for j, cj in enumerate(v) if cj]
    for i in nonzero:
        ci = u[i]
        for j, cj in vnz:
            k = i + j
            if k >= qq:
                k -= qq
            out[k] += ci * cj
    return out


def add_rotated(acc: list, vec: list[int] | tuple[int, ...], shift: int,
                weight=1) -> None:
    """acc += weight * zeta^shift * vec, in place, by one sliced rotation."""
    cut = -shift % len(acc)
    acc[:] = [a + weight * c for a, c in zip(acc, vec[cut:] + vec[:cut])]


def _pair_key(m: int, n: int, qq: int) -> tuple[int, int]:
    """The memo key of J(m, n) = J(n, m): both reduced mod q-1, sorted."""
    m %= qq
    n %= qq
    return (m, n) if m <= n else (n, m)


def _telescope(exps) -> list[tuple[int, int]]:
    """Jacobi pairs of g(e_0)...g(e_k) = -prod_i J(e_0+...+e_{i-1}, e_i).

    Valid for balanced exponents, whose last factor is g(0) = -1.  The
    pairs are linear in the exponents: those of (c m) are those of c
    scaled by m, which is how both engines see the same telescoping.
    """
    pairs = []
    run = exps[0]
    for e in exps[1:]:
        pairs.append((run, e))
        run += e
    return pairs


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} exceeds the deterministic Miller-Rabin range")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _root_prime(n: int, below: int) -> tuple[int, int]:
    """The largest prime ell < below with ell = 1 mod n, and an element of
    exact multiplicative order n modulo ell."""
    ell = (below - 2) // n * n + 1
    while not _is_prime(ell):
        ell -= n
    primes = [d for d in divisors(n) if len(divisors(d)) == 2]
    x = 2
    while True:
        root = pow(x, (ell - 1) // n, ell)
        if all(pow(root, n // r, ell) != 1 for r in primes):
            return ell, root
        x += 1


def _modulus(n: int, bound: int) -> tuple[int, int]:
    """A modulus ell > 2 bound and a root w of Phi_n modulo ell.

    ell is a product of distinct primes p = 1 mod n, each below 2^81 and
    so proven prime by ``_is_prime``.  Modulo each p the chosen element
    has exact order n, so it is a root of Phi_n (x^n - 1 splits into the
    Phi_d over the field F_p, and a root of Phi_d with d < n would have
    order d); the CRT-combined w is then a root of Phi_n modulo ell.
    """
    ell, root, below = 1, 0, _PRIME_CEILING
    while ell <= 2 * bound:
        p, w = _root_prime(n, below)
        root += ell * ((w - root) * pow(ell, -1, p) % p)
        ell *= p
        below = p
    return ell, root


@lru_cache(maxsize=None)
def _unit_generators(n: int) -> tuple[int, ...]:
    """A generating set of (Z/n)^x, chosen greedily."""
    gens: list[int] = []
    reached = {1 % n}
    for g in range(2, n):
        if gcd(g, n) != 1 or g in reached:
            continue
        gens.append(g)
        grown, power = set(reached), g
        while power not in reached:       # add the cosets H g^k
            grown |= {h * power % n for h in reached}
            power = power * g % n
        reached = grown
    return tuple(gens)


class FourierTable:
    """The per-m scalars of one over-Q Fourier sum, modulo ``modulus``.

    ``bound`` bounds |every value| and 2 bound < modulus; ``powers`` holds
    w^k mod modulus for k < q-1; ``coeffs`` holds w(m) V_m(w) mod modulus,
    aligned with ``ms``.
    """

    __slots__ = ("ms", "modulus", "bound", "powers", "coeffs")

    def __init__(self, ms: range, modulus: int, bound: int,
                 powers: tuple[int, ...], coeffs: tuple[int, ...]):
        self.ms = ms
        self.modulus = modulus
        self.bound = bound
        self.powers = powers
        self.coeffs = coeffs

    def value(self, shift: int) -> int:
        """The exact integer sum over m of w(m) zeta^{shift m} V_m."""
        n = len(self.powers)
        pw = self.powers
        total = sum(map(mul, self.coeffs,
                        [pw[shift * m % n] for m in self.ms])) % self.modulus
        return total - self.modulus if 2 * total > self.modulus else total


class GaussTable:
    """Memoized Gauss and Jacobi sums for one field and one psi_q.

    ``psi_scale`` rescales the additive character to x -> zeta_p^tr(cx);
    the default c = 1 is the fixed character of the package.  Gauss sums,
    Jacobi vectors and the per-m tables of both engines are computed on
    first use and memoized.  A table belongs to
    one process and is not synchronized: the verification pool is made of
    processes, each with its own tables.
    """

    def __init__(self, field: FieldTable, psi_scale: int = 1):
        if psi_scale == 0:
            raise ValueError("psi_scale must be a nonzero element code")
        self.field = field
        self.psi_scale = psi_scale
        self.N = field.p * (field.q - 1)
        self._gauss: dict[int, CycloNum] = {}
        self._jac: dict[tuple[int, int], tuple[int, ...]] = {}
        # (log(1 - x), log x) for x != 0, 1: the terms of a generic J(m, n)
        log = field.log_table
        self._jac_logs = [(log[field.sub(1, x)], log[x])
                          for x in range(2, field.q)]
        self._fourier: dict[tuple, FourierTable] = {}
        # h_general's per-m vectors, keyed by the integral (a, b) exponents;
        # filled by hyper._general_mtable
        self.general_mtables: dict[tuple, tuple] = {}

    def __repr__(self):
        return f"GaussTable(q={self.field.q}, N={self.N})"

    # -- Gauss sums in Q(zeta_N) -----------------------------------------

    def gauss_sum(self, m: int) -> CycloNum:
        """g(m) = sum over x != 0 of omega(x)^m psi_q(x)."""
        F = self.field
        qq = F.q - 1
        key = m % qq
        got = self._gauss.get(key)
        if got is not None:
            return got
        N = self.N
        coeffs = [0] * N
        for k in range(qq):
            x = F.exp_table[k]
            tr = F.trace_table[F.mul(self.psi_scale, x)]
            coeffs[(F.p * key * k + qq * tr) % N] += 1
        value = CycloNum(N, coeffs)
        self._gauss[key] = value
        return value

    def gauss_inverse(self, m: int) -> CycloNum:
        """1/g(m) via the reflection formula; exact, division-free."""
        F = self.field
        qq = F.q - 1
        if m % qq == 0:
            return CycloNum.const(self.N, -1)  # g(0) = -1 is self-inverse
        twist = root_of_unity(self.N, F.p * m * F.log_minus_one())
        return twist * self.gauss_sum(-m) / F.q

    def jacobi_sum(self, m: int, n: int) -> CycloNum:
        """J(m, n) = g(m) g(n) / g(m+n), computed via gauss_inverse."""
        return self.gauss_sum(m) * self.gauss_sum(n) * self.gauss_inverse(m + n)

    # -- the group-ring engine in Z[zeta_{q-1}] ----------------------------

    def jacobi_vec(self, m: int, n: int) -> tuple[int, ...]:
        """J(m, n) by the three-case evaluation, in Z[zeta_{q-1}].

        Case split: -1 when m or n vanishes mod q-1; -omega(-1)^m q when
        n = -m (the sign comes from dividing by g(0) = -1); otherwise the
        direct sum over x != 0, 1 of omega(1-x)^m omega(x)^n.
        """
        F = self.field
        qq = F.q - 1
        key = _pair_key(m, n, qq)
        got = self._jac.get(key)
        if got is not None:
            return got
        m, n = key
        vec = [0] * qq
        if m == 0:
            vec[0] = -1
        elif (m + n) % qq == 0:
            vec[(m * F.log_minus_one()) % qq] = -F.q
        else:
            for l1, l2 in self._jac_logs:
                vec[(m * l1 + n * l2) % qq] += 1
        out = tuple(vec)
        self._jac[key] = out
        return out

    def balanced_product(self, exps: list[int]) -> list[int]:
        """Product of g(e) over e in exps, with sum(exps) = 0 mod q-1.

        The balance condition puts the value in Z[zeta_{q-1}]; the result
        is its length-(q-1) integer coefficient vector.
        """
        qq = self.field.q - 1
        if sum(exps) % qq:
            raise ValueError("exponents do not balance mod q-1")
        if not exps:
            vec = [0] * qq
            vec[0] = 1
            return vec
        if len(exps) == 1:
            vec = [0] * qq
            vec[0] = -1  # single factor is g(0)
            return vec
        acc: list[int] | None = None
        for a, b in _telescope(exps):
            jv = self.jacobi_vec(a, b)
            acc = list(jv) if acc is None else convolve_ring(acc, jv, qq)
        return [-c for c in acc]

    # -- the modular engine for over-Q Fourier sums ------------------------

    def fourier_table(self, mults: tuple[int, ...], ms: range,
                      weighted: bool) -> FourierTable:
        """Per-m scalars of S(L) = sum over m in ms of w(m) zeta^{Lm} V_m.

        V_m = -prod_i J(A_i m, B_i m) is the balanced product of g(c m)
        over the multipliers c in ``mults`` (which sum to 0), telescoped
        as in ``balanced_product``.  ``ms`` is all m, the multiples of a
        step, or m != 0 (a range mod q-1).  With ``weighted``,
        w(m) = q^{s(m)}, s(m) being the smaller of the numbers of positive
        and of negative c with c m = 0 mod q-1; otherwise w(m) = 1.  The
        table is memoized per (mults, ms, weighted); each value is then
        O(q).

        Exactness, with no floating point and no probabilistic step:

        1. Rationality, checked exactly.  Each J(a, b) is its exact
           integer vector in Z[zeta_{q-1}].  For every generator g of
           (Z/(q-1))^x and every pair used, permuting the entries of
           J(a, b) by i -> g i must give J(ga, gb); ms and w must be
           stable under m -> g m.  Then sigma_g (zeta -> zeta^g) maps
           V_m to V_{gm} and the term of m to the term of g m, so S(L) is
           fixed by sigma_g.  These automorphisms compose, so S(L) is fixed
           by every sigma_k: it is rational, hence (being an algebraic
           integer) an integer.  A failed check raises NotRational.
        2. Lifting the value.  B = sum over m of w(m) prod_i ||J_i||_1,
           computed exactly from the vectors, bounds |S(L)| under every
           complex embedding, hence bounds the integer.  ``_modulus``
           gives ell > 2B, a product of proven primes, and a root w of
           Phi_{q-1} modulo ell, so zeta -> w is a ring homomorphism
           Z[zeta_{q-1}] -> Z/ell.  S(L) mod ell, lifted to the symmetric
           interval (-ell/2, ell/2], is therefore S(L) itself.
        """
        key = (mults, ms, weighted)
        got = self._fourier.get(key)
        if got is None:
            got = self._fourier[key] = self._build_fourier(mults, ms,
                                                           weighted)
        return got

    def _build_fourier(self, mults: tuple[int, ...], ms: range,
                       weighted: bool) -> FourierTable:
        F = self.field
        qq = F.q - 1
        if not mults or sum(mults):
            raise ValueError("multipliers must be nonempty and sum to 0")
        pairs = _telescope(mults)
        weights = {}
        for m in ms:
            if weighted:
                pos = sum(1 for c in mults if c > 0 and c * m % qq == 0)
                neg = sum(1 for c in mults if c < 0 and c * m % qq == 0)
                weights[m] = F.q ** min(pos, neg)
            else:
                weights[m] = 1

        vecs: dict[tuple[int, int], tuple[int, ...]] = {}
        norms: dict[tuple[int, int], int] = {}
        rows = []
        bound = 0
        for m in ms:
            keys = [_pair_key(a * m, b * m, qq) for a, b in pairs]
            size = weights[m]
            for key in keys:
                if key not in vecs:
                    vecs[key] = self.jacobi_vec(*key)
                    norms[key] = sum(map(abs, vecs[key]))
                size *= norms[key]
            bound += size
            rows.append(keys)

        for g in _unit_generators(qq):
            for m in ms:
                if weights.get(g * m % qq) != weights[m]:
                    raise NotRational(
                        f"m-set or weights not stable under the unit {g}")
            ginv = pow(g, -1, qq)
            permute = itemgetter(*[ginv * i % qq for i in range(qq)])
            for (a, b), vec in vecs.items():
                image = vecs.get(_pair_key(g * a, g * b, qq))
                if image is None or permute(vec) != image:
                    raise NotRational(
                        f"sigma_{g} J({a},{b}) != J({g * a},{g * b}) "
                        f"mod {qq}", residual=vec)

        ell, root = _modulus(qq, bound)
        powers = []
        x = 1 % ell
        for _ in range(qq):
            powers.append(x)
            x = x * root % ell
        evals = {key: sum(map(mul, vec, powers)) % ell
                 for key, vec in vecs.items()}
        coeffs = []
        for m, keys in zip(ms, rows):
            c = -weights[m]
            for key in keys:
                c = c * evals[key] % ell
            coeffs.append(c % ell)
        return FourierTable(ms, ell, bound, tuple(powers), tuple(coeffs))


_TABLES: dict[tuple[FieldTable, int], GaussTable] = {}


def table_for(field: FieldTable, psi_scale: int = 1) -> GaussTable:
    """The process's shared GaussTable for a field and psi_q.

    One table lives at a time: asking for another field (or psi_scale)
    drops the previous table, with its Jacobi vectors and m-tables, so a
    process that walks many fields holds one field's memo, not all of
    them.  A caller that keeps the old table keeps it alive and usable.
    """
    key = (field, psi_scale)
    got = _TABLES.get(key)
    if got is None:
        _TABLES.clear()
        got = _TABLES[key] = GaussTable(field, psi_scale)
    return got


def gauss_sum(table: GaussTable, m: int) -> CycloNum:
    return table.gauss_sum(m)


def gauss_inverse(table: GaussTable, m: int) -> CycloNum:
    return table.gauss_inverse(m)


def jacobi_sum(table: GaussTable, m: int, n: int) -> CycloNum:
    return table.jacobi_sum(m, n)


def hasse_davenport_defect(table: GaussTable, n_div: int, m: int) -> CycloNum:
    """g(Nm) minus the Hasse-Davenport product; zero when the relation holds.

    The quotient product is telescoped through Jacobi sums so that all
    intermediates stay in Q(zeta_{q-1}); only the final comparison with
    g(Nm) returns to Q(zeta_N).
    """
    F = table.field
    qq = F.q - 1
    if n_div < 1 or qq % n_div:
        raise BadDivisor(f"{n_div} does not divide q-1 = {qq}")
    c = qq // n_div
    lm1 = F.log_minus_one()

    # A_k tracks prod_{j<=k} g(m + j c)/g(j c) divided by g((k+1) m),
    # an element of q^{-k} Z[zeta_{q-1}].  A_0 = -1 comes from 1/g(0).
    acc = [0] * qq
    acc[0] = -1
    for k in range(1, n_div):
        acc = convolve_ring(acc, table.jacobi_vec(m + k * c, -k * c), qq)
        acc = convolve_ring(acc, table.jacobi_vec(k * m, m), qq)
        shift = (k * c * lm1) % qq
        if shift:
            rot = [0] * qq
            add_rotated(rot, acc, shift)
            acc = rot

    n_elt = F.element(n_div)
    shift = (n_div * m * F.log_table[n_elt]) % qq
    bracket = [0] * qq
    add_rotated(bracket, acc, shift)
    bracket[0] += F.q ** (n_div - 1)  # the "1 +" term, cleared of q powers

    lifted = CycloNum(qq, bracket).embed(table.N)
    return lifted * table.gauss_sum(n_div * m) / F.q ** (n_div - 1)


def stickelberger_sigma(p: int, f: int, r: int) -> int:
    """Digit-sum valuation exponent sigma(r) for g(r).

    Evaluated through the fractional-part form (p-1) sum_i {p^i r/(q-1)},
    which agrees with the base-p digit sum on 0 <= r < q-1 and extends it
    periodically.
    """
    qq = p**f - 1
    if qq == 1:
        return 0
    r %= qq
    total = Fraction(0)
    for i in range(1, f + 1):
        total += Fraction((pow(p, i, qq) * r) % qq, qq)
    total *= p - 1
    assert total.denominator == 1
    return int(total)
