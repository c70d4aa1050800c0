"""Finite hypergeometric sums H_q, S_q and their parameter bookkeeping.

Two parameter forms coexist.  ``HGParams`` is the raw (alpha, beta) pair
of rational multisets, disjoint mod Z, usable whenever (q-1)alpha_i and
(q-1)beta_j are integers.  ``CyclotomicData`` is the defined-over-Q form:
exponent lists (p_1..p_r), (q_1..q_s) with equal sums and overall gcd 1,
realizing prod (x^{p_i}-1) / prod (x^{q_j}-1) = prod (x - e^{2 pi i a}) /
prod (x - e^{2 pi i b}).  The over-Q evaluation h_over_q works for every
prime power q coprime to the exponents, including q not congruent to
1 mod the denominator lcm, and always reduces to an exact rational.

Every m-th Fourier coefficient used here is a balanced product of Gauss
sums, telescoped through Jacobi sums.  The general definition assembles
them as short integer vectors in Z[zeta_{q-1}] (gauss.balanced_product),
since its values need not be rational.  The over-Q form is an integer
sum, evaluated by the exact modular engine (gauss.GaussTable.fourier_table):
a value depends on t only through the shift log(u) in zeta^{log(u) m},
so once the per-m scalar table exists each t costs O(q).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .cyclo import CycloNum, divisors, euler_phi, root_of_unity
from .errors import (BadFieldForParams, CharacteristicClash,
                     DegenerateCancellation, NotCoprime, NotDefinedOverQ,
                     UnbalancedDegrees, ZeroArgument)
from .field import FieldTable
from .gauss import (FourierTable, GaussTable, add_rotated, convolve_ring,
                    table_for)


def _normalize(value: Fraction | int | str) -> Fraction:
    return Fraction(value) % 1


@dataclass(frozen=True)
class HGParams:
    """Hypergeometric parameter multisets alpha, beta in [0, 1).

    The class 1 mod Z is stored as 0 and rendered as "1".  The multisets
    must have equal size and be disjoint mod Z.
    """

    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]

    @staticmethod
    def of(alpha, beta) -> HGParams:
        a = tuple(sorted(_normalize(x) for x in alpha))
        b = tuple(sorted(_normalize(x) for x in beta))
        if not a or len(a) != len(b):
            raise ValueError("alpha and beta must be nonempty, equal-size")
        if set(a) & set(b):
            raise ValueError("alpha and beta must be disjoint mod Z")
        return HGParams(a, b)

    @property
    def d(self) -> int:
        return len(self.alpha)

    @property
    def n_den(self) -> int:
        return lcm(*(x.denominator for x in self.alpha + self.beta))

    def shifted(self, mu) -> HGParams:
        mu = Fraction(mu)
        return HGParams.of([a + mu for a in self.alpha],
                           [b + mu for b in self.beta])

    def swapped_negated(self) -> HGParams:
        """(-beta, -alpha): the parameter set of S_q(...|1/t)."""
        return HGParams.of([-b for b in self.beta],
                           [-a for a in self.alpha])

    @staticmethod
    def _render(values: tuple[Fraction, ...]) -> str:
        return ",".join("1" if v == 0 else str(v) for v in values)

    def describe(self) -> str:
        return f"alpha={self._render(self.alpha)} beta={self._render(self.beta)}"


@dataclass(frozen=True)
class CyclotomicData:
    """Defined-over-Q datum: exponent lists plus derived quantities."""

    p_list: tuple[int, ...]
    q_list: tuple[int, ...]
    m_scale: Fraction                       # M = prod p^p / prod q^q
    epsilon: int                            # (-1)^(sum q_j)
    d_mult: tuple[tuple[int, int], ...]     # multiplicity of Phi_e in D(X)
    params: HGParams

    @property
    def r(self) -> int:
        return len(self.p_list)

    @property
    def s(self) -> int:
        return len(self.q_list)

    @property
    def multipliers(self) -> tuple[int, ...]:
        """(p_1, ..., p_r, -q_1, ..., -q_s): the m-th Fourier coefficient
        is the balanced product of g(c m) over these c."""
        return self.p_list + tuple(-v for v in self.q_list)

    def describe(self) -> str:
        p = ",".join(str(v) for v in self.p_list)
        q = ",".join(str(v) for v in self.q_list)
        return (f"p={p} q={q} {self.params.describe()} "
                f"M={self.m_scale} eps={self.epsilon:+d} d={self.params.d}")


class Provenance(str, Enum):
    GENERAL = "GeneralDefinition"
    OVER_Q = "OverQFormula"
    POINT_COUNT = "PointCount"


@dataclass(frozen=True)
class HValue:
    """An exact rational H_q value with its p-adic valuation."""

    value: Fraction
    q: int
    provenance: Provenance
    p_valuation: int | None


def p_valuation(value: Fraction, p: int) -> int | None:
    """v_p of a rational; None for 0 (infinite valuation)."""
    if value == 0:
        return None
    num, den, v = value.numerator, value.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# -- parameter conversions ----------------------------------------------------

def _cyclo_mults(values: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for v in values:
        for e in divisors(v):
            out[e] = out.get(e, 0) + 1
    return out


def params_from_cyclotomic(p_list, q_list) -> CyclotomicData:
    """Expand prod(x^p - 1)/prod(x^q - 1) into (alpha, beta) and friends."""
    ps = tuple(sorted((int(v) for v in p_list), reverse=True))
    qs = tuple(sorted((int(v) for v in q_list), reverse=True))
    if not ps or not qs or min(ps) < 1 or min(qs) < 1:
        raise ValueError("exponent lists must be nonempty positive integers")
    if sum(ps) != sum(qs):
        raise UnbalancedDegrees(f"sum p = {sum(ps)} != sum q = {sum(qs)}")

    num, den = _cyclo_mults(ps), _cyclo_mults(qs)
    shared = sorted(set(num) | set(den))
    d_mult = tuple((e, min(num.get(e, 0), den.get(e, 0))) for e in shared
                   if min(num.get(e, 0), den.get(e, 0)) > 0)
    cancel = dict(d_mult)

    def survivors(mults: dict[int, int]) -> list[Fraction]:
        out = []
        for e, mult in mults.items():
            mult -= cancel.get(e, 0)
            if mult <= 0:
                continue
            fracs = [Fraction(a, e) % 1 for a in range(1, e + 1)
                     if gcd(a, e) == 1]
            out.extend(fracs * mult)
        return out

    alpha, beta = survivors(num), survivors(den)
    if not alpha or not beta:
        raise DegenerateCancellation("cancellation leaves no parameters")
    if gcd(*ps, *qs) != 1:
        raise NotCoprime(f"gcd of {ps + qs} exceeds 1")
    m_scale = Fraction(1)
    for v in ps:
        m_scale *= Fraction(v) ** v
    for v in qs:
        m_scale /= Fraction(v) ** v
    epsilon = -1 if sum(qs) % 2 else 1
    return CyclotomicData(ps, qs, m_scale, epsilon, d_mult,
                          HGParams.of(alpha, beta))


def cyclotomic_from_params(alpha, beta) -> CyclotomicData:
    """Find (p, q)-lists for Galois-stable alpha, beta (minimal sum p).

    Peeling runs from the largest denominator down; common factors could
    always be inserted on both sides, so the choice is canonical only up
    to that and is documented in rendered output.
    """
    params = alpha if isinstance(alpha, HGParams) else HGParams.of(alpha, beta)

    def orbit_mults(values: tuple[Fraction, ...]) -> dict[int, int]:
        counts: dict[int, dict[Fraction, int]] = {}
        for v in values:
            e = v.denominator if v else 1
            counts.setdefault(e, {}).setdefault(v, 0)
            counts[e][v] += 1
        out = {}
        for e, residues in counts.items():
            mults = set(residues.values())
            if len(residues) != euler_phi(e) or len(mults) != 1:
                raise NotDefinedOverQ(
                    f"residues mod {e} do not form full Galois orbits")
            out[e] = mults.pop()
        return out

    residual = {e: m for e, m in orbit_mults(params.alpha).items()}
    for e, m in orbit_mults(params.beta).items():
        residual[e] = residual.get(e, 0) - m

    p_list: list[int] = []
    q_list: list[int] = []
    while True:
        live = [e for e, m in residual.items() if m]
        if not live:
            break
        e = max(live)
        count = residual[e]
        target = p_list if count > 0 else q_list
        target.extend([e] * abs(count))
        for d in divisors(e):
            residual[d] = residual.get(d, 0) - count

    data = params_from_cyclotomic(p_list, q_list)
    assert data.params == params, "round-trip through cancellation failed"
    return data


def s_multiplicity(data: CyclotomicData, m: int, q: int) -> int:
    """min(|I(m)|, |J(m)|): multiplicity of e^{2 pi i m/(q-1)} in D(X)."""
    qq = q - 1
    if qq == 0:
        raise ValueError("q must exceed 1")
    i_count = sum(1 for v in data.p_list if (v * m) % qq == 0)
    j_count = sum(1 for v in data.q_list if (v * m) % qq == 0)
    return min(i_count, j_count)


def landau_bound(data, mode: str) -> Fraction:
    """Denominator exponents from the Landau function.

    mode "overQ" (CyclotomicData): min over the open plateaus of
    sum {p_i x} + sum {-q_j x}; q^{min(r,s) - lambda} H_q is an integer.
    mode "general" (HGParams): -min over x and k coprime to the common
    denominator of the shifted fractional-part sum; q^lambda H_q is an
    algebraic integer.  The functions are piecewise constant, so plateau
    minima come from midpoint evaluation; the general mode additionally
    samples the breakpoints themselves (pointwise dips matter there).
    """
    if mode == "overQ":
        if not isinstance(data, CyclotomicData):
            raise TypeError("overQ mode expects CyclotomicData")
        big_l = lcm(*data.p_list, *data.q_list)
        best = None
        for k in range(big_l):
            x = Fraction(2 * k + 1, 2 * big_l)
            val = sum((v * x) % 1 for v in data.p_list) \
                + sum((-v * x) % 1 for v in data.q_list)
            if best is None or val < best:
                best = val
        return best
    if mode == "general":
        params = data.params if isinstance(data, CyclotomicData) else data
        den = params.n_den
        points = [Fraction(j, den) for j in range(den + 1)]
        points += [Fraction(2 * j + 1, 2 * den) for j in range(den)]
        best = None
        for k in range(1, den + 1):
            if gcd(k, den) != 1:
                continue
            ka = [k * a for a in params.alpha]
            kb = [k * b for b in params.beta]
            base = sum((a % 1) for a in ka) + sum((-b % 1) for b in kb)
            for x in points:
                val = sum((x + a) % 1 for a in ka) \
                    + sum((-x - b) % 1 for b in kb) - base
                if best is None or val < best:
                    best = val
        return -best
    raise ValueError(f"unknown landau mode {mode!r}")


# -- shared field/character helpers -------------------------------------------

def _require_nonzero(t: int) -> None:
    if t == 0:
        raise ZeroArgument("H_q is a function on the nonzero elements only")


def _require_integral(F: FieldTable, params: HGParams) -> tuple[list[int], list[int]]:
    qq = F.q - 1
    a_ints, b_ints = [], []
    for a in params.alpha:
        v = a * qq
        if v.denominator != 1:
            raise BadFieldForParams(f"(q-1)*{a} is not an integer for q={F.q}")
        a_ints.append(int(v))
    for b in params.beta:
        v = b * qq
        if v.denominator != 1:
            raise BadFieldForParams(f"(q-1)*{b} is not an integer for q={F.q}")
        b_ints.append(int(v))
    return a_ints, b_ints


def _require_coprime(F: FieldTable, data: CyclotomicData) -> None:
    for v in data.p_list + data.q_list:
        if v % F.p == 0:
            raise CharacteristicClash(
                f"characteristic {F.p} divides exponent {v}")


def fraction_element(F: FieldTable, value: Fraction) -> int:
    """The image of an exact rational in F_q (denominator a unit)."""
    num = F.element(value.numerator)
    den = F.element(value.denominator)
    if den == 0:
        raise CharacteristicClash(
            f"denominator of {value} vanishes in characteristic {F.p}")
    return F.mul(num, F.inv(den))


# -- the sums -----------------------------------------------------------------

def hyp_exponential_sum(F: FieldTable, params: HGParams, t: int) -> CycloNum:
    """Katz's exponential sum over the torus t x_1...x_d = y_1...y_d.

    Pure brute force: every term is one root of unity accumulated into a
    raw coefficient vector.  Intended for small q as the independent
    oracle for s_sum and h_general.
    """
    _require_nonzero(t)
    a_ints, b_ints = _require_integral(F, params)
    d = params.d
    qq = F.q - 1
    n = F.p * qq
    logt = F.log_table[t]
    exp, trace = F.exp_table, F.trace_table
    coeffs = [0] * n
    for logs in product(range(qq), repeat=2 * d - 1):
        xlogs = logs[:d]
        ylogs = list(logs[d:])
        ylogs.append((logt + sum(xlogs) - sum(ylogs)) % qq)
        total = 0
        for lx in xlogs:
            total = F.add(total, exp[lx])
        for ly in ylogs:
            total = F.sub(total, exp[ly])
        wexp = sum(a * lx for a, lx in zip(a_ints, xlogs)) \
            - sum(b * ly for b, ly in zip(b_ints, ylogs))
        coeffs[(F.p * wexp + qq * trace[total]) % n] += 1
    return CycloNum(n, coeffs)


def s_sum(F: FieldTable, params: HGParams, t: int, *,
          table: GaussTable | None = None) -> CycloNum:
    """S_q(alpha, beta | t): the unnormalized Gauss-sum Fourier series."""
    _require_nonzero(t)
    a_ints, b_ints = _require_integral(F, params)
    T = table or table_for(F)
    qq = F.q - 1
    n = T.N
    d = params.d
    arg = t if d % 2 == 0 else F.neg(t)
    log_arg = F.log_table[arg]
    total = CycloNum.zero(n)
    for m in range(qq):
        term = CycloNum.const(n, 1)
        for a in a_ints:
            term = term * T.gauss_sum(m + a)
        for b in b_ints:
            term = term * T.gauss_sum(-m - b)
        total = total + term * root_of_unity(n, F.p * log_arg * m)
    result = total / qq
    assert result.is_algebraic_integer(), "1/(q-1) failed to cancel in S_q"
    return result


def _general_mtable(T: GaussTable, a_key: tuple[int, ...],
                    b_key: tuple[int, ...]) -> tuple:
    """Cached per-m data for h_general: (vectors, shift, sign, qpow)."""
    cache = T.general_mtables
    key = (a_key, b_key)
    got = cache.get(key)
    if got is not None:
        return got
    F = T.field
    qq = F.q - 1
    lm1 = F.log_minus_one()
    extra_exps: list[int] = []
    shift0 = 0
    sign = 1
    qpow = 0
    for a in a_key:
        if a % qq:
            extra_exps.append(-a)
            shift0 += a * lm1
            qpow += 1
        else:
            sign = -sign
    for b in b_key:
        if b % qq:
            extra_exps.append(b)
            shift0 += b * lm1
            qpow += 1
        else:
            sign = -sign
    vecs = []
    for m in range(qq):
        exps = [m + a for a in a_key] + [-m - b for b in b_key] + extra_exps
        vecs.append(T.balanced_product(exps))
    got = (vecs, shift0 % qq, sign, qpow)
    cache[key] = got
    return got


def h_general(F: FieldTable, params: HGParams, t: int, *,
              table: GaussTable | None = None) -> CycloNum:
    """H_q by the normalized definition, for any admissible alpha, beta.

    The normalizing Gauss sums enter through the reflection formula, so
    each m-th coefficient is a balanced product living in Q(zeta_{q-1});
    the returned value has order q-1 and reduces to a rational exactly
    when the parameters are defined over Q.
    """
    _require_nonzero(t)
    a_ints, b_ints = _require_integral(F, params)
    T = table or table_for(F)
    qq = F.q - 1
    vecs, shift0, sign, qpow = _general_mtable(T, tuple(a_ints), tuple(b_ints))
    arg = t if params.d % 2 == 0 else F.neg(t)
    log_arg = F.log_table[arg]
    # the m-th row is zeta^(shift0 + m log_arg) V_m, one sliced rotation;
    # the rows are summed column by column and the sign joins the divisor
    cuts = [-(shift0 + log_arg * m) % qq for m in range(qq)]
    total = CycloNum(qq, map(sum, zip(*[v[c:] + v[:c]
                                        for v, c in zip(vecs, cuts)])))
    total.canonical()  # reduce the int vector; the division carries it
    return total / (sign * (1 - F.q) * F.q**qpow)


def _over_q_mtable(T: GaussTable, data: CyclotomicData) -> FourierTable:
    """The over-Q per-m scalar table: weights q^{s(m)}, every m (memoized)."""
    return T.fourier_table(data.multipliers, range(T.field.q - 1),
                           weighted=True)


def h_over_q(F: FieldTable, data: CyclotomicData, t: int, *,
             table: GaussTable | None = None) -> HValue:
    """H_q via the over-Q rewriting; authoritative for all coprime q.

    Requires gcd(q, p_i) = gcd(q, q_j) = 1 (so M is a unit mod p); valid
    for every such prime power, including q not 1 mod the denominator
    lcm.  The Fourier sum is an integer, computed exactly by the modular
    engine (see gauss.GaussTable.fourier_table for the proof).
    """
    _require_nonzero(t)
    _require_coprime(F, data)
    T = table or table_for(F)
    u = F.mul(fraction_element(F, 1 / data.m_scale), t)
    if data.epsilon < 0:
        u = F.mul(u, F.minus_one)
    total = _over_q_mtable(T, data).value(F.log_table[u])
    s0 = min(data.r, data.s)
    sign = -1 if (data.r + data.s) % 2 else 1
    value = Fraction(sign, 1) * total / ((1 - F.q) * F.q**s0)
    vp = p_valuation(value, F.p)
    assert value.denominator == F.p ** max(0, -(vp or 0)), \
        "H_q denominator is not a power of p"
    return HValue(value, F.q, Provenance.OVER_Q, vp)


def greene_value(F: FieldTable, params: HGParams, t: int, *,
                 table: GaussTable | None = None) -> CycloNum:
    """Greene's normalization: the displayed Jacobi-sum multiple of H_q."""
    T = table or table_for(F)
    qq = F.q - 1
    a_ints, b_ints = _require_integral(F, params)
    h_val = h_general(F, params, t, table=T)
    factor = [0] * qq
    factor[0] = 1
    for a, b in zip(a_ints, b_ints):
        factor = convolve_ring(factor, T.jacobi_vec(a, -b), qq)
    shift = (sum(b_ints) * F.log_minus_one()) % qq
    rotated = [0] * qq
    add_rotated(rotated, factor, shift)
    return CycloNum(qq, rotated) * h_val / F.q**params.d


# -- parameter parsing for the CLI and reports --------------------------------

def parse_fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(part.strip()) for part in text.split(",") if part.strip())


def parse_param_string(text: str) -> HGParams | CyclotomicData:
    """Parse "alpha=1/3,2/3 beta=1,1" or "p=3 q=1,1,1" forms."""
    fields = {}
    for chunk in text.split():
        if "=" not in chunk:
            raise ValueError(f"cannot parse parameter chunk {chunk!r}")
        key, _, val = chunk.partition("=")
        fields[key.strip()] = val.strip()
    if {"alpha", "beta"} <= fields.keys():
        return HGParams.of(parse_fractions(fields["alpha"]),
                           parse_fractions(fields["beta"]))
    if {"p", "q"} <= fields.keys():
        p_list, q_list = (tuple(int(v) for v in fields[key].split(",")
                                if v.strip()) for key in "pq")
        return params_from_cyclotomic(p_list, q_list)
    raise ValueError("expected alpha=/beta= or p=/q= parameter fields")
