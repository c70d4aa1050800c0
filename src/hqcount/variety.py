"""Brute-force point counts and their closed-formula counterparts.

Every operation returns a CountReport holding both sides of one identity:
the brute side is naive enumeration over nonzero coordinates (projective
sets are dehomogenized by pinning one coordinate to 1, which is valid
because all coordinates are constrained nonzero), the formula side is an
exact Gauss-sum evaluation.  Nothing here assumes smoothness; the brute
kernels count whatever the equations define.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product
from math import gcd

from .errors import (BadParameter, BadPartition, CharacteristicClash,
                     MaximalCellHasNoComponent, SingularFiber, ZeroArgument)
from .field import FieldTable
from .gauss import table_for
from .hyper import (CyclotomicData, _require_coprime, fraction_element,
                    h_over_q, params_from_cyclotomic)
from .report import CountReport
from .toric import Cell, cell_gcd, counting_number, enumerate_cells, p_rs


def _elapsed_ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


# -- torus points of V_lambda -------------------------------------------------

def _torus_brute(F: FieldTable, data: CyclotomicData, lam: int) -> int:
    """Count projective solutions with nonzero coordinates of
    sum x_i = sum y_j, lam * prod x^p = prod y^q (last coordinate set to 1).
    """
    q = F.q
    qq = q - 1
    exp, log = F.exp_table, F.log_table
    ps, qs = data.p_list, data.q_list
    r, s = len(ps), len(qs)
    loglam = log[lam]
    count = 0
    if s >= 2:
        det_exp = qs[s - 2]
        for xlogs in product(range(qq), repeat=r):
            sx = 0
            wx = loglam
            for e, lg in zip(ps, xlogs):
                sx = F.add(sx, exp[lg])
                wx += e * lg
            for ylogs in product(range(qq), repeat=s - 2):
                sy = 1  # y_s = 1
                wy = 0
                for e, lg in zip(qs, ylogs):
                    sy = F.add(sy, exp[lg])
                    wy += e * lg
                det = F.sub(sx, sy)  # the eliminated y_{s-1}
                if det == 0:
                    continue
                if (wx - wy - det_exp * log[det]) % qq == 0:
                    count += 1
    else:
        # s = 1: y_1 = 1 pins the scale; the linear equation fixes x_r.
        for xlogs in product(range(qq), repeat=r - 1):
            sx = 0
            w = loglam
            for e, lg in zip(ps, xlogs):
                sx = F.add(sx, exp[lg])
                w += e * lg
            det = F.sub(1, sx)
            if det == 0:
                continue
            if (w + ps[r - 1] * log[det]) % qq == 0:
                count += 1
    return count


def _torus_formula(F: FieldTable, data: CyclotomicData, lam: int) -> Fraction:
    from .toric import delta_sum
    eps_lam = lam if data.epsilon > 0 else F.mul(lam, F.minus_one)
    total = delta_sum(F, data, 0, eps_lam)
    q = F.q
    k = data.r + data.s
    return Fraction((q - 1) ** (k - 2), q) + total / (q * (q - 1))


def torus_count(F: FieldTable, data: CyclotomicData, lam: int) -> CountReport:
    """|V_lambda(F_q^x)|: brute enumeration vs the Gauss-sum formula."""
    if lam == 0:
        raise ZeroArgument("lambda must be nonzero")
    _require_coprime(F, data)
    t0 = time.perf_counter()
    brute = _torus_brute(F, data, lam)
    formula = _torus_formula(F, data, lam)
    label = f"torus p={','.join(map(str, data.p_list))};" \
            f"q={','.join(map(str, data.q_list))}"
    return CountReport.compare(label, F.q, lam, brute, formula,
                               _elapsed_ms(t0))


# -- boundary components W_{C,lambda} -----------------------------------------

def _component_brute(F: FieldTable, data: CyclotomicData, cell: Cell,
                     lam: int) -> int:
    """Count the residual equations with one surviving coordinate at 1,
    then restore the free torus factor (q-1)^(|S|-l-1).
    """
    q = F.q
    qq = q - 1
    exp, log = F.exp_table, F.log_table
    a_s = cell_gcd(data, cell)
    sup_x, sup_y = cell.support_x, cell.support_y
    xs = [i for i in range(1, data.r + 1) if i not in sup_x]
    ys = [j for j in range(1, data.s + 1) if j not in sup_y]
    free_factor = (q - 1) ** (cell.support_size - cell.length - 1)

    # signed residual variables (sign in the linear equation, exponent);
    # sigma is the first missing x-index, else the first missing y-index
    if xs:
        sigma_sign = 1
        rest = [(1, data.p_list[i - 1]) for i in xs[1:]]
        rest += [(-1, data.q_list[j - 1]) for j in ys]
    else:
        sigma_sign = -1
        rest = [(-1, data.q_list[j - 1]) for j in ys[1:]]
    if not rest:
        return 0  # linear equation degenerates to 1 = 0
    det_sign, det_exp = rest[-1]
    free = rest[:-1]

    g0 = gcd(a_s, qq)
    loglam = log[lam]
    count = 0
    for logs in product(range(qq), repeat=len(free)):
        acc = 1 if sigma_sign > 0 else F.minus_one  # sigma's coordinate is 1
        w = loglam  # sigma contributes exponent * log(1) = 0
        for (sign, e), lg in zip(free, logs):
            val = exp[lg]
            acc = F.add(acc, val if sign > 0 else F.neg(val))
            w += e * lg if sign > 0 else -e * lg
        # det variable must cancel the linear sum
        det = F.neg(acc) if det_sign > 0 else acc
        if det == 0:
            continue
        w += det_exp * log[det] if det_sign > 0 else -det_exp * log[det]
        # z ranges over solutions of a_S * log z = -w (mod q-1)
        if w % g0 == 0:
            count += g0
    return count * free_factor


def component_count(F: FieldTable, data: CyclotomicData, cell: Cell,
                    lam: int) -> CountReport:
    """|W_{C,lambda}(F_q^x)| for a nonempty non-maximal cell."""
    if lam == 0:
        raise ZeroArgument("lambda must be nonzero")
    if cell.is_maximal:
        raise MaximalCellHasNoComponent(cell.render())
    if not cell.pairs:
        raise BadParameter("the empty cell is counted by torus_count")
    _require_coprime(F, data)
    t0 = time.perf_counter()
    brute = _component_brute(F, data, cell, lam)
    formula = counting_number(F, data, cell, lam)
    return CountReport.compare(f"component {cell.render()}", F.q, lam,
                               brute, formula, _elapsed_ms(t0))


# -- the completed count -------------------------------------------------------

def brute_counts(F: FieldTable, data: CyclotomicData,
                 lam: int) -> tuple[int, int]:
    """(torus, completed) brute point counts of the fibre at lam.

    The completed count adds to the torus points the components of every
    nonempty cell with |S| <= r + s - 2 (cells at r + s - 1 are
    geometrically absent and their formula value is zero).
    """
    r, s = data.r, data.s
    torus = _torus_brute(F, data, lam)
    completed = torus
    for cell in enumerate_cells(r, s):
        if cell.pairs and cell.support_size <= r + s - 2:
            completed += _component_brute(F, data, cell, lam)
    return torus, completed


def _completed_brute(F: FieldTable, data: CyclotomicData,
                     lam: int) -> tuple[str, int]:
    """(label, brute |completed V_lambda(F_q)|) for one fibre."""
    if lam == 0:
        raise ZeroArgument("lambda must be nonzero")
    _require_coprime(F, data)
    label = f"completed p={','.join(map(str, data.p_list))};" \
            f"q={','.join(map(str, data.q_list))}"
    return label, brute_counts(F, data, lam)[1]


def _completed_formula(F: FieldTable, data: CyclotomicData, t: int):
    """P_rs(q) plus the signed q-power multiple of H_q(t), t = M lam."""
    r, s = data.r, data.s
    sign = -1 if (r + s) % 2 == 0 else 1
    return (p_rs(r, s, F.q)
            + sign * F.q ** min(r - 1, s - 1) * h_over_q(F, data, t).value)


def completed_count(F: FieldTable, data: CyclotomicData,
                    lam: int) -> CountReport:
    """|completed V_lambda(F_q)| both ways; raises SingularFiber at M lam = 1.

    Brute side: `_completed_brute`.  Formula side: P_rs(q) plus the
    signed q-power multiple of H_q(M lam).
    """
    t0 = time.perf_counter()
    label, brute = _completed_brute(F, data, lam)
    m_lam = F.mul(fraction_element(F, data.m_scale), lam)
    if m_lam == 1:
        report = CountReport(label, F.q, lam, brute, None, False,
                             _elapsed_ms(t0))
        raise SingularFiber("M*lambda = 1: formula side withheld", report)
    return CountReport.compare(label, F.q, lam, brute,
                               _completed_formula(F, data, m_lam),
                               _elapsed_ms(t0))


def singular_count(F: FieldTable, data: CyclotomicData) -> CountReport:
    """The singular fibre M lam = 1, brute against the formula at t = 1.

    `completed_count` withholds its formula there.  Compared here is the
    same expression, P_rs(q) + sign * q^min(r-1, s-1) * H_q(1): a
    measured identity (it held on every catalog datum and field tried),
    not one taken from the paper.
    """
    t0 = time.perf_counter()
    _require_coprime(F, data)
    lam = F.inv(fraction_element(F, data.m_scale))
    label, brute = _completed_brute(F, data, lam)
    return CountReport.compare(f"{label} [singular fiber]", F.q, lam, brute,
                               _completed_formula(F, data, 1),
                               _elapsed_ms(t0))


def main_theorem_check(F: FieldTable, data: CyclotomicData,
                       lam: int) -> CountReport:
    """completed_count with the equality asserted; the flagship check."""
    report = completed_count(F, data, lam)
    assert report.equal, f"completed-count identity failed: {report}"
    return report


# -- alternative varieties (block form) ----------------------------------------

class AltVarietySpec:
    """Exponent vector plus a zero-sum block partition of its indices."""

    __slots__ = ("a_list", "blocks")

    def __init__(self, a_list, blocks):
        a = tuple(int(v) for v in a_list)
        bs = tuple(tuple(int(i) for i in block) for block in blocks)
        k = len(a)
        seen = sorted(i for block in bs for i in block)
        if seen != list(range(1, k + 1)):
            raise BadPartition("blocks must partition 1..k")
        for block in bs:
            if sum(a[i - 1] for i in block) != 0:
                raise BadPartition(f"block {block} does not sum to zero")
            if gcd(*(abs(a[i - 1]) for i in block)) != 1:
                raise BadPartition(f"block {block} has gcd != 1")
        self.a_list = a
        self.blocks = bs

    def __repr__(self):
        return f"AltVarietySpec(a={self.a_list}, blocks={self.blocks})"

    @property
    def epsilon(self) -> int:
        neg = -sum(v for v in self.a_list if v < 0)
        return -1 if neg % 2 else 1


def q_poly(r: int, q: int) -> int:
    """Q_r(q) = ((q-1)^(r-1) + (-1)^r) / q, an integer."""
    num = (q - 1) ** (r - 1) + (-1) ** r
    assert num % q == 0
    return num // q


def _alt_brute(F: FieldTable, spec: AltVarietySpec, lam: int) -> int:
    q = F.q
    qq = q - 1
    exp, log = F.exp_table, F.log_table
    a = spec.a_list
    eps_elt = 1 if spec.epsilon > 0 else F.minus_one
    target = (log[lam] - log[eps_elt]) % qq

    # per block: last index pinned to 1 (log 0), second-to-last eliminated
    frees: list[int] = []
    elims: list[tuple[int, list[int]]] = []
    for block in spec.blocks:
        others = list(block[:-2])
        frees.extend(others)
        elims.append((block[-2], others))
    count = 0
    for logs in product(range(qq), repeat=len(frees)):
        assign = dict(zip(frees, logs))
        w = 0
        ok = True
        for elim, others in elims:
            acc = 1  # the pinned coordinate
            for i in others:
                acc = F.add(acc, exp[assign[i]])
                w += a[i - 1] * assign[i]
            det = F.neg(acc)
            if det == 0:
                ok = False
                break
            w += a[elim - 1] * log[det]
        if ok and (w + target) % qq == 0:
            count += 1
    return count


def _alt_formula(F: FieldTable, spec: AltVarietySpec, lam: int) -> Fraction:
    q = F.q
    qq = q - 1
    eps_lam = lam if spec.epsilon > 0 else F.mul(lam, F.minus_one)
    sums = table_for(F).fourier_table(spec.a_list, range(1, qq),
                                      weighted=False)
    fourier = sums.value(F.log_table[eps_lam])
    head = Fraction(1, qq)
    for block in spec.blocks:
        head *= q_poly(len(block), q)
    return head + Fraction(fourier, q**len(spec.blocks) * qq)


def alt_variety_count(F: FieldTable, spec: AltVarietySpec,
                      lam: int) -> CountReport:
    """Point count of the block variety vs its Gauss-sum formula.

    Note the formula's Fourier sum starts at m = 1; the constant term is
    the product of the Q polynomials.
    """
    if lam == 0:
        raise ZeroArgument("lambda must be nonzero")
    for v in spec.a_list:
        if v % F.p == 0:
            raise CharacteristicClash(
                f"characteristic {F.p} divides exponent {v}")
    t0 = time.perf_counter()
    brute = _alt_brute(F, spec, lam)
    formula = _alt_formula(F, spec, lam)
    label = f"alt a={','.join(map(str, spec.a_list))}"
    return CountReport.compare(label, F.q, lam, brute, formula,
                               _elapsed_ms(t0))


# -- the named curves ----------------------------------------------------------

CUBIC_LISTS = ((3,), (1, 2))
KATZ_LISTS = ((3,), (1, 1, 1))
LEGENDRE_LISTS = ((2, 2), (1, 1, 1, 1))


def _sqrt_count(F: FieldTable, c: int) -> int:
    """Number of y in F_q with y^2 = c."""
    if c == 0:
        return 1
    if F.p == 2:
        return 1  # squaring is a bijection in characteristic 2
    return 2 if F.log_table[c] % 2 == 0 else 0


def curve_counts(F: FieldTable, kind: str, param: int) -> CountReport:
    """Naive counts of the named curves vs their H_q expressions.

    kinds: cubic_roots (roots of x^3 + 3x^2 - 4t), katz_curve
    (y^2 + xy + y = lam x^3 plus infinity), legendre
    (y^2 = x(x-1)(x-lam) plus infinity).
    """
    t0 = time.perf_counter()
    q = F.q
    if kind == "cubic_roots":
        if F.p in (2, 3):
            raise CharacteristicClash("q must be coprime to 6")
        if param in (0, 1):
            raise BadParameter("t must avoid 0 and 1")
        brute = 0
        four_t = F.mul(F.element(4), param)
        three = F.element(3)
        for x in range(q):
            x2 = F.mul(x, x)
            val = F.sub(F.add(F.mul(x2, x), F.mul(three, x2)), four_t)
            if val == 0:
                brute += 1
        data = params_from_cyclotomic(*CUBIC_LISTS)
        formula = 1 + h_over_q(F, data, param).value
        label = "cubic-roots"
    elif kind == "katz_curve":
        if F.p in (2, 3):
            raise CharacteristicClash("q must be coprime to 6")
        if param == 0:
            raise BadParameter("lambda must be nonzero")
        t_arg = F.mul(F.element(27), param)
        if t_arg == 1:
            raise BadParameter("27*lambda = 1 is the singular fiber")
        brute = 1  # the point at infinity
        four = F.element(4)
        for x in range(q):
            x1 = F.add(x, 1)
            cube = F.mul(F.mul(x, x), x)
            disc = F.add(F.mul(x1, x1), F.mul(four, F.mul(param, cube)))
            brute += _sqrt_count(F, disc)
        data = params_from_cyclotomic(*KATZ_LISTS)
        formula = q + 1 - h_over_q(F, data, t_arg).value
        label = "katz-curve"
    elif kind == "legendre":
        if F.p == 2:
            raise CharacteristicClash("q must be odd")
        if param == 0 or param == 1:
            raise BadParameter("lambda must avoid 0 and 1")
        brute = 1  # the point at infinity
        for x in range(q):
            val = F.mul(F.mul(x, F.sub(x, 1)), F.sub(x, param))
            brute += _sqrt_count(F, val)
        data = params_from_cyclotomic(*LEGENDRE_LISTS)
        sign = -1 if ((q - 1) // 2) % 2 else 1
        formula = q + 1 - sign * h_over_q(F, data, param).value
        label = "legendre"
    else:
        raise ValueError(f"unknown curve kind {kind!r}")
    return CountReport.compare(label, q, param, brute, formula,
                               _elapsed_ms(t0))


SURFACE_LISTS = ((30, 1), (15, 10, 6))


def surface_count(F: FieldTable, lam: int) -> CountReport:
    """The elliptic-surface check: completed count equals q^2+3q+1+qH."""
    if F.p in (2, 3, 5):
        raise CharacteristicClash("q must be coprime to 30")
    data = params_from_cyclotomic(*SURFACE_LISTS)
    report = main_theorem_check(F, data, lam)
    return CountReport(f"surface {report.label}", report.q, report.lam,
                       report.brute, report.formula, report.equal,
                       report.elapsed_ms)
