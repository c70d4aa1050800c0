"""The modular Fourier assembler against the group-ring engine it replaced.

The references below assemble each over-Q sum the slow way: rotate and
add the length-(q-1) balanced-product vectors in Z[zeta_{q-1}], then
reduce mod Phi_{q-1}.  The assembler must agree with them exactly.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hqcount import gauss
from hqcount.catalog import admissible_fields
from hqcount.cyclo import CycloNum, cyclotomic_polynomial
from hqcount.errors import DegenerateCancellation, NotRational
from hqcount.gauss import (GaussTable, _is_prime, _modulus, _pair_key,
                           _unit_generators)
from hqcount.hyper import (_over_q_mtable, fraction_element, h_over_q,
                           params_from_cyclotomic, s_multiplicity)
from hqcount.toric import cell_gcd, delta_sum, enumerate_cells
from hqcount.variety import AltVarietySpec, _alt_formula, q_poly

from conftest import field, gauss_table, ref_add_rotated


def _ref_sums(T, mults, ms, weight):
    """Group-ring Fourier sums sum_m w(m) zeta^{Lm} V_m, for every L."""
    qq = T.field.q - 1
    vecs = [(m, weight(m), T.balanced_product([c * m for c in mults]))
            for m in ms]
    out = []
    for shift in range(qq):
        acc = [0] * qq
        for m, w, vec in vecs:
            ref_add_rotated(acc, vec, shift * m, w)
        out.append(CycloNum(qq, acc).reduce_to_rational())
    return out


def _ref_h_over_q(F, data, sums, t):
    u = F.mul(fraction_element(F, 1 / data.m_scale), t)
    if data.epsilon < 0:
        u = F.mul(u, F.minus_one)
    sign = -1 if (data.r + data.s) % 2 else 1
    return sign * sums[F.log_table[u]] / ((1 - F.q)
                                          * F.q**min(data.r, data.s))


@st.composite
def balanced_data(draw):
    """Exponent data with r + s <= 5 and entries <= 12, plus a field."""
    r = draw(st.integers(1, 4))
    s = draw(st.integers(1, 5 - r))
    q_list = draw(st.lists(st.integers(1, 12), min_size=s, max_size=s))
    total = sum(q_list)
    assume(total >= r)
    cuts = sorted(draw(st.sets(st.integers(1, max(total - 1, 1)),
                               min_size=r - 1, max_size=r - 1)))
    p_list = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    assume(all(1 <= v <= 12 for v in p_list))
    assume(gcd(*p_list, *q_list) == 1)
    try:
        data = params_from_cyclotomic(p_list, q_list)
    except DegenerateCancellation:
        assume(False)
    fields = admissible_fields(data, 50)
    assume(fields)
    return data, draw(st.sampled_from(fields))


@settings(max_examples=60, deadline=None)
@given(balanced_data())
@example((params_from_cyclotomic((5,), (1, 1, 1, 1, 1)), 16))
@example((params_from_cyclotomic((2, 2), (1, 1, 1, 1)), 27))
@example((params_from_cyclotomic((4,), (2, 1, 1)), 49))
def test_assembler_matches_group_ring(case):
    data, q = case
    F, T = field(q), gauss_table(q)
    qq = q - 1
    mults = data.multipliers

    sums = _ref_sums(T, mults, range(qq),
                     lambda m: q ** s_multiplicity(data, m, q))
    for t in range(1, q):
        assert h_over_q(F, data, t).value == _ref_h_over_q(F, data, sums, t)

    cells = enumerate_cells(data.r, data.s)
    steps = {0} | {cell_gcd(data, c) for c in cells if c.pairs}
    for a_s in sorted(steps):
        g0 = gcd(a_s, qq)
        sums = _ref_sums(T, mults, range(0, qq, qq // g0), lambda m: 1)
        for lam in range(1, q):
            assert delta_sum(F, data, a_s, lam) == sums[F.log_table[lam]]

    spec = AltVarietySpec(mults, [range(1, len(mults) + 1)])
    sums = _ref_sums(T, mults, range(1, qq), lambda m: 1)
    for lam in range(1, q):
        eps_lam = lam if spec.epsilon > 0 else F.mul(lam, F.minus_one)
        expect = Fraction(q_poly(len(mults), q), qq) \
            + sums[F.log_table[eps_lam]] / (q * qq)
        assert _alt_formula(F, spec, lam) == expect


def test_perturbed_jacobi_vector_raises_not_rational():
    F = field(13)
    T = GaussTable(F)
    data = params_from_cyclotomic((3,), (1, 1, 1))
    key = _pair_key(3, -1, 12)          # the first telescoping pair at m = 1
    vec = list(T.jacobi_vec(*key))
    vec[1] += 1
    T._jac[key] = tuple(vec)
    with pytest.raises(NotRational):
        h_over_q(F, data, 2, table=T)


def test_modulus_exceeds_twice_the_bound():
    for q, lists in ((13, ((3,), (1, 1, 1))), (61, ((30, 1), (15, 10, 6))),
                     (211, ((5,), (1, 1, 1, 1, 1)))):
        data = params_from_cyclotomic(*lists)
        T = gauss_table(q)
        table = _over_q_mtable(T, data)
        assert table.modulus > 2 * table.bound
        # B is the weighted sum of products of Jacobi-vector l1 norms
        qq = q - 1
        mults = data.multipliers
        bound = 0
        for m in range(qq):
            size = q ** s_multiplicity(data, m, q)
            for a, b in gauss._telescope([c * m for c in mults]):
                size *= sum(map(abs, T.jacobi_vec(a, b)))
            bound += size
        assert table.bound == bound
        assert all(abs(table.value(L)) <= bound for L in range(qq))


@pytest.mark.parametrize("n", [1, 2, 12, 48, 210])
def test_modulus_carries_a_root_of_phi(n):
    phi = cyclotomic_polynomial(n)
    for bound in (0, 10**5, 10**60):
        ell, w = _modulus(n, bound)
        assert ell > 2 * bound
        assert sum(c * pow(w, i, ell) for i, c in enumerate(phi)) % ell == 0


def test_crt_moduli_stay_exact(monkeypatch):
    """Small primes force products of several; the values must not move."""
    q = 31
    data = params_from_cyclotomic((30, 1), (15, 10, 6))
    expect = [h_over_q(field(q), data, t).value for t in range(1, q)]
    monkeypatch.setattr(gauss, "_PRIME_CEILING", 2**16)
    T = GaussTable(field(q))
    table = _over_q_mtable(T, data)
    assert table.modulus > 2**16    # a product of primes below 2^16
    assert [h_over_q(field(q), data, t, table=T).value
            for t in range(1, q)] == expect


def test_is_prime_is_exact():
    sieve = [True] * 5000
    sieve[0] = sieve[1] = False
    for i in range(2, 5000):
        if sieve[i]:
            for j in range(i * i, 5000, i):
                sieve[j] = False
    assert [n for n in range(5000) if _is_prime(n)] == \
        [n for n in range(5000) if sieve[n]]
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2..37
    assert not _is_prime(3215031751)
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(2**61 - 1)
    with pytest.raises(ValueError):
        _is_prime(gauss._MR_LIMIT)


@pytest.mark.parametrize("n", [1, 2, 8, 12, 24, 105, 210])
def test_unit_generators_generate(n):
    units = {k for k in range(n) if gcd(k, n) == 1}
    reached = {1 % n}
    for g in _unit_generators(n):
        while True:
            grown = reached | {h * g % n for h in reached}
            if grown == reached:
                break
            reached = grown
    assert reached == units
