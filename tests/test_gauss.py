import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqcount.cyclo import CycloNum, root_of_unity
from hqcount.errors import BadDivisor
from hqcount.gauss import (GaussTable, add_rotated, convolve_ring,
                           hasse_davenport_defect, stickelberger_sigma,
                           table_for)

from conftest import field, gauss_table, ref_add_rotated, ref_convolve


def test_g_zero_is_minus_one():
    for q in (4, 5, 7, 9, 13):
        t = gauss_table(q)
        assert t.gauss_sum(0) == CycloNum.const(t.N, -1)


def test_reflection_q7():
    # direct summation gives g(3)g(-3) = -7 = omega(-1)^3 * 7
    t = gauss_table(7)
    prod = t.gauss_sum(3) * t.gauss_sum(-3)
    assert prod.reduce_to_rational() == -7


def test_quadratic_gauss_sum_q5():
    t = gauss_table(5)
    assert (t.gauss_sum(2) * t.gauss_sum(2)).reduce_to_rational() == 5


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 13])
def test_periodicity(q):
    t = gauss_table(q)
    for m in range(q - 1):
        assert t.gauss_sum(m) == t.gauss_sum(m + q - 1)


def test_gauss_inverse_zero_is_self_inverse():
    t = gauss_table(7)
    assert t.gauss_inverse(0) == CycloNum.const(t.N, -1)


def test_gauss_inverse_q5_m2():
    t = gauss_table(5)
    assert t.gauss_inverse(2) == t.gauss_sum(2) / 5  # g(2)^2 = 5


def test_gauss_inverse_defining_property():
    rng = random.Random(1)
    for q in (4, 5, 7, 9, 25, 27):
        t = gauss_table(q)
        for _ in range(4):
            m = rng.randrange(q - 1)
            prod = t.gauss_sum(m) * t.gauss_inverse(m)
            assert prod == CycloNum.const(t.N, 1)


def test_jacobi_degenerate_cases():
    t = gauss_table(7)
    qq = 6
    for m in range(qq):
        assert t.jacobi_sum(m, 0) == CycloNum.const(t.N, -1)
        assert t.jacobi_sum(0, m) == CycloNum.const(t.N, -1)
    # reflection case: J(m, -m) = g(m)g(-m)/g(0) = -omega(-1)^m q
    f = field(7)
    for m in range(1, qq):
        expect = root_of_unity(t.N, f.p * m * f.log_minus_one()) * (-7)
        assert t.jacobi_sum(m, -m) == expect


def jacobi_by_summation(f, m, n):
    """Oracle: sum over x != 0, 1 of omega(1-x)^m omega(x)^n."""
    qq = f.q - 1
    total = CycloNum.zero(qq)
    for x in range(2, f.q):
        k = m * f.log_table[f.sub(1, x)] + n * f.log_table[x]
        total = total + root_of_unity(qq, k)
    return total


def test_jacobi_generic_case_q5():
    t = gauss_table(5)
    direct = jacobi_by_summation(field(5), 1, 1)
    assert t.jacobi_sum(1, 1) == direct.embed(t.N)


@pytest.mark.parametrize("q", [4, 5, 7, 9])
def test_jacobi_vec_agrees_with_gauss_quotient(q):
    # dual route: the case-analysis engine vs the defining g g / g
    t = gauss_table(q)
    qq = q - 1
    for m in range(qq):
        for n in range(qq):
            vec = CycloNum(qq, t.jacobi_vec(m, n)).embed(t.N)
            assert vec == t.jacobi_sum(m, n)


@pytest.mark.parametrize("q", [4, 5, 7, 9, 13])
def test_jacobi_is_algebraic_integer(q):
    t = gauss_table(q)
    qq = q - 1
    for m in range(qq):
        for n in range(qq):
            assert t.jacobi_sum(m, n).is_algebraic_integer()


@pytest.mark.parametrize("q", [5, 7, 9])
def test_balanced_product_matches_direct(q):
    rng = random.Random(q)
    t = gauss_table(q)
    qq = q - 1
    for _ in range(8):
        exps = [rng.randrange(-6, 7) for _ in range(rng.randrange(1, 5))]
        exps.append(-sum(exps) % qq)
        vec = CycloNum(qq, t.balanced_product(exps)).embed(t.N)
        direct = CycloNum.const(t.N, 1)
        for e in exps:
            direct = direct * t.gauss_sum(e)
        assert vec == direct


def gauss_product_lemma_brute(f, a_vec, m):
    """Oracle: the double character sum of the product lemma."""
    qq = f.q - 1
    n_ring = f.p * qq
    coeffs = [0] * n_ring
    import itertools
    for v in range(f.q):
        for xlogs in itertools.product(range(qq), repeat=len(a_vec)):
            total = 1
            for lg in xlogs:
                total = f.add(total, f.exp_table[lg])
            w = sum(a * lg for a, lg in zip(a_vec, xlogs))
            idx = (f.p * m * w + qq * f.trace_table[f.mul(v, total)]) % n_ring
            coeffs[idx] += 1
    return CycloNum(n_ring, coeffs)


@pytest.mark.parametrize("q", [5, 7, 9])
def test_gauss_product_lemma(q):
    # sum psi(v(1 + sum x)) omega(x^a)^m = (q-1)^n delta(am) + prod g(a_i m)
    rng = random.Random(q * 31)
    f = field(q)
    t = gauss_table(q)
    qq = q - 1
    for _ in range(5):
        n = rng.randrange(1, 4)
        a_vec = [rng.randrange(-3, 4) for _ in range(n)]
        m = rng.randrange(qq)
        brute = gauss_product_lemma_brute(f, a_vec, m)
        expect = CycloNum.const(t.N, 1)
        for a in a_vec + [-sum(a_vec)]:
            expect = expect * t.gauss_sum(a * m)
        if all((a * m) % qq == 0 for a in a_vec):
            expect = expect + (q - 1) ** n
        assert brute == expect


def naive_hd_defect(t, n_div, m):
    """Oracle: literal LHS - RHS with explicit gauss inverses."""
    f = t.field
    qq = f.q - 1
    c = qq // n_div
    rhs = CycloNum.const(t.N, -1)
    for j in range(n_div):
        rhs = rhs * t.gauss_sum(m + j * c) * t.gauss_inverse(j * c)
    n_elt = f.element(n_div)
    rhs = rhs * root_of_unity(t.N, f.p * n_div * m * f.log_table[n_elt])
    return t.gauss_sum(n_div * m) - rhs


@pytest.mark.parametrize("q", [7, 9])
def test_hd_defect_matches_naive(q):
    t = gauss_table(q)
    qq = q - 1
    for n_div in range(1, qq + 1):
        if qq % n_div:
            continue
        for m in range(qq):
            fast = hasse_davenport_defect(t, n_div, m)
            assert fast == naive_hd_defect(t, n_div, m)
            assert fast.is_zero()


def test_hd_bad_divisor():
    with pytest.raises(BadDivisor):
        hasse_davenport_defect(gauss_table(7), 4, 1)


def test_hd_trivial_divisor():
    t = gauss_table(13)
    for m in range(12):
        assert hasse_davenport_defect(t, 1, m).is_zero()


def test_stickelberger_examples():
    assert stickelberger_sigma(3, 2, 5) == 3  # digits 2, 1
    assert stickelberger_sigma(3, 2, 0) == 0
    assert stickelberger_sigma(2, 1, 0) == 0


def test_stickelberger_digit_sum_q27():
    p, f = 3, 3
    for r in range(26):
        digits = sum(int(d) for d in _base_digits(r, p))
        assert stickelberger_sigma(p, f, r) == digits
    # periodic extension
    assert stickelberger_sigma(p, f, 26 + 5) == stickelberger_sigma(p, f, 5)


def _base_digits(r, p):
    out = []
    while r:
        out.append(r % p)
        r //= p
    return out


@pytest.mark.parametrize("pf", [(3, 2), (3, 3), (5, 2), (2, 4)])
def test_stickelberger_complement(pf):
    p, f = pf
    qq = p**f - 1
    for r in range(1, qq):
        assert stickelberger_sigma(p, f, r) + \
            stickelberger_sigma(p, f, qq - r) == f * (p - 1)


def test_psi_scale_changes_gauss_sum_by_character():
    # g_c(m) = omega(c)^-m g(m): rescaling psi twists by a root of unity
    f = field(7)
    base = GaussTable(f)
    twisted = GaussTable(f, psi_scale=3)
    for m in range(6):
        twist = root_of_unity(base.N, -f.p * m * f.log_table[3])
        assert twisted.gauss_sum(m) == twist * base.gauss_sum(m)


def test_tables_are_integer_vectors():
    t = gauss_table(9)
    for m in range(8):
        assert all(isinstance(c, int) for c in t.gauss_sum(m).coeffs)


def test_table_for_keeps_one_engine_alive():
    first = table_for(field(7))
    first.jacobi_vec(1, 2)
    alive = weakref.ref(first)
    del first
    second = table_for(field(11))
    gc.collect()
    assert alive() is None
    assert table_for(field(11)) is second


# -- the sliced group-ring operations against the per-index loops -----------

_ENTRIES = st.integers(-10**6, 10**6)


@st.composite
def ring_vector(draw, qq):
    """A length-qq vector: zero, one nonzero, a few nonzeros, or dense."""
    kind = draw(st.sampled_from(("zero", "monomial", "sparse", "dense")))
    if kind == "dense":
        return draw(st.lists(_ENTRIES, min_size=qq, max_size=qq))
    vec = [0] * qq
    size = min(qq, {"zero": 0, "monomial": 1, "sparse": 4}[kind])
    for i in draw(st.lists(st.integers(0, qq - 1), min_size=size,
                           max_size=size, unique=True)):
        vec[i] = draw(_ENTRIES.filter(bool))
    return vec


@st.composite
def ring_pair(draw):
    qq = draw(st.integers(1, 60))
    return qq, draw(ring_vector(qq)), draw(ring_vector(qq))


@settings(max_examples=300, deadline=None)
@given(ring_pair())
def test_convolve_ring_matches_the_pair_loop(case):
    qq, u, v = case
    u_in, v_in = list(u), tuple(v)
    assert convolve_ring(u_in, v_in, qq) == ref_convolve(u, v, qq)
    assert convolve_ring(v, tuple(u), qq) == ref_convolve(u, v, qq)
    assert (u_in, v_in) == (u, tuple(v))  # the inputs are not touched


@settings(max_examples=300, deadline=None)
@given(ring_pair(), st.integers(-200, 200),
       st.one_of(st.just(1), st.just(-1), _ENTRIES))
def test_add_rotated_matches_the_index_loop(case, shift, weight):
    qq, acc, vec = case
    want = list(acc)
    ref_add_rotated(want, vec, shift, weight)
    got = list(acc)
    add_rotated(got, tuple(vec), shift, weight)
    assert got == want
