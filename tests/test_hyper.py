from fractions import Fraction
from math import factorial, gcd

import pytest

from hqcount.cyclo import CycloNum, cyclotomic_polynomial, root_of_unity  # noqa: F401
from hqcount.errors import (BadFieldForParams, CharacteristicClash,
                            DegenerateCancellation, NotCoprime,
                            NotDefinedOverQ, UnbalancedDegrees, ZeroArgument)
from hqcount.field import with_generator
from hqcount.gauss import GaussTable
from hqcount.hyper import (HGParams, Provenance, _general_mtable,
                           cyclotomic_from_params, greene_value, h_general,
                           h_over_q, hyp_exponential_sum, landau_bound,
                           p_valuation, params_from_cyclotomic,
                           parse_fractions, parse_param_string,
                           s_multiplicity, s_sum)

from conftest import field, gauss_table, ref_add_rotated

F = Fraction


# -- parameter conversions ----------------------------------------------------

def test_cubic_example():
    data = params_from_cyclotomic((3,), (1, 2))
    assert data.params.alpha == (F(1, 3), F(2, 3))
    assert data.params.beta == (F(0), F(1, 2))
    assert data.m_scale == F(27, 4)
    assert data.epsilon == -1


def test_surface_example():
    data = params_from_cyclotomic((30, 1), (15, 10, 6))
    assert data.params.alpha == tuple(F(k, 30) for k in
                                      (1, 7, 11, 13, 17, 19, 23, 29))
    assert data.params.beta == tuple(sorted(
        (F(1, 5), F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(2, 3), F(4, 5), F(0))))
    assert data.m_scale == 2**14 * 3**9 * 5**5
    assert data.params.d == 8


def test_degenerate_cancellation():
    with pytest.raises(DegenerateCancellation):
        params_from_cyclotomic((2,), (2,))


def test_unbalanced_and_noncoprime():
    with pytest.raises(UnbalancedDegrees):
        params_from_cyclotomic((3,), (1, 1))
    with pytest.raises(NotCoprime):
        params_from_cyclotomic((2, 2), (4,))


def test_from_params_legendre():
    data = cyclotomic_from_params([F(1, 2), F(1, 2)], [1, 1])
    assert data.p_list == (2, 2)
    assert data.q_list == (1, 1, 1, 1)


def test_from_params_katz():
    data = cyclotomic_from_params([F(1, 3), F(2, 3)], [1, 1])
    assert data.p_list == (3,)
    assert data.q_list == (1, 1, 1)


def test_from_params_not_defined_over_q():
    with pytest.raises(NotDefinedOverQ):
        cyclotomic_from_params([F(1, 5)], [1])


@pytest.mark.parametrize("lists", [((3,), (1, 2)), ((3,), (1, 1, 1)),
                                   ((2, 2), (1, 1, 1, 1)), ((4,), (2, 1, 1)),
                                   ((5,), (1, 1, 1, 1, 1)),
                                   ((6, 3, 2, 1), (8, 4))])
def test_round_trip(lists):
    data = params_from_cyclotomic(*lists)
    again = cyclotomic_from_params(data.params, None)
    assert again.params == data.params
    assert params_from_cyclotomic(again.p_list, again.q_list).params \
        == data.params


def test_params_disjointness_enforced():
    with pytest.raises(ValueError):
        HGParams.of([F(1, 2)], [F(1, 2)])
    with pytest.raises(ValueError):
        HGParams.of([F(3, 2)], [F(1, 2)])  # 3/2 = 1/2 mod Z


def test_parse_param_string():
    params = parse_param_string("alpha=1/3,2/3 beta=1,1")
    assert isinstance(params, HGParams) and params.d == 2
    data = parse_param_string("p=3 q=1,1,1")
    assert data.p_list == (3,)
    with pytest.raises(ValueError):
        parse_param_string("p=3")


# -- s(m) against a polynomial-gcd oracle --------------------------------------

def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_mod(a, b):
    a = list(a)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] -= c * bi
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while b and any(b):
        a, b = b, _poly_mod(a, b)
    lead = a[-1]
    return [c / lead for c in a]


def _x_pow_minus_one(n):
    out = [F(0)] * (n + 1)
    out[0], out[n] = F(-1), F(1)
    return out


def test_d_mult_matches_polynomial_gcd():
    for lists in (((3,), (1, 2)), ((2, 2), (1, 1, 1, 1)),
                  ((6, 3, 2, 1), (8, 4))):
        data = params_from_cyclotomic(*lists)
        num = [F(1)]
        for v in data.p_list:
            num = _poly_mul(num, _x_pow_minus_one(v))
        den = [F(1)]
        for v in data.q_list:
            den = _poly_mul(den, _x_pow_minus_one(v))
        d_poly = _poly_gcd(num, den)
        for e, mult in data.d_mult:
            phi_e = [F(c) for c in cyclotomic_polynomial(e)]
            count = 0
            work = d_poly
            while True:
                rem = _poly_mod(work, phi_e)
                if rem:
                    break
                # exact divide
                quotient = []
                w = list(work)
                while len(w) >= len(phi_e):
                    c = w[-1] / phi_e[-1]
                    quotient.append(c)
                    shift = len(w) - len(phi_e)
                    for i, bi in enumerate(phi_e):
                        w[shift + i] -= c * bi
                    w.pop()
                work = quotient[::-1]
                count += 1
            assert count == mult
        assert sum(mult * (len(cyclotomic_polynomial(e)) - 1)
                   for e, mult in data.d_mult) == len(d_poly) - 1


def test_s_multiplicity_examples():
    katz = params_from_cyclotomic((3,), (1, 1, 1))
    assert s_multiplicity(katz, 0, 7) == 1
    assert s_multiplicity(katz, (7 - 1) // 3, 7) == 0
    leg = params_from_cyclotomic((2, 2), (1, 1, 1, 1))
    assert s_multiplicity(leg, 0, 13) == 2


# -- Landau bounds --------------------------------------------------------------

def test_landau_over_q_values():
    assert landau_bound(params_from_cyclotomic((2, 2), (1, 1, 1, 1)),
                        "overQ") == 2
    assert landau_bound(params_from_cyclotomic((3,), (1, 1, 1)), "overQ") == 1
    assert landau_bound(params_from_cyclotomic((3,), (1, 2)), "overQ") == 1
    assert landau_bound(params_from_cyclotomic((30, 1), (15, 10, 6)),
                        "overQ") == 2


def test_landau_general_simple():
    assert landau_bound(HGParams.of([F(1, 2)], [1]), "general") == 0
    with pytest.raises(ValueError):
        landau_bound(HGParams.of([F(1, 2)], [1]), "nope")


# -- exponential sums ------------------------------------------------------------

def test_hyp_matches_s_sum_q5():
    f = field(5)
    params = HGParams.of([F(1, 2)], [1])
    twist = root_of_unity(gauss_table(5).N, 0)  # |beta| = 0: factor is 1
    for t in range(1, 5):
        hyp = hyp_exponential_sum(f, params, t)
        assert hyp == twist * s_sum(f, params, t, table=gauss_table(5))


def test_hyp_matches_s_sum_q7_with_twist():
    f = field(7)
    t7 = gauss_table(7)
    params = HGParams.of([F(1, 3), F(2, 3)], [F(1, 2), 1])
    beta_w = int(sum(b * 6 for b in params.beta))
    twist = root_of_unity(t7.N, f.p * beta_w * f.log_minus_one())
    for t in range(1, 7):
        assert hyp_exponential_sum(f, params, t) == \
            twist * s_sum(f, params, t, table=t7)


def test_hyp_integer_coefficients():
    f = field(7)
    params = HGParams.of([F(1, 3), F(2, 3)], [1, 1])
    for t in range(1, 7):
        assert hyp_exponential_sum(f, params, t).is_algebraic_integer()


def test_hyp_preconditions():
    f = field(7)
    params = HGParams.of([F(1, 3), F(2, 3)], [1, 1])
    with pytest.raises(ZeroArgument):
        hyp_exponential_sum(f, params, 0)
    with pytest.raises(BadFieldForParams):
        hyp_exponential_sum(field(5), params, 1)


def test_functional_inversion_q7():
    # S_q(a, b | t) = S_q(-b, -a | 1/t)
    f = field(7)
    params = HGParams.of([F(1, 3), F(2, 3)], [1, 1])
    swapped = params.swapped_negated()
    for t in range(1, 7):
        assert s_sum(f, params, t) == s_sum(f, swapped, f.inv(t))


def test_functional_shift_q5():
    # omega(t)^(mu(q-1)) S_q(mu + a, mu + b | t) = S_q(a, b | t)
    f = field(5)
    t5 = gauss_table(5)
    params = HGParams.of([F(1, 2)], [1])
    shifted = params.shifted(F(1, 2))
    mu_w = 2  # mu (q-1) = 2
    for t in range(1, 5):
        twist = root_of_unity(t5.N, f.p * mu_w * f.log_table[t])
        assert twist * s_sum(f, shifted, t) == s_sum(f, params, t)


def test_s_sum_rationality_membership():
    # sum(alpha - beta) integral => S_q lands in Q(zeta_{q-1})
    f = field(5)
    t5 = gauss_table(5)
    params = HGParams.of([F(1, 2), F(1, 2)], [1, 1])
    g = 2  # primitive root mod 5
    k = next(k for k in range(1, t5.N)
             if k % f.p == g and k % (f.q - 1) == 1 and gcd(k, t5.N) == 1)
    for t in range(1, 5):
        val = s_sum(f, params, t)
        assert val.galois(k) == val


def test_divisibility_proposition():
    # each Fourier term is divisible by g(|a-b|(q-1)) and by
    # prod g((a_i-b_i)(q-1)), with quotients in Q(zeta_{q-1})
    for q in (5, 7, 13):
        f = field(q)
        t = gauss_table(q)
        qq = q - 1
        params = HGParams.of([F(1, 2)], [1]) if q != 7 else \
            HGParams.of([F(1, 3), F(2, 3)], [F(1, 2), 1])
        a_ints = [int(a * qq) for a in params.alpha]
        b_ints = [int(b * qq) for b in params.beta]
        diff = sum(a_ints) - sum(b_ints)
        for m in range(qq):
            term = CycloNum.const(t.N, 1)
            for a in a_ints:
                term = term * t.gauss_sum(m + a)
            for b in b_ints:
                term = term * t.gauss_sum(-m - b)
            quot1 = term * t.gauss_inverse(diff)
            assert quot1.is_algebraic_integer()
            quot2 = term
            for a, b in zip(a_ints, b_ints):
                quot2 = quot2 * t.gauss_inverse(a - b)
            assert quot2.is_algebraic_integer()


# -- H_q itself -------------------------------------------------------------------

def test_h_general_legendre_anchor():
    f = field(13)
    params = HGParams.of([F(1, 2), F(1, 2)], [1, 1])
    assert h_general(f, params, 2).reduce_to_rational() == 6


def test_h_general_matches_normalized_torus_sum():
    # oracle: H = -prod(1/g) * omega(-1)^{|b|(q-1)} * Hyp (brute force)
    f = field(5)
    t5 = gauss_table(5)
    params = HGParams.of([F(1, 2)], [1])
    qq = 4
    a_ints = [int(a * qq) for a in params.alpha]
    b_ints = [int(b * qq) for b in params.beta]
    for t in range(1, 5):
        norm = CycloNum.const(t5.N, -1)
        for a in a_ints:
            norm = norm * t5.gauss_inverse(a)
        for b in b_ints:
            norm = norm * t5.gauss_inverse(-b)
        beta_w = sum(b_ints)
        twist = root_of_unity(t5.N, t5.field.p * beta_w * f.log_minus_one())
        oracle = norm * twist * hyp_exponential_sum(f, params, t)
        assert h_general(f, params, t, table=t5).embed(t5.N) == oracle


@pytest.mark.parametrize("q,alpha,beta", [
    (7, "1/2,1/2", "1,1"),                 # d even: the argument is t
    (13, "1/3,2/3,1/4", "1,1/2,1/6"),       # d odd: the argument is -t
    (31, "1/5,2/5,3/5", "1/3,2/3,1"),       # not defined over Q
    (16, "1/3,2/3", "1/5,1"),               # q = 2^4
])
def test_h_general_matches_the_index_loop(q, alpha, beta):
    # the per-index assembly h_general used before its rows were slices
    f = field(q)
    table = gauss_table(q)
    params = HGParams.of(parse_fractions(alpha), parse_fractions(beta))
    qq = q - 1
    a_key = tuple(int(a * qq) for a in params.alpha)
    b_key = tuple(int(b * qq) for b in params.beta)
    vecs, shift0, sign, qpow = _general_mtable(table, a_key, b_key)
    for t in range(1, q):
        arg = t if params.d % 2 == 0 else f.neg(t)
        acc = [0] * qq
        for m in range(qq):
            ref_add_rotated(acc, vecs[m], shift0 + f.log_table[arg] * m,
                            sign)
        want = CycloNum(qq, acc) / ((1 - q) * q**qpow)
        got = h_general(f, params, t, table=table)
        assert got.coeffs == want.coeffs
        assert got.canonical() == want.canonical()


def test_h_general_preconditions():
    f = field(7)
    params = HGParams.of([F(1, 3), F(2, 3)], [1, 1])
    with pytest.raises(ZeroArgument):
        h_general(f, params, 0)
    with pytest.raises(BadFieldForParams):
        h_general(f, HGParams.of([F(1, 5)], [1]), 3)


def test_h_over_q_characteristic_clash():
    data = params_from_cyclotomic((2, 2), (1, 1, 1, 1))
    with pytest.raises(CharacteristicClash):
        h_over_q(field(8), data, 1)


def test_h_over_q_zero_argument():
    data = params_from_cyclotomic((3,), (1, 2))
    with pytest.raises(ZeroArgument):
        h_over_q(field(7), data, 0)


def test_h_over_q_value_and_provenance():
    data = params_from_cyclotomic((2, 2), (1, 1, 1, 1))
    hv = h_over_q(field(13), data, 2)
    assert hv.value == 6
    assert hv.q == 13
    assert hv.provenance is Provenance.OVER_Q
    assert hv.p_valuation == 0


def test_p_valuation_helper():
    assert p_valuation(F(0), 7) is None
    assert p_valuation(F(49, 3), 7) == 2
    assert p_valuation(F(3, 7), 7) == -1


def test_rewrite_equivalence_small():
    # h_general and h_over_q agree whenever both apply
    for lists, qs in ((((3,), (1, 2)), (7, 13)),
                      (((2, 2), (1, 1, 1, 1)), (5, 9, 13)),
                      (((4,), (2, 1, 1)), (5, 13))):
        data = params_from_cyclotomic(*lists)
        for q in qs:
            f = field(q)
            for t in range(1, q):
                general = h_general(f, data.params, t).reduce_to_rational()
                assert general == h_over_q(f, data, t).value


def test_generator_independence():
    for q in (7, 13):
        f = field(q)
        data = params_from_cyclotomic((3,), (1, 2)) if q == 7 else \
            params_from_cyclotomic((2, 2), (1, 1, 1, 1))
        alt_gen = next(f.exp_table[k] for k in range(2, q - 1)
                       if gcd(k, q - 1) == 1)
        alt = with_generator(f, alt_gen)
        for t in range(1, q):
            assert h_over_q(f, data, t).value == h_over_q(alt, data, t).value


def test_generator_independence_extension_field():
    # q = 25: the alternate generator lives in a proper extension
    f = field(25)
    data = params_from_cyclotomic((3,), (1, 2))
    alt_gen = next(f.exp_table[k] for k in range(2, 24)
                   if gcd(k, 24) == 1)
    alt = with_generator(f, alt_gen)
    for t in (1, 2, 7, 24):
        assert h_over_q(f, data, t).value == h_over_q(alt, data, t).value


def test_additive_character_independence():
    for q in (7, 13):
        f = field(q)
        data = params_from_cyclotomic((3,), (1, 1, 1)) if q == 7 else \
            params_from_cyclotomic((2, 2), (1, 1, 1, 1))
        for c in (2, q - 1):
            twisted = GaussTable(f, psi_scale=c)
            for t in range(1, q):
                assert h_over_q(f, data, t).value == \
                    h_over_q(f, data, t, table=twisted).value


def _pochhammer(x: Fraction, n: int) -> Fraction:
    out = F(1)
    for k in range(n):
        out *= x + k
    return out


def test_factorial_ratio_identity():
    # prod (a_i)_n / prod (b_i)_n = M^-n prod (p_i n)! / prod (q_j n)!
    for lists in (((3,), (1, 2)), ((3,), (1, 1, 1)), ((2, 2), (1, 1, 1, 1)),
                  ((4,), (2, 1, 1)), ((5,), (1, 1, 1, 1, 1))):
        data = params_from_cyclotomic(*lists)
        alphas = data.params.alpha
        betas = [b if b else F(1) for b in data.params.beta]
        for n in range(6):
            lhs = F(1)
            for a in alphas:
                lhs *= _pochhammer(a, n)
            for b in betas:
                lhs /= _pochhammer(b, n)
            rhs = data.m_scale ** -n
            for v in data.p_list:
                rhs *= factorial(v * n)
            for v in data.q_list:
                rhs /= factorial(v * n)
            assert lhs == rhs


def test_greene_value_identity():
    # greene/h_general equals the displayed Jacobi factor, q=5
    f = field(5)
    t5 = gauss_table(5)
    params = HGParams.of([F(1, 2)], [1])
    qq = 4
    a, b = 2, 0
    for t in range(1, 5):
        h_val = h_general(f, params, t, table=t5).embed(t5.N)
        g_val = greene_value(f, params, t, table=t5).embed(t5.N)
        factor = t5.gauss_sum(a) * t5.gauss_sum(-b) \
            * t5.gauss_inverse(a - b) / 5
        beta_twist = root_of_unity(t5.N, f.p * b * f.log_minus_one())
        assert g_val == beta_twist * factor * h_val


def test_greene_factor_two_ways():
    # ratio of three Gauss sums vs the case-analysis Jacobi sum
    t5 = gauss_table(5)
    direct = t5.gauss_sum(2) * t5.gauss_sum(0) * t5.gauss_inverse(2)
    vec = CycloNum(4, t5.jacobi_vec(2, 0)).embed(t5.N)
    assert direct == vec


def test_greene_value_denominator():
    # Legendre parameters at q=13: rational with denominator dividing q^d
    f = field(13)
    params = HGParams.of([F(1, 2), F(1, 2)], [1, 1])
    val = greene_value(f, params, 2).reduce_to_rational()
    assert (13 ** params.d * val).denominator == 1


def test_greene_vs_mccarthy_normalization():
    # the defining sum equals -S_q / prod g(a)g(-b), exactly
    f = field(7)
    t7 = gauss_table(7)
    params = HGParams.of([F(1, 3), F(2, 3)], [F(1, 2), 1])
    qq = 6
    a_ints = [int(a * qq) for a in params.alpha]
    b_ints = [int(b * qq) for b in params.beta]
    for t in range(1, 7):
        norm = CycloNum.const(t7.N, -1)
        for a in a_ints:
            norm = norm * t7.gauss_inverse(a)
        for b in b_ints:
            norm = norm * t7.gauss_inverse(-b)
        rhs = norm * s_sum(f, params, t, table=t7)
        assert h_general(f, params, t, table=t7).embed(t7.N) == rhs
