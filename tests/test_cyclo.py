import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqcount.cyclo import (CycloNum, _reduction_rows, cyclotomic_polynomial,
                           divisors, euler_phi, root_of_unity)
from hqcount.errors import NotRational, OrderMismatch

from conftest import field

# classic table, constant term first
KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomials():
    for n, coeffs in KNOWN_CYCLOTOMICS.items():
        assert cyclotomic_polynomial(n) == coeffs
    # degree is always phi(n)
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_divisors():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)


def test_root_of_unity_trivial():
    assert root_of_unity(1, 0) == CycloNum.const(1, 1)
    i = root_of_unity(4, 1)
    assert i * i == CycloNum.const(4, -1)


def test_sixth_root_cubed():
    # cyclic convolution then reduction mod Phi_6 = x^2 - x + 1
    z = root_of_unity(6, 1)
    assert z * z * z == CycloNum.const(6, -1)
    assert (z * z * z).canonical() == (-1, 0)


def test_mul_expansion():
    z = root_of_unity(5, 1)
    lhs = (1 + z) * (1 - z)
    assert lhs == 1 - root_of_unity(5, 2)


def test_geometric_sum_vanishes():
    total = CycloNum.zero(7)
    for k in range(7):
        total = total + root_of_unity(7, k)
    assert total.is_zero()


def raw_gauss_sum(f, m):
    """Independent construction: scatter q-1 roots of unity by log/trace."""
    n = f.p * (f.q - 1)
    coeffs = [0] * n
    for k in range(f.q - 1):
        x = f.exp_table[k]
        coeffs[(f.p * m * k + (f.q - 1) * f.trace_table[x]) % n] += 1
    return CycloNum(n, coeffs)


def test_gauss_product_is_minus_seven():
    # g(1) g(-1) over F_7 equals omega(-1) * 7 = -7, by direct summation
    f = field(7)
    prod = raw_gauss_sum(f, 1) * raw_gauss_sum(f, -1)
    assert prod.reduce_to_rational() == -7


def test_reduce_to_rational():
    assert CycloNum.const(9, 5).reduce_to_rational() == 5
    z3 = root_of_unity(3, 1)
    assert (z3 + z3 * z3).reduce_to_rational() == -1
    with pytest.raises(NotRational) as err:
        root_of_unity(5, 1).reduce_to_rational()
    assert err.value.residual is not None


def test_order_mismatch():
    with pytest.raises(OrderMismatch):
        root_of_unity(3, 1) * root_of_unity(4, 1)
    with pytest.raises(OrderMismatch):
        root_of_unity(3, 1) == root_of_unity(4, 1)


def test_embed_and_common_order():
    z3 = root_of_unity(3, 1)
    assert z3.embed(12) == root_of_unity(12, 4)
    with pytest.raises(OrderMismatch):
        z3.embed(10)


def _random_cyclo(rng, order, terms=4):
    out = {}
    for _ in range(terms):
        out[rng.randrange(order)] = Fraction(rng.randrange(-6, 7),
                                             rng.choice([1, 1, 2, 3]))
    return CycloNum.from_sparse(order, out)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 60), st.integers(0, 10**6))
def test_mul_commutes(order, seed):
    rng = random.Random(seed)
    a, b = _random_cyclo(rng, order), _random_cyclo(rng, order)
    assert a * b == b * a


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10**6))
def test_mul_associates(order, seed):
    rng = random.Random(seed)
    a, b, c = (_random_cyclo(rng, order) for _ in range(3))
    assert (a * b) * c == a * (b * c)


def test_mul_associates_large_order():
    rng = random.Random(400)
    a, b, c = (_random_cyclo(rng, 400, terms=6) for _ in range(3))
    assert (a * b) * c == a * (b * c)


def test_mul_by_one_preserves_rational_reduction():
    rng = random.Random(7)
    for _ in range(20):
        a = _random_cyclo(rng, 12)
        one = CycloNum.const(12, 1)
        lhs, rhs = a * one, a
        assert lhs.is_rational() == rhs.is_rational()
        if rhs.is_rational():
            assert lhs.reduce_to_rational() == rhs.reduce_to_rational()


def test_galois_criterion_matches_rationality():
    # a is rational iff every zeta -> zeta^k (k coprime N) fixes it
    rng = random.Random(123)
    cases = 0
    while cases < 100:
        order = rng.randrange(2, 40)
        a = _random_cyclo(rng, order)
        if rng.random() < 0.4:  # force some rational cases
            a = CycloNum.const(order, Fraction(rng.randrange(-9, 10), 2))
        fixed = all(a.galois(k) == a for k in range(1, order)
                    if gcd(k, order) == 1)
        assert fixed == a.is_rational()
        cases += 1


def test_galois_requires_coprime():
    with pytest.raises(ValueError):
        root_of_unity(6, 1).galois(2)


def test_scalar_ops_and_division():
    z = root_of_unity(8, 1)
    assert (2 * z - z) == z
    assert (z / 2) * 2 == z
    assert ((z + 3) - 3) == z


def test_pow():
    z = root_of_unity(12, 1)
    assert z**0 == CycloNum.const(12, 1)
    assert z**7 == root_of_unity(12, 7)
    assert (1 + z)**3 == 1 + 3 * z + 3 * z * z + z * z * z
    with pytest.raises(ValueError):
        z**-1


def test_is_algebraic_integer():
    assert root_of_unity(12, 5).is_algebraic_integer()
    assert not (root_of_unity(12, 5) / 2).is_algebraic_integer()
    # 1/q scalars can still combine to an integer
    half = CycloNum.const(4, Fraction(1, 2))
    assert (half + half).is_algebraic_integer()


def test_immutability():
    z = root_of_unity(4, 1)
    with pytest.raises(AttributeError):
        z.order = 5


# -- the integer reduction against the Fraction reduction it replaced -------

def reference_canonical(order, coeffs):
    """Row-by-row reduction mod Phi_N on the coefficients as they are."""
    deg = len(cyclotomic_polynomial(order)) - 1
    work = list(coeffs[:deg])
    for j in range(deg, order):
        c = coeffs[j]
        if c:
            for i, ri in enumerate(_reduction_rows(order)[j - deg]):
                if ri:
                    work[i] += c * ri
    return tuple(work)


PRIMES_TO_60 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59]
ORDERS = st.one_of(st.sampled_from(PRIMES_TO_60), st.integers(1, 60))
INTS = st.integers(-10**6, 10**6)
FRACTIONS = st.fractions(min_value=-100, max_value=100, max_denominator=36)
SCALARS = st.one_of(INTS, FRACTIONS).filter(bool)


def coefficient_vectors(order):
    """All ints, all Fractions, or a mix of both with unrelated denominators.

    Vectors are sparse (up to 12 terms, positions drawn anywhere in 0..N-1)
    so that each example stays cheap to draw.
    """
    def vector(values):
        return st.dictionaries(st.integers(0, order - 1), values,
                               max_size=12).map(
            lambda terms: [terms.get(k, 0) for k in range(order)])
    return st.one_of(vector(INTS), vector(FRACTIONS),
                     vector(st.one_of(INTS, FRACTIONS)))


def assert_matches_reference(value, ref):
    canon = value.canonical()
    assert canon == ref
    assert [str(c) for c in canon] == [str(c) for c in ref]
    assert value.is_rational() == (not any(ref[1:]))
    if any(ref[1:]):
        with pytest.raises(NotRational):
            value.reduce_to_rational()
    else:
        assert value.reduce_to_rational() == ref[0]
    assert value.is_algebraic_integer() == \
        all(Fraction(c).denominator == 1 for c in ref)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_integer_reduction_matches_the_fraction_reduction(data):
    order = data.draw(ORDERS)
    coeffs = data.draw(coefficient_vectors(order))
    value = CycloNum(order, coeffs)
    assert_matches_reference(value, reference_canonical(order, coeffs))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_scaling_a_reduced_value_equals_reducing_the_result(data):
    order = data.draw(ORDERS)
    value = CycloNum(order, data.draw(coefficient_vectors(order)))
    scalar = data.draw(SCALARS)
    value.canonical()  # the reduced form that * and / carry along
    for result in (value / scalar, value * scalar, scalar * value):
        assert_matches_reference(
            result, reference_canonical(order, result.coeffs))
        fresh = CycloNum(order, result.coeffs)
        assert result == fresh and hash(result) == hash(fresh)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_equality_and_hash_across_representations(data):
    order = data.draw(ORDERS)
    ints = data.draw(st.lists(INTS, min_size=order, max_size=order))
    scalar = data.draw(SCALARS)
    plain = CycloNum(order, ints)
    as_fractions = CycloNum(order, [Fraction(c) for c in ints])
    round_trip = CycloNum(order, [c * scalar for c in ints]) / scalar
    for other in (as_fractions, round_trip):
        assert other == plain and hash(other) == hash(plain)
        assert [str(c) for c in other.canonical()] == \
            [str(c) for c in plain.canonical()]


def test_halving_twice_z_is_z():
    z = root_of_unity(10, 3)
    two_z = 2 * z
    two_z.canonical()
    assert two_z / 2 == z and hash(two_z / 2) == hash(z)
    assert (two_z / 2).canonical() == z.canonical()
