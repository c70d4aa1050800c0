import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqcount.catalog import prime_powers
from hqcount.cyclo import CycloNum, root_of_unity
from hqcount.errors import CacheFormatError, NotPrimePower, ZeroHasNoLog
from hqcount.field import (_find_modulus, _poly_mulmod, _prime_power,
                           build_field, build_field_cached, load_field,
                           omega_log, save_field, trace_exponent,
                           with_generator)

from conftest import field


def test_prime_field_seven():
    f = field(7)
    assert (f.p, f.f) == (7, 1)
    assert len(f.exp_table) == 6
    assert len(f.log_table) == 7 and len(f.trace_table) == 7


def naive_irreducible_quadratics_mod3():
    """Oracle: monic quadratics over F_3 without roots, lex by (c0, c1)."""
    out = []
    for c0 in range(3):
        for c1 in range(3):
            if all((x * x + c1 * x + c0) % 3 for x in range(3)):
                out.append((c0, c1, 1))
    return out


def test_f9_modulus_is_x_squared_plus_one():
    # exhaustive irreducibility search: x^2 + 1 is the lex-first quadratic
    oracle = naive_irreducible_quadratics_mod3()
    assert oracle[0] == (1, 0, 1)
    assert field(9).modulus == (1, 0, 1)


def test_not_prime_power():
    with pytest.raises(NotPrimePower):
        build_field(6)
    with pytest.raises(NotPrimePower):
        build_field(12)
    with pytest.raises(NotPrimePower):
        build_field(1)


def test_q_cap():
    with pytest.raises(ValueError):
        build_field(2**21, max_q=10**6)


def test_trace_prime_field_is_identity():
    f = field(7)
    assert trace_exponent(f, 3) == 3
    assert trace_exponent(f, 0) == 0


def test_trace_f9_adjoined_root():
    # Frobenius oracle: t + t^3 for the adjoined root t (code 3 = digits 0,1)
    f = field(9)
    t = 3
    t3 = f.mul(f.mul(t, t), t)
    assert f.add(t, t3) == 0
    assert trace_exponent(f, t) == 0


@pytest.mark.parametrize("q", [4, 7, 9, 16, 25, 27])
def test_trace_is_linear_and_frobenius_stable(q):
    f = field(q)
    rng = random.Random(q)
    for _ in range(40):
        x, y = rng.randrange(q), rng.randrange(q)
        assert trace_exponent(f, f.add(x, y)) == \
            (trace_exponent(f, x) + trace_exponent(f, y)) % f.p
        assert trace_exponent(f, f.pow_element(x, f.p) if x else 0) == \
            trace_exponent(f, x)


def smallest_primitive_root_mod7():
    for g in range(2, 7):
        seen = {pow(g, k, 7) for k in range(1, 7)}
        if len(seen) == 6:
            return g
    raise AssertionError


def test_omega_log_examples():
    f = field(7)
    assert omega_log(f, 1) == 0
    assert smallest_primitive_root_mod7() == 3
    assert f.generator == 3
    assert omega_log(f, 3) == 1
    with pytest.raises(ZeroHasNoLog):
        omega_log(f, 0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49])
def test_exp_log_bijection(q):
    f = field(q)
    assert f.exp_table[0] == 1
    seen = set(f.exp_table)
    assert len(seen) == q - 1 and 0 not in seen
    for k, code in enumerate(f.exp_table):
        assert f.log_table[code] == k
    # the generator has order exactly q-1
    for k in range(1, q - 1):
        assert f.exp_table[k] != 1


@pytest.mark.parametrize("q", [5, 7, 9, 13, 25, 27])
def test_log_of_minus_one(q):
    f = field(q)
    assert f.log_minus_one() == (q - 1) // 2


@pytest.mark.parametrize("q", [7, 9, 13])
def test_character_orthogonality(q):
    f = field(q)
    qq = q - 1
    for k in range(1, qq):
        total = CycloNum.zero(qq)
        for x in range(1, q):
            total = total + root_of_unity(qq, k * f.log_table[x])
        assert total.is_zero()


@pytest.mark.parametrize("q", [4, 7, 9, 25])
def test_additive_orthogonality(q):
    f = field(q)
    for c in (1, 2 % q or 1, q - 1):
        if c == 0:
            continue
        total = CycloNum.zero(f.p)
        for x in range(q):
            total = total + root_of_unity(f.p, f.trace_table[f.mul(c, x)])
        assert total.is_zero()


@pytest.mark.parametrize("q", [4, 7, 9, 25, 27])
def test_fourier_inversion(q):
    # reconstruct a random function on the multiplicative group exactly
    f = field(q)
    qq = q - 1
    rng = random.Random(q * 13)
    values = [rng.randrange(-5, 6) for _ in range(qq)]  # indexed by log
    coeffs = []
    for m in range(qq):
        gm = CycloNum.zero(qq)
        for k in range(qq):
            gm = gm + values[k] * root_of_unity(qq, -m * k)
        coeffs.append(gm)
    for k in range(qq):
        recon = CycloNum.zero(qq)
        for m in range(qq):
            recon = recon + coeffs[m] * root_of_unity(qq, m * k)
        assert recon / qq == CycloNum.const(qq, values[k])


def test_determinism():
    assert build_field(25) == build_field(25)
    assert build_field(27).exp_table == build_field(27).exp_table


@pytest.mark.parametrize("q", [7, 9, 16])
def test_cache_round_trip(tmp_path, q):
    f = build_field(q)
    path = save_field(f, str(tmp_path))
    assert load_field(path) == f
    assert build_field_cached(q, str(tmp_path)) == f


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "hqft-7.tbl"
    path.write_bytes(b"NOTME" + b"\x00" * 40)
    with pytest.raises(CacheFormatError):
        load_field(str(path))
    # build_field_cached falls back to rebuilding
    assert build_field_cached(7, str(tmp_path)) == build_field(7)


def test_cache_builds_fresh_file(tmp_path):
    f = build_field_cached(13, str(tmp_path))
    assert (tmp_path / "hqft-13.tbl").exists()
    assert f == build_field(13)


def test_every_flipped_bit_is_rebuilt(tmp_path):
    # a well-sized but damaged file must never be trusted
    fresh = build_field(9)
    path = save_field(fresh, str(tmp_path))
    with open(path, "rb") as fh:
        good = fh.read()
    for pos in range(len(good)):
        for bit in range(8):
            bad = bytearray(good)
            bad[pos] ^= 1 << bit
            with open(path, "wb") as fh:
                fh.write(bad)
            with pytest.raises(CacheFormatError):
                load_field(path)
            assert build_field_cached(9, str(tmp_path)) == fresh
            with open(path, "rb") as fh:
                assert fh.read() == good  # rebuilt and saved again


def test_flipped_exp_byte_gives_fresh_results(tmp_path, capsys):
    from hqcount import cli
    argv = ["hq", "--p", "5", "--q", "1,1,1,1,1", "--field", "16",
            "--t", "all", "--format", "csv"]
    assert cli.run(argv) == 0
    expected = capsys.readouterr().out
    path = save_field(build_field(16), str(tmp_path))
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[5 + 4 * (3 + 5) + 4 * 3] ^= 0x04  # exp[3], after header and modulus
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(CacheFormatError):
        load_field(path)
    assert cli.run(argv + ["--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == expected


def test_interrupted_write_leaves_no_table(tmp_path, monkeypatch):
    import os

    def interrupted(src, dst):
        raise KeyboardInterrupt
    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_field(build_field(13), str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_cached_table_keeps_the_q_cap(tmp_path):
    save_field(build_field(13), str(tmp_path))
    with pytest.raises(ValueError):
        build_field_cached(13, str(tmp_path), max_q=11)


def test_with_generator():
    f = field(13)
    alt = with_generator(f, f.exp_table[5])  # 5 coprime to 12
    assert alt.generator != f.generator
    assert sorted(alt.exp_table) == sorted(f.exp_table)
    for k in range(1, 12):
        assert alt.exp_table[k] != 1
    with pytest.raises(ValueError):
        with_generator(f, f.exp_table[2])  # order 6 element
    with pytest.raises(ValueError):
        with_generator(f, 0)


# -- addition by Zech logarithms against digit-vector references ------------

def prime_powers_with_f_above_one(bound):
    out = []
    for q in range(4, bound + 1):
        try:
            p, f = _prime_power(q)
        except NotPrimePower:
            continue
        if f > 1:
            out.append((q, p, f))
    return out


def digits(code, p, f):
    return [code // p**i % p for i in range(f)]


def undigits(ds, p):
    return sum(d * p**i for i, d in enumerate(ds))


def naive_is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..f//2."""
    f = len(poly) - 1
    for deg in range(1, f // 2 + 1):
        for low in product(range(p), repeat=deg):
            div = low + (1,)
            rem = list(poly)
            for i in range(f, deg - 1, -1):
                c = rem[i]
                if c:
                    for j in range(deg + 1):
                        rem[i - deg + j] = (rem[i - deg + j] - c * div[j]) % p
            if not any(rem):
                return False
    return True


def full_search_modulus(p, f):
    """Every monic candidate, constant term zero included, lex from c0."""
    for low in product(range(p), repeat=f):
        if naive_is_irreducible(low + (1,), p):
            return low + (1,)
    raise AssertionError


@pytest.mark.parametrize("q,p,f", prime_powers_with_f_above_one(1024))
def test_modulus_equals_the_full_search(q, p, f):
    assert _find_modulus(p, f) == full_search_modulus(p, f)


@pytest.mark.parametrize("q,p,f", prime_powers_with_f_above_one(256))
def test_add_neg_sub_equal_the_digit_loop(q, p, f):
    F = field(q)
    vec = [digits(c, p, f) for c in range(q)]
    neg = [undigits([-d % p for d in v], p) for v in vec]
    assert [F.neg(a) for a in range(q)] == neg
    for a in range(q):
        va = vec[a]
        row = [undigits([(x + y) % p for x, y in zip(va, vb)], p)
               for vb in vec]
        assert [F.add(a, b) for b in range(q)] == row
        assert [F.sub(a, neg[b]) for b in range(q)] == row
    assert F.minus_one == neg[1]


@pytest.mark.parametrize("q", [2**12, 3**7, 5**5, 7**4])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms_on_large_prime_powers(q, data):
    F = field(q)
    a, b, c = (data.draw(st.integers(0, q - 1)) for _ in range(3))
    assert F.add(a, F.neg(a)) == 0
    assert F.add(a, b) == F.add(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(c, F.add(a, b)) == F.add(F.mul(c, a), F.mul(c, b))
    assert F.sub(F.add(a, b), b) == a


def test_exp_is_the_generator_power_sequence():
    # exp is built by one multiply-by-g step per power; the reference here
    # is the general polynomial product, for every prime power q <= 1024
    for q in prime_powers(1024):
        F = field(q)
        g = digits(F.generator, F.p, F.f)
        cur = digits(1, F.p, F.f)
        for k in range(q - 1):
            assert F.exp_table[k] == undigits(cur, F.p), (q, k)
            cur = _poly_mulmod(cur, g, F.modulus, F.p)
        assert undigits(cur, F.p) == 1


@pytest.mark.parametrize("q", [16, 27, 25])
def test_tables_with_another_generator_add_identically(q):
    F = field(q)
    alt = with_generator(F, F.exp_table[7])  # 7 is prime to 15, 24, 26
    assert alt.generator != F.generator
    for a in range(q):
        assert alt.neg(a) == F.neg(a)
        assert [alt.add(a, b) for b in range(q)] == \
            [F.add(a, b) for b in range(q)]


# sha256 of save_field's bytes, frozen from the digit-loop field code:
# they pin the modulus, generator, exp/log and trace tables.
FROZEN_TABLES = {
    4: "982763fa469504fc2b302a793cfa3b1b77b1ad803dc75d1f8d62b85a8b07bc62",
    9: "7d8d1bd9c7e587532c8c74756de6244cba0d2634c317b725b7e71f44668a2a59",
    16: "3a74b41d3b1c9a168ac997db0b95aafd63684151fd110777613184192c617edd",
    27: "a86bf269160ca86169fd07bf350edc37230e59af704e79a8e9039e1f9d8664e7",
    64: "0b62e9ba024c7fd15caa1d9718770b4e0dfcf4869f08e51dbec9a38576c53fab",
    81: "ea35bc4eb0ef523b0969e3291bfc531c873051a44c198353839cd2618997d664",
    125: "485d040121bbae992ff6c9807d6d2af8dcd5c0384ac5475294e5849cd060c0f2",
    243: "586b0283be11f52be9c059db90888816204f29d9d07552cca629dc72c0305cac",
    256: "b38d8074029e67e1dfac6a0cd7d4581395d8b9a335882070b90382b5741fc65c",
    1024: "62d94e6241a0dd0248c2939c33ae3602cc00906c3d3bff6b04dca09c4e8d7ad6",
}


@pytest.mark.parametrize("q", sorted(FROZEN_TABLES))
def test_saved_tables_are_frozen(tmp_path, q):
    path = save_field(field(q), str(tmp_path))
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == FROZEN_TABLES[q]
    loaded = load_field(path)
    assert loaded.zech_table == field(q).zech_table
