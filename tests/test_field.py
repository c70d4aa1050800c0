import random

import pytest

from hqcount.cyclo import CycloNum, root_of_unity
from hqcount.errors import CacheFormatError, NotPrimePower, ZeroHasNoLog
from hqcount.field import (build_field, build_field_cached, load_field,
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
