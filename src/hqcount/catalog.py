"""The standing verification catalog and field-selection helpers."""

from __future__ import annotations

from .errors import NotPrimePower
from .field import _prime_power
from .hyper import CyclotomicData, params_from_cyclotomic

# Exponent lists of the standing catalog, in the order used by the
# verification suites.
CATALOG_LISTS: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = (
    ((3,), (1, 2)),
    ((3,), (1, 1, 1)),
    ((2, 2), (1, 1, 1, 1)),
    ((4,), (2, 1, 1)),
    ((5,), (1, 1, 1, 1, 1)),
)


def catalog() -> list[CyclotomicData]:
    return [params_from_cyclotomic(p, q) for p, q in CATALOG_LISTS]


def ono_alt_spec() -> AltVarietySpec:
    """The block form of the Legendre parameters (2,2;1,1,1,1)."""
    from .variety import AltVarietySpec
    return AltVarietySpec((2, -1, -1, 2, -1, -1), ((1, 2, 3), (4, 5, 6)))


def prime_powers(bound: int) -> list[int]:
    out = []
    for q in range(2, bound + 1):
        try:
            _prime_power(q)
        except NotPrimePower:
            continue
        out.append(q)
    return out


def admissible_fields(data: CyclotomicData, bound: int,
                      extra: tuple[int, ...] = ()) -> list[int]:
    """Prime powers q <= bound (plus extras) coprime to all exponents."""
    qs = []
    for q in prime_powers(bound) + list(extra):
        p, _ = _prime_power(q)
        if all(v % p for v in data.p_list + data.q_list):
            qs.append(q)
    return sorted(set(qs))
