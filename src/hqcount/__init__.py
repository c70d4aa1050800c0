"""Exact finite hypergeometric sums over finite fields.

The package computes H_q(alpha, beta | t) in exact arithmetic -- Gauss
and Jacobi sums live in cyclotomic fields with rational coefficients --
and verifies the identities tying those values to brute-force point
counts on explicit varieties and their toric completions.

The public names below are loaded on first use (PEP 562), so importing
the package, or one submodule, does not import every module.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining submodule
_EXPORTS = {name: module for module, names in (
    ("cyclo", "CycloNum root_of_unity"),
    ("errors", "HqcountError"),
    ("field", "FieldTable build_field omega_log trace_exponent"),
    ("gauss", "GaussTable gauss_inverse gauss_sum hasse_davenport_defect "
              "jacobi_sum stickelberger_sigma table_for"),
    ("hyper", "CyclotomicData HGParams HValue Provenance "
              "cyclotomic_from_params greene_value h_general h_over_q "
              "hyp_exponential_sum landau_bound params_from_cyclotomic "
              "s_multiplicity s_sum"),
    ("report", "CountReport report_serialize"),
    ("toric", "Cell cell_gcd cell_sum_identity counting_number "
              "enumerate_cells p_rs"),
    ("variety", "AltVarietySpec alt_variety_count completed_count "
                "component_count curve_counts main_theorem_check "
                "surface_count torus_count"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
