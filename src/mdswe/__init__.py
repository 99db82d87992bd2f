"""Exact partition weight enumerators of MDS codes and their applications:
averaged binary images, MacWilliams duality, the uniform-coordinate-weight
property, and bounded-distance / ML-bound decoder error curves.

The names below load their module on first access (PEP 562), so
``import mdswe`` is cheap.  A closed-form computation (``pwe``, ``binary``
and ``errprob`` on ``rs:`` specs, the multiuser script) loads only
``primes``, ``mds_enum``, ``binary_avg``, ``errorprob`` and ``cli``:
never numpy, ``dataclasses``, the field arithmetic (``gf``),
``linear_code``, ``poly``, the nested-sum oracle (``nested_sum``) or the
verification suites.  Its records (``MdsParams``, ``Condition``,
``ChannelPoint``, ``ErrorCurve``) are named tuples, each equal to the
plain tuple of its fields, and its enumerator table is a plain
``PweTable``, the type every enumerator returns.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports from the package
_EXPORTS = {
    "gf": ("Field", "field_from_order", "parse_field_spec"),
    "linear_code": ("DEFAULT_ENUMERATION_BUDGET", "LinearCode", "Partition",
                    "brute_force_pwe", "brute_force_weights", "code_from_generator",
                    "dual", "min_distance", "rm1_code", "rs_code", "support_histogram"),
    "mds_enum": ("MdsParams", "PweTable", "coordinate_weight_sum", "fixed_support_counts",
                 "iowe", "pwe_product", "pwgf", "weight_distribution"),
    "nested_sum": ("check_convolution_identity", "check_subset_identity", "psi",
                   "pwe_direct", "pwe_direct_table"),
    "binary_avg": ("avg_binary_iowe", "avg_binary_wgf", "binomial_approx",
                   "bits_per_symbol"),
    "duality": ("PropertyAReport", "PropertyAWitness", "dual_property_a", "krawtchouk",
                "macwilliams_pwe", "property_a_check"),
    "errorprob": ("FREE", "FULL", "ZERO", "ChannelPoint", "Condition", "ErrorCurve",
                  "at_most", "channel_map", "error_curve", "parse_condition", "snr_grid"),
    "montecarlo": ("BmSphereOracle",),
    "poly": ("SparsePoly",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
