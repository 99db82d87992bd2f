"""Exact partition weight enumerators of MDS codes and their applications:
averaged binary images, MacWilliams duality, the uniform-coordinate-weight
property, and bounded-distance / ML-bound decoder error curves."""

from .gf import Field, FieldElement, field_from_order, parse_field_spec
from .linear_code import (DEFAULT_ENUMERATION_BUDGET, LinearCode, Partition, PweTable,
                          brute_force_pwe, brute_force_weights, code_from_generator,
                          dual, min_distance, rm1_code, rs_code, support_histogram)
from .mds_enum import (MdsParams, check_convolution_identity, check_subset_identity,
                       coordinate_weight_sum, fixed_support_count, iowe, psi,
                       pwe_direct, pwe_direct_table, pwe_product, pwgf, split_we,
                       weight_at, weight_distribution)
from .binary_avg import (avg_binary_iowe, avg_binary_pwgf, avg_binary_wgf,
                         binomial_approx, bit_substitution_poly, bits_per_symbol)
from .duality import (PropertyAReport, PropertyAWitness, dual_property_a, krawtchouk,
                      macwilliams_pwe, macwilliams_wgf, property_a_check)
from .errorprob import (FREE, FULL, ZERO, ChannelPoint, Condition, ErrorCurve,
                        at_most, bep_curve, bep_ml_union, bm_curve, cep_bm,
                        cep_ml_union, channel_map, conditional_pwgf, make_union_bound,
                        multiuser_bep, multiuser_curve, multiuser_sep, parse_condition,
                        sep_bm, snr_grid, sphere_distance_prob, user_iowe)
from .montecarlo import BmSphereOracle
from .poly import SparsePoly

__version__ = "0.1.0"
