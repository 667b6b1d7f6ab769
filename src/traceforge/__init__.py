"""traceforge: exact arithmetic for numerical semigroup rings and their trace ideals."""

__version__ = "0.1.0"

from .errors import *  # noqa: F401,F403
from .fields import QQ, GF, Matrix, PrimeField, RationalField, rank, rref, solve_homogeneous
from .semigroups import (NumericalSemigroup, SemigroupIdeal, KunzVector,
                         natural_semigroup, parse_generators, canonical_value_set,
                         ValueSetCondition, value_set_condition,
                         cm_type_list_check, kunz_cone_classify, blowup,
                         lipman_sequence, is_arf, arf_closure, enumerate_semigroups,
                         EXTERIOR, BOUNDARY, INTERIOR)
from .ideals import (LaurentPoly, FractionalIdeal, unit_ideal, conductor_ideal,
                     integral_closure_ideal, maximal_ideal, ideal_from_generators,
                     add, multiply, shift, dilate, colon, equals, contains,
                     contains_ideal, value_set, canonical_fractional_ideal, adjoin,
                     endomorphism_ring, minimal_generator_count)
from .trace import (trace, is_trace_ideal, has_free_summand, TraceEnumeration,
                    TraceIdealInfo, enumerate_trace_ideals, BijectionReport,
                    verify_bijection, FamilyProbeReport, family_probe,
                    verify_normalization_union, minimal_trace_classification,
                    MINIMAL_TRACE_SET, LARGER)
from .artin import (ArtinAlgebra, SubIdeal, ideal_generated_by, truncated_dvr,
                    square_zero_two_vars, gorenstein_two_generators,
                    semigroup_quotient, socle, hom_trace, enumerate_ideals,
                    enumerate_trace_ideals_artinian, gorenstein_family_separation)
