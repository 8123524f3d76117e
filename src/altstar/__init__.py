"""Exact computation in finite-dimensional alternative *-algebras.

Everything runs over the Gaussian rationals with exact arithmetic: algebra
construction from structure constants, axiom checkers with witnesses,
Peirce decompositions for a symmetric idempotent, the left-nested *-Jordan
product and its identity catalog, and a falsification harness for candidate
maps between algebras.
"""

from .algebra import (Algebra, AlgebraError, AxiomReport, CheckResult,
                      Element, Witness, check_alternative, check_axioms,
                      check_involution, check_unit)
from .constructions import (ConstructionError, cayley_dickson,
                            change_of_basis, direct_sum, matrix_algebra,
                            zorn_algebra)
from .formats import (FormatError, algebra_from_dict, algebra_to_dict,
                      canonical_json, load_algebra_file, load_map_file,
                      map_from_dict, map_to_dict, resolve_algebra)
from .jordan import (CATALOG, CatalogReport, EntryRun, IdentityEntry,
                     IdentitySample, audit_catalog, catalog_entry,
                     collapse_prefix, jordan_star, q_star, verify_identity)
from .maps import (AlgebraMap, ConditionReport, IsomorphismReport, MapError,
                   MapWitness, bijective_claim,
                   check_jordan_condition, check_star_ring_isomorphism,
                   check_unital, conjugation_map, identity_map,
                   matrix_swap_conjugation, patched_map, sample_pool,
                   scale_map, star_as_map, zorn_rotation_map)
from .peirce import (IJ_PAIRS, IdempotentInfo, PeirceError,
                     PeirceRelationsReport, PeirceSystem,
                     SpadeResult, check_peirce_relations, check_spade,
                     classify_idempotent, component_of,
                     find_symmetric_idempotents, is_symmetric_idempotent,
                     peirce_decompose, random_component, spade_pair)
from .sampling import (derive_rng, random_combination, random_element,
                       random_scalar)
from .scalars import (I, MINUS_ONE, ONE, Scalar, ScalarError, TWO, ZERO,
                      format_scalar, half_power, integer, parse_scalar,
                      rational)

__version__ = "0.1.0"

__all__ = [
    "Algebra", "AlgebraError", "AlgebraMap", "AxiomReport", "CATALOG",
    "CatalogReport", "CheckResult", "ConditionReport", "ConstructionError",
    "Element", "EntryRun", "FormatError", "I", "IJ_PAIRS", "IdempotentInfo",
    "IdentityEntry", "IdentitySample", "IsomorphismReport", "MINUS_ONE",
    "MapError", "MapWitness", "ONE", "PeirceError", "PeirceRelationsReport",
    "PeirceSystem", "Scalar", "ScalarError", "SpadeResult",
    "TWO", "Witness", "ZERO", "algebra_from_dict", "algebra_to_dict",
    "audit_catalog", "bijective_claim", "canonical_json",
    "catalog_entry", "cayley_dickson", "change_of_basis",
    "check_alternative", "check_axioms", "check_involution",
    "check_jordan_condition", "check_peirce_relations", "check_spade",
    "check_star_ring_isomorphism", "check_unit", "check_unital",
    "classify_idempotent", "collapse_prefix", "component_of",
    "conjugation_map", "derive_rng", "direct_sum",
    "find_symmetric_idempotents", "format_scalar", "half_power",
    "identity_map", "integer", "is_symmetric_idempotent", "jordan_star",
    "load_algebra_file", "load_map_file", "map_from_dict", "map_to_dict",
    "matrix_algebra", "matrix_swap_conjugation", "parse_scalar",
    "patched_map", "peirce_decompose", "q_star", "random_combination",
    "random_component", "random_element",
    "random_scalar", "rational",
    "resolve_algebra", "sample_pool", "scale_map", "spade_pair",
    "star_as_map", "verify_identity", "zorn_algebra", "zorn_rotation_map",
]
