"""Exact computation in finite-dimensional alternative *-algebras.

Everything runs over the Gaussian rationals with exact arithmetic: algebra
construction from structure constants, axiom checkers with witnesses,
Peirce decompositions for a symmetric idempotent, the left-nested *-Jordan
product and its identity catalog, and a falsification harness for candidate
maps between algebras.
"""

from types import ModuleType as _ModuleType

from .algebra import (Algebra, AlgebraError, AxiomReport, CheckResult,
                      Element, Witness, check_alternative, check_axioms,
                      check_involution, check_unit)
from .constructions import (ConstructionError, cayley_dickson,
                            change_of_basis, direct_sum, matrix_algebra,
                            zorn_algebra)
from .formats import (FormatError, algebra_from_dict, algebra_to_dict,
                      canonical_json, load_algebra_file, load_map_file,
                      map_from_dict, map_to_dict, resolve_algebra)
from .jordan import (CATALOG, CatalogReport, EntryAudit, EntryRun,
                     IdentityEntry, IdentitySample, audit_catalog,
                     catalog_entry, collapse_prefix, jordan_star, q_star,
                     verify_identity)
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
                     find_symmetric_idempotents, peirce_decompose,
                     random_component, require_star_algebra_laws,
                     spade_pair)
from .sampling import (derive_rng, random_combination, random_element,
                       random_scalar)
from .scalars import (I, MINUS_ONE, ONE, Scalar, ScalarError, TWO, ZERO,
                      format_scalar, half_power, parse_scalar)

__version__ = "0.1.0"

# every public name imported above, but no submodule object
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
