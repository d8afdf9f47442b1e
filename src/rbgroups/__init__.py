"""Rota-Baxter operators of weight 1 on finite groups.

A small computational toolkit: finite groups as integer-indexed Cayley
tables (given directly or closed from permutation generators), subgroup
lattices, automorphisms, operator verification and construction,
exhaustive enumeration on small groups, equivalence orbits, and the
splitting classification pipeline.
"""

__version__ = "0.1.0"

from .automorphisms import (aut_generators, automorphism_group,
                            extend_by_generator_images, find_isomorphism,
                            is_isomorphic)
from .catalog import group_from_json, named_group, out_of_scale_entry
from .fields import SmallField, field
from .constructions import (ExtensionData, LemmaR2Instance, extension_construct,
                            extension_search, hom_to_abelian, lemma_r2_construct,
                            lemma_r2_search, lift_from_factor, paper16_fixture,
                            splitting_from_exact)
from .enumeration import (ClassificationReport, EquivalenceClass, QTransform,
                          brute_force_rb, classify_equivalence, classify_splitting,
                          enumerate_rb, graph_key, nonsplitting_obstruction,
                          psl2_expected_s, q_transform_generators)
from .errors import (InputFormatError, OutOfScaleError, PropertyFailure,
                     RBGroupsError, ResourceCapError)
from .groups import FiniteGroup
from .maps import GroupMap, identity_map, inner_automorphism
from .naming import abelian_invariants, structure_name
from .rb import (RBOperator, RBStructureReport, SuiteVerdict, VerifyResult,
                 btilde, conjugate_rb, derived_group, im_bbt, image,
                 is_splitting, kernel, make_rb, prop_initial_suite,
                 structure_report, trivial_e, trivial_inv, verify_rb)
from .subgroups import (Factorization, Subgroup, all_subgroups, closure,
                        conjugate_subgroup, derived_subgroup,
                        exact_factorizations, intersection, is_normal,
                        is_simple, normal_closure, normalizer_mask, product_set,
                        quotient, quotient_with_projection, trivial_subgroup,
                        whole_group)

__all__ = [name for name in dir() if not name.startswith("_")]
