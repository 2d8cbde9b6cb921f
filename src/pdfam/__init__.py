"""Partitioned difference families: constructions, certification, search.

The library builds families whose multiset of within-block differences
covers the group (or the group minus a forbidden subgroup) uniformly, and
certifies every constructed object with an independent brute-force count.
"""

from .catalog import (CatalogCertification, catalog_family, certify_catalog,
                      hds16_family, order32_family, trivial_hds_family)
from .constructions import (COMPLETION_PER_BLOCK, COMPLETION_SINGLE,
                            COMPLETIONS, BadResidueClassError,
                            ConstructionError, ConstructionResult,
                            DivisorTooSmallError, ExpansionRecipe,
                            ExpansionResult, NoHdsError,
                            NotADifferenceSetError, NotHadamardError,
                            NoValidYError, ParameterMismatchError,
                            Prediction, RecipeInvariantError, complement_pdf,
                            double_sdf, expand_from_hds, expand_hadamard_pdf,
                            expand_nonabelian32, hadamard_pdf_from_hds,
                            make_recipe, paley_double_sdf, ring_for_modulus)
from .groups import (DEFAULT_CONVENTION, CyclicGroup, DiffConvention,
                     FiniteGroup, ProductGroup, Semidirect32, TableGroup,
                     convention_from_name, is_subgroup, make_group)
from .multisets import (DF, DIFFERENCE_MULTISET, DS, INVALID, PDF,
                        RELATIVE_PDF, SDF, DesignFamily, VerificationReport,
                        Witness, delta_block, delta_family, make_family,
                        verify)
from .rings import (EvenOrderError, GaloisField, NotPrimeError, ProductRing,
                    Ring, YCheck, Zmod, build_y_powers, check_y_condition,
                    factorize, is_prime, make_ring,
                    maximal_prime_power_divisors, starter_reps)
from .search import (HdsSearchResult, OrderMismatchError, SearchBounds,
                     YSearchResult, abelian_groups_order16,
                     hds_parameters, max_unit_y_search, search_hds)

__version__ = "0.1.0"
