"""Continuous-time quantum walks on Hermitian and oriented graphs:
construction of the state-transfer families, exact and numeric transfer
certification, and the universal-transfer classification search."""

from .constructions import (FamilyBundle, OrientedGraph, build_family,
                            build_family_spec, c4_matrix,
                            c4_tensor_construction, one_way_family_4,
                            one_way_family_8, oriented_cycle,
                            oriented_hypercube, oriented_k2, oriented_k3,
                            oriented_to_hermitian, rooted_looped_path_product,
                            rooted_star_product, rooted_star_spectrum,
                            upst_circulant)
from .linalg import (HermitianMatrix, SpectralDecomposition,
                     hermitian_from_entries, kron, spectral_decomposition,
                     transition_matrix)
from .numtheory import (PI, RelationLattice, Surd, Transcendental,
                        charpoly_mod2, float_relation_probe, relation_lattice,
                        square_free_part)
from .star import StarVerdict, classify_star_m, star_support_surds
from .transfer import (QuarrelSet, TransferVerdict, align_exact_spectrum,
                       certify_pgst, check_periodicity, eigenvalue_support,
                       fidelity_sweep, pgst_verdict, pst_verdict,
                       strong_cospectrality)
from .upst_search import (UPSTReport, charpoly_rule_out, exhaustive_rule_out,
                          nk_table, sigma_bound_filter, spectrum_candidates,
                          upst_necessary_conditions)

__version__ = "0.1.0"
