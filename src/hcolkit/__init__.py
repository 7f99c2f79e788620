"""Kernelization toolkit for target-graph homomorphism problems
parameterized by vertex cover, with exact brute-force oracles.

The library half exposes graph families and the exhaustive
homomorphism oracle (`graphs`, `hom`), the non-adjacency witness
number and its structural bounds (`witness`), exact finite-field
linear algebra and determinant polynomials (`gf`, `polys`), faithful
vector representations (`reps`), the two kernelization algorithms
(`kernels`), and the gadget-based reductions (`reductions`).  The
`hcol` console script fronts all of it.
"""

from .config import Ceilings, ceilings_from_env
from .errors import CeilingError, HcolError, InvariantViolation
from .graphs import (
    Graph,
    common_neighbors,
    make_complete,
    make_cycle,
    make_empty,
    make_kneser,
    make_path,
    make_petersen,
    make_random,
    read_graph,
    write_graph,
)
from .hom import Homomorphism, compute_core, enumerate_homomorphisms, find_homomorphism, is_core
from .witness import (
    WitnessCertificate,
    clique_number,
    degeneracy,
    find_b_ml_copy,
    make_b_pattern,
    max_degree,
    witness_bound_via_b,
    witness_number,
)
from .gf import FieldElement, FieldSpec, field_extension_above, field_make
from .polys import BasisSelection, SparsePoly, det_poly, poly_basis_select
from .reps import (
    Representation,
    check_faithful,
    kneser_rep,
    normalize_first_entry,
    ortho_graph,
    vandermonde_rep,
)
from .kernels import (
    KernelResult,
    VertexCoverInstance,
    algebraic_kernel,
    combinatorial_kernel,
    greedy_cover_2approx,
    kernel_size_report,
    read_instance,
    verify_kernel_equivalence,
    write_instance,
)
from .reductions import (
    CnfFormula,
    EdgeGadget,
    find_edge_gadget,
    find_tight_witness_set,
    nae_sat_brute,
    read_dimacs,
    reduce_list_to_plain,
    reduce_naesat_to_hcol,
    verify_edge_gadget,
    write_dimacs,
)

__version__ = "0.1.0"
