"""Faithful orthogonal and independent vector representations of graphs.

An independent representation assigns each vertex a vector lying
outside the span of its neighbors' vectors; it is *faithful* when
membership in that span holds exactly for adjacent pairs.  An
orthogonal representation assigns non-self-orthogonal vectors with
orthogonality exactly on edges (faithful variant); every faithful
orthogonal representation is also a faithful independent one.

Constructions provided:

* ``vandermonde_rep`` - moment-curve vectors (1, a, a^2, ...) of
  dimension max-degree + 1; any d of them are linearly independent, so
  faithfulness is automatic.
* ``normalize_first_entry`` - an invertible change of basis over a
  large enough extension field making every first entry 1, by seeded
  sample-and-verify of a vector non-orthogonal to all representation
  vectors.
* ``kneser_rep`` - vectors supported exactly on each r-subset lying in
  the kernel of a Vandermonde-type matrix, compressed to dimension
  m - 2r + 2 by a seeded projection, accepted when every neighborhood
  span keeps its rank and every non-neighbor's vector stays outside it.
* ``ortho_graph`` - the orthogonality graph on all non-self-orthogonal
  vectors of F^d, carrying its identity representation.

All randomized existence arguments are implemented as seeded
sample-and-verify loops with a hard retry cap: probability is never
trusted, only the verified outcome.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .config import Ceilings, DEFAULT_CEILINGS
from .errors import CeilingError, InvariantViolation
from .gf import (
    FieldElement,
    FieldSpec,
    SpanBasis,
    field_extension_above,
    greedy_basis,
    int_vector,
    matrix_rank,
)
from .graphs import Graph, check_kneser, kneser_vertex_subsets, make_kneser

Vector = tuple[FieldElement, ...]

INDEPENDENT = "independent"
ORTHOGONAL = "orthogonal"


@dataclass(frozen=True)
class Representation:
    """A per-vertex vector assignment over one finite field."""

    graph: Graph
    spec: FieldSpec
    d: int
    vectors: tuple[Vector, ...]
    kind: str

    def __post_init__(self):
        if self.kind not in (INDEPENDENT, ORTHOGONAL):
            raise ValueError(f"unknown representation kind {self.kind!r}")
        if len(self.vectors) != self.graph.n:
            raise ValueError("one vector per vertex required")
        for vec in self.vectors:
            if len(vec) != self.d:
                raise ValueError("vector of wrong dimension")
            for x in vec:
                if x.spec != self.spec:
                    raise ValueError("vector entry from a different field")

    def has_unit_first_entries(self) -> bool:
        one = self.spec.one
        return all(vec[0] == one for vec in self.vectors)


@dataclass(frozen=True)
class FaithfulnessReport:
    ok: bool
    # (u, v, expected_edge) for the first ordered pair violating the iff
    counterexample: Optional[tuple[int, int, bool]] = None

    def __bool__(self) -> bool:
        return self.ok


def inner_product(x: Sequence[FieldElement], y: Sequence[FieldElement]) -> FieldElement:
    acc = x[0].spec.zero
    for a, b in zip(x, y):
        acc = acc + a * b
    return acc


def check_faithful(rep: Representation) -> FaithfulnessReport:
    """Verify the faithfulness iff for all ordered vertex pairs.

    Independent kind: x_u lies in span{x_w : w in N(v)} exactly when
    {u,v} is an edge (the diagonal u = v states the independence
    condition itself).  Orthogonal kind: all self inner products are
    nonzero and <x_u, x_v> = 0 exactly on edges.
    """
    g = rep.graph
    if rep.kind == ORTHOGONAL:
        for v in range(g.n):
            if inner_product(rep.vectors[v], rep.vectors[v]).is_zero():
                return FaithfulnessReport(False, (v, v, False))
        for u in range(g.n):
            for v in range(u + 1, g.n):
                orthogonal = inner_product(rep.vectors[u], rep.vectors[v]).is_zero()
                if orthogonal != g.has_edge(u, v):
                    return FaithfulnessReport(False, (u, v, g.has_edge(u, v)))
        return FaithfulnessReport(True)
    # a neighbor's vector lies in the span trivially, so the first
    # violation is a non-neighbor inside it
    _, bad = _neighborhood_ranks(rep.spec, g, rep.vectors)
    return FaithfulnessReport(True) if bad is None else FaithfulnessReport(False, (*bad, False))


def as_independent(rep: Representation) -> Representation:
    """Reinterpret an orthogonal representation as an independent one."""
    return Representation(rep.graph, rep.spec, rep.d, rep.vectors, INDEPENDENT)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def vandermonde_rep(g: Graph, spec: FieldSpec) -> Representation:
    """Faithful independent representation of dimension max-degree + 1.

    Vertex i receives (1, a_i, a_i^2, ..., a_i^(d-1)) for the first n
    field elements a_i in canonical enumeration order; any d such
    vectors form an invertible Vandermonde matrix.
    """
    if spec.order < g.n:
        raise ValueError(
            f"field of order {spec.order} too small for {g.n} distinct points"
        )
    d = g.max_degree() + 1 if g.n else 1
    vectors = []
    for i in range(g.n):
        alpha = spec.from_index(i)
        vec = [spec.one]
        for _ in range(d - 1):
            vec.append(vec[-1] * alpha)
        vectors.append(tuple(vec))
    rep = Representation(g, spec, d, tuple(vectors), INDEPENDENT)
    report = check_faithful(rep)
    if not report:
        raise InvariantViolation(f"vandermonde construction not faithful: {report}")
    return rep


def _complete_to_invertible(spec: FieldSpec, first_row: Vector, d: int) -> list[list[FieldElement]]:
    """Rows of an invertible d x d matrix with the given first row,
    followed by every standard basis vector e_i except the one at the
    last nonzero index of the first row (the only e_i in the span of the
    rows before it)."""
    nonzero = [i for i, x in enumerate(first_row) if not x.is_zero()]
    if not nonzero:
        raise ValueError("first row must be nonzero")
    return [list(first_row)] + [
        [spec.one if j == i else spec.zero for j in range(d)] for i in range(d) if i != nonzero[-1]
    ]


def normalize_first_entry(
    rep: Representation,
    *,
    seed: int = 0,
    ceilings: Ceilings = DEFAULT_CEILINGS,
) -> Representation:
    """Equivalent faithful representation with every first entry equal to 1.

    Moves to the smallest extension field K with |K| > n, finds y with
    <y, x_v> != 0 for all v (e_1 is tried first, then seeded random
    sampling with verification), applies an invertible matrix whose
    first row is y, and rescales each image to unit first entry.  Fails
    hard when the retry cap is exhausted.
    """
    if rep.kind != INDEPENDENT:
        raise ValueError("normalization expects an independent representation")
    g = rep.graph
    ext, embed = field_extension_above(rep.spec, g.n, ceilings=ceilings)
    vecs = [tuple(embed(x) for x in vec) for vec in rep.vectors]
    d = rep.d

    def valid(y: Vector) -> bool:
        return all(not inner_product(y, vec).is_zero() for vec in vecs)

    y = tuple([ext.one] + [ext.zero] * (d - 1))
    if not valid(y):
        rng = random.Random(seed)
        for _ in range(ceilings.retry_cap):
            y = tuple(ext.from_index(rng.randrange(ext.order)) for _ in range(d))
            if valid(y):
                break
        else:
            raise CeilingError(
                f"no normalizing vector found in {ceilings.retry_cap} seeded trials "
                f"(seed={seed}); rerun with another seed"
            )
    a = _complete_to_invertible(ext, y, d)
    out = []
    for vec in vecs:
        image = [inner_product(row, vec) for row in a]
        scale = image[0].inverse()
        out.append(tuple(x * scale for x in image))
    result = Representation(g, ext, d, tuple(out), INDEPENDENT)
    report = check_faithful(result)
    if not report:
        raise InvariantViolation(f"normalization broke faithfulness: {report}")
    return result


# ---------------------------------------------------------------------------
# Kneser construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KneserSystem:
    """Intermediate data of the Kneser construction, before projection.

    support_vectors[i] is the full-length vector of vertex i (support
    exactly its r-subset, killed by the Vandermonde-type matrix);
    neighborhood_dims[i] is the dimension of the span of the neighbors'
    vectors of vertex i.
    """

    graph: Graph
    m: int
    r: int
    spec: FieldSpec
    support_vectors: tuple[Vector, ...]
    neighborhood_dims: tuple[int, ...]


def kneser_field_threshold(m: int, r: int) -> int:
    """Smallest field order the construction accepts for K(m, r).

    The general-position projection must preserve the dimensions of one
    subspace per vertex plus one per ordered non-adjacent pair
    (diagonal included); a field larger than (m - t) * (count + 1)
    guarantees such a projection exists.  With n = C(m, r) vertices, each
    adjacent to the C(m - r, r) subsets disjoint from it, the count is
    n + n * (n - C(m - r, r)).
    """
    check_kneser(m, r)
    t = m - 2 * r + 2
    n = comb(m, r)
    count = n + n * (n - comb(m - r, r))
    return max((m - t) * (count + 1) + 1, m)


def kneser_system(m: int, r: int, spec: FieldSpec) -> KneserSystem:
    """Support vectors x_A with M x_A = 0 and the neighborhood subspace dims."""
    graph = make_kneser(m, r)
    subsets = kneser_vertex_subsets(m, r)
    if spec.order < m:
        raise ValueError("field too small for distinct evaluation points")
    # rows i = 0..r-2 of the constraint matrix: alpha_j^i for column j
    alphas = [spec.from_index(j) for j in range(m)]
    rows = []
    for i in range(r - 1):
        rows.append([alpha**i for alpha in alphas])
    vectors = []
    for subset in subsets:
        cols = [c - 1 for c in subset]  # elements are 1-based
        # first unknown = 1; the others are minus the coordinates of the
        # first support column over the remaining r - 1, which are independent
        columns = [[row[c] for row in rows] for c in cols[1:] + cols[:1]]
        coords = greedy_basis(spec, map(int_vector, columns))[1].get(r - 1, {})
        solution = [spec.one] + [-spec.from_index(coords.get(j, 0)) for j in range(r - 1)]
        if any(x.is_zero() for x in solution):
            raise InvariantViolation("support vector acquired a zero entry")
        full = [spec.zero] * m
        for c, val in zip(cols, solution):
            full[c] = val
        vectors.append(tuple(full))
    dims, bad = _neighborhood_ranks(spec, graph, vectors)
    if bad is not None:
        raise InvariantViolation("support vectors are not faithful")
    return KneserSystem(graph, m, r, spec, tuple(vectors), dims)


def _neighborhood_ranks(
    spec: FieldSpec, graph: Graph, vectors: Sequence[Vector]
) -> tuple[Optional[tuple[int, ...]], Optional[tuple[int, int]]]:
    """One span pass over the vertices b in order: ``(ranks, None)`` with
    the rank of each b's neighbors' vectors, or ``(None, (a, b))`` for the
    first non-neighbor a of b (b itself included) whose vector lies in
    that span."""
    ranks = []
    for b in range(graph.n):
        basis = SpanBasis(spec)
        for c in graph.neighbors(b):
            basis.add(vectors[c])
        for a in range(graph.n):
            if not graph.has_edge(a, b) and basis.contains(vectors[a]):
                return None, (a, b)
        ranks.append(basis.rank)
    return tuple(ranks), None


def kneser_rep(
    m: int,
    r: int,
    spec: FieldSpec,
    *,
    seed: int = 0,
    ceilings: Ceilings = DEFAULT_CEILINGS,
) -> Representation:
    """Faithful independent representation of K(m, r) in dimension m - 2r + 2.

    Pipeline: support vectors from the nullspace system, then a seeded
    random linear map to t = m - 2r + 2 coordinates, accepted only when
    every vertex's neighborhood span keeps its rank and every
    non-neighbor's vector stays outside that span.
    """
    if not (r >= 1 and m >= 2 * r):
        raise ValueError(f"need m >= 2r >= 2, got m={m}, r={r}")
    threshold = kneser_field_threshold(m, r)
    if spec.order < threshold:
        raise ValueError(
            f"field order {spec.order} below the required threshold {threshold} "
            f"for K({m},{r})"
        )
    system = kneser_system(m, r, spec)
    graph = system.graph
    t = m - 2 * r + 2
    rng = random.Random(seed)
    for _ in range(ceilings.retry_cap):
        phi = [[spec.from_index(rng.randrange(spec.order)) for _ in range(m)] for _ in range(t)]
        projected = [
            tuple(inner_product(row, vec) for row in phi) for vec in system.support_vectors
        ]
        # accepted ranks come with no non-neighbor in any span: faithful as is
        if _neighborhood_ranks(spec, graph, projected)[0] == system.neighborhood_dims:
            return Representation(graph, spec, t, tuple(projected), INDEPENDENT)
    raise CeilingError(
        f"no dimension-preserving projection found in {ceilings.retry_cap} "
        f"seeded trials (seed={seed}); rerun with another seed or a larger field"
    )


# ---------------------------------------------------------------------------
# Orthogonality graphs
# ---------------------------------------------------------------------------

def ortho_graph(
    spec: FieldSpec,
    d: int,
    *,
    projective: bool = False,
    ceilings: Ceilings = DEFAULT_CEILINGS,
) -> Representation:
    """The graph of all non-self-orthogonal vectors of F^d, under orthogonality.

    Each vertex carries its own vector, so the identity assignment is a
    faithful orthogonal representation by construction.  With
    ``projective=True``, vectors are collapsed to one representative per
    scalar class (the one of least enumeration index, whose last nonzero
    coordinate is 1), which preserves homomorphism equivalence.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    total = spec.order**d
    if total > ceilings.ortho_vertices * max(1, spec.order - 1):
        raise CeilingError(
            f"orthogonality graph on ~{total} vectors exceeds ceiling "
            f"{ceilings.ortho_vertices}"
        )
    vectors: list[Vector] = []
    for idx in range(total):
        rem = idx
        vec = []
        for _ in range(d):
            vec.append(spec.from_index(rem % spec.order))
            rem //= spec.order
        vec = tuple(vec)
        if inner_product(vec, vec).is_zero():
            continue
        # the last coordinate is the most significant digit of the index
        if projective and next(x for x in reversed(vec) if not x.is_zero()) != spec.one:
            continue
        vectors.append(vec)
    if len(vectors) > ceilings.ortho_vertices:
        raise CeilingError(
            f"orthogonality graph has {len(vectors)} vertices, ceiling "
            f"{ceilings.ortho_vertices}"
        )
    n = len(vectors)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if inner_product(vectors[i], vectors[j]).is_zero()
    ]
    labels = {
        i: "(" + ",".join(str(x.to_index()) for x in vec) + ")"
        for i, vec in enumerate(vectors)
    }
    graph = Graph(n, edges, labels)
    return Representation(graph, spec, d, tuple(vectors), ORTHOGONAL)


# ---------------------------------------------------------------------------
# The classical Petersen fixture
# ---------------------------------------------------------------------------

# Outer 5-cycle 0-4, inner 5-cycle (pentagram) 5-9, spokes i -- i+5.
PETERSEN_FIXTURE_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
)

# Integer entries of a classical faithful 3-dimensional orthogonal
# representation of the Petersen graph; usable over any field where no
# non-edge inner product happens to vanish.
PETERSEN_FIXTURE_VECTORS = (
    (1, 0, 0),
    (0, 1, 0),
    (1, 0, 1),
    (1, 1, -1),
    (0, 1, 1),
    (0, 1, 2),
    (1, 0, -3),
    (1, 2, -1),
    (3, -2, 1),
    (3, -1, 1),
)


def petersen_fixture_graph() -> Graph:
    return Graph(10, PETERSEN_FIXTURE_EDGES)


def petersen_orthogonal_rep(spec: FieldSpec) -> Representation:
    """The integer Petersen vectors reduced into `spec` (orthogonal kind).

    The caller should check per-pair that no integer inner product
    vanishes modulo the characteristic unless it vanishes over the
    integers; `check_faithful` reports any accidental collision.
    """
    vectors = tuple(
        tuple(spec.from_int(x) for x in vec) for vec in PETERSEN_FIXTURE_VECTORS
    )
    return Representation(petersen_fixture_graph(), spec, 3, vectors, ORTHOGONAL)


# ---------------------------------------------------------------------------
# Low-rank adjacency matrix bridge
# ---------------------------------------------------------------------------

def adjacency_rank_matrix(
    rep: Representation,
    *,
    seed: int = 0,
    ceilings: Ceilings = DEFAULT_CEILINGS,
) -> tuple[tuple[FieldElement, ...], ...]:
    """Rows of an n x n matrix M of rank <= d with M[u][v] = 0 exactly on
    edges.

    Built from a faithful independent representation over a field with
    order > n: for each vertex v a dual vector y_v orthogonal to the
    neighbors' span with <x_u, y_v> != 0 for all non-neighbors u is
    found by seeded sampling inside the orthogonal complement, verified
    before acceptance; then M[u][v] = <x_u, y_v>.  The rank and the
    zero pattern are checked before M is returned.
    """
    g = rep.graph
    spec = rep.spec
    if spec.order <= g.n:
        raise ValueError("field order must exceed the vertex count")
    if rep.kind != INDEPENDENT:
        raise ValueError("expects an independent representation")
    rng = random.Random(seed)
    duals: list[Vector] = []
    for v in range(g.n):
        neighbor_rows = [rep.vectors[w] for w in g.neighbors(v)]
        complement = _nullspace_basis(spec, neighbor_rows, rep.d)
        non_neighbors = [u for u in range(g.n) if not g.has_edge(u, v)]
        found = None
        for _ in range(ceilings.retry_cap):
            y = [spec.zero] * rep.d
            for basis_vec in complement:
                c = spec.from_index(rng.randrange(spec.order))
                y = [a + c * b for a, b in zip(y, basis_vec)]
            if all(not inner_product(rep.vectors[u], y).is_zero() for u in non_neighbors):
                found = tuple(y)
                break
        if found is None:
            raise CeilingError(
                f"no dual vector for vertex {v} in {ceilings.retry_cap} trials"
            )
        duals.append(found)
    matrix = tuple(
        tuple(inner_product(rep.vectors[u], duals[v]) for v in range(g.n))
        for u in range(g.n)
    )
    if matrix_rank(spec, matrix) > rep.d:
        raise InvariantViolation("adjacency matrix rank exceeds the dimension")
    for u in range(g.n):
        for v in range(g.n):
            if matrix[u][v].is_zero() != g.has_edge(u, v):
                raise InvariantViolation("adjacency matrix zero pattern broken")
    return matrix


def _nullspace_basis(
    spec: FieldSpec, rows: list[Vector], d: int
) -> list[list[FieldElement]]:
    """Basis of the right nullspace of the given row vectors in F^d: e_f
    minus the coordinates of column f over the pivot columns, for each
    non-pivot f."""
    _, certificates = greedy_basis(spec, (int_vector([row[f] for row in rows]) for f in range(d)))
    basis = []
    for f, coords in certificates.items():
        vec = [spec.zero] * d
        vec[f] = spec.one
        for p, c in coords.items():
            vec[p] = -spec.from_index(c)
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def rep_to_json(rep: Representation) -> str:
    payload = {
        "spec": {
            "p": rep.spec.p,
            "m": rep.spec.m,
            "irreducible": list(rep.spec.irreducible),
        },
        "d": rep.d,
        "kind": rep.kind,
        "n": rep.graph.n,
        "vectors": [
            [list(x.coeffs) for x in vec] for vec in rep.vectors
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _entry(payload, key: str, kind: type):
    """`payload[key]`, which must be present and of type `kind`."""
    value = payload.get(key) if type(payload) is dict else None
    if type(value) is not kind:
        raise ValueError(f"representation needs an entry {key!r} of type {kind.__name__}")
    return value


def rep_from_json(
    text: str, graph: Graph, *, ceilings: Ceilings = DEFAULT_CEILINGS
) -> Representation:
    """Inverse of :func:`rep_to_json`; malformed content raises ValueError,
    an extension degree above the ceiling CeilingError."""
    payload = json.loads(text)
    field = _entry(payload, "spec", dict)
    modulus = tuple(_entry(field, "irreducible", list))
    p, m = _entry(field, "p", int), _entry(field, "m", int)
    # refused before FieldSpec tests the modulus for irreducibility
    if m > ceilings.field_degree:
        raise CeilingError(
            f"representation field degree {m} exceeds ceiling {ceilings.field_degree}"
        )
    spec = FieldSpec(p, m, modulus)
    n = _entry(payload, "n", int)
    if n != graph.n:
        raise ValueError(f"representation is for {n} vertices, graph has {graph.n}")
    vectors = []
    for vec in _entry(payload, "vectors", list):
        if type(vec) is not list or not all(type(coeffs) is list for coeffs in vec):
            raise ValueError("representation vectors must be lists of coefficient lists")
        vectors.append(tuple(spec.element(coeffs) for coeffs in vec))
    d, kind = _entry(payload, "d", int), _entry(payload, "kind", str)
    return Representation(graph, spec, d, tuple(vectors), kind)
