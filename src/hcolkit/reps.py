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
* ``normalize_first_entry`` - the kernel's input from either kind: an
  invertible change of basis over a large enough extension field making
  every first entry 1 (none when they already are): the first
  coordinate becomes <y, x> for a y non-orthogonal to all
  representation vectors (e_1, or found by seeded sample-and-verify),
  the others are kept except the one at y's last nonzero index.
* ``kneser_rep`` - for each r-subset A the divided-difference weights
  w_a = 1 / prod_{b in A - a} (alpha_a - alpha_b), the vector on A
  killed by the rows alpha^i (i <= r - 2); every neighborhood spans
  that matrix's whole kernel on the other m - r points, of dimension
  t - 1 with t = m - 2r + 2.  A seeded projection to dimension t is
  accepted when every neighborhood span keeps rank t - 1 and every
  non-neighbor's vector stays outside it.
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
from itertools import chain
from math import comb, prod
from typing import Optional, Sequence

from .config import Ceilings, DEFAULT_CEILINGS
from .errors import CeilingError
from .gf import FieldElement, FieldSpec, SpanBasis, field_extension_above
from .gf import matrix_rank  # unused here; perfbench/tracing.py patches it by name
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
        if self.d < 1:
            raise ValueError(f"representation dimension must be at least 1, got {self.d}")
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


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def vandermonde_rep(g: Graph, spec: FieldSpec) -> Representation:
    """Faithful independent representation of dimension max-degree + 1.

    Vertex i receives (1, a_i, a_i^2, ..., a_i^(d-1)) for the first n
    field elements a_i in canonical enumeration order; any d such
    vectors form an invertible Vandermonde matrix, so no vector lies in
    the span of at most d - 1 others: faithful by construction, unchecked.
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
    return Representation(g, spec, d, tuple(vectors), INDEPENDENT)


def normalize_first_entry(
    rep: Representation,
    *,
    seed: int = 0,
    ceilings: Ceilings = DEFAULT_CEILINGS,
) -> Representation:
    """Equivalent independent representation with every first entry 1
    over a field of order above n; takes either kind.

    Requires a faithful input, as :func:`check_faithful` decides
    (``hcol kernelize`` checks once, where the file is read); each step
    below keeps every span relation, so the output is faithful too.  One
    already kernel-ready keeps its field and vectors.  Otherwise moves
    to the smallest extension field K with |K| > n, finds y with
    <y, x_v> != 0 for all v (e_1 first, then seeded random samples),
    and maps each x to <y, x> followed by the entries of x except the
    one at y's last nonzero index (the invertible matrix whose rows are
    y and the other unit vectors), rescaled by that head to unit first
    entry.  Fails hard when the retry cap is exhausted.
    """
    g = rep.graph
    if rep.has_unit_first_entries() and rep.spec.order > g.n:
        return Representation(g, rep.spec, rep.d, rep.vectors, INDEPENDENT)
    ext, embed = field_extension_above(rep.spec, g.n, ceilings=ceilings)
    vecs = [tuple(embed(x) for x in vec) for vec in rep.vectors]
    d = rep.d
    rng = random.Random(seed)
    trials = chain(
        [(ext.one,) + (ext.zero,) * (d - 1)],
        (
            tuple(ext.from_index(rng.randrange(ext.order)) for _ in range(d))
            for _ in range(ceilings.retry_cap)
        ),
    )
    for y in trials:
        heads = [inner_product(y, vec) for vec in vecs]
        if not any(h.is_zero() for h in heads):
            break
    else:
        raise CeilingError(
            f"no normalizing vector found in {ceilings.retry_cap} seeded trials "
            f"(seed={seed}); rerun with another seed"
        )
    last = max(i for i, x in enumerate(y) if not x.is_zero())
    out = []
    for h, vec in zip(heads, vecs):
        scale = h.inverse()
        out.append((ext.one, *(x * scale for i, x in enumerate(vec) if i != last)))
    return Representation(g, ext, d, tuple(out), INDEPENDENT)


# ---------------------------------------------------------------------------
# Kneser construction
# ---------------------------------------------------------------------------

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


def kneser_support_vectors(m: int, r: int, spec: FieldSpec) -> tuple[Vector, ...]:
    """The vector of each vertex of K(m, r), in vertex order.

    For the r-subset A, entry a (alpha_a = spec.from_index(a)) is
    w_a / w_min(A) with w_a = 1 / prod_{b in A - a} (alpha_a - alpha_b):
    the divided-difference weights, the one vector on A with first entry
    1 that the rows alpha^i (i <= r - 2) send to zero.  No entry on A is
    zero.
    """
    if spec.order < m:
        raise ValueError("field too small for distinct evaluation points")
    alphas = [spec.from_index(j) for j in range(m)]
    vectors = []
    for subset in kneser_vertex_subsets(m, r):
        cols = [c - 1 for c in subset]  # elements are 1-based
        # 1 / w_a for each a in A
        inv_w = [
            prod((alphas[a] - alphas[b] for b in cols if b != a), start=spec.one) for a in cols
        ]
        full = [spec.zero] * m
        for c, x in zip(cols, inv_w):
            full[c] = inv_w[0] * x.inverse()
        vectors.append(tuple(full))
    return tuple(vectors)


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

    Pipeline: the support vectors of :func:`kneser_support_vectors`,
    then a seeded random linear map to t = m - 2r + 2 coordinates,
    accepted only when every vertex's neighborhood span keeps its rank
    t - 1 and every non-neighbor's vector stays outside that span.
    """
    threshold = kneser_field_threshold(m, r)
    if spec.order < threshold:
        raise ValueError(
            f"field order {spec.order} below the required threshold {threshold} "
            f"for K({m},{r})"
        )
    graph = make_kneser(m, r)
    vectors = kneser_support_vectors(m, r, spec)
    t = m - 2 * r + 2
    # the neighbors of A are the r-subsets of the other m - r points; their
    # vectors, the circuits of that Vandermonde matrix, span its kernel
    dims = (t - 1,) * graph.n
    rng = random.Random(seed)
    for _ in range(ceilings.retry_cap):
        phi = [[spec.from_index(rng.randrange(spec.order)) for _ in range(m)] for _ in range(t)]
        projected = [
            tuple(inner_product(row, vec) for row in phi) for vec in vectors
        ]
        # accepted ranks come with no non-neighbor in any span: faithful as is
        if _neighborhood_ranks(spec, graph, projected)[0] == dims:
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
