"""Shared oracles and instance generators.

The brute-force routines here are the independent side of every
dual-route check: they enumerate without any of the library's pruning
or compilation, so agreement is meaningful.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

import pytest

from hcolkit.gf import Matrix
from hcolkit.graphs import Graph, common_neighbors
from hcolkit.kernels import VertexCoverInstance


def brute_homomorphisms(g: Graph, h: Graph, lists=None):
    """Yield every list-respecting assignment that keeps all edges of g,
    trying all of them in `itertools.product` order."""
    domains = [tuple(lists.get(v, range(h.n))) if lists else range(h.n) for v in range(g.n)]
    edges = list(g.edges())
    for assignment in product(*domains):
        if all(h.has_edge(assignment[u], assignment[v]) for u, v in edges):
            yield assignment


def brute_hom_exists(g: Graph, h: Graph, lists=None) -> bool:
    """Try all |V_H|^|V_G| assignments; only for tiny sources."""
    assert g.n <= 6, "brute-force oracle is for tiny graphs"
    return next(brute_homomorphisms(g, h, lists), None) is not None


def brute_first_embedding(pattern: Graph, g: Graph):
    """First injective edge-preserving map of `pattern` into g, images
    indexed by pattern vertex; pattern vertices read in descending
    degree order (ties by id), images tried in ascending order."""
    order = sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v))
    edges = list(pattern.edges())
    for images in permutations(range(g.n), pattern.n):
        image = dict(zip(order, images))
        if all(g.has_edge(image[u], image[v]) for u, v in edges):
            return tuple(image[v] for v in range(pattern.n))
    return None


def brute_witness_q(g: Graph) -> int:
    """Maximum size of an inclusion-minimal set with no common neighbor."""
    assert 1 <= g.n <= 8
    best = 0
    for size in range(1, g.n + 1):
        for t in combinations(range(g.n), size):
            if common_neighbors(g, t):
                continue
            if all(common_neighbors(g, s) for s in combinations(t, size - 1)):
                best = max(best, size)
    return best


def brute_first_critical(g: Graph) -> tuple[int, ...]:
    """First maximum-size inclusion-minimal empty-common-neighborhood set,
    in `itertools.combinations` order."""
    assert 1 <= g.n <= 10
    for size in range(g.n, 0, -1):
        for t in combinations(range(g.n), size):
            if common_neighbors(g, t):
                continue
            if all(common_neighbors(g, s) for s in combinations(t, size - 1)):
                return t
    raise AssertionError("every graph with a vertex has a critical set")


def reference_row_reduce(matrix: Matrix) -> tuple[list[list], int, list[int]]:
    """Textbook Gauss-Jordan on field elements: RREF rows, rank, pivot columns."""
    rows = [list(r) for r in matrix.data]
    pivots: list[int] = []
    r = 0
    for c in range(matrix.cols):
        pivot_row = next((i for i in range(r, matrix.rows) if not rows[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(matrix.rows):
            if i != r and not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, r, pivots


def reference_rank(spec, vectors) -> int:
    return reference_row_reduce(Matrix(spec, vectors))[1] if vectors else 0


def leibniz_determinant(matrix: Matrix):
    """Sum over all permutations of signed products; only for tiny matrices."""
    n = matrix.rows
    assert n == matrix.cols and n <= 6
    total = matrix.spec.zero
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = matrix.spec.one
        for i in range(n):
            term = term * matrix[i, perm[i]]
        total = total - term if inversions % 2 else total + term
    return total


def random_cover_instance(
    rng: random.Random, n_max: int = 14, k_max: int = 8, p_edge: float = 0.45
) -> VertexCoverInstance:
    """Random graph with a planted valid cover (edges always touch it)."""
    n = rng.randrange(1, n_max + 1)
    k = rng.randrange(0, min(k_max, n) + 1)
    cover = sorted(rng.sample(range(n), k))
    members = set(cover)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u in members or v in members) and rng.random() < p_edge
    ]
    return VertexCoverInstance(Graph(n, edges), cover)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
