"""Shared oracles and instance generators.

The brute-force routines here are the independent side of every
dual-route check: they enumerate without any of the library's pruning
or compilation, so agreement is meaningful.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from itertools import combinations, permutations, product
from math import comb

import pytest

from hcolkit.config import Ceilings, DEFAULT_CEILINGS
from hcolkit.errors import CeilingError, InvariantViolation
from hcolkit.gf import FieldElement, FieldSpec, greedy_basis, greedy_kept, int_vector, matrix_rank
from hcolkit.graphs import Graph, common_neighbors
from hcolkit.hom import (
    _CLUSTER_CAP, _PIN_DEGREE, _cluster_images, _domains_from_lists, _orbit_minima, _search,
)
from hcolkit.kernels import VertexCoverInstance
from hcolkit.reps import INDEPENDENT, ORTHOGONAL, Representation, Vector, inner_product
from hcolkit.witness import max_clique


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, each relabelled past the ones before it."""
    rows: list[int] = []
    for g in graphs:
        rows += [row << len(rows) for row in g.rows]
    return Graph.from_rows(rows)


def reference_components(g: Graph) -> list[tuple[int, ...]]:
    """A breadth-first search over ``g.neighbors`` from each vertex not
    yet seen, kept as a reference for ``Graph.connected_components``:
    the components in order of their least vertex, each one sorted."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        for v in queue:
            for u in g.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        comps.append(tuple(sorted(queue)))
    return comps


def reference_check_rows(rows) -> None:
    """A scan of every entry, kept as a reference for ``Graph.from_rows``:
    raises ValueError at the first fault, row by row."""
    full = (1 << len(rows)) - 1
    for v, row in enumerate(rows):
        if row & ~full:
            raise ValueError(f"adjacency row {v} references vertices >= n")
        if row >> v & 1:
            raise ValueError(f"loop at vertex {v} rejected (graphs are simple)")
        for u in range(len(rows)):
            if row >> u & 1 and not rows[u] >> v & 1:
                raise ValueError(f"adjacency not symmetric at ({v},{u})")


def reference_parse_graph_lines(
    lines, *, tags=(), what="graph file", max_vertices=None
) -> tuple[Graph, list[list[str]]]:
    """A line-by-line scan of the whole text, kept as a reference for
    ``parse_graph_lines``: every refusal it raises, in its order, with
    its message."""
    header = None
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    extras: list[list[str]] = []
    expect_edges = 0
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise ValueError(f"expected 'n m' header, got {line!r}")
            header = (int(tokens[0]), int(tokens[1]))
            if max_vertices is not None and header[0] > max_vertices:
                raise CeilingError(
                    f"graph header announces {header[0]} vertices, "
                    f"above the limit of {max_vertices}"
                )
            expect_edges = header[1]
            continue
        if tokens[0] == "L":
            if len(tokens) < 2:
                raise ValueError(f"label line without a vertex: {line!r}")
            v = int(tokens[1])
            if v in labels:
                raise ValueError(f"repeated line in {what}: 'L {v}'")
            labels[v] = " ".join(tokens[2:])
        elif tokens[0].lstrip("-").isdigit():
            if len(tokens) != 2:
                raise ValueError(f"bad edge line {line!r}")
            edges.append((int(tokens[0]), int(tokens[1])))
        else:
            extras.append(tokens)
    if header is None:
        raise ValueError("empty graph file")
    if len(edges) != expect_edges:
        raise ValueError(f"header promises {expect_edges} edges, found {len(edges)}")
    for tokens in extras:
        if tokens[0] not in tags:
            raise ValueError(f"unexpected line in {what}: {tokens[0]!r}")
    return Graph(header[0], edges, labels), extras


def reference_write_graph(g: Graph, tagged=()) -> str:
    """The graph file of g written edge by edge from ``Graph.edges()``,
    kept as a reference for ``write_graph``."""
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    lines += [f"L {v} {g.labels[v]}" for v in sorted(g.labels)]
    lines.extend(tagged)
    return "\n".join(lines) + "\n"


def reference_glue(rows: list[int], gadget, u: int, v: int) -> None:
    """Add a copy of the edge gadget to the graph with adjacency bitmasks
    ``rows`` edge by edge: its marked vertices identified with u and v,
    its interior appended as new vertices in ascending gadget order."""
    f = gadget.gadget
    ids = {gadget.a: u, gadget.b: v}
    for w in range(f.n):
        if w not in ids:
            ids[w] = len(rows)
            rows.append(0)
    for p, q in f.edges():
        rows[ids[p]] |= 1 << ids[q]
        rows[ids[q]] |= 1 << ids[p]


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


def reference_hom_exists(g: Graph, h: Graph, lists=None) -> bool:
    """Plain chronological backtracking in id order: each image is checked
    against the list and the already-placed neighbours, nothing else (no
    component split, no cluster compilation, no propagation)."""
    assign = [-1] * g.n

    def rec(v: int) -> bool:
        if v == g.n:
            return True
        allowed = lists.get(v, range(h.n)) if lists else range(h.n)
        for a in allowed:
            if all(assign[u] < 0 or h.has_edge(a, assign[u]) for u in g.neighbors(v)):
                assign[v] = a
                if rec(v + 1):
                    return True
                assign[v] = -1
        return False

    return rec(0)


def components_first_assignment(g: Graph, h: Graph, lists=None):
    """The assignment of ``find_homomorphism`` by the components-first
    path: `reference_components`, then per component a BFS over
    its soft vertices, each cluster compiled from its signature (no shape
    memo) into one table group per cluster and direction, and the same
    residual order, root restriction and re-expansion.  None when there
    is no homomorphism."""
    doms = _domains_from_lists(g, h, lists)
    if g.n and (h.n == 0 or 0 in doms):
        return None
    square, total = h.n * h.n, {}
    for comp in reference_components(g):
        dom = {v: doms[v] for v in comp}
        pins = {v for v in comp if g.degree(v) >= _PIN_DEGREE}
        residual = sorted(pins) if pins else list(comp)
        tables, clusters, seen = {}, [], set(pins or comp)
        for v in comp:
            if v in seen:
                continue
            seen.add(v)
            region = [v]
            for u in region:
                grown = [w for w in g.neighbors(u) if w not in seen]
                seen.update(grown)
                region += grown
            members = sorted(region)
            boundary = sorted({w for u in members for w in g.neighbors(u) if w in pins})
            if len(boundary) > 2 or len(members) > _CLUSTER_CAP:
                residual += members
                continue
            index = {u: i for i, u in enumerate(members + boundary)}
            local = tuple(sum(1 << index[w] for w in g.neighbors(u)) for u in members)
            images, compiled = _cluster_images(h.rows, (tuple(doms[u] for u in members), local, len(boundary)))
            if not images:
                return None
            if len(boundary) == 1:
                dom[boundary[0]] &= compiled
                if not dom[boundary[0]]:
                    return None
            else:
                for u, w, (table, supports) in zip(boundary, boundary[::-1], compiled):
                    tables.setdefault(u, []).append((table, [w], supports))
            clusters.append((members, boundary, images))
        cons, placed = {}, set(residual)
        for v in residual:
            neighbors = [u for u in g.neighbors(v) if u in placed]
            cons[v] = ([(h.rows, neighbors, {})] if neighbors else []) + tables.get(v, [])

        def weight(v):
            return sum((square - sum(m.bit_count() for m in t)) * len(p) for t, p, _ in cons[v])

        order = sorted(residual, key=lambda v: (-weight(v), v))
        if all(doms[v] == (1 << h.n) - 1 for v in comp):
            dom[order[0]] &= _orbit_minima(h.rows)
        assign = next(_search(order, dom, cons), None)
        if assign is None:
            return None
        for members, boundary, images in clusters:
            assign.update(zip(members, images[tuple(assign[x] for x in boundary)]))
        total.update(assign)
    return tuple(total[v] for v in range(g.n))


def reference_core(g: Graph) -> Graph:
    """A smallest induced subgraph that g maps into: subsets by size,
    smallest first, in lexicographic order, each decided by
    `reference_hom_exists`."""
    for size in range(1, g.n):
        for subset in combinations(range(g.n), size):
            candidate = g.induced_subgraph(subset)
            if reference_hom_exists(g, candidate):
                return candidate
    return g


def brute_network_solutions(order, dom, cons) -> list[dict[int, int]]:
    """Every assignment of vertices 0..len(dom)-1 within their domain masks
    that satisfies each constraint of ``cons`` (``_search`` groups
    ``(table, partners, supports)``, of which it reads only the first
    two), tried in `itertools.product` order and sorted by the images
    read in ``order``."""
    values = [[a for a in range(d.bit_length()) if d >> a & 1] for d in dom]
    found = [
        dict(enumerate(images))
        for images in product(*values)
        if all(
            table[images[v]] >> images[u] & 1
            for v, groups in enumerate(cons)
            for table, partners, _ in groups
            for u in partners
        )
    ]
    return sorted(found, key=lambda s: [s[v] for v in order])


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


def b_pattern_edge_count(m: int, l: int) -> int:
    """Edges of B(m, l) in closed form: the u-pairs not both at most l,
    plus the l(m - 1) v-edges."""
    return (m * m - l * l + 2 * m * l - m - l) // 2


def brute_automorphisms(g: Graph):
    """Every permutation p of V(g) with p(u) ~ p(v) exactly when u ~ v,
    built vertex by vertex in id order with images in ascending order;
    a partial map is dropped as soon as a placed pair breaks this."""
    image: list[int] = []

    def extend():
        v = len(image)
        if v == g.n:
            yield tuple(image)
            return
        for a in range(g.n):
            if a not in image and all(
                g.has_edge(a, image[u]) == g.has_edge(v, u) for u in range(v)
            ):
                image.append(a)
                yield from extend()
                image.pop()

    return extend()


def brute_orbits(g: Graph) -> tuple[int, ...]:
    """The orbit of each vertex under every automorphism, as a mask."""
    orbit = [0] * g.n
    for p in brute_automorphisms(g):
        for v in range(g.n):
            orbit[v] |= 1 << p[v]
    return tuple(orbit)


def reference_edge_gadget(target: Graph, gadget: Graph, a: int, b: int) -> bool:
    """The disequality test on every ordered pin pair (u, v), each by
    ``reference_hom_exists`` with a pinned to u and b to v."""
    return all(
        reference_hom_exists(gadget, target, {a: (u,), b: (v,)}) == (u != v)
        for u in range(target.n)
        for v in range(target.n)
    )


def brute_critical_sets(g: Graph):
    """Every inclusion-minimal set with no common neighbor, by size and
    then in `itertools.combinations` order."""
    assert 1 <= g.n <= 10
    for size in range(1, g.n + 1):
        for t in combinations(range(g.n), size):
            if not common_neighbors(g, t) and all(
                common_neighbors(g, s) for s in combinations(t, size - 1)
            ):
                yield t


def brute_witness_q(g: Graph) -> int:
    """Maximum size of an inclusion-minimal set with no common neighbor."""
    return max(map(len, brute_critical_sets(g)))


def brute_first_critical(g: Graph) -> tuple[int, ...]:
    """First maximum-size inclusion-minimal empty-common-neighborhood set,
    in `itertools.combinations` order."""
    return max(brute_critical_sets(g), key=len)


def reference_witness_search(g: Graph) -> tuple[int, ...]:
    """Lexicographically first critical set of maximum size, by one
    depth-first branch-and-bound over sorted vertex tuples whose best
    size rises from omega - 1 (a maximum clique is critical).  It prunes
    a vertex with no non-neighbor in CN(T), an extension some of whose
    CN(T - t) is empty, and one whose every common neighbor v leaves too
    little room above it: a critical superset adding Z fits Z - {z}
    inside N(v) for a private witness v in CN(T) of each z in Z."""
    n, rows = g.n, g.rows
    after = [[(row >> (z + 1)).bit_count() for row in rows] for z in range(n)]
    best = len(max_clique(g)) - 1
    cert: tuple[int, ...] = ()
    path: list[int] = []

    def extend(t_last, cn, dcs, depth):
        nonlocal best, cert
        for z in range(t_last + 1, n):
            row = rows[z]
            if not (cn & ~row):
                continue
            new_cn = cn & row
            if new_cn == 0:
                if depth + 1 > best and all(dc & row for dc in dcs):
                    best = depth + 1
                    cert = (*path, z)
                continue
            if not any(after[z][v] > best - depth - 2 for v in range(n) if new_cn >> v & 1):
                continue
            new_dcs = [dc & row for dc in dcs]
            if not all(new_dcs):
                continue
            path.append(z)
            extend(z, new_cn, new_dcs + [cn], depth + 1)
            path.pop()

    extend(-1, (1 << n) - 1, [], 0)
    return cert


def reference_field_ops(spec) -> SimpleNamespace:
    """GF(p^m) arithmetic on ``to_index`` ints, written out on coefficient
    lists without the library's field code: coordinate-wise sums,
    schoolbook products reduced by the modulus, and the inverse by the
    extended Euclidean algorithm in GF(p)[x]."""
    p, m, modulus = spec.p, spec.m, list(spec.irreducible)

    def coeffs(index):
        return [index // p**i % p for i in range(m)]

    def index(c):
        return sum(x * p**i for i, x in enumerate(c))

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def poly_divmod(a, b):
        a, q = list(a), [0] * max(0, len(a) - len(b) + 1)
        inv_lead = pow(b[-1], -1, p)
        for i in range(len(a) - len(b), -1, -1):
            c = a[i + len(b) - 1] * inv_lead % p
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
        return trim(q), trim(a)

    def mul(a, b):
        return index(poly_divmod(poly_mul(coeffs(a), coeffs(b)), modulus)[1])

    def inv(a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        # invariant: s_i * a == r_i modulo the modulus
        r0, r1, s0, s1 = modulus, trim(coeffs(a)), [], [1]
        while len(r1) > 1:
            q, r = poly_divmod(r0, r1)
            prod = poly_mul(q, s1)
            s_next = [0] * max(len(s0), len(prod))
            for i, x in enumerate(s0):
                s_next[i] = x
            for i, x in enumerate(prod):
                s_next[i] = (s_next[i] - x) % p
            r0, r1, s0, s1 = r1, r, s1, trim(s_next)
        scale = pow(r1[0], -1, p)  # r1 is the nonzero constant gcd
        return index([x * scale % p for x in s1])

    return SimpleNamespace(
        add=lambda a, b: index([(x + y) % p for x, y in zip(coeffs(a), coeffs(b))]),
        sub=lambda a, b: index([(x - y) % p for x, y in zip(coeffs(a), coeffs(b))]),
        neg=lambda a: index([-x % p for x in coeffs(a)]),
        mul=mul,
        inv=inv,
    )


def trial_division_irreducible(poly, p) -> bool:
    """Whether the monic `poly` (coefficients low first) is irreducible
    over GF(p): no monic polynomial of degree 1..deg/2 divides it."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            rem = list(poly)
            # long division by the monic divisor tail + x^d
            for i in range(deg, d - 1, -1):
                c = rem[i]
                rem[i] = 0
                for j, y in enumerate(tail):
                    rem[i - d + j] = (rem[i - d + j] - c * y) % p
            if not any(rem):
                return False
    return True


def reference_row_reduce(matrix) -> tuple[list[list], int, list[int]]:
    """Textbook Gauss-Jordan on a nonempty list of rows of field elements:
    RREF rows, rank, pivot columns."""
    rows = [list(r) for r in matrix]
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, r, pivots


def reference_rank(spec, vectors) -> int:
    return reference_row_reduce(vectors)[1] if vectors else 0


def reference_boundary_kept(traces, spec: FieldSpec) -> tuple[int, ...]:
    """The kept set of ``boundary_basis_select`` without its cone-prefix
    bookkeeping: ``greedy_kept`` over the full boundary row of every
    d-set in `traces`, less its faces on the cone vertex c (the least
    trace vertex), stopping once C(|V| - 1, d-1) rows are kept."""
    vertices = set().union(*traces)
    if not vertices:
        return ()
    cone = min(vertices)
    minus_one = spec.ops.neg(1)

    def row(trace) -> dict:
        t = sorted(trace)
        mask = 0
        for v in t:
            mask |= 1 << v
        if t[0] == cone:
            return {mask ^ (1 << cone): 1}
        return {mask ^ (1 << v): minus_one if j % 2 else 1 for j, v in enumerate(t)}

    rank = comb(len(vertices) - 1, len(traces[0]) - 1)
    return tuple(greedy_kept(spec, map(row, traces), rank))


def leibniz_determinant(matrix):
    """Sum over all permutations of signed products, for a square list of
    rows of field elements; only for tiny matrices."""
    n = len(matrix)
    assert all(len(row) == n for row in matrix) and 1 <= n <= 6
    spec = matrix[0][0].spec
    total = spec.zero
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = spec.one
        for i in range(n):
            term = term * matrix[i][perm[i]]
        total = total - term if inversions % 2 else total + term
    return total


def greedy_cover_2approx(g: Graph) -> tuple[int, ...]:
    """Vertex cover of at most twice the optimum via maximal matching."""
    cover: set[int] = set()
    for u, v in g.edges():
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    return tuple(sorted(cover))


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


def hub_and_path_graph(rng: random.Random) -> tuple[Graph, int]:
    """Two hubs of degree at least 5 joined by 2-4 paths of 2-4 edges,
    and maybe by an edge, so that every path is a cluster on the same two
    pins; returns the graph and the number of hub and path vertices,
    which come before the pendant vertices that lift the hub degrees."""
    edges, n = [], 2
    for _ in range(rng.randint(2, 4)):
        last = 0
        for _ in range(rng.randint(1, 3)):
            edges.append((last, n))
            last = n
            n += 1
        edges.append((last, 1))
    core = n
    for hub in (0, 1):
        for _ in range(5):
            edges.append((hub, n))
            n += 1
    if rng.random() < 0.5:
        edges.append((0, 1))
    return Graph(n, edges), core


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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
