"""Non-adjacency witness number q(G) and its structural bounds.

q(G) is the smallest q such that every vertex set with no common
neighbor contains a subset of size at most q with no common neighbor.
Equivalently (and this is what the search uses), q(G) is the maximum
size of a *critical* set: a set T with empty common neighborhood all of
whose (|T|-1)-subsets have a nonempty one.  Critical sets coincide with
the inclusion-minimal empty-common-neighborhood sets, and a maximum
clique is always one of them.

The search is exact and runs once: a depth-first branch-and-bound over
sorted vertex tuples that returns the lexicographically first critical
set of maximum size, so the size is q(G) and the set is its certificate.
Its pruning relies on one structural fact: if a critical superset T* of
the current partial set T adds the vertices Z, then every z in Z has a
"private witness" v in CN(T) non-adjacent to z with Z - {z} contained
in N(v).  Hence |Z| <= 1 + max over v in CN(T) of |N(v) ∩ candidates|
(read from a per-graph table of neighbor counts above each vertex), and
every z must have a non-neighbor in CN(T).

Why the certificate is the lexicographically first set of size q: the
DFS visits sorted tuples in lexicographic order, and the best size
starts at omega - 1, one below the size of a maximum clique, which is
itself critical.  While the best size recorded is below q, no branch holding a
critical set of size q is pruned, because the cap bound, the
non-neighbor-in-CN filter and the filter on empty proper subsets hold
for every critical superset.  So the first set of size q the search
records is the lexicographically first one, and later ones of that
size never replace it.

Also here: the B(m, l) obstruction patterns whose absence certifies
q(G) <= m-1, and the degeneracy / clique-number / max-degree bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .config import Ceilings, DEFAULT_CEILINGS
from .errors import CeilingError, InvariantViolation
from .graphs import Graph, _bits, common_neighbors
from .hom import _edge_constraints, _fc_search


@dataclass(frozen=True)
class WitnessCertificate:
    """Exact q(G) plus the set witnessing its tightness.

    witness_set has no common neighbor while each of its (q-1)-subsets
    has one; checked_up_to is the largest set size the search had to
    consider (no critical set can be larger).
    """

    q: int
    witness_set: tuple[int, ...]
    checked_up_to: int

    def validate(self, g: Graph) -> bool:
        if len(self.witness_set) != self.q:
            return False
        if common_neighbors(g, self.witness_set):
            return False
        return all(
            common_neighbors(g, sub)
            for sub in combinations(self.witness_set, self.q - 1)
        )


# ---------------------------------------------------------------------------
# Fundamental invariants
# ---------------------------------------------------------------------------

def max_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("max_degree of the empty graph is undefined")
    return g.max_degree()


def degeneracy(g: Graph) -> int:
    """Least d such that every subgraph has a vertex of degree <= d (min-degree peeling)."""
    if g.n == 0:
        raise ValueError("degeneracy of the empty graph is undefined")
    alive = (1 << g.n) - 1
    degs = [g.degree(v) for v in range(g.n)]
    best = 0
    for _ in range(g.n):
        v = min((u for u in _bits(alive)), key=lambda u: (degs[u], u))
        best = max(best, degs[v])
        alive ^= 1 << v
        for u in _bits(g.rows[v] & alive):
            degs[u] -= 1
    return best


def clique_number(g: Graph, *, ceilings: Ceilings = DEFAULT_CEILINGS) -> int:
    if g.n == 0:
        raise ValueError("clique number of the empty graph is undefined")
    if g.n > ceilings.witness_vertices:
        raise CeilingError(
            f"exact clique search limited to {ceilings.witness_vertices} vertices"
        )
    return len(max_clique(g))


def max_clique(g: Graph) -> tuple[int, ...]:
    """A maximum clique, deterministic (lexicographically smallest found first).

    Branch and bound with a greedy colouring upper bound.
    """
    best: list[int] = []

    rows = g.rows

    def expand(current: list[int], candidates: int) -> None:
        nonlocal best
        if not candidates:
            if len(current) > len(best):
                best = list(current)
            return
        # greedy colouring bound on the candidate set
        colors: list[int] = []
        order: list[int] = []
        for v in _bits(candidates):
            for c, mask in enumerate(colors):
                if not (rows[v] & mask):
                    colors[c] = mask | (1 << v)
                    order.append((c + 1, v))
                    break
            else:
                colors.append(1 << v)
                order.append((len(colors), v))
        for bound, v in reversed(order):
            if len(current) + bound <= len(best):
                return
            current.append(v)
            expand(current, candidates & rows[v])
            current.pop()
            candidates &= ~(1 << v)

    expand([], (1 << g.n) - 1)
    return tuple(sorted(best))


# ---------------------------------------------------------------------------
# Exact witness number
# ---------------------------------------------------------------------------

def _lex_first_max_critical_set(g: Graph, omega: int) -> tuple[int, ...]:
    """Lexicographically first critical set of maximum size."""
    n = g.n
    rows = g.rows
    # after[z][v] = |N(v) ∩ {z+1, ..., n-1}|, the cap bound's term for v
    after = [[(row >> (z + 1)).bit_count() for row in rows] for z in range(n)]
    # a maximum clique is critical, so seeding one below it records a set
    best = omega - 1
    cert: tuple[int, ...] = ()
    path: list[int] = []

    # dc[i] = common neighborhood of T minus its i-th element; a leaf is
    # critical iff CN(T) = 0 while every dc entry is nonzero.
    def extend(t_last: int, cn: int, dcs: list[int], depth: int) -> None:
        nonlocal best, cert
        for z in range(t_last + 1, n):
            row = rows[z]
            # z must have a non-neighbor inside CN(T) to earn a private
            # witness later (z itself counts, z not being its own neighbor)
            if not (cn & ~row):
                continue
            new_cn = cn & row
            if new_cn == 0:
                if depth + 1 > best and all(dc & row for dc in dcs):
                    best = depth + 1
                    cert = (*path, z)
                continue
            # upper bound: all but one future addition must fit inside the
            # neighborhood of one common neighbor of the extended set; the
            # branch survives once one common neighbor leaves room
            slack = best - depth - 2
            counts = after[z]
            scan = new_cn
            while scan:
                low = scan & -scan
                if counts[low.bit_length() - 1] > slack:
                    break
                scan ^= low
            else:
                continue
            new_dcs = [dc & row for dc in dcs]
            if not all(new_dcs):
                # some proper subset already has an empty common
                # neighborhood; no superset through here is minimal
                continue
            new_dcs.append(cn)
            path.append(z)
            extend(z, new_cn, new_dcs, depth + 1)
            path.pop()

    extend(-1, (1 << n) - 1, [], 0)
    return cert


def witness_number(g: Graph, *, ceilings: Ceilings = DEFAULT_CEILINGS) -> WitnessCertificate:
    """Exact non-adjacency witness number with a tightness certificate."""
    if g.n == 0:
        raise ValueError("witness number of the empty graph is undefined")
    if g.n > ceilings.witness_vertices:
        raise CeilingError(
            f"witness-number search limited to {ceilings.witness_vertices} vertices (got {g.n})"
        )
    checked_up_to = min(g.n, g.max_degree() + 1)
    cert = _lex_first_max_critical_set(g, len(max_clique(g)))
    if not cert:
        raise InvariantViolation("the search recorded no critical set")
    result = WitnessCertificate(q=len(cert), witness_set=cert, checked_up_to=checked_up_to)
    if not result.validate(g):
        raise InvariantViolation("witness certificate failed validation")
    return result


# ---------------------------------------------------------------------------
# B(m, l) obstruction patterns
# ---------------------------------------------------------------------------

def make_b_pattern(m: int, l: int) -> Graph:
    """The obstruction graph on u_1..u_m, v_1..v_l.

    v_i is adjacent to every u_j with j != i; u_i with i > l is adjacent
    to every other u_j.  Vertices 0..m-1 are u_1..u_m and m..m+l-1 are
    v_1..v_l.  Its presence in G (as a subgraph) is what a large minimal
    empty-common-neighborhood set forces.
    """
    if not (m >= 1 and 0 <= l <= m):
        raise ValueError(f"need m >= 1 and 0 <= l <= m, got m={m}, l={l}")
    edges = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if i > l or j > l:
                edges.append((i - 1, j - 1))
    for i in range(1, l + 1):
        for j in range(1, m + 1):
            if j != i:
                edges.append((m + i - 1, j - 1))
    return Graph(m + l, edges)


def b_pattern_edge_count(m: int, l: int) -> int:
    return (m * m - l * l + 2 * m * l - m - l) // 2


def find_b_ml_copy(
    g: Graph, m: int, l: int, *, ceilings: Ceilings = DEFAULT_CEILINGS
) -> Optional[tuple[int, ...]]:
    """Injective map realizing every edge of B(m, l) inside g, or None.

    Subgraph embedding (not necessarily induced): an injective
    homomorphism from the pattern, found by the oracle's engine
    ``hom._fc_search``.  Pattern vertices are assigned in descending
    degree order (ties by id), each over the g-vertices of at least its
    degree; pattern edges take g's adjacency as their table and every
    other pair a disequality table (g is loopless, so adjacent images
    differ already).  The first solution is returned: the one with the
    smallest images in that order.  Images are indexed by pattern
    vertex, pattern ids as in `make_b_pattern`.
    """
    if m > ceilings.b_pattern_m:
        raise CeilingError(f"B-pattern search limited to m <= {ceilings.b_pattern_m}")
    pattern = make_b_pattern(m, l)
    if pattern.n > g.n:
        return None
    order, cons = _edge_constraints(pattern.rows, g.rows)
    # injectivity: non-adjacent pattern vertices take distinct images
    distinct = tuple(((1 << g.n) - 1) ^ (1 << a) for a in range(g.n))
    p_full = (1 << pattern.n) - 1
    for pv, row in enumerate(pattern.rows):
        cons[pv] += [(pu, distinct) for pu in _bits(p_full ^ row ^ (1 << pv))]
    dom = [
        sum(1 << a for a in range(g.n) if g.degree(a) >= row.bit_count())
        for row in pattern.rows
    ]
    images = next(_fc_search(order, dom, cons), None)
    if images is None:
        return None
    return tuple(images[v] for v in range(pattern.n))


def witness_bound_via_b(g: Graph, q: int, *, ceilings: Ceilings = DEFAULT_CEILINGS) -> bool:
    """True iff g contains no B(q, l) copy for any 0 <= l <= q.

    A True answer certifies q(G) <= q - 1.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    return all(
        find_b_ml_copy(g, q, l, ceilings=ceilings) is None for l in range(q + 1)
    )
