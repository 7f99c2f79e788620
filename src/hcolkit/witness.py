"""Non-adjacency witness number q(G) and its structural bounds.

q(G) is the smallest q such that every vertex set with no common
neighbor contains a subset of size at most q with no common neighbor.
Equivalently (and this is what the search uses), q(G) is the maximum
size of a *critical* set: a set T with empty common neighborhood all of
whose (|T|-1)-subsets have a nonempty one.  Critical sets coincide with
the inclusion-minimal empty-common-neighborhood sets, and a maximum
clique is always one of them.

The search is exact and runs in two passes.  A set T has no common
neighbor iff it meets every non-neighborhood E_w = V - N(w) (w is in
E_w, having no loop), so the critical sets are the minimal transversals
of the hypergraph {E_w}, and q(G) is the size of its largest one.

Pass 1 (`_max_critical_size`) finds q alone by the MMCS rule for
minimal transversals (Murakami & Uno, Discrete Appl. Math. 2014): a
node holds the partial set S, CN(S) (the edges S misses), CN(S - s)
for each member s, and a candidate mask.  It branches on the missed
edge with the fewest candidates, taking the candidates out and giving
each back after its branch, so every minimal transversal is met once.
Member s keeps a private ("critical") edge iff CN(S - s) - CN(S) is
nonempty; a child where some member has none is dropped, because that
set only shrinks as S grows.  The best size starts at omega, since a
maximum clique is critical.

Both passes prune by counting private witnesses.  If a critical
superset adds the vertices Z to S, every z in Z has a private witness
w_z in CN(S): w_z misses z and sees every other member of Z.  So the
witnesses are pairwise distinct (w_z misses z, which every other
w_z' sees), and each has at least |Z| - 1 neighbors among the vertices
Z is drawn from.  In pass 1, where Z lies in the candidates, a node can
beat the best size only if at least need = best - |S| + 1 members of
CN(S) have |N(w) ∩ candidates| >= need - 1; the scan that picks the
branching edge counts them.

Pass 2 (`_first_critical_of_size`) finds the certificate: a depth-first
search over sorted vertex tuples, in lexicographic order, that stops at
its first critical set of size q.  After a new vertex z, the r = q -
|T| - 1 vertices still to come lie above z, so it asks for r members w
of CN(T + z) with |N(w) ∩ {z+1, ..., n-1}| >= r - 1 (read from a
per-graph table of neighbor counts above each vertex).  It also
requires every new vertex to have a non-neighbor in CN(T), and applies
the private-edge test above.  All three hold for every prefix of a
critical set of size q, so no such set is pruned, and the first one
found is the lexicographically first.  Run alone, with the best size
rising from omega - 1 and the weaker test that every CN(T - t) is
nonempty, the same DFS also ends with this set; each test of pass 2 is
at least as strong at every node, so it visits a subset of those nodes.

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
from .hom import _edge_constraints, _search


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

def _max_critical_size(g: Graph, omega: int) -> int:
    """q(g): the size of a largest minimal transversal of {V - N(w)}."""
    rows = g.rows
    # a maximum clique is critical
    best = omega

    # cn = CN(S) marks the edges S misses, dcs[i] = CN(S - s_i); a member
    # keeps a private edge iff its dc meets the complement of cn
    def search(cn: int, dcs: list[int], cand: int, depth: int) -> None:
        nonlocal best
        # branch on the missed edge with the fewest candidates, ties to
        # the lowest w; the same scan counts the possible private
        # witnesses: beating best adds need vertices, each with its own
        # witness w in cn missing at most size - need + 1 candidates
        size = cand.bit_count()
        need = best - depth + 1
        cap = size - need + 1
        fewest = size + 1
        room = 0
        scan = cn
        while scan:
            low = scan & -scan
            w = low.bit_length() - 1
            k = (cand & ~rows[w]).bit_count()
            if k < fewest:
                fewest, edge = k, w
            if k <= cap:
                room += 1
            scan ^= low
        if room < need:
            return
        branch = cand & ~rows[edge]
        # each branch's vertex is given back once its subtree is done, so
        # later siblings may take it and every transversal is met once
        cand ^= branch
        while branch:
            low = branch & -branch
            row = rows[low.bit_length() - 1]
            new_cn = cn & row
            new_dcs = [dc & row for dc in dcs]
            # a member with no private edge left never regains one
            if all(dc & ~new_cn for dc in new_dcs):
                if not new_cn:
                    best = max(best, depth + 1)
                else:
                    new_dcs.append(cn)
                    search(new_cn, new_dcs, cand, depth + 1)
            cand |= low
            branch ^= low

    full = (1 << g.n) - 1
    search(full, [], full, 0)
    return best


def _first_critical_of_size(g: Graph, q: int) -> tuple[int, ...]:
    """Lexicographically first critical set of size q, where q = q(g)."""
    n = g.n
    rows = g.rows
    # after[z][v] = |N(v) ∩ {z+1, ..., n-1}|, the cap bound's term for v
    after = [[(row >> (z + 1)).bit_count() for row in rows] for z in range(n)]
    path: list[int] = []

    # dc[i] = common neighborhood of T minus its i-th element; a leaf is
    # critical iff CN(T) = 0 while every dc entry is nonzero.  The search
    # stops at its first leaf of size q, which is the certificate.
    def extend(t_last: int, cn: int, dcs: list[int], depth: int) -> bool:
        for z in range(t_last + 1, n):
            row = rows[z]
            # z must have a non-neighbor inside CN(T) to earn a private
            # witness later (z itself counts, z not being its own neighbor)
            if not (cn & ~row):
                continue
            new_cn = cn & row
            if new_cn == 0:
                if depth + 1 == q and all(dc & row for dc in dcs):
                    path.append(z)
                    return True
                continue
            # upper bound: each of the r = q - depth - 1 future additions
            # needs its own private witness in new_cn, seeing the other
            # r - 1 (all above z); the branch survives once r common
            # neighbors leave that room
            r = q - depth - 1
            counts = after[z]
            short = r
            scan = new_cn
            while short > 0 and scan:
                low = scan & -scan
                if counts[low.bit_length() - 1] >= r - 1:
                    short -= 1
                scan ^= low
            if short > 0:
                continue
            new_dcs = [dc & row for dc in dcs]
            if not all(dc & ~new_cn for dc in new_dcs):
                # some member has no private witness left, and none comes
                # back as T grows; no superset through here is minimal
                continue
            new_dcs.append(cn)
            path.append(z)
            if extend(z, new_cn, new_dcs, depth + 1):
                return True
            path.pop()
        return False

    extend(-1, (1 << n) - 1, [], 0)
    return tuple(path)


def witness_number(g: Graph, *, ceilings: Ceilings = DEFAULT_CEILINGS) -> WitnessCertificate:
    """Exact non-adjacency witness number with a tightness certificate."""
    if g.n == 0:
        raise ValueError("witness number of the empty graph is undefined")
    if g.n > ceilings.witness_vertices:
        raise CeilingError(
            f"witness-number search limited to {ceilings.witness_vertices} vertices (got {g.n})"
        )
    checked_up_to = min(g.n, g.max_degree() + 1)
    cert = _first_critical_of_size(g, _max_critical_size(g, len(max_clique(g))))
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
    ``hom._search``.  Pattern vertices are assigned in descending
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
    distinct_supports: dict[int, int] = {}
    p_full = (1 << pattern.n) - 1
    for pv, row in enumerate(pattern.rows):
        cons[pv].append((distinct, list(_bits(p_full ^ row ^ (1 << pv))), distinct_supports))
    dom = [
        sum(1 << a for a in range(g.n) if g.degree(a) >= row.bit_count())
        for row in pattern.rows
    ]
    images = next(_search(order, dom, cons), None)
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
