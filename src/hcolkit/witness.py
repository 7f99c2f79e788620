"""Non-adjacency witness number q(G) and its structural bounds.

q(G) is the smallest q such that every vertex set with no common
neighbor contains a subset of size at most q with no common neighbor.
Equivalently (and this is what the search uses), q(G) is the maximum
size of a *critical* set: a set T with empty common neighborhood all of
whose (|T|-1)-subsets have a nonempty one.  Critical sets coincide with
the inclusion-minimal empty-common-neighborhood sets, and a maximum
clique is always one of them.

The search is exact.  A set T has no common neighbor iff it meets every
non-neighborhood E_w = V - N(w) (w is in E_w, having no loop), so the
critical sets are the minimal transversals of the hypergraph {E_w}, and
q(G) is the size of its largest one.

One search (`_largest_transversal`) finds them by the MMCS rule for
minimal transversals (Murakami & Uno, Discrete Appl. Math. 2014): a
node holds the partial set S, CN(S) (the edges S misses), the private
edges CN(S - s) - CN(S) of each member s, and a candidate mask.  It
branches on the missed edge with the fewest candidates, taking the
candidates out and giving each back after its branch, so every minimal
transversal is met once.  Member s keeps a private ("critical") edge
iff CN(S - s) - CN(S) is nonempty; a child where some member has none
is dropped, because that set only shrinks as S grows: adding z
intersects it with N(z).  Started at a node (S, cand), the search meets
exactly the minimal transversals T ⊇ S with T - S ⊆ cand, and it
returns as soon as its best size reaches a given stop.

It prunes by counting private witnesses.  If a critical superset adds
the vertices Z to S, every z in Z has a private witness w_z in CN(S):
w_z misses z and sees every other member of Z.  So the witnesses are
pairwise distinct (w_z misses z, which every other w_z' sees), and each
has at least |Z| - 1 neighbors among the candidates Z is drawn from.  A
node can beat the best size only if at least need = best - |S| + 1
members of CN(S) have |N(w) ∩ candidates| >= need - 1; the scan that
picks the branching edge counts them.  When need >= 2 a second count
follows.  Each z in Z sees the |Z| - 1 >= need - 1 distinct witnesses
of the other members of Z, all in CN(S), so Z lies inside
Z' = {z in candidates : |N(z) ∩ CN(S)| >= need - 1}, and the node is
dropped when |Z'| < need.  Each w_z misses z, a member of Z', and sees
the rest of Z, so it misses between 1 and |Z'| - need + 1 members of
Z'; the node is dropped when fewer than need members of CN(S) do.

Pass 1 runs the search from the root with the best size at omega, since
a maximum clique is critical, and a stop it cannot reach; it returns q.

Pass 2 (`_first_critical_of_size`) fixes the certificate, the
lexicographically first critical set of size q, one vertex at a time.
With its first vertices P fixed, it carries CN(P) and the private-edge
masks of P, extends them to P + z by the search's own child rule, and
tries each z above max(P) in ascending order.  It keeps the first z
such that z and every member of P keep a private edge in P + z, and
either CN(P + z) is empty and z is the q-th vertex, or the search
started at (P + z, the vertices above z) with best size q - 1 and stop
q returns q.  That search meets exactly the critical sets whose sorted
order begins with P + z, and q is the largest size, so it returns q iff
a critical set of size q begins with P + z.  The first z kept is
therefore the next vertex of the lexicographically first one.

Also here: the B(m, l) obstruction patterns whose absence certifies
q(G) <= m-1, and the degeneracy / clique-number / max-degree bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

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
        return len(self.witness_set) == self.q and critical_set_fault(g, self.witness_set) is None


def critical_set_fault(g: Graph, vertices: Sequence[int]) -> Optional[str]:
    """None when ``vertices`` is a critical set of g: it has no common
    neighbor, and each of its drop-one subsets has one.  Otherwise the
    first condition that fails, as a predicate of the set.  The empty set
    has no drop-one subsets."""
    if common_neighbors(g, vertices):
        return "has a common neighbor"
    if vertices and not all(
        common_neighbors(g, sub) for sub in combinations(vertices, len(vertices) - 1)
    ):
        return "is not tight: a proper subset lacks a common neighbor"
    return None


# ---------------------------------------------------------------------------
# Fundamental invariants
# ---------------------------------------------------------------------------

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

def _largest_transversal(
    rows: list[int], cn: int, crits: list[int], cand: int, depth: int, best: int, stop: int
) -> int:
    """The larger of best and the size of the largest minimal transversal
    of {V - N(w)} met below the node (S, cand); returns once that reaches
    stop.

    S has depth members and misses some edge: cn = CN(S) marks the edges
    S misses, and crits[i] = CN(S - s_i) - CN(S) marks the private edges
    of member s_i, each nonempty.  The transversals met are those T ⊇ S
    with T - S ⊆ cand.
    """
    full = (1 << len(rows)) - 1
    miss = [full ^ row for row in rows]

    def search(cn: int, crits: list[int], cand: int, depth: int) -> None:
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
            k = (cand & miss[w]).bit_count()
            if k < fewest:
                fewest, edge = k, w
            if k <= cap:
                room += 1
            scan ^= low
        if room < need:
            return
        if need >= 2:
            # the added vertices come from Z', the candidates seeing at
            # least need - 1 members of cn, and each one's witness in cn
            # misses it and sees the other added vertices
            zs = 0
            scan = cand
            while scan:
                low = scan & -scan
                if (rows[low.bit_length() - 1] & cn).bit_count() >= need - 1:
                    zs |= low
                scan ^= low
            cap = zs.bit_count() - need + 1
            if cap < 1:
                return
            room = 0
            scan = cn
            while scan:
                low = scan & -scan
                if 1 <= (zs & miss[low.bit_length() - 1]).bit_count() <= cap:
                    room += 1
                scan ^= low
            if room < need:
                return
        branch = cand & miss[edge]
        # each branch's vertex is given back once its subtree is done, so
        # later siblings may take it and every transversal is met once
        cand ^= branch
        while branch:
            low = branch & -branch
            row = rows[low.bit_length() - 1]
            new_cn = cn & row
            # adding z leaves each member the private edges z sees, and
            # one with none left never regains one
            new_crits = [c & row for c in crits]
            if 0 not in new_crits:
                if not new_cn:
                    best = max(best, depth + 1)
                else:
                    new_crits.append(cn ^ new_cn)
                    search(new_cn, new_crits, cand, depth + 1)
                if best >= stop:
                    return
            cand |= low
            branch ^= low

    search(cn, crits, cand, depth)
    return best


def _first_critical_of_size(g: Graph, q: int) -> tuple[int, ...]:
    """Lexicographically first critical set of size q, where q = q(g),
    fixed one vertex at a time."""
    rows = g.rows
    full = (1 << g.n) - 1
    cn, crits, path = full, [], []
    for depth in range(1, q + 1):
        for z in range(path[-1] + 1 if path else 0, g.n):
            row = rows[z]
            new_cn = cn & row
            # z keeps a private edge iff it misses part of CN(path)
            if new_cn == cn:
                continue
            # the search's child rule: each member keeps the private
            # edges z sees, and one with none left never regains one
            new_crits = [c & row for c in crits]
            if 0 in new_crits:
                continue
            new_crits.append(cn ^ new_cn)
            # keep z if path + z begins a critical set of size q: it is
            # one, or the search over the vertices above z reaches q
            if depth == q:
                if not new_cn:
                    break
            elif new_cn and _largest_transversal(
                rows, new_cn, new_crits, full ^ ((2 << z) - 1), depth, q - 1, q
            ) == q:
                break
        else:
            raise InvariantViolation(f"no critical set of size {q} extends {tuple(path)}")
        path.append(z)
        cn, crits = new_cn, new_crits
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
    full = (1 << g.n) - 1
    # a maximum clique is critical, and no transversal reaches n + 1
    q = _largest_transversal(g.rows, full, [], full, 0, len(max_clique(g)), g.n + 1)
    cert = _first_critical_of_size(g, q)
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

    Interchangeable units are chained into ascending images: the
    vertices u_{l+1}..u_m, and the pairs (u_i, v_i) for i <= l through
    their u_i (lex-leader symmetry breaking; Crawford, Ginsberg, Luks &
    Roy, KR 1996).  This keeps the first solution: swapping two units of
    a chain maps it to another solution, which first differs from it in
    the order at the earlier u of the swap, and the first solution is
    the smaller there, so it already meets every chain.
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
    # lex-leader chains: consecutive units take ascending images
    above = tuple(((1 << g.n) - 1) ^ ((2 << a) - 1) for a in range(g.n))
    below = tuple((1 << a) - 1 for a in range(g.n))
    above_supports: dict[int, int] = {}
    below_supports: dict[int, int] = {}
    for chain in (range(l, m), range(l)):
        for a, b in zip(chain, chain[1:]):
            cons[a].append((above, [b], above_supports))
            cons[b].append((below, [a], below_supports))
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

    A True answer certifies q(G) <= q - 1.  A False answer certifies
    nothing: ``make_random(28, 2)`` has a B(7, 5) copy although its q is 6.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    return all(
        find_b_ml_copy(g, q, l, ceilings=ceilings) is None for l in range(q + 1)
    )
