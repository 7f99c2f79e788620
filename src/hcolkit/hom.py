"""Exact list-homomorphism search, endomorphism enumeration, and cores.

``find_homomorphism`` is the universal correctness oracle of the
package: a complete backtracking search over vertex images with
forward checking, so a ``None`` answer is a proof of non-existence.

One engine, ``_fc_search``, does every search in this module.  It
assigns vertices in a given order, tries target vertices in ascending
id order, forward-checks binary constraint tables and yields each
solution, so solutions come in ascending lexicographic order of the
images read in assignment order.  It has two uses:

* first: ``find_homomorphism``, the cluster feasibility tables and the
  re-expansion of compiled clusters take its first solution, and so do
  two searches outside this module: ``witness.find_b_ml_copy`` (an
  injective homomorphism from a B(m, l) pattern) and
  ``reductions.verify_edge_gadget`` (one pinned search per ordered pair
  of target vertices);
* all: ``enumerate_homomorphisms`` (and through it ``is_core``)
  iterates it to the end.

Two sound preprocessing steps keep ``find_homomorphism`` tractable on
the structured instances produced by the kernelization and reduction
modules, without affecting exactness:

* the input graph is split into connected components, solved
  independently;
* low-degree "clusters" (connected sets of vertices attached to the
  rest of the graph through at most two higher-degree vertices) are
  compiled into unary/binary constraint tables between their boundary
  vertices and re-expanded after the main search.  Gadget interiors and
  kernel pendant vertices disappear from the search this way.

The residual search orders vertices by descending total constraint
tightness, which is plain descending degree on uncompiled graphs;
enumeration and cluster searches use descending degree.  Ties go by
id, so every witness and every enumeration is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .config import Ceilings, DEFAULT_CEILINGS
from .errors import CeilingError, InvariantViolation
from .graphs import Graph, _bits

# Vertices of at least this degree act as cluster boundaries and are
# never folded away; everything below may end up inside a cluster.
_PIN_DEGREE = 5
# Largest cluster the compiler will fold into a constraint table.
_CLUSTER_CAP = 64

# (H rows, cluster signature) -> compiled table; clusters repeat heavily
# across gadget copies, so this cache collapses their cost.
_cluster_cache: dict = {}


@dataclass(frozen=True)
class Homomorphism:
    """A total edge-preserving map between two graphs."""

    source: Graph
    target: Graph
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != self.source.n:
            raise ValueError("assignment must cover every source vertex")

    def check(self, lists: Mapping[int, Iterable[int]] | None = None) -> bool:
        for u, v in self.source.edges():
            if not self.target.has_edge(self.assignment[u], self.assignment[v]):
                return False
        if lists:
            for v, allowed in lists.items():
                if self.assignment[v] not in set(allowed):
                    return False
        return True

    def is_bijective(self) -> bool:
        return len(set(self.assignment)) == self.source.n


def _domains_from_lists(
    g: Graph, h: Graph, lists: Mapping[int, Iterable[int]] | None
) -> list[int]:
    full = (1 << h.n) - 1
    doms = [full] * g.n
    if lists:
        for v, allowed in lists.items():
            if not 0 <= v < g.n:
                raise ValueError(f"list given for unknown vertex {v}")
            mask = 0
            for t in allowed:
                if not 0 <= t < h.n:
                    raise ValueError(f"list value {t} not a target vertex")
                mask |= 1 << t
            doms[v] = mask
    return doms


def _edge_constraints(
    rows: Sequence[int], h_rows: tuple[int, ...]
) -> tuple[list[int], list[list[tuple[int, tuple[int, ...]]]]]:
    """Degree order (descending, ties by id) and plain edge constraints
    of the graph on 0..len(rows)-1 with adjacency bitmasks ``rows``."""
    order = sorted(range(len(rows)), key=lambda v: (-rows[v].bit_count(), v))
    return order, [[(u, h_rows) for u in _bits(row)] for row in rows]


def _fc_search(
    order: list[int],
    dom: list[int] | dict[int, int],
    cons: Sequence[list] | Mapping[int, list],
) -> Iterator[dict[int, int]]:
    """Forward-checking search; yields the live assignment at every solution.

    Vertices are assigned in ``order`` and values tried in ascending
    order, so solutions come in ascending lexicographic order of
    ``tuple(assign[v] for v in order)``.  ``cons[v]`` lists
    ``(partner, table)`` pairs, ``table[a]`` being the mask of partner
    values compatible with ``v -> a``; each assignment narrows the
    partners' entries of ``dom`` (a vertex -> value-mask mapping), and a
    per-level trail restores them on backtracking.  The yielded dict is
    mutated as the search resumes: copy it to keep it.
    """
    n = len(order)
    assign: dict[int, int] = {}
    if not n:
        yield assign
        return
    cand = [0] * n
    trail: list[list] = [[] for _ in range(n)]
    cand[0] = dom[order[0]]
    i = 0
    while True:
        v = order[i]
        t = trail[i]
        if cand[i]:
            low = cand[i] & -cand[i]
            cand[i] ^= low
            a = low.bit_length() - 1
            assign[v] = a
            for u, table in cons[v]:
                if u in assign:
                    continue
                old = dom[u]
                new = old & table[a]
                if new != old:
                    t.append((u, old))
                    dom[u] = new
                    if not new:
                        break
            else:
                if i + 1 < n:
                    i += 1
                    cand[i] = dom[order[i]]
                    continue
                yield assign
        elif i:
            # exhausted: undo the choice one level up
            i -= 1
            v = order[i]
            t = trail[i]
        else:
            return
        for u, old in t:
            dom[u] = old
        t.clear()
        del assign[v]


class _ComponentSolver:
    """Solves one connected component of the instance graph."""

    def __init__(self, g: Graph, h: Graph, comp: tuple[int, ...], doms: list[int]):
        self.g = g
        self.h = h
        self.comp = comp
        self.dom = {v: doms[v] for v in comp}
        self.clusters: list[tuple[list[int], list[int]]] = []  # (members, boundary)
        self.residual: list[int] = []
        # per-variable constraint list: (partner, table); table[a] is the
        # mask of partner values compatible with value a.
        self.constraints: dict[int, list[tuple[int, tuple[int, ...] | list[int]]]] = {}

    # -- preprocessing --------------------------------------------------

    def split_clusters(self) -> bool:
        g = self.g
        pins = {v for v in self.comp if g.degree(v) >= _PIN_DEGREE}
        if not pins:
            self.residual = list(self.comp)
            return True
        soft = [v for v in self.comp if v not in pins]
        seen: set[int] = set()
        residual_extra: list[int] = []
        for start in soft:
            if start in seen:
                continue
            members = [start]
            seen.add(start)
            queue = [start]
            boundary: set[int] = set()
            while queue:
                v = queue.pop()
                for u in _bits(g.rows[v]):
                    if u in pins:
                        boundary.add(u)
                    elif u not in seen:
                        seen.add(u)
                        members.append(u)
                        queue.append(u)
            if len(boundary) <= 2 and len(members) <= _CLUSTER_CAP:
                if not self._compile_cluster(sorted(members), sorted(boundary)):
                    return False
            else:
                residual_extra.extend(members)
        self.residual = sorted(pins) + residual_extra
        return True

    def _cluster_tables(self, members: list[int], boundary: list[int]):
        """Feasibility table of a cluster, cached by structural signature."""
        g, h = self.g, self.h
        index = {v: i for i, v in enumerate(members)}
        local_rows = []
        attach = []
        for v in members:
            row = 0
            for u in _bits(g.rows[v]):
                if u in index:
                    row |= 1 << index[u]
            local_rows.append(row)
            attach.append(tuple(b for b in range(len(boundary)) if g.has_edge(v, boundary[b])))
        sig = (
            tuple(self.dom[v] for v in members),
            tuple(local_rows),
            tuple(attach),
            len(boundary),
        )
        key = (h.rows, sig)
        hit = _cluster_cache.get(key)
        if hit is not None:
            return hit

        order, cons = _edge_constraints(local_rows, h.rows)

        def feasible(images: tuple[int, ...]) -> bool:
            dom = []
            for i, d in enumerate(sig[0]):
                for b in attach[i]:
                    d &= h.rows[images[b]]
                if not d:
                    return False
                dom.append(d)
            return next(_fc_search(order, dom, cons), None) is not None

        if len(boundary) == 0:
            result = feasible(())
        elif len(boundary) == 1:
            result = 0
            for a in range(h.n):
                if feasible((a,)):
                    result |= 1 << a
        else:
            result = tuple(
                sum(1 << b for b in range(h.n) if feasible((a, b)))
                for a in range(h.n)
            )
        _cluster_cache[key] = result
        return result

    def _compile_cluster(self, members: list[int], boundary: list[int]) -> bool:
        table = self._cluster_tables(members, boundary)
        if len(boundary) == 0:
            # the cluster is the whole component; table is a plain yes/no
            if not table:
                return False
        elif len(boundary) == 1:
            x = boundary[0]
            self.dom[x] &= table
            if not self.dom[x]:
                return False
        else:
            x, y = boundary
            # arc-consistency pass on the fresh table, then register both
            # directions for forward checking.
            back = [0] * self.h.n
            for a in range(self.h.n):
                for b in _bits(table[a]):
                    back[b] |= 1 << a
            self.dom[x] &= sum(1 << a for a in range(self.h.n) if table[a] & self.dom[y])
            self.dom[y] &= sum(1 << b for b in range(self.h.n) if back[b] & self.dom[x])
            if not self.dom[x] or not self.dom[y]:
                return False
            self.constraints.setdefault(x, []).append((y, table))
            self.constraints.setdefault(y, []).append((x, tuple(back)))
        self.clusters.append((members, boundary))
        return True

    # -- residual search ------------------------------------------------

    def solve(self) -> Optional[dict[int, int]]:
        if not self.split_clusters():
            return None
        g, h = self.g, self.h
        # graph-edge constraints among residual vertices
        residual_set = set(self.residual)
        cons: dict[int, list] = {v: [] for v in self.residual}
        for v in self.residual:
            for u in _bits(g.rows[v]):
                if u in residual_set:
                    cons[v].append((u, h.rows))
            cons[v].extend(self.constraints.get(v, ()))

        # Order by total constraint tightness (forbidden pairs summed over
        # incident constraint tables), descending, ties by id.  On plain
        # graphs every edge weighs the same, so this is descending degree;
        # on compiled instances it ranks hard mutual edges above the loose
        # disequality tables of gadget boundaries.
        square = h.n * h.n
        edge_weight = square - sum(r.bit_count() for r in h.rows)
        table_weight: dict[int, int] = {}

        def weight(v: int) -> int:
            total = 0
            for _, table in cons[v]:
                if table is h.rows:
                    total += edge_weight
                else:
                    key = id(table)
                    w = table_weight.get(key)
                    if w is None:
                        w = square - sum(m.bit_count() for m in table)
                        table_weight[key] = w
                    total += w
            return total

        order = sorted(self.residual, key=lambda v: (-weight(v), v))
        assign = next(_fc_search(order, self.dom, cons), None)
        if assign is None:
            return None
        # re-expand the compiled clusters
        for members, boundary in self.clusters:
            index = {v: i for i, v in enumerate(members)}
            rows = []
            dom = []
            for v in members:
                row = 0
                d = self.dom[v]
                for u in _bits(g.rows[v]):
                    if u in index:
                        row |= 1 << index[u]
                    elif u in assign:
                        d &= h.rows[assign[u]]
                rows.append(row)
                dom.append(d)
            order, cons = _edge_constraints(rows, h.rows)
            sub = next(_fc_search(order, dom, cons), None)
            if sub is None:
                raise InvariantViolation("compiled cluster lost its witness")
            for i, v in enumerate(members):
                assign[v] = sub[i]
        return assign


def _check_oracle_size(g: Graph, h: Graph, ceilings: Ceilings) -> None:
    """Refuse a homomorphism search between graphs above ``oracle_vertices``."""
    if g.n > ceilings.oracle_vertices or h.n > ceilings.oracle_vertices:
        raise CeilingError(
            f"homomorphism oracle limited to {ceilings.oracle_vertices} vertices "
            f"(got {g.n} -> {h.n})"
        )


def find_homomorphism(
    g: Graph,
    h: Graph,
    lists: Mapping[int, Iterable[int]] | None = None,
    *,
    ceilings: Ceilings = DEFAULT_CEILINGS,
) -> Optional[Homomorphism]:
    """Exact search for a list-respecting homomorphism from g to h.

    Absent lists mean the full target vertex set for every vertex.  The
    search is exhaustive, so a ``None`` return proves non-existence.
    """
    _check_oracle_size(g, h, ceilings)
    doms = _domains_from_lists(g, h, lists)
    if g.n == 0:
        return Homomorphism(g, h, ())
    if h.n == 0 or 0 in doms:
        return None
    total: dict[int, int] = {}
    for comp in g.connected_components():
        sol = _ComponentSolver(g, h, comp, doms).solve()
        if sol is None:
            return None
        total.update(sol)
    return Homomorphism(g, h, tuple(total[v] for v in range(g.n)))


def enumerate_homomorphisms(
    g: Graph,
    h: Graph,
    lists: Mapping[int, Iterable[int]] | None = None,
    *,
    ceilings: Ceilings = DEFAULT_CEILINGS,
) -> Iterator[Homomorphism]:
    """Yield every homomorphism g -> h, in deterministic order.

    Exhaustive generation is exponential; intended for the small graphs
    involved in core computations (guarded by ``core_vertices``).
    """
    if g.n > ceilings.core_vertices:
        raise CeilingError(
            f"endomorphism enumeration limited to {ceilings.core_vertices} vertices"
        )
    doms = _domains_from_lists(g, h, lists)
    if g.n == 0:
        yield Homomorphism(g, h, ())
        return
    if h.n == 0 or 0 in doms:
        return
    order, cons = _edge_constraints(g.rows, h.rows)
    for assign in _fc_search(order, doms, cons):
        yield Homomorphism(g, h, tuple(assign[v] for v in range(g.n)))


def is_core(g: Graph, *, ceilings: Ceilings = DEFAULT_CEILINGS) -> bool:
    """True iff every endomorphism of g is an automorphism."""
    for f in enumerate_homomorphisms(g, g, ceilings=ceilings):
        if not f.is_bijective():
            return False
    return True


def compute_core(g: Graph, *, ceilings: Ceilings = DEFAULT_CEILINGS) -> Graph:
    """A minimum induced subgraph homomorphically equivalent to g.

    Searches induced subgraphs grouped by size, smallest first, subsets
    in lexicographic order, and returns the first one g maps into (the
    reverse map is the inclusion).  Exponential; guarded by the
    ``core_vertices`` ceiling.
    """
    if g.n == 0:
        raise ValueError("core of the empty graph is undefined")
    if g.n > ceilings.core_vertices:
        raise CeilingError(
            f"core computation limited to {ceilings.core_vertices} vertices (got {g.n})"
        )
    for size in range(1, g.n):
        for subset in combinations(range(g.n), size):
            candidate = g.induced_subgraph(subset)
            if find_homomorphism(g, candidate, ceilings=ceilings) is not None:
                return candidate
    return g
