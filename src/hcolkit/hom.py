"""Exact list-homomorphism search and cores found by retraction.

``find_homomorphism`` is the universal correctness oracle of the
package: a complete backtracking search over vertex images that
maintains arc consistency, so a ``None`` answer is a proof of
non-existence.

One engine, ``_search``, does every search in this module.  It assigns
vertices in a given order, tries target vertices in ascending id order
and yields each solution, so solutions come in ascending lexicographic
order of the images read in assignment order.  After each assignment it
forward-checks the binary constraint tables, then propagates arc
consistency from every vertex whose domain shrank (MAC, Sabin & Freuder
1994), with the supports of a table cached per domain mask in the
spirit of AC-3rm (Lecoutre & Hemery 2007).  Propagation removes only
values that extend to no solution, so the solutions and their order are
those of plain forward checking.  Every caller takes its first
solution: ``find_homomorphism``, the cluster searches of
``_cluster_images`` and the automorphism searches of ``_orbits``, and
two searches outside this module, ``witness.find_b_ml_copy`` (an
injective homomorphism from a B(m, l) pattern, whose interchangeable
units are chained into ascending images by order tables, which keeps
the first solution) and ``reductions.verify_edge_gadget`` (one pinned
search per ordered pair of target vertices whose first vertex is in
``_orbit_minima``).

Sound preprocessing keeps ``find_homomorphism`` tractable on the
structured instances produced by the kernelization and reduction
modules, without affecting exactness.  ``_compile_clusters`` compiles
the clusters of the whole graph in one pass, then each component is
searched with one constraint group per vertex and table:

* vertices of degree at least ``_PIN_DEGREE`` are pins and the rest are
  soft.  One walk over the soft vertices (``graphs._pieces``, which
  ``Graph.connected_components`` takes too) finds each soft region, a
  maximal connected set of them, with its sorted members and its
  boundary, the pins it touches;
* a region on one or two pins with at most ``_CLUSTER_CAP`` members is a
  cluster, compiled into unary/binary constraint tables between its
  boundary vertices and re-expanded after the main search.  A cluster is
  first keyed by its shape: the member mask and each member's row over
  the members, both shifted down to the least member, with the member's
  attachments to the boundary in two low bits, plus the boundary size
  and, when lists are given, the member domains.  Only the first
  cluster of each shape in a call builds the signature that keys
  ``_cluster_cache`` across calls: the member domains, each member's row
  over the members numbered by rank and then the boundary, and the
  boundary size.  (Keying the cache by shape would split its entries: a
  cluster of a list reduction holds original vertices far from its
  gadget interior, so equal signatures come in many shapes.)
  Compilation, ``_cluster_images``, searches the cluster once at every
  image of the boundary and keeps the first solution at each feasible
  one; the tables are read off those images, and re-expansion looks up
  the images the main search chose.  A cluster with no feasible image
  refutes g before any search, a one-pin table narrows its pin's
  domain, and the two-pin tables enter the main search as one
  constraint group per boundary vertex and table, with one partner per
  cluster, beside the edge group, where arc consistency prunes by them.
  Gadget interiors and kernel pendant vertices disappear from the search
  this way, and clusters with equal signatures share one compilation,
  while the copies of one gadget share one signature lookup;
* the pins and the members of the other regions are residual.  The
  components share no vertex and no edge, so each is searched on its
  own, and the same walk over the residual vertices reads them off,
  where a pin's row also links it to every pin that shares a region on
  two or more pins with it, compiled or not; a region with no pin is a
  component of its own.  The witness is the union of the components'
  first solutions, and there is none when some component has none, so
  the order of the searches changes no answer.

The residual search orders vertices by descending total constraint
tightness, each table counted once per partner entry, which is plain
descending degree on uncompiled graphs; cluster and automorphism
searches use descending degree.  Ties go by id, so every witness is
deterministic.

Root restriction by the symmetries of H.  When no list narrows a
component, its edge constraints, its cluster tables (compiled from full
member domains) and so its residual domains are all invariant under
Aut(H): composing a solution with an automorphism s gives a solution.
So if the first residual vertex has a solution at value b, it has one
at the least vertex of b's orbit, and the least value with a solution
is the least of its orbit.  A component is such when the ``narrowed``
mask of ``_compile_clusters`` misses its residual vertices; its search
starts from the orbit minima (``_orbit_minima``) as the root's domain.
No dropped value is the least with a solution, so the first solution,
and with it the returned witness, is the one an unrestricted search
finds.  A component with lists keeps its root domain.  This is
value-symmetry breaking by dominance (Gent & Smith, ECAI 2000).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .config import Ceilings, DEFAULT_CEILINGS
from .errors import CeilingError, InvariantViolation
from .graphs import Graph, _bits, _pieces

# Vertices of at least this degree act as cluster boundaries and are
# never folded away; everything below may end up inside a cluster.
_PIN_DEGREE = 5
# Largest cluster the compiler will fold into a constraint table.
_CLUSTER_CAP = 64

# (H rows, cluster signature) -> ``_cluster_images``: the first solution
# at each feasible boundary image and the tables read off them.
# Clusters repeat heavily across gadget copies, so on a hit neither
# compilation nor re-expansion searches.  It is emptied whenever it
# reaches the cap, so a long-lived process stays bounded.
_cluster_cache: dict = {}
_CLUSTER_CACHE_CAP = 4096


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


def _degree_order(rows: Sequence[int]) -> list[int]:
    """The vertices by descending degree, ties by id."""
    return sorted(range(len(rows)), key=lambda v: (-rows[v].bit_count(), v))


def _edge_constraints(
    rows: Sequence[int], h_rows: tuple[int, ...]
) -> tuple[list[int], list[list[tuple]]]:
    """Degree order (descending, ties by id) and plain edge constraints,
    in the form ``_search`` takes, of the graph on 0..len(rows)-1 with
    adjacency bitmasks ``rows``; every vertex shares one supports dict."""
    supports: dict[int, int] = {}
    return _degree_order(rows), [[(h_rows, list(_bits(row)), supports)] if row else [] for row in rows]


def _search(
    order: list[int],
    dom: list[int],
    cons: Sequence[Sequence[tuple]],
) -> Iterator[dict[int, int]]:
    """Search maintaining arc consistency; yields the live assignment at
    every solution.

    Vertices are assigned in ``order`` and values tried in ascending
    order, so solutions come in ascending lexicographic order of
    ``tuple(assign[v] for v in order)``.  ``dom`` and ``cons`` are lists
    indexed by vertex.  ``cons[v]`` lists groups
    ``(table, partners, supports)``: ``table[a]`` is the mask of values
    of each vertex in ``partners`` compatible with ``v -> a``, and
    ``supports`` maps a domain mask ``d`` to the OR of ``table[b]`` over
    ``b`` in ``d``, or to -1 when that OR is the full mask of
    ``len(table)`` values: such a group narrows nothing and is skipped.
    It is filled as the search runs, and may be shared by every group
    with the same table and kept across calls.  A constraint must be
    listed at its end that comes first in ``order`` (callers list both
    ends, the partner carrying the transpose), and a pair may carry
    several.

    Assigning ``v -> a`` narrows ``dom[v]``, the mask of values left to
    v, to ``a`` and propagates: while some vertex ``w`` is queued,
    each unassigned partner of ``w`` is narrowed to its support in
    ``dom[w]`` and queued if it shrank.  From ``v`` itself this is
    forward checking, ``table[a]``; from the partners it maintains arc
    consistency (MAC).  This removes only values that extend to no
    solution, so the solutions and their order are those of plain
    forward checking.  Every narrowing goes on a per-level trail that is
    restored in reverse on backtracking, so a vertex narrowed twice at
    one level gets its oldest mask back.  The yielded dict is mutated as
    the search resumes: copy it to keep it.
    """
    n = len(order)
    assign: dict[int, int] = {}
    if not n:
        yield assign
        return

    def propagate(queue: list[int], t: list) -> bool:
        """Narrow partners of queued vertices to their supports until no
        domain shrinks; False on a wipeout."""
        queued = set(queue)
        while queue:
            w = queue.pop()
            queued.discard(w)
            d = dom[w]
            for table, partners, supports in cons[w]:
                s = supports.get(d)
                if s is None:
                    s = 0
                    for b in _bits(d):
                        s |= table[b]
                    if s == (1 << len(table)) - 1:
                        s = -1
                    supports[d] = s
                if s == -1:
                    # a full support narrows no partner
                    continue
                for u in partners:
                    if u in assign:
                        continue
                    old = dom[u]
                    new = old & s
                    if new != old:
                        t.append((u, old))
                        dom[u] = new
                        if not new:
                            return False
                        if u not in queued:
                            queued.add(u)
                            queue.append(u)
        return True

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
            assign[v] = low.bit_length() - 1
            t.append((v, dom[v]))
            dom[v] = low
            if propagate([v], t):
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
        for u, old in reversed(t):
            dom[u] = old
        t.clear()
        del assign[v]


def _cluster_images(h_rows: tuple[int, ...], sig: tuple) -> tuple[dict, object]:
    """``(images, tables)`` of the cluster with signature ``sig`` (member
    domains, local rows, boundary size) into the graph with rows
    ``h_rows``; cached.  The members are numbered first and the boundary
    after them, so the bits of a member's row at or above the member
    count are its attachments.

    One search per boundary image: ``images`` maps each that extends to
    the member images of its first solution.  ``tables`` is read off its
    keys: the mask of feasible images of one boundary vertex, or for two,
    ``(table, supports)`` in each direction, ``table[a]`` masking the
    images of the other end compatible with ``a``.
    """
    key = (h_rows, sig)
    hit = _cluster_cache.get(key)
    if hit is not None:
        return hit
    doms, rows, pins = sig
    m = len(doms)
    order, cons = _edge_constraints([row & ((1 << m) - 1) for row in rows], h_rows)
    n = len(h_rows)
    images: dict[tuple[int, ...], tuple[int, ...]] = {}
    for image in product(range(n), repeat=pins):
        dom = []
        for d, row in zip(doms, rows):
            for b in _bits(row >> m):
                d &= h_rows[image[b]]
            dom.append(d)
        found = next(_search(order, dom, cons), None) if all(dom) else None
        if found is not None:
            images[image] = tuple(found[i] for i in range(m))
    if pins == 1:
        tables: object = sum(1 << a for a, in images)
    else:
        table, back = [0] * n, [0] * n
        for a, b in images:
            table[a] |= 1 << b
            back[b] |= 1 << a
        tables = ((tuple(table), {}), (tuple(back), {}))
    if len(_cluster_cache) >= _CLUSTER_CACHE_CAP:
        _cluster_cache.clear()
    hit = _cluster_cache[key] = (images, tables)
    return hit


@lru_cache(maxsize=64)
def _orbits(h_rows: tuple[int, ...]) -> tuple[int, ...]:
    """The orbit under Aut(H) of each vertex of the graph H with rows
    ``h_rows``, as a mask; cached per target.

    Colour refinement (1-WL; McKay & Piperno, J. Symb. Comput. 2014)
    gives a colouring that every automorphism preserves, so vertices of
    different colours lie in different orbits.
    Within a colour class, the least vertex r not yet placed is tried
    against each other vertex b that is not already known to share or
    to miss its orbit: one first-solution search over H, with r pinned
    to b, every vertex kept in its colour class, and edge and non-edge
    tables between every pair (which force a bijection), finds an
    automorphism with r -> b or proves there is none.  Every automorphism
    found merges the orbit masks along each of its cycles.
    """
    n = len(h_rows)
    colour = [0] * n
    classes = 1
    while True:
        sig = [(colour[v], tuple(sorted(colour[u] for u in _bits(h_rows[v])))) for v in range(n)]
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        colour = [ranks[s] for s in sig]
        if len(ranks) == classes:
            break
        classes = len(ranks)
    members = [0] * classes
    for v in range(n):
        members[colour[v]] |= 1 << v

    orbit = [1 << v for v in range(n)]
    degree_order, cons = _edge_constraints(h_rows, h_rows)
    non_rows = [((1 << n) - 1) & ~row & ~(1 << v) for v, row in enumerate(h_rows)]
    non_supports: dict[int, int] = {}
    for v, groups in enumerate(cons):
        groups.append((non_rows, list(_bits(non_rows[v])), non_supports))
    for pending in members:
        while pending & (pending - 1):
            r = (pending & -pending).bit_length() - 1
            apart = 0  # vertices proved outside the orbit of r
            order = [r] + [v for v in degree_order if v != r]
            for b in _bits(pending ^ 1 << r):
                if orbit[b] & (apart | 1 << r):
                    continue
                dom = [members[c] for c in colour]
                dom[r] = 1 << b
                found = next(_search(order, dom, cons), None)
                if found is None:
                    apart |= 1 << b
                    continue
                for x, y in found.items():
                    if not orbit[x] >> y & 1:
                        merged = orbit[x] | orbit[y]
                        for v in _bits(merged):
                            orbit[v] = merged
            pending &= ~orbit[r]
    return tuple(orbit)


def _orbit_minima(h_rows: tuple[int, ...]) -> int:
    """The mask of the least vertex of each orbit of Aut(H) (``_orbits``)."""
    return sum({orbit & -orbit for orbit in _orbits(h_rows)})


def _compile_clusters(g: Graph, h: Graph, dom: list[int], listed: bool) -> Optional[tuple]:
    """Compile each cluster of g in order of its least member, narrowing
    ``dom`` in place by the one-pin tables (see the module docstring).

    Returns ``(residual, link, narrowed, clusters, tables)``, or None when
    a cluster refutes g.  ``_pieces(link, residual)`` gives each
    component's residual vertices; ``narrowed`` masks the vertices whose
    domains the lists narrow and the boundary of each cluster with such a
    member; ``clusters`` lists ``(members, boundary, images)``; and
    ``tables[u]`` maps the id of each table at u to its ``_search`` group.
    """
    rows = g.rows
    pins = sum(1 << v for v, row in enumerate(rows) if row.bit_count() >= _PIN_DEGREE)
    narrowed = sum(1 << v for v, d in enumerate(dom) if d != (1 << h.n) - 1) if listed else 0
    residual, link = pins, list(rows)
    clusters: list[tuple] = []
    tables: dict[int, dict[int, tuple]] = {}
    memo: dict[tuple, tuple] = {}  # cluster shape -> _cluster_images
    for members, region, reach in _pieces(rows, ((1 << g.n) - 1) ^ pins):
        touch = reach & pins
        boundary = list(_bits(touch))
        if len(boundary) > 1:
            for p in boundary:
                link[p] |= touch
        if not 0 < len(boundary) <= 2 or len(members) > _CLUSTER_CAP:
            residual |= region
            continue
        if region & narrowed:
            narrowed |= touch
        # the shape, in positions relative to the least member: each
        # member's row over the region, with its attachments to the
        # first and the last boundary vertex in the two low bits
        base = members[0]
        local = region >> base
        first, last = 1 << boundary[0], 1 << boundary[-1]
        key = (local, len(boundary), *[
            (row >> base & local) << 2 | (row & first != 0) << 1 | (row & last != 0)
            for row in map(rows.__getitem__, members)
        ])
        if listed:
            key += tuple(dom[v] for v in members)
        hit = memo.get(key)
        if hit is None:
            # the signature, in ranks: members first, the boundary after
            index = {v: i for i, v in enumerate(members + boundary)}
            local_rows = tuple(sum(1 << index[u] for u in _bits(rows[v])) for v in members)
            sig = (tuple(dom[v] for v in members), local_rows, len(boundary))
            hit = memo[key] = _cluster_images(h.rows, sig)
        images, compiled = hit
        if len(boundary) == 1:
            dom[boundary[0]] &= compiled
        else:
            # one group per direction and table, with one partner per
            # cluster; the search keeps arc consistency
            for u, w, (t, supports) in zip(boundary, boundary[::-1], compiled):
                tables.setdefault(u, {}).setdefault(id(t), (t, [], supports))[1].append(w)
        # no boundary image is feasible, or none is left to the pin
        if not images or not dom[boundary[0]]:
            return None
        clusters.append((members, boundary, images))
    return residual, link, narrowed, clusters, tables


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
    compiled = _compile_clusters(g, h, doms, bool(lists))
    if compiled is None:
        return None
    residual, link, narrowed, clusters, tables = compiled
    # Graph-edge constraints among residual vertices, then the groups of
    # the cluster tables, with each partner once.  Order by total
    # constraint tightness (forbidden pairs summed over incident tables,
    # one table per partner entry), descending, ties by id: descending
    # degree on plain graphs, while on compiled instances hard mutual
    # edges rank above the loose disequality tables of gadget boundaries.
    square = h.n * h.n
    weights: dict[int, int] = {}  # id(table) -> its forbidden pairs

    def tightness(table: Sequence[int]) -> int:
        if id(table) not in weights:
            weights[id(table)] = square - sum(m.bit_count() for m in table)
        return weights[id(table)]

    edge_supports: dict[int, int] = {}
    cons: list[Sequence[tuple]] = [()] * g.n
    weight = [0] * g.n
    for v in _bits(residual):
        neighbors = list(_bits(g.rows[v] & residual))
        groups = [(h.rows, neighbors, edge_supports)] if neighbors else []
        weight[v] = tightness(h.rows) * len(neighbors)
        for table, partners, supports in tables.get(v, {}).values():
            weight[v] += tightness(table) * len(partners)
            groups.append((table, list(dict.fromkeys(partners)), supports))
        cons[v] = groups
    total: dict[int, int] = {}
    for members, mask, _ in _pieces(link, residual):
        order = sorted(members, key=lambda v: (-weight[v], v))
        if not mask & narrowed:
            # every table and domain of the component is Aut(H)-invariant,
            # so the least root value with a solution is the least of its orbit
            doms[order[0]] &= _orbit_minima(h.rows)
        assign = next(_search(order, doms, cons), None)
        if assign is None:
            return None
        total.update(assign)
    # re-expand each compiled cluster by the first solution its
    # compilation found at the boundary images chosen here
    for members, boundary, images in clusters:
        sub = images.get(tuple(map(total.__getitem__, boundary)))
        if sub is None:
            raise InvariantViolation("compiled cluster lost its witness")
        total.update(zip(members, sub))
    return Homomorphism(g, h, tuple(map(total.__getitem__, range(g.n))))


def is_core(g: Graph, *, ceilings: Ceilings = DEFAULT_CEILINGS) -> bool:
    """True iff every endomorphism of g is an automorphism.

    An endomorphism that is not onto misses some v and so maps g into
    g - v, and a map into g - v is an endomorphism that misses v.  An
    automorphism s carries g - v onto g - s(v), so one homomorphism
    search per orbit of Aut(g) decides it.  Guarded by ``core_vertices``.
    """
    if g.n > ceilings.core_vertices:
        raise CeilingError(
            f"core test limited to {ceilings.core_vertices} vertices (got {g.n})"
        )
    return _retract(g, ceilings) is None


def _greedy_colours(rows: Sequence[int]) -> int:
    """The number of colours of a first-fit colouring in degree order
    (``_degree_order``): at least the chromatic number."""
    classes: list[int] = []
    for v in _degree_order(rows):
        for i, members in enumerate(classes):
            if not rows[v] & members:
                classes[i] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


def _retract(g: Graph, ceilings: Ceilings) -> Optional[Graph]:
    """g - v for the least orbit minimum v with g -> g - v, else None.

    A map g -> g - v sends a clique of g onto a clique of g - v, so no
    search is made when g - v takes fewer colours (``_greedy_colours``)
    than a clique of g, taken in degree order, has vertices."""
    clique = 0
    for v in _degree_order(g.rows):
        if g.rows[v] & clique == clique:
            clique |= 1 << v
    for v in _bits(_orbit_minima(g.rows)):
        rest = g.induced_subgraph(u for u in range(g.n) if u != v)
        if _greedy_colours(rest.rows) >= clique.bit_count() and find_homomorphism(g, rest, ceilings=ceilings):
            return rest
    return None


def compute_core(g: Graph, *, ceilings: Ceilings = DEFAULT_CEILINGS) -> Graph:
    """A minimum induced subgraph homomorphically equivalent to g.

    Retracts one vertex at a time (g maps into g - v, and g - v into g
    by inclusion) until g is a core; cores are unique up to isomorphism,
    so it is minimum.  Guarded by the ``core_vertices`` ceiling.
    """
    if g.n == 0:
        raise ValueError("core of the empty graph is undefined")
    if g.n > ceilings.core_vertices:
        raise CeilingError(
            f"core computation limited to {ceilings.core_vertices} vertices (got {g.n})"
        )
    while (rest := _retract(g, ceilings)) is not None:
        g = rest
    return g
