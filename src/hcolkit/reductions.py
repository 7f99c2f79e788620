"""Hardness-style constructions: edge gadgets, list-homomorphism removal,
and the NAE-SAT to target-coloring transformation.

An edge gadget for a target H is a graph F with two marked vertices
a, b such that F maps into H with (a, b) pinned to (u, v) exactly when
u != v.  Gadgets exist for every projective core target; this module
*searches* for them (canonical candidates first, then exhaustive
enumeration of small marked graphs) and verifies every candidate
exhaustively, so no unverified gadget ever escapes.  A failed search is
inconclusive, never a proof of absence.

Built on top of gadgets:

* ``reduce_list_to_plain`` removes vertex lists by gluing a gadget copy
  between each vertex and each of its forbidden target vertices, next
  to one fresh copy of the target.
* ``reduce_naesat_to_hcol`` encodes a width-q NAE-SAT formula as a
  target-coloring instance whose vertex cover is linear in the number
  of variables, built around a tight witness set of size q = width.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Mapping, Optional, Sequence

from .config import Ceilings, DEFAULT_CEILINGS
from .errors import CeilingError
from .graphs import Graph, make_complete, make_path, parse_graph_lines, write_graph
from .graphs import common_neighbors
from .hom import _check_oracle_size, _domains_from_lists, _edge_constraints, _fc_search
from .hom import find_homomorphism  # unused here; perfbench/tracing.py patches it by name
from .kernels import VertexCoverInstance
from .witness import witness_number


# ---------------------------------------------------------------------------
# Edge gadgets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeGadget:
    """A graph with two marked vertices acting as a disequality constraint."""

    gadget: Graph
    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("marked vertices must differ")
        for v in (self.a, self.b):
            if not 0 <= v < self.gadget.n:
                raise ValueError("marked vertex outside the gadget")

    @classmethod
    def verified(cls, target: Graph, gadget: Graph, a: int, b: int,
                 *, ceilings: Ceilings = DEFAULT_CEILINGS) -> "EdgeGadget":
        if not verify_edge_gadget(target, gadget, a, b, ceilings=ceilings):
            raise ValueError("candidate is not an edge gadget for this target")
        return cls(gadget, a, b)

    @property
    def interior_size(self) -> int:
        return self.gadget.n - 2


def verify_edge_gadget(
    target: Graph,
    gadget: Graph,
    a: int,
    b: int,
    *,
    ceilings: Ceilings = DEFAULT_CEILINGS,
) -> bool:
    """Exhaustively check the disequality behaviour over all ordered pins:
    one engine search per pair (u, v), a pinned to u and b to v."""
    if a == b:
        raise ValueError("marked vertices must differ")
    _check_oracle_size(gadget, target, ceilings)
    order, cons = _edge_constraints(gadget.rows, target.rows)
    for u in range(target.n):
        for v in range(target.n):
            # a fresh domain list each time: a taken solution leaves it narrowed
            dom = _domains_from_lists(gadget, target, {a: (u,), b: (v,)})
            if (next(_fc_search(order, dom, cons), None) is not None) != (u != v):
                return False
    return True


def _five_cycle_split_gadget() -> tuple[Graph, int, int]:
    """A 5-cycle whose vertices are split between the two marked vertices.

    With both pins equal, the cycle would have to map into the
    neighborhood of a single target vertex; targets whose vertex
    neighborhoods are bipartite (e.g. triangle-free ones, or Kneser
    graphs, where they are perfect matchings) cannot absorb an odd
    cycle, so the equal-pin case fails while distinct pins survive.
    """
    # vertices: a=0, b=1, cycle 2-3-4-5-6
    edges = [
        (2, 3), (3, 4), (4, 5), (5, 6), (6, 2),
        (0, 3), (0, 4), (0, 6),
        (1, 2), (1, 5),
    ]
    return Graph(7, edges), 0, 1


def _canonical_gadget_candidates() -> list[tuple[Graph, int, int]]:
    out: list[tuple[Graph, int, int]] = [(make_complete(2), 0, 1)]
    for length in (4, 6):  # even paths handle odd cycles and sparse cores
        out.append((make_path(length), 0, length - 1))
    out.append(_five_cycle_split_gadget())
    return out


@dataclass(frozen=True)
class GadgetSearch:
    """Search outcome; a missing gadget within the ceiling proves nothing."""

    found: Optional[EdgeGadget]
    searched_up_to: int


def _marked_canonical(n: int, mask: int) -> int:
    """Least adjacency bitmask over relabelings preserving {0, 1} setwise."""
    best = mask
    pairs = list(combinations(range(n), 2))
    pos = {pq: i for i, pq in enumerate(pairs)}
    for swap in (False, True):
        for perm_rest in permutations(range(2, n)):
            perm = ((1, 0) if swap else (0, 1)) + perm_rest
            out = 0
            for i, (p, q) in enumerate(pairs):
                if mask >> i & 1:
                    pp, qq = perm[p], perm[q]
                    out |= 1 << pos[(min(pp, qq), max(pp, qq))]
            if out < best:
                best = out
    return best


def _graphs_with_marked_pair(n: int) -> Iterable[Graph]:
    """Connected graphs on n vertices with marked pair (0, 1), one per
    isomorphism class, in canonical adjacency order."""
    pairs = list(combinations(range(n), 2))
    seen: set[int] = set()
    for mask in range(1 << len(pairs)):
        if _marked_canonical(n, mask) != mask or mask in seen:
            continue
        seen.add(mask)
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph(n, edges)
        if len(g.connected_components()) == 1:
            yield g


def find_edge_gadget(
    target: Graph,
    max_gadget_vertices: int | None = None,
    *,
    ceilings: Ceilings = DEFAULT_CEILINGS,
) -> GadgetSearch:
    """Search for an edge gadget: canonical family first, then all small
    connected marked graphs in increasing size.

    The target should be a core (check with `is_core`); the outcome for
    non-cores is still sound but gadgets typically do not exist.
    """
    limit = max_gadget_vertices or ceilings.gadget_vertices
    # canonical candidates are constant-time to verify and exempt from
    # the ceiling, which only guards the exponential enumeration below
    for gadget, a, b in _canonical_gadget_candidates():
        if verify_edge_gadget(target, gadget, a, b, ceilings=ceilings):
            return GadgetSearch(EdgeGadget(gadget, a, b), limit)
    for n in range(2, limit + 1):
        for gadget in _graphs_with_marked_pair(n):
            if verify_edge_gadget(target, gadget, 0, 1, ceilings=ceilings):
                return GadgetSearch(EdgeGadget(gadget, 0, 1), limit)
    return GadgetSearch(None, limit)


def find_tight_witness_set(
    target: Graph, *, ceilings: Ceilings = DEFAULT_CEILINGS
) -> tuple[int, ...]:
    """A set of size q(H) with no common neighbor whose every proper
    subset has one; shares the witness-number search."""
    return witness_number(target, ceilings=ceilings).witness_set


# ---------------------------------------------------------------------------
# List removal
# ---------------------------------------------------------------------------

def _glue(rows: list[int], gadget: EdgeGadget, u: int, v: int) -> None:
    """Add a gadget copy to the graph with adjacency bitmasks ``rows``,
    its marked vertices identified with u and v and its interior
    appended as new vertices in ascending gadget order."""
    f = gadget.gadget
    ids = {gadget.a: u, gadget.b: v}
    for w in range(f.n):
        if w not in ids:
            ids[w] = len(rows)
            rows.append(0)
    for p, q in f.edges():
        rows[ids[p]] |= 1 << ids[q]
        rows[ids[q]] |= 1 << ids[p]


def reduce_list_to_plain(
    g: Graph,
    lists: Mapping[int, Iterable[int]],
    target: Graph,
    gadget: EdgeGadget,
) -> Graph:
    """Plain-coloring instance equivalent to the list instance (g, lists).

    Output = g, a fresh copy of the target, and one gadget copy per
    (vertex, forbidden target vertex) pair identifying the marks with
    them.  The target must be a core and the gadget verified against it.
    """
    full = set(range(target.n))
    normalized: dict[int, set[int]] = {}
    for v in range(g.n):
        allowed = set(lists.get(v, full))
        if not allowed <= full:
            raise ValueError(f"list of vertex {v} mentions unknown target vertices")
        normalized[v] = allowed

    rows = list(g.rows) + [r << g.n for r in target.rows]
    for v in range(g.n):
        for h in sorted(full - normalized[v]):
            _glue(rows, gadget, v, g.n + h)
    return Graph.from_rows(rows)


# ---------------------------------------------------------------------------
# NAE-SAT
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CnfFormula:
    """CNF with 1-based signed literals; clause width is checked on use."""

    n_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n_vars < 0:
            raise ValueError("variable count must be non-negative")
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"literal {lit} out of range")

    def width(self) -> Optional[int]:
        widths = {len(c) for c in self.clauses}
        return widths.pop() if len(widths) == 1 else None

    def require_width(self, q: int) -> None:
        for clause in self.clauses:
            if len(clause) != q:
                raise ValueError(
                    f"clause {clause} has {len(clause)} literals, expected width {q}"
                )


def nae_sat_brute(formula: CnfFormula, *, max_vars: int = 24) -> bool:
    """Exact NAE-satisfiability by exhaustive assignment sweep."""
    if formula.n_vars > max_vars:
        raise CeilingError(f"NAE brute force limited to {max_vars} variables")
    for bits in range(1 << formula.n_vars):
        ok = True
        for clause in formula.clauses:
            values = {(lit > 0) == bool(bits >> (abs(lit) - 1) & 1) for lit in clause}
            if len(values) != 2:
                ok = False
                break
        if ok:
            return True
    return False


def reduce_naesat_to_hcol(
    formula: CnfFormula,
    target: Graph,
    tight_set: Sequence[int],
    gadget: EdgeGadget,
) -> VertexCoverInstance:
    """Coloring instance equivalent to NAE-satisfiability of the formula.

    One truth gadget per variable: 2q isolated anchors t[i][j], f[i][j]
    wired by gadget copies so that any homomorphism maps them onto the
    tight witness set in one of exactly two rotations (the truth
    values).  One extra vertex per clause, adjacent to the anchor of
    each of its literals; its image needs a common neighbor of the
    anchors' images, which exists exactly when they miss part of the
    witness set, i.e. when the clause is not-all-equal.

    The clause vertices are the only ones outside the returned cover,
    making the construction linear-parameter in the variable count.
    The width must equal the witness set size; width 3 is accepted for
    experimentation even though the compression-hardness consequences
    need width at least 4.
    """
    q = len(tight_set)
    if q < 3:
        raise ValueError("witness sets below size 3 give degenerate constructions")
    formula.require_width(q)
    anchors = tuple(sorted(tight_set))
    # tightness re-check: no common neighbor overall, every drop-one has one
    if common_neighbors(target, anchors):
        raise ValueError("tight set has a common neighbor")
    for drop in combinations(anchors, q - 1):
        if not common_neighbors(target, drop):
            raise ValueError("tight set is not tight: a proper subset lacks a common neighbor")
    n = formula.n_vars
    h_n = target.n

    # anchors t[i][j] and f[i][j] follow the target's vertices, variable by variable
    rows = list(target.rows) + [0] * (2 * q * n)
    t_id = [[h_n + 2 * q * i + j for j in range(q)] for i in range(n)]
    f_id = [[h_n + 2 * q * i + q + j for j in range(q)] for i in range(n)]
    copies = 0
    for i in range(n):
        for j in range(q):
            t, f = t_id[i][j], f_id[i][j]
            pairs = [(t, f), (t, t_id[i][(j + 1) % q])]
            allowed = {anchors[j], anchors[(j + 1) % q]}
            for h in range(h_n):
                if h not in allowed:
                    pairs += [(t, h), (f, h)]
            for u, v in pairs:
                _glue(rows, gadget, u, v)
            copies += len(pairs)
    expected_copies = _naesat_copy_count(formula, target, q)
    if copies != expected_copies:
        raise AssertionError(
            f"built {copies} gadget copies, closed form says {expected_copies}"
        )

    cover_size = len(rows)
    for clause in formula.clauses:
        c = len(rows)
        rows.append(0)
        for j, lit in enumerate(clause):
            anchor = (t_id if lit > 0 else f_id)[abs(lit) - 1][j]
            rows[c] |= 1 << anchor
            rows[anchor] |= 1 << c

    inst = VertexCoverInstance(Graph.from_rows(rows), tuple(range(cover_size)))
    expected_cover = naesat_cover_size(formula, target, q, gadget)
    if inst.k != expected_cover:
        raise AssertionError(
            f"cover has {inst.k} vertices, closed form says {expected_cover}"
        )
    return inst


def _naesat_copy_count(formula: CnfFormula, target: Graph, q: int) -> int:
    """Closed form 2q(|V_H|-1)n: gadget copies in the NAE-SAT construction."""
    return 2 * q * (target.n - 1) * formula.n_vars


def naesat_cover_size(
    formula: CnfFormula, target: Graph, q: int, gadget: EdgeGadget
) -> int:
    """Closed form |X| = |V_H| + 2qn + 2q(|V_H|-1)n(|V_F|-2)."""
    copies = _naesat_copy_count(formula, target, q)
    return target.n + 2 * q * formula.n_vars + copies * gadget.interior_size


# ---------------------------------------------------------------------------
# DIMACS and list-instance files
# ---------------------------------------------------------------------------

def read_dimacs(text: str) -> CnfFormula:
    n_vars = None
    n_clauses = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            tokens = line.split()
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ValueError(f"bad DIMACS header {line!r}")
            n_vars, n_clauses = int(tokens[2]), int(tokens[3])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                if pending:
                    clauses.append(tuple(pending))
                    pending.clear()
            else:
                pending.append(lit)
    if pending:
        raise ValueError("last clause not 0-terminated")
    if n_vars is None:
        raise ValueError("missing 'p cnf' header")
    if n_clauses is not None and n_clauses != len(clauses):
        raise ValueError(f"header promises {n_clauses} clauses, found {len(clauses)}")
    return CnfFormula(n_vars, tuple(clauses))


def write_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.n_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def write_list_instance(g: Graph, lists: Mapping[int, Iterable[int]]) -> str:
    """Graph file followed by `A v h1 h2 ...` allowed-target lines."""
    text = write_graph(g).rstrip("\n")
    lines = [text]
    for v in sorted(lists):
        lines.append(f"A {v} " + " ".join(map(str, sorted(set(lists[v])))))
    return "\n".join(lines) + "\n"


def read_list_instance(text: str) -> tuple[Graph, dict[int, tuple[int, ...]]]:
    g, extras = parse_graph_lines(text.splitlines())
    lists: dict[int, tuple[int, ...]] = {}
    for tokens in extras:
        if tokens[0] != "A":
            raise ValueError(f"unexpected line in list instance: {tokens[0]!r}")
        lists[int(tokens[1])] = tuple(int(t) for t in tokens[2:])
    return g, lists
