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

Both build their output as adjacency rows.  Each call turns its gadget
into a template once: the interior rows in positions relative to the
first appended vertex, with their attachment bits to the marks.  Every
copy then appends the template rows shifted to its place and ORs the
marks' shifted masks into the two rows it attaches to.  Each bit is set
in both rows it joins and no copy's marks coincide, so the rows stay a
simple graph's and ``Graph._from_rows`` takes them unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .config import Ceilings, DEFAULT_CEILINGS
from .errors import CeilingError, InvariantViolation
from .graphs import Graph, _bits, make_complete, make_path, parse_graph_lines, write_graph
from .hom import _check_oracle_size, _domains_from_lists, _edge_constraints, _orbit_minima, _search
from .hom import find_homomorphism  # unused here; perfbench/tracing.py patches it by name
from .kernels import VertexCoverInstance
from .witness import critical_set_fault, witness_number


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
    """Exhaustively check the disequality behaviour over the ordered pins:
    one engine search per pair (u, v), a pinned to u and b to v, for u
    the least vertex of each orbit of Aut(target) and v every target vertex.
    An automorphism s maps the pinned maps of (u, v) onto those of
    (s(u), s(v)) and keeps u != v, so every pair has the verdict of one
    checked pair.  The pins are assigned first, so both propagate from
    the start; only the existence of a solution is read, so the order
    changes no verdict."""
    if a == b:
        raise ValueError("marked vertices must differ")
    _check_oracle_size(gadget, target, ceilings)
    order, cons = _edge_constraints(gadget.rows, target.rows)
    order = [a, b] + [x for x in order if x not in (a, b)]
    for u in _bits(_orbit_minima(target.rows)):
        for v in range(target.n):
            # a fresh domain list each time: a taken solution leaves it narrowed
            dom = _domains_from_lists(gadget, target, {a: (u,), b: (v,)})
            if (next(_search(order, dom, cons), None) is not None) != (u != v):
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


def _graphs_with_marked_pair(n: int) -> Iterable[Graph]:
    """Connected graphs on n vertices with marked pair (0, 1), every edge
    mask in ascending order.

    Whether a graph is an edge gadget with marks (0, 1) does not change
    under relabelings that fix {0, 1} setwise, and neither does
    connectivity; so the first mask that verifies is already the least
    in its orbit, and no canonical forms are needed.
    """
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph(n, edges)
        if len(g.connected_components()) == 1:
            yield g


def find_edge_gadget(
    target: Graph, *, ceilings: Ceilings = DEFAULT_CEILINGS
) -> Optional[EdgeGadget]:
    """Search for an edge gadget: canonical family first, then all small
    connected marked graphs in increasing size, up to ``gadget_vertices``.

    ``None`` proves nothing: a gadget may need more vertices.  The target
    should be a core (check with `is_core`); the outcome for non-cores
    is still sound but gadgets typically do not exist.
    """
    # canonical candidates are constant-time to verify and exempt from
    # the ceiling, which only guards the exponential enumeration below
    for gadget, a, b in _canonical_gadget_candidates():
        if verify_edge_gadget(target, gadget, a, b, ceilings=ceilings):
            return EdgeGadget(gadget, a, b)
    for n in range(2, ceilings.gadget_vertices + 1):
        for gadget in _graphs_with_marked_pair(n):
            if verify_edge_gadget(target, gadget, 0, 1, ceilings=ceilings):
                return EdgeGadget(gadget, 0, 1)
    return None


def find_tight_witness_set(
    target: Graph, *, ceilings: Ceilings = DEFAULT_CEILINGS
) -> tuple[int, ...]:
    """A set of size q(H) with no common neighbor whose every proper
    subset has one; shares the witness-number search."""
    return witness_number(target, ceilings=ceilings).witness_set


# ---------------------------------------------------------------------------
# List removal
# ---------------------------------------------------------------------------

class _GadgetTemplate:
    """An edge gadget as rows to stamp, one copy per `stamp` call: each
    interior vertex (every vertex but the marks a and b, in ascending
    order) with its row over the interior and its attachment bits to a
    and b; the marks' masks over the interior; and whether a-b is an edge."""

    __slots__ = ("interior", "a_mask", "b_mask", "ab_edge")

    def __init__(self, gadget: EdgeGadget):
        f, a, b = gadget.gadget, gadget.a, gadget.b
        inner = [w for w in range(f.n) if w not in (a, b)]
        # a gadget row's bits over the interior, its i-th vertex at bit i
        def over_interior(row: int) -> int:
            return sum(1 << i for i, w in enumerate(inner) if row >> w & 1)

        # each interior row with its attachments as 2 * (to a) + (to b)
        self.interior = tuple(
            (over_interior(f.rows[w]), 2 * (f.rows[w] >> a & 1) + (f.rows[w] >> b & 1))
            for w in inner
        )
        self.a_mask = over_interior(f.rows[a])
        self.b_mask = over_interior(f.rows[b])
        self.ab_edge = f.has_edge(a, b)

    def stamp(self, rows: list[int], u: int, v: int) -> None:
        """Add a copy to the graph with adjacency bitmasks ``rows``, its
        marks identified with u and v and its interior appended."""
        base = len(rows)
        attach = (0, 1 << v, 1 << u, 1 << u | 1 << v)
        rows += [row << base | attach[k] for row, k in self.interior]
        rows[u] |= self.a_mask << base
        rows[v] |= self.b_mask << base
        if self.ab_edge:
            rows[u] |= 1 << v
            rows[v] |= 1 << u


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
    for v in lists:
        if not 0 <= v < g.n:
            raise ValueError(f"list given for unknown vertex {v}")
    full = set(range(target.n))
    template = _GadgetTemplate(gadget)
    rows = list(g.rows) + [r << g.n for r in target.rows]
    for v in range(g.n):
        allowed = set(lists.get(v, full))
        if not allowed <= full:
            raise ValueError(f"list of vertex {v} mentions unknown target vertices")
        for h in sorted(full - allowed):
            template.stamp(rows, v, g.n + h)
    return Graph._from_rows(rows)


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


# the brute force sweeps 2^n assignments; beyond this it is refused
_NAE_BRUTE_VARS = 24


def nae_sat_brute(formula: CnfFormula) -> bool:
    """Exact NAE-satisfiability by exhaustive assignment sweep."""
    if formula.n_vars > _NAE_BRUTE_VARS:
        raise CeilingError(f"NAE brute force limited to {_NAE_BRUTE_VARS} variables")
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
    fault = critical_set_fault(target, anchors)
    if fault:
        raise ValueError(f"tight set {fault}")
    n = formula.n_vars
    h_n = target.n

    # anchors t[i][j] and f[i][j] follow the target's vertices, variable by variable
    template = _GadgetTemplate(gadget)
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
                template.stamp(rows, u, v)
            copies += len(pairs)
    expected_copies = _naesat_copy_count(formula, target, q)
    if copies != expected_copies:
        raise InvariantViolation(
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

    inst = VertexCoverInstance(Graph._from_rows(rows), tuple(range(cover_size)))
    expected_cover = naesat_cover_size(formula, target, q, gadget)
    if inst.k != expected_cover:
        raise InvariantViolation(
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
            if n_vars is not None:
                raise ValueError("repeated line in DIMACS file: 'p'")
            tokens = line.split()
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ValueError(f"bad DIMACS header {line!r}")
            n_vars, n_clauses = int(tokens[2]), int(tokens[3])
            continue
        if n_vars is None:  # DIMACS puts the header before every clause
            raise ValueError(f"missing 'p cnf' header before {line!r}")
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
    return write_graph(
        g, [f"A {v} " + " ".join(map(str, sorted(set(lists[v])))) for v in sorted(lists)]
    )


def read_list_instance(text: str) -> tuple[Graph, dict[int, tuple[int, ...]]]:
    g, extras = parse_graph_lines(text.splitlines(), tags=("A",), what="list instance")
    lists: dict[int, tuple[int, ...]] = {}
    for tokens in extras:
        if len(tokens) < 2:
            raise ValueError(f"list line without a vertex: {' '.join(tokens)!r}")
        if not 0 <= int(tokens[1]) < g.n:
            raise ValueError(f"list line needs a vertex of the graph: {' '.join(tokens)!r}")
        v = int(tokens[1])
        if v in lists:
            raise ValueError(f"repeated line in list instance: 'A {v}'")
        lists[v] = tuple(int(t) for t in tokens[2:])
    return g, lists
