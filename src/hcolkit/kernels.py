"""The two kernelization algorithms for vertex-cover-parameterized
homomorphism instances, plus size accounting and equivalence checks.

Combinatorial kernel: keep the cover-induced subgraph and, for every
nonempty subset S of the cover of size at most q realized as the
neighborhood trace of some outside vertex, one fresh vertex adjacent
exactly to S.  Correct whenever q is at least the non-adjacency witness
number of the target.

Algebraic kernel: the same realized traces at q = d, with the size-d
ones thinned to those whose symbolic determinant (of the unit-first-row
matrix of its cover variables) enters a greedy basis of these
polynomials; one kernel is laid out from the filtered traces.  The
basis is selected on the +-1 boundary rows of the traces (see `polys`),
with faces keyed by vertex bitmask, and stops once the kept rows span
the C(|V| - 1, d-1)-dimensional space of faces that avoid the cone
vertex c, the least of the trace vertices V; the rows of the traces after
the stop are never built.  The traces are passed sorted, so those that
hold c come first; their unit rows are kept by bookkeeping, one per face,
and only the later rows, less their entries on those faces, are
eliminated.  The kept count is still checked against the boundary rank
C(k-1, d-1).
The polynomials, and the certificates that rebuild each dropped one from
the kept ones, are built only when read: the kernel itself needs only
the kept set and the count of dropped traces.
Correct for targets carrying a faithful d-dimensional independent
representation with unit first entries over the working field; the
representation itself never enters the computation, only its field does.

Exact closed-form size bounds are recorded with every run and asserted,
never treated asymptotically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Mapping, Optional

from .config import Ceilings, DEFAULT_CEILINGS
from .errors import CeilingError, InvariantViolation
from .graphs import Graph, parse_graph_lines, vertex_set, write_graph
from .hom import find_homomorphism
from .polys import BasisSelection, SparsePoly, boundary_basis_select, det_poly
from .polys import poly_basis_select  # unused here; perfbench/tracing.py patches it by name
from .reps import Representation


@dataclass(frozen=True)
class VertexCoverInstance:
    """A graph together with a (validated) vertex cover."""

    graph: Graph
    cover: tuple[int, ...]

    def __post_init__(self):
        cov = vertex_set(self.cover, self.graph.n)
        object.__setattr__(self, "cover", cov)
        if not self.graph.is_vertex_cover(cov):
            raise ValueError("the given set is not a vertex cover")

    @property
    def k(self) -> int:
        return len(self.cover)


@dataclass
class KernelResult:
    """Output graph, the cover inside it, and the provenance of every
    added vertex (the cover subset it realizes, in output ids).  An
    algebraic kernel adds its basis over the size-d `basis_traces`, whose
    determinant polynomials `polys` are built on first read.  A kernel
    built here fits its cover and provenance by construction; one read
    from a file is checked by `read_kernel_result`."""

    graph: Graph
    cover: tuple[int, ...]
    provenance: dict[int, tuple[int, ...]]
    stats: dict
    basis: Optional[BasisSelection] = None
    basis_traces: tuple[tuple[int, ...], ...] = ()

    @cached_property
    def polys(self) -> Optional[list[SparsePoly]]:
        if self.basis is None:
            return None
        return [det_poly(trace, len(trace), self.basis.spec) for trace in self.basis_traces]


def _subset_budget(k: int, q: int) -> int:
    return sum(comb(k, i) for i in range(1, min(q, k) + 1))


def size_bounds(mode: str, k: int, exponent: int, vertices: int) -> dict:
    """Closed-form size bounds of a kernel on a size-k cover.

    `exponent` is q for the combinatorial kernel and d for the algebraic
    one; `vertices` is the kernel's vertex count, which the algebraic
    bit-size estimate charges per added vertex.  Returns vertex_bound and
    bit_size_estimate, plus span_bound (the dimension of the degree-(d-1)
    polynomial space) in algebraic mode.
    """
    if mode == "combinatorial":
        # the encoding reserves one bit per candidate subset, whether realized or not
        subsets = _subset_budget(k, exponent)
        return {"vertex_bound": k + subsets, "bit_size_estimate": comb(k, 2) + subsets}
    span_bound = comb(k * (exponent - 1), exponent - 1)
    bits_per_set = exponent * max(1, (k - 1).bit_length())
    return {
        "vertex_bound": k + _subset_budget(k, exponent - 1) + span_bound,
        "bit_size_estimate": comb(k, 2) + (vertices - k) * bits_per_set,
        "span_bound": span_bound,
    }


def _realized_traces(inst: VertexCoverInstance, q: int, ceilings: Ceilings) -> tuple[list, list]:
    """The cover edges relabelled to 0..k-1, and the sorted cover subsets
    of size at most q that lie inside some outside vertex's neighborhood.
    A subset is realized once however many outside vertices realize it.
    The subsets enumerated, C(deg v, <= q) per outside vertex v, are
    charged against ``subset_budget`` before any is enumerated."""
    g = inst.graph
    x_index = {v: i for i, v in enumerate(inst.cover)}
    outside = [v for v in range(g.n) if v not in x_index]
    if sum(_subset_budget(g.degree(v), q) for v in outside) > ceilings.subset_budget:
        raise CeilingError(
            f"kernel would enumerate more than {ceilings.subset_budget} cover subsets"
        )

    realized: set[tuple[int, ...]] = set()
    for v in outside:
        neigh = [x_index[u] for u in g.neighbors(v)]
        neigh.sort()
        for size in range(1, min(q, len(neigh)) + 1):
            realized.update(combinations(neigh, size))
    cover_edges = [(x_index[u], x_index[v]) for u, v in g.edges() if u in x_index and v in x_index]
    return cover_edges, sorted(realized)


def _build_kernel(
    inst: VertexCoverInstance, cover_edges: list, traces: list, stats: dict, **basis,
) -> KernelResult:
    """The cover graph on 0..k-1 plus one vertex per trace, adjacent
    exactly to it (so cover and provenance hold by construction), with the
    mode's `stats` completed by the counts and size bounds; checked
    against its vertex bound."""
    k = inst.k
    provenance = dict(enumerate(traces, start=k))
    edges = cover_edges + [(v, u) for v, trace in provenance.items() for u in trace]
    out = Graph(k + len(traces), edges)
    bounds = size_bounds(stats["mode"], k, stats[_exponent_key(stats)], out.n)
    stats = {**stats, "k": k, "vertices": out.n, "edges": out.m, **bounds}
    if out.n > bounds["vertex_bound"]:
        raise InvariantViolation("vertex bound violated by construction")
    return KernelResult(out, tuple(range(k)), provenance, stats, **basis)


def _exponent_key(stats: Mapping) -> str:
    """q for a combinatorial kernel, d for an algebraic one."""
    return "q" if stats["mode"] == "combinatorial" else "d"


def combinatorial_kernel(
    inst: VertexCoverInstance,
    q: int,
    *,
    ceilings: Ceilings = DEFAULT_CEILINGS,
) -> KernelResult:
    """Subset-trace kernel at parameter q: one vertex per realized cover
    subset of size at most q."""
    if q < 1:
        raise ValueError("q must be at least 1")
    cover_edges, traces = _realized_traces(inst, q, ceilings)
    return _build_kernel(inst, cover_edges, traces, {"mode": "combinatorial", "q": q})


def algebraic_kernel(
    inst: VertexCoverInstance,
    target: Graph,
    rep: Representation,
    d: int,
    *,
    ceilings: Ceilings = DEFAULT_CEILINGS,
) -> KernelResult:
    """Determinant-sparsified kernel of dimension parameter d.

    Requires a faithful independent representation of the target with
    all first entries 1 over a field larger than the target: check
    faithfulness with `check_faithful` (``hcol kernelize`` does so once,
    where the file is read), then apply `normalize_first_entry`, which
    keeps it.  Only the field drives the algorithm; the vectors certify
    correctness and are not checked here.
    """
    if d < 3:
        raise ValueError(
            "algebraic kernel needs d >= 3; targets with a 2-dimensional "
            "representation are bipartite and the problem is polynomial"
        )
    if rep.d != d:
        raise ValueError(f"representation has dimension {rep.d}, expected {d}")
    if rep.kind != "independent":
        raise ValueError("algebraic kernel expects an independent representation")
    if rep.graph.rows != target.rows:
        raise ValueError("representation is not over the given target graph")
    if not rep.has_unit_first_entries():
        raise ValueError(
            "representation must have unit first entries; apply normalize_first_entry"
        )
    if rep.spec.order <= target.n:
        raise ValueError("working field must be larger than the target graph")

    cover_edges, traces = _realized_traces(inst, d, ceilings)
    spec = rep.spec
    size_d_traces = tuple(t for t in traces if len(t) == d)
    selection = boundary_basis_select(size_d_traces, spec)
    # the boundary matrix of all d-sets of k vertices has rank C(k-1, d-1) (Kalai 1983)
    if len(selection.kept) > comb(max(inst.k - 1, 0), d - 1):
        raise InvariantViolation("basis larger than the boundary rank C(k-1, d-1)")
    kept = {size_d_traces[i] for i in selection.kept}
    stats = {
        "mode": "algebraic",
        "d": d,
        "basis_kept": len(selection.kept),
        "basis_dropped": len(size_d_traces) - len(selection.kept),
        "field_order": spec.order,
        "field": {"p": spec.p, "m": spec.m, "irreducible": list(spec.irreducible)},
    }
    traces = [t for t in traces if len(t) < d or t in kept]
    return _build_kernel(
        inst, cover_edges, traces, stats, basis=selection, basis_traces=size_d_traces
    )


def verify_kernel_equivalence(
    original: VertexCoverInstance,
    result: KernelResult,
    target: Graph,
    *,
    ceilings: Ceilings = DEFAULT_CEILINGS,
) -> bool:
    """Oracle check that kernelization preserved target-colorability.

    Runs the exhaustive homomorphism search on both graphs; True when
    the two answers agree.  ``hcol kernelize --verify`` and the tests run
    it after a kernel is built; building a kernel never calls it.
    """
    before = find_homomorphism(original.graph, target, ceilings=ceilings) is not None
    after = find_homomorphism(result.graph, target, ceilings=ceilings) is not None
    return before == after


def kernel_size_report(result: KernelResult) -> dict:
    """Size accounting for a kernel, also one read back from a file:
    actual vertex/edge counts beside the k, exponent, exact vertex bound
    and encoding bit-size estimate recorded in its stats; asserts the
    vertices/bound ratio is at most 1.
    """
    stats = result.stats
    vertices = result.graph.n
    vertex_bound = stats["vertex_bound"]
    ratio = vertices / vertex_bound if vertex_bound else 0.0
    if vertices > vertex_bound:
        raise InvariantViolation(
            f"kernel has {vertices} vertices, bound is {vertex_bound}"
        )
    return {
        "mode": stats["mode"],
        "k": stats["k"],
        "exponent": stats[_exponent_key(stats)],
        "vertices": vertices,
        "edges": result.graph.m,
        "vertex_bound": vertex_bound,
        "bit_size_estimate": stats["bit_size_estimate"],
        "ratio": ratio,
        "within_bound": True,
    }


# ---------------------------------------------------------------------------
# Instance / kernel-result files
# ---------------------------------------------------------------------------

def write_instance(inst: VertexCoverInstance) -> str:
    return write_graph(inst.graph, [" ".join(["X", *map(str, inst.cover)])])


def read_instance(text: str, *, max_vertices: int | None = None) -> VertexCoverInstance:
    g, extras = parse_graph_lines(
        text.splitlines(), tags=("X",), what="instance file", max_vertices=max_vertices
    )
    cover = None
    for tokens in extras:
        if cover is not None:
            raise ValueError("repeated line in instance file: 'X'")
        cover = tuple(int(t) for t in tokens[1:])
    if cover is None:
        raise ValueError("instance file is missing its X cover line")
    return VertexCoverInstance(g, cover)


def write_kernel_result(result: KernelResult) -> str:
    lines = [" ".join(["X", *map(str, result.cover)])]
    for v in sorted(result.provenance):
        lines.append(f"S {v} " + " ".join(map(str, result.provenance[v])))
    lines.append("STATS " + json.dumps(result.stats, sort_keys=True, separators=(",", ":")))
    return write_graph(result.graph, lines)


def read_kernel_result(text: str) -> KernelResult:
    """The kernel in a kernel file, refused unless its graph fits its
    cover, its provenance and its STATS vertex bound."""
    g, extras = parse_graph_lines(text.splitlines(), tags=("X", "S", "STATS"), what="kernel file")
    cover = None
    provenance: dict[int, tuple[int, ...]] = {}
    stats = None
    for tokens in extras:
        if tokens[0] == "X":
            if cover is not None:
                raise ValueError("repeated line in kernel file: 'X'")
            cover = tuple(int(t) for t in tokens[1:])
        elif tokens[0] == "S":
            if len(tokens) < 2 or not 0 <= int(tokens[1]) < g.n:
                raise ValueError(f"S line needs a vertex of the graph: {' '.join(tokens)!r}")
            v = int(tokens[1])
            if v in provenance:
                raise ValueError(f"repeated line in kernel file: 'S {v}'")
            provenance[v] = tuple(int(t) for t in tokens[2:])
        else:
            if stats is not None:
                raise ValueError("repeated line in kernel file: 'STATS'")
            stats = json.loads(" ".join(tokens[1:]))
            if type(stats) is not dict:
                raise ValueError("kernel file STATS must be a JSON object")
    if stats is None:
        raise ValueError("kernel file is missing its STATS line")
    # the keys kernel_size_report reads
    if stats.get("mode") not in ("combinatorial", "algebraic"):
        raise ValueError("kernel file STATS needs a mode, combinatorial or algebraic")
    for key in ("k", _exponent_key(stats), "vertex_bound", "bit_size_estimate"):
        if type(stats.get(key)) is not int:
            raise ValueError(f"kernel file STATS needs an int {key!r}")
    cover = cover or ()
    disagrees = "kernel file disagrees with its graph: "
    if not g.is_vertex_cover(cover):
        raise ValueError(disagrees + "cover lost on the kernel output")
    for v, trace in provenance.items():
        if g.neighbors(v) != trace:
            raise ValueError(
                f"{disagrees}added vertex {v} has neighborhood {g.neighbors(v)}, "
                f"provenance says {trace}"
            )
    bound = stats["vertex_bound"]
    if g.n > bound:
        raise ValueError(f"kernel file has {g.n} vertices, above its STATS vertex_bound {bound}")
    return KernelResult(graph=g, cover=cover, provenance=provenance, stats=stats)
