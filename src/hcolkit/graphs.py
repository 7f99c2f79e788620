"""Immutable simple graphs with dense bitset adjacency.

Vertices are the integers ``0 .. n-1``.  Each adjacency row is a Python
int used as a bitset, which makes neighbourhood intersection (the hot
loop of every search in this package) a single ``&``.  Graphs are
loopless and undirected by construction; attempts to add a loop or an
out-of-range endpoint are rejected.

The module also provides the standard families used throughout
(complete graphs, cycles, Kneser graphs, seeded G(n, 1/2) samples) and
the plain-text graph file format::

    # comment
    n m
    u v            (m edge lines, 0-based)
    L v text       (optional label lines; text is whitespace-normalized)
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of `mask` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A finite simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "rows", "labels")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Mapping[int, str] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} rejected (graphs are simple)")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows: tuple[int, ...] = tuple(rows)
        if labels:
            for v in labels:
                if not 0 <= v < n:
                    raise ValueError(f"label for out-of-range vertex {v}")
        self.labels: dict[int, str] = dict(labels) if labels else {}

    @classmethod
    def from_rows(cls, rows: Sequence[int], labels=None) -> "Graph":
        g = cls.__new__(cls)
        g.n = len(rows)
        g.rows = tuple(rows)
        g.labels = dict(labels) if labels else {}
        g._check_rows()
        return g

    def _check_rows(self) -> None:
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"adjacency row {v} references vertices >= n")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v} rejected (graphs are simple)")
            for u in _bits(row):
                if not self.rows[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({v},{u})")

    # -- basic queries ------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.rows[v]))

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            upper = self.rows[u] >> (u + 1) << (u + 1)
            for v in _bits(upper):
                yield (u, v)

    def max_degree(self) -> int:
        return max((r.bit_count() for r in self.rows), default=0)

    def vertices(self) -> range:
        return range(self.n)

    # -- derived graphs -----------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph induced on `vertices`, relabelled 0..m-1 in sorted order."""
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        edges = [
            (index[u], index[v])
            for u, v in combinations(vs, 2)
            if self.has_edge(u, v)
        ]
        labels = {index[v]: self.labels[v] for v in vs if v in self.labels}
        return Graph(len(vs), edges, labels)

    def disjoint_union(self, other: "Graph") -> "Graph":
        rows = list(self.rows) + [r << self.n for r in other.rows]
        labels = dict(self.labels)
        labels.update({v + self.n: s for v, s in other.labels.items()})
        return Graph.from_rows(rows, labels)

    def is_vertex_cover(self, vertices: Iterable[int]) -> bool:
        mask = vertex_mask(vertices, self.n)
        outside = ~mask
        return all(not (self.rows[v] & outside) for v in _bits(outside & ((1 << self.n) - 1)))

    def connected_components(self) -> list[tuple[int, ...]]:
        seen = 0
        comps = []
        for start in range(self.n):
            if seen >> start & 1:
                continue
            comp = 1 << start
            frontier = comp
            while frontier:
                grown = comp
                for v in _bits(frontier):
                    grown |= self.rows[v]
                frontier = grown & ~comp
                comp = grown
            seen |= comp
            comps.append(tuple(_bits(comp)))
        return comps

    # -- dunder -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# Vertex sets
# ---------------------------------------------------------------------------

def vertex_set(vertices: Iterable[int], n: int) -> tuple[int, ...]:
    """Normalize to a sorted duplicate-free tuple, checking range [0, n)."""
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < n):
        raise ValueError(f"vertex set {vs} not within [0, {n})")
    return tuple(vs)


def vertex_mask(vertices: Iterable[int], n: int) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} not within [0, {n})")
        mask |= 1 << v
    return mask


def common_neighbors(g: Graph, vertices: Iterable[int]) -> tuple[int, ...]:
    """Vertices adjacent to every member of `vertices` (all of V for an empty set)."""
    mask = common_neighbors_mask(g, vertices)
    return tuple(_bits(mask))


def common_neighbors_mask(g: Graph, vertices: Iterable[int]) -> int:
    mask = (1 << g.n) - 1
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} not in graph")
        mask &= g.rows[v]
        if not mask:
            break
    return mask


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def make_complete(m: int) -> Graph:
    if m < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(m, combinations(range(m), 2))


def make_cycle(m: int) -> Graph:
    if m < 3:
        raise ValueError("cycle graphs need at least 3 vertices")
    return Graph(m, [(i, (i + 1) % m) for i in range(m)])


def make_path(m: int) -> Graph:
    if m < 1:
        raise ValueError("path graphs need at least one vertex")
    return Graph(m, [(i, i + 1) for i in range(m - 1)])


def make_empty(n: int) -> Graph:
    return Graph(n)


def make_kneser(m: int, r: int) -> Graph:
    """Kneser graph: r-subsets of {1..m} as vertices, disjointness as adjacency.

    Vertices are ordered lexicographically by subset and labelled with it,
    e.g. ``{1,2}``.  Requires m >= 2r >= 2 so the graph has an edge form.
    """
    if not (r >= 1 and m >= 2 * r):
        raise ValueError(f"Kneser graph needs m >= 2r >= 2, got m={m}, r={r}")
    subsets = list(combinations(range(1, m + 1), r))
    index = {s: i for i, s in enumerate(subsets)}
    edges = []
    for a, b in combinations(subsets, 2):
        if not set(a) & set(b):
            edges.append((index[a], index[b]))
    labels = {i: "{" + ",".join(map(str, s)) + "}" for i, s in enumerate(subsets)}
    return Graph(len(subsets), edges, labels)


def kneser_vertex_subsets(m: int, r: int) -> list[tuple[int, ...]]:
    """The r-subsets backing `make_kneser(m, r)`, in vertex-id order."""
    return list(combinations(range(1, m + 1), r))


def make_petersen() -> Graph:
    return make_kneser(5, 2)


def make_random(n: int, seed: int) -> Graph:
    """G(n, 1/2) sample, deterministic in `seed`.

    Each of the C(n,2) pairs is decided by one bit of a seeded PRNG in
    fixed (u < v) order, so the same seed always yields the same edge set.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.getrandbits(1)]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def write_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    for v in sorted(g.labels):
        lines.append(f"L {v} {g.labels[v]}")
    return "\n".join(lines) + "\n"


def parse_graph_lines(lines: Iterable[str]) -> tuple[Graph, list[list[str]]]:
    """Parse the graph portion; return (graph, leftover structured lines).

    Leftover lines are those beginning with an uppercase tag other than
    ``L`` (``X``, ``S``, ``A``, ``STATS``), split into tokens; they are
    interpreted by the instance-level formats built on top of this one.
    """
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
            expect_edges = header[1]
            continue
        if tokens[0] == "L":
            labels[int(tokens[1])] = " ".join(tokens[2:])
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
    return Graph(header[0], edges, labels), extras


def read_graph(text: str) -> Graph:
    g, extras = parse_graph_lines(text.splitlines())
    if extras:
        raise ValueError(f"unexpected line in graph file: {' '.join(extras[0])!r}")
    return g
