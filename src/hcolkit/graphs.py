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
    n m            (the first line that is neither blank nor a comment)
    u v            (m edge lines, 0-based)
    L v text       (optional label lines; text is whitespace-normalized)
    T ...          (tagged lines of the formats built on this one)

Files are written row by row.  A reader converts the m lines after the
header at once when they are exactly ``u v`` in ASCII digits, as
written, and scans the rest line by line.
"""

from __future__ import annotations

import random
import re
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CeilingError


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of `mask` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_rows(rows: Sequence[int], n: int) -> None:
    """Raise ValueError at the first fault of `rows` as the adjacency
    rows of a simple graph on n vertices, row by row and, within a row,
    by ascending entry.

    A negative row fails the first test too (``row >> n`` keeps its
    sign), so no walk below sees one.  The upper entries (u > v in row
    v) are walked, each checked for its mirror and counted in
    ``mirrored[u]``; the lower entries of row v, checked before them,
    are then all mirrored exactly when they number ``mirrored[v]``, and
    are walked only to name the first that is not.
    """
    mirrored = [0] * n
    for v, row in enumerate(rows):
        if row >> n:
            raise ValueError(f"adjacency row {v} references vertices >= n")
        if row >> v & 1:
            raise ValueError(f"loop at vertex {v} rejected (graphs are simple)")
        upper = row >> (v + 1)
        if row.bit_count() - upper.bit_count() != mirrored[v]:
            u = next(u for u in _bits(row) if not rows[u] >> v & 1)
            raise ValueError(f"adjacency not symmetric at ({v},{u})")
        u = v
        while upper:
            # shift the next upper entry u out of the bits still to walk
            step = (upper & -upper).bit_length()
            u += step
            upper >>= step
            if not rows[u] >> v & 1:
                raise ValueError(f"adjacency not symmetric at ({v},{u})")
            mirrored[u] += 1


def _pieces(rows: Sequence[int], mask: int) -> Iterator[tuple[list[int], int, int]]:
    """Yield ``(members, piece, reach)`` for each connected piece of the
    subgraph induced on `mask`, in order of its least vertex: its sorted
    members, its mask and the OR of its members' full rows.

    ``rows[v]`` is read only for v in `mask`.  Each vertex leaves
    ``unseen`` as it is reached, and ``members`` is the walk's queue.
    """
    unseen = mask
    while unseen:
        low = unseen & -unseen
        unseen ^= low
        piece = low
        members = [low.bit_length() - 1]
        reach = 0
        for v in members:
            row = rows[v]
            reach |= row
            grown = row & unseen
            if grown:
                unseen ^= grown
                piece |= grown
                while grown:
                    low = grown & -grown
                    members.append(low.bit_length() - 1)
                    grown ^= low
        members.sort()
        yield members, piece, reach


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
            for v, text in labels.items():
                if not 0 <= v < n:
                    raise ValueError(f"label for out-of-range vertex {v}")
                # the text format keeps only this form of a label
                if text != " ".join(text.split()):
                    raise ValueError(
                        f"label of vertex {v} must be single-spaced text, got {text!r}"
                    )
        self.labels: dict[int, str] = dict(labels) if labels else {}

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Graph":
        g = cls.__new__(cls)
        g.n = len(rows)
        g.rows = tuple(rows)
        g.labels = {}
        _check_rows(g.rows, g.n)
        return g

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

    def is_vertex_cover(self, vertices: Iterable[int]) -> bool:
        mask = vertex_mask(vertices, self.n)
        outside = ~mask
        return all(not (self.rows[v] & outside) for v in _bits(outside & ((1 << self.n) - 1)))

    def connected_components(self) -> list[tuple[int, ...]]:
        """Components ordered by their least vertex, each one sorted."""
        return [tuple(members) for members, _, _ in _pieces(self.rows, (1 << self.n) - 1)]

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


def make_kneser(m: int, r: int) -> Graph:
    """Kneser graph: r-subsets of {1..m} as vertices, disjointness as adjacency.

    Vertices are ordered lexicographically by subset and labelled with it,
    e.g. ``{1,2}``.  Requires m >= 2r >= 2 so the graph has an edge form.
    """
    check_kneser(m, r)
    subsets = kneser_vertex_subsets(m, r)
    pairs = combinations(enumerate(subsets), 2)
    edges = [(i, j) for (i, a), (j, b) in pairs if not set(a) & set(b)]
    labels = {i: "{" + ",".join(map(str, s)) + "}" for i, s in enumerate(subsets)}
    return Graph(len(subsets), edges, labels)


def check_kneser(m: int, r: int) -> None:
    """Refuse (m, r) unless m >= 2r >= 2."""
    if not (r >= 1 and m >= 2 * r):
        raise ValueError(f"Kneser graph needs m >= 2r >= 2, got m={m}, r={r}")


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

def write_graph(g: Graph, tagged: Iterable[str] = ()) -> str:
    """The graph file of `g`, then the `tagged` lines of a format built on it."""
    names = list(map(str, range(g.n)))
    lines = [f"{g.n} {g.m}"]
    # the edges in Graph.edges() order, read off each row's upper bits inline
    for u, row in enumerate(g.rows):
        prefix = names[u] + " "
        upper = row >> (u + 1)
        w = u
        while upper:
            # shift the next upper neighbour w out of the bits still to walk
            step = (upper & -upper).bit_length()
            w += step
            upper >>= step
            lines.append(prefix + names[w])
    for v in sorted(g.labels):
        lines.append(f"L {v} {g.labels[v]}")
    lines.extend(tagged)
    return "\n".join(lines) + "\n"


# an endpoint of an edge block line: ASCII digits, at most 640 of them
# (the least limit Python lets int() conversion be set to), so
# converting one never raises
_NUMBER = "[0-9]{1,640}"
_EDGE_BLOCK = re.compile(f"{_NUMBER} {_NUMBER}(?:\n{_NUMBER} {_NUMBER})*")


def _block_edges(block: str) -> Iterator[tuple[int, int]]:
    """The edges of a fullmatch of `_EDGE_BLOCK`, lazily."""
    ends = map(int, block.split())
    return zip(ends, ends)


def parse_graph_lines(
    lines: Iterable[str], *, tags: Iterable[str] = (), what: str = "graph file",
    max_vertices: int | None = None,
) -> tuple[Graph, list[list[str]]]:
    """Parse the graph portion; return (graph, leftover tagged lines).

    Leftover lines, split into tokens, are neither edges nor ``L`` labels;
    the formats built on this one read them.  After the header and
    edge-count checks, one whose tag is not in `tags` is refused as an
    unexpected line in `what`.  A header announcing more than
    ``max_vertices`` vertices raises ``CeilingError`` before any row is built.
    """
    lines = list(lines)
    for start, raw in enumerate(lines, 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            break
    else:
        raise ValueError("empty graph file")
    tokens = line.split()
    if len(tokens) != 2:
        raise ValueError(f"expected 'n m' header, got {line!r}")
    n, expect_edges = int(tokens[0]), int(tokens[1])
    if max_vertices is not None and n > max_vertices:
        raise CeilingError(
            f"graph header announces {n} vertices, above the limit of {max_vertices}"
        )
    block: Iterable[tuple[int, int]] = ()
    found = 0
    if 0 < expect_edges <= len(lines) - start:
        text = "\n".join(lines[start : start + expect_edges])
        # one newline between lines, so a line cannot hold two edges
        if _EDGE_BLOCK.fullmatch(text) and text.count("\n") == expect_edges - 1:
            # the m lines after the header are edges the scan would read unchanged
            block = _block_edges(text)
            found = expect_edges
            start += expect_edges
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    extras: list[list[str]] = []
    for raw in lines[start:]:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
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
    found += len(edges)
    if found != expect_edges:
        raise ValueError(f"header promises {expect_edges} edges, found {found}")
    for tokens in extras:
        if tokens[0] not in tags:
            raise ValueError(f"unexpected line in {what}: {tokens[0]!r}")
    # after the count check, a converted block leaves no other edge
    return Graph(n, edges or block, labels), extras


def read_graph(text: str, *, max_vertices: int | None = None) -> Graph:
    return parse_graph_lines(text.splitlines(), max_vertices=max_vertices)[0]
