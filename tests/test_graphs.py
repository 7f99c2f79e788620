import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import disjoint_union, reference_check_rows, reference_components, reference_write_graph
from hcolkit.errors import CeilingError
from hcolkit.graphs import (
    Graph,
    common_neighbors,
    make_complete,
    make_cycle,
    make_kneser,
    make_path,
    make_petersen,
    make_random,
    read_graph,
    write_graph,
)


def test_complete_and_cycle_shapes():
    k1 = make_complete(1)
    assert (k1.n, k1.m) == (1, 0)
    k4 = make_complete(4)
    assert (k4.n, k4.m) == (4, 6)
    c5 = make_cycle(5)
    assert (c5.n, c5.m) == (5, 5)
    assert all(c5.degree(v) == 2 for v in range(5))


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        make_cycle(2)
    with pytest.raises(ValueError):
        make_kneser(3, 2)  # m < 2r
    with pytest.raises(ValueError):
        make_complete(0)
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])  # loop
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])  # out of range


def test_petersen_is_kneser_5_2():
    p = make_petersen()
    assert p.n == 10 and p.m == 15
    assert all(p.degree(v) == 3 for v in range(10))
    assert p.labels[0] == "{1,2}"


def test_kneser_4_2_is_perfect_matching():
    # disjoint 2-subsets of a 4-set pair up into 3 independent edges
    g = make_kneser(4, 2)
    assert (g.n, g.m) == (6, 3)
    assert all(g.degree(v) == 1 for v in range(6))


def test_common_neighbors():
    k3 = make_complete(3)
    assert common_neighbors(k3, (0, 1)) == (2,)
    c6 = make_cycle(6)
    assert common_neighbors(c6, (0, 2, 4)) == ()
    p = make_petersen()
    assert common_neighbors(p, (0,)) == p.neighbors(0)
    assert common_neighbors(k3, ()) == (0, 1, 2)


def test_random_graph_deterministic_in_seed():
    assert make_random(12, 7) == make_random(12, 7)
    assert make_random(12, 7) != make_random(12, 8)


@given(st.integers(0, 12), st.integers(0, 2**63 - 1))
@settings(max_examples=40)
def test_random_graph_is_simple_symmetric(n, seed):
    g = make_random(n, seed)
    for v in range(n):
        assert not g.has_edge(v, v)
        for u in g.neighbors(v):
            assert g.has_edge(u, v)


@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=60)
def test_common_neighbors_antitone(n, seed, data):
    # adding members can only shrink the common neighborhood
    g = make_random(n, seed)
    base = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    extra = data.draw(st.integers(0, n - 1))
    wider = set(common_neighbors(g, base))
    narrower = set(common_neighbors(g, base | {extra}))
    assert narrower <= wider
    assert all(g.has_edge(u, extra) for u in narrower)


def test_text_format_round_trip():
    for g in (make_petersen(), Graph(4), make_complete(1), make_kneser(6, 2)):
        text = write_graph(g)
        back = read_graph(text)
        assert back == g
        assert back.labels == g.labels


def test_write_graph_bytes_match_the_edge_by_edge_writer():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(0, 70)
        p = rng.random()
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
        labels = {v: rng.choice(["a", "{1,2}", "b c"]) for v in range(n) if rng.random() < 0.2}
        g = Graph(n, edges, labels)
        tagged = [rng.choice(["X 0 1", "A 2 0 1", "STATS {}"]) for _ in range(rng.randrange(3))]
        assert write_graph(g, tagged) == reference_write_graph(g, tagged)


def test_text_format_rejects_garbage():
    with pytest.raises(ValueError):
        read_graph("")
    with pytest.raises(ValueError):
        read_graph("2 1\n0 1\n0 1\n")  # edge count mismatch
    with pytest.raises(ValueError):
        read_graph("1 0\nX 0\n")  # instance line in a plain graph file


def test_vertex_limit_is_checked_at_the_header():
    text = write_graph(make_petersen())
    assert read_graph(text, max_vertices=10) == make_petersen()
    with pytest.raises(CeilingError, match="announces 10 vertices"):
        read_graph(text, max_vertices=9)
    # refused before the edge count is compared with the header
    with pytest.raises(CeilingError):
        read_graph("100000 5\n", max_vertices=64)


def test_comments_and_labels():
    g = read_graph("# a triangle\n3 3\n0 1\n1 2\n0 2\nL 0 origin\n")
    assert g == make_complete(3)
    assert g.labels == {0: "origin"}


# every separator str.splitlines breaks a line at
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize(
    "text",
    [f"a{sep}X 1" for sep in LINE_BREAKS] + ["a\tb", "a  b", " a", "a "],
)
def test_label_the_text_format_would_not_keep_is_refused(text):
    with pytest.raises(ValueError) as exc:
        Graph(2, [(0, 1)], {1: text})
    assert str(exc.value) == f"label of vertex 1 must be single-spaced text, got {text!r}"


@pytest.mark.parametrize("text", ["", "a", "{1,2}", "(0,1,2)", "a b c", "π ≠ 3"])
def test_accepted_label_round_trips(text):
    g = Graph(3, [(0, 1)], {0: text, 2: "x"})
    back = read_graph(write_graph(g))
    assert back == g and back.labels == g.labels


def test_induced_subgraph():
    p = make_petersen()
    sub = p.induced_subgraph([0, 1, 2, 5])
    assert sub.n == 4
    assert sub.has_edge(0, 1) == p.has_edge(0, 1)


def test_disjoint_union_helper():
    both = disjoint_union(make_complete(2), make_complete(3))
    assert (both.n, both.m) == (5, 4)
    assert not both.has_edge(1, 2)


def test_connected_components_match_the_reference():
    rng = random.Random(36)
    path = list(range(230))
    rng.shuffle(path)
    graphs = [Graph(0), Graph(9), make_path(230), Graph(230, zip(path, path[1:]))]
    # isolated vertices beside a few edges, then sparse G(n, p) with many components
    graphs.append(Graph(40, [(u, u + 1) for u in rng.sample(range(39), 6)]))
    for n in (12, 50, 150, 300):
        p = 1.2 / n
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    for g in graphs:
        comps = g.connected_components()
        assert comps == reference_components(g)
        if g.n >= 40 and g.m < g.n - 1:
            assert len(comps) > g.n // 5
    assert [len(g.connected_components()) for g in graphs[:4]] == [0, 9, 1, 1]


def test_vertex_cover_check():
    k4 = make_complete(4)
    assert k4.is_vertex_cover((0, 1, 2))
    assert not k4.is_vertex_cover((0, 1))
    assert Graph(3).is_vertex_cover(())


def _faulty_rows(rng: random.Random) -> list[int]:
    """The rows of a seeded random graph on 0..8 vertices, then up to
    three faults: a flipped entry (a loop when it falls on the
    diagonal), a bit at or above n, a negative row, a random row."""
    n = rng.randrange(9)
    rows = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.4:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    for _ in range(rng.choice((0, 1, 1, 2, 3)) if n else 0):
        v, kind = rng.randrange(n), rng.randrange(4)
        if kind == 0:
            rows[v] ^= 1 << rng.randrange(n)
        elif kind == 1:
            rows[v] |= 1 << rng.randrange(n, n + 3)
        elif kind == 2:
            rows[v] = ~rows[v] if rng.random() < 0.5 else -(1 << rng.randrange(n + 1))
        else:
            rows[v] = rng.getrandbits(n)
    return rows


def _verdict(check, rows) -> str:
    try:
        check(rows)
    except ValueError as e:
        return str(e)
    return "accepted"


def test_from_rows_gives_the_verdicts_of_the_full_scan():
    # the one pass accepts exactly the simple graphs and refuses every
    # other rows with the message of the scan's first fault
    rng = random.Random(30)
    seen = Counter()
    for _ in range(20_000):
        rows = _faulty_rows(rng)
        verdict = _verdict(reference_check_rows, rows)
        assert _verdict(Graph.from_rows, rows) == verdict, rows
        seen[next((key for key in (">= n", "loop") if key in verdict), verdict)] += 1
        seen["negative"] += any(row < 0 for row in rows)
        if "symmetric" in verdict:
            # a lower entry (u < v) unmirrored is found by count, an upper one by the walk
            v, u = map(int, verdict[verdict.index("(") + 1 : -1].split(","))
            seen["lower" if u < v else "upper"] += 1
    keys = ("accepted", ">= n", "loop", "lower", "upper", "negative")
    assert min(seen[key] for key in keys) > 1000, seen
