import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from conftest import (
    brute_hom_exists,
    brute_homomorphisms,
    brute_network_solutions,
    brute_orbits,
    components_first_assignment,
    disjoint_union,
    hub_and_path_graph,
    reference_components,
    reference_core,
)
from hcolkit.config import Ceilings
from hcolkit.errors import CeilingError
from hcolkit.graphs import (
    Graph,
    make_complete,
    make_cycle,
    make_kneser,
    make_petersen,
    make_random,
)
import hcolkit.hom
from hcolkit.hom import (
    Homomorphism,
    _components,
    _domains_from_lists,
    _edge_constraints,
    _orbits,
    _search,
    compute_core,
    find_homomorphism,
    is_core,
)
from hcolkit.kernels import VertexCoverInstance, combinatorial_kernel
from hcolkit.reductions import (
    CnfFormula,
    find_edge_gadget,
    find_tight_witness_set,
    nae_sat_brute,
    reduce_list_to_plain,
    reduce_naesat_to_hcol,
)


def test_identity_on_cycle():
    c5 = make_cycle(5)
    f = find_homomorphism(c5, c5)
    assert f is not None and f.check()


def test_k4_into_k3_impossible():
    # brute force over all 3^4 assignments agrees
    k4, k3 = make_complete(4), make_complete(3)
    assert not brute_hom_exists(k4, k3)
    assert find_homomorphism(k4, k3) is None


def test_petersen_is_3_colorable():
    f = find_homomorphism(make_petersen(), make_complete(3))
    assert f is not None and f.check()


def test_lists_are_respected():
    c5 = make_cycle(5)
    lists = {0: (3,), 2: (0, 1)}
    f = find_homomorphism(c5, c5, lists=lists)
    assert f is not None and f.check(lists)
    # pin two adjacent vertices to the same image: impossible
    assert find_homomorphism(c5, c5, lists={0: (1,), 1: (1,)}) is None


def test_check_rejects_a_broken_edge_and_a_left_list():
    # the answer checks of the oracle-reduce benchmark rest on these refusals
    k2, c5 = make_complete(2), make_cycle(5)
    assert Homomorphism(k2, c5, (0, 1)).check()
    assert not Homomorphism(k2, c5, (0, 0)).check()  # edge 01 sent to a non-edge
    assert Homomorphism(k2, c5, (0, 1)).check({0: (0, 2)})
    assert not Homomorphism(k2, c5, (0, 1)).check({0: (2,)})  # vertex 0 leaves its list


def test_oracle_agrees_with_exhaustive_enumeration():
    rng = random.Random(31)
    targets = [make_complete(3), make_cycle(5), make_kneserish()]
    for trial in range(120):
        g = make_random(rng.randrange(0, 7), rng.randrange(10**6))
        h = targets[trial % len(targets)]
        lists = None
        if trial % 3 == 0 and g.n:
            lists = {0: tuple(sorted(rng.sample(range(h.n), rng.randrange(1, h.n + 1))))}
        expect = brute_hom_exists(g, h, lists)
        got = find_homomorphism(g, h, lists=lists)
        assert (got is not None) == expect
        if got is not None:
            assert got.check(lists)


def make_kneserish():
    from hcolkit.graphs import make_kneser

    return make_kneser(4, 2)


def test_disconnected_and_empty_inputs():
    g = disjoint_union(make_complete(3), Graph(2))
    f = find_homomorphism(g, make_complete(3))
    assert f is not None and f.check()
    assert find_homomorphism(Graph(0), make_complete(3)) is not None
    assert find_homomorphism(make_complete(1), Graph(0)) is None


def test_oracle_ceiling():
    with pytest.raises(CeilingError):
        find_homomorphism(
            Graph(10), make_complete(3), ceilings=Ceilings(oracle_vertices=5)
        )


def test_cluster_compilation_matches_plain_search():
    # graphs with pendant gadget-like structure hanging off high-degree hubs
    rng = random.Random(77)
    h = make_cycle(5)
    for _ in range(40):
        hub_count = 3
        n = hub_count
        edges = []
        for _ in range(rng.randrange(1, 4)):  # attach small paths between hubs
            a, b = rng.sample(range(hub_count), 2)
            last = a
            for _ in range(rng.randrange(1, 4)):
                edges.append((last, n))
                last = n
                n += 1
            edges.append((last, b))
        for hub in range(hub_count):  # inflate hub degrees past the pin threshold
            for _ in range(5):
                edges.append((hub, n))
                n += 1
        g = Graph(n, edges)
        got = find_homomorphism(g, h)
        # brute-force check on the small hub graph is infeasible; instead
        # validate the returned witness or confirm with vertex-by-vertex
        # list pinning that no assignment extends
        if got is not None:
            assert got.check()
        else:
            assert all(
                find_homomorphism(g, h, lists={0: (t,)}) is None for t in range(h.n)
            )


def kernel_shaped_graph(rng, k=7, outside=30):
    """A combinatorial kernel at q = 2 of an instance whose cover spans a
    k-cycle: the cover vertices are hubs, and every added vertex of a
    size-2 trace is a cluster on two of them."""
    edges = [(u, (u + 1) % k) for u in range(k)]
    for j in range(outside):
        edges.extend((u, k + j) for u in rng.sample(range(k), rng.randrange(1, 4)))
    return combinatorial_kernel(VertexCoverInstance(Graph(k + outside, edges), range(k)), 2).graph


def compiled_solvers(g, h, lists=None):
    solvers = _components(g, h, _domains_from_lists(g, h, lists), bool(lists))
    return solvers, [solver.solve() for solver in solvers]


def test_two_boundary_clusters_register_exact_transposes():
    h = make_petersen()
    clusters = asymmetric = 0
    for seed in range(4):
        rng = random.Random(seed)
        g = kernel_shaped_graph(rng)
        # single-vertex clusters have symmetric tables; a path between two
        # hubs with a list at one end has an asymmetric one
        hubs = [v for v in range(g.n) if g.degree(v) >= 5]
        edges, n, lists = list(g.edges()), g.n, {}
        for _ in range(4):
            x, y = rng.sample(hubs, 2)
            edges += [(x, n), (n, n + 1), (n + 1, y)]
            lists[n] = rng.sample(range(h.n), 4)
            n += 2
        for solver in compiled_solvers(Graph(n, edges), h, lists)[0]:
            on_pair = Counter(tuple(b) for _, b, _ in solver.clusters if len(b) == 2)
            for (x, y), count in on_pair.items():
                # each cluster on (x, y) puts y once more among the partners
                # of its table at x, and x among those of its reverse at y
                forward = [t for t, partners, _ in solver.tables[x] for u in partners if u == y]
                reverse = [t for t, partners, _ in solver.tables[y] for u in partners if u == x]
                assert len(forward) == len(reverse) == count
                transposes = [
                    tuple(sum((t[a] >> b & 1) << a for a in range(h.n)) for b in range(h.n)) for t in forward
                ]
                assert sorted(transposes) == sorted(reverse)
                asymmetric += sum(t != back for t, back in zip(forward, transposes))
                clusters += count
    assert clusters > 50 and asymmetric > 0


def test_cluster_cache_hit_registers_the_tables_of_a_miss():
    h = make_complete(4)
    g = kernel_shaped_graph(random.Random(9))
    hcolkit.hom._cluster_cache.clear()
    missed, miss_witness = compiled_solvers(g, h)
    entries = len(hcolkit.hom._cluster_cache)
    assert entries > 0
    hit, hit_witness = compiled_solvers(g, h)
    assert len(hcolkit.hom._cluster_cache) == entries
    assert hit_witness == miss_witness and None not in miss_witness

    def registered(solver):
        return {v: [(t, partners) for t, partners, _ in groups] for v, groups in solver.tables.items()}

    assert [registered(s) for s in hit] == [registered(s) for s in missed]
    # a hit registers the cached tuples themselves
    for a, b in zip(missed, hit):
        for v, groups in a.tables.items():
            assert all(t1 is t2 for (t1, _, _), (t2, _, _) in zip(groups, b.tables[v]))
    hcolkit.hom._cluster_cache.clear()
    witness = find_homomorphism(g, h)
    assert witness is not None and witness.check()
    assert find_homomorphism(g, h) == witness


def test_cluster_images_run_once_per_cluster_shape(monkeypatch):
    # the 448 gadget copies of a K(6,2) NAE-SAT output come in a few
    # shapes, read relative to each copy's least member; compile_clusters
    # compiles each shape once, whether the cluster cache starts cold,
    # warm, or is emptied at every insertion, and the witness stays put
    h = make_kneser(6, 2)
    formula = CnfFormula(4, ((1, -2, 3, 4), (-1, 2, -3, 4), (1, 2, -4, 3), (-3, -4, 1, 2)))
    g = reduce_naesat_to_hcol(formula, h, find_tight_witness_set(h), find_edge_gadget(h)).graph
    calls = []
    cluster_images = hcolkit.hom._cluster_images

    def counted(h_rows, sig):
        calls.append(sig)
        return cluster_images(h_rows, sig)

    monkeypatch.setattr(hcolkit.hom, "_cluster_images", counted)
    witnesses = []
    cap = hcolkit.hom._CLUSTER_CACHE_CAP
    for cap, cold in ((cap, True), (cap, False), (1, True)):
        monkeypatch.setattr(hcolkit.hom, "_CLUSTER_CACHE_CAP", cap)
        if cold:
            hcolkit.hom._cluster_cache.clear()
        calls.clear()
        (solver,), (assign,) = compiled_solvers(g, h)
        shapes = set()
        for members, boundary, _ in solver.clusters:
            base = members[0]
            shapes.add(tuple(
                tuple(u - base if u in members else ("pin", boundary.index(u)) for u in g.neighbors(v))
                for v in members
            ))
        assert len(solver.clusters) == 448 and all(len(m) == 5 for m, _, _ in solver.clusters)
        assert len(calls) == len(shapes) < 448
        witnesses.append(assign)
        assert find_homomorphism(g, h).assignment == tuple(assign[v] for v in range(g.n))
    assert witnesses[0] is not None and witnesses[0] == witnesses[1] == witnesses[2]
    assert len(hcolkit.hom._cluster_cache) == 1
    hcolkit.hom._cluster_cache.clear()


@pytest.mark.parametrize("hub", [0, 1])
def test_clusters_differing_in_one_attachment_compile_apart(hub):
    # paths 2-3-4 and 5-6-7 between hubs 0 and 1 have one shape over
    # their members, but 6 also attaches to the first or the last hub
    # and closes a triangle: a shape key that lost that attachment
    # would re-expand the second path by the first path's images
    pendants = [(h, v) for h in (0, 1) for v in range(8 + 5 * h, 13 + 5 * h)]
    paths = [(0, 2), (2, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 7), (7, 1), (hub, 6)]
    g = Graph(18, paths + pendants)
    assert find_homomorphism(g, make_cycle(5)) is None
    f = find_homomorphism(g, make_complete(3))
    assert f is not None and f.check()


def clustered_corpus(rng):
    """Seeded instances whose gadget and pendant vertices compile into
    clusters, over C5, K4, the Petersen graph and K(6,2): list-to-plain
    reductions of small random list instances, kernel-shaped graphs, and
    hub-and-path graphs with lists on the hubs and paths."""
    for h in (make_cycle(5), make_complete(4), make_petersen(), make_kneser(6, 2)):
        gadget = find_edge_gadget(h)
        for _ in range(25):
            n = rng.randint(3, 6)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
            lists = {v: rng.sample(range(h.n), rng.randint(2, h.n - 1)) for v in range(n)}
            yield reduce_list_to_plain(g, lists, h, gadget), h, None
        for _ in range(25):
            yield kernel_shaped_graph(rng, k=rng.randint(5, 8), outside=rng.randint(10, 30)), h, None
        for _ in range(25):
            g, core = hub_and_path_graph(rng)
            lists = {v: rng.sample(range(h.n), rng.randint(1, h.n)) for v in rng.sample(range(core), 3)}
            yield g, h, lists


def test_clustered_corpus_assignments_are_pinned():
    # the witnesses themselves, not only their existence: a change to
    # cluster compilation or re-expansion that moves any witness shows here
    hcolkit.hom._cluster_cache.clear()
    lines, satisfiable = [], 0
    for g, h, lists in clustered_corpus(random.Random(131)):
        f = find_homomorphism(g, h, lists=lists)
        if f is not None:
            assert f.check(lists)
            satisfiable += 1
        lines.append(repr(None if f is None else f.assignment))
    assert len(lines) == 300 and 100 < satisfiable < 300
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "123759e101b500b1cbe94096000406738b7963323a5e73aa4d0029989b425ab4"


def test_backtracking_restores_a_twice_narrowed_partner():
    # two constraints from 0 to 1 narrow 1 twice at one level; restoring
    # the trail front to back left 1 at its middle mask {1, 2}, which the
    # next value of 0 narrowed to nothing
    cons = [[((1, 2), [1], {}), ((0, 2), [1], {})], []]
    assert [dict(s) for s in _search([0, 1], [3, 3], cons)] == [{0: 1, 1: 1}]
    # the same through the oracle: three paths between hubs 0 and 1 are
    # clusters on the same two pins
    g = Graph(11, [(0, 2), (0, 4), (0, 5), (0, 6), (0, 7), (1, 3), (1, 4), (1, 8), (1, 9), (1, 10), (2, 3)])
    lists = {1: (1, 2), 3: (2, 3), 5: (0,)}
    assert Homomorphism(g, make_cycle(5), (4, 1, 3, 2, 0, 0, 0, 0, 0, 0, 0)).check(lists)
    f = find_homomorphism(g, make_cycle(5), lists=lists)
    assert f is not None and f.check(lists)


def random_network(rng):
    """A random constraint network on up to 5 vertices and 4 values:
    random tables, each listed at both ends (the partner carrying the
    transpose) or only at the end that comes first in the order, with
    some pairs carrying several constraints and some tables shared by
    several partners and their supports kept across searches."""
    n, k = rng.randint(1, 5), rng.randint(2, 4)
    dom = [rng.randrange(1, 1 << k) for _ in range(n)]
    order = rng.sample(range(n), n)
    cons = [[] for _ in range(n)]
    for _ in range(rng.randint(0, 2 * n)):
        if n < 2:
            break
        v, u = rng.sample(range(n), 2)
        if order.index(u) < order.index(v):
            v, u = u, v
        if cons[v] and rng.random() < 0.3:
            cons[v][-1][1].append(u)
            continue
        table = tuple(rng.randrange(1 << k) for _ in range(k))
        cons[v].append((table, [u], {}))
        if rng.random() < 0.7:
            back = tuple(sum((table[a] >> b & 1) << a for a in range(k)) for b in range(k))
            cons[u].append((back, [v], {}))
    return order, dom, cons


def test_engine_yields_every_solution_in_order():
    rng = random.Random(59)
    repeated = solved = 0
    for _ in range(400):
        order, dom, cons = random_network(rng)
        expect = brute_network_solutions(order, dom, cons)
        # twice: the second search reads the supports the first one cached
        for _ in range(2):
            assert [dict(s) for s in _search(order, list(dom), cons)] == expect
        pairs = [[u for _, partners, _ in groups for u in partners] for groups in cons]
        repeated += any(len(set(p)) < len(p) for p in pairs)
        solved += bool(expect)
    assert repeated > 50 and solved > 100


def all_homomorphisms(g: Graph, h: Graph, lists=None):
    """Every homomorphism g -> h as an image tuple, in the engine's order."""
    order, cons = _edge_constraints(g.rows, h.rows)
    for assign in _search(order, _domains_from_lists(g, h, lists), cons):
        yield tuple(assign[v] for v in range(g.n))


def test_enumerate_homomorphisms_counts():
    # C_4 -> K_2: exactly the 2 proper 2-colorings
    c4, k2 = make_cycle(4), make_complete(2)
    homs = list(all_homomorphisms(c4, k2))
    assert len(homs) == 2
    # K_3 endomorphisms: the 6 permutations
    k3 = make_complete(3)
    assert len(list(all_homomorphisms(k3, k3))) == 6


def test_enumeration_order_matches_brute_force():
    # all homomorphisms, ascending in the images read in descending-degree
    # order; the oracle's witness is the first of them when no cluster is
    # compiled (connected, every degree below the pin threshold)
    rng = random.Random(53)
    targets = [make_cycle(5), make_complete(3), make_petersen()]
    first_checked = 0
    for trial in range(120):
        h = targets[trial % len(targets)]
        g = make_random(rng.randrange(1, 8 if h.n <= 5 else 5), rng.randrange(10**6))
        lists = None
        if trial % 2:
            lists = {
                v: tuple(sorted(rng.sample(range(h.n), rng.randrange(1, h.n + 1))))
                for v in rng.sample(range(g.n), rng.randrange(1, g.n + 1))
            }
        order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        expect = sorted(brute_homomorphisms(g, h, lists), key=lambda a: [a[v] for v in order])
        assert list(all_homomorphisms(g, h, lists)) == expect
        connected = len(g.connected_components()) == 1
        if expect and connected and max(map(g.degree, range(g.n))) < 5:
            assert find_homomorphism(g, h, lists).assignment == expect[0]
            first_checked += 1
    assert first_checked >= 40


def _core_by_enumeration(g: Graph) -> bool:
    """Whether every endomorphism of g is a bijection, over all of them."""
    return all(len(set(images)) == g.n for images in all_homomorphisms(g, g))


def _all_graphs(sizes) -> list[Graph]:
    """Every labelled graph on n vertices, for each n in sizes."""
    graphs = []
    for n in sizes:
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            graphs.append(Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1]))
    return graphs


def test_is_core_matches_endomorphism_enumeration():
    graphs = _all_graphs(range(6))
    rng = random.Random(29)
    graphs += [make_random(rng.randrange(6, 10), rng.randrange(10**6)) for _ in range(100)]
    # random graphs are seldom cores; these are, with one that is not
    graphs += [make_complete(6), make_complete(7), make_cycle(7), make_cycle(9), make_petersen()]
    graphs.append(disjoint_union(make_cycle(5), make_complete(3)))
    verdicts = Counter()
    for g in graphs:
        verdict = is_core(g)
        assert verdict == _core_by_enumeration(g), g.edges()
        verdicts[verdict] += 1
    assert verdicts[True] >= 20 and verdicts[False] > 1000


@pytest.fixture
def search_calls(monkeypatch):
    """The arguments of every `find_homomorphism` call made inside hom.py."""
    calls = []
    search = hcolkit.hom.find_homomorphism

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(hcolkit.hom, "find_homomorphism", counted)
    return calls


def test_is_core_searches_once_per_orbit(search_calls):
    # K_10 has one orbit, and K_10 -> K_9 is the one search
    assert is_core(make_complete(10))
    assert len(search_calls) == 1
    # above core_vertices it is refused before any search
    with pytest.raises(CeilingError):
        is_core(make_complete(13))
    assert len(search_calls) == 1


def test_compute_core_matches_subset_reference():
    graphs = _all_graphs(range(1, 6))
    rng = random.Random(31)
    graphs += [make_random(rng.randrange(6, 9), rng.randrange(10**6)) for _ in range(60)]
    assert len(graphs) == 1099 + 60
    for g in graphs:
        core = compute_core(g)
        expect = reference_core(g)
        assert (core.n, core.m) == (expect.n, expect.m), g.edges()
        assert is_core(core)


def test_compute_core_of_a_core_searches_once(search_calls):
    # K_10 has one orbit, and K_10 -> K_9 is the one search
    assert compute_core(make_complete(10)) == make_complete(10)
    assert len(search_calls) == 1


def test_cores():
    assert compute_core(make_cycle(6)) == make_complete(2)
    assert compute_core(make_complete(4)) == make_complete(4)
    assert is_core(make_petersen())
    assert is_core(make_cycle(5))
    assert not is_core(make_cycle(6))
    # core outputs are homomorphically equivalent cores
    g = disjoint_union(make_cycle(6), make_complete(3))
    core = compute_core(g)
    assert is_core(core)
    assert find_homomorphism(g, core) is not None
    assert find_homomorphism(core, g) is not None


def test_core_ceiling():
    with pytest.raises(CeilingError):
        compute_core(Graph(13))
    with pytest.raises(ValueError):
        compute_core(Graph(0))


# -- automorphism orbits and root pruning --------------------------------------

def frucht_graph() -> Graph:
    """Cubic and asymmetric: colour refinement leaves one class, and
    every pinned search in it must fail."""
    lcf = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)
    return Graph(12, [(i, (i + 1) % 12) for i in range(12)] + [(i, (i + d) % 12) for i, d in enumerate(lcf)])


ORBIT_GRAPHS = {
    "C5": make_cycle(5),
    "K4": make_complete(4),
    "P4": Graph(4, [(0, 1), (1, 2), (2, 3)]),
    "star": Graph(6, [(0, v) for v in range(1, 6)]),
    "petersen": make_petersen(),
    "asymmetric6": Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)]),
    # 2-regular, so one colour class, but C6 and the triangles are apart
    "C6+2K3": disjoint_union(make_cycle(6), make_complete(3), make_complete(3)),
    "frucht": frucht_graph(),
    # an automorphism that swaps two components
    "2C5": disjoint_union(make_cycle(5), make_cycle(5)),
}


@pytest.mark.parametrize("name", sorted(ORBIT_GRAPHS))
def test_orbits_match_brute_force_on_named_graphs(name):
    g = ORBIT_GRAPHS[name]
    _orbits.cache_clear()
    assert _orbits(g.rows) == brute_orbits(g)
    if name in ("asymmetric6", "frucht"):
        assert _orbits(g.rows) == tuple(1 << v for v in range(g.n))


def test_orbits_match_brute_force_on_seeded_graphs():
    rng = random.Random(181)
    nontrivial = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        expect = brute_orbits(g)
        assert _orbits(g.rows) == expect, g.rows
        nontrivial += expect != tuple(1 << v for v in range(n))
    assert nontrivial > 100


def count_searches(monkeypatch) -> list:
    """Replace ``hom._search`` by a wrapper that logs each call's order."""
    calls = []

    def counted(order, dom, cons):
        calls.append(list(order))
        return _search(order, dom, cons)

    monkeypatch.setattr(hcolkit.hom, "_search", counted)
    return calls


def test_two_pin_cluster_without_a_feasible_image_refutes_its_component(monkeypatch):
    # hubs 0 and 1 (degree 6) and the cluster {2, 3}: 2 -> 0 and 3 -> 1 in
    # C5 leave hub 0 a common neighbour of 0 and 1, which C5 lacks, so no
    # boundary image is feasible and compilation refutes the component
    # before any search, cluster or residual
    pendants = [(hub, v) for hub in (0, 1) for v in range(4 + 5 * hub, 9 + 5 * hub)]
    g = Graph(14, [(0, 2), (0, 3), (2, 3), (1, 3)] + pendants)
    lists = {2: (0,), 3: (1,)}
    c5 = make_cycle(5)
    assert not brute_hom_exists(g.induced_subgraph(range(4)), c5, lists)
    hcolkit.hom._cluster_cache.clear()
    calls = count_searches(monkeypatch)
    (solver,) = _components(g, c5, _domains_from_lists(g, c5, lists), True)
    assert solver.compile_clusters() is False
    assert find_homomorphism(g, c5, lists=lists) is None
    assert calls == []


def test_random_target_orbits_need_no_pinned_search(monkeypatch):
    calls = count_searches(monkeypatch)
    _orbits.cache_clear()
    assert _orbits(make_random(64, 0).rows) == tuple(1 << v for v in range(64))
    assert calls == []


def test_symmetric_no_instance_takes_one_root_search(monkeypatch):
    # Petersen is vertex-transitive, so the root's domain narrows to its
    # one orbit minimum and the refutation is one search
    petersen = make_petersen()
    gadget, tight = find_edge_gadget(petersen), find_tight_witness_set(petersen)
    rng = random.Random(71)
    while True:
        phi = CnfFormula(4, tuple(tuple(rng.choice((1, -1)) * v for v in rng.sample(range(1, 5), 3)) for _ in range(8)))
        if not nae_sat_brute(phi):
            break
    g = reduce_naesat_to_hcol(phi, petersen, tight, gadget).graph
    assert len(g.connected_components()) == 1
    # the first call compiles the clusters and the orbits; the second
    # finds both cached and starts only the residual search
    assert find_homomorphism(g, petersen) is None
    calls = count_searches(monkeypatch)
    assert find_homomorphism(g, petersen) is None
    assert len(calls) == 1


def test_list_instances_are_not_pruned(monkeypatch):
    # K3 -> Petersen has no solution, and each case is one search; with a
    # list the domains are not Aut(H)-invariant, so the root keeps its
    # domain and the orbits are never read
    k3, petersen = make_complete(3), make_petersen()
    _orbits(petersen.rows)
    orbit_calls = []
    monkeypatch.setattr(hcolkit.hom, "_orbits", lambda rows: orbit_calls.append(rows) or _orbits(rows))
    roots = []

    def recorded(order, dom, cons):
        roots.append(dom[order[0]])
        return _search(order, dom, cons)

    monkeypatch.setattr(hcolkit.hom, "_search", recorded)
    # vertex 0 is the root, so its list is the root domain
    assert find_homomorphism(k3, petersen, lists={0: (0, 1, 2)}) is None
    assert roots == [0b111] and orbit_calls == []
    # a list on another vertex leaves the root domain full
    roots.clear()
    assert find_homomorphism(k3, petersen, lists={2: (0, 1, 2)}) is None
    assert roots == [(1 << 10) - 1] and orbit_calls == []
    # without lists the root domain is Petersen's orbit minima: vertex 0
    roots.clear()
    assert find_homomorphism(k3, petersen) is None
    assert roots == [1] and orbit_calls == [petersen.rows]


ROOT_TARGETS = {
    "K2+K3": disjoint_union(make_complete(2), make_complete(3)),
    "star": Graph(5, [(0, v) for v in range(1, 5)]),
    "P4": ORBIT_GRAPHS["P4"],
    "asymmetric6": ORBIT_GRAPHS["asymmetric6"],
    "C5+K3": disjoint_union(make_cycle(5), make_complete(3)),
}


def test_root_restriction_keeps_the_lex_least_witness():
    # connected sources on 2..5 vertices reach no pin degree, so no
    # cluster forms and the search order is (-degree, id); whichever orbit
    # holds the root's value, the witness is the least solution read in
    # that order, as a search over the full root domain returns it
    rng = random.Random(251)
    sources = []
    while len(sources) < 60:
        n = rng.randint(2, 5)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        if len(g.connected_components()) == 1:
            sources.append(g)
    cases = moved = 0
    for g in sources:
        order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        at = {v: i for i, v in enumerate(order)}
        relabelled = Graph(g.n, [(at[u], at[v]) for u, v in g.edges()])
        for h in ROOT_TARGETS.values():
            least = next(brute_homomorphisms(relabelled, h), None)
            found = find_homomorphism(g, h)
            if least is None:
                assert found is None, (g.edges(), h.edges())
                continue
            assert found is not None, (g.edges(), h.edges())
            assert tuple(found.assignment[v] for v in order) == least, (g.edges(), h.edges())
            cases += 1
            moved += least[0] != 0
    assert cases > 200 and moved > 50


def test_warm_cluster_cache_makes_no_cluster_search(monkeypatch):
    # compilation keeps each cluster's first solutions, so once the cache
    # is warm neither compilation nor re-expansion searches: every search
    # of the second call is a root search over the residual vertices
    c5 = make_cycle(5)
    g = make_cycle(4)
    lists = {0: (0, 1), 1: (1, 2, 3), 2: (0, 2), 3: (2, 3, 4)}
    out = reduce_list_to_plain(g, lists, c5, find_edge_gadget(c5))
    witness = find_homomorphism(out, c5)
    assert witness is not None
    solvers = compiled_solvers(out, c5)[0]
    assert any(solver.clusters for solver in solvers)
    residuals = {frozenset(solver.residual) for solver in solvers}
    calls = count_searches(monkeypatch)
    assert find_homomorphism(out, c5) == witness
    assert calls and all(frozenset(order) in residuals for order in calls)


def bridged_components_graph(rng):
    """Isolated vertices, a pinless path, a hub with pendants, and two
    components made of groups of hubs: within a group the hubs form a
    path, and the groups are joined only through one soft bridge each: a
    short path between two hubs, a soft vertex on three hubs, or a path of
    more than ``_CLUSTER_CAP`` vertices.  Vertices are shuffled; returns
    the graph and the vertex sets of the bridges."""
    edges, bridges = [], []
    n = 0

    def new(count):
        nonlocal n
        n += count
        return list(range(n - count, n))

    def path(length):
        vertices = new(length)
        edges.extend(zip(vertices, vertices[1:]))
        return vertices

    new(rng.randint(1, 3))  # isolated vertices
    path(rng.randint(2, 6))
    hub = new(1)[0]
    edges.extend((hub, leaf) for leaf in new(rng.randint(5, 7)))
    for _ in range(2):
        groups = []
        for _ in range(rng.randint(2, 3)):
            groups.append(path(rng.randint(1, 3)))
            edges.extend((hub, leaf) for hub in groups[-1] for leaf in new(5))
        for left, right in zip(groups, groups[1:]):
            kind = rng.choice(("compiled", "three pins", "over cap"))
            if kind == "three pins" and len(left + right) >= 3:
                ends = [rng.choice(left), rng.choice(right)]
                ends.append(rng.choice([v for v in left + right if v not in ends]))
                bridge = new(1)
                edges.extend((v, bridge[0]) for v in ends)
            else:
                bridge = path(rng.randint(1, 3) if kind == "compiled" else rng.randint(65, 67))
                edges += [(rng.choice(left), bridge[0]), (bridge[-1], rng.choice(right))]
            bridges.append(bridge)
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges]), [{perm[v] for v in b} for b in bridges]


def test_components_are_read_off_the_pins():
    # the oracle's components are those of a plain BFS, in order of their
    # least vertex, however their pins are linked; and its assignments are
    # those of the components-first path
    rng = random.Random(353)
    cases = Counter()
    for trial in range(36):
        g, bridges = bridged_components_graph(rng)
        comps = reference_components(g)
        pins = {v for v in range(g.n) if g.degree(v) >= 5}
        for comp in comps:
            on = pins.intersection(comp)
            cases["isolated"] += len(comp) == 1
            cases["no pin"] += len(comp) > 1 and not on
            cases["one pin"] += len(on) == 1
        for bridge in bridges:
            (comp,) = [c for c in comps if bridge <= set(c)]
            touched = {u for v in bridge for u in g.neighbors(v)} & pins
            kept = [v for v in comp if v not in bridge]
            # the bridge is a soft region, and the only link of its pins
            assert not bridge & pins
            rest = reference_components(g.induced_subgraph(kept))
            assert sum(bool(pins.intersection(kept[i] for i in c)) for c in rest) > 1
            if len(bridge) > hcolkit.hom._CLUSTER_CAP:
                cases["over cap"] += 1
            elif len(touched) > 2:
                cases["three pins"] += 1
            else:
                cases["compiled"] += 1
        h = (make_complete(3), make_cycle(5), make_petersen())[trial % 3]
        (listed,) = rng.sample([c for c in comps if len(c) > 1], 1)
        lists = {v: rng.sample(range(h.n), h.n - 1) for v in rng.sample(listed, 2)}
        solvers = _components(g, h, _domains_from_lists(g, h, lists), True)
        assert [tuple(sorted(s.residual + [v for m, _, _ in s.regions for v in m])) for s in solvers] == comps
        assert [s.symmetric for s in solvers] == [c != listed for c in comps]
        found = find_homomorphism(g, h, lists=lists)
        expected = components_first_assignment(g, h, lists)
        assert (found and found.assignment) == expected
        cases["satisfiable"] += expected is not None
    assert min(cases[k] for k in ("isolated", "no pin", "one pin", "compiled", "three pins", "over cap")) > 5
    assert cases["satisfiable"] > 10


def test_clusters_sharing_a_table_weigh_once_each():
    # hubs 0, 1 and 2 (pendants lift their degrees) joined by paths; the
    # two 3-paths and the two 2-paths from 0 to 1 share a table each, so
    # each pair is one constraint group with a repeated partner, and every
    # cluster still weighs once in the residual order: weighing only the
    # distinct partners moves the C5 witness
    paths = [
        (1, 0, [3, 4, 5]), (1, 0, [6, 7, 8]), (0, 1, [9, 10]), (0, 1, [11, 12]),
        (2, 0, [13]), (2, 1, [14, 15, 16]), (0, 2, [17, 18, 19]),
    ]
    edges = [(1, 2)] + [e for a, b, inner in paths for e in zip([a] + inner, inner + [b])]
    edges += [(hub, leaf) for hub in range(3) for leaf in range(20 + 5 * hub, 25 + 5 * hub)]
    g, c5 = Graph(35, edges), make_cycle(5)
    (solver,), _ = compiled_solvers(g, c5)
    assert any(len(p) > len(set(p)) for groups in solver.tables.values() for _, p, _ in groups)
    assert find_homomorphism(g, c5).assignment == components_first_assignment(g, c5)
