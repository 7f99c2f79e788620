"""Cross-validation of the production solver against a naive reference.

The reference, ``conftest.reference_hom_exists``, does plain chronological
backtracking with no component split, no cluster compilation, no
propagation and no ordering heuristics, so agreement on structured
inputs exercises exactly the machinery the production solver adds.
"""

import random
from itertools import combinations

from conftest import hub_and_path_graph, reference_hom_exists
from hcolkit.graphs import Graph, make_complete, make_cycle, make_kneser, make_petersen, make_random
from hcolkit.hom import find_homomorphism
from hcolkit.witness import witness_number


def structured_graph(rng: random.Random) -> Graph:
    """Hubs with inflated degree, pendant paths/cycles between them.

    Shapes like these trigger the pendant-cluster compiler.
    """
    hubs = rng.randrange(2, 5)
    n = hubs
    edges = []
    for _ in range(rng.randrange(1, 5)):
        a, b = rng.sample(range(hubs), 2) if hubs > 1 else (0, 0)
        last = a
        for _ in range(rng.randrange(1, 4)):
            edges.append((last, n))
            last = n
            n += 1
        if rng.random() < 0.8:
            edges.append((last, b))
    for hub in range(hubs):
        for _ in range(rng.randrange(0, 6)):
            edges.append((hub, n))
            n += 1
    # a sprinkle of extra edges among early vertices
    for _ in range(rng.randrange(0, 4)):
        u, v = rng.sample(range(min(n, 6)), 2)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return Graph(n, set(edges))


def test_solver_agrees_with_reference_on_structured_graphs():
    rng = random.Random(97)
    targets = [make_complete(3), make_cycle(5), make_kneser(4, 2)]
    for trial in range(60):
        g = structured_graph(rng)
        if g.n > 16:
            continue  # keep the reference solver honest
        h = targets[trial % len(targets)]
        lists = None
        if trial % 2 and g.n:
            lists = {
                rng.randrange(g.n): tuple(
                    sorted(rng.sample(range(h.n), rng.randrange(1, h.n + 1)))
                )
            }
        expect = reference_hom_exists(g, h, lists)
        got = find_homomorphism(g, h, lists=lists)
        assert (got is not None) == expect, (trial, g.n, h.n)
        if got is not None:
            assert got.check(lists)


def test_solver_agrees_with_reference_on_dense_random_graphs():
    rng = random.Random(101)
    targets = [make_complete(3), make_cycle(5), make_cycle(7)]
    for trial in range(60):
        g = make_random(rng.randrange(1, 11), rng.randrange(2**32))
        h = targets[trial % len(targets)]
        expect = reference_hom_exists(g, h)
        got = find_homomorphism(g, h)
        assert (got is not None) == expect


def test_solver_agrees_with_reference_on_hub_and_path_graphs():
    # parallel clusters between one pair of pins put repeated partners on
    # the engine's constraint lists; lists on path vertices make their
    # tables differ and some instances unsatisfiable.  Pendant vertices
    # carry no list: one that failed would send the id-order reference
    # through every assignment of the paths before it.
    rng = random.Random(113)
    targets = [make_cycle(5), make_complete(3), make_petersen()]
    answers = set()
    for trial in range(600):
        g, core = hub_and_path_graph(rng)
        h = targets[trial % len(targets)]
        lists = {
            v: tuple(sorted(rng.sample(range(h.n), rng.randint(1, h.n))))
            for v in rng.sample(range(core), rng.randint(1, min(4, core)))
        }
        expect = reference_hom_exists(g, h, lists)
        got = find_homomorphism(g, h, lists=lists)
        assert (got is not None) == expect, (trial, g, lists)
        if got is not None:
            assert got.check(lists)
        answers.add(expect)
    assert answers == {True, False}


def test_solver_with_lists_inside_pendant_clusters():
    # force a cluster whose interior carries a list restriction
    rng = random.Random(103)
    h = make_cycle(5)
    for _ in range(30):
        # hub 0 inflated, path 0-3-4-1 where 3, 4 are interior
        edges = [(0, 3), (3, 4), (4, 1)]
        n = 5
        for hub in (0, 1, 2):
            for _ in range(5):
                edges.append((hub, n))
                n += 1
        g = Graph(n, edges)
        interior_list = {3: (rng.randrange(5),), 4: tuple(sorted(rng.sample(range(5), 2)))}
        expect = reference_hom_exists(g, h, interior_list)
        got = find_homomorphism(g, h, lists=interior_list)
        assert (got is not None) == expect


def test_solver_battery_across_target_types():
    # 300 mixed instances against targets of very different character:
    # complete, odd cycle, matching (bipartite), triangle-plus-isolated,
    # and a random target
    rng = random.Random(109)
    isolated_plus_triangle = Graph(4, [(0, 1), (0, 2), (1, 2)])
    targets = [
        make_complete(3),
        make_cycle(5),
        make_kneser(4, 2),
        isolated_plus_triangle,
        make_random(6, 999),
    ]
    for trial in range(300):
        n = rng.randrange(0, 9)
        g = make_random(n, rng.randrange(2**32))
        h = targets[trial % len(targets)]
        lists = None
        if n and trial % 4 == 0:
            lists = {
                v: tuple(sorted(rng.sample(range(h.n), rng.randrange(1, h.n + 1))))
                for v in rng.sample(range(n), min(n, 2))
            }
        expect = reference_hom_exists(g, h, lists)
        got = find_homomorphism(g, h, lists=lists)
        assert (got is not None) == expect, (trial, n, h.n, lists)
        if got is not None:
            assert got.check(lists)


def test_witness_brute_force_at_nine_and_ten_vertices():
    rng = random.Random(107)
    for _ in range(12):
        g = make_random(rng.randrange(9, 11), rng.randrange(2**32))
        expected = brute_q_large(g)
        assert witness_number(g).q == expected


def brute_q_large(g: Graph) -> int:
    from hcolkit.graphs import common_neighbors

    best = 0
    for size in range(1, g.n + 1):
        for t in combinations(range(g.n), size):
            if common_neighbors(g, t):
                continue
            if all(common_neighbors(g, s) for s in combinations(t, size - 1)):
                best = max(best, size)
    return best
