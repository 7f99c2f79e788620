import random
from functools import reduce
from itertools import combinations
from operator import and_

import pytest

from conftest import (
    b_pattern_edge_count,
    brute_critical_sets,
    brute_first_critical,
    brute_first_embedding,
    brute_witness_q,
    reference_witness_search,
)
from hcolkit.config import Ceilings
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
)
from hcolkit.hom import compute_core
from hcolkit.witness import (
    WitnessCertificate,
    _largest_transversal,
    clique_number,
    critical_set_fault,
    degeneracy,
    find_b_ml_copy,
    make_b_pattern,
    witness_bound_via_b,
    witness_number,
)


def test_complete_graphs():
    for m in range(1, 7):
        assert witness_number(make_complete(m)).q == m


def test_cycles():
    assert witness_number(make_cycle(3)).q == 3
    assert witness_number(make_cycle(6)).q == 3
    for m in (4, 5, 7, 8, 9):
        assert witness_number(make_cycle(m)).q == 2


def test_kneser_graphs():
    for m, r in ((4, 2), (5, 2), (6, 2), (7, 3)):
        assert witness_number(make_kneser(m, r)).q == m - 2 * r + 2


def test_edgeless():
    cert = witness_number(Graph(4))
    assert cert.q == 1 and len(cert.witness_set) == 1


def test_agrees_with_brute_force_up_to_8_vertices():
    rng = random.Random(5)
    for trial in range(80):
        g = make_random(rng.randrange(1, 9), rng.randrange(10**6))
        cert = witness_number(g)
        assert cert.q == brute_witness_q(g)
        assert cert.validate(g)


def test_certificate_structure():
    cert = witness_number(make_kneser(6, 2))
    g = make_kneser(6, 2)
    assert len(cert.witness_set) == cert.q == 4
    assert common_neighbors(g, cert.witness_set) == ()
    for sub in combinations(cert.witness_set, cert.q - 1):
        assert common_neighbors(g, sub)
    # validate refuses a set with a common neighbor, one with a drop-one
    # subset that has none, and a q that is not the set's size
    assert cert.validate(g)
    k4_and_isolated = Graph(5, make_complete(4).edges())
    for witness_set in ((0, 1, 2), (0, 1, 2, 4)):
        assert not WitnessCertificate(len(witness_set), witness_set, 5).validate(k4_and_isolated)
    assert WitnessCertificate(4, (0, 1, 2, 3), 5).validate(k4_and_isolated)
    assert not WitnessCertificate(3, (0, 1, 2, 3), 5).validate(k4_and_isolated)


def test_empty_set_certificate_returns_a_verdict():
    # the empty set has no drop-one subsets: only its common neighbours,
    # every vertex of the graph, decide
    assert critical_set_fault(Graph(0), ()) is None
    assert WitnessCertificate(0, (), 0).validate(Graph(0))
    assert critical_set_fault(Graph(1), ()) == "has a common neighbor"
    assert not WitnessCertificate(0, (), 0).validate(Graph(1))


def test_certificate_is_lexicographically_first():
    # on K_m the only critical sets of size m are the whole vertex set
    assert witness_number(make_complete(4)).witness_set == (0, 1, 2, 3)
    # C_6: alternating triples {0,2,4} and {1,3,5}; lex-first wins
    assert witness_number(make_cycle(6)).witness_set == (0, 2, 4)


def test_certificate_is_lexicographically_first_on_random_graphs():
    rng = random.Random(41)
    gaps = set()
    for trial in range(100):
        g = make_random(rng.randrange(1, 11), rng.randrange(10**6))
        cert = witness_number(g)
        assert cert.witness_set == brute_first_critical(g)
        gaps.add(cert.q > clique_number(g))
    # the sample holds graphs with q == omega and with q > omega
    assert gaps == {False, True}


DENSITIES = (0.1, 0.3, 0.7, 0.9)


def _graph_at_density(rng, n, density):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])


def test_matches_single_pass_search_across_densities():
    rng = random.Random(11)
    for density in DENSITIES:
        for trial in range(30):
            g = _graph_at_density(rng, rng.randrange(1, 21), density)
            assert witness_number(g).witness_set == reference_witness_search(g), (density, g.rows)


@pytest.mark.parametrize("n", [24, 28])
def test_matches_single_pass_search_at_benchmark_sizes(n):
    # the witness-gnp workload runs G(n, 1/2) for n = 24..32
    for seed in range(3):
        g = make_random(n, seed)
        assert witness_number(g).witness_set == reference_witness_search(g), (n, seed)


def test_agrees_with_brute_force_across_densities():
    rng = random.Random(13)
    for density in DENSITIES:
        for trial in range(25):
            g = _graph_at_density(rng, rng.randrange(1, 10), density)
            cert = witness_number(g)
            assert cert.q == brute_witness_q(g), (density, g.rows)
            assert cert.witness_set == brute_first_critical(g), (density, g.rows)


def test_restarted_search_meets_the_critical_sets_above_its_start():
    # the certificate rests on this: started at S with the candidates above
    # max(S), the search reaches t iff a critical T ⊇ S with |T| >= t has
    # T - S above max(S)
    rng = random.Random(43)
    outcomes = set()
    for density in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for trial in range(4):
            g = _graph_at_density(rng, rng.randrange(1, 10), density)
            full = (1 << g.n) - 1
            critical = [set(t) for t in brute_critical_sets(g)]
            for size in range(g.n):
                for s in combinations(range(g.n), size):
                    cn = reduce(and_, (g.rows[v] for v in s), full)
                    dcs = [
                        reduce(and_, (g.rows[v] for v in s if v != u), full) for u in s
                    ]
                    if not cn or not all(dc & ~cn for dc in dcs):
                        continue
                    top = s[-1] if s else -1
                    reach = max(
                        (len(t) for t in critical if t >= set(s) and min(t - set(s)) > top),
                        default=0,
                    )
                    cand = full >> (top + 1) << (top + 1)
                    for target in range(1, g.n + 2):
                        found = _largest_transversal(
                            g.rows, cn, dcs, cand, size, target - 1, target
                        ) >= target
                        assert found == (reach >= target), (g.rows, s, target)
                        outcomes.add((found, target > size + 1))
    # either answer occurs, for targets one vertex past S and further
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize(
    "n, density, q, witness_set",
    [
        (40, 0.8, 14, (4, 7, 13, 14, 15, 18, 19, 22, 23, 24, 25, 28, 33, 37)),
        (48, 0.7, 12, (1, 3, 7, 13, 14, 15, 17, 22, 23, 29, 34, 36)),
    ],
)
def test_pinned_certificate_on_dense_graphs(n, density, q, witness_set):
    cert = witness_number(_graph_at_density(random.Random(0), n, density))
    assert cert.q == q
    assert cert.witness_set == witness_set


def test_pinned_certificate_on_g40():
    cert = witness_number(make_random(40, 0))
    assert cert.q == 8
    assert cert.witness_set == (0, 1, 16, 20, 23, 29, 35, 37)


@pytest.mark.parametrize(
    "n, q, witness_set",
    [
        (56, 8, (0, 1, 2, 6, 8, 16, 31, 38)),
        (64, 9, (0, 5, 14, 26, 37, 44, 49, 51, 57)),
    ],
)
def test_pinned_certificate_at_the_frontier(n, q, witness_set):
    # G(64, 1/2) is the default witness ceiling
    cert = witness_number(make_random(n, 0))
    assert cert.q == q
    assert cert.witness_set == witness_set


def test_sandwich_bounds():
    rng = random.Random(17)
    for trial in range(60):
        g = make_random(rng.randrange(1, 11), rng.randrange(10**6))
        q = witness_number(g).q
        assert clique_number(g) <= q <= g.max_degree() + 1


def test_core_monotonicity():
    rng = random.Random(23)
    checked = 0
    for trial in range(40):
        g = make_random(rng.randrange(1, 10), rng.randrange(10**6))
        core = compute_core(g)
        assert witness_number(core).q <= witness_number(g).q
        checked += 1
    assert checked == 40


def test_degenerate_graph_bound():
    rng = random.Random(29)
    for trial in range(30):
        g = make_random(rng.randrange(1, 11), rng.randrange(10**6))
        assert witness_number(g).q <= degeneracy(g) + 1


def test_witness_ceiling():
    with pytest.raises(CeilingError):
        witness_number(Graph(10), ceilings=Ceilings(witness_vertices=5))
    with pytest.raises(ValueError):
        witness_number(Graph(0))


# -- structural invariants --------------------------------------------------

def test_degeneracy_values():
    assert degeneracy(make_petersen()) == 3
    assert degeneracy(make_complete(5)) == 4
    assert degeneracy(make_path(6)) == 1
    assert degeneracy(Graph(3)) == 0


def test_clique_number_values():
    assert clique_number(make_kneser(5, 2)) == 2  # triangle-free
    assert clique_number(make_complete(6)) == 6
    assert clique_number(make_cycle(7)) == 2
    assert clique_number(make_kneser(6, 2)) == 3


def test_max_degree_kneser():
    # degree of K(m, r) is (m - r choose r)
    from math import comb

    for m, r in ((5, 2), (6, 2), (7, 3)):
        assert make_kneser(m, r).max_degree() == comb(m - r, r)


# -- B(m, l) patterns ---------------------------------------------------------

def test_b_pattern_edge_counts():
    for m in range(1, 6):
        for l in range(m + 1):
            g = make_b_pattern(m, l)
            assert g.m == b_pattern_edge_count(m, l), (m, l)


def test_b_pattern_extremes():
    assert make_b_pattern(5, 0) == make_complete(5)
    # B(m, m) is complete bipartite minus a perfect matching
    g = make_b_pattern(3, 3)
    assert g.m == 6
    assert all(not g.has_edge(u, v) for u in range(3) for v in range(3) if u != v)


def test_find_b_copy_in_complete_graph():
    hit = find_b_ml_copy(make_complete(5), 5, 0)
    assert hit is not None and len(set(hit)) == 5


def test_c7_has_no_b3_copies():
    c7 = make_cycle(7)
    for l in range(4):
        assert find_b_ml_copy(c7, 3, l) is None
    assert witness_bound_via_b(c7, 3)  # certifies q <= 2


def test_k4_contains_b4():
    assert not witness_bound_via_b(make_complete(4), 4)


def test_b_copy_respects_edges():
    g = make_kneser(6, 2)
    hit = find_b_ml_copy(g, 3, 1)
    if hit is not None:
        pattern = make_b_pattern(3, 1)
        for u, v in pattern.edges():
            assert g.has_edge(hit[u], hit[v])


def test_b_freeness_on_planar_samples():
    # planar-ish fixtures: paths, cycles, grids, wheel
    def grid(rows, cols):
        def vid(r, c):
            return r * cols + c

        edges = []
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.append((vid(r, c), vid(r, c + 1)))
                if r + 1 < rows:
                    edges.append((vid(r, c), vid(r + 1, c)))
        return Graph(rows * cols, edges)

    def wheel(n):
        edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]
        return Graph(n + 1, edges)

    samples = [make_path(6), make_cycle(8), grid(2, 3), grid(3, 3), wheel(5), wheel(6)]
    for g in samples:
        assert witness_bound_via_b(g, 5), "planar graphs contain no B(5, l)"
        assert witness_number(g).q <= 4


def test_b_copy_is_first_embedding_on_random_graphs():
    # pins the exact tuple, not just existence: the first injective map in
    # descending-degree pattern order with ascending images
    rng = random.Random(2024)
    found = missing = 0
    for _ in range(30):
        g = make_random(rng.randrange(4, 8), rng.randrange(2**32))
        for m in range(1, 5):
            for l in range(m + 1):
                pattern = make_b_pattern(m, l)
                expect = brute_first_embedding(pattern, g) if pattern.n <= g.n else None
                assert find_b_ml_copy(g, m, l) == expect, (g.rows, m, l)
                found += expect is not None
                missing += expect is None
    assert found and missing


def test_symmetric_b_search_refutes_quickly():
    # B(7, 7) has 7! automorphisms; without the lex-leader chains the
    # search revisits every relabelling of a partial copy and takes minutes
    assert find_b_ml_copy(make_random(20, 1), 7, 7) is None


def test_b_ceiling():
    with pytest.raises(CeilingError):
        find_b_ml_copy(make_complete(9), 8, 0)


def test_witness_number_forces_a_b_copy():
    # a minimal empty-common-neighborhood set of size q realizes B(q, l)
    # for some l, so the two searches must corroborate each other
    rng = random.Random(37)
    checked = 0
    for _ in range(40):
        g = make_random(rng.randrange(2, 10), rng.randrange(2**32))
        q = witness_number(g).q
        if q > 7 or g.m == 0:
            continue
        assert any(
            find_b_ml_copy(g, q, l) is not None for l in range(q + 1)
        ), f"q={q} but no B(q, l) copy found"
        checked += 1
    assert checked >= 30
