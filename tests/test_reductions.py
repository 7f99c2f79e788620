import random
from itertools import combinations

import pytest

from conftest import brute_hom_exists
from hcolkit.graphs import (
    Graph,
    make_complete,
    make_cycle,
    make_kneser,
    make_path,
    make_petersen,
    make_random,
)
from hcolkit.hom import find_homomorphism, is_core
from hcolkit.reductions import (
    CnfFormula,
    EdgeGadget,
    GadgetSearch,
    find_edge_gadget,
    find_tight_witness_set,
    nae_sat_brute,
    naesat_cover_size,
    read_dimacs,
    read_list_instance,
    reduce_list_to_plain,
    reduce_naesat_to_hcol,
    verify_edge_gadget,
    write_dimacs,
    write_list_instance,
)
from hcolkit.graphs import common_neighbors


# -- gadget fixtures ----------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3])
def test_even_path_gadget_for_odd_cycles(m):
    cycle = make_cycle(2 * m + 1)
    path = make_path(2 * m)
    assert verify_edge_gadget(cycle, path, 0, 2 * m - 1)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_single_edge_gadget_for_complete_graphs(m):
    assert verify_edge_gadget(make_complete(m), make_complete(2), 0, 1)


def test_single_edge_fails_for_c5():
    assert not verify_edge_gadget(make_cycle(5), make_complete(2), 0, 1)


def test_gadget_verification_matches_brute_force():
    # small enough to compare against the all-assignments oracle
    c5 = make_cycle(5)
    path = make_path(4)
    for u in range(5):
        for v in range(5):
            expect = brute_hom_exists(path, c5, {0: (u,), 3: (v,)})
            assert expect == (u != v)


@pytest.mark.parametrize("target", [make_complete(3), make_cycle(5)], ids=["K3", "C5"])
def test_gadget_verdicts_match_brute_force_per_pin_pair(target):
    # every graph on up to 5 vertices with marked pair (0, 1), connected or not
    verdicts = set()
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            expect = all(
                brute_hom_exists(g, target, {0: (u,), 1: (v,)}) == (u != v)
                for u in range(target.n)
                for v in range(target.n)
            )
            assert verify_edge_gadget(target, g, 0, 1) == expect, (n, mask)
            verdicts.add(expect)
    assert verdicts == {True, False}


def test_find_gadget_canonical_family():
    assert find_edge_gadget(make_cycle(7)).found.gadget.n == 6
    assert find_edge_gadget(make_complete(4)).found.gadget.n == 2
    petersen = find_edge_gadget(make_petersen()).found
    assert petersen is not None and petersen.gadget.n == 4


def test_find_gadget_for_kneser_6_2():
    k62 = make_kneser(6, 2)
    # the gadget search does not need a core target; an induced subgraph
    # of one need not be a core either: this explicit endomorphism,
    # checked edge by edge, folds 12 vertices onto 6
    sub = k62.induced_subgraph(range(12))
    fold = (0, 1, 2, 2, 2, 5, 8, 8, 8, 10, 10, 10)
    assert all(sub.has_edge(fold[u], fold[v]) for u, v in sub.edges())
    assert not is_core(sub)
    search = find_edge_gadget(k62)
    assert search.found is not None
    assert search.found.gadget.n == 7
    assert verify_edge_gadget(k62, search.found.gadget, search.found.a, search.found.b)


def test_gadget_search_inconclusive_on_non_core():
    # C_4 is bipartite, not a core; nothing small should verify
    search = find_edge_gadget(make_cycle(4), max_gadget_vertices=4)
    assert isinstance(search, GadgetSearch)
    assert search.found is None
    assert search.searched_up_to == 4


def test_verified_constructor_rejects_non_gadgets():
    with pytest.raises(ValueError):
        EdgeGadget.verified(make_cycle(5), make_complete(2), 0, 1)


# -- tight witness sets -------------------------------------------------------

def test_tight_sets():
    k4 = make_complete(4)
    assert find_tight_witness_set(k4) == (0, 1, 2, 3)
    c6 = make_cycle(6)
    t = find_tight_witness_set(c6)
    assert t == (0, 2, 4)  # alternating vertices, lexicographically first
    k62 = make_kneser(6, 2)
    t62 = find_tight_witness_set(k62)
    assert len(t62) == 4
    assert common_neighbors(k62, t62) == ()
    # lexicographically first: the {1,i} family {1,2},{1,3},{1,4},{1,5}
    assert t62 == (0, 1, 2, 3)
    assert [k62.labels[v] for v in t62] == ["{1,2}", "{1,3}", "{1,4}", "{1,5}"]


# -- list reduction -----------------------------------------------------------

def c5_gadget():
    return find_edge_gadget(make_cycle(5)).found


def test_full_lists_add_no_gadgets():
    g = make_random(5, 12)
    c5 = make_cycle(5)
    out = reduce_list_to_plain(g, {}, c5, c5_gadget())
    assert out.n == g.n + c5.n
    assert (find_homomorphism(g, c5) is not None) == (
        find_homomorphism(out, c5) is not None
    )


def test_pinned_single_vertex():
    c5 = make_cycle(5)
    out = reduce_list_to_plain(make_complete(1), {0: (2,)}, c5, c5_gadget())
    assert find_homomorphism(out, c5) is not None


def test_list_reduction_equivalence_sweep():
    rng = random.Random(41)
    c5 = make_cycle(5)
    gadget = c5_gadget()
    for _ in range(30):
        n = rng.randrange(1, 9)
        g = make_random(n, rng.randrange(10**6))
        lists = {
            v: tuple(sorted(rng.sample(range(5), rng.randrange(1, 6))))
            for v in range(n)
        }
        out = reduce_list_to_plain(g, lists, c5, gadget)
        want = find_homomorphism(g, c5, lists=lists) is not None
        got = find_homomorphism(out, c5) is not None
        assert want == got


def test_list_reduction_vertex_count_bound():
    rng = random.Random(43)
    c5 = make_cycle(5)
    gadget = c5_gadget()
    g = make_random(6, 3)
    lists = {v: (0, 1) for v in range(6)}
    out = reduce_list_to_plain(g, lists, c5, gadget)
    assert out.n <= g.n + c5.n + (gadget.gadget.n - 2) * g.n * c5.n


def test_bad_lists_rejected():
    with pytest.raises(ValueError):
        reduce_list_to_plain(make_complete(2), {0: (9,)}, make_cycle(5), c5_gadget())


def test_list_reduction_with_interior_free_gadget():
    # the single-edge gadget of K_4 turns forbidden pairs into direct edges
    k4 = make_complete(4)
    gadget = find_edge_gadget(k4).found
    assert gadget.interior_size == 0
    rng = random.Random(59)
    for _ in range(15):
        n = rng.randrange(1, 8)
        g = make_random(n, rng.randrange(2**32))
        lists = {
            v: tuple(sorted(rng.sample(range(4), rng.randrange(1, 5))))
            for v in range(n)
        }
        out = reduce_list_to_plain(g, lists, k4, gadget)
        assert out.n == g.n + 4  # no interior vertices added
        want = find_homomorphism(g, k4, lists=lists) is not None
        got = find_homomorphism(out, k4) is not None
        assert want == got


# -- NAE-SAT ------------------------------------------------------------------

def test_nae_brute_basics():
    assert not nae_sat_brute(CnfFormula(1, ((1, 1, 1, 1),)))
    assert nae_sat_brute(CnfFormula(3, ((1, -1, 2, 3),)))
    assert nae_sat_brute(CnfFormula(0, ()))


def test_cnf_validation():
    with pytest.raises(ValueError):
        CnfFormula(2, ((),))
    with pytest.raises(ValueError):
        CnfFormula(2, ((3,),))
    with pytest.raises(ValueError):
        CnfFormula(2, ((0,),))
    CnfFormula(2, ((1, -2),)).require_width(2)
    with pytest.raises(ValueError):
        CnfFormula(2, ((1, -2),)).require_width(4)


def random_formula(rng, q, n_max):
    n = rng.randrange(1, n_max + 1)
    clauses = tuple(
        tuple(rng.choice((1, -1)) * rng.randrange(1, n + 1) for _ in range(q))
        for _ in range(rng.randrange(1, 5))
    )
    return CnfFormula(n, clauses)


def test_naesat_reduction_k4_sweep():
    rng = random.Random(47)
    k4 = make_complete(4)
    gadget = find_edge_gadget(k4).found
    tight = find_tight_witness_set(k4)
    for _ in range(20):
        phi = random_formula(rng, 4, 3)
        inst = reduce_naesat_to_hcol(phi, k4, tight, gadget)
        assert inst.k == naesat_cover_size(phi, k4, 4, gadget)
        assert nae_sat_brute(phi) == (find_homomorphism(inst.graph, k4) is not None)


def test_naesat_cover_size_formula():
    k4 = make_complete(4)
    gadget = find_edge_gadget(k4).found
    tight = find_tight_witness_set(k4)
    phi = CnfFormula(2, ((1, 2, -1, -2),))
    inst = reduce_naesat_to_hcol(phi, k4, tight, gadget)
    # |V_H| + 2qn + 2q(|V_H|-1)n(|V_F|-2) with an interior-free gadget
    assert inst.k == 4 + 16 + 0 == 20


def test_naesat_unsat_instance():
    k4 = make_complete(4)
    gadget = find_edge_gadget(k4).found
    tight = find_tight_witness_set(k4)
    phi = CnfFormula(1, ((1, 1, 1, 1),))
    inst = reduce_naesat_to_hcol(phi, k4, tight, gadget)
    assert find_homomorphism(inst.graph, k4) is None


def test_naesat_clause_vertices_outside_cover():
    k4 = make_complete(4)
    gadget = find_edge_gadget(k4).found
    tight = find_tight_witness_set(k4)
    phi = CnfFormula(2, ((1, 2, -1, -2), (1, 1, 2, 2)))
    inst = reduce_naesat_to_hcol(phi, k4, tight, gadget)
    assert inst.graph.n - inst.k == len(phi.clauses)
    clause_vertices = range(inst.k, inst.graph.n)
    for c in clause_vertices:
        assert inst.graph.degree(c) == 4
        for other in clause_vertices:
            assert c == other or not inst.graph.has_edge(c, other)


def test_naesat_width_mismatch_rejected():
    k4 = make_complete(4)
    gadget = find_edge_gadget(k4).found
    tight = find_tight_witness_set(k4)
    with pytest.raises(ValueError):
        reduce_naesat_to_hcol(CnfFormula(2, ((1, 2),)), k4, tight, gadget)


def test_naesat_requires_tight_set():
    # a 4-subset of K_5 still has a common neighbor, so it is not tight
    k5 = make_complete(5)
    gadget = find_edge_gadget(k5).found
    with pytest.raises(ValueError):
        reduce_naesat_to_hcol(CnfFormula(1, ((1, 1, 1, -1),)), k5, (0, 1, 2, 3), gadget)


def test_naesat_width_3_allowed():
    # the construction is usable at width 3 even though the hardness
    # consequences need width 4; equivalence still holds
    k3 = make_complete(3)
    gadget = find_edge_gadget(k3).found
    tight = find_tight_witness_set(k3)
    rng = random.Random(53)
    for _ in range(10):
        phi = random_formula(rng, 3, 3)
        inst = reduce_naesat_to_hcol(phi, k3, tight, gadget)
        assert nae_sat_brute(phi) == (find_homomorphism(inst.graph, k3) is not None)


# -- file formats -------------------------------------------------------------

def test_dimacs_round_trip():
    phi = CnfFormula(3, ((1, -2, 3, 3), (-1, -1, 2, -3)))
    text = write_dimacs(phi)
    assert read_dimacs(text) == phi


def test_dimacs_parsing_details():
    text = "c comment\np cnf 2 2\n1 2 0\n-1\n-2 0\n"
    phi = read_dimacs(text)
    assert phi.clauses == ((1, 2), (-1, -2))
    with pytest.raises(ValueError):
        read_dimacs("1 2 0\n")  # missing header
    with pytest.raises(ValueError):
        read_dimacs("p cnf 2 1\n1 2\n")  # unterminated clause


def test_list_instance_round_trip():
    g = make_cycle(5)
    lists = {0: (1, 2), 3: (0,)}
    text = write_list_instance(g, lists)
    g2, lists2 = read_list_instance(text)
    assert g2 == g and lists2 == lists
