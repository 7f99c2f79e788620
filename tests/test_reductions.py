import random
from itertools import combinations

import pytest

from conftest import (
    brute_hom_exists, reference_check_rows, reference_edge_gadget, reference_glue, reference_hom_exists,
)
from hcolkit.config import Ceilings
from hcolkit.graphs import (
    Graph,
    make_complete,
    make_cycle,
    make_kneser,
    make_path,
    make_petersen,
    make_random,
)
from hcolkit import hom, reductions
from hcolkit.hom import find_homomorphism, is_core
from hcolkit.reductions import (
    CnfFormula,
    EdgeGadget,
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
from hcolkit.reductions import _graphs_with_marked_pair
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
    assert verify_edge_gadget(c5, path, 0, 3)
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


@pytest.mark.parametrize(
    "target",
    [
        make_complete(3),
        make_cycle(5),
        make_complete(4),
        make_petersen(),
        Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]),
    ],
    ids=["K3", "C5", "K4", "petersen", "W5"],
)
def test_orbit_gadget_verdicts_match_all_pairs_reference(target):
    # verify_edge_gadget pins a to one vertex per orbit; the reference
    # pins it to every vertex.  The wheel W5 has two orbits, rim and hub.
    verdicts = []
    for n in range(2, 6):
        for g in _graphs_with_marked_pair(n):
            expect = reference_edge_gadget(target, g, 0, 1)
            assert verify_edge_gadget(target, g, 0, 1) == expect, (n, g.rows)
            verdicts.append(expect)
    assert True in verdicts and False in verdicts


class _GlueTemplate:
    """Stands in for the gadget template: glues each copy edge by edge."""

    def __init__(self, gadget):
        self.gadget = gadget

    def stamp(self, rows, u, v):
        reference_glue(rows, self.gadget, u, v)


def test_gadget_template_matches_the_edge_by_edge_glue(monkeypatch):
    # every connected marked graph up to 5 vertices, marks in both
    # orders: K2 has the a-b edge and an empty interior
    k3 = make_complete(3)
    tight = find_tight_witness_set(k3)
    formula = CnfFormula(3, ((1, -2, 3), (-1, 2, 3)))
    g, lists = make_path(3), {0: (0,), 2: (1, 2)}
    gadgets = [
        EdgeGadget(f, a, b)
        for n in range(2, 6)
        for f in _graphs_with_marked_pair(n)
        for a, b in ((0, 1), (1, 0))
    ]

    def outputs():
        return [
            (
                reduce_list_to_plain(g, lists, k3, gadget).rows,
                reduce_naesat_to_hcol(formula, k3, tight, gadget).graph.rows,
            )
            for gadget in gadgets
        ]

    stamped = outputs()
    monkeypatch.setattr(reductions, "_GadgetTemplate", _GlueTemplate)
    assert outputs() == stamped


def test_find_gadget_canonical_family():
    assert find_edge_gadget(make_cycle(7)).gadget.n == 6
    assert find_edge_gadget(make_complete(4)).gadget.n == 2
    petersen = find_edge_gadget(make_petersen())
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
    found = find_edge_gadget(k62)
    assert found is not None
    assert found.gadget.n == 7
    assert verify_edge_gadget(k62, found.gadget, found.a, found.b)


def test_gadget_search_inconclusive_on_non_core(monkeypatch):
    # C_4 is bipartite, not a core; nothing small should verify, and the
    # enumeration runs through every size up to the ceiling
    sizes = []

    def recording(n):
        sizes.append(n)
        return _graphs_with_marked_pair(n)

    monkeypatch.setattr(reductions, "_graphs_with_marked_pair", recording)
    assert find_edge_gadget(make_cycle(4), ceilings=Ceilings(gadget_vertices=4)) is None
    assert sizes == [2, 3, 4]


def test_enumerated_gadget_for_wheel():
    # W5, the 5-cycle 0..4 with hub 5: the canonical candidates fail and
    # the enumeration's first verifying mask is pinned
    w5 = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])
    found = find_edge_gadget(w5, ceilings=Ceilings(gadget_vertices=5))
    assert found is not None
    assert (found.gadget.rows, found.a, found.b) == ((24, 4, 26, 21, 13), 0, 1)


def test_verify_edge_gadget_rejects_non_gadgets():
    assert not verify_edge_gadget(make_cycle(5), make_complete(2), 0, 1)


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
    return find_edge_gadget(make_cycle(5))


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
    # lists for vertices outside g are refused as the oracle refuses them
    with pytest.raises(ValueError) as exc:
        reduce_list_to_plain(Graph(2, [(0, 1)]), {99: (0,), -1: (1,)}, make_cycle(5), c5_gadget())
    assert str(exc.value) == "list given for unknown vertex 99"


def test_list_reduction_with_interior_free_gadget():
    # the single-edge gadget of K_4 turns forbidden pairs into direct edges
    k4 = make_complete(4)
    gadget = find_edge_gadget(k4)
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
    gadget = find_edge_gadget(k4)
    tight = find_tight_witness_set(k4)
    for _ in range(20):
        phi = random_formula(rng, 4, 3)
        inst = reduce_naesat_to_hcol(phi, k4, tight, gadget)
        assert inst.k == naesat_cover_size(phi, k4, 4, gadget)
        assert nae_sat_brute(phi) == (find_homomorphism(inst.graph, k4) is not None)


@pytest.mark.parametrize("target", [make_complete(4), make_petersen()], ids=["K4", "petersen"])
def test_naesat_oracle_matches_brute_force(target):
    # the targets are vertex-transitive and the reductions carry no lists,
    # so every no-instance here is refuted with root pruning; C5 has
    # q = 2, below the construction's width, and is checked below
    gadget = find_edge_gadget(target)
    tight = find_tight_witness_set(target)
    rng = random.Random(61)
    answers = []
    for _ in range(16):
        phi = random_formula(rng, len(tight), 3)
        f = find_homomorphism(reduce_naesat_to_hcol(phi, target, tight, gadget).graph, target)
        assert (f is not None) == nae_sat_brute(phi), phi
        assert f is None or f.check()
        answers.append(f is not None)
    assert True in answers and False in answers


@pytest.mark.parametrize(
    "target", [make_complete(4), make_cycle(5), make_petersen()], ids=["K4", "C5", "petersen"]
)
def test_list_reduction_outputs_are_simple_graphs(target):
    # the reduction's rows enter its graph unchecked, so each output must
    # pass the full scan; K4's gadget is one a-b edge, the others are
    # paths with interiors
    gadget = find_edge_gadget(target)
    assert (gadget.gadget.n == 2) == (target.n == 4) == gadget.gadget.has_edge(gadget.a, gadget.b)
    rng = random.Random(71)
    kinds = set()
    for _ in range(20):
        g = make_random(rng.randrange(1, 8), rng.randrange(10**6))
        lists = {}
        for v in range(g.n):
            kind = rng.choice(("absent", "partial", "full"))
            kinds.add(kind)
            if kind == "partial":
                lists[v] = rng.sample(range(target.n), rng.randrange(target.n))
            elif kind == "full":
                lists[v] = range(target.n)
        out = reduce_list_to_plain(g, lists, target, gadget)
        reference_check_rows(out.rows)
    assert kinds == {"absent", "partial", "full"}


@pytest.mark.parametrize("target", [make_complete(4), make_petersen()], ids=["K4", "petersen"])
def test_naesat_outputs_are_simple_graphs(target):
    gadget = find_edge_gadget(target)
    tight = find_tight_witness_set(target)
    q = len(tight)
    # a clause holding one variable with both signs, then seeded formulas
    both_signs = CnfFormula(2, ((1, -1) + (2,) * (q - 2),))
    rng = random.Random(73)
    for phi in [both_signs] + [random_formula(rng, q, 4) for _ in range(12)]:
        reference_check_rows(reduce_naesat_to_hcol(phi, target, tight, gadget).graph.rows)


def test_c5_list_reduction_oracle_matches_reference():
    # the plain instances are refuted with root pruning, their list
    # sources by plain backtracking
    rng = random.Random(67)
    c5 = make_cycle(5)
    gadget = find_edge_gadget(c5)
    answers = []
    for _ in range(30):
        n = rng.randint(3, 6)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        lists = {v: tuple(rng.sample(range(5), rng.randint(1, 4))) for v in range(n)}
        expect = reference_hom_exists(g, c5, lists)
        assert (find_homomorphism(reduce_list_to_plain(g, lists, c5, gadget), c5) is not None) == expect
        answers.append(expect)
    assert True in answers and False in answers


def test_naesat_cover_size_formula():
    k4 = make_complete(4)
    gadget = find_edge_gadget(k4)
    tight = find_tight_witness_set(k4)
    phi = CnfFormula(2, ((1, 2, -1, -2),))
    inst = reduce_naesat_to_hcol(phi, k4, tight, gadget)
    # |V_H| + 2qn + 2q(|V_H|-1)n(|V_F|-2) with an interior-free gadget
    assert inst.k == 4 + 16 + 0 == 20


def test_naesat_unsat_instance():
    k4 = make_complete(4)
    gadget = find_edge_gadget(k4)
    tight = find_tight_witness_set(k4)
    phi = CnfFormula(1, ((1, 1, 1, 1),))
    inst = reduce_naesat_to_hcol(phi, k4, tight, gadget)
    assert find_homomorphism(inst.graph, k4) is None


def test_naesat_clause_vertices_outside_cover():
    k4 = make_complete(4)
    gadget = find_edge_gadget(k4)
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
    gadget = find_edge_gadget(k4)
    tight = find_tight_witness_set(k4)
    with pytest.raises(ValueError):
        reduce_naesat_to_hcol(CnfFormula(2, ((1, 2),)), k4, tight, gadget)


def test_naesat_requires_tight_set():
    # a 4-subset of K_5 still has a common neighbor, so it is not tight
    k5 = make_complete(5)
    gadget = find_edge_gadget(k5)
    with pytest.raises(ValueError, match="tight set has a common neighbor"):
        reduce_naesat_to_hcol(CnfFormula(1, ((1, 1, 1, -1),)), k5, (0, 1, 2, 3), gadget)
    # K_4 plus an isolated vertex 4: {0, 1, 2, 4} has no common neighbor,
    # but neither has {1, 2, 4}
    k4_and_isolated = Graph(5, make_complete(4).edges())
    with pytest.raises(ValueError, match="tight set is not tight: a proper subset lacks"):
        reduce_naesat_to_hcol(CnfFormula(1, ((1, 1, 1, -1),)), k4_and_isolated, (0, 1, 2, 4), gadget)


def test_naesat_width_3_allowed():
    # the construction is usable at width 3 even though the hardness
    # consequences need width 4; equivalence still holds
    k3 = make_complete(3)
    gadget = find_edge_gadget(k3)
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
    with pytest.raises(ValueError) as exc:
        read_dimacs("p cnf 3 2\n1 2 3 0\n")
    assert str(exc.value) == "header promises 2 clauses, found 1"
    with pytest.raises(ValueError) as exc:
        read_dimacs("p cnf -1 0\n")
    assert str(exc.value) == "variable count must be non-negative"


def test_dimacs_refuses_a_repeated_header():
    # a concatenated file is not read as the formula of its last header
    with pytest.raises(ValueError) as exc:
        read_dimacs("p cnf 3 1\n1 2 3 0\np cnf 5 1\n")
    assert str(exc.value) == "repeated line in DIMACS file: 'p'"


def test_dimacs_refuses_a_clause_before_the_header():
    # a file whose header was lost in the middle is not read from its tail
    with pytest.raises(ValueError) as exc:
        read_dimacs("1 2 0\np cnf 2 1\n")
    assert str(exc.value) == "missing 'p cnf' header before '1 2 0'"
    with pytest.raises(ValueError) as exc:
        read_dimacs("c comment\n\n-1\np cnf 2 1\n2 0\n")
    assert str(exc.value) == "missing 'p cnf' header before '-1'"


def test_list_instance_round_trip():
    g = make_cycle(5)
    lists = {0: (1, 2), 3: (0,)}
    text = write_list_instance(g, lists)
    g2, lists2 = read_list_instance(text)
    assert g2 == g and lists2 == lists


def test_cluster_cache_cap_keeps_answers(monkeypatch):
    # with the cache cap at one entry, every compiled cluster evicts the
    # last, and the answers on reduction outputs stay those of the
    # list oracle on the original instance
    rng = random.Random(41)
    c5 = make_cycle(5)
    gadget = c5_gadget()
    cases = []
    for _ in range(20):
        n = rng.randrange(1, 9)
        g = make_random(n, rng.randrange(10**6))
        lists = {v: tuple(sorted(rng.sample(range(5), rng.randrange(1, 6)))) for v in range(n)}
        cases.append((g, lists, reduce_list_to_plain(g, lists, c5, gadget)))

    class RecordingCache(dict):
        inserts = peak = 0

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            RecordingCache.inserts += 1
            RecordingCache.peak = max(RecordingCache.peak, len(self))

    uncapped = [find_homomorphism(out, c5) for _, _, out in cases]
    monkeypatch.setattr(hom, "_cluster_cache", RecordingCache())
    monkeypatch.setattr(hom, "_CLUSTER_CACHE_CAP", 1)
    for (g, lists, out), before in zip(cases, uncapped):
        got = find_homomorphism(out, c5)
        assert (got is not None) == (find_homomorphism(g, c5, lists=lists) is not None)
        assert (got and got.assignment) == (before and before.assignment)
    assert RecordingCache.inserts > 1 and RecordingCache.peak == 1
