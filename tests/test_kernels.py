import random
from itertools import combinations, product
from math import comb

import pytest

from conftest import greedy_cover_2approx, random_cover_instance
from hcolkit.hom import find_homomorphism
from hcolkit.config import Ceilings
from hcolkit.errors import CeilingError, InvariantViolation
from hcolkit.gf import field_make
from hcolkit.graphs import Graph, make_complete, make_cycle, make_kneser, make_petersen
import hcolkit.kernels
from hcolkit.kernels import (
    VertexCoverInstance,
    algebraic_kernel,
    combinatorial_kernel,
    kernel_size_report,
    read_instance,
    size_bounds,
    read_kernel_result,
    verify_kernel_equivalence,
    write_instance,
    write_kernel_result,
)
from hcolkit.reductions import CnfFormula, find_edge_gadget, find_tight_witness_set, reduce_naesat_to_hcol
from hcolkit.polys import BasisSelection, SparsePoly, poly_basis_select
from hcolkit.reps import kneser_rep, normalize_first_entry, vandermonde_rep


def test_instance_validates_cover():
    with pytest.raises(ValueError):
        VertexCoverInstance(make_complete(3), (0,))
    inst = VertexCoverInstance(make_complete(3), (2, 0))
    assert inst.cover == (0, 2)
    assert inst.k == 2


def test_greedy_cover():
    g = make_petersen()
    cover = greedy_cover_2approx(g)
    assert g.is_vertex_cover(cover)


def test_minimal_instance():
    inst = VertexCoverInstance(Graph(2, [(0, 1)]), (0,))
    res = combinatorial_kernel(inst, 2)
    assert res.graph.n == 2 and res.graph.m == 1
    assert res.provenance == {1: (0,)}


def test_vertex_bound_tight_on_complete_split():
    k, q = 5, 2
    edges = list(combinations(range(k), 2))
    vid = k
    for size in range(1, q + 1):
        for sub in combinations(range(k), size):
            edges.extend((vid, u) for u in sub)
            vid += 1
    inst = VertexCoverInstance(Graph(vid, edges), range(k))
    res = combinatorial_kernel(inst, q)
    assert res.graph.n == k + k + comb(k, 2)


def test_added_neighborhoods_match_provenance():
    # a built kernel is not checked against its provenance at run time
    rng = random.Random(1)
    k3, rep = make_complete(3), k3_rep()
    for _ in range(20):
        inst = random_cover_instance(rng)
        for res in (combinatorial_kernel(inst, 2), algebraic_kernel(inst, k3, rep, 3)):
            for v, trace in res.provenance.items():
                assert res.graph.neighbors(v) == trace
            assert res.graph.is_vertex_cover(res.cover)


def test_combinatorial_equivalence_against_oracle():
    rng = random.Random(2)
    c5 = make_cycle(5)
    for _ in range(50):
        inst = random_cover_instance(rng)
        res = combinatorial_kernel(inst, 2)
        assert verify_kernel_equivalence(inst, res, c5)


def test_equivalence_bipartite_instance_vs_k2():
    # a bipartite instance and its kernel are both K_2-colorable
    g = Graph(6, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4)])
    inst = VertexCoverInstance(g, (0, 1, 2))
    res = combinatorial_kernel(inst, 2)
    k2 = make_complete(2)
    assert find_homomorphism(g, k2) is not None
    assert find_homomorphism(res.graph, k2) is not None
    assert verify_kernel_equivalence(inst, res, k2)


def test_equivalence_planted_clique_obstruction():
    # G contains K_4, so neither G nor its kernel is 3-colorable
    edges = list(combinations(range(4), 2)) + [(0, 4), (1, 4), (2, 5), (3, 5)]
    inst = VertexCoverInstance(Graph(6, edges), (0, 1, 2, 3))
    res = combinatorial_kernel(inst, 3)
    k3 = make_complete(3)
    assert find_homomorphism(inst.graph, k3) is None
    assert find_homomorphism(res.graph, k3) is None
    assert verify_kernel_equivalence(inst, res, k3)


def test_empty_instance_gives_empty_kernel():
    inst = VertexCoverInstance(Graph(0), ())
    res = combinatorial_kernel(inst, 2)
    assert res.graph.n == 0 and res.provenance == {}
    text = write_instance(inst)
    assert read_instance(text).graph.n == 0


def test_idempotence_at_same_q():
    rng = random.Random(3)
    for _ in range(15):
        inst = random_cover_instance(rng)
        res = combinatorial_kernel(inst, 2)
        again = combinatorial_kernel(VertexCoverInstance(res.graph, res.cover), 2)
        assert again.graph.n == res.graph.n


def test_subset_budget_ceiling():
    edges = [(u, 30) for u in range(30)]
    inst = VertexCoverInstance(Graph(31, edges), range(30))
    with pytest.raises(CeilingError):
        combinatorial_kernel(inst, 10, ceilings=Ceilings(subset_budget=100))


def test_subset_budget_charges_each_outside_neighbourhood():
    # outside vertices of degrees 1..5 on a 30-vertex cover enumerate
    # C(deg, <= 3) subsets each, 1 + 3 + 7 + 14 + 25 = 50 in all, far
    # below C(30, <= 3); a budget of exactly 50 admits the input, 49 refuses it
    edges = [(u, 30 + j) for j in range(5) for u in range(6 * j, 7 * j + 1)]
    inst = VertexCoverInstance(Graph(35, edges), range(30))
    assert [inst.graph.degree(30 + j) for j in range(5)] == [1, 2, 3, 4, 5]
    charge = sum(comb(deg, i) for deg in range(1, 6) for i in range(1, 4))
    assert charge == 50 < sum(comb(30, i) for i in range(1, 4))
    res = combinatorial_kernel(inst, 3, ceilings=Ceilings(subset_budget=charge))
    assert res.graph.n == 30 + charge  # the neighbourhoods are disjoint
    with pytest.raises(CeilingError, match="more than 49 cover subsets"):
        combinatorial_kernel(inst, 3, ceilings=Ceilings(subset_budget=charge - 1))


def test_naesat_output_kernelizes_under_default_ceilings():
    # the Petersen reduction of a width-3 formula on 6 variables (each
    # signed triple a clause with probability 1/2): its 83 clause
    # vertices are the only outside vertices, each of degree 3, so the
    # kernels enumerate 7 subsets per clause, not C(694, <= 3)
    rng = random.Random(6)
    clauses = tuple(
        tuple(sign * v for sign, v in zip(signs, triple))
        for triple in combinations(range(1, 7), 3)
        for signs in product((1, -1), repeat=3)
        if rng.random() < 0.5
    )
    h = make_petersen()
    inst = reduce_naesat_to_hcol(CnfFormula(6, clauses), h, find_tight_witness_set(h), find_edge_gadget(h))
    assert (len(clauses), inst.k, inst.graph.n) == (83, 694, 777)
    assert 7 * 83 < Ceilings().subset_budget < sum(comb(694, i) for i in range(1, 4))
    res = combinatorial_kernel(inst, 3)
    assert res.graph.n == 694 + 210
    res = algebraic_kernel(inst, h, petersen_rep(), 3)
    assert (res.stats["basis_kept"], res.stats["basis_dropped"]) == (76, 7)


def petersen_rep():
    return normalize_first_entry(kneser_rep(5, 2, field_make(163, 1), seed=0))


def k3_rep():
    return normalize_first_entry(vandermonde_rep(make_complete(3), field_make(5, 1)))


def test_algebraic_requires_d_at_least_3():
    spec = field_make(79, 1)
    rep = kneser_rep(4, 2, spec, seed=0)
    inst = VertexCoverInstance(Graph(2, [(0, 1)]), (0,))
    with pytest.raises(ValueError):
        algebraic_kernel(inst, make_kneser(4, 2), rep, 2)


def test_algebraic_requires_normalized_rep():
    rep = kneser_rep(5, 2, field_make(163, 1), seed=0)  # raw, first entries free
    inst = VertexCoverInstance(Graph(2, [(0, 1)]), (0,))
    if rep.has_unit_first_entries():
        pytest.skip("seed happened to produce unit first entries")
    with pytest.raises(ValueError):
        algebraic_kernel(inst, make_petersen(), rep, 3)


def test_algebraic_subset_of_combinatorial_and_equivalent():
    rng = random.Random(4)
    target = make_complete(3)
    rep = k3_rep()
    for _ in range(25):
        inst = random_cover_instance(rng, n_max=12, k_max=7)
        res = algebraic_kernel(inst, target, rep, 3)
        base = combinatorial_kernel(inst, 3)
        assert set(res.provenance.values()) <= set(base.provenance.values())
        assert res.stats["basis_kept"] <= comb(inst.k * 2, 2)
        assert verify_kernel_equivalence(inst, res, target)


def test_algebraic_dropped_polys_reconstruct():
    rng = random.Random(5)
    target = make_complete(3)
    rep = k3_rep()
    reconstructed = 0
    for _ in range(20):
        inst = random_cover_instance(rng, n_max=12, k_max=7)
        res = algebraic_kernel(inst, target, rep, 3)
        for dropped, _ in res.basis.certificates.items():
            assert res.basis.reconstruct(res.polys, dropped) == res.polys[dropped]
            reconstructed += 1
    assert reconstructed > 0, "sweep never exercised a dropped polynomial"


def full_trace_instance(k):
    """A k-vertex cover and one outside vertex adjacent to all of it, so
    every subset of the cover is a realized trace."""
    return VertexCoverInstance(Graph(k + 1, [(u, k) for u in range(k)]), range(k))


def test_algebraic_kernel_builds_polys_on_first_read(monkeypatch):
    calls = {"det_poly": 0, "SparsePoly": 0}
    real_det_poly = hcolkit.kernels.det_poly
    real_post_init = SparsePoly.__post_init__

    def counting_det_poly(*args):
        calls["det_poly"] += 1
        return real_det_poly(*args)

    def counting_post_init(self):
        calls["SparsePoly"] += 1
        real_post_init(self)

    monkeypatch.setattr(hcolkit.kernels, "det_poly", counting_det_poly)
    monkeypatch.setattr(SparsePoly, "__post_init__", counting_post_init)
    res = algebraic_kernel(full_trace_instance(6), make_complete(3), k3_rep(), 3)
    assert calls == {"det_poly": 0, "SparsePoly": 0}
    # all C(6, 3) traces are realized, and the boundary rank C(5, 2) is reached
    assert len(res.polys) == comb(6, 3) and calls["det_poly"] == comb(6, 3)
    assert res.stats["basis_kept"] == comb(5, 2)
    for dropped in res.basis.certificates:
        assert res.basis.reconstruct(res.polys, dropped) == res.polys[dropped]


def test_algebraic_kernel_builds_certificates_on_first_read():
    for rep in (k3_rep(), normalize_first_entry(vandermonde_rep(make_complete(3), field_make(2, 3)))):
        res = algebraic_kernel(full_trace_instance(6), make_complete(3), rep, 3)
        write_kernel_result(res)
        # selecting the basis builds neither the coordinates nor their field elements
        assert "coordinates" not in res.basis.__dict__
        assert "certificates" not in res.basis.__dict__
        certificates = res.basis.certificates
        assert certificates == poly_basis_select(res.polys).certificates
        assert res.stats["basis_dropped"] == len(certificates) == comb(6, 3) - comb(5, 2)


def test_algebraic_kernel_refuses_basis_above_boundary_rank(monkeypatch):
    def keep_all(traces, spec):
        return BasisSelection(kept=tuple(range(len(traces))), spec=spec, rows=tuple)

    monkeypatch.setattr(hcolkit.kernels, "boundary_basis_select", keep_all)
    with pytest.raises(InvariantViolation):
        algebraic_kernel(full_trace_instance(5), make_complete(3), k3_rep(), 3)


def test_algebraic_petersen_equivalence():
    rng = random.Random(6)
    target = make_petersen()
    rep = petersen_rep()
    for _ in range(10):
        inst = random_cover_instance(rng, n_max=10, k_max=6)
        res = algebraic_kernel(inst, target, rep, 3)
        assert verify_kernel_equivalence(inst, res, target)


def test_algebraic_over_cubic_extension_field():
    # an 18-vertex orthogonality target forces GF(27) as the working field,
    # driving determinant polynomials and basis selection through a degree-3
    # extension
    from hcolkit.reps import ortho_graph

    og = ortho_graph(field_make(3, 1), 3)
    assert og.graph.n == 18
    rep = normalize_first_entry(og)
    assert rep.spec.order == 27
    rng = random.Random(78)
    dropped_seen = 0
    for _ in range(5):
        n, k = 11, 6
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u < k or v < k) and rng.random() < 0.5
        ]
        inst = VertexCoverInstance(Graph(n, edges), range(k))
        res = algebraic_kernel(inst, og.graph, rep, 3)
        assert verify_kernel_equivalence(inst, res, og.graph)
        for dropped in res.basis.certificates:
            assert res.basis.reconstruct(res.polys, dropped) == res.polys[dropped]
            dropped_seen += 1
    assert dropped_seen > 0


def test_degenerate_no_outside_vertices():
    target = make_complete(3)
    inst = VertexCoverInstance(make_complete(3), (0, 1, 2))
    res = algebraic_kernel(inst, target, k3_rep(), 3)
    assert res.graph.n == 3
    assert res.stats["basis_kept"] == 0 and res.stats["basis_dropped"] == 0


def test_kernel_size_report_closed_forms():
    inst = VertexCoverInstance(
        Graph(11, [(i, 10) for i in range(10)]), range(10)
    )
    res = combinatorial_kernel(inst, 2)
    report = kernel_size_report(res)
    assert report["vertex_bound"] == 10 + 10 + 45
    assert report["bit_size_estimate"] == comb(10, 2) + 55
    assert report["ratio"] <= 1
    assert report["within_bound"]


def test_kernel_size_report_empty_cover():
    inst = VertexCoverInstance(Graph(0), ())
    res = combinatorial_kernel(inst, 2)
    report = kernel_size_report(res)
    assert report["vertices"] == 0 and report["vertex_bound"] == 0


@pytest.mark.parametrize("field", [(7, 1), (2, 3)], ids=("gf7", "gf8"))
def test_algebraic_kernel_filters_the_combinatorial_traces(field):
    # the algebraic kernel is the combinatorial kernel at q = d with the
    # size-d traces outside the basis removed, in the same order
    rng = random.Random(31)
    spec = field_make(*field)
    dropped = 0
    for trial in range(30):
        d = 3 + trial % 2
        target = make_complete(d)
        rep = vandermonde_rep(target, spec)
        inst = random_cover_instance(rng, n_max=16, k_max=10)
        res = algebraic_kernel(inst, target, rep, d)
        base = combinatorial_kernel(inst, d)
        traces = [t for _, t in sorted(base.provenance.items())]
        assert res.basis_traces == tuple(t for t in traces if len(t) == d)
        kept = {res.basis_traces[i] for i in res.basis.kept}
        filtered = [t for t in traces if len(t) < d or t in kept]
        assert res.provenance == dict(enumerate(filtered, start=inst.k))
        dropped += len(traces) - len(filtered)
        for kernel, mode in ((res, "algebraic"), (base, "combinatorial")):
            report = kernel_size_report(kernel)
            bounds = size_bounds(mode, inst.k, d, kernel.graph.n)
            assert (report["mode"], report["k"], report["exponent"]) == (mode, inst.k, d)
            assert report["vertex_bound"] == bounds["vertex_bound"]
            assert report["bit_size_estimate"] == bounds["bit_size_estimate"]
    assert dropped > 0, "no trial dropped a size-d trace"


def test_kernel_size_report_of_a_kernel_read_back():
    inst = full_trace_instance(5)
    for res in (combinatorial_kernel(inst, 2), algebraic_kernel(inst, make_complete(3), k3_rep(), 3)):
        back = read_kernel_result(write_kernel_result(res))
        assert kernel_size_report(back) == kernel_size_report(res)
    # the report's own check catches a kernel that outgrew its bound (a
    # file saying so is refused where it is read)
    res = combinatorial_kernel(full_trace_instance(4), 2)
    res.stats["vertex_bound"] = 4
    with pytest.raises(InvariantViolation):
        kernel_size_report(res)


def test_instance_file_round_trip():
    rng = random.Random(7)
    inst = random_cover_instance(rng)
    text = write_instance(inst)
    back = read_instance(text)
    assert back.graph == inst.graph and back.cover == inst.cover
    with pytest.raises(ValueError):
        read_instance("1 0\n")  # missing X line


def test_kernel_result_file_round_trip():
    rng = random.Random(8)
    inst = random_cover_instance(rng)
    res = combinatorial_kernel(inst, 2)
    text = write_kernel_result(res)
    back = read_kernel_result(text)
    assert back.graph == res.graph
    assert back.provenance == res.provenance
    assert back.stats == res.stats


@pytest.mark.parametrize(
    "tail, message",
    [
        ("", "missing its STATS line"),
        ("STATS [1]\n", "STATS must be a JSON object"),
        ("S\n<stats>", "S line needs a vertex of the graph"),
        ("S 99 0\n<stats>", "S line needs a vertex of the graph"),
        # a file that disagrees with itself is refused input, not a broken invariant
        ("X\n<stats>", "cover lost"),
        ("S 4 1\n<stats>", "added vertex 4 has neighborhood"),
        # and so is one without the STATS keys kernel_size_report reads
        ("STATS {}\n", "needs a mode"),
        ('STATS {"mode":"combinatorial","d":3}\n', "needs an int 'k'"),
        ('STATS {"mode":"combinatorial","k":4,"d":3}\n', "needs an int 'q'"),
        ('STATS {"mode":"algebraic","k":4,"d":3}\n', "needs an int 'vertex_bound'"),
        ('STATS {"mode":"algebraic","k":4,"d":3,"vertex_bound":"15"}\n', "needs an int 'vertex_bound'"),
        ('STATS {"mode":"algebraic","k":4,"d":3,"vertex_bound":15}\n', "needs an int 'bit_size_estimate'"),
        # and so is one whose kernel outgrew the bound it states
        (
            'STATS {"mode":"combinatorial","k":4,"q":2,"vertex_bound":13,"bit_size_estimate":16}\n',
            "kernel file has 14 vertices, above its STATS vertex_bound 13",
        ),
    ],
    ids=("no-stats", "stats-not-object", "bare-s", "s-outside-graph", "no-cover",
         "s-trace-differs", "empty-stats", "no-k", "no-q", "no-vertex-bound",
         "string-vertex-bound", "no-bit-size", "above-vertex-bound"),
)
def test_kernel_result_file_refusals(tail, message):
    # the lines after the graph, cover and provenance of a kernel file,
    # <stats> its STATS line; an X or S line of `tail` takes the place of
    # the file's line for the same vertex, as a repeated line is refused
    text = write_kernel_result(combinatorial_kernel(full_trace_instance(4), 2))
    head, stats = text.split("STATS ")
    tail = tail.replace("<stats>", "STATS " + stats)

    def key(line):
        tokens = line.split()
        return tokens[:2] if tokens[0] == "S" else tokens[:1]

    replaced = [key(line) for line in tail.splitlines()]
    kept = [line for line in head.splitlines(keepends=True) if key(line) not in replaced]
    with pytest.raises(ValueError, match=message):
        read_kernel_result("".join(kept) + tail)

