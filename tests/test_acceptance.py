"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS line (visible with `pytest -s` or
`pytest -v tests/test_acceptance.py`); a failing criterion fails its
test.  Runtime-limited criteria measure wall time and assert the limit.
"""

import random
import time
from math import comb, log2

from conftest import leibniz_determinant, petersen_orthogonal_rep, random_cover_instance
from hcolkit.cli import main as cli_main
from hcolkit.gf import field_make, is_prime, matrix_rank
from hcolkit.graphs import (
    Graph,
    make_complete,
    make_cycle,
    make_empty,
    make_kneser,
    make_path,
    make_petersen,
    make_random,
    write_graph,
)
from hcolkit.hom import find_homomorphism
from hcolkit.hom import compute_core
from hcolkit.kernels import (
    VertexCoverInstance,
    algebraic_kernel,
    combinatorial_kernel,
    verify_kernel_equivalence,
    write_instance,
)
from hcolkit.polys import det_poly
from hcolkit.reductions import (
    CnfFormula,
    find_edge_gadget,
    find_tight_witness_set,
    nae_sat_brute,
    naesat_cover_size,
    reduce_list_to_plain,
    reduce_naesat_to_hcol,
    verify_edge_gadget,
    write_dimacs,
)
from hcolkit.reps import (
    as_independent,
    check_faithful,
    kneser_field_threshold,
    kneser_rep,
    kneser_support_vectors,
    normalize_first_entry,
    ortho_graph,
    vandermonde_rep,
)
from hcolkit.witness import clique_number, max_degree, witness_number


def _report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:2d}: PASS - {message}")


def smallest_prime_at_least(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def test_criterion_01_witness_regression_table():
    started = time.perf_counter()
    for m in range(1, 7):
        assert witness_number(make_complete(m)).q == m
    assert witness_number(make_cycle(3)).q == 3
    assert witness_number(make_cycle(6)).q == 3
    for m in (4, 5, 7, 8, 9):
        assert witness_number(make_cycle(m)).q == 2
    for m, r in ((4, 2), (5, 2), (6, 2), (7, 3)):
        assert witness_number(make_kneser(m, r)).q == m - 2 * r + 2
    for n in (1, 4, 7):
        assert witness_number(make_empty(n)).q == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"regression table took {elapsed:.1f}s"
    _report(1, f"witness-number regression table exact in {elapsed:.2f}s (< 10s)")


def test_criterion_02_sandwich_and_core_monotonicity():
    rng = random.Random(2001)
    violations = 0
    for _ in range(200):
        g = make_random(rng.randrange(1, 11), rng.randrange(2**32))
        q = witness_number(g).q
        if not clique_number(g) <= q <= max_degree(g) + 1:
            violations += 1
    assert violations == 0
    core_rng = random.Random(2002)
    for _ in range(100):
        g = make_random(core_rng.randrange(1, 10), core_rng.randrange(2**32))
        assert witness_number(compute_core(g)).q <= witness_number(g).q
    _report(2, "sandwich bound 200/200 and core monotonicity 100/100, zero violations")


def test_criterion_03_combinatorial_kernel_equivalence():
    started = time.perf_counter()
    targets = {
        "K3": make_complete(3),
        "C5": make_cycle(5),
        "C7": make_cycle(7),
        "K(4,2)": make_kneser(4, 2),
    }
    for name, target in targets.items():
        q = witness_number(target).q
        rng = random.Random(3000 + target.n * 31 + q)
        passed = 0
        for _ in range(100):
            inst = random_cover_instance(rng, n_max=14, k_max=14)
            result = combinatorial_kernel(inst, q)
            assert verify_kernel_equivalence(inst, result, target), name
            k = inst.k
            assert result.graph.n <= k + sum(comb(k, i) for i in range(1, q + 1))
            assert result.stats["bit_size_estimate"] == comb(k, 2) + sum(
                comb(k, i) for i in range(1, q + 1)
            )
            passed += 1
        assert passed == 100
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"combinatorial sweep took {elapsed:.1f}s"
    _report(3, f"combinatorial kernels 400/400 equivalent with exact bounds in {elapsed:.1f}s (< 2min)")


def test_criterion_04_algebraic_kernel_equivalence():
    started = time.perf_counter()
    k3 = make_complete(3)
    petersen_spec = field_make(smallest_prime_at_least(kneser_field_threshold(5, 2)), 1)
    petersen_rep = normalize_first_entry(kneser_rep(5, 2, petersen_spec, seed=0))
    ortho = ortho_graph(field_make(2, 1), 3)
    setups = [
        ("K3+vandermonde", k3, normalize_first_entry(vandermonde_rep(k3, field_make(5, 1)))),
        ("Petersen+kneser", petersen_rep.graph, petersen_rep),
        ("ortho(GF(2),3)+identity", ortho.graph, normalize_first_entry(as_independent(ortho))),
    ]
    reconstructions = 0
    for index, (name, target, rep) in enumerate(setups):
        rng = random.Random(4000 + index)
        passed = 0
        for _ in range(50):
            inst = random_cover_instance(rng, n_max=12, k_max=12)
            result = algebraic_kernel(inst, target, rep, 3)
            base = combinatorial_kernel(inst, 3)
            # containment: the algebraic output keeps a subset of the traces
            assert set(result.provenance.values()) <= set(base.provenance.values()), name
            assert result.stats["basis_kept"] <= comb(inst.k * 2, 2), name
            for dropped in result.basis.certificates:
                assert result.basis.reconstruct(result.polys, dropped) == result.polys[dropped]
                reconstructions += 1
            assert verify_kernel_equivalence(inst, result, target), name
            passed += 1
        assert passed == 50, name
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"algebraic sweep took {elapsed:.1f}s"
    _report(
        4,
        f"algebraic kernels 150/150 equivalent, {reconstructions} dropped "
        f"polynomials reconstructed exactly, in {elapsed:.1f}s (< 5min)",
    )


def _vandermonde_fixture_graphs():
    graphs = [make_complete(m) for m in (1, 2, 3, 4, 5)]
    graphs += [make_cycle(m) for m in (3, 4, 5, 6, 7, 8)]
    graphs += [make_path(m) for m in (2, 5, 8)]
    graphs += [make_kneser(4, 2), make_petersen()]
    graphs += [make_random(6, 1), make_random(8, 2), make_random(10, 3), make_empty(5)]
    return graphs


def test_criterion_05_representation_suite():
    fixture = _vandermonde_fixture_graphs()
    assert len(fixture) == 20
    for g in fixture:
        spec = field_make(smallest_prime_at_least(max(2, g.n)), 1)
        rep = vandermonde_rep(g, spec)
        assert check_faithful(rep).ok
    # normalization across seeds: all outputs faithful with unit first entries
    gf3 = field_make(3, 1)
    c4 = make_cycle(4)
    base = None
    from hcolkit.reps import Representation

    base = Representation(
        c4,
        gf3,
        2,
        (
            (gf3.one, gf3.zero),
            (gf3.zero, gf3.one),
            (gf3.one, gf3.zero),
            (gf3.zero, gf3.one),
        ),
        "independent",
    )
    for seed in range(1, 11):
        out = normalize_first_entry(base, seed=seed)
        assert out.has_unit_first_entries() and check_faithful(out).ok
    # kneser representation of the petersen graph
    spec = field_make(smallest_prime_at_least(kneser_field_threshold(5, 2)), 1)
    rep = kneser_rep(5, 2, spec, seed=0)
    assert rep.d == 3 and check_faithful(rep).ok
    vectors, graph = kneser_support_vectors(5, 2, spec), make_kneser(5, 2)
    dims = [matrix_rank(spec, [vectors[c] for c in graph.neighbors(b)]) for b in range(graph.n)]
    assert all(d <= 5 - 2 * 2 + 1 for d in dims)
    # the classical integer Petersen vectors over both primes
    for p in (17, 31):
        fixture_rep = petersen_orthogonal_rep(field_make(p, 1))
        assert check_faithful(fixture_rep).ok
    _report(5, "vandermonde x20, normalization seeds 1..10, kneser d=3, petersen fixture over GF(17)/GF(31)")


def test_criterion_06_det_poly_evaluation_oracle():
    spec = field_make(11, 1)
    for d in (2, 3, 4):
        rng = random.Random(600 + d)
        vertices = sorted(rng.sample(range(10), d))
        poly = det_poly(vertices, d, spec)
        for _ in range(20):
            vectors = {
                u: [spec.one]
                + [spec.from_index(rng.randrange(spec.order)) for _ in range(d - 1)]
                for u in vertices
            }
            matrix = [[vectors[u][i] for u in vertices] for i in range(d)]
            assert poly.evaluate(vectors) == leibniz_determinant(matrix)
    _report(6, "determinant polynomials match numeric determinants, 20 points per d in {2,3,4}")


def _random_formula(rng, q, n_max):
    n = rng.randrange(1, n_max + 1)
    clauses = tuple(
        tuple(rng.choice((1, -1)) * rng.randrange(1, n + 1) for _ in range(q))
        for _ in range(rng.randrange(1, 5))
    )
    return CnfFormula(n, clauses)


def test_criterion_07_reduction_equivalence():
    k4 = make_complete(4)
    gadget4 = find_edge_gadget(k4).found
    tight4 = find_tight_witness_set(k4)
    rng = random.Random(700)
    for _ in range(20):
        phi = _random_formula(rng, 4, 3)
        inst = reduce_naesat_to_hcol(phi, k4, tight4, gadget4)
        assert inst.k == naesat_cover_size(phi, k4, 4, gadget4)
        assert nae_sat_brute(phi) == (find_homomorphism(inst.graph, k4) is not None)

    k62 = make_kneser(6, 2)
    gadget62 = find_edge_gadget(k62).found
    tight62 = find_tight_witness_set(k62)
    assert len(tight62) == 4
    rng = random.Random(701)
    for _ in range(10):
        phi = _random_formula(rng, 4, 3)
        inst = reduce_naesat_to_hcol(phi, k62, tight62, gadget62)
        assert inst.k == naesat_cover_size(phi, k62, 4, gadget62)
        assert nae_sat_brute(phi) == (find_homomorphism(inst.graph, k62) is not None)

    c5 = make_cycle(5)
    gadget5 = find_edge_gadget(c5).found
    assert gadget5.gadget.n == 4  # the 4-vertex path
    rng = random.Random(702)
    for _ in range(30):
        n = rng.randrange(1, 9)
        g = make_random(n, rng.randrange(2**32))
        lists = {
            v: tuple(sorted(rng.sample(range(5), rng.randrange(1, 6))))
            for v in range(n)
        }
        out = reduce_list_to_plain(g, lists, c5, gadget5)
        want = find_homomorphism(g, c5, lists=lists) is not None
        got = find_homomorphism(out, c5) is not None
        assert want == got
    _report(7, "NAE-SAT 20/20 vs K4 and 10/10 vs K(6,2) with exact |X|; list reduction 30/30 vs C5")


def test_criterion_08_edge_gadget_fixtures():
    for m in (1, 2, 3):
        assert verify_edge_gadget(make_cycle(2 * m + 1), make_path(2 * m), 0, 2 * m - 1)
    for m in (3, 4, 5):
        assert verify_edge_gadget(make_complete(m), make_complete(2), 0, 1)
    assert not verify_edge_gadget(make_cycle(5), make_complete(2), 0, 1)
    _report(8, "even-path and single-edge gadget fixtures verify; C5 single-edge rejected")


def test_criterion_09_random_graph_sweep():
    started = time.perf_counter()
    n, trials = 32, 20
    threshold = 2 * log2(n)
    qs = []
    for trial in range(trials):
        g = make_random(n, 900_000 + trial)
        qs.append(witness_number(g).q)
    fraction = sum(1 for q in qs if q <= threshold) / trials
    elapsed = time.perf_counter() - started
    assert fraction >= 0.9, f"fraction {fraction} below 0.9 (qs={qs})"
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"
    _report(
        9,
        f"G(32,1/2) sweep: fraction q <= {threshold:.1f} is {fraction:.2f} "
        f">= 0.9 in {elapsed:.1f}s (< 5min); empirical mean q = {sum(qs)/len(qs):.2f}",
    )


def test_criterion_10_command_determinism(tmp_path, capsys):
    graph_path = str(tmp_path / "p.g")
    open(graph_path, "w").write(write_graph(make_petersen()))
    inst = VertexCoverInstance(
        Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]), (0, 1, 2)
    )
    inst_path = str(tmp_path / "inst.g")
    open(inst_path, "w").write(write_instance(inst))
    cnf_path = str(tmp_path / "phi.cnf")
    open(cnf_path, "w").write(write_dimacs(CnfFormula(2, ((1, 2, -1, -2),))))
    k4_path = str(tmp_path / "k4.g")
    open(k4_path, "w").write(write_graph(make_complete(4)))
    c5_path = str(tmp_path / "c5.g")
    open(c5_path, "w").write(write_graph(make_cycle(5)))

    commands = [
        ["witness", graph_path],
        ["--format", "json", "witness", graph_path],
        ["--seed", "3", "kernelize", inst_path, "--target", c5_path,
         "--mode", "combinatorial", "--q", "2", "--verify"],
        ["--seed", "3", "represent", "--family", "kneser", "--m", "4", "--r", "2"],
        ["--seed", "3", "represent", "--family", "vandermonde", "--graph", c5_path,
         "--field", "7"],
        ["--seed", "3", "reduce", "--from", "nae-sat", "--cnf", cnf_path,
         "--target", k4_path],
        ["--seed", "3", "sweep", "--experiment", "random-q", "--sizes", "10,12",
         "--trials", "3"],
        ["--seed", "3", "sweep", "--experiment", "kernel-growth", "--ks", "4,6",
         "--q", "2", "--trials", "2"],
    ]
    for argv in commands:
        code1 = cli_main(list(argv))
        first = capsys.readouterr().out
        code2 = cli_main(list(argv))
        second = capsys.readouterr().out
        assert code1 == code2 == 0, argv
        assert first == second, f"non-deterministic output for {argv}"
    _report(10, f"{len(commands)} command invocations re-run byte-identical")
