import random
from collections import Counter
from dataclasses import replace

import pytest

from conftest import (
    PETERSEN_FIXTURE_VECTORS,
    adjacency_rank_matrix,
    petersen_fixture_graph,
    petersen_orthogonal_rep,
)
from hcolkit.config import Ceilings
from hcolkit.errors import CeilingError
from hcolkit.gf import (
    SpanBasis,
    field_extension_above,
    field_make,
    greedy_basis,
    int_vector,
    is_prime,
    matrix_rank,
)
from hcolkit.graphs import (
    Graph,
    kneser_vertex_subsets,
    make_complete,
    make_cycle,
    make_kneser,
    make_path,
    make_petersen,
    make_random,
)
from hcolkit.reps import (
    _neighborhood_ranks,
    Representation,
    check_faithful,
    inner_product,
    kneser_field_threshold,
    kneser_rep,
    kneser_support_vectors,
    normalize_first_entry,
    ortho_graph,
    rep_from_json,
    rep_to_json,
    vandermonde_rep,
)
from hcolkit.witness import witness_number


def smallest_prime_at_least(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def prime_field_for(g: Graph):
    return field_make(smallest_prime_at_least(max(2, g.n)), 1)


def test_vandermonde_known_cases():
    rep = vandermonde_rep(make_cycle(5), field_make(7, 1))
    assert rep.d == 3 and check_faithful(rep).ok
    rep = vandermonde_rep(make_complete(2), field_make(2, 1))
    assert rep.d == 2
    assert [tuple(x.to_index() for x in v) for v in rep.vectors] == [(1, 0), (1, 1)]
    rep = vandermonde_rep(make_petersen(), field_make(11, 1))
    assert rep.d == 4 and check_faithful(rep).ok


def test_vandermonde_small_field_rejected():
    with pytest.raises(ValueError):
        vandermonde_rep(make_petersen(), field_make(7, 1))


def test_vandermonde_faithful_across_families():
    graphs = [
        make_complete(m) for m in range(1, 5)
    ] + [make_cycle(m) for m in (3, 5, 6, 8)] + [
        make_path(5),
        make_kneser(4, 2),
        make_random(7, 4),
        make_random(9, 8),
    ]
    for g in graphs:
        rep = vandermonde_rep(g, prime_field_for(g))
        assert check_faithful(rep).ok
        assert rep.has_unit_first_entries()


def test_faithfulness_negative_cases():
    gf7 = field_make(7, 1)
    p3 = Graph(3, [(0, 1), (1, 2)])
    # middle vector inside the neighbors' span: independence broken
    broken = Representation(
        p3,
        gf7,
        2,
        (
            (gf7.one, gf7.zero),
            (gf7.zero, gf7.one),
            (gf7.one, gf7.one),
        ),
        "independent",
    )
    report = check_faithful(broken)
    assert not report.ok and report.counterexample is not None
    # orthogonal kind: self-orthogonal vector rejected with its vertex
    gf2 = field_make(2, 1)
    self_orth = Representation(
        Graph(1),
        gf2,
        2,
        (((gf2.one), (gf2.one)),),
        "orthogonal",
    )
    report = check_faithful(self_orth)
    assert not report.ok and report.counterexample[0] == report.counterexample[1]


def test_adjacent_pair_span_membership_is_trivial():
    # membership in the neighborhood span always holds for neighbors, so a
    # faithful check never fails on an edge by that direction alone
    gf7 = field_make(7, 1)
    edge = Graph(2, [(0, 1)])
    rep = Representation(
        edge, gf7, 2, ((gf7.one, gf7.zero), (gf7.zero, gf7.one)), "independent"
    )
    assert check_faithful(rep).ok


def test_normalize_reaches_extension_when_field_is_tight():
    gf2 = field_make(2, 1)
    p3 = Graph(3, [(0, 1), (1, 2)])
    rep = Representation(
        p3,
        gf2,
        2,
        ((gf2.zero, gf2.one), (gf2.one, gf2.zero), (gf2.zero, gf2.one)),
        "independent",
    )
    assert check_faithful(rep).ok
    out = normalize_first_entry(rep)
    assert out.spec.order == 4
    assert out.has_unit_first_entries() and check_faithful(out).ok


def test_normalize_identity_when_already_unit():
    rep = vandermonde_rep(make_cycle(5), field_make(7, 1))
    out = normalize_first_entry(rep)
    assert out.spec == rep.spec
    assert out.vectors == rep.vectors  # y = e_1 accepted, A = identity


def test_normalize_across_seeds():
    gf3 = field_make(3, 1)
    c4 = make_cycle(4)
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
    assert check_faithful(base).ok
    for seed in range(1, 11):
        out = normalize_first_entry(base, seed=seed)
        assert out.has_unit_first_entries()
        assert check_faithful(out).ok


def test_kneser_rep_dimensions_and_faithfulness():
    for m, r in ((4, 2), (5, 2), (6, 2), (7, 3)):
        spec = field_make(smallest_prime_at_least(kneser_field_threshold(m, r)), 1)
        rep = kneser_rep(m, r, spec, seed=0)
        assert rep.d == m - 2 * r + 2
        assert check_faithful(rep).ok


def test_kneser_field_threshold_matches_pair_count():
    # the closed form against counting vertices and ordered non-adjacent
    # pairs (diagonal included) of the built graph
    for m in range(2, 11):
        for r in range(1, m // 2 + 1):
            graph = make_kneser(m, r)
            count = graph.n + sum(not graph.has_edge(a, b) for a in range(graph.n) for b in range(graph.n))
            t = m - 2 * r + 2
            assert kneser_field_threshold(m, r) == max((m - t) * (count + 1) + 1, m), (m, r)
    for m, r in ((4, 0), (3, 2), (1, 1)):
        with pytest.raises(ValueError, match=rf"^Kneser graph needs m >= 2r >= 2, got m={m}, r={r}$"):
            kneser_field_threshold(m, r)


def test_kneser_bipartite_case_is_two_dimensional():
    # K(4, 2) is a perfect matching, hence bipartite, hence 2-dimensional
    spec = field_make(smallest_prime_at_least(kneser_field_threshold(4, 2)), 1)
    rep = kneser_rep(4, 2, spec, seed=0)
    assert rep.d == 2


def test_kneser_small_field_rejected():
    with pytest.raises(ValueError):
        kneser_rep(5, 2, field_make(7, 1))


def test_kneser_rep_over_extension_field():
    # GF(3^4) has order 81, above the K(4,2) threshold
    spec = field_make(3, 4)
    assert spec.order >= kneser_field_threshold(4, 2)
    rep = kneser_rep(4, 2, spec, seed=2)
    assert rep.d == 2 and check_faithful(rep).ok


def test_vandermonde_over_extension_field():
    spec = field_make(2, 3)
    g = make_random(8, 21)
    rep = vandermonde_rep(g, spec)
    assert check_faithful(rep).ok and rep.has_unit_first_entries()


def neighborhood_dims(spec, graph, vectors):
    return tuple(matrix_rank(spec, [vectors[c] for c in graph.neighbors(b)]) for b in range(graph.n))


def test_kneser_support_vectors_support_and_dims():
    spec = field_make(163, 1)
    graph = make_kneser(5, 2)
    vectors = kneser_support_vectors(5, 2, spec)
    subsets = [tuple(int(c) for c in label.strip("{}").split(",")) for label in
               (graph.labels[i] for i in range(graph.n))]
    for vec, subset in zip(vectors, subsets):
        support = {i + 1 for i, x in enumerate(vec) if not x.is_zero()}
        assert support == set(subset)
        # the constraint matrix kills the vector: row of ones, row of points
        assert sum(vec, spec.zero) == spec.zero
    assert all(d <= 5 - 2 * 2 + 1 for d in neighborhood_dims(spec, graph, vectors))


def reference_support_vectors(m, r, spec):
    """The original nullspace solve: on each r-subset, first entry 1 and
    the others minus the coordinates of the first support column over the
    remaining r - 1 columns of the rows alpha^i (i <= r - 2)."""
    alphas = [spec.from_index(j) for j in range(m)]
    rows = [[alpha**i for alpha in alphas] for i in range(r - 1)]
    vectors = []
    for subset in kneser_vertex_subsets(m, r):
        cols = [c - 1 for c in subset]
        columns = [[row[c] for row in rows] for c in cols[1:] + cols[:1]]
        coords = greedy_basis(spec, map(int_vector, columns))[1].get(r - 1, {})
        solution = [spec.one] + [-spec.from_index(coords.get(j, 0)) for j in range(r - 1)]
        full = [spec.zero] * m
        for c, val in zip(cols, solution):
            full[c] = val
        vectors.append(tuple(full))
    return tuple(vectors)


KNESER_SHAPES = [(m, r) for m in range(2, 9) for r in range(1, m // 2 + 1)] + [(10, 2), (10, 5)]


@pytest.mark.parametrize("p, k", [(2, 8), (3, 5), (7, 3), (163, 1), (1009, 1)])
def test_kneser_closed_forms_match_the_nullspace_solve_and_the_span_ranks(p, k):
    spec = field_make(p, k)
    for m, r in KNESER_SHAPES:
        graph = make_kneser(m, r)
        vectors = kneser_support_vectors(m, r, spec)
        assert vectors == reference_support_vectors(m, r, spec), (m, r)
        # no entry on the subset is zero
        for vec, subset in zip(vectors, kneser_vertex_subsets(m, r)):
            assert {c for c, x in enumerate(vec, 1) if not x.is_zero()} == set(subset)
        # every neighborhood spans the whole kernel, of dimension t - 1, and
        # the unprojected vectors are already faithful
        t = m - 2 * r + 2
        assert neighborhood_dims(spec, graph, vectors) == (t - 1,) * graph.n, (m, r)
        assert _neighborhood_ranks(spec, graph, vectors) == ((t - 1,) * graph.n, None), (m, r)


def test_ortho_graph_gf2_dim3():
    rep = ortho_graph(field_make(2, 1), 3)
    # exactly the odd-support vectors of GF(2)^3
    assert rep.graph.n == 4
    assert check_faithful(rep).ok
    assert check_faithful(replace(rep, kind="independent")).ok
    assert witness_number(rep.graph).q <= 3


def test_normalization_takes_an_orthogonal_representation():
    rep = ortho_graph(field_make(3, 1), 3, projective=True)
    out = normalize_first_entry(rep)
    assert out.kind == "independent" and out.has_unit_first_entries()
    assert out.spec.order > rep.graph.n and out.graph == rep.graph
    assert check_faithful(out).ok


def test_normalization_keeps_a_kernel_ready_representation():
    ready = normalize_first_entry(kneser_rep(5, 2, field_make(163, 1), seed=0))
    assert normalize_first_entry(ready, seed=3) == ready
    # an orthogonal one, ready as it is: (1, 1) and (1, -1) over GF(5)
    spec = field_make(5, 1)
    one = spec.one
    rep = Representation(Graph(2, [(0, 1)]), spec, 2, ((one, one), (one, -one)), "orthogonal")
    assert check_faithful(rep).ok
    out = normalize_first_entry(rep)
    assert (out.spec, out.vectors, out.kind) == (rep.spec, rep.vectors, "independent")


@pytest.mark.parametrize("drop", [True, False], ids=["orthogonal-pair-dropped", "pair-added"])
def test_orthogonal_counterexample_is_the_first_wrong_pair(drop):
    rep = ortho_graph(field_make(3, 1), 3, projective=True)
    assert check_faithful(rep).ok
    g = rep.graph
    # toggle the first edge (drop) or the first non-edge of the true graph
    u, v = next((u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v) == drop)
    report = check_faithful(replace(rep, graph=Graph(g.n, set(g.edges()) ^ {(u, v)})))
    # the pair, with whether the changed graph makes it an edge
    assert not report.ok and report.counterexample == (u, v, not drop)


def test_ortho_graph_projective_reduction():
    full = ortho_graph(field_make(3, 1), 2)
    quotient = ortho_graph(field_make(3, 1), 2, projective=True)
    assert quotient.graph.n * 2 == full.graph.n  # scalar classes of size p-1 = 2
    assert check_faithful(quotient).ok


def reference_projective_vectors(spec, d):
    """The scalar-class representatives of the non-self-orthogonal vectors
    of F^d by the original rule: enumerate the vectors, and keep one
    unless a vector with the same least scaling was kept before it."""
    kept, seen = [], set()
    for idx in range(spec.order**d):
        vec = tuple(spec.from_index(idx // spec.order**i % spec.order) for i in range(d))
        if inner_product(vec, vec).is_zero():
            continue
        cls = min(tuple((s * x).to_index() for x in vec) for s in map(spec.from_index, range(1, spec.order)))
        if cls not in seen:
            seen.add(cls)
            kept.append(vec)
    return kept


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1)])
@pytest.mark.parametrize("d", [2, 3])
def test_ortho_graph_projective_keeps_the_first_vector_of_each_class(p, m, d):
    spec = field_make(p, m)
    assert list(ortho_graph(spec, d, projective=True).vectors) == reference_projective_vectors(spec, d)


def reference_completion(spec, first_row, d):
    """Greedy completion: the first row, then each standard basis vector
    in index order that is not in the span of the rows before it."""
    rows, basis = [list(first_row)], SpanBasis(spec)
    basis.add(first_row)
    for i in range(d):
        e = [spec.one if j == i else spec.zero for j in range(d)]
        if basis.add(e):
            rows.append(e)
        if len(rows) == d:
            break
    return rows


def reference_normalize(rep, seed):
    """The original normalization: the same choice of y, then the greedy
    completion of y to an invertible matrix applied to every vector, each
    image rescaled to unit first entry; returns the result and its rows."""
    ext, embed = field_extension_above(rep.spec, rep.graph.n)
    vecs = [tuple(embed(x) for x in vec) for vec in rep.vectors]
    y = tuple([ext.one] + [ext.zero] * (rep.d - 1))
    rng = random.Random(seed)
    while any(inner_product(y, vec).is_zero() for vec in vecs):
        y = tuple(ext.from_index(rng.randrange(ext.order)) for _ in range(rep.d))
    rows = reference_completion(ext, y, rep.d)
    out = []
    for vec in vecs:
        image = [inner_product(row, vec) for row in rows]
        out.append(tuple(x * image[0].inverse() for x in image))
    return Representation(rep.graph, ext, rep.d, tuple(out), "independent"), rows


def random_change_of_basis(rep, rng, hide_first=False):
    """`rep` under a random invertible matrix: faithful again, and its
    first entries are no longer all nonzero.  With `hide_first` (and d > 1)
    the first row is orthogonal to the first vector, so e_1 cannot
    normalize."""
    spec, d = rep.spec, rep.d
    x0 = rep.vectors[0]
    j = next(i for i, x in enumerate(x0) if not x.is_zero())
    while True:
        a = [[spec.from_index(rng.randrange(spec.order)) for _ in range(d)] for _ in range(d)]
        if hide_first and d > 1:
            shift = inner_product(a[0], x0) * x0[j].inverse()
            a[0][j] = a[0][j] - shift
        if matrix_rank(spec, a) == d:
            break
    vectors = tuple(tuple(inner_product(row, vec) for row in a) for vec in rep.vectors)
    return Representation(rep.graph, spec, d, vectors, "independent")


def normalization_bases(spec, rng):
    """Small faithful independent representations over `spec`."""
    bases = [vandermonde_rep(make_random(n, rng.randrange(100)), spec) for n in range(1, min(spec.order, 5) + 1)]
    if spec.order <= 8:
        bases += [replace(ortho_graph(spec, d, projective=True), kind="independent") for d in (2, 3)]
    return [rep for rep in bases if rep.graph.n <= 12]


def compare_normalization(rep, seed, rng):
    """Normalize a random change of basis of `rep` and compare it with the
    greedy-completion reference; returns (d, last nonzero index of y)."""
    moved = random_change_of_basis(rep, rng, hide_first=seed % 2 == 1)
    expected, rows = reference_normalize(moved, seed)
    assert matrix_rank(expected.spec, rows) == moved.d
    assert normalize_first_entry(moved, seed=seed) == expected
    return moved.d, max(i for i, x in enumerate(rows[0]) if not x.is_zero())


@pytest.mark.parametrize("p, m", [(7, 1), (2, 3), (3, 2), (163, 1)])
def test_completion_to_invertible_matches_greedy_span_completion(p, m):
    # normalization keeps the coordinates of x except the one at y's last
    # nonzero index: the greedy completion of y applied to x
    spec = field_make(p, m)
    rng = random.Random(p * 10 + m)
    for d in range(1, 6):
        for _ in range(50):
            # a random vector whose last nonzero entry sits at a random index
            last = rng.randrange(d)
            y = [spec.from_index(rng.randrange(spec.order)) for _ in range(last)]
            y += [spec.from_index(rng.randrange(1, spec.order))] + [spec.zero] * (d - 1 - last)
            rows = reference_completion(spec, y, d)
            units = [[spec.one if j == i else spec.zero for j in range(d)] for i in range(d) if i != last]
            assert rows == [y] + units
            assert matrix_rank(spec, rows) == d
    for base in normalization_bases(spec, rng):
        for seed in range(4):
            compare_normalization(base, seed, rng)


def test_normalization_reaches_every_last_nonzero_index():
    rng = random.Random(7)
    lasts = set()
    for spec in (field_make(p, m) for p, m in ((2, 1), (3, 1), (5, 1), (2, 2), (7, 1), (2, 3))):
        for base in normalization_bases(spec, rng):
            for seed in range(8):
                lasts.add(compare_normalization(base, seed, rng))
    # y's last nonzero entry took every index up to dimension 3
    assert {(d, i) for d in (2, 3) for i in range(d)} <= lasts


def test_ortho_graph_ceiling():
    with pytest.raises(CeilingError):
        ortho_graph(field_make(5, 1), 6, ceilings=Ceilings(ortho_vertices=100))


def test_petersen_fixture_integer_inner_products():
    g = petersen_fixture_graph()
    vectors = PETERSEN_FIXTURE_VECTORS
    for u in range(10):
        for v in range(u, 10):
            dot = sum(a * b for a, b in zip(vectors[u], vectors[v]))
            if u == v:
                assert dot != 0
            else:
                assert (dot == 0) == g.has_edge(u, v)


@pytest.mark.parametrize("p", [17, 31])
def test_petersen_fixture_over_prime_fields(p):
    g = petersen_fixture_graph()
    vectors = PETERSEN_FIXTURE_VECTORS
    # no off-diagonal inner product may vanish mod p unless it vanishes in Z
    for u in range(10):
        for v in range(u, 10):
            dot = sum(a * b for a, b in zip(vectors[u], vectors[v]))
            if dot != 0:
                assert dot % p != 0
    rep = petersen_orthogonal_rep(field_make(p, 1))
    assert check_faithful(rep).ok
    assert check_faithful(replace(rep, kind="independent")).ok


def test_faithful_dimension_bounds_witness_number():
    # a faithful d-dimensional independent representation forces q <= d
    cases = [
        vandermonde_rep(make_cycle(6), field_make(7, 1)),
        vandermonde_rep(make_complete(4), field_make(5, 1)),
        kneser_rep(5, 2, field_make(163, 1), seed=0),
        replace(ortho_graph(field_make(2, 1), 3), kind="independent"),
    ]
    for rep in cases:
        assert check_faithful(rep).ok
        assert witness_number(rep.graph).q <= rep.d


def test_adjacency_rank_matrix_bridge():
    reps = [
        vandermonde_rep(make_cycle(5), field_make(7, 1)),
        kneser_rep(5, 2, field_make(163, 1), seed=0),
    ]
    for rep in reps:
        matrix = adjacency_rank_matrix(rep, seed=1)
        assert matrix_rank(rep.spec, matrix) <= rep.d
        g = rep.graph
        for u in range(g.n):
            for v in range(g.n):
                assert matrix[u][v].is_zero() == g.has_edge(u, v)


def test_rep_serialization_round_trip():
    rep = kneser_rep(5, 2, field_make(163, 1), seed=0)
    text = rep_to_json(rep)
    assert rep_from_json(text, rep.graph) == rep
    ortho = ortho_graph(field_make(2, 1), 3)
    assert rep_from_json(rep_to_json(ortho), ortho.graph) == ortho


def test_rep_serialization_rejects_mismatched_graph():
    rep = vandermonde_rep(make_cycle(5), field_make(7, 1))
    with pytest.raises(ValueError):
        rep_from_json(rep_to_json(rep), make_cycle(6))


def old_projection_test(spec, graph, vectors, dims):
    """The rank-per-pair acceptance test: every neighborhood keeps its
    rank, and so does every neighborhood extended by a non-neighbor."""
    def rank(rows):
        return matrix_rank(spec, rows)

    for b in range(graph.n):
        rows = [vectors[c] for c in graph.neighbors(b)]
        if rank(rows) != dims[b]:
            return False
        for a in range(graph.n):
            if not graph.has_edge(a, b) and rank(rows + [vectors[a]]) != dims[b] + 1:
                return False
    return True


@pytest.mark.parametrize("m, r, p", [(5, 2, 31), (5, 2, 11), (6, 2, 13), (4, 2, 7)])
def test_neighborhood_ranks_accept_the_projections_the_rank_test_accepts(m, r, p):
    # a small field makes many projections fail, so both outcomes occur
    spec = field_make(p, 1)
    graph = make_kneser(m, r)
    vectors = kneser_support_vectors(m, r, spec)
    t = m - 2 * r + 2
    dims = (t - 1,) * graph.n
    assert dims == neighborhood_dims(spec, graph, vectors)
    rng = random.Random(m * 100 + p)
    outcomes = set()
    for _ in range(40):
        phi = [[spec.from_index(rng.randrange(p)) for _ in range(m)] for _ in range(t)]
        projected = [
            tuple(inner_product(row, vec) for row in phi) for vec in vectors
        ]
        accepted = _neighborhood_ranks(spec, graph, projected)[0] == dims
        assert accepted == old_projection_test(spec, graph, projected, dims)
        outcomes.add(accepted)
    assert outcomes == {True, False}


def test_neighborhood_ranks_none_when_a_non_neighbor_is_in_the_span():
    spec = field_make(5, 1)
    path = make_path(3)  # 0 - 1 - 2
    e1, e2, e3 = (tuple(spec.from_int(int(i == j)) for j in range(3)) for i in range(3))
    assert _neighborhood_ranks(spec, path, [e1, e2, e3]) == ((1, 2, 1), None)
    # vertex 0's span is <x_1>, which now holds its non-neighbor x_2
    assert _neighborhood_ranks(spec, path, [e1, e2, tuple(x + x for x in e2)]) == (None, (2, 0))


@pytest.mark.parametrize("p, m", [(7, 1), (2, 3), (163, 1), (3, 2), (2, 2), (5, 1)])
def test_normalization_keeps_the_faithfulness_verdict(p, m):
    # an invertible change of basis, a rescaling by nonzero heads and a
    # field embedding keep every span relation, so the normalized
    # representation gets the input's verdict and first counterexample
    spec = field_make(p, m)
    rng = random.Random(1000 + p * 10 + m)
    classes = Counter()
    for base in normalization_bases(spec, rng):
        g = base.graph
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        graphs = [g] + [Graph(g.n, set(g.edges()) ^ {pair}) for pair in rng.sample(pairs, min(3, len(pairs)))]
        for graph in graphs:
            for seed in range(2):
                moved = random_change_of_basis(replace(base, graph=graph), rng, hide_first=seed == 1)
                if moved.has_unit_first_entries() and spec.order > g.n:
                    continue  # kernel-ready: returned as it is
                out = normalize_first_entry(moved, seed=seed)
                assert out.has_unit_first_entries() and out.spec.order > g.n
                report = check_faithful(moved)
                assert check_faithful(out) == report
                classes["faithful" if report.ok else "unfaithful"] += 1
                classes["extended"] += out.spec != spec
    assert classes["faithful"] and classes["unfaithful"]
    if spec.order <= 8:
        # the orthogonality graphs among the bases outgrow these fields
        assert classes["extended"]
