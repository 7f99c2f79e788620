import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcolkit.polys
from conftest import (
    leibniz_determinant,
    reference_boundary_kept,
    reference_rank,
    reference_row_reduce,
)
from hcolkit.gf import field_make
from hcolkit.polys import SparsePoly, boundary_basis_select, det_poly, poly_basis_select

GF7 = field_make(7, 1)
GF8 = field_make(2, 3)


def test_dimension_two_expansion():
    p = det_poly([3, 5], 2, GF7)
    assert p.terms == {((5, 2),): GF7.one, ((3, 2),): -GF7.one}


def test_dimension_three_shape():
    p = det_poly([0, 1, 2], 3, GF7)
    assert len(p.terms) == 6
    assert all(c in (GF7.one, -GF7.one) for c in p.terms.values())
    assert p.degree == 2
    for key in p.terms:
        verts = [v for v, _ in key]
        coords = [c for _, c in key]
        assert sorted(coords) == [2, 3]
        assert len(set(verts)) == 2


def test_duplicate_vertices_rejected():
    with pytest.raises(ValueError):
        det_poly([1, 1, 2], 3, GF7)
    with pytest.raises(ValueError):
        det_poly([1, 2], 3, GF7)


@pytest.mark.parametrize("spec", [GF7, GF8], ids=str)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_evaluation_matches_numeric_determinant(spec, d):
    # the independent oracle: instantiate the matrix and expand it by Leibniz
    rng = random.Random(d * 101 + spec.order)
    vertices = sorted(rng.sample(range(12), d))
    poly = det_poly(vertices, d, spec)
    for _ in range(20):
        vectors = {
            u: [spec.one]
            + [spec.from_index(rng.randrange(spec.order)) for _ in range(d - 1)]
            for u in vertices
        }
        matrix = [[vectors[u][i] for u in vertices] for i in range(d)]
        assert poly.evaluate(vectors) == leibniz_determinant(matrix)


def test_sign_convention_only_affects_sign():
    # scrambled input order sorts internally, so the result is identical
    assert det_poly([4, 1, 7], 3, GF7) == det_poly([7, 4, 1], 3, GF7)


def test_poly_arithmetic():
    p = det_poly([0, 1], 2, GF7)
    z = p - p
    assert z.is_zero()
    two_p = p + p
    assert two_p == p.scale(GF7.from_int(2))


def test_basis_select_duplicates_and_multiples():
    p = det_poly([0, 1, 2], 3, GF7)
    q = det_poly([0, 1, 3], 3, GF7)
    sel = poly_basis_select([p, p])
    assert sel.kept == (0,)
    assert sel.reconstruct([p, p], 1) == p
    sel = poly_basis_select([p, p.scale(GF7.from_int(2)), q])
    assert sel.kept == (0, 2)
    assert sel.reconstruct([p, p.scale(GF7.from_int(2)), q], 1) == p.scale(GF7.from_int(2))


def test_basis_select_zero_poly_dropped():
    zero = SparsePoly(GF7, {})
    p = det_poly([0, 1], 2, GF7)
    sel = poly_basis_select([zero, p])
    assert sel.kept == (1,)
    assert sel.certificates[0] == {}


def test_basis_span_bound_and_certificates():
    k, d = 6, 3
    polys = [det_poly(s, d, GF7) for s in combinations(range(k), d)]
    sel = poly_basis_select(polys)
    assert len(sel.kept) <= comb(k * (d - 1), d - 1)
    assert len(sel.kept) + len(sel.certificates) == len(polys)
    for dropped in sel.certificates:
        assert sel.reconstruct(polys, dropped) == polys[dropped]
    # kept polynomials are pairwise independent: no two reconstruct each other
    for i in sel.kept:
        others = [polys[j] for j in sel.kept if j != i]
        again = poly_basis_select(others + [polys[i]])
        assert again.kept[-1] == len(others), "kept poly lies in span of the rest"


def test_basis_select_over_extension_field():
    polys = [det_poly(s, 3, GF8) for s in combinations(range(5), 3)]
    sel = poly_basis_select(polys)
    for dropped in sel.certificates:
        assert sel.reconstruct(polys, dropped) == polys[dropped]


def test_mixed_inputs_rejected():
    with pytest.raises(ValueError):
        poly_basis_select([det_poly([0, 1], 2, GF7), det_poly([0, 1, 2], 3, GF7)])
    with pytest.raises(ValueError):
        poly_basis_select([det_poly([0, 1], 2, GF7), det_poly([0, 1], 2, GF8)])


# every valid degree-2 monomial on vertices 0..3 and coordinates 2..3
MONOMIALS = sorted(
    tuple(sorted(zip(verts, coords)))
    for verts in combinations(range(4), 2)
    for coords in ((2, 3), (3, 2))
)


@pytest.mark.parametrize("spec", [GF7, GF8, field_make(3, 2)], ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_basis_select_is_greedy_span_membership(spec, data):
    coeff = st.integers(0, spec.order - 1).map(spec.from_index)
    sparse = st.one_of(st.just(spec.zero), coeff)
    vectors: list[list] = []
    for _ in range(data.draw(st.integers(0, 14))):
        if vectors and data.draw(st.booleans()):
            # a combination of earlier rows, so that dependent inputs are common
            vec = [spec.zero] * len(MONOMIALS)
            for row in vectors:
                c = data.draw(sparse)
                vec = [a + c * b for a, b in zip(vec, row)]
        else:
            vec = data.draw(st.lists(sparse, min_size=len(MONOMIALS), max_size=len(MONOMIALS)))
        vectors.append(vec)
    polys = [
        SparsePoly(spec, {key: c for key, c in zip(MONOMIALS, vec) if not c.is_zero()})
        for vec in vectors
    ]
    sel = poly_basis_select(polys)
    greedy: list[int] = []
    for i, vec in enumerate(vectors):
        if reference_rank(spec, [vectors[j] for j in greedy] + [vec]) > len(greedy):
            greedy.append(i)
    assert sel.kept == tuple(greedy)
    assert len(sel.kept) + len(sel.certificates) == len(polys)
    for dropped in sel.certificates:
        assert sel.reconstruct(polys, dropped) == polys[dropped]


@pytest.mark.parametrize("spec", [GF7, GF8, field_make(3, 2)], ids=str)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_boundary_selection_equals_poly_selection(spec, data):
    d = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(d, d + 3))
    d_sets = st.lists(st.integers(0, k - 1), min_size=d, max_size=d, unique=True)
    traces = [tuple(sorted(t)) for t in data.draw(st.lists(d_sets, max_size=14))]
    sel = boundary_basis_select(traces, spec)
    expected = poly_basis_select([det_poly(t, d, spec) for t in traces])
    assert sel.kept == expected.kept
    assert sel.certificates == expected.certificates
    # +-1 entries: the kept set depends only on the characteristic
    assert boundary_basis_select(traces, field_make(spec.p, 1)).kept == sel.kept


@pytest.mark.parametrize("spec", [field_make(2, 1), GF7], ids=str)
@pytest.mark.parametrize("k, d", [(5, 2), (7, 3), (7, 4), (8, 5)])
def test_boundary_rank_on_all_d_sets(spec, k, d):
    sel = boundary_basis_select(list(combinations(range(k), d)), spec)
    assert len(sel.kept) == comb(k - 1, d - 1)


def test_boundary_selection_refuses_mixed_sizes():
    # poly_basis_select refuses the mixed degrees of their polynomials
    with pytest.raises(ValueError, match="mixed size"):
        boundary_basis_select([(0, 1, 2), (1, 2, 3), (1, 2, 3, 4)], GF7)


def _count_drawn_rows(monkeypatch) -> list:
    """The rows that boundary_basis_select draws through greedy_kept, as drawn."""
    drawn = []
    greedy_kept = hcolkit.polys.greedy_kept

    def counting(spec, rows, rank=None):
        def draw():
            for row in rows:
                drawn.append(row)
                yield row
        return greedy_kept(spec, draw(), rank)

    monkeypatch.setattr(hcolkit.polys, "greedy_kept", counting)
    return drawn


def _expected_draws(traces, cone: int, last_kept: int) -> int:
    """The rows drawn after the leading run of traces that hold `cone`, up
    to the last kept one: those with a face that avoids `cone` and is not
    T - cone for a trace T of the run (the others reduce to zero)."""
    lead = next((i for i, t in enumerate(traces) if cone not in t), len(traces))
    covered = {frozenset(t) - {cone} for t in traces[:lead]}
    faces = [{frozenset(t) - {v} for v in t} for t in traces[lead : last_kept + 1]]
    return sum(any(cone not in f and f not in covered for f in fs) for fs in faces)


@pytest.mark.parametrize("k, d", [(7, 3), (7, 4)])
def test_selection_draws_rows_until_the_face_space_is_spanned(monkeypatch, k, d):
    drawn = _count_drawn_rows(monkeypatch)
    dimension = comb(k - 1, d - 1)  # C(|V| - 1, d-1)
    traces = list(combinations(range(k), d))
    for seed in range(4):
        full = poly_basis_select([det_poly(t, d, GF7) for t in traces]).kept
        drawn.clear()
        sel = boundary_basis_select(traces, GF7)
        assert sel.kept == full and len(full) == dimension
        assert len(drawn) == _expected_draws(traces, 0, full[-1])
        if seed == 0:  # lexicographic: the d-sets on vertex 0 come first and span
            assert len(drawn) == 0
        else:
            assert len(drawn) > 0
        random.Random(seed).shuffle(traces)


def test_selection_cones_at_the_least_trace_vertex(monkeypatch):
    # no trace holds vertex 0: the rows cone at vertex 1 and span the
    # C(18, 2) = 153 faces on 2..19, so the draws stop at the row where
    # the kept count reaches 153, and the kept set is that of the same
    # traces shifted down onto 0..18, coned at 0
    spec = field_make(163, 1)
    drawn = _count_drawn_rows(monkeypatch)
    lexicographic = list(combinations(range(1, 20), 3))
    for seed in range(3):
        traces = list(lexicographic)
        if seed:
            random.Random(seed).shuffle(traces)
        drawn.clear()
        sel = boundary_basis_select(traces, spec)
        assert len(sel.kept) == comb(18, 2) and sel.kept[-1] + 1 < len(traces)
        assert len(drawn) == _expected_draws(traces, 1, sel.kept[-1])
        if seed == 0:  # lexicographic: the 3-sets on vertex 1 come first and span
            assert len(drawn) == 0
            lexicographic_selection = sel
        else:
            assert len(drawn) > 0
        draws = len(drawn)
        drawn.clear()
        assert boundary_basis_select([[v - 1 for v in t] for t in traces], spec).kept == sel.kept
        assert len(drawn) == draws
    # every row dropped after the stop is rebuilt from its certificate
    sel = lexicographic_selection
    polys = [det_poly(t, 3, spec) for t in lexicographic]
    dropped = set(range(len(polys))) - set(sel.kept)
    assert dropped == set(sel.certificates)
    for i in dropped:
        assert sel.reconstruct(polys, i) == polys[i]


def _trace_lists(k: int, d: int, rng: random.Random):
    """Three lists of d-sets of range(k), each with the rank of its rows:
    all d-sets, whose rows span the C(k-1, d-1) faces that avoid vertex
    0; those that do not hold the face F = {1..d-1}, whose rows span the
    other faces, one short; those that avoid vertex 0, rank C(k-2, d-1)."""
    saturating = list(combinations(range(k), d))
    rng.shuffle(saturating)
    face = set(range(1, d))
    short = [t for t in saturating if not face <= set(t)]
    avoiding = [t for t in saturating if 0 not in t]
    dimension = comb(k - 1, d - 1)
    return [(saturating, dimension), (short, dimension - 1), (avoiding, comb(k - 2, d - 1))]


@pytest.mark.parametrize("spec", [field_make(163, 1), field_make(2, 8)], ids=str)
@pytest.mark.parametrize("d", [3, 4])
def test_stopped_selection_equals_poly_selection(spec, d):
    k = d + 3
    for traces, rank in _trace_lists(k, d, random.Random(d)):
        assert set().union(*traces) - {0} == set(range(1, k))
        sel = boundary_basis_select(traces, spec)
        assert sel.kept == poly_basis_select([det_poly(t, d, spec) for t in traces]).kept
        assert len(sel.kept) == rank


@pytest.mark.parametrize("spec", [field_make(163, 1), field_make(2, 8)], ids=str)
@pytest.mark.parametrize("d", [3, 4])
def test_rows_dropped_after_the_stop_are_rebuilt(spec, d):
    traces = list(combinations(range(d + 3), d))
    random.Random(d).shuffle(traces)
    sel = boundary_basis_select(traces, spec)
    polys = [det_poly(t, d, spec) for t in traces]
    after_stop = range(sel.kept[-1] + 1, len(traces))
    assert len(sel.kept) == comb(d + 2, d - 1) and after_stop
    assert set(after_stop) <= set(sel.certificates)
    for i in after_stop:
        assert sel.reconstruct(polys, i) == polys[i]


def _benchmark_traces(rng: random.Random, k: int, d: int, outside: int, degree: int):
    """The sorted d-sets realized by `outside` vertices, each adjacent to
    `degree` random vertices of range(k), as the algebraic kernel meets them."""
    neighborhoods = [sorted(rng.sample(range(k), degree)) for _ in range(outside)]
    return sorted({t for n in neighborhoods for t in combinations(n, d)})


@pytest.mark.parametrize("spec", [field_make(163, 1), field_make(2, 8)], ids=str)
def test_boundary_selection_equals_the_full_row_reference(spec):
    # at the algebraic benchmark's size, k = 20 with 40 outside vertices of
    # degree 8 (about 970 3-sets), and at d = 4 on k = 12; every order of
    # the traces is compared, so the cone run may lead, be cut short,
    # span the faces alone, or be absent
    classes = {"spans": 0, "short": 0, "empty": 0}
    for k, d, outside, degree in [(20, 3, 40, 8), (12, 4, 30, 7)]:
        for seed in range(3):
            rng = random.Random(seed)
            traces = _benchmark_traces(rng, k, d, outside, degree)
            shuffled = rng.sample(traces, len(traces))
            star = sorted(set(traces) | {(0,) + s for s in combinations(range(1, k), d - 1)})
            orders = {
                "sorted": traces,
                "shuffled": shuffled,
                "repeated": sorted(traces + rng.choices(traces, k=len(traces) // 4)),
                "shuffled repeated": shuffled + rng.choices(traces, k=len(traces) // 4),
                "without vertex 0": [t for t in traces if 0 not in t],
                "with the star of vertex 0": star,
                "with the star of vertex 0, shuffled": rng.sample(star, len(star)),
            }
            for name, order in orders.items():
                assert reference_boundary_kept(order, spec) == (
                    boundary_basis_select(order, spec).kept
                ), (k, d, seed, name)
                cone = min(set().union(*order))
                lead = next(i for i, t in enumerate(order) if cone not in t)
                faces = {frozenset(t) - {cone} for t in order[:lead]}
                rank = comb(len(set().union(*order)) - 1, d - 1)
                classes["empty" if not lead else "spans" if len(faces) == rank else "short"] += 1
    assert min(classes.values()) > 0, classes


@pytest.mark.parametrize("spec", [GF7, GF8], ids=str)
def test_certificates_read_on_demand_match_reference(spec):
    rng = random.Random(spec.order)
    monomials = [((v, 2),) for v in range(6)]
    for _ in range(20):
        n_cols = rng.randrange(1, 7)
        rows = [
            [spec.from_index(rng.randrange(spec.order)) if rng.random() < 0.6 else spec.zero
             for _ in range(n_cols)]
            for _ in range(rng.randrange(2, 9))
        ]
        # every matrix has a zero row and a row repeating an earlier one
        rows.insert(rng.randrange(len(rows) + 1), [spec.zero] * n_cols)
        i = rng.randrange(len(rows))
        rows.insert(rng.randrange(i + 1, len(rows) + 1), list(rows[i]))
        polys = [
            SparsePoly(spec, {m: c for m, c in zip(monomials, row) if not c.is_zero()})
            for row in rows
        ]
        sel = poly_basis_select(polys)
        assert "coordinates" not in sel.__dict__ and "certificates" not in sel.__dict__
        # a dropped row's coordinates over the kept ones are its column of
        # the reduced row echelon form of the transpose
        ref_rows, _, ref_kept = reference_row_reduce([list(col) for col in zip(*rows)])
        assert sel.kept == tuple(ref_kept)
        assert sel.certificates == {
            i: {j: ref_rows[r][i] for r, j in enumerate(ref_kept) if not ref_rows[r][i].is_zero()}
            for i in range(len(rows))
            if i not in ref_kept
        }
