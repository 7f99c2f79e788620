import random
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _nullspace_basis,
    leibniz_determinant,
    reference_field_ops,
    reference_rank,
    reference_row_reduce,
    trial_division_irreducible,
)
from hcolkit.config import Ceilings
from hcolkit.errors import CeilingError
from hcolkit.gf import (
    _ROOT_SCAN_LIMIT,
    _poly_is_irreducible,
    SpanBasis,
    field_extension_above,
    field_make,
    greedy_basis,
    int_field,
    int_vector,
    is_prime,
    matrix_rank,
)
from hcolkit.reps import inner_product

FIELDS = [
    field_make(2, 1),
    field_make(3, 1),
    field_make(7, 1),
    field_make(2, 2),
    field_make(2, 3),
    field_make(3, 2),
]

# the table path (2^8) and the field above the table cap (331^2) as well
MATRIX_FIELDS = FIELDS + [field_make(2, 8), field_make(331, 2)]


def test_field_make_basics():
    assert field_make(2, 1).order == 2
    gf4 = field_make(2, 2)
    assert gf4.order == 4
    assert gf4.irreducible == (1, 1, 1)  # x^2 + x + 1, the unique choice
    gf9 = field_make(3, 2)
    assert gf9.order == 9
    # first monic irreducible quadratic over GF(3) in lex coefficient order
    assert gf9.irreducible == (1, 0, 1)


# up to degree 6, so that the test takes its gcds at i = 1, 2 and 3
@pytest.mark.parametrize("p, max_degree", [(2, 6), (3, 6), (5, 4)])
def test_irreducibility_matches_trial_division(p, max_degree):
    for deg in range(1, max_degree + 1):
        for tail in product(range(p), repeat=deg):
            poly = list(tail) + [1]
            assert _poly_is_irreducible(poly, p) == trial_division_irreducible(poly, p), poly


def test_field_make_large_prime_degree_six():
    # within the degree ceiling, so the modulus search must finish quickly
    assert field_make(31, 6).irreducible == (1, 0, 0, 0, 0, 4, 1)


def test_field_make_rejects_bad_input():
    with pytest.raises(ValueError):
        field_make(4, 1)
    with pytest.raises(ValueError):
        field_make(9, 2)
    with pytest.raises(CeilingError):
        field_make(2, 9)
    with pytest.raises(CeilingError):
        field_make(2, 0)


@pytest.mark.parametrize("spec", FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_field_axioms(spec, data):
    idx = st.integers(0, spec.order - 1)
    a = spec.from_index(data.draw(idx))
    b = spec.from_index(data.draw(idx))
    c = spec.from_index(data.draw(idx))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert a + spec.zero == a and a * spec.one == a
    assert a + (-a) == spec.zero
    if not a.is_zero():
        assert a * a.inverse() == spec.one


def test_index_round_trip():
    for spec in FIELDS:
        for i in range(spec.order):
            assert spec.from_index(i).to_index() == i


def test_extension_above():
    gf2 = field_make(2, 1)
    ext, _ = field_extension_above(gf2, 3)
    assert ext.order == 4
    ext, _ = field_extension_above(gf2, 10)
    assert ext.order == 16
    gf5 = field_make(5, 1)
    same, emb = field_extension_above(gf5, 4)
    assert same == gf5
    assert emb(gf5.from_int(3)) == gf5.from_int(3)


def test_embedding_is_a_homomorphism():
    rng = random.Random(2)
    for base_args, threshold in (((2, 2), 5), ((3, 2), 80), ((2, 3), 60)):
        base = field_make(*base_args)
        ext, emb = field_extension_above(base, threshold)
        assert ext.order > threshold
        assert emb(base.one) == ext.one
        assert emb(base.zero) == ext.zero
        for _ in range(60):
            a = base.from_index(rng.randrange(base.order))
            b = base.from_index(rng.randrange(base.order))
            assert emb(a + b) == emb(a) + emb(b)
            assert emb(a * b) == emb(a) * emb(b)


def test_extension_degree_ceiling():
    with pytest.raises(CeilingError):
        field_extension_above(field_make(2, 1), 2**20, ceilings=Ceilings(field_degree=8))


def _random_matrix(rng, spec, n_rows, n_cols) -> list[list]:
    """Rows with sparse random entries, some of them combinations of earlier
    rows, so that rank-deficient matrices are common over every field."""
    def entry():
        return spec.zero if rng.random() < 0.3 else spec.from_index(rng.randrange(spec.order))

    rows = []
    for _ in range(n_rows):
        if rows and rng.random() < 0.4:
            row = [spec.zero] * n_cols
            for prev in rows:
                c = entry()
                row = [a + c * b for a, b in zip(row, prev)]
        else:
            row = [entry() for _ in range(n_cols)]
        rows.append(row)
    return rows


def test_determinant_matches_rank_on_random_squares():
    rng = random.Random(11)
    for spec in MATRIX_FIELDS:
        for _ in range(25):
            n = rng.randrange(1, 5)
            m = _random_matrix(rng, spec, n, n)
            assert matrix_rank(spec, m) == reference_row_reduce(m)[1]
            assert leibniz_determinant(m).is_zero() == (matrix_rank(spec, m) < n)


@pytest.mark.parametrize("spec", MATRIX_FIELDS, ids=str)
def test_elimination_matches_reference_on_random_matrices(spec):
    rng = random.Random(spec.order)
    assert _nullspace_basis(spec, [], 2) == [[spec.one, spec.zero], [spec.zero, spec.one]]
    for _ in range(20):
        rows = _random_matrix(rng, spec, rng.randrange(1, 6), rng.randrange(1, 6))
        n_cols = len(rows[0])
        ref_rows, rank, ref_pivots = reference_row_reduce(rows)
        # the kept columns are the pivots, and each dropped column's
        # certificate is its column of the reduced row echelon form
        pivots, certificates = greedy_basis(spec, map(int_vector, zip(*rows)))
        assert pivots == ref_pivots
        assert sorted(certificates) == [c for c in range(n_cols) if c not in pivots]
        for c, coords in certificates.items():
            column = [spec.from_index(coords.get(p, 0)) for p in pivots]
            assert column == [ref_rows[i][c] for i in range(rank)]
        null = _nullspace_basis(spec, rows, n_cols)
        assert len(null) == n_cols - rank
        assert reference_rank(spec, null) == len(null)
        for vec in null:
            assert all(inner_product(row, vec).is_zero() for row in rows)
        basis = SpanBasis(spec)
        for i, row in enumerate(rows):
            grows = reference_rank(spec, rows[: i + 1]) > reference_rank(spec, rows[:i])
            assert basis.contains(row) != grows
            assert basis.add(row) == grows
        assert basis.rank == rank
        probe = _random_matrix(rng, spec, 1, n_cols)[0]
        assert basis.contains(probe) == (reference_rank(spec, rows + [probe]) == rank)


def _descending_sparse_rows(rng, spec, n_rows, n_cols) -> list[list]:
    """Rows of 2-4 nonzeros whose least column falls from row to row, so
    that each new row pivots below the kept ones and reducing it by a
    kept row fills in that row's higher columns."""
    rows = []
    for i in range(n_rows):
        lead = (n_cols - 3) - i * (n_cols - 2) // n_rows
        above = range(lead + 1, n_cols)
        cols = {lead, *rng.sample(above, min(rng.randrange(1, 4), len(above)))}
        rows.append([
            spec.from_index(rng.randrange(1, spec.order)) if c in cols else spec.zero
            for c in range(n_cols)
        ])
    return rows


@pytest.mark.parametrize("spec", [field_make(7, 1), field_make(2, 3)], ids=str)
def test_elimination_stops_early_on_sparse_descending_rows(spec):
    rng = random.Random(40 + spec.order)
    rows = _descending_sparse_rows(rng, spec, 40, 25)
    ref_rows, rank, ref_kept = reference_row_reduce([list(col) for col in zip(*rows)])
    kept, certificates = greedy_basis(spec, map(int_vector, rows))
    assert kept == ref_kept
    assert sorted(certificates) == [i for i in range(len(rows)) if i not in kept]
    for i, coords in certificates.items():
        assert [spec.from_index(coords.get(j, 0)) for j in kept] == [
            ref_rows[r][i] for r in range(rank)
        ]
    # a kept row's remainder still holding a pivot above its least key
    # shows that reduction stopped before clearing every pivot
    basis, pivots, early_stops = SpanBasis(spec), set(), 0
    for i, row in enumerate(rows):
        assert basis.contains(row) == (i not in kept)
        rem = basis._elim.reduce(int_vector(row))
        if rem:
            early_stops += any(key in pivots for key in rem)
            pivots.add(min(rem))
        assert basis.add(row) == (i in kept)
    assert early_stops > 0 and len(certificates) > 0
    for probe in _random_matrix(rng, spec, 6, 25) + [[a + b for a, b in zip(rows[3], rows[30])]]:
        assert basis.contains(probe) == (reference_rank(spec, rows + [probe]) == rank)


def test_powers_and_division():
    gf9 = field_make(3, 2)
    a = gf9.from_index(5)
    assert a**0 == gf9.one
    assert a**3 == a * a * a
    assert a**-1 == a.inverse()
    assert a**-2 == (a * a).inverse()
    assert (a / a) == gf9.one
    with pytest.raises(ZeroDivisionError):
        gf9.zero.inverse()
    # Fermat: a^(order-1) = 1 for nonzero a
    for spec in FIELDS:
        for i in range(1, spec.order):
            assert spec.from_index(i) ** (spec.order - 1) == spec.one


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0)


def test_is_prime_matches_trial_division_below_1e5():
    for p in range(10**5):
        assert is_prime(p) == (p >= 2 and all(p % f for f in range(2, isqrt(p) + 1))), p
    # Carmichael numbers fool the Fermat test on every coprime base
    assert not any(is_prime(c) for c in (561, 1105, 1729, 2465))


def test_is_prime_is_fast_and_refuses_past_its_range():
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
    assert not is_prime((10**9 + 7) * (10**9 + 9))
    # the least composite passing all twelve bases is where exactness ends
    with pytest.raises(ValueError, match="decided only below"):
        is_prime(318665857834031151167461)


def _check_int_ops(spec, pairs):
    ops, ref = int_field(spec), reference_field_ops(spec)
    for a, b in pairs:
        assert ops.add(a, b) == ref.add(a, b)
        assert ops.sub(a, b) == ref.sub(a, b)
        assert ops.mul(a, b) == ref.mul(a, b)
    for a in sorted({a for pair in pairs for a in pair}):
        assert ops.neg(a) == ref.neg(a)
        if a:
            assert ops.inv(a) == ref.inv(a)
    with pytest.raises(ZeroDivisionError):
        ops.inv(0)


@pytest.mark.parametrize("args", [(7, 1), (163, 1), (2, 3), (3, 2), (2, 8)], ids=str)
def test_int_field_matches_field_element(args):
    spec = field_make(*args)
    elements = range(spec.order)
    _check_int_ops(spec, [(a, b) for a in elements for b in elements])
    assert int_field(spec) is int_field(field_make(*args))


def test_int_field_above_table_cap():
    spec = field_make(331, 2)
    assert spec.order > _ROOT_SCAN_LIMIT
    rng = random.Random(5)
    pairs = [(rng.randrange(spec.order), rng.randrange(spec.order)) for _ in range(300)]
    _check_int_ops(spec, pairs + [(0, 1), (1, 0)])
