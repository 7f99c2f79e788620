"""Sparse multilinear homogeneous polynomials over a finite field.

The polynomials that drive the algebraic kernel live in variables
``y_u[i]`` indexed by a (vertex, coordinate) pair, with coordinates
ranging over 2..d (the first coordinate of every symbolic vector is
pinned to 1).  A monomial is a sorted tuple of such pairs with distinct
vertices and distinct coordinates; all monomials of one polynomial
share the same degree.

``det_poly`` expands the symbolic determinant of the d x d matrix whose
first row is all ones and whose remaining entries are the variables of
the d chosen columns, by cofactors along the unit row: det_poly(T) =
sum_j (-1)^j M_{T - t_j}, where the minors M_S of distinct (d-1)-sets
have disjoint supports.  So the polynomials have the linear relations
of the +-1 rows of the simplicial boundary matrix, and the kernel's
greedy basis is selected on those rows (``boundary_basis_select``),
each face keyed by its vertex bitmask.  The rows lie in the space of
the (d-1)-faces on the trace vertices V other than the cone vertex c, the
least of them, of dimension C(|V| - 1, d-1), so the selection stops
once it has kept that many: every later row is dropped without being
built or reduced.  A trace T that holds c has the unit row {T - c: 1};
the leading run of such traces is selected by bookkeeping (the first
trace on each face is kept), and the elimination runs only on the later
rows with the faces of that run deleted, which is exact because
reducing by unit rows deletes exactly those entries.
The polynomials are the certificate to check it against:
``poly_basis_select`` keeps the same sets with the same certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from math import comb
from typing import Callable, Container, Iterable, Mapping, Optional, Sequence

from .gf import FieldElement, FieldSpec, greedy_basis, greedy_kept

MonomialKey = tuple[tuple[int, int], ...]  # sorted ((vertex, coordinate), ...)


def _check_key(key: MonomialKey) -> None:
    verts = [v for v, _ in key]
    coords = [c for _, c in key]
    if list(key) != sorted(key):
        raise ValueError(f"monomial key {key} not sorted")
    if len(set(verts)) != len(verts) or len(set(coords)) != len(coords):
        raise ValueError(f"monomial key {key} repeats a vertex or coordinate")
    if any(c < 2 for c in coords):
        raise ValueError("coordinate indices start at 2 (first entries are pinned to 1)")


@dataclass(frozen=True)
class SparsePoly:
    """Map from monomial keys to nonzero coefficients; zero terms are never stored."""

    spec: FieldSpec
    terms: Mapping[MonomialKey, FieldElement] = field(default_factory=dict)

    def __post_init__(self):
        degrees = set()
        for key, coeff in self.terms.items():
            _check_key(key)
            if coeff.is_zero():
                raise ValueError("zero coefficient stored in SparsePoly")
            if coeff.spec != self.spec:
                raise ValueError("coefficient from a different field")
            degrees.add(len(key))
        if len(degrees) > 1:
            raise ValueError("mixed-degree SparsePoly")

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> Optional[int]:
        for key in self.terms:
            return len(key)
        return None

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key)
            s = coeff if acc is None else acc + coeff
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return SparsePoly(self.spec, out)

    def scale(self, factor: FieldElement) -> "SparsePoly":
        if factor.is_zero():
            return SparsePoly(self.spec, {})
        return SparsePoly(self.spec, {k: c * factor for k, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + other.scale(-other.spec.one)

    def evaluate(self, vectors: Mapping[int, Sequence[FieldElement]]) -> FieldElement:
        """Substitute concrete vectors; y_u[i] reads vectors[u][i-1]."""
        total = self.spec.zero
        for key, coeff in self.terms.items():
            prod = coeff
            for vertex, coord in key:
                prod = prod * vectors[vertex][coord - 1]
            total = total + prod
        return total

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.spec == other.spec
            and dict(self.terms) == dict(other.terms)
        )

    def __repr__(self):
        if not self.terms:
            return "SparsePoly(0)"
        bits = []
        for key in sorted(self.terms):
            mono = "*".join(f"y{v}[{c}]" for v, c in key)
            bits.append(f"{self.terms[key]}*{mono}")
        return "SparsePoly(" + " + ".join(bits) + ")"


def det_poly(vertices: Sequence[int], d: int, spec: FieldSpec) -> SparsePoly:
    """Symbolic determinant of the unit-first-row matrix on d vertex columns.

    Column order is ascending vertex id (order only flips the overall
    sign, which does not affect linear spans).  The result is multilinear
    and homogeneous of degree d-1; every term is a distinct monomial, so
    none cancel.
    """
    cols = sorted(vertices)
    if len(cols) != d or len(set(cols)) != d:
        raise ValueError(f"need {d} distinct vertex ids, got {vertices!r}")
    terms: dict[MonomialKey, FieldElement] = {}
    # cofactor expansion along the unit row, then the permutations of each minor
    for j in range(d):
        for perm in permutations(cols[:j] + cols[j + 1 :]):
            inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
            # row i (coordinate i+2) takes the variable of column perm[i]
            key = tuple(sorted(zip(perm, range(2, d + 1))))
            terms[key] = spec.from_int((-1) ** (j + inversions))
    return SparsePoly(spec, terms)


@dataclass
class BasisSelection:
    """Outcome of greedy basis selection over a list of polynomials.

    kept: input indices forming the basis, in input order; selecting it
    builds no certificates.
    rows: regenerates the int-encoded rows the selection ran on.
    certificates: for each dropped input index, its exact coordinates
    over the kept polynomials (kept index -> nonzero field element),
    computed from `rows` by :func:`~hcolkit.gf.greedy_basis` on first
    read, as ``KernelResult.polys`` is; the kernel path never reads them
    and only counts the dropped indices.
    """

    kept: tuple[int, ...]
    spec: Optional[FieldSpec]  # None only for a selection over no polynomials
    rows: Callable[[], Iterable[dict]]

    @cached_property
    def certificates(self) -> dict[int, dict[int, FieldElement]]:
        spec = self.spec
        coordinates = greedy_basis(spec, self.rows())[1]
        return {i: {k: spec.from_index(v) for k, v in c.items()} for i, c in coordinates.items()}

    def reconstruct(self, polys: Sequence[SparsePoly], dropped_index: int) -> SparsePoly:
        cert = self.certificates[dropped_index]
        spec = polys[dropped_index].spec
        acc = SparsePoly(spec, {})
        for kept_index, coeff in cert.items():
            acc = acc + polys[kept_index].scale(coeff)
        return acc


def poly_basis_select(polys: Sequence[SparsePoly]) -> BasisSelection:
    """Maximal linearly independent subset, greedy in input order.

    The first nonzero polynomial is kept; each later one is kept exactly
    when it is not in the span of those already kept, decided by
    incremental elimination keyed on monomials.  Every dropped
    polynomial gets a certificate expressing it over the kept ones,
    computed when ``certificates`` is first read.
    """
    if not polys:
        return BasisSelection(kept=(), spec=None, rows=tuple)
    spec = polys[0].spec
    if any(p.spec != spec for p in polys):
        raise ValueError("polynomials over mixed fields")
    if len({p.degree for p in polys if not p.is_zero()}) > 1:
        raise ValueError("polynomials of mixed degree")

    def rows():
        return ({k: c.to_index() for k, c in p.terms.items()} for p in polys)

    return BasisSelection(kept=tuple(greedy_kept(spec, rows())), spec=spec, rows=rows)


def boundary_basis_select(traces: Sequence[Sequence[int]], spec: FieldSpec) -> BasisSelection:
    """``poly_basis_select`` of the ``det_poly``s of the d-sets `traces`,
    computed on their boundary rows: T = (t_0 < ... < t_{d-1}) has the
    entry (-1)^j on the face T - t_j, keyed by its vertex bitmask.

    Each row drops the faces that contain the cone vertex c, the least
    trace vertex: every boundary is a cycle, and a cycle is fixed by its
    faces that avoid the cone vertex, so the linear relations stay the
    same.  Every row then lies in the space of the (d-1)-faces on the
    trace vertices V other than c, of dimension C(|V| - 1, d-1).

    A trace T that holds c has the unit row {T - c: 1}, and the leading
    traces that hold c are selected by bookkeeping alone: the first on
    each face is kept, and the faces they keep are `covered`.  Reducing
    a later row by those unit rows only deletes its entries on
    `covered`, so a later row is in the span exactly when it is, with
    those entries deleted, in the span of the later rows kept before it;
    the later rows are selected that way by ``greedy_kept``, and one
    left empty is dropped before it reaches the elimination.  Once the
    kept rows number C(|V| - 1, d-1) they span the face space, and the
    later rows are dropped without being built.  ``rows`` still builds
    every full row, for the certificates.
    """

    minus_one = spec.ops.neg(1)
    vertices = set().union(*traces)
    cone = min(vertices, default=None)

    def row(trace: Sequence[int], covered: Container[int] = ()) -> dict:
        """The boundary row of `trace`, less its entries on `covered`."""
        t = sorted(trace)
        mask = 0
        for v in t:
            mask |= 1 << v
        if t[0] == cone:  # the one face that avoids the cone vertex
            face = mask ^ (1 << cone)
            return {} if face in covered else {face: 1}
        return {
            face: minus_one if j % 2 else 1
            for j, v in enumerate(t)
            if (face := mask ^ (1 << v)) not in covered
        }

    sizes = set(map(len, traces))
    if len(sizes) > 1:  # the stop below counts the faces of one size
        raise ValueError("traces of mixed size")
    rank = comb(len(vertices) - 1, sizes.pop() - 1) if vertices else 0
    covered: dict[int, int] = {}  # face T - c -> the first leading trace on it
    lead = 0
    for trace in traces:
        if cone not in trace:
            break
        (face,) = row(trace)  # the unit row {T - c: 1}
        covered.setdefault(face, lead)
        lead += 1
    kept = list(covered.values())
    drawn: list[int] = []  # the later traces whose rows reach greedy_kept

    def later_rows():
        for i in range(lead, len(traces)):
            if later := row(traces[i], covered):  # an empty row is in the span
                drawn.append(i)
                yield later

    if len(kept) < rank:
        kept += (drawn[i] for i in greedy_kept(spec, later_rows(), rank - len(kept)))
    return BasisSelection(kept=tuple(kept), spec=spec, rows=lambda: map(row, traces))
