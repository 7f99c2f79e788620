"""Sparse multilinear homogeneous polynomials over a finite field.

The polynomials that drive the algebraic kernel live in variables
``y_u[i]`` indexed by a (vertex, coordinate) pair, with coordinates
ranging over 2..d (the first coordinate of every symbolic vector is
pinned to 1).  A monomial is a sorted tuple of such pairs with distinct
vertices and distinct coordinates; all monomials of one polynomial
share the same degree.

``det_poly`` expands the symbolic determinant of the d x d matrix whose
first row is all ones and whose remaining entries are the variables of
the d chosen columns: cofactor expansion along the unit row, then
permutation expansion of each pure-variable minor.  ``poly_basis_select``
keeps a maximal linearly independent subset, greedily in input order,
and returns exact reconstruction certificates for everything dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Mapping, Optional, Sequence

from .gf import Elimination, FieldElement, FieldSpec

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


@lru_cache(maxsize=None)
def _det_pattern(d: int) -> tuple[tuple[int, MonomialKey], ...]:
    """The terms of `det_poly` for columns 0..d-1: (sign, ((column, coordinate), ...)).

    Cofactor expansion along the unit row, then the permutations of each
    minor; every term is a distinct monomial, so none cancel.
    """
    terms: dict[MonomialKey, int] = {}
    for j in range(d):
        minor_cols = [c for c in range(d) if c != j]
        for perm in permutations(range(d - 1)):
            inversions = sum(
                1
                for a in range(d - 1)
                for b in range(a + 1, d - 1)
                if perm[a] > perm[b]
            )
            # row i (coordinate i+2) takes the variable of column perm[i]
            key = tuple(sorted((minor_cols[perm[i]], i + 2) for i in range(d - 1)))
            terms[key] = (-1) ** (j + inversions)
    return tuple((sign, key) for key, sign in terms.items())


def det_poly(vertices: Sequence[int], d: int, spec: FieldSpec) -> SparsePoly:
    """Symbolic determinant of the unit-first-row matrix on d vertex columns.

    Column order is ascending vertex id (order only flips the overall
    sign, which does not affect linear spans).  The result is multilinear
    and homogeneous of degree d-1.
    """
    cols = sorted(vertices)
    if len(cols) != d or len(set(cols)) != d:
        raise ValueError(f"need {d} distinct vertex ids, got {vertices!r}")
    signs = {1: spec.one, -1: -spec.one}
    # columns are ascending, so relabelling keeps each key sorted
    return SparsePoly(
        spec,
        {
            tuple((cols[c], coord) for c, coord in key): signs[sign]
            for sign, key in _det_pattern(d)
        },
    )


@dataclass
class BasisSelection:
    """Outcome of greedy basis selection over a list of polynomials.

    kept: input indices forming the basis, in input order.
    certificates: for each dropped input index, its exact coordinates
    over the kept polynomials (kept index -> coefficient).
    """

    kept: tuple[int, ...]
    certificates: dict[int, dict[int, FieldElement]]

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
    polynomial gets a certificate expressing it over the kept ones.
    """
    if not polys:
        return BasisSelection(kept=(), certificates={})
    spec = polys[0].spec
    if any(p.spec != spec for p in polys):
        raise ValueError("polynomials over mixed fields")
    if len({p.degree for p in polys if not p.is_zero()}) > 1:
        raise ValueError("polynomials of mixed degree")

    elim = Elimination(spec)
    certificates: dict[int, dict[int, FieldElement]] = {}
    for index, poly in enumerate(polys):
        row = {key: coeff.to_index() for key, coeff in poly.terms.items()}
        cert = elim.insert(row, index)
        if cert is not None:
            certificates[index] = {k_idx: spec.from_index(val) for k_idx, val in cert.items()}
    return BasisSelection(kept=tuple(elim.kept), certificates=certificates)
