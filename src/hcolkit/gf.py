"""Exact arithmetic in GF(p^m) and linear algebra over it.

A field is described by a :class:`FieldSpec` (characteristic, extension
degree, irreducible modulus); elements are coefficient vectors over
GF(p).  The irreducible polynomial is always the lexicographically
first monic irreducible, so a spec is reproducible from (p, m) alone
across runs and platforms; irreducibility is decided by Ben-Or's test,
in time polynomial in m and log p.

Extension fields come with an explicit embedding of the base field: a
function that evaluates each element's coefficients at the image of the
base generator, a root of the base modulus inside the extension (1 for
a prime base field, the generator itself when the base is returned).

Everything here is desk scale: degrees up to 8, orders up to ~10^5 for
root scans and exp/log tables.

Field arithmetic is implemented once, on plain ints in the ``to_index``
encoding: the base-p digits of an index are the element's coefficients,
low first (0 is zero, 1 is one).  :func:`int_field` gives, per spec,
four operations on such ints, add/neg/mul/inv, and a
:class:`FieldElement` is a view of one of them that calls these
operations (a difference is a sum with a negation).  Prime fields compute
``% p`` directly.  Extension fields of order at most
``_ROOT_SCAN_LIMIT`` look products up in exp/log tables over a
primitive element g and sums in a Zech table (``zech[e]`` is the log of
1 + g^e); the tables are filled by multiplying coefficient lists with
``_poly_mulmod``, built on first use and cached with the spec.  Larger
extension fields build no tables: they work on the coefficients an
index encodes, multiply with ``_poly_mulmod`` and invert as a^(q-2).

All linear algebra runs on one routine, :class:`Elimination`: greedy
incremental elimination of sparse int-encoded rows, pivoting on each
kept row's least key.  It records the labels of the kept (independent)
rows in input order and stores each kept row in a dict under its
pivot, scaled so that its pivot entry is -1.  A new row is reduced as in
the standard column algorithm of persistence (Edelsbrunner, Letscher &
Zomorodian, DCG 2002; PHAT, Bauer et al., JSC 2017): look up the stored
row of its least key, clear that key by adding the row times the
key's entry (one multiply-add per entry), and stop at the first least
key that has no stored row.
Elimination keeps no certificates, so :func:`greedy_kept` (the kept
set alone) and :func:`matrix_rank` pay only for the reduction;
:func:`greedy_kept` given the dimension of a space holding every row
stops drawing rows once it has kept that many.
:func:`greedy_basis` also returns for every dropped row its
coordinates over the kept rows.  It gets them from one more pass of the
same elimination, over the rows each extended by a unit entry under a
tag key of its own that sorts after every real key: the tags of a
dropped row's remainder are its coordinates, negated.  Both the kept
rows and the coordinates are unique, so they are those of a full
reduction.  ``SpanBasis`` inserts or only reduces vectors, for span
membership, which ``reps`` checks on neighbourhood spans; ``polys``
selects boundary rows keyed by face bitmask or polynomials keyed by monomial,
and reads their certificates only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .config import Ceilings, DEFAULT_CEILINGS
from .errors import CeilingError, InvariantViolation

_ROOT_SCAN_LIMIT = 100_000


# Miller-Rabin on the first 12 primes as bases decides every p below the
# least composite that passes all twelve (Jiang & Deng, Math. Comp. 2014)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def is_prime(p: int) -> bool:
    """Deterministic primality for p < 3.18e23; larger p raise ValueError."""
    if p < 2:
        return False
    if p >= _MR_LIMIT:
        raise ValueError(f"primality is decided only below {_MR_LIMIT}, got {p}")
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# -- polynomial helpers over GF(p), coefficients low-to-high ---------------

def _is_digits(coeffs: Sequence[int], p: int) -> bool:
    """Whether every entry is an int in [0, p), a coefficient over GF(p)."""
    return all(type(c) is int and 0 <= c < p for c in coeffs)


def _poly_mod(a: list[int], mod: Sequence[int], p: int) -> list[int]:
    """`a` reduced modulo the monic `mod`, as deg(mod) coefficients; `a` is consumed."""
    deg = len(mod) - 1
    for i in range(len(a) - 1, deg - 1, -1):
        c = a[i]
        if c:
            for j in range(deg):
                a[i - deg + j] = (a[i - deg + j] - c * mod[j]) % p
    a = a[:deg]
    return a + [0] * (deg - len(a))


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_mod(out, mod, p)


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd over GF(p) of the monic `a` and any `b`."""
    while any(b):
        b = b[: max(i for i, c in enumerate(b) if c) + 1]
        lead_inv = pow(b[-1], -1, p)
        b = [c * lead_inv % p for c in b]
        a, b = b, _poly_mod(list(a), b, p)
    return list(a)


def _poly_is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Ben-Or's test: a monic f of degree m >= 1 is irreducible over GF(p)
    iff gcd(x^(p^i) - x, f) = 1 for i = 1..m/2, because x^(p^i) - x is
    the product of the monic irreducibles of degree dividing i.  Most
    reducible f have a small factor and fail at a small i.  Residues mod
    f are taken as ``to_index`` ints."""
    m = len(poly) - 1

    def mul(a: int, b: int) -> int:
        return _index(_poly_mulmod(_digits(a, p, m), _digits(b, p, m), poly, p), p)

    x = _poly_mod([0, 1], poly, p)
    power = _index(x, p)
    for _ in range(m // 2):
        power = _int_pow(mul, power, p)  # x^(p^i) mod f
        diff = [(a - b) % p for a, b in zip(_digits(power, p, m), x)]
        if _poly_gcd(poly, diff, p) != [1]:
            return False
    return True


@lru_cache(maxsize=None)
def _first_irreducible(p: int, m: int) -> tuple[int, ...]:
    # tail is (c_0, ..., c_{m-1}) in ascending lexicographic order; above
    # degree 1, x is a proper factor when c_0 = 0, so c_0 starts at 1
    for tail in product(range(m > 1, p), *[range(p)] * (m - 1)):
        candidate = list(tail) + [1]
        if _poly_is_irreducible(candidate, p):
            return tuple(candidate)
    raise InvariantViolation("an irreducible polynomial of every degree exists")


# ---------------------------------------------------------------------------
# FieldSpec / FieldElement
# ---------------------------------------------------------------------------

def _digits(index: int, p: int, m: int) -> list[int]:
    """The m base-p digits of `index`, low first: the coefficients it encodes."""
    coeffs = []
    for _ in range(m):
        index, c = divmod(index, p)
        coeffs.append(c)
    return coeffs


def _index(coeffs: Sequence[int], p: int) -> int:
    """Inverse of :func:`_digits`."""
    index = 0
    for c in reversed(coeffs):
        index = index * p + c
    return index


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^m) presented as GF(p)[x] modulo a monic irreducible of degree m."""

    p: int
    m: int
    irreducible: tuple[int, ...]  # length m+1, low-to-high, monic

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if not 1 <= self.m:
            raise ValueError("extension degree must be >= 1")
        if len(self.irreducible) != self.m + 1 or self.irreducible[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if not _is_digits(self.irreducible, self.p):
            raise ValueError(f"modulus coefficients must be ints in [0, {self.p})")
        if self.m > 1 and not _poly_is_irreducible(self.irreducible, self.p):
            raise ValueError("modulus is reducible")

    @property
    def order(self) -> int:
        return self.p ** self.m

    @cached_property
    def ops(self) -> "IntField":
        """:func:`int_field` of this spec, looked up once per spec object."""
        return int_field(self)

    # -- element constructors ------------------------------------------

    def element(self, coeffs: Sequence[int]) -> "FieldElement":
        """The element with these coefficients over GF(p), low first."""
        if len(coeffs) != self.m or not _is_digits(coeffs, self.p):
            raise ValueError(f"need {self.m} coefficients, ints in [0, {self.p})")
        return FieldElement(self, _index(coeffs, self.p))

    def from_int(self, value: int) -> "FieldElement":
        """Constant embedding of an integer (value mod p)."""
        return FieldElement(self, value % self.p)

    def from_index(self, index: int) -> "FieldElement":
        """Canonical enumeration: index digits base p, low coefficient first."""
        if not 0 <= index < self.order:
            raise ValueError(f"index {index} out of range for order {self.order}")
        return FieldElement(self, index)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"


class FieldElement:
    """Immutable element of a FieldSpec: a view of its ``to_index`` int,
    with the spec's :func:`int_field` as its arithmetic."""

    __slots__ = ("spec", "_index")

    def __init__(self, spec: FieldSpec, index: int):
        self.spec = spec
        self._index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients over GF(p), low to high."""
        return tuple(_digits(self._index, self.spec.p, self.spec.m))

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.spec, self.spec.ops.add(self._index, other._index))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        ops = self.spec.ops
        return FieldElement(self.spec, ops.add(self._index, ops.neg(other._index)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.ops.neg(self._index))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.spec, self.spec.ops.mul(self._index, other._index))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.ops.inv(self._index))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "FieldElement":
        ops = self.spec.ops
        base = ops.inv(self._index) if exponent < 0 else self._index
        return FieldElement(self.spec, _int_pow(ops.mul, base, abs(exponent)))

    def is_zero(self) -> bool:
        return not self._index

    def to_index(self) -> int:
        return self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self._index == other._index
            and self.spec == other.spec
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.m, self._index))

    def __repr__(self):
        if self.spec.m == 1:
            return str(self._index)
        return "(" + ",".join(map(str, self.coeffs)) + ")"


def field_make(p: int, m: int, *, ceilings: Ceilings = DEFAULT_CEILINGS) -> FieldSpec:
    """GF(p^m) with the lexicographically first monic irreducible modulus."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= m <= ceilings.field_degree:
        raise CeilingError(f"extension degree must be in [1, {ceilings.field_degree}]")
    return FieldSpec(p, m, _first_irreducible(p, m))


def _eval_base_poly(ops: "IntField", coeffs: Sequence[int], point: int) -> int:
    """Index of sum_i coeffs[i] * point^i, each coefficient read as a
    constant of the field (the constant c has index c)."""
    acc = 0
    for c in reversed(coeffs):
        acc = ops.add(ops.mul(acc, point), c)
    return acc


def field_extension_above(
    base: FieldSpec, threshold: int, *, ceilings: Ceilings = DEFAULT_CEILINGS
) -> tuple[FieldSpec, Callable[[FieldElement], FieldElement]]:
    """Smallest extension GF(p^(m*l)) whose order exceeds `threshold`.

    Returns the extension spec together with an explicit embedding of
    the base, a function that refuses elements of any other field.  If
    the base order already exceeds the threshold, the base itself is
    returned with the identity embedding.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    l = 1
    while base.order ** l <= threshold:
        l += 1
    degree = base.m * l
    if degree > ceilings.field_degree:
        raise CeilingError(
            f"extension degree {degree} exceeds ceiling {ceilings.field_degree}"
        )
    ext = base if l == 1 else field_make(base.p, degree, ceilings=ceilings)
    # the index of the image of the base generator
    if base.m == 1:
        image = 1  # constants embed as constants
    elif l == 1:
        image = base.p  # the class of x: the identity
    else:
        if ext.order > _ROOT_SCAN_LIMIT:
            raise CeilingError(
                f"root scan for embedding limited to order {_ROOT_SCAN_LIMIT}"
            )
        # send the base generator to the first root of the base modulus in ext
        for image in range(ext.order):
            if not _eval_base_poly(ext.ops, base.irreducible, image):
                break
        else:
            raise InvariantViolation("base modulus must split in a degree-multiple extension")

    def embed(elt: FieldElement) -> FieldElement:
        if elt.spec != base:
            raise ValueError("element not from the base field")
        return FieldElement(ext, _eval_base_poly(ext.ops, elt.coeffs, image))

    return ext, embed


# ---------------------------------------------------------------------------
# Int-encoded arithmetic
# ---------------------------------------------------------------------------

class IntField(NamedTuple):
    """Arithmetic of one field on ``to_index`` integers; see :func:`int_field`."""

    add: Callable[[int, int], int]
    neg: Callable[[int], int]
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]


@lru_cache(maxsize=None)
def int_field(spec: FieldSpec) -> IntField:
    """Int-encoded arithmetic of `spec`, built on first use and cached."""
    if spec.m == 1:
        return _prime_int_field(spec)
    if spec.order <= _ROOT_SCAN_LIMIT:
        return _table_int_field(spec)
    return _poly_int_field(spec)


def _int_pow(mul: Callable[[int, int], int], a: int, exponent: int) -> int:
    """a^exponent for exponent >= 0, by square and multiply."""
    result = 1
    while exponent:
        if exponent & 1:
            result = mul(result, a)
        a = mul(a, a)
        exponent >>= 1
    return result


def _prime_int_field(spec: FieldSpec) -> IntField:
    p = spec.p

    def inv(a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(a, -1, p)

    return IntField(
        add=lambda a, b: (a + b) % p,
        neg=lambda a: -a % p,
        mul=lambda a, b: a * b % p,
        inv=inv,
    )


def _poly_int_field(spec: FieldSpec) -> IntField:
    """Extension-field arithmetic on the coefficients each index encodes:
    digit-wise sums, products by :func:`_poly_mulmod`, and the inverse
    as a^(q-2)."""
    p, m, modulus = spec.p, spec.m, spec.irreducible

    def add(a: int, b: int) -> int:
        return _index([(x + y) % p for x, y in zip(_digits(a, p, m), _digits(b, p, m))], p)

    def mul(a: int, b: int) -> int:
        return _index(_poly_mulmod(_digits(a, p, m), _digits(b, p, m), modulus, p), p)

    def inv(a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return _int_pow(mul, a, spec.order - 2)

    return IntField(
        add=add,
        neg=lambda a: _index([-x % p for x in _digits(a, p, m)], p),
        mul=mul,
        inv=inv,
    )


def _table_int_field(spec: FieldSpec) -> IntField:
    mul = _poly_int_field(spec).mul
    n = spec.order - 1
    # the first element, by index, whose powers reach every nonzero element:
    # g is primitive iff g^(n/r) != 1 for every prime r dividing n
    primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
    for g in range(2, spec.order):
        if all(_int_pow(mul, g, n // r) != 1 for r in primes):
            break
    # walk the powers on coefficient lists, converting each to its index once
    step = _digits(g, spec.p, spec.m)
    powers, power = [1], step
    while (index := _index(power, spec.p)) != 1:
        powers.append(index)
        power = _poly_mulmod(power, step, spec.irreducible, spec.p)
    exp = powers + powers  # doubled, so that log a + log b indexes it unreduced
    log = [0] * spec.order
    for e, index in enumerate(powers):
        log[index] = e
    # zech[e] = log(1 + g^e), None where 1 + g^e = 0; adding one moves only
    # the constant coefficient, which is the lowest base-p digit of the index
    zech: list[int | None] = []
    for index in powers:
        c = index % spec.p
        total = index - c + (c + 1) % spec.p
        zech.append(log[total] if total else None)
    minus_one = log[spec.p - 1]  # -1 is the constant p - 1

    def add(a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        z = zech[(log[b] - la) % n]
        return 0 if z is None else exp[la + z]

    def inv(a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return exp[n - log[a]]

    return IntField(
        add=add,
        neg=lambda a: exp[log[a] + minus_one] if a else 0,
        mul=lambda a, b: exp[log[a] + log[b]] if a and b else 0,
        inv=inv,
    )


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------

class Elimination:
    """Greedy incremental Gaussian elimination on sparse int-encoded rows.

    A row is a dict from sortable keys (column indices, monomials) to
    nonzero ``to_index`` ints.  :meth:`insert` keeps a row exactly when it
    lies outside the span of the rows kept before it, and stores its
    remainder under its pivot, its least key, scaled to pivot entry -1,
    so that clearing a key c adds c times the stored row.  No record of
    how a row was reduced is kept; :func:`greedy_basis` reads
    coordinates off tag entries instead.

    Every stored row has all its keys at or above its pivot, and the
    pivots are distinct, so every nonzero vector in the span has a
    stored pivot as its least key.  Reduction therefore only clears the
    least key while it is a pivot, and stops at the first least key that
    is not: the rest of the row cannot make it zero.  The kept rows of a
    greedy basis, and each dropped row's coordinates over them, are
    unique, so they do not depend on how far rows are reduced.
    """

    def __init__(self, spec: FieldSpec):
        self.ops = int_field(spec)
        self.kept: list = []  # labels of the kept rows, in insertion order
        self._rows: dict = {}  # pivot -> the reduced row, pivot entry -1

    def reduce(self, row: dict) -> dict:
        """Clear the least key of `row` while a kept row pivots on it, and
        return the remainder, empty exactly when `row` lies in the span."""
        add, mul = self.ops.add, self.ops.mul
        rows = self._rows
        rem = dict(row)
        while rem:
            pivot = min(rem)
            reduced = rows.get(pivot)
            if reduced is None:
                break
            coeff = rem[pivot]
            for key, val in reduced.items():
                acc = add(rem.get(key, 0), mul(coeff, val))
                if acc:
                    rem[key] = acc
                else:
                    rem.pop(key, None)
        return rem

    def insert(self, row: dict, label) -> bool:
        """Keep `row` under `label` and return True when it is outside the
        span of the kept rows; otherwise return False."""
        rem = self.reduce(row)
        if not rem:
            return False
        mul = self.ops.mul
        pivot = min(rem)
        scale = self.ops.neg(self.ops.inv(rem[pivot]))
        self.kept.append(label)
        self._rows[pivot] = {k: mul(v, scale) for k, v in rem.items()}
        return True


def int_vector(vec: Sequence[FieldElement]) -> dict[int, int]:
    """`vec` as an :class:`Elimination` row: position -> nonzero ``to_index``."""
    return {j: i for j, x in enumerate(vec) if (i := x.to_index())}


def greedy_kept(spec: FieldSpec, rows: Iterable[dict], rank: Optional[int] = None) -> list[int]:
    """Indices of the int-encoded `rows` that a greedy basis keeps, in order.

    `rank`, when given, is the dimension of a space that holds every row:
    once that many rows are kept they span it, so every later row would
    be dropped, and none is drawn from `rows`.
    """
    elim = Elimination(spec)
    for i, row in enumerate(rows):
        if elim.insert(row, i) and len(elim.kept) == rank:
            break
    return elim.kept


def greedy_basis(spec: FieldSpec, rows: Iterable[dict]) -> tuple[list[int], dict[int, dict]]:
    """Greedy basis of the int-encoded `rows`: the indices kept, in order,
    and for every other row its int-encoded coordinates over the kept ones.

    Row i is reduced with a unit entry under its tag, a key after every
    key of every row, the tags in row order.  The stored rows then carry
    their expressions over the kept rows in their tags, and a remainder
    whose least key is a tag is a dropped row: row i plus the tagged
    combination of kept rows is zero.
    """
    rows = list(rows)
    top = max((key for row in rows for key in row), default=None)
    if top is None:  # only zero rows, each the empty combination
        return [], {i: {} for i in range(len(rows))}
    # an int key is followed by larger ints, a tuple key by its extensions
    if isinstance(top, int):
        tags = range(top + 1, top + 1 + len(rows))
    else:
        tags = [top + (i,) for i in range(len(rows))]
    label = dict(zip(tags, range(len(rows))))
    elim = Elimination(spec)
    neg = elim.ops.neg
    coordinates = {}
    for i, row in enumerate(rows):
        rem = elim.reduce({**row, tags[i]: 1})
        if min(rem) <= top:
            elim.insert(rem, i)  # already reduced: stored as it is
        else:
            del rem[tags[i]]
            coordinates[i] = {label[tag]: neg(val) for tag, val in rem.items()}
    return elim.kept, coordinates


def matrix_rank(spec: FieldSpec, rows: Iterable[Sequence[FieldElement]]) -> int:
    """Rank of the given rows of field elements."""
    return len(greedy_kept(spec, map(int_vector, rows)))


class SpanBasis:
    """Incremental row-space membership tester over one :class:`Elimination`."""

    def __init__(self, spec: FieldSpec):
        self._elim = Elimination(spec)

    def contains(self, vec: Sequence[FieldElement]) -> bool:
        return not self._elim.reduce(int_vector(vec))

    def add(self, vec: Sequence[FieldElement]) -> bool:
        """Insert vec; returns False when it was already in the span."""
        return self._elim.insert(int_vector(vec), self.rank)

    @property
    def rank(self) -> int:
        return len(self._elim.kept)
