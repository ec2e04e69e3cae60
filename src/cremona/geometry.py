"""Projective points, linear maps, the standard Cremona involutions and the
invariant curves.

Scalars are generic: exact (Fraction / NumberFieldElement) or BigFloat; the
scalar protocol in ``arith`` is what tells them apart.  Projective equality
is scale-free: the two coordinate vectors are rescaled against each other
(``arith.align``) and compared entry by entry, exactly or within the float
tolerance.

The involution is applied in polynomial form (coordinate i of J(x) is the
product of the other coordinates), so it is defined on the coordinate
hyperplanes; the output degenerates to the zero vector exactly on the
codimension-two indeterminacy locus.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence, Union

from .arith import (
    BigFloat,
    NumberFieldElement,
    align,
    close,
    dot,
    gap,
    inverse,
    is_exact,
    normalize,
    one_like,
)


class IndeterminacyError(Exception):
    """The map is undefined at the given point."""


class _Infinity:
    """Distinguished curve parameter for the cusp; never enters arithmetic."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "oo"


OO = _Infinity()

Scalar = Union[int, Fraction, NumberFieldElement, BigFloat]
CurveParam = Union[Scalar, _Infinity]


class ProjectivePoint:
    """Homogeneous coordinate vector, equal up to global scaling."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence):
        coords = tuple(coords)
        if not coords:
            raise ValueError("empty coordinate vector")
        # only an exactly zero vector is refused: a float image under J, a
        # product of k coordinates, can be tiny and still not 0
        if not any(coords):
            raise ValueError("all coordinates zero")
        self.coords = coords

    @classmethod
    def standard_basis(cls, j: int, k: int, one=1) -> "ProjectivePoint":
        coords = [one * 0] * (k + 1)
        coords[j] = one
        return cls(coords)

    def distance(self, other: "ProjectivePoint"):
        """Scale-free distance as a scalar.  Exact vectors are aligned to
        agree entry by entry exactly when the points are equal, so exact
        points are 0 apart when equal and 1 otherwise; float points are the
        largest entry gap (``arith.gap``) between the aligned vectors, the
        better of the two sign choices."""
        a, b = align(self.coords, other.coords)
        if all(map(is_exact, a + b)):
            return int(a != b)
        return min(max(map(gap, a, b)), max(gap(x, -y) for x, y in zip(a, b)))

    def eq(self, other: "ProjectivePoint") -> bool:
        """Projective equality: exact, or within the float tolerance."""
        return len(self.coords) == len(other.coords) and close(
            self.distance(other), 0
        )

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.eq(other)

    def __repr__(self):
        return "[" + " : ".join(repr(c) for c in self.coords) + "]"

    def zero_pattern(self) -> tuple:
        return tuple(i for i, c in enumerate(self.coords) if not c)

    def normalized(self) -> "ProjectivePoint":
        """The point with its coordinates rescaled (``arith.normalize``) to
        keep their size under control: a unit leading coordinate for exact
        coordinates, the largest modulus divided out for floats.  Returns
        self when the coordinates already have that form."""
        coords = normalize(self.coords)
        return self if coords is self.coords else ProjectivePoint(coords)


class LinearMap:
    """(k+1) x (k+1) matrix acting on projective points.  The constructor
    does not test invertibility: ``construct`` certifies its matrices by
    closed-form determinants, and ``inverse`` raises on a singular one."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        rows = tuple(tuple(r) for r in matrix)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.matrix = rows

    @property
    def size(self) -> int:
        return len(self.matrix)

    def _gauss_jordan(self):
        """One Gauss–Jordan pass on [M | I]: the pivots, each negated when
        its column needed a row swap, and the rows of M^-1.  When a column
        has no pivot the pass stops with a zero pivot and no rows."""
        n = self.size
        one = one_like(self.matrix[0][0])
        aug = [
            list(row) + [one if i == j else one * 0 for j in range(n)]
            for i, row in enumerate(self.matrix)
        ]
        pivots = []
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col]), None)
            if piv is None:
                return pivots + [one * 0], None
            aug[col], aug[piv] = aug[piv], aug[col]
            pval = aug[col][col]
            pivots.append(pval if piv == col else -pval)
            inv = inverse(pval)
            aug[col] = [c * inv for c in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [aug[r][j] - f * aug[col][j] for j in range(2 * n)]
        return pivots, [row[n:] for row in aug]

    def determinant(self):
        """The product of the signed Gauss–Jordan pivots."""
        return prod(self._gauss_jordan()[0], start=one_like(self.matrix[0][0]))

    def inverse(self) -> "LinearMap":
        rows = self._gauss_jordan()[1]
        if rows is None:
            raise ValueError("singular matrix")
        return LinearMap(rows)

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        cols = list(zip(*other.matrix))
        return LinearMap([[dot(row, col) for col in cols] for row in self.matrix])

    def column(self, j: int) -> ProjectivePoint:
        return ProjectivePoint([row[j] for row in self.matrix])

    def __repr__(self):
        return f"LinearMap({[list(r) for r in self.matrix]})"


def linear_product(m: LinearMap, p: ProjectivePoint) -> ProjectivePoint:
    """The image m p as it comes, each coordinate summed with ``dot``."""
    if m.size != len(p.coords):
        raise ValueError("dimension mismatch")
    return ProjectivePoint([dot(row, p.coords) for row in m.matrix])


def apply_linear(m: LinearMap, p: ProjectivePoint) -> ProjectivePoint:
    """The image m p, normalized (``ProjectivePoint.normalized``): the one
    rescaling of a map step, since ``apply_J`` and ``apply_J_multi`` leave
    their images as they come."""
    return linear_product(m, p).normalized()


# ---------------------------------------------------------------------------
# curves


def gamma_eval(t: CurveParam, k: int):
    """The degree-(k+1) cuspidal curve [1 : t : ... : t^{k-1} : t^{k+1}]."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if t is OO:
        return ProjectivePoint.standard_basis(k, k)
    return ProjectivePoint(curve_powers(t ** 0, t, k))


def curve_powers(a, t, k: int) -> list:
    """[a, a t, ..., a t^{k-1}, a t^{k+1}] by running products: k + 1
    multiplications, no powering."""
    coords = [a]
    for _ in range(k - 1):
        coords.append(coords[-1] * t)
    coords.append(coords[-1] * t * t)
    return coords


# ---------------------------------------------------------------------------
# Cremona involutions


def products_of_others(xs: Sequence) -> list:
    """[prod_{j != i} xs[j] for each i], for two or more entries, as prefix
    times suffix products: 3n - 6 multiplications for n entries and no
    division, so zero entries are fine."""
    prefix = [xs[0]]  # prefix[j] = prod_{i <= j} xs[i]
    for x in xs[1:-1]:
        prefix.append(prefix[-1] * x)
    out = [None] * len(xs)
    out[-1] = prefix[-1]
    suffix = xs[-1]  # prod_{i > j} xs[i]
    for j in range(len(xs) - 2, 0, -1):
        out[j] = prefix[j - 1] * suffix
        suffix = suffix * xs[j]
    out[0] = suffix
    return out


def apply_J(p: ProjectivePoint) -> ProjectivePoint:
    """Standard Cremona involution in polynomial form: coordinate i of the
    image is the product of the other coordinates (``products_of_others``).
    The image is not normalized; ``apply_linear`` normalizes the step that
    follows."""
    zeros = p.zero_pattern()
    if len(zeros) >= 2:
        raise IndeterminacyError(
            f"point lies on coordinate hyperplanes {zeros}; J is undefined"
        )
    return ProjectivePoint(products_of_others(p.coords))


def apply_J_multi(factors: Sequence[ProjectivePoint]) -> list:
    """The map J_m of (P^k)^m, (x, y1, .., y_{m-1}) -> (y1/x, .., 1/x), in
    polynomial form: 1/x is ``apply_J(x)`` and y_i/x its coordinatewise
    product with y_i.  For m = 1 this is the standard involution.  The
    factors are not normalized, as in ``apply_J``."""
    x, *ys = factors
    rec = apply_J(x)
    out = []
    for y in ys:
        comp = [a * b for a, b in zip(y.coords, rec.coords)]
        if not any(comp):
            raise IndeterminacyError("output factor degenerated to zero")
        out.append(ProjectivePoint(comp))
    out.append(rec)
    return out

