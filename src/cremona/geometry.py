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
from typing import Sequence, Union

from .arith import (
    BigFloat,
    NumberFieldElement,
    align,
    close,
    dot,
    gap,
    inverse,
    is_zero,
    normalize,
    one_like,
)


class GeometryError(Exception):
    pass


class IndeterminacyError(GeometryError):
    """The map is undefined at the given point."""


class NotOnCurveError(GeometryError):
    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"coordinate {index} violates the curve equations")

    def __reduce__(self):
        return type(self), (self.index, str(self))


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
        if all(map(is_zero, coords)):
            raise ValueError("all coordinates zero")
        self.coords = coords

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    @classmethod
    def standard_basis(cls, j: int, k: int, one=1) -> "ProjectivePoint":
        coords = [one * 0] * (k + 1)
        coords[j] = one
        return cls(coords)

    def distance(self, other: "ProjectivePoint"):
        """Scale-free distance as a scalar: the largest entry gap
        (``arith.gap``) between the aligned coordinate vectors, the better of
        the two sign choices.  Exact points are 0 apart when equal and 1
        otherwise."""
        a, b = align(self.coords, other.coords)
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

    def __hash__(self):
        raise TypeError("projective points are not hashable")

    def __repr__(self):
        return "[" + " : ".join(repr(c) for c in self.coords) + "]"

    def zero_pattern(self) -> tuple:
        return tuple(i for i, c in enumerate(self.coords) if is_zero(c))

    def normalized(self) -> "ProjectivePoint":
        """The point with its coordinates rescaled (``arith.normalize``) to
        keep their size under control: a unit leading coordinate when an
        exact coordinate is irrational, the rational content divided out
        when all are rational, the largest modulus divided out for floats.
        Returns self when the coordinates already have that form."""
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

    @classmethod
    def identity(cls, n: int, one=1) -> "LinearMap":
        return cls([[one if i == j else one * 0 for j in range(n)] for i in range(n)])

    def determinant(self):
        """Gaussian elimination over the scalar field."""
        n = self.size
        m = [list(r) for r in self.matrix]
        det = one_like(m[0][0])
        for col in range(n):
            piv = next((r for r in range(col, n) if not is_zero(m[r][col])), None)
            if piv is None:
                return det * 0
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                det = -det
            pval = m[col][col]
            det = det * pval
            inv = inverse(pval)
            for r in range(col + 1, n):
                f = m[r][col] * inv
                if is_zero(f):
                    continue
                m[r] = [m[r][j] - f * m[col][j] for j in range(n)]
        return det

    def inverse(self) -> "LinearMap":
        n = self.size
        one = one_like(self.matrix[0][0])
        aug = [
            list(row) + [one if i == j else one * 0 for j in range(n)]
            for i, row in enumerate(self.matrix)
        ]
        for col in range(n):
            piv = next((r for r in range(col, n) if not is_zero(aug[r][col])), None)
            if piv is None:
                raise ValueError("singular matrix")
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = inverse(aug[col][col])
            aug[col] = [c * inv for c in aug[col]]
            for r in range(n):
                if r != col and not is_zero(aug[r][col]):
                    f = aug[r][col]
                    aug[r] = [aug[r][j] - f * aug[col][j] for j in range(2 * n)]
        return LinearMap([row[n:] for row in aug])

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        n = self.size
        return LinearMap(
            [
                [
                    sum((self.matrix[i][l] * other.matrix[l][j] for l in range(n)))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def column(self, j: int) -> ProjectivePoint:
        return ProjectivePoint([row[j] for row in self.matrix])

    def __repr__(self):
        return f"LinearMap({[list(r) for r in self.matrix]})"


def apply_linear(m: LinearMap, p: ProjectivePoint) -> ProjectivePoint:
    """The image m p, normalized (``ProjectivePoint.normalized``): the one
    rescaling of a map step, since ``apply_J`` and ``apply_J_multi`` leave
    their images as they come."""
    if m.size != len(p.coords):
        raise ValueError("dimension mismatch")
    return ProjectivePoint([dot(row, p.coords) for row in m.matrix]).normalized()


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


def curve_point(t: CurveParam, k: int, factors: int) -> list:
    """The invariant curve in (P^k)^factors: factor i is gamma(t - i), so
    t = oo is the cusp in every factor."""
    return [gamma_eval(t if t is OO else t - i, k) for i in range(factors)]


def param_recover(p: ProjectivePoint, k: int) -> CurveParam:
    """Invert gamma_eval; raises NotOnCurveError if p is off the curve."""
    cusp = ProjectivePoint.standard_basis(k, k)
    if p.eq(cusp):
        return OO
    x0 = p.coords[0]
    if is_zero(x0):
        raise NotOnCurveError(0, "x0 = 0 but the point is not the cusp")
    t = p.coords[1] / x0
    expected = gamma_eval(t, k)
    if not p.eq(expected):
        for j in range(k + 1):
            if not close(p.coords[j] * expected.coords[0],
                         expected.coords[j] * p.coords[0]):
                raise NotOnCurveError(j)
        raise NotOnCurveError(None, "not on curve within tolerance")
    return t


# ---------------------------------------------------------------------------
# Cremona involutions


def apply_J(p: ProjectivePoint) -> ProjectivePoint:
    """Standard Cremona involution in polynomial form: coordinate i of the
    image is the product of the other coordinates.  The image is not
    normalized; ``apply_linear`` normalizes the step that follows."""
    zeros = p.zero_pattern()
    if len(zeros) >= 2:
        raise IndeterminacyError(
            f"point lies on coordinate hyperplanes {zeros}; J is undefined"
        )
    n = len(p.coords)
    out = []
    for i in range(n):
        prod = None
        for j in range(n):
            if j != i:
                prod = p.coords[j] if prod is None else prod * p.coords[j]
        out.append(prod)
    return ProjectivePoint(out)


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
        if all(map(is_zero, comp)):
            raise IndeterminacyError("output factor degenerated to zero")
        out.append(ProjectivePoint(comp))
    out.append(rec)
    return out


# ---------------------------------------------------------------------------
# concurrent lines


def concurrent_line_membership(p: ProjectivePoint, k: int):
    """Locate p on the union of the k+1 lines through [1:...:1] and the
    coordinate points.

    The line through [1:...:1] and e_j consists of the points whose
    coordinates agree in every slot except j.  Returns (j, t) pairs with
    t the slot-j coordinate over the common value (OO at e_j itself, None
    at the concurrence point, which lies on every line).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    ones = ProjectivePoint([one_like(p.coords[0])] * (k + 1))
    if p.eq(ones):
        return [(j, None) for j in range(k + 1)]
    matches = []
    for j in range(k + 1):
        others = [p.coords[i] for i in range(k + 1) if i != j]
        if not all(close(others[0], c) for c in others[1:]):
            continue
        common = others[0]
        matches.append((j, OO if is_zero(common) else p.coords[j] / common))
    if not matches:
        raise NotOnCurveError(None, "point is not on the union of lines")
    return matches

