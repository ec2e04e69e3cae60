"""Projective points, linear maps, Cremona involutions and curves."""

import random
from fractions import Fraction

import pytest

from cremona.arith import BigFloat, NumberField, NumberFieldElement
from cremona.geometry import (
    OO,
    IndeterminacyError,
    LinearMap,
    ProjectivePoint,
    apply_J,
    apply_J_multi,
    apply_linear,
    gamma_eval,
    products_of_others,
)
from cremona.polynomials import IntegerPolynomial


def P(*coords):
    return ProjectivePoint([Fraction(c) for c in coords])


def test_point_equality_up_to_scale():
    assert P(1, 2, 3) == P(2, 4, 6)
    assert P(1, 2, 3) != P(1, 2, 4)
    assert P(1, 0, 0) == ProjectivePoint.standard_basis(0, 2)


def test_exact_distance_is_zero_or_one():
    # aligned exact vectors agree entry by entry exactly when the points are
    # equal, a negative scale included
    assert P(1, 2, 3).distance(P(-2, -4, -6)) == 0
    assert P(0, -1, 5).distance(P(0, 3, -15)) == 0
    assert P(1, 2, 3).distance(P(-1, -2, 3)) == 1
    assert P(1, 2, 3).distance(P(1, 2, 4)) == 1
    assert P(0, 1, 0).distance(P(1, 0, 0)) == 1


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        ProjectivePoint([0, 0, 0])
    with pytest.raises(ValueError):
        ProjectivePoint([])
    with pytest.raises(ValueError):
        ProjectivePoint([BigFloat(0, 256)] * 3)
    # tiny but not 0: the image of a normalized point under J can be this
    # small (mpf exponents are unbounded)
    tiny = BigFloat(1, 256) / 2 ** 300
    point = ProjectivePoint([tiny, tiny * 3, -tiny])
    assert point == ProjectivePoint([BigFloat(1, 256), BigFloat(3, 256), BigFloat(-1, 256)])


def test_float_zero_pattern_counts_only_exact_zeros():
    tiny = BigFloat(1e-30, 64)
    assert ProjectivePoint([BigFloat(1, 64), tiny, -tiny]).zero_pattern() == ()
    zero = BigFloat(0, 64)
    assert ProjectivePoint([zero, tiny, zero]).zero_pattern() == (0, 2)


def test_float_point_equality():
    a = ProjectivePoint([BigFloat(1, 128), BigFloat(2, 128)])
    b = ProjectivePoint([BigFloat(-0.5, 128), BigFloat(-1, 128)])
    assert a.eq(b)


def test_normalized_divides_by_the_leading_entry():
    p = P(0, 6, 9, 15).normalized()
    assert p.coords == (0, 1, Fraction(3, 2), Fraction(5, 2))
    q = P(1, 6, 9)
    assert q.normalized() is q


def test_j_involution_on_random_points():
    rng = random.Random(7)
    for _ in range(500):
        k = rng.choice((2, 3, 4))
        coords = [Fraction(rng.randint(1, 40), rng.randint(1, 9)) for _ in range(k + 1)]
        p = ProjectivePoint(coords)
        assert apply_J(apply_J(p)) == p


def test_j_indeterminate_on_codim2():
    with pytest.raises(IndeterminacyError):
        apply_J(P(1, 0, 0))


def test_j_contracts_hyperplane():
    # {x_1 = 0} goes to e_1
    assert apply_J(P(3, 0, 5)) == ProjectivePoint.standard_basis(1, 2)


def _naive_products(xs):
    out = []
    for i in range(len(xs)):
        others = [x for j, x in enumerate(xs) if j != i]
        acc = others[0]
        for x in others[1:]:
            acc = acc * x
        out.append(acc)
    return out


# Lehmer's polynomial: a field of degree 10
LEHMER_FIELD = NumberField(
    IntegerPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]))


@pytest.mark.parametrize("kind", ["fraction", "field", "bigfloat"])
def test_products_of_others_match_naive_products(kind):
    rng = random.Random(11)

    def draw():
        if rng.random() < 0.2:
            value = [0]
        else:
            value = [rng.randint(-9, 9) for _ in range(3)]
        if kind == "field":
            return LEHMER_FIELD.element(value)
        x = Fraction(value[0], rng.randint(1, 9))
        return x if kind == "fraction" else BigFloat(x, 128)

    for n in range(3, 14):
        for zeros in (0, 1, 2):
            xs = [draw() for _ in range(n)]
            for i in rng.sample(range(n), zeros):
                xs[i] = xs[i] * 0
            got, want = products_of_others(xs), _naive_products(xs)
            if kind == "bigfloat":
                assert all(abs(g - w) <= abs(w) * 2.0 ** -120
                           for g, w in zip(got, want)), n
            else:
                assert got == want, n


def test_j_at_k12_makes_at_most_33_multiplications(monkeypatch):
    # all-but-one products by prefix and suffix: 3k - 3 at k = 12, where a
    # product per coordinate takes (k + 1)(k - 1) = 143
    gen = LEHMER_FIELD.gen()
    p = ProjectivePoint([gen + i for i in range(13)])
    count = []
    mul = NumberFieldElement.__mul__
    monkeypatch.setattr(NumberFieldElement, "__mul__",
                        lambda a, b: count.append(1) or mul(a, b))
    image = apply_J(p)
    assert len(count) <= 33
    monkeypatch.undo()
    assert list(image.coords) == _naive_products(p.coords)


def test_j_multi_reduces_to_involution():
    p = P(2, 3, 5)
    (img,) = apply_J_multi([p])
    assert img == apply_J(p)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_j_multi_roundtrip(m):
    # J_m(x, y_1, .., y_{m-1}) = (u_1, .., u_{m-1}, v) with u_i = y_i/x and
    # v = 1/x; then J_m(v, u_1, .., u_{m-1}) = (y_1, .., y_{m-1}, x), the
    # input rotated by one
    point = [P(2, 3, 5), P(1, 4, 9), P(7, 1, 2)][:m]
    *us, v = apply_J_multi(point)
    assert apply_J_multi([v, *us]) == point[1:] + point[:1]


def test_j_multi_keeps_a_tiny_float_factor():
    # every coordinate of J(x) is 1e-20, and of y/x about as small: tiny,
    # but not 0
    x = ProjectivePoint([BigFloat(1e-10, 64)] * 3)
    y = ProjectivePoint([BigFloat(c, 64) for c in (1, 2, 3)])
    ratio, rec = apply_J_multi([x, y])
    assert all(1e-21 < float(c) < 1e-19 for c in rec.coords)
    assert all(1e-21 < float(c) < 1e-19 * 4 for c in ratio.coords)
    assert ratio == y


def test_j_biproj_contracts_to_diagonal_points():
    # {x_j = 0} in the first factor contracts to (e_j, e_j)
    img = apply_J_multi([P(3, 0, 5), P(1, 4, 9)])
    e1 = ProjectivePoint.standard_basis(1, 2)
    assert img == [e1, e1]


def test_linear_map_inverse_and_column():
    m = LinearMap([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]])
    assert (m @ m.inverse()).matrix == ((1, 0), (0, 1))
    assert m.column(1) == P(2, 1)
    singular = LinearMap([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    with pytest.raises(ValueError):
        singular.inverse()


def test_integer_matrix_inverts_exactly():
    m = LinearMap([[3, 1], [1, 1]])
    det = m.determinant()
    assert det == 2 and isinstance(det, Fraction)
    inv = m.inverse()
    assert inv.matrix == ((Fraction(1, 2), Fraction(-1, 2)),
                          (Fraction(-1, 2), Fraction(3, 2)))
    assert all(isinstance(c, Fraction) for row in inv.matrix for c in row)


def test_apply_linear():
    m = LinearMap([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert apply_linear(m, P(2, 3)) == P(3, 2)


def test_gamma_and_param_roundtrip():
    # the parameter is x_1 / x_0, and the cusp is e_k
    for k in (2, 3, 4):
        for t in (Fraction(0), Fraction(2), Fraction(-5, 3)):
            x = gamma_eval(t, k).coords
            assert x[0] == 1 and x[1] / x[0] == t
        assert gamma_eval(OO, k) == ProjectivePoint.standard_basis(k, k)


def test_gamma_shape():
    p = gamma_eval(Fraction(2), 3)
    assert p.coords == (1, 2, 4, 16)  # [1 : t : t^2 : t^4] at k=3

