"""Orbit-data verification, curve invariance, distinctness, lines orbits."""

import dataclasses
from fractions import Fraction
from math import prod

import pytest

from cremona import verify
from cremona.arith import NumberField, one_like
from cremona.construct import (
    CoxeterConstruction,
    ExceptionalPairError,
    build_L_lines,
    center_matrix,
    construct_biproj,
    construct_lines,
    construct_pk,
    curve_fixing_map,
)
from cremona.geometry import (
    LinearMap,
    ProjectivePoint,
    apply_J,
    apply_J_multi,
    linear_product,
    products_of_others,
)
from cremona.polynomials import IntegerPolynomial
from cremona.verify import (
    VerificationError,
    blown_point_params,
    verify_curve_invariance,
    verify_distinctness,
    verify_lines_orbit,
    verify_orbit,
)


def centers(c):
    """(T, S), the exact center matrices of every factor i, built from the
    construction's parameters: T_i on t^+ - i and S_i on s - i."""
    factors = range(len(c.L))
    return ([center_matrix(c.k, [t - i for t in c.t_plus]) for i in factors],
            [center_matrix(c.k, [s - i for s in c.s_params]) for i in factors])


def test_pk_2_8_exact_all_pass():
    c = construct_pk(2, 8)
    rep = verify_orbit(c, backend="exact")
    assert rep.all_passed
    assert all(cond.residual == 0.0 for cond in rep.conditions)
    assert rep.distinct and rep.curve_invariant
    assert rep.multiplier_measured == c.delta


def test_pk_3_6_exact_pass():
    rep = verify_orbit(construct_pk(3, 6), backend="exact")
    assert rep.all_passed


def test_pk_float_backend_residuals():
    rep = verify_orbit(construct_pk(2, 8), backend="float", precision_bits=256)
    assert rep.all_passed
    assert max(cond.residual for cond in rep.conditions) < 2.0 ** -128


def test_biproj_exact_and_float():
    c = construct_biproj(2, 5)
    assert verify_orbit(c, backend="exact").all_passed
    rep = verify_orbit(c, backend="float", precision_bits=256)
    assert rep.all_passed
    assert max(cond.residual for cond in rep.conditions) < 2.0 ** -128


@pytest.mark.parametrize("backend, bits", [
    ("exact", 256), ("float", 64), ("float", 256),
])
@pytest.mark.parametrize("build, k, n", [
    (construct_pk, 2, 8), (construct_pk, 5, 15), (construct_biproj, 3, 8),
])
def test_perturbed_matrix_fails_closure(build, k, n, backend, bits):
    # a float point near a coordinate point is not taken for one, so a
    # perturbed L misses e0 on every backend; the curve check reads the same
    # L, so it fails too
    c = build(k, n)
    rows = [list(r) for r in c.L[0].matrix]
    rows[1][0] = rows[1][0] + Fraction(1, 5)  # knock one beta off
    broken = dataclasses.replace(c, L=[LinearMap(rows), *c.L[1:]])
    rep = verify_orbit(broken, backend=backend, precision_bits=bits)
    closure = next(
        cond for cond in rep.conditions if cond.name == "long orbit closes at e0"
    )
    assert not closure.passed
    assert rep.curve_invariant is False


def _walked_points(c) -> list:
    """(step, [coords per factor]) for points 1 .. n-1 of the exact walk
    that ``verify_orbit`` falls back to, on the L it prepares: a passing
    exact cell is decided by the curve identity and walks no point."""
    points = []

    def record(step, point):
        if step:
            points.append((step, [list(p.coords) for p in point]))

    end, dead = verify._walk(verify._prepare(c, "exact", 256).L, c.n - 1, record)
    assert dead is None
    record(c.n - 1, end)
    return points


def _max_residue_bits(points) -> int:
    return max(
        max(r.numerator.bit_length(), r.denominator.bit_length())
        for _, coords_list in points
        for coords in coords_list
        for c in coords
        for r in c.residue
    )


@pytest.mark.parametrize("build, k, n", [(construct_pk, 2, 20),
                                          (construct_biproj, 3, 8)])
def test_exact_orbit_heights_stay_bounded(build, k, n):
    # rescaling by the rational content alone let the heights reach 901,563
    # bits at pk (2, 20) and 41,679 bits at biproj (3, 8)
    c = build(k, n)
    rep = verify_orbit(c, backend="exact")
    assert rep.all_passed and rep.distinct and rep.curve_invariant
    assert _max_residue_bits(_walked_points(c)) <= 64


def test_normalized_orbit_is_the_unscaled_orbit():
    c = construct_pk(2, 8)
    points = _walked_points(c)
    L = c.L[0].matrix
    x = [row[c.k] for row in L]
    for step, (coords,) in points:
        jx = [x[(i + 1) % 3] * x[(i + 2) % 3] for i in range(3)]
        x = [sum((L[i][j] * jx[j] for j in range(3)), 0) for i in range(3)]
        assert ProjectivePoint(coords).eq(ProjectivePoint(x)), step
    assert len(points) == c.n - 1


def test_one_inversion_per_factor_per_orbit_step(monkeypatch):
    # apply_linear normalizes each factor once; the involutions rescale
    # nothing.  The orbit walks of every family share the step.
    from cremona import arith, verify
    from cremona.geometry import apply_J, apply_J_multi

    inversions = []
    real_invert, real_step = arith.nf_invert, verify._step_points

    def counting_invert(a):
        inversions.append(a)
        return real_invert(a)

    per_step = []

    def counting_step(mats, point):
        before = len(inversions)
        out = real_step(mats, point)
        per_step.append((len(inversions) - before, len(point), mats))
        return out

    def verify_and_walk(c, backend):
        rep = verify_orbit(c, backend=backend)
        _walked_points(c)
        return rep

    monkeypatch.setattr(arith, "nf_invert", counting_invert)
    monkeypatch.setattr(verify, "_step_points", counting_step)
    cases = [
        (construct_pk(2, 20), verify_and_walk, 19),
        (construct_biproj(3, 8), verify_and_walk, 7),
        (construct_lines(2, 2, 2), verify_lines_orbit, 6),
    ]
    for c, check, steps in cases:
        per_step.clear()
        before = len(inversions)
        rep = check(c, backend="exact")
        assert rep.all_passed
        L = c.backends["exact", 256].L
        if check is verify_lines_orbit:
            # the lines orbit steps the pairs of line coordinates by the
            # per-line 2 x 2 maps of L
            assert len(per_step) == steps
            assert all(m.size == 2 for *_, mats in per_step for m in mats)
            # the whole lines check, the shape of L included, inverts no
            # more than the steps do: 12 at lines (2,2,2)
            assert len(inversions) - before <= c.m * steps
        else:
            assert sum(mats is L for *_, mats in per_step) == steps
        assert all(count <= factors for count, factors, _ in per_step), per_step
    delta = construct_pk(2, 20).delta
    p = ProjectivePoint([delta, delta + 1, 2 * delta])
    inversions.clear()
    apply_J(p)
    apply_J_multi([p, p])
    assert not inversions


# ---------------------------------------------------------------------------
# the curve identity


class _Poly:
    """A polynomial in the curve parameter t, as its list of coefficients,
    constant term first: the ring the coefficient form of the curve
    identity is built in, by ``verify._preimage``, ``products_of_others``
    and ``linear_product``."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = list(coeffs)

    def __add__(self, other):
        a, b = self.c, other.c if isinstance(other, _Poly) else [other]
        if len(a) < len(b):
            a, b = b, a
        return _Poly([x + y for x, y in zip(a, b)] + a[len(b):])

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, _Poly):
            return _Poly([x * other for x in self.c])
        a, b = self.c, other.c
        out = []
        for i in range(len(a) + len(b) - 1):
            js = range(max(0, i - len(b) + 1), min(i, len(a) - 1) + 1)
            out.append(sum(a[j] * b[i - j] for j in js))
        return _Poly(out)

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.c)

    def __call__(self, x):
        return sum(c * x ** e for e, c in enumerate(self.c))


def _reciprocal(params, x, a=0) -> list:
    """J(u) / P(x)^{k-1} for u = ``verify._preimage(params, x)`` and
    P = prod (x - t_i): v_j = (x - t_j) prod_{i != j} (x + E - t_i); with
    a, the y of ``verify._curve_identity``, whose factor x - t_j is
    x + a - t_j."""
    shift = x + sum(params[1:], params[0])
    others = products_of_others([shift - t for t in params])
    return [(x + a - t) * o for t, o in zip(params, others)]


def _poly_proportional(lhs, rhs) -> bool:
    """Whether two vectors of polynomials are a nonzero constant multiple of
    each other: their coefficients, as two points, are equal."""
    return verify._proportional([c for p in lhs for c in p.c],
                                [c for p in rhs for c in p.c])


def _coefficient_identity(b) -> bool:
    """The curve identity L_{m-1} v(t) = c u_{m-1}(delta t + tau) and, for
    i < m - 1, L_i (u_{i+1} v)(t) = c_i P(t) u_i(delta t + tau), each side
    built as polynomials in t: the oracle for ``verify._curve_identity``."""
    params = b.centers[0]
    one = one_like(b.delta)
    t = _Poly([one * 0, one])
    moved = verify._curve_point(b, _Poly([b.tau, b.delta]))
    v = _reciprocal(params, t)
    p = prod((t - tj for tj in params), start=_Poly([one]))
    sides = [(b.L[-1], v, moved[-1].coords)]
    for i, m in enumerate(b.L[:-1]):
        y = verify._preimage(b.centers[i + 1], t - (i + 1))
        sides.append((m, [a * w for a, w in zip(y, v)],
                      [p * w for w in moved[i].coords]))
    return all(_poly_proportional(linear_product(m, ProjectivePoint(x)).coords, y)
               for m, x, y in sides)


def _identity_verdicts(b):
    """(the place form's verdict, the coefficient form's)."""
    return verify._curve_identity(b, b.centers[0]), _coefficient_identity(b)


@pytest.mark.parametrize("build, k, n", [
    (construct_pk, 2, 8), (construct_pk, 4, 5), (construct_pk, 12, 30),
    (construct_biproj, 3, 8),
])
def test_reciprocal_is_J_of_the_curve_over_a_power_of_P(build, k, n):
    # J(u(x)) = P(x)^{k-1} v(x) exactly, in every factor, at rational points
    # and at points of Q(delta), with apply_J as the oracle
    c = build(k, n)
    one, d = c.field.one(), c.delta
    for i, params in enumerate(verify._prepare(c, "exact", 256).centers):
        for x in (Fraction(3, 7) * one, Fraction(-5, 2) * one, d + 2,
                  d * d - Fraction(1, 3)):
            x = x - i
            u = ProjectivePoint(verify._preimage(params, x))
            p = prod(x - t for t in params)
            v = _reciprocal(params, x)
            assert list(apply_J(u).coords) == [p ** (k - 1) * w for w in v]


@pytest.mark.parametrize("k, n", [(2, 5), (3, 8), (4, 9)])
def test_biproj_factor_0_ratio_is_a_constant_times_P(k, n):
    # L_0 (u_1 v)(t) = c_0 P(t) u_0(delta t + tau) as polynomials in t
    b = verify._prepare(construct_biproj(k, n), "exact", 256)
    one = b.delta.field.one()
    t = _Poly([one * 0, one])
    params = b.centers[0]
    v = _reciprocal(params, t)
    y = verify._preimage(b.centers[1], t - 1)
    lhs = linear_product(b.L[0], ProjectivePoint([a * w for a, w in zip(y, v)]))
    moved = verify._preimage(params, _Poly([b.tau, b.delta]))
    p = prod((t - tj for tj in params), start=_Poly([one]))
    assert _poly_proportional(lhs.coords, [p * w for w in moved])
    assert verify._on_curve(b)


def _exponents_and_scales(b):
    """Per factor i, (e_i, a_i - E): J_m(u(x)) is P(x)^{e_i} y(x) in factor
    i, and y(x_j) = (a_i - E) w_j e_j at the places x_j."""
    k, m = len(b.centers[0]) - 1, len(b.L)
    total = sum(b.centers[0])
    return [(k, -(k + 1) * (i + 1)) for i in range(m - 1)] + [(k - 1, -total)]


@pytest.mark.parametrize("build, k, n", [
    (construct_pk, 2, 8), (construct_pk, 4, 5), (construct_biproj, 3, 8),
])
def test_values_at_the_places_are_J_of_the_curve(build, k, n):
    # at x_j = t_j - E, J_m(u(x_j)) is P(x_j)^e (a - E) w_j e_j in every
    # factor, with apply_J_multi as the oracle: only column j of L_i takes
    # part in L_i y(x_j)
    b = verify._prepare(build(k, n), "exact", 256)
    params = b.centers[0]
    for j, (x, w) in enumerate(verify._places(params)):
        assert w == prod(params[j] - t for t in params if t != params[j])
        p = prod(x - t for t in params)
        images = apply_J_multi(verify._curve_point(b, x))
        for image, (e, scale) in zip(images, _exponents_and_scales(b)):
            value = p ** e * scale * w
            assert list(image.coords) == [
                value if l == j else value * 0 for l in range(k + 1)]


@pytest.mark.parametrize("build, k, n", [
    (construct_pk, 2, 8), (construct_pk, 4, 5), (construct_biproj, 3, 8),
])
def test_the_leading_place_is_needed(build, k, n):
    # tau moved by 1/3 and each L_i rebuilt column by column to agree with
    # u_i(delta t + tau) at the k + 1 finite places: only the coefficient
    # of t^{k+1} tells the two sides apart
    b = verify._prepare(build(k, n), "exact", 256)
    params = b.centers[0]
    moved = dataclasses.replace(b, tau=b.tau + Fraction(1, 3), curve=None)
    places = verify._places(params)
    images = [verify._curve_point(moved, moved.delta * x + moved.tau)
              for x, _ in places]
    L = []
    for i, (_, scale) in enumerate(_exponents_and_scales(b)):
        columns = [[c / (scale * w) for c in image[i].coords]
                   for image, (_, w) in zip(images, places)]
        L.append(LinearMap([list(row) for row in zip(*columns)]))
    moved.L = L
    one = one_like(b.delta)
    t = _Poly([one * 0, one])
    target = verify._curve_point(moved, _Poly([moved.tau, moved.delta]))
    total = sum(params)
    for i, (m, (_, scale)) in enumerate(zip(L, _exponents_and_scales(b))):
        y = _reciprocal(params, t, scale + total)
        lhs = linear_product(m, ProjectivePoint(y)).coords
        for x, _ in places:
            assert [p(x) for p in lhs] == [q(x) for q in target[i].coords]
    assert _identity_verdicts(moved) == (False, False)
    assert verify._on_curve(moved) is False


@pytest.mark.parametrize("build, k, ns", [
    *((construct_pk, k, range(1, 21)) for k in range(2, 6)),
    *((construct_biproj, k, range(1, 13)) for k in range(2, 5)),
])
def test_identity_route_agrees_with_the_walk(build, k, ns):
    # a passing exact cell is decided from the curve identity and the
    # orbit's parameters, with no walk; its verdict is the walk's and the
    # curve samples', run directly by denying the identity to a copy, and
    # the identity's verdict at k + 2 places is the coefficient form's
    for n in ns:
        try:
            c = build(k, n)
        except ExceptionalPairError:
            continue
        walked = dataclasses.replace(c)
        verify._prepare(walked, "exact", 256).curve = False
        rep, ref = verify_orbit(c), verify_orbit(walked)
        assert verify._prepare(c, "exact", 256).curve, (k, n)
        place, coefficients = _identity_verdicts(verify._prepare(c, "exact", 256))
        assert place == coefficients, (k, n)
        assert not rep.orbit_points
        assert len(ref.orbit_points) == n - 1
        assert rep.conditions == ref.conditions, (k, n)
        assert rep.curve_invariant == ref.curve_invariant
        assert rep.multiplier_measured == ref.multiplier_measured
        assert rep.distinct == ref.distinct
        assert rep.translation_detected == ref.translation_detected


@pytest.mark.parametrize("build, k, n", [
    (construct_pk, 2, 8), (construct_pk, 3, 6), (construct_biproj, 2, 5),
])
def test_moved_L_entry_fails_the_identity_and_the_walk(build, k, n):
    # each nonzero entry of each L moved by 1/3: the identity fails, in its
    # place form and its coefficient form, the orbit is walked, and it does
    # not close at e0; each curve sample is decided as cross-multiplication
    # decides it
    c = build(k, n)
    for f, mat in enumerate(c.L):
        for r, row in enumerate(mat.matrix):
            for j in (j for j, x in enumerate(row) if x):
                rows = [list(q) for q in mat.matrix]
                rows[r][j] = rows[r][j] + Fraction(1, 3)
                L = [*c.L[:f], LinearMap(rows), *c.L[f + 1:]]
                broken = dataclasses.replace(c, L=L)
                rep = verify_orbit(broken)
                assert verify._prepare(broken, "exact", 256).curve is False
                place, coefficients = _identity_verdicts(
                    verify._prepare(broken, "exact", 256))
                assert place == coefficients, (f, r, j)
                assert rep.orbit_points, (f, r, j)
                closure = next(cond for cond in rep.conditions
                               if cond.name == "long orbit closes at e0")
                assert not closure.passed, (f, r, j)
                _samples_follow_cross_multiplication(broken)


def _samples_follow_cross_multiplication(c):
    """c's exact curve report, each sample checked against cross-multiplication
    as the oracle: it passes exactly when its image is u(delta t + tau), and
    then records delta t + tau."""
    b = verify._prepare(c, "exact", 256)
    rep = verify_curve_invariance(c)
    assert len(rep.samples) == 20
    for t, got, expected, ok in rep.samples:
        assert expected == b.delta * t + b.tau
        image = verify._image(b.L, verify._curve_point(b, t))
        assert ok == verify._matches(image, verify._curve_point(b, expected)), t
        assert got == expected or not ok, t
    return rep


def _hand_built(delta, t_plus):
    """The curve-fixing map of multiplier delta and centers t^+, built from
    its explicit center matrices."""
    T, S, tau, s_params = curve_fixing_map(len(t_plus) - 1, delta, t_plus)
    return CoxeterConstruction(
        family="pk", k=len(t_plus) - 1, n=1, field=None, delta=delta,
        t_plus=t_plus, tau=tau, L=[], T_matrices=[T], S_matrices=[S],
        s_params=s_params,
    )


@pytest.mark.parametrize("delta, t_plus", [
    *((d, [Fraction(1, 2), Fraction(3), Fraction(-2)])
      for d in (Fraction(1), Fraction(2), Fraction(5, 3))),
    # sample t = 2 maps to t_3^+, where u is e_3, and the equations
    # j = 1, 2 of ``_curve_param`` do not determine the parameter
    (Fraction(2), [Fraction(1, 2), Fraction(-3), Fraction(-3, 2), Fraction(-5, 2)]),
])
def test_unproven_samples_follow_cross_multiplication(delta, t_plus):
    # a curve-fixing map built by hand, denied the identity on a copy: each
    # sample's parameter is recovered from its image, every sample passes,
    # and the report is the proven one's
    c = _hand_built(delta, t_plus)
    unproven = dataclasses.replace(c)
    verify._prepare(unproven, "exact", 256).curve = False
    rep = _samples_follow_cross_multiplication(unproven)
    assert verify._on_curve(verify._prepare(c, "exact", 256))
    assert all(ok for *_, ok in rep.samples)
    assert rep == verify_curve_invariance(c)


_AGREEMENT_GRID = [
    *((construct_pk, k, n) for k in range(2, 6) for n in range(1, 21)),
    *((construct_biproj, k, n) for k in range(2, 5) for n in range(1, 13)),
]


def test_point_0_and_the_cusp_follow_from_the_identity():
    # wherever the identity holds, its place x_k = t_k - E gives point 0 as
    # u(delta x_k + tau), and that parameter is s_k; its leading place gives
    # every L_i's row sums proportional to (1, .., 1).  Each agrees with the
    # image check it replaces: column k of L against u(s_k), and L J(1) = 1
    cells = 0
    for build, k, n in _AGREEMENT_GRID:
        try:
            c = build(k, n)
        except ExceptionalPairError:
            continue
        b = verify._prepare(c, "exact", 256)
        if not verify._on_curve(b):
            continue
        cells += 1
        t = b.centers[0]
        assert b.delta * (t[k] - sum(t)) + b.tau == c.s_params[k], (k, n)
        assert verify._matches([m.column(k) for m in b.L],
                               verify._curve_point(b, c.s_params[k]))
        cusp = verify._curve_point(b, verify.OO)
        assert verify._matches(verify._image(b.L, cusp), cusp)
        for m in b.L:
            sums = [sum(row) for row in m.matrix]
            assert sums[0] and all(x == sums[0] for x in sums), (k, n)
    assert cells == 86


@pytest.mark.parametrize("build, k, n", [
    (construct_pk, 2, 8), (construct_pk, 3, 6), (construct_biproj, 2, 5),
])
def test_moved_last_column_or_row_sum_is_checked_by_images(build, k, n):
    # an entry of L's last column (point 0) or of its first column (a row
    # sum, the cusp's datum) moved by 1/3: the identity fails, so neither
    # is read from it, and the report is the one the images give: the
    # orbit is walked and the cusp's image is compared with (1, .., 1)
    c = build(k, n)
    for f, mat in enumerate(c.L):
        for r in range(k + 1):
            for j in (k, 0):
                rows = [list(q) for q in mat.matrix]
                rows[r][j] = rows[r][j] + Fraction(1, 3)
                L = [*c.L[:f], LinearMap(rows), *c.L[f + 1:]]
                broken = dataclasses.replace(c, L=L)
                b = verify._prepare(broken, "exact", 256)
                rep = verify_orbit(broken)
                assert b.curve is False, (f, r, j)
                assert rep.orbit_points, (f, r, j)
                cusp = verify._curve_point(b, verify.OO)
                fixed = verify._matches(verify._image(b.L, cusp), cusp)
                inv = verify_curve_invariance(broken, samples=3)
                assert inv.cusp_fixed is fixed, (f, r, j)
                if j == 0:
                    assert not fixed and not rep.curve_invariant, (f, r, j)
                if j == k:
                    closure = next(cond for cond in rep.conditions
                                   if cond.name == "long orbit closes at e0")
                    assert not closure.passed, (f, r, j)


@pytest.mark.parametrize("build, k, n", [(construct_pk, 4, 8),
                                          (construct_biproj, 3, 8)])
def test_curve_point_forms_its_products_once(monkeypatch, build, k, n):
    # every factor of a curve point is ``_preimage`` on its own parameters,
    # from one set of all-but-one products
    b = verify._prepare(build(k, n), "exact", 256)
    calls = []
    real = verify.products_of_others

    def counting(xs):
        calls.append(xs)
        return real(xs)

    for x in (Fraction(3, 7) * b.delta, b.delta + Fraction(-5, 2)):
        expected = [verify._preimage(c, x - i) for i, c in enumerate(b.centers)]
        monkeypatch.setattr(verify, "products_of_others", counting)
        point = verify._curve_point(b, x)
        monkeypatch.setattr(verify, "products_of_others", real)
        assert [list(p.coords) for p in point] == expected
    assert len(calls) == 2


def test_exact_curve_samples_come_from_the_identity(monkeypatch):
    # once the identity is proven no image is formed: each sample records
    # delta t + tau, and the identity's leading place fixes the cusp
    images = []
    real_image = verify._image

    def counting_image(mats, point):
        images.append(point)
        return real_image(mats, point)

    monkeypatch.setattr(verify, "_image", counting_image)
    c = construct_pk(2, 8)
    rep = verify_curve_invariance(c, samples=20)
    assert rep.all_passed and len(rep.samples) == 20 and rep.cusp_fixed
    assert not images
    assert all(got == c.delta * t + c.tau for t, got, _, _ in rep.samples)


def test_orbit_parameters_are_computed_once(monkeypatch):
    # verify_orbit, its distinctness check and the CLI's orbit parameters
    # read one orbit, kept on the construction
    from cremona import cli

    seen = []
    real = verify.blown_point_params

    def recording(construction):
        seen.append(real(construction))
        return seen[-1]

    monkeypatch.setattr(verify, "blown_point_params", recording)
    monkeypatch.setattr(cli, "blown_point_params", recording)
    assert cli.main(["verify", "--family", "biproj", "-k", "3", "-n", "8"]) == 0
    assert len(seen) == 3 and all(orbit is seen[0] for orbit in seen)


def test_curve_invariance_pk_20_samples():
    c = construct_pk(2, 8)
    rep = verify_curve_invariance(c, samples=20, backend="exact")
    assert rep.all_passed
    assert rep.cusp_fixed
    assert rep.multiplier_measured == c.delta
    # the affine law forces parameter delta+1 at t=2
    sampled = {t: got for t, got, _, _ in rep.samples}
    t2 = Fraction(2) * c.field.one()
    if t2 in sampled:
        assert sampled[t2] == c.delta + 1


def test_a_thousand_curve_samples():
    # at most k + 1 candidate parameters are skipped, so any number of
    # samples is found
    rep = verify_curve_invariance(construct_pk(2, 8), samples=1000)
    assert rep.all_passed and len(rep.samples) == 1000


def test_curve_invariance_fixed_point():
    # t = 1 is the fixed point of t -> delta t + tau at pk (2, 8)
    from cremona.verify import _curve_param, _curve_point, _image, _prepare

    c = construct_pk(2, 8)
    one = c.field.one()
    assert c.delta * one + c.tau == one
    b = _prepare(c, "exact", 256)
    assert _curve_param(b, _image(b.L, _curve_point(b, one))) == one


@pytest.mark.parametrize("build, k, n", [(construct_pk, 4, 8),
                                          (construct_biproj, 3, 8)])
def test_curve_param_recovers_exact_curve_points(build, k, n):
    # the 2 x 2 solve on factor 0 gives x exactly, whatever the scale of
    # each factor, and (1, .., 1) is the cusp
    from cremona.geometry import OO
    from cremona.verify import _curve_param, _curve_point, _prepare

    c = build(k, n)
    one = c.field.one()
    b = _prepare(c, "exact", 256)
    for x in (Fraction(3, 7), Fraction(-5, 2), Fraction(0), Fraction(11)):
        x = x * one
        point = _curve_point(b, x)
        assert _curve_param(b, point) == x
        scaled = [ProjectivePoint([(c.delta + i) * a for a in p.coords])
                  for i, p in enumerate(point)]
        assert _curve_param(b, scaled) == x
    assert _curve_param(b, _curve_point(b, OO)) is OO


@pytest.mark.parametrize("k", range(2, 7))
def test_closed_form_preimage_is_the_inverse(k):
    # T^{-1} gamma(x) = (-1)^k u, with Gauss-Jordan's inverse as the oracle
    import random

    from cremona.construct import center_matrix
    from cremona.geometry import gamma_eval
    from cremona.verify import _preimage

    rng = random.Random(k)
    pool = sorted({Fraction(a, b) for a in range(-40, 41) for b in range(1, 10)})
    for _ in range(4):
        *params, x = rng.sample(pool, k + 2)
        if sum(params) == 0:
            continue
        inv = center_matrix(k, params).inverse()
        pre = [sum(r * g for r, g in zip(row, gamma_eval(x, k).coords))
               for row in inv.matrix]
        assert pre == [(-1) ** k * c for c in _preimage(params, x)]


@pytest.mark.parametrize("build, k, n", [
    (construct_pk, 2, 8), (construct_pk, 4, 8),
    (construct_biproj, 2, 5), (construct_biproj, 3, 8),
])
def test_closed_form_preimage_of_the_construction(build, k, n):
    # every factor i: T_i on t^+ - i at x = t - i, and the cusp's preimage
    # (1, .., 1)
    from cremona.geometry import apply_linear, gamma_eval
    from cremona.verify import _preimage

    c = build(k, n)
    one = c.field.one()
    for i, T in enumerate(centers(c)[0]):
        inv = T.inverse()
        params = [t - i for t in c.t_plus]
        for t in (Fraction(3, 7), Fraction(-5, 2)):
            x = t * one - i
            expected = apply_linear(inv, gamma_eval(x, k))
            assert ProjectivePoint(_preimage(params, x)).eq(expected)
        cusp = apply_linear(inv, ProjectivePoint.standard_basis(k, k, one=one))
        assert cusp.eq(ProjectivePoint([one] * (k + 1)))


@pytest.mark.parametrize("build, k, n", [(construct_pk, 4, 8),
                                          (construct_biproj, 3, 8)])
def test_curve_invariance_inverts_nothing(monkeypatch, build, k, n):
    # these cells are proven by the curve identity, whose curve points have
    # a closed form, so no sample's image is formed: the only inversion
    # left, counted from before the backend is prepared, is the slope's
    # division by a rational, and no center matrix is built or inverted
    from cremona import arith, construct

    c = build(k, n)
    inversions = []
    real_invert = arith.nf_invert

    def counting_invert(a):
        inversions.append(a)
        return real_invert(a)

    def no_elimination(self):
        raise AssertionError("inverted by elimination")

    def refuse(*args):
        raise AssertionError("center matrix built by the curve check")

    monkeypatch.setattr(arith, "nf_invert", counting_invert)
    monkeypatch.setattr(LinearMap, "inverse", no_elimination)
    monkeypatch.setattr(construct, "column_scalings", refuse)
    monkeypatch.setattr(construct, "center_matrix", refuse)
    rep = verify_curve_invariance(c, backend="exact")
    assert rep.all_passed and rep.cusp_fixed
    assert rep.multiplier_measured == c.delta
    assert not [a for a in inversions if not a.is_rational()]
    assert verify_curve_invariance(c, samples=3, backend="float").all_passed


@pytest.mark.parametrize("precision", [64, 256])
@pytest.mark.parametrize("build, k, n", [(construct_pk, 4, 8),
                                          (construct_biproj, 3, 8)])
def test_float_center_matrices_are_near_exact(monkeypatch, build, k, n, precision):
    # L, delta, tau and t^+ embedded at 64 guard bits and rounded: every
    # entry is within 2^-(p-8) relative of the exact entry; the exact data
    # is embedded with 128 more bits, since at p bits the embedding of an
    # entry with a large numerator loses bits to cancellation.  No field
    # inversion.
    from cremona import arith
    from cremona.arith import embed
    from cremona.verify import _prepare, field_root

    c = build(k, n)
    inversions = []
    monkeypatch.setattr(arith, "nf_invert", inversions.append)
    b = _prepare(c, "float", precision)
    assert not inversions
    monkeypatch.undo()
    fine = field_root(c, precision + 128)
    pairs = [(b.delta, c.delta), (b.tau, c.tau)]
    pairs += [(x, t) for x, t in zip(b.centers[0], c.t_plus)]
    for got, exact in zip(b.L, c.L):
        for row, exact_row in zip(got.matrix, exact.matrix):
            pairs += zip(row, exact_row)
    assert len(pairs) == 3 + k + len(c.L) * (k + 1) ** 2
    for x, exact in pairs:
        e = embed(exact, fine, fine.precision_bits)
        assert x.precision_bits == precision
        assert abs(x - e) <= abs(e) * 2.0 ** -(precision - 8)


def test_float_verify_pk_9_10_at_64_bits(capsys):
    # at 64 bits the curve check passes here; it failed when the check
    # still built float center matrices without guard bits
    from cremona.cli import main

    assert main(["verify", "-k", "9", "-n", "10", "--backend", "float",
                 "--precision", "64"]) == 0
    assert '"curve_invariant": true' in capsys.readouterr().out


@pytest.mark.parametrize("family, k, n", [
    ("pk", 12, 30), ("pk", 10, 25), ("biproj", 9, 10), ("biproj", 12, 25),
])
def test_float_verify_at_64_bits_checks_the_curve_in_the_orbit_frame(
        capsys, family, k, n):
    # checked on the curve of gamma's frame, these cells failed at 64 bits:
    # the cusp needed T (1, .., 1) ~ e_k and each sample T u ~ gamma(t),
    # both ill-conditioned for large k; the curve of L's frame needs neither
    from cremona.cli import main

    assert main(["verify", "--family", family, "-k", str(k), "-n", str(n),
                 "--backend", "float", "--precision", "64"]) == 0
    assert '"curve_invariant": true' in capsys.readouterr().out


@pytest.mark.parametrize("which", ["T_matrices", "S_matrices"])
def test_perturbed_center_matrix_fails_curve_invariance(which):
    # explicit center matrices define L = T^{-1} S in _prepare, so a wrong
    # T or S gives a wrong L, and every sample and the cusp must fail
    c = construct_pk(2, 8)
    mats = dict(zip(("T_matrices", "S_matrices"), centers(c)))
    rows = [list(r) for r in mats[which][0].matrix]
    rows[1][0] = rows[1][0] + Fraction(1, 5)
    mats[which] = [LinearMap(rows)]
    broken = CoxeterConstruction(
        family="pk",
        k=c.k,
        n=c.n,
        field=c.field,
        delta=c.delta,
        t_plus=c.t_plus,
        tau=c.tau,
        L=c.L,
        s_params=c.s_params,
        **mats,
    )
    rep = verify_curve_invariance(broken, samples=5, backend="exact")
    assert not rep.all_passed
    assert not any(ok for *_, ok in rep.samples)
    assert rep.cusp_fixed is False
    assert rep.multiplier_measured is None
    # a wrong T gives a wrong L, whose images lie off the frame curve, so
    # _curve_param recovers no parameter
    if which == "T_matrices":
        assert all(got is None for _, got, _, _ in rep.samples)


def test_float_curve_samples_pass_on_their_own_parameter(monkeypatch):
    # a float image is compared relative to its largest coordinate, so at
    # 64 bits it still matches gamma(s) when s is off by 2^-30 relative;
    # the sample must pass on the parameter recovered from the image
    from cremona.arith import BigFloat, close
    from cremona.verify import _prepare

    c = construct_biproj(3, 8)
    b = _prepare(c, "float", 64)
    rep = verify_curve_invariance(c, samples=3, backend="float", precision_bits=64)
    assert rep.all_passed
    assert all(got is not s for _, got, s, _ in rep.samples)
    assert close(rep.multiplier_measured, b.delta)
    monkeypatch.setattr(b, "tau", b.tau + BigFloat(2.0 ** -30, 64) * b.tau)
    rep = verify_curve_invariance(c, samples=3, backend="float", precision_bits=64)
    assert not any(ok for *_, ok in rep.samples)
    assert all(got is not None for _, got, _, _ in rep.samples)


def test_curve_invariance_biproj():
    c = construct_biproj(2, 5)
    rep = verify_curve_invariance(c, samples=20, backend="exact")
    assert rep.all_passed
    assert rep.cusp_fixed


def test_recover_param_refuses_second_factor_off_the_curve():
    from cremona.geometry import OO
    from cremona.verify import _curve_param, _curve_point, _prepare

    c = construct_biproj(2, 5)
    one = c.field.one()
    b = _prepare(c, "exact", 256)
    t = Fraction(3) * one
    on_curve, cusp = _curve_point(b, t), _curve_point(b, OO)
    assert _curve_param(b, on_curve) == t
    assert _curve_param(b, cusp) is OO
    # the second factor must be the curve's point at t in the frame of
    # factor 1: a point off the curve, factor 0's point, the point at
    # t - 1 and the cusp are refused, and so is the curve's point paired
    # with the cusp in the first factor
    off = ProjectivePoint([one, 2 * one, 5 * one])
    for second in (off, on_curve[0], _curve_point(b, t - 1)[1], cusp[1]):
        assert _curve_param(b, [on_curve[0], second]) is None
    assert _curve_param(b, [cusp[0], on_curve[1]]) is None


def test_translation_guard():
    # multiplier 1 means the parameter action is a translation; the verifier
    # must flag it instead of passing
    stub = _hand_built(Fraction(1), [Fraction(1, 2), Fraction(3), Fraction(-2)])
    rep = verify_curve_invariance(stub, samples=4, backend="exact")
    assert rep.translation_detected
    assert not rep.all_passed


def test_distinctness():
    for c in (construct_pk(2, 8), construct_pk(3, 6), construct_biproj(2, 5)):
        assert verify_distinctness(c)


def test_distinctness_counts():
    c = construct_pk(2, 8)
    params, endpoint = blown_point_params(c)
    assert len(params) == c.k + c.n  # N = k + n
    assert endpoint == c.t_plus[0]


def test_distinctness_negative_control():
    c = construct_pk(2, 8)
    repeated = dataclasses.replace(c, t_plus=[c.t_plus[0], *c.t_plus[:-1]])
    assert blown_point_params(repeated)[1] == repeated.t_plus[0]
    assert not verify_distinctness(repeated)


# ---------------------------------------------------------------------------
# lines family


def test_lines_orbit_exact_closes():
    rep = verify_lines_orbit(construct_lines(2, 2, 2), backend="exact")
    assert rep.closes and rep.on_union and rep.cyclic
    assert rep.orbit_length == 6
    assert rep.line_sequence == [[0], [1], [2], [0], [1], [2]]


def test_lines_orbit_float_various_cells():
    for k, m, n in ((2, 2, 3), (2, 3, 2), (3, 2, 2)):
        rep = verify_lines_orbit(
            construct_lines(k, m, n), backend="float", precision_bits=192
        )
        assert rep.closes and rep.on_union and rep.cyclic
        assert rep.orbit_length == n * (k + 1)


def test_lines_orbit_single_line_membership():
    rep = verify_lines_orbit(construct_lines(2, 2, 2), backend="exact")
    # away from the concurrence point each orbit point is on exactly one line
    assert all(len(entry) == 1 for entry in rep.line_sequence)


def test_lines_small_case_orbit_length_three():
    # k=2, m=2, n=1: the Coxeter element is periodic, so the multiplier is
    # taken from the closure condition's only non-degenerate factor
    # a^3 + a^2 - 1, and the construction is built by hand from
    # build_L_lines; the three orbit points walk the lines cyclically and
    # the last one is the coordinate point where the orbit terminates.
    fld = NumberField(IntegerPolynomial([-1, 0, 1, 1]))
    alpha = fld.gen()
    c = CoxeterConstruction(
        family="lines", k=2, n=1, field=fld, delta=alpha, t_plus=[],
        tau=fld.zero(), L=build_L_lines(2, 2, alpha), m=2,
    )
    rep = verify_lines_orbit(c, backend="exact")
    assert rep.orbit_length == 3
    assert rep.on_union and rep.cyclic
    assert rep.line_sequence == [[0], [1], [2]]
    assert not rep.closes  # terminal point collides with a singleton orbit
    assert rep.residual == 1.0  # the walk stopped early


def test_lines_orbit_keeps_its_closure_distance():
    # the closure distance the verdict was decided on: 0 for the orbit that
    # closes; with alpha moved by 10^-6 in L the orbit misses its end point,
    # by 1 exactly and by about 2e-6, above the tolerance 2^-32, in floats
    c = construct_lines(2, 2, 2)
    rep = verify_lines_orbit(c, "exact")
    assert rep.failure is None and rep.closes and rep.residual == 0.0
    moved = c.delta + c.field.one() * Fraction(1, 10 ** 6)
    off = dataclasses.replace(c, L=build_L_lines(2, 2, moved))
    exact = verify_lines_orbit(off, "exact")
    assert exact.failure is None and not exact.closes and exact.residual == 1.0
    rep = verify_lines_orbit(off, "float", 64)
    assert rep.failure is None and not rep.closes
    assert 2.0 ** -32 < rep.residual < 1e-5


@pytest.mark.parametrize("k,m,n", [(2, 2, 2), (3, 2, 2), (4, 1, 10), (2, 2, 10),
                                   (4, 3, 6), (8, 3, 4)])
def test_line_walk_is_the_matrix_walk(monkeypatch, k, m, n):
    # factor i of point s, the pair [a : b] on line j = s mod k + 1, is the
    # point of P^k with every coordinate b but a in slot j; it must equal
    # factor i of the same point of the orbit of L o J_m on (P^k)^m
    pairs = []
    real_step = verify._step_points

    def recording_step(mats, point):
        pairs.append(point)
        return real_step(mats, point)

    monkeypatch.setattr(verify, "_step_points", recording_step)
    c = construct_lines(k, m, n)
    rep = verify_lines_orbit(c, backend="exact")
    monkeypatch.undo()
    total = n * (k + 1)
    assert rep.closes and len(pairs) == total
    walked = []
    end, dead = verify._walk(c.L, total, lambda step, point: walked.append(point))
    assert dead is None and len(walked) == total
    for step, (line_point, point) in enumerate(zip(pairs, walked)):
        j = step % (k + 1)
        for pair, factor in zip(line_point, point):
            a, b = pair.coords
            coords = [b] * (k + 1)
            coords[j] = a
            assert ProjectivePoint(coords).eq(factor), (step, j)


def test_lines_orbit_refuses_an_unshaped_L():
    # one entry of L_1 moved off the lines shape: L_1 no longer maps the
    # lines to each other, and the orbit is not walked
    c = construct_lines(2, 2, 2)
    rows = [list(r) for r in c.L[1].matrix]
    rows[2][2] = rows[2][2] + Fraction(1, 5)
    c.L[1] = LinearMap(rows)
    rep = verify_lines_orbit(c, backend="exact")
    assert not rep.all_passed
    assert not (rep.closes or rep.on_union or rep.cyclic)
    assert rep.failure == "L_1 does not map the lines to each other"
    assert not c.backends


def test_lines_wrong_family_rejected():
    with pytest.raises(VerificationError):
        verify_lines_orbit(construct_pk(2, 8))


@pytest.mark.parametrize("k,m,n", [(2, 2, 2), (2, 2, 3), (3, 2, 2)])
def test_verify_orbit_refuses_lines(k, m, n):
    # the lines orbit has n(k+1) points and its own checker; verify_orbit
    # once walked it one step short and reported a closing orbit as open
    c = construct_lines(k, m, n)
    with pytest.raises(VerificationError):
        verify_orbit(c)
    assert verify_lines_orbit(c).closes
