"""Runtime verification of the constructed maps.

Verification runs in the conjugated frame F = L o J (or its product-space
variants) in full projective coordinates; the affine parameter dynamics
t -> delta t + tau is computed separately and used only as an independent
cross-check.  On the exact backend every comparison is an identity in
Q(delta); the float backend re-runs the same iteration after embedding delta
as a certified numerical root of the modulus.  Every exact scalar, in the
float backend of every family and in every decimal the CLI prints, becomes
a p-bit float by one lift (``embedding``): embedded with the root at
p + GUARD_BITS bits, then rounded to p bits, so it loses far fewer bits to
the cancellation of large coefficients than an embedding at p bits would
(though some at field degree ~150 and above).

Curve invariance is checked in the same frame, on the same L.  F is the
conjugate by the center matrices T of S o J o T^{-1}, which fixes the
cuspidal curve gamma, so F fixes the curve u(x) = T^{-1} gamma(x), whose
points have a closed form with no division (``_preimage``), and no T or S
is built.  A construction built by hand from explicit center matrices T_i
and S_i has L_i = T_i^{-1} S_i.

On the exact pk and biproj backends F(u(t)) = u(delta t + tau) is proven
once, as an identity of polynomials in t of degree k + 1, by comparing the
two sides at k + 2 places (``_on_curve``): at k + 1 values of t the left
side is a multiple of one column of L, and its leading coefficient is L's
row sums, so no polynomial in t is formed.  The long orbit is then u(c_i)
with c_{i+1} = delta c_i + tau, so the orbit's parameters decide closure
and indeterminacy with no walk.  The identity has also shown that point 0,
the last columns of L, is u(delta x_k + tau) at its place x_k, and that L
fixes the cusp (1, .., 1) at its leading place, so point 0 is one equality
of parameters, and no image is formed, of a curve sample or of the cusp.
Otherwise, on either backend, the orbit is walked, and each sample's image
L J(u(t)) is formed and its parameter recovered (``_curve_param``), which
must equal delta t + tau: exactly, or within the float tolerance.  The
multiplier is measured from those parameters.  So the backends part in one
place only, whether ``_on_curve`` proves the identity.  A curve point's
factors share their linear factors x - t_j^+, so its all-but-one products
are built once for all factors.

The lines family's L permute the lines through [1:...:1] and the coordinate
points, so its orbit is walked in line coordinates, by the same map step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Callable, Optional

from .arith import (
    DEFAULT_PRECISION_BITS,
    BigFloat,
    close,
    embed,
    is_exact,
    one_like,
)
from .construct import _shaped_L
from .geometry import (
    IndeterminacyError,
    LinearMap,
    OO,
    ProjectivePoint,
    apply_J_multi,
    apply_linear,
    linear_product,
    products_of_others,
)
from .spectra import leading_salem_root

GUARD_BITS = 64  # bits of delta's root beyond p in ``embedding``


class VerificationError(Exception):
    pass


@dataclass
class ConditionResult:
    name: str
    passed: bool
    residual: float = 0.0
    detail: str = ""


@dataclass
class OrbitCheckReport:
    family: str
    k: int
    n: int
    backend: str
    conditions: list = field(default_factory=list)
    # (step, [coords per factor]) of a walked orbit; empty when the curve
    # identity decides the orbit with no walk (see ``verify_orbit``)
    orbit_points: list = field(default_factory=list)
    distinct: Optional[bool] = None
    curve_invariant: Optional[bool] = None
    multiplier_measured: object = None
    translation_detected: bool = False
    notes: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        """The verdict: conditions, distinctness, curve, no translation."""
        return (
            all(c.passed for c in self.conditions)
            and not self.translation_detected
            and bool(self.distinct and self.curve_invariant)
        )


# ---------------------------------------------------------------------------
# the construction in one backend


def field_root(construction, precision_bits: int) -> BigFloat:
    """delta as the certified leading real root of the modulus, isolated once
    per precision and kept on the construction."""
    roots = construction.roots
    if precision_bits not in roots:
        iso = leading_salem_root(construction.modulus, precision_bits)
        if iso is None:
            raise VerificationError("modulus has no real root above 1 to embed at")
        roots[precision_bits] = iso.value
    return roots[precision_bits]


def embedding(construction, precision_bits: int) -> Callable:
    """The lift of the construction's exact scalars to p = ``precision_bits``
    bits: x embedded at delta's root at p + GUARD_BITS bits, then rounded."""
    fine = field_root(construction, precision_bits + GUARD_BITS)
    return lambda x: embed(x, fine, precision_bits)


@dataclass
class Backend:
    """A construction's data as scalars of one backend."""

    label: str
    lift: Callable  # exact scalar -> backend scalar; identity when exact
    L: list
    centers: list  # per factor i, the parameters t^+ - i of the curve u
    delta: object
    tau: object
    # whether F maps the curve u to itself by t -> delta t + tau, proven
    # once by ``_on_curve``; None until asked
    curve: Optional[bool] = None


def _prepare(construction, backend: str, precision_bits: int) -> Backend:
    """The construction in the requested backend, built once per backend and
    precision and kept on the construction: the float backend takes every
    scalar through ``embedding``.  A construction built by hand from
    explicit center matrices gets L_i = T_i^{-1} S_i, formed exactly."""
    c = construction
    key = (backend, precision_bits)
    if key not in c.backends:
        if backend == "exact":
            lift, label = (lambda x: x), "exact"
        elif backend == "float":
            lift = embedding(c, precision_bits)
            label = f"float({precision_bits})"
        else:
            raise ValueError(f"unknown backend {backend!r}")
        L = c.L
        if c.T_matrices:
            L = [t.inverse() @ s for t, s in zip(c.T_matrices, c.S_matrices)]
        t_plus = [lift(t) for t in c.t_plus]
        c.backends[key] = Backend(
            label=label,
            lift=lift,
            L=[LinearMap([[lift(x) for x in row] for row in m.matrix]) for m in L],
            centers=[[t - i for t in t_plus] for i in range(len(L))],
            delta=lift(c.delta),
            tau=lift(c.tau),
        )
    return c.backends[key]


def _compare(points, targets):
    """(whether every point equals its target, the largest residual)."""
    gaps = [p.distance(q) for p, q in zip(points, targets)]
    return all(close(g, 0) for g in gaps), max(float(g) for g in gaps)


# ---------------------------------------------------------------------------
# orbit verification


def _step_points(mats, point):
    """One step of (M_0 x .. x M_{m-1}) o J_m on a point of (P^k)^m, given as
    its list of factors; m = 1 is the projective family."""
    return [apply_linear(m, q) for m, q in zip(mats, apply_J_multi(point))]


def _image(mats, point) -> list:
    """``_step_points`` with no factor normalized, so an exact image costs
    no field inversion."""
    return [linear_product(m, q) for m, q in zip(mats, apply_J_multi(point))]


def _walk(mats, steps, visit):
    """The long orbit of F = (L_0 x .. x L_{m-1}) o J_m, whose point 0 is
    the last columns of the L_i.  ``visit(i, point)`` sees points 0 ..
    steps-1, each before it is stepped.

    Returns (point, dead).  After ``steps`` steps dead is None and point is
    the endpoint.  Otherwise dead is the index of the first point on the
    indeterminacy locus: a point whose first factor has two zero
    coordinates, or the point J_m fails to form from its predecessor; point
    is then the last point formed."""
    point = [m.column(m.size - 1) for m in mats]
    for i in range(steps):
        visit(i, point)
        if len(point[0].zero_pattern()) >= 2:
            return point, i
        try:
            point = _step_points(mats, point)
        except IndeterminacyError:
            return point, i + 1
    return point, None


def verify_orbit(
    construction, backend: str = "exact",
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> OrbitCheckReport:
    """Check the orbit-data conditions for F = L o J.

    (a) each exceptional image of a singleton orbit is the next
        indeterminacy point (column j of L proportional to e_{j+1});
    (b) the length-n orbit closes: F^{n-1} of the last column lands on the
        first coordinate point;
    (c) no intermediate orbit point meets the indeterminacy locus.

    On the exact backend, once ``_on_curve`` holds, point j is u(c_j), and
    three exact tests decide (b) and (c) with no walk, so no
    ``orbit_points`` are kept: point 0 is u(c_0) with c_0 = s_k; no c_j with
    j <= n - 2 is a t_i^+, where alone u meets the indeterminacy locus; and
    c_{n-1} = t_0^+, where u is e_0.  The identity at its place
    x_k = t_k^+ - E has shown that point 0, column k of every L_i, is
    u(delta x_k + tau), and u is one to one, so the first test is
    delta x_k + tau = s_k.  Otherwise the orbit is walked.

    For pk and biproj; the lines family has ``verify_lines_orbit``.
    """
    family = construction.family
    if family == "lines":
        raise VerificationError("lines family: use verify_lines_orbit")
    k = construction.k
    b = _prepare(construction, backend, precision_bits)
    mats = b.L
    report = OrbitCheckReport(family=family, k=k, n=construction.n, backend=b.label)
    one = one_like(b.delta)
    # (a): singleton orbits close immediately
    ok_a = True
    worst_a = 0.0
    for j in range(k):
        target = ProjectivePoint.standard_basis(j + 1, k, one=one)
        for m in mats:
            ok, res = _compare([m.column(j)], [target])
            ok_a = ok_a and ok
            worst_a = max(worst_a, res)
    report.conditions.append(
        ConditionResult("singleton orbits close", ok_a, worst_a)
    )
    # (b)/(c): from the curve identity and the orbit's parameters, or else
    # by the walk
    params, endpoint = blown_point_params(construction)
    t = b.centers[0]  # t^+
    if (_on_curve(b) and endpoint == t[0]
            and not set(params[k + 1:]) & set(t)
            and b.delta * (t[k] - sum(t[1:], t[0])) + b.tau
            == construction.s_params[k]):
        closed, res_b, fail_step = True, 0.0, None
    else:
        def record(step, point):
            if step:
                report.orbit_points.append(
                    (step, [list(p.coords) for p in point]))

        point, fail_step = _walk(mats, construction.n - 1, record)
        if fail_step is None:
            record(construction.n - 1, point)
            e0 = [ProjectivePoint.standard_basis(0, k, one=one) for _ in mats]
            closed, res_b = _compare(point, e0)
    if fail_step is None:
        report.conditions.append(
            ConditionResult("long orbit closes at e0", closed, res_b)
        )
        report.conditions.append(
            ConditionResult("no premature indeterminacy", True, 0.0)
        )
    else:
        report.conditions.append(
            ConditionResult(
                "long orbit closes at e0", False, 1.0,
                f"orbit died at step {fail_step}",
            )
        )
        report.conditions.append(
            ConditionResult(
                "no premature indeterminacy", False, 1.0,
                f"indeterminacy at step {fail_step}",
            )
        )
    inv = verify_curve_invariance(
        construction, samples=3, backend=backend, precision_bits=precision_bits
    )
    report.curve_invariant = inv.all_passed
    report.multiplier_measured = inv.multiplier_measured
    report.translation_detected = inv.translation_detected
    report.distinct = verify_distinctness(construction)
    return report


# ---------------------------------------------------------------------------
# curve invariance


@dataclass
class CurveReport:
    family: str
    k: int
    backend: str
    samples: list = field(default_factory=list)  # (t, image param, expected, ok)
    cusp_fixed: Optional[bool] = None
    multiplier_measured: object = None
    translation_detected: bool = False

    @property
    def all_passed(self) -> bool:
        return (
            bool(self.samples)
            and all(ok for *_, ok in self.samples)
            and self.cusp_fixed is not False
            and not self.translation_detected
        )


def _preimage(params, x, others=None) -> list:
    """T^{-1} gamma(x) up to scale for T the center matrix of ``params``
    (``construct.center_matrix``): coordinate j is

        u_j = (x + E - t_j) * prod_{i != j} (x - t_i),   E = sum of the t_i,

    and T^{-1} gamma(x) = (-1)^k u exactly.  The column scalings
    a_j = 1 / (E prod_{i != j} (t_i - t_j)) cancel the denominators of the
    coefficients of gamma(x) in the basis gamma(t_j), so u needs no
    inversion; the products over i != j are ``products_of_others``, or
    ``others`` when the caller has them."""
    shift = x + sum(params[1:], params[0])
    if others is None:
        others = products_of_others([x - t for t in params])
    return [(shift - t) * o for t, o in zip(params, others)]


def _curve_point(b: Backend, x) -> list:
    """The point at parameter x of the curve that F = (L_0 x ..) o J_m
    fixes: factor i is ``_preimage`` on the parameters t^+ - i at x - i, and
    the cusp x = oo is (1, .., 1) in every factor.  Factor i's linear
    factors (x - i) - (t_l - i) are factor 0's, so their all-but-one
    products are formed once, for every factor."""
    if x is OO:
        ones = ProjectivePoint([one_like(b.delta)] * len(b.centers[0]))
        return [ones] * len(b.centers)
    others = products_of_others([x - t for t in b.centers[0]])
    return [ProjectivePoint(_preimage(c, x - i, others))
            for i, c in enumerate(b.centers)]


def _matches(image, target) -> bool:
    return all(p.eq(q) for p, q in zip(image, target))


def _curve_param(b: Backend, image):
    """The parameter x with image = ``_curve_point(b, x)`` up to scale in
    every factor: OO at the cusp, None when the image is off the curve; on
    both backends, the one test of a sample ``_on_curve`` has not proven.

    Factor 0 of the curve is u_j = P(x) (1 + E / (x - t_j)), with
    P = prod (x - t_i) and E = sum t_i, so an image w proportional to it has
    w_j (x - t_j) = mu (x - t_j + E) for some mu, and

        (w_0 - w_j) x + (t_0 - t_j) mu = w_0 t_0 - w_j t_j.

    The equations for j = 1 and the first j >= 2 with a nonzero determinant
    give x: for j = 2 it is 0 only at the cusp and at u(t_j) ~ e_j, j >= 3.
    This needs distinct t_j and E != 0, which every construction has, as
    ``construct.center_matrix`` divides by them.  Every factor of the image
    is then compared with the curve's point at x."""
    w, t = image[0].coords, b.centers[0]
    a1, d1 = w[0] - w[1], t[0] - t[1]
    r0 = w[0] * t[0]
    r1 = r0 - w[1] * t[1]
    x = OO
    for wj, tj in zip(w[2:], t[2:]):
        a2, d2 = w[0] - wj, t[0] - tj
        det = a1 * d2 - a2 * d1
        if det:
            x = (r1 * d2 - (r0 - wj * tj) * d1) / det
            break
    return x if _matches(image, _curve_point(b, x)) else None


def _proportional(a, b) -> bool:
    """Whether two vectors are a nonzero constant multiple of each other."""
    return any(a) and any(b) and ProjectivePoint(a).eq(ProjectivePoint(b))


def _on_curve(b: Backend) -> bool:
    """Whether F = (L_0 x .. x L_{m-1}) o J_m maps the curve u
    (``_curve_point``) to itself by t -> delta t + tau, proven exactly once
    per backend and kept on it (``_curve_identity``).  Floats prove no
    identity; ``verify_orbit``'s proof also needs k >= 2, distinct t_j and a
    nonzero parameter sum in every factor, so that u(x) never vanishes,
    meets the indeterminacy locus only at x in {t_j} and is e_0 in every
    factor only at t_0."""
    if b.curve is None:
        params = b.centers[0]
        b.curve = (
            is_exact(b.delta)
            and len(params) >= 3
            and len(set(params)) == len(params)
            and all(sum(c[1:], c[0]) for c in b.centers)
            and _curve_identity(b, params)
        )
    return b.curve


def _places(params):
    """(x_j, w_j) for each j: the finite places x_j = t_j - E of the curve
    identity, E the sum of the t_j, and w_j = prod_{l != j} (t_j - t_l)."""
    total = sum(params[1:], params[0])
    return [(tj - total, prod(tj - tl for tl in params[:j] + params[j + 1:]))
            for j, tj in enumerate(params)]


def _curve_identity(b: Backend, params) -> bool:
    """The identity of ``_on_curve``, proven by its values at k + 2 places.

    With P(t) = prod (t - t_j) and E = sum t_j, J(u_0(t)) = P(t)^{k-1} y(t)
    for y_j(t) = (t + a - t_j) prod_{l != j} (t + E - t_l) and a = 0, and
    u_{i+1}(t) J(u_0(t)), coordinatewise, is P(t)^k y(t) with
    a = E - (k+1)(i+1), as t - t_j occurs k times in prod_{l != j} u_l and
    every other t - t_l k - 1 times.  So factor i of F(u(t)) is L_i y(t) up
    to a power of P, and the identity is L_i y(t) = c_i u_i(delta t + tau),
    c_i a nonzero constant, both sides of degree k + 1 in t.  At x_j
    (``_places``) every y_l with l != j vanishes and
    y(x_j) = (a - E) w_j e_j, so the left side is (a - E) w_j times column j
    of L_i; the coefficients of t^{k+1} are the row sums of L_i and
    delta^{k+1} (1, .., 1).  The k + 1 places x_j are distinct, so the
    values there and the leading coefficient determine a polynomial of
    degree <= k + 1, and the two sides are proportional exactly when their
    k + 2 values are.  The factor a - E is moved onto the right side's
    leading coefficient, which comes first: the comparison cross-multiplies
    each side by the other's entry at the left side's first nonzero slot,
    there a row sum and (a - E) delta^{k+1}, a short element."""
    k = len(params) - 1
    places = _places(params)
    images = [_curve_point(b, b.delta * x + b.tau) for x, _ in places]
    lead = b.delta ** (k + 1)
    scales = [-(k + 1) * (i + 1) for i in range(len(b.L) - 1)]
    scales.append(-sum(params[1:], params[0]))
    for i, (m, scale) in enumerate(zip(b.L, scales)):
        lhs = [sum(row[1:], row[0]) for row in m.matrix]
        lhs += [w * row[j] for j, (_, w) in enumerate(places) for row in m.matrix]
        rhs = [scale * lead] * (k + 1)
        rhs += [x for image in images for x in image[i].coords]
        if not _proportional(lhs, rhs):
            return False
    return True


def _sample_params(construction, samples: int, lift):
    """Deterministic rational parameters away from the indeterminacy set,
    through the backend's ``lift``."""
    one = one_like(construction.delta)
    out = []
    cand = 2
    while len(out) < samples:
        t = Fraction(cand, 7) * one
        cand += 1
        if any(t == e for e in construction.t_plus):
            continue
        out.append(lift(t))
    return out


def verify_curve_invariance(
    construction,
    samples: int = 20,
    backend: str = "exact",
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> CurveReport:
    """F(u(t)) = u(delta t + tau) on sampled parameters, plus the cusp, for
    F = (L_0 x .. x L_{m-1}) o J_m, the map the orbit walk steps, and u its
    invariant curve ``_curve_point``.

    When ``_on_curve`` has proven the identity, each sample records
    delta t + tau as its image's parameter, the cusp is fixed, as the
    identity's leading place shows L's row sums proportional to
    (1, .., 1), and no image is formed.
    Otherwise, on either backend, each image's parameter is recovered
    (``_curve_param``, on the curve in every factor) and recorded, and the
    sample passes only when that parameter is delta t + tau, exactly or,
    in floats, within the tolerance of ``close``: a float image matches a
    curve point only relative to its largest coordinate, so the parameter,
    not the point, is compared.  The cusp (1, .., 1) must be fixed in every
    factor.  The multiplier is measured as the slope of the affine
    parameter map, and a measured slope of 1 flags a translation (conjugate
    to the plain involution) instead of passing."""
    b = _prepare(construction, backend, precision_bits)
    report = CurveReport(family=construction.family, k=construction.k,
                         backend=b.label)
    proven = _on_curve(b)
    for t in _sample_params(construction, samples, b.lift):
        expected = b.delta * t + b.tau
        if proven:
            got, ok = expected, True
        else:
            got = _curve_param(b, _image(b.L, _curve_point(b, t)))
            ok = got is not None and got is not OO and close(got, expected)
        report.samples.append((t, got, expected, ok))
    cusp = _curve_point(b, OO)
    report.cusp_fixed = proven or _matches(_image(b.L, cusp), cusp)
    # measured multiplier: slope through the first two good samples
    good = [
        (t, g) for (t, g, _, ok) in report.samples if ok and g is not None
    ]
    if len(good) >= 2:
        (t0, g0), (t1, g1) = good[0], good[1]
        slope = (g1 - g0) / (t1 - t0)
        report.multiplier_measured = slope
        report.translation_detected = close(slope, 1)
    return report


# ---------------------------------------------------------------------------
# distinctness


def blown_point_params(construction):
    """Parameters of all N = k + n blown-up points: the k+1 indeterminacy
    parameters plus the interior of the long orbit, and the orbit's
    endpoint, which should equal t_plus[0].  Computed once per construction
    and kept on it."""
    if construction.orbit is None:
        delta = construction.delta
        tau = construction.tau
        params = list(construction.t_plus)
        c = construction.s_params[construction.k]
        for _ in range(construction.n - 1):
            params.append(c)
            c = delta * c + tau
        construction.orbit = params, c
    return construction.orbit


def verify_distinctness(construction) -> bool:
    """N distinct blown-up points, by hash, and an orbit ending at t_0^+."""
    params, endpoint = blown_point_params(construction)
    return len(set(params)) == len(params) and endpoint == construction.t_plus[0]


# ---------------------------------------------------------------------------
# concurrent lines


@dataclass
class LinesOrbitReport:
    k: int
    m: int
    n: int
    orbit_length: int
    closes: bool
    on_union: bool
    cyclic: bool
    residual: float = 1.0  # closure distance; 1.0 when the walk stops early
    line_sequence: list = field(default_factory=list)
    failure: Optional[str] = None

    @property
    def all_passed(self) -> bool:
        return self.closes and self.on_union and self.cyclic


def verify_lines_orbit(
    construction, backend: str = "exact",
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> LinesOrbitReport:
    """Iterate F = (L_0 x .. x L_{m-1}) o J_m from the contracted image of
    the last coordinate hyperplane; the n(k+1) orbit points must stay on
    the lines through [1:...:1] and the coordinate points, advance through
    them cyclically, and the last must map onto (e0,..,e0).

    Each L_i is checked exactly to be ``construct._shaped_L(s, [v] * k)``.
    The pair [a : b] on line j is the point whose coordinates are b but a
    in slot j; such an L takes line j to line j + 1 by
    [[v, s - v], [0, s]] for j < k, and line k to line 0 by
    [[s, 0], [s - v, v]], and J_m keeps m points of one line on it.  So
    point i is on line i mod k + 1 (on every line at [1 : 1]), and the
    orbit is walked as m pairs by the shared ``_step_points`` with these
    maps, made of L's own entries in the backend, from [s : s - v] on line
    0, the last column of L.  It dies at a first factor [1 : 0], a
    coordinate point, or where J_m fails, and closes when every factor
    ends at [1 : 0]."""
    if construction.family != "lines":
        raise VerificationError("lines-family construction required")
    k, m, n = construction.k, construction.m, construction.n
    total = n * (k + 1)
    report = LinesOrbitReport(k=k, m=m, n=n, orbit_length=total, closes=False,
                              on_union=True, cyclic=False)
    for i, mat in enumerate(construction.L):
        (*_, s), (v, *_) = mat.matrix[:2]
        if mat.matrix != _shaped_L(s, [v] * k).matrix:
            report.on_union = False
            report.failure = f"L_{i} does not map the lines to each other"
            return report
    b = _prepare(construction, backend, precision_bits)
    forward, wrap = [], []
    for (zero, *_, s), (v, *_, rest) in (mat.matrix[:2] for mat in b.L):
        forward.append(LinearMap([[v, rest], [zero, s]]))
        wrap.append(LinearMap([[s, zero], [rest, v]]))
    one = one_like(b.delta)
    ends = [ProjectivePoint([one, one * 0])] * m
    concurrence = ProjectivePoint([one, one])
    point = [ProjectivePoint(row[k] for row in mat.matrix[:2]) for mat in b.L]
    for step in range(total):
        line = step % (k + 1)
        everywhere = point[0].eq(concurrence)
        report.line_sequence.append(list(range(k + 1)) if everywhere else [line])
        if not point[0].coords[1]:
            report.failure = f"premature indeterminacy at step {step}"
            break
        try:
            point = _step_points(wrap if line == k else forward, point)
        except IndeterminacyError:
            report.failure = f"premature indeterminacy at step {step + 1}"
            break
    else:
        report.closes, report.residual = _compare(point, ends)
    single = {e[0] for e in report.line_sequence if len(e) == 1}
    report.cyclic = single == set(range(k + 1))
    return report
