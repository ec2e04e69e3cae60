"""Closed-form construction of the Coxeter-case Cremona maps.

For the projective family the multiplier delta lives in Q(delta) =
Q[x]/(S(x)) with S the Salem factor of the characteristic polynomial; the
indeterminacy parameters t_j^+, the translation tau and the matrix L (the map
is F = L o J after conjugating away T) are all exact elements of that field.
Explicit S and T matrices are kept as well so the un-conjugated map
F = S o J o T^{-1}, which fixes the standard curve, can be verified directly.

No matrix is checked for singularity by elimination over Q(delta): every T
and S is a center matrix, whose determinant is (prod a_j) e_1(t) times the
Vandermonde determinant of its parameters, and every L has the determinant
(-1)^k s prod beta_r of its shape.  The field inversions that build the
column scalings a_j certify the first to be a unit (see ``center_matrix``),
and k products decide the second (see ``_shaped_L``).  ``verify`` still
inverts T by elimination, so curve invariance checks T independently.

The biprojective family follows the recurrence system for t_j^- (the printed
closed form for t_j^+ is evaluated alongside and any mismatch is recorded,
not patched).  The concurrent-lines family produces the m matrices L_j from
the multiplier alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .arith import (
    DEFAULT_PRECISION_BITS,
    NumberField,
    NumberFieldElement,
    inverse,
    is_zero,
)
from .geometry import LinearMap, curve_powers
from .spectra import spectral_report


class ExceptionalPairError(Exception):
    """(k, n) has a purely cyclotomic characteristic polynomial: the
    multiplier would be a root of unity and the construction degenerates to a
    linear conjugate of the standard involution."""

    def __init__(self, family, k, n):
        self.family, self.k, self.n = family, k, n
        super().__init__(
            f"({k},{n}) is exceptional for family {family}: "
            "multiplier is a root of unity (no Salem factor)"
        )

    def __reduce__(self):
        return type(self), (self.family, self.k, self.n)


class RootOfUnityError(Exception):
    pass


def delta_field(family: str, k: int, n: int):
    """Number field Q(delta) over the Salem factor, plus the spectral report
    (computed at the default precision)."""
    rep = spectral_report(family, k, n, DEFAULT_PRECISION_BITS)
    if rep.exceptional or rep.salem_factor is None:
        raise ExceptionalPairError(family, k, n)
    fld = NumberField(rep.salem_factor)
    return fld, rep


@dataclass
class CoxeterConstruction:
    family: str
    k: int
    n: int
    field: NumberField
    delta: NumberFieldElement
    t_plus: list
    tau: NumberFieldElement
    L: list  # one LinearMap (pk), two (biproj), m (lines)
    T_matrices: list = field(default_factory=list)
    S_matrices: list = field(default_factory=list)
    s_params: list = field(default_factory=list)  # parameters of S(e_j)
    m: Optional[int] = None
    notes: list = field(default_factory=list)
    # derived once, by verify: delta's numerical root per precision, and the
    # construction's data per (backend, precision)
    roots: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    backends: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def modulus(self):
        return self.field.modulus

    def keep_root(self, root) -> "CoxeterConstruction":
        """Reuse a Salem root already isolated at the default precision
        (None when there is none)."""
        if root is not None:
            self.roots[DEFAULT_PRECISION_BITS] = root
        return self


# ---------------------------------------------------------------------------
# the generic curve-fixing basic cremona map (any multiplier, any centers)


def _parameter_sum(params):
    """e_1 of the parameters; it must not vanish for the centers to be
    independent."""
    total = sum(params[1:], params[0])
    if is_zero(total):
        raise ValueError("parameter sum vanishes; centers are dependent")
    return total


def column_scalings(params):
    """Scalings a_i with M = [a_i * gamma(t_i)] satisfying M(1,..,1) = e_k:
    a_i = 1 / ((sum t_j) * prod_{j != i} (t_j - t_i)).  Each difference
    t_j - t_i is formed once, for i < j, and negated for j < i."""
    total = _parameter_sum(params)
    n = len(params)
    diffs = {(i, j): params[j] - params[i] for i in range(n) for j in range(i + 1, n)}
    out = []
    for i in range(n):
        prod = total
        for j in range(n):
            if j != i:
                prod = prod * (diffs[i, j] if i < j else -diffs[j, i])
        out.append(inverse(prod))
    return out


def affine_scalings(scalings, params, image, lam):
    """``column_scalings(image)`` for image_i = lam * params_i + c, from the
    scalings of params: every difference image_j - image_i is lam times
    params_j - params_i, so each scaling changes by the one factor
    e_1(params) / (e_1(image) lam^k), one inversion for all k + 1."""
    k = len(params) - 1
    factor = _parameter_sum(params) * inverse(_parameter_sum(image) * lam ** k)
    return [a * factor for a in scalings]


def center_matrix(k: int, params, scalings=None) -> LinearMap:
    """Matrix with columns a_j * gamma(t_j), normalized to send (1,..,1) to
    the cusp e_k; column j is a_j, a_j t_j, .., a_j t_j^{k-1}, a_j t_j^{k+1}
    by running products.  The scalings a_j are ``column_scalings(params)``
    unless given.

    Its determinant has the closed form

        det T = (prod_j a_j) * e_1(t) * prod_{i<j} (t_j - t_i),

    the generalized Vandermonde determinant on the monomials 1, x, ..,
    x^{k-1}, x^{k+1} being the Schur polynomial s_(1) = e_1 times the
    Vandermonde determinant.  ``column_scalings`` inverts
    e_1 * prod_{j != i} (t_j - t_i) for every i; for exact scalars
    ``inverse`` raises on a non-unit (``nf_invert`` certifies each inverse
    by an exact product), so e_1, every difference and every a_j are units,
    det T is a unit and T is invertible with no elimination.  Scalings from
    ``affine_scalings`` keep the certificate: it inverts e_1(s) lam^k, so
    e_1(s) and lam are units, every difference s_j - s_i = lam (t_j - t_i)
    is a product of units, and so is every a(s)_j = a(t)_j e_1(t) /
    (e_1(s) lam^k)."""
    if scalings is None:
        scalings = column_scalings(params)
    cols = [curve_powers(a, t, k) for a, t in zip(scalings, params)]
    return LinearMap([[cols[j][i] for j in range(k + 1)] for i in range(k + 1)])


def curve_fixing_map(k: int, delta, t_plus):
    """Basic cremona map S o J o T^{-1} properly fixing the standard curve
    with F(gamma(t)) = gamma(delta t + tau).

    Returns (T, S, tau, s_params) where s_params are the parameters of the
    exceptional-image points S(e_j) = gamma(delta t_j^+ - 2 tau / (k-1)),
    an affine image of t^+, so S takes its scalings from T's.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(t_plus) != k + 1:
        raise ValueError("need k+1 indeterminacy parameters")
    total = sum(t_plus[1:], t_plus[0])
    tau = delta * total * Fraction(k - 1, k + 1)
    s_params = [delta * t - tau * Fraction(2, k - 1) for t in t_plus]
    scalings = column_scalings(t_plus)
    T = center_matrix(k, t_plus, scalings)
    S = center_matrix(k, s_params, affine_scalings(scalings, t_plus, s_params, delta))
    return T, S, tau, s_params


def _shaped_L(s, betas) -> LinearMap:
    """The shape every family's L has: row 0 = (0,..,0,s), row r has
    betas[r-1] in column r-1 and s - betas[r-1] in the last column.

    The only nonzero Leibniz term takes column k in row 0 and column r-1 in
    row r, a (k+1)-cycle, so det L = (-1)^k * s * prod_r beta_r in any
    commutative ring: k products decide singularity, with no elimination."""
    k = len(betas)
    det = s
    for b in betas:
        det = det * b
    if is_zero(det):
        raise ValueError("singular matrix")
    zero = s * 0
    rows = [[zero] * k + [s]]
    for r, b in enumerate(betas):
        row = [zero] * (k + 1)
        row[r] = b
        row[k] = s - b
        rows.append(row)
    return LinearMap(rows)


# ---------------------------------------------------------------------------
# projective-space family


def tplus_pk(k: int, delta: NumberFieldElement):
    """t_j^+ = delta^j (k+1)/(k-1) (delta^2-1)/(delta(delta^{k+1}-1)) - 2/(k-1)."""
    base = (
        (delta * delta - 1)
        * (delta * (delta ** (k + 1) - 1)).inverse()
        * Fraction(k + 1, k - 1)
    )
    shift = Fraction(2, k - 1)
    return [delta ** j * base - shift for j in range(k + 1)]


def build_L_pk(k: int, delta: NumberFieldElement) -> LinearMap:
    """Matrix of the conjugated map F = L o J: row 0 = (0,..,0,1),
    subdiagonal beta_i = (delta^i - 1) / (delta (delta^{k+1} - delta^i)),
    last column 1 - beta_i."""
    betas = [
        (delta ** i - 1) * (delta * (delta ** (k + 1) - delta ** i)).inverse()
        for i in range(1, k + 1)
    ]
    return _shaped_L(delta.field.one(), betas)


def construct_pk(k: int, n: int) -> CoxeterConstruction:
    fld, rep = delta_field("pk", k, n)
    delta = fld.gen()
    t_plus = tplus_pk(k, delta)
    T, S, tau, s_params = curve_fixing_map(k, delta, t_plus)
    L = build_L_pk(k, delta)
    notes = list(rep.notes)
    return CoxeterConstruction(
        family="pk",
        k=k,
        n=n,
        field=fld,
        delta=delta,
        t_plus=t_plus,
        tau=tau,
        L=[L],
        T_matrices=[T],
        S_matrices=[S],
        s_params=s_params,
        notes=notes,
    ).keep_root(rep.delta.value if rep.delta else None)


# ---------------------------------------------------------------------------
# biprojective family


def tplus_biproj(k: int, delta: NumberFieldElement):
    """Indeterminacy parameters for the biprojective family.

    The singleton orbits in the orbit data force t_j^- = t_{j+1}^+ for
    j < k, i.e. the recurrence t_{j+1}^+ = delta t_j^+ - (2 delta + 1);
    combined with sum t_j^+ = (k+1)(1/delta + 1) this pins every parameter.
    The exceptional-image parameters follow from t_j^- = delta(t_j^+ - 2) - 1.

    Returns (t_plus, t_minus, closed_form_matches) where the flag records
    whether an alternative published closed form for t_j^+ reproduces these
    values (it does not; the discrepancy is surfaced, not patched).
    """
    dinv = delta.inverse()
    dm1 = (delta - 1).inverse()
    powers = [delta ** i for i in range(k + 2)]
    geom = [(powers[i] - 1) * dm1 for i in range(k + 1)]  # (delta^i-1)/(delta-1)
    step = 2 * delta + 1
    # sum over j of delta^j t_0^+ - step*geom_j = (k+1)(1/delta + 1)
    sum_pow = sum(powers[: k + 1], delta.field.zero())
    sum_geom = sum(geom, delta.field.zero())
    rhs = Fraction(k + 1) * (dinv + 1)
    t0_plus = (rhs + step * sum_geom) * sum_pow.inverse()
    t_plus = [powers[j] * t0_plus - step * geom[j] for j in range(k + 1)]
    t_minus = [delta * (tp - 2) - 1 for tp in t_plus]
    # published closed form, for comparison only
    scale = dinv * (powers[k + 1] - 1).inverse() * (
        Fraction(k * (k + 1)) - delta * (delta + 1)
    )
    tail = (k - 2 * delta * delta - delta + 1) * dinv * dm1
    closed = [powers[j] * scale - tail for j in range(k + 1)]
    matches = all(c == t for c, t in zip(closed, t_plus))
    return t_plus, t_minus, matches


def build_L_biproj(k: int, delta: NumberFieldElement):
    """The pair (L1, L2): row 0 = (0,..,0,s_i), subdiagonal
    beta_j = (delta^j-1)(delta+1)/(delta^2(delta^{k+1}-delta^j)),
    last column s_i - beta_j; s_1 = 1, s_2 = (delta+1)^2/delta.

    s_2 is rederived from T_2^{-1} S_2 rather than taken from the published
    value (delta^2+delta+1)/delta, which fails the factorization check.
    """
    betas = [
        (delta ** j - 1)
        * (delta + 1)
        * (delta * delta * (delta ** (k + 1) - delta ** j)).inverse()
        for j in range(1, k + 1)
    ]
    s_vals = [delta.field.one(), (delta + 1) ** 2 * delta.inverse()]
    return [_shaped_L(s, betas) for s in s_vals]


def construct_biproj(k: int, n: int) -> CoxeterConstruction:
    fld, rep = delta_field("biproj", k, n)
    delta = fld.gen()
    t_plus, t_minus, closed_ok = tplus_biproj(k, delta)
    tau = Fraction(k) + Fraction(k - 1) * delta
    L1, L2 = build_L_biproj(k, delta)
    # explicit center matrices for both factors of T and S; every
    # parameter set is an affine image of t^+, with slope 1 or delta
    scalings = column_scalings(t_plus)

    def shared(params, lam):
        return center_matrix(k, params, affine_scalings(scalings, t_plus, params, lam))

    T1 = center_matrix(k, t_plus, scalings)
    T2 = shared([t - 1 for t in t_plus], 1)
    S1 = shared(t_minus, delta)
    S2 = shared([t - 1 for t in t_minus], delta)
    notes = list(rep.notes)
    if not closed_ok:
        notes.append(
            "published closed form for t_j^+ disagrees with the orbit-data "
            "recurrence; recurrence values used (they reproduce L exactly)"
        )
    return CoxeterConstruction(
        family="biproj",
        k=k,
        n=n,
        field=fld,
        delta=delta,
        t_plus=t_plus,
        tau=tau,
        L=[L1, L2],
        T_matrices=[T1, T2],
        S_matrices=[S1, S2],
        s_params=t_minus,
        notes=notes,
    ).keep_root(rep.delta.value if rep.delta else None)


# ---------------------------------------------------------------------------
# concurrent-lines family on (P^k)^m


def build_L_lines(k: int, m: int, n: int, alpha):
    """The m matrices L_j: row 0 = (0,..,0,s_j), constant subdiagonal
    v = -alpha (alpha^m - 1)/(alpha - 1), last column s_j - v, with
    s_j = (alpha^m-1)(alpha^{j+1}-1) / (alpha^j (alpha-1)(alpha^{m-j}-1)).

    The matrices do not depend on n; n fixes the intended long-orbit length
    n(k+1) and is validated here."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    am = alpha ** m
    denom = alpha - 1
    if is_zero(denom) or is_zero(am - 1):
        raise RootOfUnityError("alpha must not be a root of unity")
    v = -alpha * (am - 1) * inverse(denom)
    return [
        _shaped_L(
            (am - 1)
            * (alpha ** (j + 1) - 1)
            * inverse(alpha ** j * denom * (alpha ** (m - j) - 1)),
            [v] * k,
        )
        for j in range(m)
    ]


def lines_alpha_field(k: int, m: int, n: int):
    """Default multiplier field for the lines family, over the Salem factor
    of the Coxeter element of the T(m+1, k+1, n(k+1)) diagram, plus that
    element's spectral radius (the field's root at the default precision).

    The diagram rank (m+1) + (k+1) + n(k+1) - 2 equals m + N with
    N = k + n(k+1) blown-up points, matching the Picard rank of (P^k)^m
    blown up along the full orbit."""
    from .picard import coxeter_element_tpqr, spectral_radius

    arm = n * (k + 1)
    radius, _, salem = spectral_radius(coxeter_element_tpqr(m + 1, k + 1, arm))
    if salem is None:
        raise RootOfUnityError(
            f"T({m + 1},{k + 1},{arm}) Coxeter element is periodic: "
            "multiplier would be a root of unity"
        )
    return NumberField(salem), radius


def construct_lines(k: int, m: int, n: int, alpha=None) -> CoxeterConstruction:
    # refused before the Coxeter element, which is periodic for some of
    # these and would be reported as a root-of-unity multiplier
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    radius = None
    if alpha is None:
        fld, radius = lines_alpha_field(k, m, n)
        alpha = fld.gen()
    elif isinstance(alpha, NumberFieldElement):
        fld = alpha.field
    else:
        raise ValueError("alpha override must be a NumberFieldElement")
    mats = build_L_lines(k, m, n, alpha)
    return CoxeterConstruction(
        family="lines",
        k=k,
        n=n,
        field=fld,
        delta=alpha,
        t_plus=[],
        tau=fld.zero(),
        L=mats,
        m=m,
    ).keep_root(radius)
