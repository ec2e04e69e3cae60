"""Closed-form construction of the Coxeter-case Cremona maps.

For the projective family the multiplier delta lives in Q(delta) =
Q[x]/(S(x)) with S the Salem factor of the characteristic polynomial; the
indeterminacy parameters t_j^+, the translation tau and the matrix L (the map
is F = L o J after conjugating away T) are all exact elements of that field.
A construction is exact data only: delta's numerical root is isolated by
``verify.field_root``, at the precision ``verify`` embeds at, and not here.
The center matrices T and S of the un-conjugated map S o J o T^{-1}, which
fixes the standard curve gamma, are fixed by t^+ and the parameters s of S,
and L = T^{-1} S up to scale.  A construction keeps those parameters and
not the matrices: ``verify`` checks the curve T^{-1} gamma that F fixes, in
closed form on t^+, and builds no T or S.  Explicit center matrices, in a
construction built by hand, define L = T^{-1} S.

No matrix is checked for singularity by elimination over Q(delta): every T
and S is a center matrix, whose determinant is (prod a_j) e_1(t) times the
Vandermonde determinant of its parameters, and every L has the determinant
(-1)^k s prod beta_r of its shape.  The field inversions that build the
column scalings a_j certify the first to be a unit when T and S are built
(see ``center_matrix``), and k products decide the second (see
``_shaped_L``).

The biprojective family follows the recurrence system for t_j^- (the printed
closed form for t_j^+ is evaluated alongside and any mismatch is recorded,
not patched); its two matrices L take pk's subdiagonal betas times
(delta+1)/delta.  The concurrent-lines family produces the m matrices L_j from
the multiplier alpha, whose field is the Salem factor of the Coxeter
polynomial of T(m+1, k+1, n(k+1)) (``spectra.coxeter_polynomial``); no
lattice matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .arith import NumberField, NumberFieldElement, inverse
from .geometry import LinearMap, curve_powers
from .spectra import FAMILY_POLYS, _check_kn, coxeter_polynomial, salem_factor


class ExceptionalPairError(Exception):
    """The cell (k, n), or (k, m, n) for lines, has a periodic Coxeter
    element: the multiplier would be a root of unity and the construction a
    linear conjugate of the standard involution."""

    def __init__(self, family, *cell):
        self.family, self.cell = family, cell
        super().__init__(
            f"({','.join(map(str, cell))}) is exceptional for family {family}: "
            "multiplier is a root of unity (no Salem factor)"
        )

    def __reduce__(self):
        return type(self), (self.family, *self.cell)


def _salem_field(poly, family, *cell) -> NumberField:
    """Q over the Salem factor of ``poly``; the one refusal of a periodic cell."""
    _, salem = salem_factor(poly)
    if salem is None:
        raise ExceptionalPairError(family, *cell)
    return NumberField(salem)


def delta_field(family: str, k: int, n: int) -> NumberField:
    """Number field Q(delta) over the Salem factor of the family's
    characteristic polynomial."""
    return _salem_field(FAMILY_POLYS[family][0](k, n), family, k, n)


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
    # explicit center matrices, for a construction built by hand: they
    # define L_i = T_i^{-1} S_i, which verify forms exactly; the families
    # leave them empty and keep only t_plus and s_params
    T_matrices: list = field(default_factory=list)
    S_matrices: list = field(default_factory=list)
    s_params: list = field(default_factory=list)  # parameters of S(e_j)
    m: Optional[int] = None
    notes: list = field(default_factory=list)
    # derived once, by verify: delta's numerical root per precision, the
    # construction's data per (backend, precision), and the orbit's
    # parameters with its endpoint (``verify.blown_point_params``)
    roots: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    backends: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    orbit: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def modulus(self):
        return self.field.modulus


# ---------------------------------------------------------------------------
# the generic curve-fixing basic cremona map (any multiplier, any centers)


def column_scalings(params):
    """Scalings a_i with M = [a_i * gamma(t_i)] satisfying M(1,..,1) = e_k:
    a_i = 1 / ((sum t_j) * prod_{j != i} (t_j - t_i)).  Each difference
    t_j - t_i is formed once, for i < j, and negated for j < i.  The sum
    e_1 must not vanish for the centers to be independent."""
    total = sum(params[1:], params[0])
    if not total:
        raise ValueError("parameter sum vanishes; centers are dependent")
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


def center_matrix(k: int, params) -> LinearMap:
    """Matrix with columns a_j * gamma(t_j), normalized to send (1,..,1) to
    the cusp e_k; column j is a_j, a_j t_j, .., a_j t_j^{k-1}, a_j t_j^{k+1}
    by running products, with a_j from ``column_scalings(params)``.

    Its determinant has the closed form

        det T = (prod_j a_j) * e_1(t) * prod_{i<j} (t_j - t_i),

    the generalized Vandermonde determinant on the monomials 1, x, ..,
    x^{k-1}, x^{k+1} being the Schur polynomial s_(1) = e_1 times the
    Vandermonde determinant.  ``column_scalings`` inverts
    e_1 * prod_{j != i} (t_j - t_i) for every i; for exact scalars
    ``inverse`` raises on a non-unit (``nf_invert`` certifies each inverse
    by an exact product), so e_1, every difference and every a_j are units,
    det T is a unit and T is invertible with no elimination."""
    cols = [curve_powers(a, t, k) for a, t in zip(column_scalings(params), params)]
    return LinearMap([[cols[j][i] for j in range(k + 1)] for i in range(k + 1)])


def curve_translation(k: int, delta, t_plus):
    """(tau, s_params) of the basic cremona map with multiplier delta and
    indeterminacy parameters t^+ that properly fixes the standard curve with
    F(gamma(t)) = gamma(delta t + tau): s_params are the parameters of the
    exceptional-image points S(e_j) = gamma(delta t_j^+ - 2 tau / (k-1))."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(t_plus) != k + 1:
        raise ValueError("need k+1 indeterminacy parameters")
    total = sum(t_plus[1:], t_plus[0])
    tau = delta * total * Fraction(k - 1, k + 1)
    return tau, [delta * t - tau * Fraction(2, k - 1) for t in t_plus]


def curve_fixing_map(k: int, delta, t_plus):
    """Basic cremona map S o J o T^{-1} properly fixing the standard curve
    with F(gamma(t)) = gamma(delta t + tau).

    Returns (T, S, tau, s_params): T and S are the center matrices of t^+
    and of s_params, with tau and s_params from ``curve_translation``.
    """
    tau, s_params = curve_translation(k, delta, t_plus)
    return center_matrix(k, t_plus), center_matrix(k, s_params), tau, s_params


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
    if not det:
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


def _betas_pk(k: int, delta: NumberFieldElement) -> list:
    """beta_i = (delta^i - 1) / (delta (delta^{k+1} - delta^i)), i = 1..k."""
    return [
        (delta ** i - 1) * (delta * (delta ** (k + 1) - delta ** i)).inverse()
        for i in range(1, k + 1)
    ]


def build_L_pk(k: int, delta: NumberFieldElement) -> LinearMap:
    """Matrix of the conjugated map F = L o J: row 0 = (0,..,0,1),
    subdiagonal beta_i (``_betas_pk``), last column 1 - beta_i."""
    return _shaped_L(delta.field.one(), _betas_pk(k, delta))


def construct_pk(k: int, n: int) -> CoxeterConstruction:
    fld = delta_field("pk", k, n)
    delta = fld.gen()
    t_plus = tplus_pk(k, delta)
    tau, s_params = curve_translation(k, delta, t_plus)
    return CoxeterConstruction(
        family="pk",
        k=k,
        n=n,
        field=fld,
        delta=delta,
        t_plus=t_plus,
        tau=tau,
        L=[build_L_pk(k, delta)],
        s_params=s_params,
    )


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
    beta_j = (delta^j-1)(delta+1)/(delta^2(delta^{k+1}-delta^j)), pk's
    beta_j (``_betas_pk``) times (delta+1)/delta, last column s_i - beta_j;
    s_1 = 1, s_2 = (delta+1)^2/delta, (delta+1) times the same scale.

    s_2 is rederived from T_2^{-1} S_2 rather than taken from the published
    value (delta^2+delta+1)/delta, which fails the factorization check.
    """
    scale = (delta + 1) * delta.inverse()
    betas = [b * scale for b in _betas_pk(k, delta)]
    return [_shaped_L(s, betas) for s in (delta.field.one(), (delta + 1) * scale)]


def construct_biproj(k: int, n: int) -> CoxeterConstruction:
    fld = delta_field("biproj", k, n)
    delta = fld.gen()
    t_plus, t_minus, closed_ok = tplus_biproj(k, delta)
    tau = Fraction(k) + Fraction(k - 1) * delta
    notes = []
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
        L=build_L_biproj(k, delta),
        s_params=t_minus,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# concurrent-lines family on (P^k)^m


def build_L_lines(k: int, m: int, alpha):
    """The m matrices L_j: row 0 = (0,..,0,s_j), constant subdiagonal
    v = -alpha (alpha^m - 1)/(alpha - 1), last column s_j - v, with
    s_j = (alpha^m-1)(alpha^{j+1}-1) / (alpha^j (alpha-1)(alpha^{m-j}-1)).

    The matrices do not depend on n.  alpha generates a field whose modulus
    is a Salem factor, not cyclotomic, so no alpha^j - 1 vanishes."""
    am = alpha ** m
    denom = alpha - 1
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


def lines_alpha_field(k: int, m: int, n: int) -> NumberField:
    """Multiplier field for the lines family, over the Salem factor of the
    Coxeter polynomial of the T(m+1, k+1, n(k+1)) diagram
    (``spectra.coxeter_polynomial``).

    The diagram rank (m+1) + (k+1) + n(k+1) - 2 equals m + N with
    N = k + n(k+1) blown-up points, matching the Picard rank of (P^k)^m
    blown up along the full orbit."""
    return _salem_field(
        coxeter_polynomial(m + 1, k + 1, n * (k + 1)), "lines", k, m, n
    )


def construct_lines(k: int, m: int, n: int) -> CoxeterConstruction:
    # refused before the Coxeter polynomial, which is periodic for some of
    # these and would be reported as an exceptional cell
    _check_kn(k, n)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    fld = lines_alpha_field(k, m, n)
    alpha = fld.gen()
    return CoxeterConstruction(
        family="lines",
        k=k,
        n=n,
        field=fld,
        delta=alpha,
        t_plus=[],
        tau=fld.zero(),
        L=build_L_lines(k, m, alpha),
        m=m,
    )
