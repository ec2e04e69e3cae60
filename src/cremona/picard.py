"""Combinatorial Picard lattice of the blowup and the Coxeter action.

One ``PicardLattice`` serves both families: an explicit ordered basis of
hyperplane classes (H for P^k, H and V for P^k x P^k) followed by the
exceptional classes E_{i,j}, a Gram matrix for the invariant pairing, and a
root basis whose reflections generate a T-shaped Weyl group.  A small
per-family table gives the hyperplane block and the pullbacks of the
hyperplane classes and of the last class of an orbit.  The pullback action is
assembled two independent ways, as the reflection s0 times one basis
permutation sigma-hat * pi_0 ... pi_k and directly from that table
(``geometric_pullback``), so the two can be cross-checked.

Characteristic polynomials come from the Berkowitz algorithm (division-free,
stays in integers).  It and the matrix products skip zero entries, since an
action has a few nonzeros per row (60 of 1,225 entries at rank 35).
Spectral radii reuse the certified root isolation of the spectra module,
by Descartes' rule of signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .arith import DEFAULT_PRECISION_BITS, BigFloat
from .polynomials import IntegerPolynomial
from .spectra import leading_salem_root, salem_factor


@dataclass(frozen=True)
class OrbitData:
    lengths: tuple
    sigma: tuple  # permutation of {0..k}: orbit i feeds indeterminacy sigma(i)

    def __post_init__(self):
        k1 = len(self.lengths)
        if any(n < 1 for n in self.lengths):
            raise ValueError("orbit lengths must be positive")
        if sorted(self.sigma) != list(range(k1)):
            raise ValueError("sigma must be a permutation of the orbit indices")

    @classmethod
    def coxeter(cls, k: int, n: int) -> "OrbitData":
        """(1, ..., 1, n) with the cyclic permutation i -> i+1."""
        return cls(
            lengths=tuple([1] * k + [n]),
            sigma=tuple((i + 1) % (k + 1) for i in range(k + 1)),
        )

    @property
    def total(self) -> int:
        return sum(self.lengths)


# Per family, as functions of k: the hyperplane classes that head the basis,
# their Gram block, their pullbacks, and the pullback of the last class of an
# orbit.  A pullback is (coefficients on the hyperplane classes, coefficient
# on the first-step classes E_{m,1}).
FAMILIES = {
    "pk": lambda k: (("H",), [[k - 1]], [((k,), 1 - k)], ((1,), -1)),
    "biproj": lambda k: (
        ("H", "V"),
        [[k - 1, k], [k, k - 1]],
        [((0, k), 1 - k), ((1, k), -k)],
        ((0, 1), -1),
    ),
}


class PicardLattice:
    """Basis-indexed lattice for a blowup of P^k (family "pk") or of
    P^k x P^k (family "biproj") at N curve points.

    Basis order: the hyperplane classes (H, or H and V), then
    E_{0,1}..E_{k,1}, then the tail of the longest orbit, then remaining
    tails in (orbit, step) order.
    """

    def __init__(self, k: int, orbit: OrbitData, family: str = "pk"):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if k < 2:
            raise ValueError("k must be >= 2")
        if len(orbit.lengths) != k + 1:
            raise ValueError("need k+1 orbit lengths")
        self.k = k
        self.orbit = orbit
        hyperplanes, self._block, _, _ = FAMILIES[family](k)
        self.header = len(hyperplanes)
        labels = [(h,) for h in hyperplanes]
        labels += [("E", i, 1) for i in range(k + 1)]
        longest = max(range(k + 1), key=lambda i: (orbit.lengths[i], i))
        labels += [("E", longest, j) for j in range(2, orbit.lengths[longest] + 1)]
        for i in range(k + 1):
            if i != longest:
                labels += [("E", i, j) for j in range(2, orbit.lengths[i] + 1)]
        self.labels = labels
        self.index = {lab: pos for pos, lab in enumerate(labels)}
        self.rank = len(labels)

    @property
    def exceptional(self):
        """The labels ("E", i, j) in basis order."""
        return self.labels[self.header:]

    def gram(self):
        """The family's block on the hyperplane classes, <E,E> = -1,
        everything else orthogonal."""
        g = [[0] * self.rank for _ in range(self.rank)]
        for r, row in enumerate(self._block):
            g[r][: self.header] = row
        for i in range(self.header, self.rank):
            g[i][i] = -1
        return g

    def e_index(self, i: int, j: int) -> int:
        return self.index[("E", i, j)]

    def forward(self, i: int, j: int):
        """Position of E_{i,j+1}, or None when E_{i,j} ends orbit i."""
        return self.index.get(("E", i, j + 1))

    def roots(self):
        """alpha_0 = H - sum E_{i,1}; alpha_i = E_{i-1} - E_i in basis order."""
        out = []
        a0 = [0] * self.rank
        a0[0] = 1
        for i in range(self.k + 1):
            a0[self.e_index(i, 1)] = -1
        out.append(a0)
        for i in range(self.header + 1, self.rank):
            a = [0] * self.rank
            a[i - 1] = 1
            a[i] = -1
            out.append(a)
        return out

    def anticanonical(self):
        """-K_X = (k+1) times each hyperplane class - (dim-1) sum E_{i,j},
        dim = k or 2k."""
        dim = self.k * self.header
        return [self.k + 1] * self.header + [1 - dim] * (self.rank - self.header)

    def curve_degrees(self):
        """Intersection numbers with the curve: H.C = k+1 (V.C too), E.C = 1."""
        return [self.k + 1] * self.header + [1] * (self.rank - self.header)


def pair(gram, a, b) -> int:
    """a^T G b."""
    return sum(x * y for x, y in zip(a, mat_vec(gram, b)))


def reflection(alpha: Sequence[int], gram):
    """Matrix of D -> D + <D, alpha> alpha; alpha must have norm -2."""
    if pair(gram, alpha, alpha) != -2:
        raise ValueError("reflection requires a root of square -2")
    n = len(alpha)
    # <e_j, alpha> as a row functional
    func = [sum(gram[j][i] * alpha[i] for i in range(n)) for j in range(n)]
    return [
        [(1 if r == c else 0) + alpha[r] * func[c] for c in range(n)]
        for r in range(n)
    ]


def mat_mul(a, b):
    """Product of matrices given as lists of rows: each nonzero entry of a
    row of ``a`` times the nonzero entries of the matching row of ``b``."""
    width = len(b[0]) if b else 0
    sparse_b = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, b_row in zip(row, sparse_b):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def congruence(m, gram):
    """M^T G M: the Gram matrix of the columns of m, in O(n^3)."""
    return mat_mul(transpose(m), mat_mul(gram, m))


def preserves_form(m, gram) -> bool:
    return congruence(m, gram) == gram


def coxeter_action(k: int, orbit: OrbitData):
    """Integer matrix of the pullback on Pic, as s0 * sigma-hat * pi_0..pi_k.

    pi_i cycles the exceptional classes along orbit i; sigma-hat permutes the
    first-step classes E_{i,1} -> E_{sigma(i),1}; s0 reflects in
    H - sum E_{i,1}.  Together sigma-hat * pi_0..pi_k is one permutation of
    the basis: E_{i,j} -> E_{i,j+1} along each orbit, and the last class of
    orbit i -> E_{sigma(i),1}.
    """
    lat = PicardLattice(k, orbit)
    s0 = reflection(lat.roots()[0], lat.gram())
    perm = [0]
    for _, i, j in lat.exceptional:
        nxt = lat.forward(i, j)
        perm.append(lat.e_index(orbit.sigma[i], 1) if nxt is None else nxt)
    # s0 times a permutation matrix: column c of s0 * P is column perm[c] of s0
    return [[row[p] for p in perm] for row in s0], lat


def geometric_pullback(k: int, orbit: OrbitData, family: str = "pk"):
    """The same action assembled from degrees and multiplicities: each
    hyperplane class maps by the family's table (pk: H -> kH - (k-1) sum
    E_{m,1}; biproj: H -> kV - (k-1) sum E_{m,1}, V -> H + kV - k sum
    E_{m,1}); E_{i,j} moves forward to E_{i,j+1} for j < n_i; the last class
    of orbit i becomes H (biproj: V) - sum_{m != sigma(i)} E_{m,1} (the
    exceptional divisor over the indeterminacy point blows up to a
    hyperplane through the other first-step centers)."""
    lat = PicardLattice(k, orbit, family)
    _, _, pullbacks, last_pullback = FAMILIES[family](k)
    first = [lat.e_index(m, 1) for m in range(k + 1)]

    def image(header, e_coeff, skip=None):
        col = list(header) + [0] * (lat.rank - lat.header)
        for m, pos in enumerate(first):
            if m != skip:
                col[pos] = e_coeff
        return col

    cols = [image(*img) for img in pullbacks]
    for _, i, j in lat.exceptional:
        nxt = lat.forward(i, j)
        if nxt is None:
            cols.append(image(*last_pullback, skip=orbit.sigma[i]))
        else:
            cols.append([int(r == nxt) for r in range(lat.rank)])
    return [list(row) for row in zip(*cols)], lat


def berkowitz_charpoly(matrix) -> IntegerPolynomial:
    """Characteristic polynomial det(xI - A), division-free.

    Step m borders the leading m x m block B with row R, column C and corner
    a: the coefficients are multiplied by the Toeplitz matrix of
    (1, -a, -RC, -RBC, ..., -RB^(m-1)C).  B is kept as one flat list of its
    nonzero (row, col, value) entries, grown one border at a time, so each
    product w <- Bw is one pass over that list; once w = B^s C is zero, the
    terms left are zero and are not formed.
    """
    # coefficients highest degree first; char poly of the empty matrix is 1
    coeffs = [1]
    entries = []  # nonzero (row, col, value) of the leading m x m block
    for m, row in enumerate(matrix):
        border = [(j, x) for j, x in enumerate(row[:m]) if x]
        w = column = [matrix[i][m] for i in range(m)]
        v = [1, -row[m]]
        for step in range(m):
            if not any(w):
                break  # B^s C = 0 for this s and every larger one
            v.append(-sum(x * w[j] for j, x in border))
            if step < m - 1:
                product = [0] * m
                for i, j, x in entries:
                    product[i] += x * w[j]
                w = product
        new = [0] * (m + 2)
        for i, vi in enumerate(v):
            if vi:
                for j, c in enumerate(coeffs[: m + 2 - i]):
                    new[i + j] += vi * c
        coeffs = new
        entries += [(i, m, x) for i, x in enumerate(column) if x]
        entries += [(m, j, x) for j, x in border]
        if row[m]:
            entries.append((m, m, row[m]))
    return IntegerPolynomial(list(reversed(coeffs)))


def spectral_radius(
    matrix, precision_bits: int = DEFAULT_PRECISION_BITS, known=None
):
    """(radius, char poly, salem core or None); radius 1 when the polynomial
    is purely cyclotomic.  ``known`` is an optional (Salem factor, its
    ``leading_salem_root`` at ``precision_bits``) pair; when the matrix's
    Salem factor is that polynomial, its root is taken, not isolated again."""
    cp = berkowitz_charpoly(matrix)
    _, salem = salem_factor(cp)
    if salem is None:
        root = None
    elif known is not None and known[0] == salem:
        root = known[1]
    else:
        root = leading_salem_root(salem, precision_bits)
    radius = BigFloat(1, precision_bits) if root is None else root.value
    return radius, cp, salem


# ---------------------------------------------------------------------------
# abstract T(p,q,r) diagrams


def tpqr_gram(p: int, q: int, r: int):
    """Gram matrix (-2 on the diagonal, 1 across edges) of the T-shaped tree
    with arms of p-1, q-1, r-1 nodes joined at a branch node (listed last)."""
    if min(p, q, r) < 1:
        raise ValueError("arm parameters must be >= 1")
    arms = [p - 1, q - 1, r - 1]
    n = sum(arms) + 1
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
    branch = n - 1
    pos = 0
    for arm in arms:
        for step in range(arm):
            node = pos + step
            neighbor = node + 1 if step < arm - 1 else branch
            g[node][neighbor] = g[neighbor][node] = 1
        pos += arm
    return g


def coxeter_element_tpqr(p: int, q: int, r: int):
    """Matrix of the product of all simple reflections of T(p,q,r), branch
    node last; ``spectral_radius`` gives its radius and Salem factor."""
    gram = tpqr_gram(p, q, r)
    n = len(gram)
    m = identity_matrix(n)
    for i in range(n):  # arms first, branch node last by construction
        alpha = [1 if j == i else 0 for j in range(n)]
        m = mat_mul(m, reflection(alpha, gram))
    return m


# ---------------------------------------------------------------------------
# canonical pairings and curve traces


def canonical_pairings(k: int, orbit: OrbitData):
    """(<K,K>, K.C), each computed from the closed form and recomputed from
    the basis; a mismatch raises."""
    lat = PicardLattice(k, orbit)
    bign = orbit.total
    kk_closed = (k + 1) ** 2 * (k - 1) - (k - 1) ** 2 * bign
    kc_closed = bign * (k - 1) - (k + 1) ** 2
    minus_k = lat.anticanonical()
    kk_gram = pair(lat.gram(), minus_k, minus_k)
    degs = lat.curve_degrees()
    kc_basis = -sum(c * d for c, d in zip(minus_k, degs))
    if kk_gram != kk_closed or kc_basis != kc_closed:
        raise ValueError(
            f"pairing mismatch: closed ({kk_closed},{kc_closed}) vs "
            f"recomputed ({kk_gram},{kc_basis})"
        )
    return kk_closed, kc_closed


@dataclass
class TraceReport:
    k: int
    n: int
    checked: list  # (description, passed)
    salem_divides: bool


def class_traces(construction, lat: PicardLattice, positions) -> dict:
    """u-parameter traces of the basis classes of ``lat`` at ``positions``,
    u = t - 1, as {position: trace}.

    A hyperplane meets the curve at parameters summing to 0, so tr(H) =
    -(k+1) in u coordinates; E_{i,j} carries the parameter of its center,
    the (j-1)-st forward image of the i-th exceptional point, so its trace
    is delta^(j-1) (s_i - 1), with the powers of delta formed by running
    products up to the largest j asked for.
    """
    k = construction.k
    top = max((lat.labels[p][2] for p in positions if p >= lat.header), default=1)
    powers = [construction.field.one()]
    for _ in range(top - 1):
        powers.append(powers[-1] * construction.delta)
    traces = {}
    for p in positions:
        if p < lat.header:
            traces[p] = construction.field.element([-(k + 1)])
        else:
            _, i, j = lat.labels[p]
            shift = construction.s_params[i] - 1
            traces[p] = powers[j - 1] * shift if j > 1 else shift
    return traces


def trace_compatibility(construction, *, action=None, charpoly=None) -> TraceReport:
    """Check tr(F* D) = delta tr(D) for the degree-zero classes D of
    ``default_trace_classes``.

    The trace functional is linear over the basis traces; degree zero means
    D.C = 0, which makes the trace independent of translation normalization.
    Only the classes with a nonzero coefficient in some D or F* D have their
    traces formed.  ``action`` is the (matrix, lattice) pair
    ``coxeter_action`` gives for the construction's (1, ..., 1, n) orbit and
    ``charpoly`` its characteristic polynomial; each is computed here when
    the caller has not.
    """
    k, n = construction.k, construction.n
    delta = construction.delta
    if action is None:
        action = coxeter_action(k, OrbitData.coxeter(k, n))
    m, lat = action
    degs = lat.curve_degrees()
    pairs = [(desc, vec, mat_vec(m, vec)) for desc, vec in default_trace_classes(lat)]
    traces = class_traces(construction, lat, {
        i for _, vec, image in pairs for v in (vec, image)
        for i, c in enumerate(v) if c})
    zero = construction.field.zero()

    def trace(v):
        return sum((traces[i] * c for i, c in enumerate(v) if c), zero)

    checked = []
    for desc, vec, image in pairs:
        if sum(c * d for c, d in zip(vec, degs)) != 0:
            checked.append((desc + " (not degree zero)", False))
        else:
            checked.append((desc, trace(image) == delta * trace(vec)))
    # the modulus is monic, so it divides cp exactly when it divides -cp
    if charpoly is None:
        charpoly = berkowitz_charpoly(m)
    salem_divides = charpoly.try_divide(construction.modulus) is not None
    return TraceReport(k=k, n=n, checked=checked, salem_divides=salem_divides)


def default_trace_classes(lat: PicardLattice):
    """Three degree-zero sample classes in the span of H and the E's."""
    k = lat.k
    out = []
    v = [0] * lat.rank
    v[0] = -1
    v[lat.e_index(0, 1)] = k + 1
    out.append(("(k+1)E_{0,1} - H", v))
    w = [0] * lat.rank
    w[lat.e_index(0, 1)] = 1
    w[lat.e_index(1, 1)] = -1
    out.append(("E_{0,1} - E_{1,1}", w))
    u = [0] * lat.rank
    u[0] = -1
    u[lat.e_index(k, 1)] = k
    if lat.orbit.lengths[k] > 1:
        u[lat.e_index(k, 2)] = 1
        out.append(("kE_{k,1} + E_{k,2} - H", u))
    else:
        u[lat.e_index(0, 1)] = 1
        out.append(("kE_{k,1} + E_{0,1} - H", u))
    return out
