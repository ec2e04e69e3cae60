"""Closed-form construction of the Coxeter-case maps."""

import random
from fractions import Fraction

import pytest

from cremona.construct import (
    ExceptionalPairError,
    _shaped_L,
    build_L_biproj,
    build_L_lines,
    build_L_pk,
    center_matrix,
    column_scalings,
    construct_biproj,
    construct_lines,
    construct_pk,
    curve_fixing_map,
    delta_field,
    lines_alpha_field,
    tplus_biproj,
    tplus_pk,
)
from cremona.geometry import LinearMap, ProjectivePoint, apply_linear


def scaled_identity(m: LinearMap):
    """The scalar lambda with m = lambda * I, or None."""
    lam = m.matrix[0][0]
    n = m.size
    for i in range(n):
        for j in range(n):
            expected = lam if i == j else lam * 0
            if m.matrix[i][j] != expected:
                return None
    return lam


def proportional(a: LinearMap, b: LinearMap) -> bool:
    return scaled_identity(a.inverse() @ b) is not None


def centers(c):
    """(T, S), the exact center matrices of every factor i, built from the
    construction's parameters: T_i on t^+ - i and S_i on s - i."""
    factors = range(len(c.L))
    return ([center_matrix(c.k, [t - i for t in c.t_plus]) for i in factors],
            [center_matrix(c.k, [s - i for s in c.s_params]) for i in factors])


# ---------------------------------------------------------------------------
# pk family


def test_tplus_pk_ratio_identity():
    fld = delta_field("pk", 2, 8)
    delta = fld.gen()
    t = tplus_pk(2, delta)
    shift = Fraction(2, 1)  # 2/(k-1) at k=2
    base = t[0] + shift
    for j, tj in enumerate(t):
        assert tj + shift == delta ** j * base


def test_tplus_pk_sum_identity():
    for k, n in ((2, 8), (3, 6), (4, 5)):
        fld = delta_field("pk", k, n)
        delta = fld.gen()
        t = tplus_pk(k, delta)
        shift = Fraction(2, k - 1)
        total = sum((tj + shift for tj in t), fld.zero())
        expected = (delta.inverse() + 1) * Fraction(k + 1, k - 1)
        assert total == expected


def test_tau_is_one_minus_delta():
    for k, n in ((2, 8), (3, 6)):
        c = construct_pk(k, n)
        assert c.tau == 1 - c.delta


def test_spoints_give_orbit_data_singletons():
    # S(e_j) = T(e_{j+1}) for j < k: parameter of S(e_j) equals t_{j+1}^+
    for k, n in ((2, 8), (3, 6)):
        c = construct_pk(k, n)
        for j in range(k):
            assert c.s_params[j] == c.t_plus[j + 1]


def test_orbit_endpoint_returns_to_t0():
    c = construct_pk(2, 8)
    t = c.s_params[2]
    for _ in range(c.n - 1):
        t = c.delta * (t - 1) + 1
    assert t == c.t_plus[0]


def test_build_L_pk_shape_and_fixed_point():
    for k, n in ((2, 8), (3, 6)):
        c = construct_pk(k, n)
        L = c.L[0]
        one = c.field.one()
        assert all(x == (one if i == k else one * 0)
                   for i, x in enumerate(L.matrix[0]))
        for row in L.matrix:
            assert sum(row[1:], row[0]) == one  # row sums 1: L fixes (1,..,1)
        ones = ProjectivePoint([one] * (k + 1))
        assert apply_linear(L, ones) == ones


def test_beta_entry_value():
    c = construct_pk(2, 8)
    d = c.delta
    beta1 = (d - 1) * (d * (d ** 3 - d)).inverse()
    assert c.L[0].matrix[1][0] == beta1


def test_L_equals_Tinv_S_projectively():
    for k, n in ((2, 8), (3, 6)):
        c = construct_pk(k, n)
        T, S = centers(c)
        assert proportional(T[0].inverse() @ S[0], c.L[0])


def test_center_matrix_sends_ones_to_cusp():
    c = construct_pk(2, 8)
    one = c.field.one()
    ones = ProjectivePoint([one] * 3)
    cusp = ProjectivePoint.standard_basis(2, 2, one=one)
    T, S = centers(c)
    assert apply_linear(T[0], ones) == cusp
    assert apply_linear(S[0], ones) == cusp


def test_exceptional_pairs_refused():
    for k, n in ((2, 7), (3, 4), (2, 3)):
        with pytest.raises(ExceptionalPairError):
            construct_pk(k, n)
    with pytest.raises(ExceptionalPairError):
        construct_biproj(2, 4)


def test_determinants_nonzero():
    for c in (construct_pk(2, 8), construct_biproj(2, 5)):
        T, S = centers(c)
        for mat in c.L + T + S:
            assert not mat.determinant().is_zero()


def center_det(params):
    """The closed form (prod a_j) * e_1(t) * prod_{i<j} (t_j - t_i)."""
    det = sum(params[1:], params[0])
    for a in column_scalings(params):
        det = det * a
    for i, ti in enumerate(params):
        for tj in params[i + 1:]:
            det = det * (tj - ti)
    return det


def test_center_matrix_determinant_closed_form():
    # elimination (LinearMap.determinant) is the oracle
    rng = random.Random(7)
    for k in range(2, 7):
        for _ in range(3):
            params = []
            while len(params) < k + 1:
                t = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                if t not in params:
                    params.append(t)
            if sum(params) == 0:
                continue
            assert center_matrix(k, params).determinant() == center_det(params)
    for c in (construct_pk(2, 8), construct_pk(3, 6),
              construct_biproj(2, 5), construct_biproj(3, 4)):
        param_sets = [c.t_plus, c.s_params]
        T, S = centers(c)
        if c.family == "biproj":
            param_sets += [[t - 1 for t in ts] for ts in param_sets]
            mats = [T[0], S[0], T[1], S[1]]
        else:
            mats = T + S
        for mat, params in zip(mats, param_sets):
            assert mat.determinant() == center_det(params)


def test_shaped_L_determinant_closed_form():
    for c in (construct_pk(2, 8), construct_pk(3, 6),
              construct_biproj(2, 5), construct_biproj(3, 4),
              construct_lines(2, 2, 2)):
        k = c.k
        for mat in c.L:
            det = (-1) ** k * mat.matrix[0][k]
            for r in range(1, k + 1):
                det = det * mat.matrix[r][r - 1]
            assert mat.determinant() == det


def test_singular_construction_inputs_still_raise():
    with pytest.raises(ZeroDivisionError):  # repeated parameter
        center_matrix(2, [Fraction(1, 2), Fraction(3), Fraction(1, 2)])
    fld = delta_field("pk", 2, 8)
    with pytest.raises(ZeroDivisionError):
        center_matrix(2, [fld.gen(), fld.gen() + 1, fld.gen()])
    with pytest.raises(ValueError, match="singular"):
        _shaped_L(1, [Fraction(2), Fraction(0)])
    with pytest.raises(ValueError, match="singular"):
        _shaped_L(fld.one(), [fld.gen(), fld.zero()])


def test_construction_inversion_budget(monkeypatch):
    # the families build no center matrix, and L is certified without
    # elimination: pk inverts 1 + k times (t^+ and the betas), biproj
    # 4 + (k + 1) (t^+, the betas and s_2)
    from cremona import arith

    calls = []
    real = arith.nf_invert

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(arith, "nf_invert", counting)
    for k, n in ((2, 8), (3, 6), (4, 5)):
        calls.clear()
        construct_pk(k, n)
        assert len(calls) <= k + 1, (k, n, len(calls))
    for k, n in ((2, 5), (3, 4), (3, 12)):
        calls.clear()
        construct_biproj(k, n)
        assert len(calls) <= k + 5, (k, n, len(calls))


def test_families_build_no_center_matrices(monkeypatch):
    # no T or S is built: the construction keeps only their parameters,
    # and verify checks the curve on L itself
    from cremona import construct

    def refuse(*args):
        raise AssertionError("center matrix built by the construction")

    monkeypatch.setattr(construct, "column_scalings", refuse)
    monkeypatch.setattr(construct, "center_matrix", refuse)
    for c in (construct_pk(2, 8), construct_pk(4, 8), construct_biproj(3, 8)):
        assert c.T_matrices == [] and c.S_matrices == []
        assert len(c.s_params) == c.k + 1


# ---------------------------------------------------------------------------
# biproj family


def test_tplus_biproj_sum_identities():
    for k, n in ((2, 5), (3, 4)):
        fld = delta_field("biproj", k, n)
        delta = fld.gen()
        t_plus, t_minus, _ = tplus_biproj(k, delta)
        total_p = sum(t_plus[1:], t_plus[0])
        total_m = sum(t_minus[1:], t_minus[0])
        assert total_p == (delta.inverse() + 1) * Fraction(k + 1)
        assert total_m == delta * Fraction(-(k + 1))
        for tp, tm in zip(t_plus, t_minus):
            assert tm == delta * (tp - 2) - 1


def test_tplus_biproj_closed_form_mismatch_is_reported():
    fld = delta_field("biproj", 2, 5)
    _, _, matches = tplus_biproj(2, fld.gen())
    assert not matches  # the published closed form does not reproduce the values
    c = construct_biproj(2, 5)
    assert any("closed form" in note for note in c.notes)


def test_biproj_singleton_orbit_data():
    # S(e_j,e_j) = T(e_{j+1},e_{j+1}) for j < k: t_j^- = t_{j+1}^+
    for k, n in ((2, 5), (3, 4)):
        c = construct_biproj(k, n)
        for j in range(k):
            assert c.s_params[j] == c.t_plus[j + 1]


def test_build_L_biproj_row_sums():
    c = construct_biproj(2, 5)
    one = c.field.one()
    d = c.delta
    s2 = (d + 1) ** 2 * d.inverse()
    for row in c.L[0].matrix:
        assert sum(row[1:], row[0]) == one
    for row in c.L[1].matrix:
        assert sum(row[1:], row[0]) == s2


def test_biproj_L_fixes_ones():
    c = construct_biproj(2, 5)
    one = c.field.one()
    ones = ProjectivePoint([one] * 3)
    for mat in c.L:
        assert apply_linear(mat, ones) == ones


def test_biproj_L_equals_Tinv_S():
    c = construct_biproj(2, 5)
    T, S = centers(c)
    for i in range(2):
        assert proportional(
            T[i].inverse() @ S[i], c.L[i]
        )


def test_biproj_tau():
    c = construct_biproj(2, 5)
    assert c.tau == Fraction(2) + c.delta  # k + (k-1) delta at k=2


# ---------------------------------------------------------------------------
# lines family


def test_build_L_lines_shape():
    c = construct_lines(2, 2, 2)
    alpha = c.delta
    v = -alpha * (alpha ** 2 - 1) * (alpha - 1).inverse()
    for j, mat in enumerate(c.L):
        s_j = mat.matrix[0][2]
        if j == 0:
            assert s_j == c.field.one()  # telescoping at j = 0
        for i in range(1, 3):
            assert mat.matrix[i][i - 1] == v
            assert mat.matrix[i][2] == s_j - v
        for row in mat.matrix:
            assert sum(row[1:], row[0]) == s_j  # row sums s_j


def test_lines_m1_subdiagonal_is_minus_alpha():
    fld = lines_alpha_field(2, 1, 3)
    alpha = fld.gen()
    (mat,) = build_L_lines(2, 1, alpha)
    assert mat.matrix[1][0] == -alpha
    assert mat.matrix[0][2] == fld.one()


def test_lines_alpha_field_rank_matches_lattice():
    # diagram T(m+1, k+1, n(k+1)) has rank m + N with N = k + n(k+1)
    from cremona.picard import tpqr_gram

    for k, m, n in ((2, 2, 2), (3, 2, 2), (2, 3, 2)):
        gram = tpqr_gram(m + 1, k + 1, n * (k + 1))
        assert len(gram) == m + k + n * (k + 1)


def test_lines_alpha_field_is_the_lattice_route():
    # the Salem factor of the Coxeter polynomial is that of the Berkowitz
    # characteristic polynomial of the T(m+1, k+1, n(k+1)) Coxeter element;
    # the periodic cells are refused by both
    from cremona.picard import berkowitz_charpoly, coxeter_element_tpqr
    from cremona.spectra import salem_factor

    periodic = 0
    for k in range(2, 6):
        for m in range(1, 4):
            for n in range(1, 4):
                lattice = coxeter_element_tpqr(m + 1, k + 1, n * (k + 1))
                _, salem = salem_factor(berkowitz_charpoly(lattice))
                if salem is None:
                    periodic += 1
                    with pytest.raises(ExceptionalPairError):
                        lines_alpha_field(k, m, n)
                else:
                    assert lines_alpha_field(k, m, n).modulus == salem, (k, m, n)
    assert periodic


def test_lines_root_of_unity_refused():
    # periodic Coxeter element at n = 1: refused as pk's exceptional pairs are
    with pytest.raises(ExceptionalPairError, match=r"^\(2,2,1\) is exceptional"):
        construct_lines(2, 2, 1)


def test_lines_n_validated():
    with pytest.raises(ValueError):
        construct_lines(2, 2, 0)


# ---------------------------------------------------------------------------
# generic curve-fixing construction


def test_curve_fixing_map_over_rationals():
    t_plus = [Fraction(1, 2), Fraction(3), Fraction(-2)]
    T, S, tau, s_params = curve_fixing_map(2, Fraction(2), t_plus)
    assert tau == Fraction(2) * sum(t_plus) * Fraction(1, 3)
    assert s_params == [Fraction(2) * t - Fraction(2) * tau for t in t_plus]
    ones = ProjectivePoint([Fraction(1)] * 3)
    cusp = ProjectivePoint.standard_basis(2, 2)
    assert apply_linear(T, ones) == cusp


def test_center_matrix_columns_are_curve_points():
    from cremona.geometry import gamma_eval

    params = [Fraction(1, 2), Fraction(3), Fraction(-2)]
    M = center_matrix(2, params)
    for i, t in enumerate(params):
        assert M.column(i) == gamma_eval(t, 2)
