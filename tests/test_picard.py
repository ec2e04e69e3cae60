"""Picard lattice, Coxeter action, spectral and trace cross-checks."""

import random
from itertools import permutations

import pytest
import sympy

from cremona.construct import construct_biproj, construct_pk
from cremona.picard import (
    OrbitData,
    PicardLattice,
    berkowitz_charpoly,
    canonical_pairings,
    congruence,
    coxeter_action,
    coxeter_element_tpqr,
    geometric_pullback,
    identity_matrix,
    mat_mul,
    mat_vec,
    pair,
    preserves_form,
    reflection,
    spectral_radius,
    tpqr_gram,
    trace_compatibility,
    transpose,
)
from cremona.polynomials import IntegerPolynomial
from cremona.spectra import char_poly_biproj, char_poly_pk, leading_salem_root

LEHMER = IntegerPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])


def test_orbit_data_validation():
    with pytest.raises(ValueError):
        OrbitData(lengths=(1, 0, 8), sigma=(1, 2, 0))
    with pytest.raises(ValueError):
        OrbitData(lengths=(1, 1, 8), sigma=(0, 0, 2))
    od = OrbitData.coxeter(2, 8)
    assert od.lengths == (1, 1, 8)
    assert od.sigma == (1, 2, 0)
    assert od.total == 10


def test_root_grams():
    lat = PicardLattice(2, OrbitData.coxeter(2, 8))
    gram = lat.gram()
    roots = lat.roots()
    assert len(roots) == 10  # N roots
    for a in roots:
        assert pair(gram, a, a) == -2
    # alpha_0 meets alpha_{k+1} = alpha_3 once; the chain is consecutive
    assert pair(gram, roots[0], roots[3]) == 1
    for i in range(1, 9):
        assert pair(gram, roots[i], roots[i + 1]) == 1
    assert pair(gram, roots[0], roots[1]) == 0


@pytest.mark.parametrize("family", ["pk", "biproj"])
def test_congruence_matches_entrywise_sums(family):
    # the O(n^4) sums preserves_form and the CLI's root Gram used to take
    lat = PicardLattice(3, OrbitData(lengths=(2, 1, 3, 2), sigma=(2, 0, 3, 1)),
                        family)
    gram = lat.gram()
    m, _ = geometric_pullback(3, lat.orbit, family)
    n = lat.rank
    assert congruence(m, gram) == [
        [sum(m[a][i] * gram[a][b] * m[b][j] for a in range(n) for b in range(n))
         for j in range(n)]
        for i in range(n)
    ]
    roots = lat.roots()
    assert congruence(transpose(roots), gram) == [
        [sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))
         for y in roots]
        for x in roots
    ]
    assert preserves_form(m, gram)
    doubled = [[2 * c for c in row] for row in m]
    assert not preserves_form(doubled, gram)


def test_reflection_involution_preserves_form():
    lat = PicardLattice(2, OrbitData.coxeter(2, 8))
    gram = lat.gram()
    for alpha in lat.roots():
        s = reflection(alpha, gram)
        assert mat_mul(s, s) == identity_matrix(lat.rank)
        assert preserves_form(s, gram)


def test_coxeter_action_matches_geometric_pullback():
    for k, n in ((2, 8), (3, 6), (4, 5)):
        orbit = OrbitData.coxeter(k, n)
        cox, _ = coxeter_action(k, orbit)
        geo, _ = geometric_pullback(k, orbit)
        assert cox == geo


@pytest.mark.parametrize(
    "lengths", [(2, 1, 3), (1, 4, 2), (3, 3, 1, 2), (1, 1, 1, 1)]
)
def test_coxeter_action_matches_geometric_pullback_general_orbits(lengths):
    # every sigma, so the last class of each orbit is sent to every first step
    k = len(lengths) - 1
    for sigma in permutations(range(k + 1)):
        orbit = OrbitData(lengths=lengths, sigma=sigma)
        cox, lat = coxeter_action(k, orbit)
        geo, _ = geometric_pullback(k, orbit)
        assert cox == geo, sigma
        assert preserves_form(cox, lat.gram())


def test_action_preserves_form_and_fixes_anticanonical():
    for k, n in ((2, 8), (3, 6)):
        orbit = OrbitData.coxeter(k, n)
        m, lat = coxeter_action(k, orbit)
        assert preserves_form(m, lat.gram())
        minus_k = lat.anticanonical()
        assert mat_vec(m, minus_k) == minus_k


def test_charpoly_lifts_to_family_polynomial():
    for k, n in ((2, 8), (2, 9), (3, 6), (4, 5)):
        m, _ = coxeter_action(k, OrbitData.coxeter(k, n))
        cp = berkowitz_charpoly(m) * IntegerPolynomial([-1, 1])
        family = char_poly_pk(k, n)
        assert cp == family or -cp == family


def test_lehmer_radius_for_1_1_8():
    m, _ = coxeter_action(2, OrbitData.coxeter(2, 8))
    radius, _, salem = spectral_radius(m, 128)
    assert salem == LEHMER
    assert abs(float(radius) - 1.17628081825991750) < 1e-12
    iso = leading_salem_root(LEHMER, 128)
    assert abs(float(radius) - float(iso.value)) < 1e-10


def test_tpqr_diagrams():
    # finite: T(2,3,5) = E8 has a periodic Coxeter element
    rad5, _, _ = spectral_radius(coxeter_element_tpqr(2, 3, 5), 64)
    assert float(rad5) == 1.0
    # hyperbolic: T(2,3,7) = E10 Coxeter element realizes Lehmer's number
    rad7, cp7, _ = spectral_radius(coxeter_element_tpqr(2, 3, 7), 128)
    assert abs(float(rad7) - 1.17628081825991750) < 1e-12
    assert cp7.try_divide(LEHMER) is not None
    assert len(tpqr_gram(2, 3, 7)) == 10


def test_canonical_pairings_zeros():
    # <K,K> = 0 at (k,N) = (2,9), (3,8), (5,9); K.C = 0 at (2,9), (3,8)
    def orbit_for(k, bign):
        return OrbitData.coxeter(k, bign - k)

    kk, kc = canonical_pairings(2, orbit_for(2, 9))
    assert kk == 0 and kc == 0
    kk, kc = canonical_pairings(3, orbit_for(3, 8))
    assert kk == 0 and kc == 0
    # K.C = N(k-1) - (k+1)^2 also vanishes at (5,9) even though the stated
    # list only names (2,9) and (3,8); the computed value is authoritative
    kk, kc = canonical_pairings(5, orbit_for(5, 9))
    assert kk == 0 and kc == 0
    kk, kc = canonical_pairings(2, orbit_for(2, 10))
    assert kk != 0 and kc != 0


def test_trace_compatibility_exact():
    for k, n in ((2, 8), (3, 6)):
        rep = trace_compatibility(construct_pk(k, n))
        assert all(ok for _, ok in rep.checked)
        assert len(rep.checked) == 3
        assert rep.salem_divides


def test_biproj_lattice_action():
    for k, n in ((2, 5), (3, 4)):
        m, lat = geometric_pullback(k, OrbitData.coxeter(k, n), "biproj")
        assert preserves_form(m, lat.gram())
        minus_k = lat.anticanonical()
        assert mat_vec(m, minus_k) == minus_k
        cp = berkowitz_charpoly(m)
        family = char_poly_biproj(k, n)
        assert cp == family or -cp == family


@pytest.mark.parametrize("family", ["pk", "biproj"])
def test_curve_degrees_are_invariant(family):
    # the curve is invariant, so (F* D).C = D.C for every class D
    for k, n in ((2, 5), (3, 9)):
        m, lat = geometric_pullback(k, OrbitData.coxeter(k, n), family)
        degs = lat.curve_degrees()
        assert mat_vec([list(col) for col in zip(*m)], degs) == degs


def test_biproj_lattice_rank():
    lat = PicardLattice(2, OrbitData.coxeter(2, 5), "biproj")
    assert lat.rank == 2 + 2 + 5  # H, V and N = k + n exceptional classes


def test_berkowitz_matches_known_charpoly():
    m = [[2, 1], [1, 2]]
    cp = berkowitz_charpoly(m)
    assert cp == IntegerPolynomial([3, -4, 1])


def _dense_mat_mul(a, b):
    """The dense product of lists of rows that ``mat_mul`` replaced."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _random_matrix(rng, rows, cols, density):
    return [[rng.randint(-9, 9) if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("density", [0.1, 0.4, 1.0], ids=["sparse", "mixed", "dense"])
def test_berkowitz_matches_sympy_charpoly(density):
    rng = random.Random(int(10 * density))
    for n in list(range(9)) + [14]:
        m = _random_matrix(rng, n, n, density)
        expected = sympy.Matrix(n, n, [x for row in m for x in row]).charpoly()
        assert list(reversed(berkowitz_charpoly(m).coeffs)) == expected.all_coeffs(), m


@pytest.mark.parametrize("shape", [(0, 0, 0), (0, 3, 2), (2, 0, 3), (1, 5, 1),
                                   (4, 1, 4), (3, 4, 2), (7, 7, 7)])
def test_mat_mul_matches_dense_formula(shape):
    rows, inner, cols = shape
    rng = random.Random(rows * 100 + inner * 10 + cols)
    for density in (0.2, 1.0):
        a = _random_matrix(rng, rows, inner, density)
        b = _random_matrix(rng, inner, cols, density)
        assert mat_mul(a, b) == _dense_mat_mul(a, b)


@pytest.mark.parametrize("family, k, n", [("pk", 4, 30), ("biproj", 3, 20)])
def test_congruence_of_the_coxeter_action(family, k, n):
    orbit = OrbitData.coxeter(k, n)
    if family == "pk":
        m, lat = coxeter_action(k, orbit)
    else:
        m, lat = geometric_pullback(k, orbit, family)
    gram = lat.gram()
    assert congruence(m, gram) == _dense_mat_mul(transpose(m), _dense_mat_mul(gram, m))
    assert congruence(m, gram) == gram


def test_berkowitz_matches_sympy_on_permutation_actions():
    # a permutation with one dense row, as a Coxeter action is: B^s C
    # vanishes after a few s at most steps, and the terms left are zero
    rng = random.Random(7)
    for n in (5, 9, 16, 25):
        image = list(range(n))
        rng.shuffle(image)
        m = [[int(j == image[i]) for j in range(n)] for i in range(n)]
        m[rng.randrange(n)] = [rng.randint(-3, 3) for _ in range(n)]
        expected = sympy.Matrix(m).charpoly()
        assert list(reversed(berkowitz_charpoly(m).coeffs)) == expected.all_coeffs(), m
