"""Exact Lie-algebra computations: brackets, trace form, dimensions, stabilizers."""

import random
from fractions import Fraction

import pytest

from tubecert import catalog
from tubecert.catalog import isotropy_algebra
from tubecert.errors import DomainError
from tubecert.lie import (
    E,
    FORM_DIAG,
    FORM_PAIRING,
    IDENTITY3,
    LieSubspace,
    ZERO3,
    ad_kernel_dim,
    algebra_membership_residual,
    apply_vec,
    bracket,
    candidate_subalgebra,
    cayley_group_element,
    combine,
    is_subalgebra,
    is_zero_matrix,
    jordan_test_set,
    killing,
    line_image_test,
    madd,
    mat,
    mconj,
    mmul,
    mscale,
    msub,
    mtrace,
    mtrans,
    perp,
    sl3_basis,
    sl3_gram_rank,
    stabilizer_up_to_scale_dim,
    su21_basis,
    u21_basis,
)
from tubecert.scalars import GaussianRational


def rand_matrix(rng):
    return tuple(
        tuple(
            GaussianRational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            )
            for _ in range(3)
        )
        for _ in range(3)
    )


def test_bracket_examples_and_identities():
    rng = random.Random(60)
    assert is_zero_matrix(bracket(E(0, 1), E(0, 1)))
    assert bracket(E(0, 1), E(1, 0)) == msub(E(0, 0), E(1, 1))
    for _ in range(100):
        X, Y, Z = (rand_matrix(rng) for _ in range(3))
        assert bracket(X, Y) == mscale(bracket(Y, X), -1)
        jacobi = madd(
            madd(bracket(X, bracket(Y, Z)), bracket(Y, bracket(Z, X))),
            bracket(Z, bracket(X, Y)),
        )
        assert is_zero_matrix(jacobi)


def test_combine_matches_the_scaled_sum():
    """combine adds only nonzero products; it must equal the plain sum of scaled matrices."""
    rng = random.Random(61)
    bases = [list(su21_basis()), list(sl3_basis()), [rand_matrix(rng) for _ in range(5)]]
    for basis in bases:
        for _ in range(20):
            coords = [
                rng.choice([0, Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                            GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))])
                for _ in basis
            ]
            want = ZERO3
            for c, B in zip(coords, basis):
                want = madd(want, mscale(B, c))
            got = combine(coords, basis)
            assert got == want
            assert all(type(x) is GaussianRational for row in got for x in row)
    assert combine([0] * 8, list(sl3_basis())) == ZERO3


def test_killing_examples_and_symmetry():
    assert killing(E(0, 1), E(0, 1)) == GaussianRational(0)
    assert killing(E(0, 1), E(1, 0)) == GaussianRational(1)
    rng = random.Random(61)
    for _ in range(50):
        X, Y = rand_matrix(rng), rand_matrix(rng)
        assert killing(X, Y) == killing(Y, X)


def test_killing_is_the_trace_of_the_product():
    """The nine-product sum against trace(XY) by the full matrix product."""
    rng = random.Random(62)
    for _ in range(100):
        X, Y = rand_matrix(rng), rand_matrix(rng)
        assert killing(X, Y) == mtrace(mmul(X, Y))
    for X in sl3_basis():
        for Y in sl3_basis():
            assert killing(X, Y) == mtrace(mmul(X, Y))


def test_gram_rank_is_8():
    assert sl3_gram_rank() == 8


def test_perp_trivial_cases_and_dimension_law():
    full = LieSubspace(tuple(sl3_basis()), "C")
    assert perp(full).dimension == 0
    empty = LieSubspace((), "C")
    assert perp(empty).dimension == 8
    rng = random.Random(62)
    for size in (1, 2, 3):
        S = LieSubspace(tuple(rng.sample(sl3_basis(), size)), "C")
        assert S.dimension + perp(S).dimension == 8


def test_ad_kernel_dimensions_across_jordan_shapes():
    expected = {
        "nilpotent_rank1": 4,
        "nilpotent_rank2": 2,
        "diagonal_distinct": 1,
        "diagonal_distinct_alt": 1,
        "diagonal_repeated": 3,
        "jordan_block_plus_eigenvalue": 1,
    }
    for name, P, expect_ge4 in jordan_test_set():
        S = perp(LieSubspace((P,), "C"))
        assert S.dimension == 7
        dim = ad_kernel_dim(P, S)
        assert dim == expected[name]
        assert (dim >= 4) == expect_ge4


def test_ad_kernel_oracle_for_distinguished_nilpotent():
    """Independent oracle: the centralizer of E_12 in sl(3,C) is spanned by
    E_12, E_13, E_32, and diag(1,1,-2), all of which already lie in the
    trace-form complement."""
    P = E(0, 1)
    oracle = [
        E(0, 1),
        E(0, 2),
        E(2, 1),
        madd(madd(E(0, 0), E(1, 1)), mscale(E(2, 2), -2)),
    ]
    for X in oracle:
        assert is_zero_matrix(bracket(P, X))
        assert killing(P, X) == GaussianRational(0)
    S = perp(LieSubspace((P,), "C"))
    assert ad_kernel_dim(P, S) == len(oracle)


def test_perp_of_nilpotent_is_not_subalgebra():
    S = perp(LieSubspace((E(0, 1),), "C"))
    report = is_subalgebra(S)
    assert not report.closed
    assert report.witness is not None
    X, Y = report.witness
    assert not S.contains(bracket(X, Y))


def test_candidate_patterns_are_6_dim_subalgebras():
    for which in (1, 2):
        S = candidate_subalgebra(which)
        assert S.dimension == 6
        assert is_subalgebra(S).closed
        assert perp(S).dimension == 2


def test_u21_su21_dimensions_and_membership():
    for H in (FORM_DIAG, FORM_PAIRING):
        u = u21_basis(H)
        su = su21_basis(H)
        assert len(u) == 9 and len(su) == 8
        for X in u:
            assert is_zero_matrix(algebra_membership_residual(X, H))
        for X in su:
            assert (X[0][0] + X[1][1] + X[2][2]).is_zero()
        assert is_subalgebra(LieSubspace(tuple(su), "R")).closed


def test_degenerate_form_enlarges_the_algebra():
    """For H = diag(1,1,0), entry (i,j) of X^t H + H conj(X) is
    h_j X_ji + h_i conj(X_ij).  The top-left block must be skew-Hermitian (4 real
    dimensions), X_02 = X_12 = 0, and X_20, X_21, X_22 are free (4 + 2): 10 in
    all.  The trace is then the u(2) trace plus a free X_22, so requiring it to
    vanish removes 2 and leaves 8."""
    H = mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    u, su = u21_basis(H), su21_basis(H)
    assert (len(u), len(su)) == (10, 8)
    for X in u:
        assert is_zero_matrix(algebra_membership_residual(X, H))
    for X in su:
        assert is_zero_matrix(algebra_membership_residual(X, H))
        assert (X[0][0] + X[1][1] + X[2][2]).is_zero()


def test_isotropy_ad_kernel_dimensions_over_the_reals():
    """Real centralizer dimensions inside the 6-dimensional isotropy algebra.

    For the first phase P = diag(i, i, 0), [P, X]_ab = (p_a - p_b) X_ab kills
    the entries within the (0,1) block and on (2,2), so P commutes with the
    scale, both phases and Im b.  The Re d and Im d generators
    E_12 - E_20 and i(E_12 + E_20) go to i(E_12 + E_20) and E_20 - E_12,
    which are independent over R, so the kernel is 4-dimensional.
    """
    algebra = isotropy_algebra()
    dims = [ad_kernel_dim(P, algebra) for P in algebra.basis]
    assert dims == [3, 4, 4, 5, 3, 3]


def test_stabilizer_dimensions_for_model_vectors():
    g0, g1 = GaussianRational(0), GaussianRational(1)
    cases = [
        ((g1, g0, g0), Fraction(1), 4),
        ((g0, g0, g1), Fraction(-1), 4),
        ((g1, g0, g1), Fraction(0), 5),
    ]
    for v, value, dim in cases:
        # <v, v> = v^t H conj(v) with H = FORM_DIAG
        assert sum((a * b.conjugate() for a, b in zip(v, apply_vec(FORM_DIAG, v))),
                   GaussianRational(0)) == value
        assert stabilizer_up_to_scale_dim(v) == dim
    with pytest.raises(DomainError):
        stabilizer_up_to_scale_dim((g0, g0, g0))


def test_stabilizer_dimensions_random_representatives():
    rng = random.Random(63)
    basis = su21_basis()
    g0, g1 = GaussianRational(0), GaussianRational(1)
    models = [((g1, g0, g0), 4), ((g0, g0, g1), 4), ((g1, g0, g1), 5)]
    for v, want in models:
        produced = 0
        while produced < 10:
            A = ZERO3
            for B in basis:
                A = madd(A, mscale(B, Fraction(rng.randint(-2, 2), 3)))
            try:
                U = cayley_group_element(A)
            except ZeroDivisionError:
                continue
            # U preserves the form, so the moved vector has the same length class
            res = msub(mmul(mtrans(U), mmul(FORM_DIAG, mconj(U))), FORM_DIAG)
            assert is_zero_matrix(res)
            moved = apply_vec(U, v)
            assert stabilizer_up_to_scale_dim(moved) == want
            produced += 1


def hand_differentiated_isotropy_generators() -> list:
    """The isotropy tangents differentiated by hand from the matrix family, in chart order.

    The family is (phi/q, 0, 0; b, q phi, d/q; -conj(d) phi psi / q^2, 0, psi);
    its tangents at the identity along the scale, the two phases, Im b, Re d
    and Im d.  An oracle for :func:`catalog.isotropy_algebra`, which reads
    them off the group-element formula instead.
    """
    i = GaussianRational(0, 1)
    return [
        mat([[-1, 0, 0], [0, 1, 0], [0, 0, 0]]),              # scale direction
        mat([[i, 0, 0], [0, i, 0], [0, 0, 0]]),               # first phase
        mat([[0, 0, 0], [0, 0, 0], [0, 0, i]]),               # second phase
        mscale(E(1, 0), i),                                   # Im b
        msub(E(1, 2), E(2, 0)),                               # Re d
        madd(mscale(E(1, 2), i), mscale(E(2, 0), i)),         # Im d
    ]


def test_isotropy_algebra_is_the_hand_differentiated_six_in_order():
    assert list(isotropy_algebra().basis) == hand_differentiated_isotropy_generators()


def test_isotropy_slopes_do_not_depend_on_the_sign():
    """eps multiplies only rho terms, so both models' z-linear slopes agree."""
    for name, tangent in catalog.P_CHART:
        if name in ("q", "phi", "psi", "b", "d"):
            assert catalog._p_slopes("-", name, tangent) == catalog._p_slopes("+", name, tangent)


def test_isotropy_algebra_structure():
    algebra = isotropy_algebra()
    assert algebra.dimension == 6
    for B in algebra.basis:
        assert is_zero_matrix(algebra_membership_residual(B, FORM_PAIRING))
    assert is_subalgebra(algebra).closed


def test_line_image_examples():
    algebra = isotropy_algebra()
    g0, g1 = GaussianRational(0), GaussianRational(1)
    assert line_image_test(algebra, (g0, g1, g0))
    assert line_image_test(algebra, (g0, GaussianRational(0, 5), g0))
    assert not line_image_test(algebra, (g1, g0, g0))
    assert not line_image_test(algebra, (g0, g0, g1))
    assert not line_image_test(algebra, (g1, g1, g0))
    with pytest.raises(DomainError):
        line_image_test(algebra, (g0, g0, g0))


def test_line_image_random_classification():
    rng = random.Random(64)
    algebra = isotropy_algebra()

    def rand_scalar():
        return GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
        )

    for k in range(50):
        if k % 2 == 0:
            s = rand_scalar()
            while s.is_zero():
                s = rand_scalar()
            w = (GaussianRational(0), s, GaussianRational(0))
            assert line_image_test(algebra, w)
        else:
            w = (rand_scalar(), rand_scalar(), rand_scalar())
            while w[0].is_zero() and w[2].is_zero():
                w = (rand_scalar(), rand_scalar(), rand_scalar())
            assert not line_image_test(algebra, w)


def test_cayley_elements_land_in_the_group():
    rng = random.Random(65)
    basis = su21_basis()
    count = 0
    while count < 20:
        A = ZERO3
        for B in basis:
            A = madd(A, mscale(B, Fraction(rng.randint(-3, 3), 4)))
        try:
            U = cayley_group_element(A)
        except ZeroDivisionError:
            continue
        res = msub(mmul(mtrans(U), mmul(FORM_DIAG, mconj(U))), FORM_DIAG)
        assert is_zero_matrix(res)
        count += 1
    assert cayley_group_element(ZERO3) == IDENTITY3
