"""Exact Lie-algebra computations: brackets, trace form, dimensions, stabilizers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubecert import catalog, exactla, lie
from tubecert.checks import run_check
from tubecert.cli import default_config_text, parse_config
from tubecert.catalog import isotropy_algebra
from tubecert.errors import DomainError
from tubecert.lie import (
    E,
    FORM_DIAG,
    FORM_PAIRING,
    IDENTITY3,
    LieSubspace,
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
    sl3_gram_rank,
    stabilizer_up_to_scale_dim,
    su21_basis,
    u21_basis,
)
from tubecert.scalars import GaussianRational

ZERO3 = mat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


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
    for X in lie.sl3().basis:
        for Y in lie.sl3().basis:
            assert killing(X, Y) == mtrace(mmul(X, Y))


def test_gram_rank_is_8():
    assert sl3_gram_rank() == 8


def test_perp_trivial_cases_and_dimension_law():
    full = lie.sl3()
    assert perp(full).dimension == 0
    empty = LieSubspace((), "C")
    assert perp(empty).dimension == 8
    rng = random.Random(62)
    for size in (1, 2, 3):
        S = LieSubspace(tuple(rng.sample(lie.sl3().basis, size)), "C")
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


def test_cayley_element_matches_the_two_product_formula():
    """2(I + A)^{-1} - I is (I - A)(I + A)^{-1}, entry for entry, on seeded su(2,1) draws."""
    rng = random.Random(2301)
    su21 = lie.su21()
    count = 0
    while count < 60:
        A = combine([Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for _ in su21.basis], su21)
        try:
            U = cayley_group_element(A)
        except ZeroDivisionError:
            continue
        inv = mat(exactla.invert([list(r) for r in madd(IDENTITY3, A)]))
        assert U == mmul(msub(IDENTITY3, A), inv)
        count += 1


# --- the integer kernels against the Q(i) route they replaced -------------------


def qi_minors(X, v) -> list:
    """The 2x2 minors of (Xv, v) in Q(i) arithmetic (the route before the integer minors)."""
    w = apply_vec(X, v)
    return [w[0] * v[1] - w[1] * v[0], w[0] * v[2] - w[2] * v[0], w[1] * v[2] - w[2] * v[1]]


def qi_stabilizer_dim(v) -> int:
    return len(lie._kernel([qi_minors(B, v) for B in su21_basis()], "R"))


def qi_line_image(S, w) -> bool:
    return all(m.is_zero() for B in S.basis for m in qi_minors(B, w))


def _big_scalar(rng, zero_share=0.0):
    """A Q(i) scalar with denominators up to 10^6, zero with the given probability."""
    if rng.random() < zero_share:
        return GaussianRational(0)
    return GaussianRational(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)),
                            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))


def _moved_model_vectors(rng, count):
    """Model vectors of each length class, moved by Cayley elements of SU(2,1)."""
    su21 = lie.su21()
    g0, g1 = GaussianRational(0), GaussianRational(1)
    out = []
    while len(out) < count:
        A = combine([Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for _ in su21.basis], su21)
        try:
            U = cayley_group_element(A)
        except ZeroDivisionError:
            continue
        out.append(apply_vec(U, [(g1, g0, g0), (g0, g0, g1), (g1, g0, g1)][len(out) % 3]))
    return out


def _oracle_vectors():
    """Seeded nonzero vectors: big random entries, some zero entries, moved model vectors."""
    rng = random.Random(2201)
    vectors = [tuple(_big_scalar(rng) for _ in range(3)) for _ in range(60)]
    while len(vectors) < 140:
        v = tuple(_big_scalar(rng, zero_share=0.5) for _ in range(3))
        if not all(x.is_zero() for x in v):
            vectors.append(v)
    g0 = GaussianRational(0)
    vectors += [(g0, _big_scalar(rng), g0), (_big_scalar(rng), g0, g0), (g0, g0, _big_scalar(rng))]
    return vectors + _moved_model_vectors(rng, 60)


ORACLE_VECTORS = _oracle_vectors()


def test_integer_line_minors_are_positive_multiples_of_the_q_i_minors():
    """Each row of _line_minors is c times the realified Q(i) minors for one c > 0."""
    subspaces = [lie.su21(), isotropy_algebra(), candidate_subalgebra(1)]
    for v in ORACLE_VECTORS[::7]:
        for S in subspaces:
            for X, row in zip(S.basis, lie._line_minors(S, v), strict=True):
                assert all(type(x) is int for x in row)
                ref = lie.realify(qi_minors(X, v))
                if not any(ref):
                    assert not any(row)
                    continue
                k = next(i for i, x in enumerate(ref) if x)
                c = row[k] / ref[k]
                assert c > 0 and [c * x for x in ref] == row


def test_stabilizer_and_line_test_match_the_q_i_route():
    assert len(ORACLE_VECTORS) >= 200
    subspaces = [isotropy_algebra(), candidate_subalgebra(1), candidate_subalgebra(2),
                 LieSubspace(su21_basis(), "R")]
    rng = random.Random(2202)
    dims = set()
    for v in ORACLE_VECTORS:
        lam = _big_scalar(rng)
        while lam.is_zero():
            lam = _big_scalar(rng)
        # The integer route rests on scale invariance, so check lam * v as well.
        for w in (v, tuple(lam * x for x in v)):
            dim = stabilizer_up_to_scale_dim(w)
            assert dim == qi_stabilizer_dim(w)
            dims.add(dim)
            for S in subspaces:
                assert line_image_test(S, w) == qi_line_image(S, w)
    assert dims == {4, 5}  # the null vectors are the moved (1, 0, 1)s


def test_stabilizer_rank_agrees_with_sympy():
    """8 less the rank of the realified minor matrix, formed and ranked by sympy."""
    sympy = pytest.importorskip("sympy")

    def to_sympy(x):
        return (sympy.Rational(x.re.numerator, x.re.denominator)
                + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator))

    g0, g1 = GaussianRational(0), GaussianRational(1)
    models = [(g1, g0, g0), (g0, g0, g1), (g1, g0, g1)]
    vectors = models + _moved_model_vectors(random.Random(2203), 5)
    basis = [sympy.Matrix([[to_sympy(x) for x in row] for row in B]) for B in su21_basis()]
    for v in vectors:
        sv = sympy.Matrix([to_sympy(x) for x in v])
        rows = []
        for B in basis:
            w = B * sv
            minors = [sympy.expand(w[i] * sv[j] - w[j] * sv[i])
                      for i, j in ((0, 1), (0, 2), (1, 2))]
            rows.append([part for m in minors for part in (sympy.re(m), sympy.im(m))])
        assert stabilizer_up_to_scale_dim(v) == 8 - sympy.Matrix(rows).rank()


def term_by_term_mmul(X, Y):
    """The product summed one Q(i) operation at a time (the body before the numerator product)."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = Y
    return tuple(
        (x0 * a0 + x1 * b0 + x2 * c0, x0 * a1 + x1 * b1 + x2 * c1, x0 * a2 + x1 * b2 + x2 * c2)
        for x0, x1, x2 in X
    )


def test_numerator_product_matches_the_term_by_term_product():
    rng = random.Random(2204)

    def mixed(rng):
        # integers, small and big denominators, and zero rows in one matrix
        rows = []
        for r in range(3):
            kind = rng.choice(["int", "small", "big", "zero"])
            if kind == "zero":
                rows.append([0, 0, 0])
            elif kind == "int":
                rows.append([GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
                             for _ in range(3)])
            elif kind == "small":
                rows.append([GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                                              Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
                             for _ in range(3)])
            else:
                rows.append([_big_scalar(rng, zero_share=0.2) for _ in range(3)])
        return mat(rows)

    mats = [mixed(rng) for _ in range(60)] + [rand_matrix(rng) for _ in range(20)]
    mats += [IDENTITY3, ZERO3, FORM_PAIRING, FORM_DIAG]
    for X in mats:
        for Y in rng.sample(mats, 8) + [IDENTITY3, X]:
            got = mmul(X, Y)
            assert got == term_by_term_mmul(X, Y)
            assert all(math.gcd(x._a, x._b, x._d) == 1 and x._d > 0 for row in got for x in row)
        assert mmul(X, IDENTITY3) == X == mmul(IDENTITY3, X)


# --- the numerator Cayley element and combine against plain Q(i) arithmetic ------


def inverse_cayley(A):
    """2 (I + A)^{-1} - I through exactla.invert (the route before the closed-form adjugate)."""
    inv = mat(exactla.invert([list(r) for r in madd(IDENTITY3, A)]))
    return msub(mscale(inv, 2), IDENTITY3)


def is_canonical(X):
    return all(math.gcd(x._a, x._b, x._d) == 1 and x._d > 0 for row in X for x in row)


# small, mixed and large denominators, so the parts of one value differ
RATIONALS = st.builds(Fraction, st.integers(-9, 9),
                      st.sampled_from([1, 2, 3, 4, 7, 12, 1_000_003, 10**12 + 39]))
COORDINATES = st.one_of(st.integers(-2, 2), RATIONALS,
                        st.builds(GaussianRational, RATIONALS, RATIONALS))


# sl(3) on a basis with denominators, so the basis numerators share a d > 1
SCALED_SL3 = LieSubspace(tuple(mscale(B, GaussianRational(Fraction(k + 1, 2 * k + 3), Fraction(1, 4)))
                               for k, B in enumerate(lie.sl3().basis)), "C")


@st.composite
def combinations(draw):
    """A subspace (su(2,1), sl(3) on two bases, the isotropy algebra) and Q(i) coordinates
    on its basis."""
    S = draw(st.sampled_from([lie.su21(), lie.sl3(), SCALED_SL3, isotropy_algebra()]))
    return S, draw(st.lists(COORDINATES, min_size=S.dimension, max_size=S.dimension))


@given(combinations())
@settings(max_examples=200, deadline=None)
def test_combine_matches_the_scaled_sum(case):
    """The numerator sum against the plain sum of scaled matrices in GaussianRational."""
    S, coords = case
    want = ZERO3
    for c, B in zip(coords, S.basis, strict=True):
        want = madd(want, mscale(B, c))
    got = combine(coords, S)
    assert got == want
    assert is_canonical(got)
    assert combine([0] * S.dimension, S) == ZERO3


@given(combinations())
@settings(max_examples=200, deadline=None)
def test_cayley_element_matches_the_inverse_route(case):
    S, coords = case
    A = combine(coords, S)
    try:
        want = inverse_cayley(A)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            cayley_group_element(A)
        return
    got = cayley_group_element(A)
    assert got == want
    assert is_canonical(got)


@st.composite
def memberships(draw):
    """A subspace spanned by the first k basis matrices of one above, and a matrix
    combined from them, moved off their span or not by the next basis matrix."""
    S, coords = draw(combinations())
    k = draw(st.integers(1, S.dimension))
    sub = LieSubspace(S.basis[:k], S.field)
    X = combine(coords[:k], sub)
    if k < S.dimension and draw(st.booleans()):
        X = madd(X, mscale(S.basis[k], draw(COORDINATES)))
    return sub, X


@given(memberships())
@settings(max_examples=200, deadline=None)
def test_contains_on_the_kept_numerators_matches_the_q_i_rank(case):
    """The membership test on integer rows against the rank of the Q(i) (over 'R', the
    realified) rows of the basis with X appended."""
    S, X = case
    rows = [lie.flatten(Y) for Y in (*S.basis, X)]
    if S.field == "R":
        rows = [lie.realify(row) for row in rows]
    assert S.contains(X) == (exactla.rank(rows) == S.dimension)


@pytest.mark.parametrize("S, A", [
    (None, mscale(IDENTITY3, -1)),
    (lie.sl3(), mat([[-1, 0, 0], [0, 0, 0], [0, 0, 1]])),
    (lie.su21(), madd(E(0, 2), E(2, 0))),  # eigenvalues -1, 0, 1
    (lie.su21(), mat([[0, 0, GaussianRational(0, -1)], [0, 0, 0], [GaussianRational(0, 1), 0, 0]])),
])
def test_a_singular_i_plus_a_raises_on_both_routes(S, A):
    assert S is None or S.contains(A)
    with pytest.raises(ZeroDivisionError):
        inverse_cayley(A)
    with pytest.raises(ZeroDivisionError):
        cayley_group_element(A)


# --- mutation controls: the checks read the new kernels -------------------------


def _lie_check(check_id):
    specs = {spec.id: spec for spec in parse_config(default_config_text())}
    return run_check(specs[check_id])


def test_a_sign_flipped_line_minor_fails_the_dimension_check(monkeypatch):
    """One flipped sign changes the minor matrix's rank, so a stabilizer dimension."""
    minors = lie._line_minors

    def flipped(mats, w):
        out = list(minors(mats, w))
        out[0][0] = -out[0][0]
        return out

    assert _lie_check("subalgebra-dimensions").status == "pass"
    monkeypatch.setattr(lie, "_line_minors", flipped)
    result = _lie_check("subalgebra-dimensions")
    assert result.status == "fail"
    assert "moved by a form-preserving element has stabilizer" in result.details["reason"]


def test_a_shifted_line_minor_fails_the_line_check(monkeypatch):
    """The line test asks only whether every minor is zero, which a sign flip keeps,
    so its control adds one to an entry: the multiples of (0, 1, 0) stop passing."""
    minors = lie._line_minors

    def shifted(mats, w):
        out = list(minors(mats, w))
        out[0][0] += 1
        return out

    assert _lie_check("common-eigenvector-line").status == "pass"
    monkeypatch.setattr(lie, "_line_minors", shifted)
    result = _lie_check("common-eigenvector-line")
    assert result.status == "fail"
    assert result.details["reason"].endswith("returned False, expected True")


def test_a_conjugated_product_entry_fails_the_isotropy_check(monkeypatch):
    product = lie.mmul

    def conjugated(X, Y):
        rows = [list(row) for row in product(X, Y)]
        rows[0][1] = rows[0][1].conjugate()
        return tuple(map(tuple, rows))

    assert _lie_check("isotropy-pseudo-unitary").status == "pass"
    monkeypatch.setattr(lie, "mmul", conjugated)
    result = _lie_check("isotropy-pseudo-unitary")
    assert result.status == "fail"
    assert "does not preserve the pairing form" in result.details["reason"]
