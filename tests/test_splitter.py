import random
from collections import Counter

from p1bundles import (
    Factorization,
    LaurentMatrix,
    Section,
    SplittingType,
    VectorBundle,
    W_CHART,
    Z_CHART,
    diagonal_bundle,
    grothendieck_split,
    h0_dim,
    h0_profile,
    is_section,
    line_bundle,
    random_bundle,
    random_unimodular,
    splitting_type,
    verify_factorization,
    z_power,
)
from p1bundles import cli, lmatrix, splitter
from p1bundles.laurent import ONE_POLY, ZERO_POLY
from p1bundles.text import format_bundle


def lm(rows):
    return LaurentMatrix(rows)


def euler_extension():
    return VectorBundle(lm([[z_power(1), ONE_POLY], [ZERO_POLY, z_power(-1)]]))


def other_extension():
    return VectorBundle(lm([[z_power(-1), ONE_POLY], [ZERO_POLY, z_power(1)]]))


def test_splitting_type_sorts():
    assert SplittingType([0, 2, -1]) == SplittingType([2, -1, 0])
    assert tuple(SplittingType([0, 2, -1])) == (2, 0, -1)


def test_minimal_twist_matches_cohomology_definition():
    # The first twist with a section is m = -d1, which the Cech count
    # confirms from its definition: h0(E(m)) > 0 and h0(E(m-1)) = 0.
    rng = random.Random(88)
    for _ in range(8):
        degrees = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        e = random_bundle(degrees, rng.randint(0, 2), rng.randint(0, 10**6))
        m = -splitting_type(e)[0]
        assert h0_dim(e.twist(m)) > 0
        assert h0_dim(e.twist(m - 1)) == 0


def test_extract_section_trivial():
    # The section of O is the first column of U in the certificate of O.
    _, fact = grothendieck_split(line_bundle(0))
    assert list(fact.u.column(0)) == [ONE_POLY]


def test_extract_section_twisted_extension():
    base = VectorBundle(lm([[z_power(-2), ONE_POLY], [ZERO_POLY, z_power(1)]]))
    e = base.twist(-splitting_type(base)[0])
    _, fact = grothendieck_split(e)
    assert is_section(e, Section(tuple(fact.u.column(0))))


def test_certificate_carries_a_nowhere_vanishing_section():
    # With W*T*U = D, the first column u_1 of U is a section of E(-d1) that
    # vanishes nowhere: u_1(0) is a column of the nonsingular U(0), and
    # z^(d1)*T*u_1 = W^-1 e_1 is nonzero at infinity.
    rng = random.Random(4096)
    for _ in range(12):
        degrees = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        e = random_bundle(degrees, rng.randint(0, 2), rng.randint(0, 10**6))
        st, fact = grothendieck_split(e)
        top = e.twist(-st[0])
        u1 = fact.u.column(0)
        assert is_section(top, Section(tuple(u1)))
        assert any(p.coeff(0) for p in u1)
        at_infinity = top.transition * lm([[p] for p in u1])
        assert any(row[0].coeff(0) for row in at_infinity.entries)


def test_split_diagonal_is_identity_gauges():
    st, fact = grothendieck_split(diagonal_bundle([3, 0, -2]))
    assert tuple(st) == (3, 0, -2)
    assert fact.w == LaurentMatrix.identity(3)
    assert fact.u == LaurentMatrix.identity(3)


def test_split_unsorted_diagonal_sorts():
    st, fact = grothendieck_split(diagonal_bundle([-2, 3, 0]))
    assert tuple(st) == (3, 0, -2)
    assert verify_factorization(diagonal_bundle([-2, 3, 0]), fact)


def test_holomorphic_nonsplitting_witness():
    st, fact = grothendieck_split(euler_extension())
    assert tuple(st) == (0, 0)
    assert verify_factorization(euler_extension(), fact)
    st2, fact2 = grothendieck_split(other_extension())
    assert tuple(st2) == (1, -1)
    assert verify_factorization(other_extension(), fact2)


def test_line_bundle_types():
    assert tuple(splitting_type(line_bundle(5))) == (5,)
    assert tuple(splitting_type(line_bundle(-4))) == (-4,)


def test_roundtrip_type_recovery():
    rng = random.Random(314)
    for _ in range(25):
        k = rng.randint(1, 5)
        degrees = [rng.randint(-6, 6) for _ in range(k)]
        e = random_bundle(degrees, rng.randint(0, 3), rng.randint(0, 10**6))
        st, fact = grothendieck_split(e)
        assert tuple(st) == tuple(sorted(degrees, reverse=True))
        assert verify_factorization(e, fact)


def test_gauge_invariance_of_type():
    rng = random.Random(2718)
    for _ in range(10):
        degrees = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        e = diagonal_bundle(degrees)
        a1 = random_unimodular(e.rank, W_CHART, 3, rng, moves=3)
        a0 = random_unimodular(e.rank, Z_CHART, 3, rng, moves=3)
        scrambled = VectorBundle(a1 * e.transition * a0)
        assert splitting_type(scrambled) == splitting_type(e)


def test_certificate_tampering_detected():
    e = random_bundle([2, 0, -1], 2, seed=33)
    st, fact = grothendieck_split(e)
    assert verify_factorization(e, fact)
    bumped = fact.w.with_entry(0, 0, fact.w[0, 0] + ONE_POLY)
    assert not verify_factorization(e, Factorization(bumped, fact.u, fact.d))
    # swapping diagonal entries without permuting the gauges must fail
    k = e.rank
    swapped = [fact.d[i, i] for i in range(k)]
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    assert not verify_factorization(
        e, Factorization(fact.w, fact.u, LaurentMatrix.diagonal(swapped))
    )
    # Each form check on its own: a factor that is not k x k, an off-diagonal
    # entry of D, a diagonal entry of D that is no z^-d, W off C[w], U off C[z].
    small = LaurentMatrix.identity(k - 1)
    w00, u00 = fact.w[0, 0], fact.u[0, 0]
    for w, u, d in (
        (small, fact.u, fact.d),
        (fact.w, small, fact.d),
        (fact.w, fact.u, small),
        (fact.w, fact.u, fact.d.with_entry(0, 1, ONE_POLY)),
        (fact.w, fact.u, fact.d.with_entry(0, 0, 2 * z_power(-1))),
        (fact.w, fact.u, fact.d.with_entry(0, 0, z_power(-1) + ONE_POLY)),
        (fact.w.with_entry(0, 0, w00 + z_power(1)), fact.u, fact.d),
        (fact.w, fact.u.with_entry(0, 0, u00 + z_power(-1)), fact.d),
    ):
        assert verify_factorization(e, Factorization(w, u, d)) is False
    # W*T*U = D and the degrees sum to deg E, but U(0) is singular:
    # det W = w and det U = z, so neither gauge is unimodular.
    e = diagonal_bundle([2, -1])
    w = LaurentMatrix.diagonal([z_power(-1), ONE_POLY])
    u = LaurentMatrix.diagonal([z_power(1), ONE_POLY])
    assert w * e.transition * u == e.transition
    assert not verify_factorization(e, Factorization(w, u, e.transition))
    # W*T*U = D and U(0) = I, but the degrees sum to deg E + 1.
    e = diagonal_bundle([1, -1])
    ident = LaurentMatrix.identity(2)
    d = diagonal_bundle([2, -1]).transition
    assert w * e.transition * ident == d
    assert not verify_factorization(e, Factorization(w, ident, d))


def test_split_and_derived_bundles_compute_no_determinant(monkeypatch, tmp_path):
    # A determinant is computed only to validate a transition from outside.
    # Splitting, checking a certificate, building sums and tensors of
    # validated bundles and scrambling a seeded one run none, and CLI split
    # checks the certificate's form once.
    a = random_bundle([2, 0, -1], 2, seed=21)
    b = random_bundle([1, -1], 2, seed=22)
    path = tmp_path / "a.bundle"
    path.write_text(format_bundle(a))
    dets, verifies = [], []
    det, well_formed = LaurentMatrix.det, splitter._well_formed
    monkeypatch.setattr(LaurentMatrix, "det", lambda self: dets.append(1) or det(self))
    monkeypatch.setattr(
        splitter, "_well_formed", lambda *args: verifies.append(1) or well_formed(*args)
    )
    _, fact = grothendieck_split(a)
    assert verify_factorization(a, fact)
    assert a.dsum(b).degree == 1
    assert a.tensor(b).degree == 2
    assert random_bundle([3, 1, 0, -2], 2, seed=23).degree == 2
    assert dets == []
    verifies.clear()
    assert cli.main(["split", str(path), "-o", str(tmp_path / "a.fact")]) == 0
    assert len(dets) == 1  # the parse-time validation of the input file
    assert len(verifies) == 1


def test_splitting_consistent_with_cohomology():
    rng = random.Random(1618)
    for _ in range(8):
        degrees = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        e = random_bundle(degrees, rng.randint(0, 2), rng.randint(0, 10**6))
        st = splitting_type(e)
        assert h0_dim(e) == sum(max(0, d + 1) for d in st)


def test_type_arithmetic():
    rng = random.Random(55)
    for _ in range(8):
        da = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        db = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        a = random_bundle(da, 2, rng.randint(0, 10**6))
        b = random_bundle(db, 2, rng.randint(0, 10**6))
        assert splitting_type(a.tensor(b)) == SplittingType(
            [x + y for x in da for y in db]
        )
        assert splitting_type(a.dsum(b)) == SplittingType(da + db)
        assert splitting_type(a.dual()) == SplittingType([-x for x in da])
        assert a.det_bundle().degree == sum(da)


def test_iso_examples():
    # The splitting type is a complete invariant: two bundles are isomorphic
    # exactly when their types are equal, as `cli iso` compares them.
    e = random_bundle([2, -1], 3, seed=1)
    f = random_bundle([2, -1], 3, seed=2)
    assert splitting_type(e) == splitting_type(f)
    assert splitting_type(euler_extension()) != splitting_type(diagonal_bundle([1, -1]))
    assert splitting_type(line_bundle(2)) == splitting_type(line_bundle(2))
    assert splitting_type(line_bundle(2)) != splitting_type(line_bundle(-2))
    # rank mismatch
    assert splitting_type(line_bundle(1)) != splitting_type(diagonal_bundle([1, 0]))


def test_dual_dual_preserves_type():
    rng = random.Random(47)
    for _ in range(5):
        degrees = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        e = random_bundle(degrees, 2, rng.randint(0, 10**6))
        assert splitting_type(e.dual().dual()) == splitting_type(e)


def test_self_duality():
    # E is self-dual when it is isomorphic to its dual: equal types.
    def self_dual(e):
        return splitting_type(e.dual()) == splitting_type(e)

    assert self_dual(diagonal_bundle([1, -1]))
    assert not self_dual(diagonal_bundle([2, 0]))
    assert self_dual(diagonal_bundle([0, 0, 0]))
    assert self_dual(random_bundle([3, 0, -3], 2, seed=4))


def test_profile_inversion_agrees_with_splitter():
    # the h0 staircase is an independent route to the type
    e = random_bundle([2, 1, -2], 2, seed=6)
    n = e.max_exponent
    prof = dict(h0_profile(e, -(n + 1), n + 1))
    jumps = {
        m: prof[m] - prof[m - 1] for m in range(-n, n + 2)
    }
    recovered = []
    prev = 0
    for m in range(-n, n + 2):
        for _ in range(jumps[m] - prev):
            recovered.append(-m)
        prev = jumps[m]
    assert SplittingType(recovered) == splitting_type(e)


def test_split_cross_checks_on_shear_products(unit_det):
    # Three independent routes to the type of a bundle built from arbitrary
    # Laurent shears: the certificate, the Cech profile and the dual.
    rng = random.Random(4711)
    for _ in range(12):
        e = VectorBundle(unit_det(rng, rng.randint(2, 4), rng.randint(1, 3)))
        st, fact = grothendieck_split(e)
        assert verify_factorization(e, fact)
        d = list(st)
        lo, hi = -d[0] - 1, -d[-1]
        assert h0_profile(e, lo, hi) == [
            (m, sum(max(0, x + m + 1) for x in d)) for m in range(lo, hi + 1)
        ]
        assert tuple(splitting_type(e.dual())) == tuple(-x for x in reversed(d))


def test_one_factorization_per_transition(monkeypatch):
    # Splitting a bundle, then taking its dual and comparing its type with
    # itself and with its negated reverse (as `cli iso` and `cli selfdual`
    # do) reduce its transition, and prove W*T*U = D, once: the inverse is
    # read off the kept factorization as U*D^-1*W.  Every split still
    # checks the form of its certificate.
    e = random_bundle([2, 0, -1], 2, seed=1957)
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for name in ("column_reduce", "w_adic_inverse"):
        fn = getattr(lmatrix, name)
        for mod in (lmatrix, splitter):  # every module that holds the name
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted(name, fn))
    monkeypatch.setattr(
        splitter, "_well_formed", counted("_well_formed", splitter._well_formed)
    )
    products = []
    mul = LaurentMatrix.__mul__
    monkeypatch.setattr(
        LaurentMatrix, "__mul__", lambda a, b: products.append(1) or mul(a, b)
    )
    grothendieck_split(e)
    dual = e.dual()
    assert splitting_type(e) == splitting_type(e)
    stype = splitting_type(e)
    assert list(stype) != [-d for d in reversed(stype)]
    assert dual.transition.transpose() * e.transition == LaurentMatrix.identity(3)
    assert Counter(calls) == {
        "column_reduce": 1,
        "w_adic_inverse": 1,
        "_well_formed": 4,
    }
    # W*T*U (two), U*D^-1*W (one) and the check above (one)
    assert len(products) == 4
