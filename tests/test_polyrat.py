import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import ExactComplex, exact_horner, poly_allclose

from royalgamma import generate_h_nu
from royalgamma.errors import ZeroPolynomial
from royalgamma.polyrat import (
    PD_TOL,
    RESIDUAL_TOL,
    ROOT_CLUSTER_TOL,
    TRIM_TOL,
    Poly,
    RationalFn,
    RootCluster,
    _pair_roots,
    _stacked_companion_roots,
    _trim_coeffs,
    joint_reduce_many,
    poly_derivative,
    poly_eval,
    poly_eval_compensated,
    poly_eval_many,
    poly_roots,
    poly_roots_many,
)


def roots_dict(p):
    return {(round(rc.value.real, 6), round(rc.value.imag, 6)): rc.multiplicity for rc in poly_roots(p)}


class TestTolerancePolicy:
    def test_defaults(self):
        assert TRIM_TOL == 1e-12
        assert ROOT_CLUSTER_TOL == 1e-7
        assert RESIDUAL_TOL == 1e-8
        assert PD_TOL == 1e-10


class TestPoly:
    def test_trim_and_degree(self):
        p = Poly([1.0, 2.0, 0.0, 1e-18])
        assert p.degree == 1
        assert Poly([]).is_zero
        assert Poly([0.0, 0.0]).is_zero
        assert Poly([]).degree == -1

    def test_eval_constant(self):
        assert poly_eval(Poly([1.0]), 7 + 2j) == 1.0

    def test_eval_identity(self):
        assert poly_eval(Poly([0.0, 1.0]), 1j) == 1j

    def test_eval_example_quarter(self):
        # denominator of (kappa l + eta^2)/(1 + conj(eta)^2 kappa l) at kappa=1, eta=1/2, l=1
        assert poly_eval(Poly([0.25, 1.0]), 1.0) == pytest.approx(1.25)

    def test_eval_vectorized(self):
        zs = np.array([0.0, 1.0, 1j])
        np.testing.assert_allclose(poly_eval(Poly([1.0, 1.0]), zs), 1.0 + zs)

    def test_zero_poly_evaluates_to_zero(self):
        assert poly_eval(Poly([]), 3 + 4j) == 0.0


class TestDerivative:
    def test_constant(self):
        assert poly_derivative(Poly([5.0])).is_zero

    def test_square(self):
        assert poly_allclose(poly_derivative(Poly([0, 0, 1])), Poly([0, 2]))

    def test_hand_value(self):
        d = poly_derivative(Poly([0.0, 0.5, 1.0]))
        assert poly_eval(d, -1.0) == pytest.approx(-1.5)


class TestRoots:
    def test_difference_of_squares(self):
        assert roots_dict(Poly([-1.0, 0.0, 1.0])) == {(1.0, 0.0): 1, (-1.0, 0.0): 1}

    def test_double_root_clusters(self):
        assert roots_dict(Poly([0.0, 0.0, 1.0])) == {(0.0, 0.0): 2}

    def test_royal_polynomial_of_generator(self):
        # expansion of s^2 - 4 p over the shared (monic) denominator for nu=0,
        # r=1/2: s = 2 lambda/(2 + lambda), p = lambda (2 lambda + 1)/(2 + lambda)
        # gives -8 lambda (lambda + 1)^2
        h = generate_h_nu(0, 0.5)
        royal = h.s.num * h.s.num - 4.0 * (h.p.num * h.den)
        assert poly_allclose(royal, Poly([0.0, -8.0, -16.0, -8.0]), atol=1e-12)
        assert roots_dict(royal) == {(0.0, 0.0): 1, (-1.0, 0.0): 2}

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            poly_roots(Poly([]))

    def test_residuals_reported(self):
        for rc in poly_roots(Poly([-1.0, 0.0, 1.0])):
            assert rc.residual <= 1e-12

    def test_product_roots_are_multiset_union(self):
        rng = np.random.default_rng(1301)
        done = 0
        while done < 25:
            dp = int(rng.integers(1, 7))
            dq = int(rng.integers(1, 7))
            p = Poly(rng.normal(size=dp + 1) + 1j * rng.normal(size=dp + 1))
            q = Poly(rng.normal(size=dq + 1) + 1j * rng.normal(size=dq + 1))
            if p.degree < 1 or q.degree < 1:
                continue
            union = [rc.value for rc in poly_roots(p) for _ in range(rc.multiplicity)]
            union += [rc.value for rc in poly_roots(q) for _ in range(rc.multiplicity)]
            if min(
                abs(a - b) for i, a in enumerate(union) for b in union[:i]
            ) < 1e-5 if len(union) > 1 else False:
                continue
            prod_roots = [rc.value for rc in poly_roots(p * q) for _ in range(rc.multiplicity)]
            assert len(prod_roots) == len(union)
            remaining = list(union)
            for r in prod_roots:
                gaps = [abs(r - u) for u in remaining]
                idx = int(np.argmin(gaps))
                assert gaps[idx] <= 1e-6
                remaining.pop(idx)
            done += 1


@seed(987)
@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=9,
    ),
    angle=st.floats(0.0, 2 * np.pi),
    radius=st.floats(0.3, 1.5),
)
def test_derivative_matches_finite_difference(coeffs, angle, radius):
    p = Poly(coeffs)
    if p.degree < 1:
        return
    z = radius * np.exp(1j * angle)
    step = 1e-5
    fd = (poly_eval(p, z + step) - poly_eval(p, z - step)) / (2 * step)
    exact = poly_eval(poly_derivative(p), z)
    assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


class TestJointReduction:
    def test_shared_linear_factor(self):
        [((num,), den, roots)] = joint_reduce_many([((Poly([-1.0, 0.0, 1.0]),), Poly([-1.0, 1.0]))])
        assert poly_allclose(num, Poly([1.0, 1.0]), atol=1e-9)
        assert poly_allclose(den, Poly([1.0]), atol=1e-12)
        assert roots == []

    def test_removable_singularity_drops_degree(self):
        # composing the omega = -conj(eta) functional with the one-boundary-node
        # closed form produces a removable singularity at the node
        from conftest import boundary_example_target

        from royalgamma.gamma import compose_phi_omega

        h = boundary_example_target(1j, 1.0, 1.0)
        omega = 1j  # -conj(eta) for eta = i
        raw = RationalFn(2.0 * omega * h.p.num - h.s.num, 2.0 * h.den - omega * h.s.num)
        assert raw.degree == 1
        reduced = compose_phi_omega(omega, h)
        assert reduced.degree == 0
        assert reduced.den.coeffs.tolist() == [1.0]

    def test_zero_numerator(self):
        [((num,), den, roots)] = joint_reduce_many([((Poly([]),), Poly([2.0, 1.0]))])
        assert num.is_zero
        assert den.coeffs.tolist() == [1.0]
        assert roots == []

    def test_true_common_root_is_cancelled(self):
        a = 0.3 + 0.4j
        [((num,), den, roots)] = joint_reduce_many([((Poly.from_roots([a, 0.7j]),), Poly.from_roots([a, -0.5]))])
        assert (num.degree, den.degree) == (1, 1)
        assert abs(num.coeffs[0] + 0.7j) < 1e-12
        assert abs(den.coeffs[0] - 0.5) < 1e-12
        assert len(roots) == 1 and abs(roots[0] + 0.5) < 1e-12

    def test_pair_within_root_cluster_tol_is_cancelled(self):
        # 5e-8 apart pairs at ROOT_CLUSTER_TOL, and no sampled check backs the pairing off
        a = 0.3 + 0.4j
        [((num,), den, roots)] = joint_reduce_many([((Poly.from_roots([a + 5e-8, 0.7j]),), Poly.from_roots([a, -0.5]))])
        assert (num.degree, den.degree) == (1, 1)
        assert len(roots) == 1 and abs(roots[0] + 0.5) < 1e-12

    def test_near_common_root_is_not_cancelled(self):
        # 1e-5 apart is farther than ROOT_CLUSTER_TOL: the inputs come back themselves
        a = 0.3 + 0.4j
        nums, den = (Poly.from_roots([a + 1e-5, 0.7j]),), Poly.from_roots([a, -0.5])
        [(out_nums, out_den, roots)] = joint_reduce_many([(nums, den)])
        assert out_nums is nums and out_den is den
        assert sorted(roots, key=lambda z: z.real) == pytest.approx([-0.5, a], abs=1e-12)

    def test_scaling_made_monic(self):
        from royalgamma.gamma import compose_phi_omega

        # the joint reduction keeps leading coefficients; the composition divides them out
        h = generate_h_nu(2, 0.35)
        for omega in (1.0, -1j, 2.5 - 0.5j):
            [((num,), den, _)] = joint_reduce_many([((2.0 * omega * h.p.num - h.s.num,), 2.0 * h.den - omega * h.s.num)])
            assert den.leading != 1.0
            composed = compose_phi_omega(omega, h)
            assert composed.den.leading == 1.0
            assert composed.num.leading == num.leading / den.leading


class TestPairRoots:
    """_pair_roots, the pairing behind joint_reduce_many, on hand-made clusters."""

    def test_multiplicities_bound_the_cancellation(self):
        den = [RootCluster(0.5, 2, 0.0), RootCluster(-0.2j, 1, 0.0)]
        num = [RootCluster(0.5 + 1e-9, 1, 0.0), RootCluster(0.9, 1, 0.0)]
        den_left, (num_left,), cancelled = _pair_roots(den, [num])
        assert cancelled == 1
        assert den_left == [0.5, -0.2j]
        assert num_left == [0.9]

    def test_a_zero_numerator_shares_every_root(self):
        den = [RootCluster(0.5, 2, 0.0), RootCluster(-0.2j, 1, 0.0)]
        num = [RootCluster(-0.2j, 1, 0.0)]
        den_left, (zero_left, num_left), cancelled = _pair_roots(den, [None, num])
        assert cancelled == 1
        assert den_left == [0.5, 0.5]
        assert zero_left is None and num_left == []

    def test_a_root_must_be_shared_by_every_numerator(self):
        den = [RootCluster(0.5, 1, 0.0)]
        den_left, nums_left, cancelled = _pair_roots(den, [[RootCluster(0.5, 1, 0.0)], [RootCluster(0.7, 1, 0.0)]])
        assert cancelled == 0
        assert den_left == [0.5]
        assert nums_left == [[0.5], [0.7]]

    @pytest.mark.parametrize("gap, cancelled", [(0.9 * ROOT_CLUSTER_TOL, 1), (1.1 * ROOT_CLUSTER_TOL, 0)])
    def test_roots_pair_within_root_cluster_tol(self, gap, cancelled):
        _, _, count = _pair_roots([RootCluster(0.25j, 1, 0.0)], [[RootCluster(0.25j + gap, 1, 0.0)]])
        assert count == cancelled


def _scalar_polish_roots(p):
    """poly_roots with the Newton polish evaluated at one root at a time."""
    polished = []
    dp = poly_derivative(p)
    for r in np.roots(p.coeffs[::-1]):
        fr = poly_eval(p, r)
        dfr = poly_eval(dp, r)
        if dfr != 0:
            step = fr / dfr
            if abs(step) < 1e-4:
                r = r - step
        polished.append(complex(r))
    polished.sort(key=lambda w: (w.real, w.imag))
    clusters = []
    for r in polished:
        for members in clusters:
            if abs(r - sum(members) / len(members)) <= ROOT_CLUSTER_TOL:
                members.append(r)
                break
        else:
            clusters.append([r])
    out = []
    for members in clusters:
        centroid = complex(sum(members) / len(members))
        m = len(members)
        if m >= 2:
            q = p
            for _ in range(m - 1):
                q = poly_derivative(q)
            dq = poly_derivative(q)
            for _ in range(2):
                dqv = poly_eval(dq, centroid)
                if dqv == 0:
                    break
                step = poly_eval(q, centroid) / dqv
                if abs(step) > 1e-3:
                    break
                centroid -= step
        out.append(RootCluster(centroid, m, abs(poly_eval(p, centroid))))
    out.sort(key=lambda rc: (rc.value.real, rc.value.imag))
    return out


def _reference_trim_coeffs(coeffs):
    """The trim every ``Poly`` ran before it skipped the reshaping of 1-D input."""
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
    if coeffs.size == 0:
        return coeffs
    scale = np.max(np.abs(coeffs))
    if scale == 0.0:
        return coeffs[:0]
    keep = coeffs.size
    while keep > 0 and abs(coeffs[keep - 1]) <= TRIM_TOL * scale:
        keep -= 1
    return coeffs[:keep].copy()


def _reference_poly_eval(p, z):
    """Horner with the ``zeros_like`` allocation."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for c in p.coeffs[::-1]:
        out = out * z + c
    if z.ndim == 0:
        return complex(out)
    return out


def _bits(values):
    """The exact bit patterns of complex values: equal iff identical, signed zeros included."""
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64)


def _random_coeffs(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


class TestArrayEvaluationIsBitIdentical:
    """The array evaluations give exactly the values of the scalar loops they replaced."""

    def test_poly_roots_match_scalar_polish(self):
        rng = np.random.default_rng(2024)
        polys = [Poly(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)) for n in range(1, 14) for _ in range(8)]
        polys.append(Poly.from_roots([0.3 + 0.2j, 0.3 + 0.2j, -0.5, 0.9j], leading=2.0 - 1j))
        for p in polys:
            assert poly_roots(p) == _scalar_polish_roots(p)
        assert [rc.multiplicity for rc in poly_roots(polys[-1])].count(2) == 1

    def test_poly_roots_match_scalar_polish_with_roots_at_zero(self):
        rng = np.random.default_rng(2025)
        polys = [Poly(np.concatenate((np.zeros(k), _random_coeffs(rng, n + 1))))
                 for k in (1, 2, 3) for n in (0, 1, 4, 9)]
        polys += [Poly([0.0, 0.0, 0.0, 1.5j]), Poly.from_roots([0.0, 0.0, 0.4 - 0.1j, 0.4 - 0.1j, 0.8])]
        for p in polys:
            assert p.coeffs[0] == 0
            assert poly_roots(p) == _scalar_polish_roots(p)

    def test_trim_matches_reference(self):
        rng = np.random.default_rng(77)
        inputs = [[], [0.0], [-0.0], [complex(-0.0, -0.0)], 3.5, np.array(2 - 1j), np.ones((2, 3))]
        for size in (1, 2, 5, 12):
            head = _random_coeffs(rng, size)
            scale = np.max(np.abs(head))
            for tail in ([0.0], [-0.0], [complex(0.0, -0.0)], [complex(-0.0, 0.0), -0.0],
                         [1e-18], [1e-13 * scale], [TRIM_TOL * scale], [2e-12 * scale, 1e-20j],
                         [np.nextafter(TRIM_TOL * scale, 1.0)], [-1e-15 * scale, 0.0, -0.0]):
                coeffs = np.concatenate((head, np.asarray(tail, dtype=complex)))
                inputs += [coeffs, coeffs.tolist(), coeffs[::-1], coeffs.real, -coeffs]
        for coeffs in inputs:
            ours, ref = _trim_coeffs(coeffs), _reference_trim_coeffs(coeffs)
            assert ours.shape == ref.shape and ours.ndim == 1
            assert np.array_equal(_bits(ours), _bits(ref))
            poly = Poly(coeffs if isinstance(coeffs, np.ndarray) else list(np.atleast_1d(coeffs)))
            assert np.array_equal(_bits(poly.coeffs), _bits(ref))

    def test_subtraction_is_addition_of_the_negation(self):
        rng = np.random.default_rng(78)
        sizes = (0, 1, 3, 6)
        for m in sizes:
            for n in sizes:
                for _ in range(5):
                    a, b = _random_coeffs(rng, m), _random_coeffs(rng, n)
                    # signed zeros and an exact cancellation of the top coefficient
                    a[::3], b[1::4] = -0.0, complex(0.0, -0.0)
                    if m == n and m:
                        b[-1] = a[-1]
                    p, q = Poly(a), Poly(b)
                    reference = p + Poly(-q.coeffs)
                    for diff in (p - q, p + (-q)):
                        assert np.array_equal(_bits(diff.coeffs), _bits(reference.coeffs))

    def test_negation_and_derivative_need_no_trim(self):
        rng = np.random.default_rng(79)
        for n in range(0, 16):
            p = Poly(_random_coeffs(rng, n + 1) * 10.0 ** rng.uniform(-8, 8, size=n + 1))
            assert np.array_equal(_bits((-p).coeffs), _bits(Poly(-p.coeffs).coeffs))
            d = poly_derivative(p)
            assert np.array_equal(_bits(d.coeffs), _bits(Poly(p.coeffs[1:] * np.arange(1, p.coeffs.size)).coeffs))

    def test_companion_roots_match_np_roots(self):
        rng = np.random.default_rng(80)
        polys = [Poly(_random_coeffs(rng, n + 1)) for n in range(1, 20) for _ in range(4)]
        polys += [Poly(np.concatenate((np.zeros(k), _random_coeffs(rng, n + 1)))) for k in (1, 2, 5) for n in (0, 1, 7)]
        polys += [Poly([complex(0.0, -0.0), -0.0, 2.0, 1.0]), Poly.from_roots([0.5, 0.5, 0.5, -1j])]
        for p in polys:
            assert p.degree >= 1
            zeros = int(np.argmax(p.coeffs != 0))
            # alone, and stacked under a row of the same shape
            other = np.concatenate((np.zeros(zeros), _random_coeffs(rng, p.coeffs.size - zeros)))
            for rows in (p.coeffs[None, :], np.array([other, p.coeffs])):
                roots = _stacked_companion_roots(rows, zeros)[-1]
                assert np.array_equal(_bits(roots), _bits(np.roots(p.coeffs[::-1])))

    def test_poly_eval_matches_zeros_like_horner(self):
        rng = np.random.default_rng(81)
        polys = [Poly([]), Poly([-0.0]), Poly([1.0]), Poly([0.0, 1.0])]
        polys += [Poly(_random_coeffs(rng, n + 1)) for n in range(1, 24)]
        points = [0.0, -0.0, 0j, complex(-0.0, -0.0), np.complex128(0.3 - 0.7j), np.array(1.1j)]
        points += _random_coeffs(rng, 8).tolist()
        grid = np.concatenate(([0.0, complex(-0.0, 0.0)], _random_coeffs(rng, 61)))
        for p in polys:
            for z in points:
                ours, ref = poly_eval(p, z), _reference_poly_eval(p, z)
                assert type(ours) is complex and type(ref) is complex
                assert np.array_equal(_bits(ours), _bits(ref))
            for zs in (grid, grid.reshape(7, 9), grid[:0], grid.real):
                assert np.array_equal(_bits(poly_eval(p, zs)), _bits(_reference_poly_eval(p, zs)))

    def test_cluster_residuals_match_scalar_evaluation(self):
        rng = np.random.default_rng(82)
        polys = [Poly(_random_coeffs(rng, n + 1)) for n in range(1, 20) for _ in range(3)]
        polys += [Poly.from_roots([0.3 + 0.2j] * m + [-0.5, 0.9j], leading=2.0 - 1j) for m in (2, 3)]
        polys += [Poly.from_roots([0.0, 0.0, 0.25])]
        for p in polys:
            for rc in poly_roots(p):
                assert rc.residual == abs(poly_eval(p, rc.value))


def _sequential_horner(coeffs, z):
    return _reference_poly_eval(Poly._untrimmed(coeffs), z)


def _sequential_poly_roots(p):
    """poly_roots as it was before the batch kernel: one companion matrix per call."""
    coeffs = p.coeffs
    if p.degree == 0:
        return []
    zeros = 0
    while coeffs[zeros] == 0:
        zeros += 1
    top = coeffs[zeros:][::-1]
    n = top.size - 1
    if not n:
        raw = np.zeros(zeros, complex)
    else:
        companion = np.eye(n, k=-1, dtype=complex)
        companion[0, :] = -top[1:] / top[0]
        raw = np.linalg.eigvals(companion)
        raw = np.concatenate((raw, np.zeros(zeros, complex))) if zeros else raw
    values = _sequential_horner(coeffs, raw).tolist()
    slopes = _sequential_horner(coeffs[1:] * np.arange(1, coeffs.size), raw).tolist()
    polished = []
    for r, fr, dfr in zip(raw.tolist(), values, slopes):
        if dfr != 0:
            step = fr / dfr
            if abs(step) < 1e-4:
                r = r - step
        polished.append(complex(r))
    polished.sort(key=lambda w: (w.real, w.imag))
    clusters = []
    for r in polished:
        for members in clusters:
            if abs(r - sum(members) / len(members)) <= ROOT_CLUSTER_TOL:
                members.append(r)
                break
        else:
            clusters.append([r])
    centroids = []
    for members in clusters:
        centroid = complex(sum(members) / len(members))
        if len(members) >= 2:
            q = p
            for _ in range(len(members) - 1):
                q = poly_derivative(q)
            dq = poly_derivative(q)
            for _ in range(2):
                dqv = poly_eval(dq, centroid)
                if dqv == 0:
                    break
                step = poly_eval(q, centroid) / dqv
                if abs(step) > 1e-3:
                    break
                centroid -= step
        centroids.append(centroid)
    residuals = _sequential_horner(coeffs, np.array(centroids)).tolist()
    out = [RootCluster(c, len(m), abs(fc)) for c, m, fc in zip(centroids, clusters, residuals)]
    out.sort(key=lambda rc: (rc.value.real, rc.value.imag))
    return out


def _cluster_bits(clusters):
    return ([rc.multiplicity for rc in clusters], _bits([rc.value for rc in clusters]).tolist(),
            np.array([rc.residual for rc in clusters]).view(np.uint64).tolist())


def _same_function(ours, ref):
    return all(np.array_equal(_bits(a.coeffs), _bits(b.coeffs)) for a, b in ((ours.num, ref.num), (ours.den, ref.den)))


def _joint_reduce_all_roots(items):
    """joint_reduce_many as it was before the screen: every numerator's roots found and paired."""
    found = iter(poly_roots_many([q for nums, den in items if den.degree >= 1
                                  for q in (den, *nums) if q.degree >= 1]))
    out = []
    for nums, den in items:
        den_roots = []
        if den.degree >= 1:
            den_clusters = next(found)
            num_clusters = [None if q.is_zero else next(found) if q.degree >= 1 else [] for q in nums]
            den_roots, num_roots, cancelled = _pair_roots(den_clusters, num_clusters)
            if cancelled:
                nums = tuple(q if roots is None else Poly.from_roots(roots, leading=q.leading)
                             for q, roots in zip(nums, num_roots))
                den = Poly.from_roots(den_roots, leading=den.leading)
        out.append((nums, den, den_roots))
    return out


def test_joint_reduction_finds_numerator_roots_only_where_they_can_pair():
    # shared factors exact and off by 1e-12 to 1e-2, double roots, zero and constant numerators
    rng = np.random.default_rng(93)
    items = []
    for offset in (0.0, 1e-12, 1e-9, 1e-7, 1e-6, 1e-4, 1e-2):
        for degree in (1, 2, 4, 8):
            shared = _random_coeffs(rng, 1)[0] * 0.9
            factors = [Poly.from_roots([shared + offset * np.exp(1j * rng.uniform(0, 6.3))]) for _ in range(3)]
            num_s, num_p, den = (Poly(_random_coeffs(rng, degree)) * factor for factor in factors)
            items.append(((num_s, num_p), den))
            items.append(((num_s * factors[0], num_p * factors[1]), den * factors[2]))
    items += [((Poly([]), Poly(_random_coeffs(rng, 3))), Poly.from_roots([0.5, -0.2j])),
              ((Poly([2.0]), Poly(_random_coeffs(rng, 3))), Poly.from_roots([0.5, -0.2j])),
              ((Poly([]), Poly([])), Poly.from_roots([0.5, 0.5])),
              ((Poly(_random_coeffs(rng, 2)), Poly(_random_coeffs(rng, 2))), Poly([1.5]))]
    ours, reference = joint_reduce_many(items), _joint_reduce_all_roots(items)
    for (nums, den, roots), (ref_nums, ref_den, ref_roots) in zip(ours, reference):
        assert [_bits(q.coeffs).tolist() for q in (*nums, den)] == [_bits(q.coeffs).tolist() for q in (*ref_nums, ref_den)]
        assert _bits(roots).tolist() == _bits(ref_roots).tolist()
    assert sum(out_den.degree < in_den.degree for (_, in_den), (_, out_den, _) in zip(items, reference)) >= 10


def _same_reduction(ours, ref):
    return all([_bits(q.coeffs).tolist() for q in (*nums, den)] + [_bits(roots).tolist()]
               == [_bits(q.coeffs).tolist() for q in (*ref_nums, ref_den)] + [_bits(ref_roots).tolist()]
               for (nums, den, roots), (ref_nums, ref_den, ref_roots) in zip(ours, ref, strict=True))


class TestJointReductionMatchesTheAllRootsReduction:
    """joint_reduce_many gives exactly what pairing every numerator's roots gives."""

    def _cases(self):
        a = 0.3 + 0.4j
        near = ((Poly.from_roots([a + 5e-8, 0.7j]),), Poly.from_roots([a, -0.5]))
        common = ((Poly.from_roots([a, 0.7j], leading=3.0),), Poly.from_roots([a, -0.5], leading=0.5j))
        zero = ((Poly([]),), Poly([2.0, 1.0]))
        rng = np.random.default_rng(91)
        plain = [((Poly(_random_coeffs(rng, n)),), Poly(_random_coeffs(rng, n + d))) for n in (1, 3, 5) for d in (0, 2)]
        return {"near": near, "common": common, "zero": zero, "plain": plain}

    @pytest.mark.parametrize("case", ["near", "common", "zero"])
    def test_joint_reduce_many_matches_the_all_roots_reduction(self, case):
        items = [self._cases()[case]]
        assert _same_reduction(joint_reduce_many(items), _joint_reduce_all_roots(items))

    @pytest.mark.parametrize("seed", [95, 96, 97])
    def test_joint_reduce_many_matches_the_all_roots_reduction_on_random_functions(self, seed):
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(32):
            n = int(rng.integers(1, 6))
            num, den = Poly(_random_coeffs(rng, n)), Poly(_random_coeffs(rng, n + int(rng.integers(0, 3))))
            if rng.uniform() < 0.5:
                common = Poly.from_roots([_random_coeffs(rng, 1)[0]])
                num, den = num * common, den * common
            items.append(((num,), den))
        reference = _joint_reduce_all_roots(items)
        assert _same_reduction(joint_reduce_many(items), reference)
        assert any(out_den.degree < den.degree for (_, den), (_, out_den, _) in zip(items, reference))

    def test_each_function_is_reduced_alone(self):
        # a batch gives each function what a call of its own gives
        cases = self._cases()
        items = [cases["near"], *cases["plain"], cases["common"], cases["zero"]]
        batch = joint_reduce_many(items)
        assert _same_reduction(batch, [joint_reduce_many([item])[0] for item in items])

    def test_nothing_to_pair_finds_no_numerator_roots(self, monkeypatch):
        import royalgamma.polyrat

        calls = []

        def recording(polys):
            calls.append(len(polys))
            return poly_roots_many(polys)

        items = self._cases()["plain"]
        monkeypatch.setattr(royalgamma.polyrat, "poly_roots_many", recording)
        out = joint_reduce_many(items)
        # one call for the nonconstant denominators, and none of the numerators can pair
        assert calls == [sum(den.degree >= 1 for _, den in items), 0]
        for (nums, den), (out_nums, out_den, _) in zip(items, out):
            assert out_nums is nums and out_den is den


class TestBatchKernelsAreBitIdentical:
    """poly_roots_many and poly_eval_many give exactly what the one-at-a-time kernels gave."""

    def _mixed_polys(self):
        rng = np.random.default_rng(90)
        polys = [Poly(_random_coeffs(rng, n + 1)) for n in (1, 2, 3, 4, 4, 4, 7, 12) for _ in range(3)]
        polys += [Poly(np.concatenate((np.zeros(k), _random_coeffs(rng, n + 1)))) for k in (1, 2) for n in (0, 3, 3)]
        polys += [Poly.from_roots([0.3 + 0.2j, 0.3 + 0.2j, -0.5, 0.9j], leading=2.0 - 1j)]
        polys += [Poly.from_roots([0.0, 0.0, 0.4 - 0.1j, 0.4 - 0.1j, 0.8]), Poly([2.5 - 1j]), Poly([0.0, 0.0, 1.5j])]
        return [polys[i] for i in rng.permutation(len(polys))]

    def test_poly_roots_many_matches_the_sequential_kernel(self):
        polys = self._mixed_polys()
        batch = poly_roots_many(polys)
        assert [_cluster_bits(c) for c in batch] == [_cluster_bits(_sequential_poly_roots(p)) for p in polys]
        # the batch holds a double root and roots at zero
        assert any(rc.multiplicity == 2 for clusters in batch for rc in clusters)
        assert any(rc.value == 0 for clusters in batch for rc in clusters)
        assert [_cluster_bits(poly_roots(p)) for p in polys] == [_cluster_bits(c) for c in batch]

    def test_poly_eval_many_matches_poly_eval(self):
        rng = np.random.default_rng(96)
        polys = [Poly([]), Poly([-0.0]), Poly([1.5j])] + [Poly(_random_coeffs(rng, n)) for n in (2, 3, 5, 9, 14)]
        points = np.concatenate(([0.0, -1.0, 1j], np.exp(1j * rng.uniform(0, 2 * np.pi, 5)), _random_coeffs(rng, 4)))
        batch = poly_eval_many(polys, points)
        for p, row in zip(polys, batch):
            assert np.array_equal(_bits(row), _bits(poly_eval(p, points)))
            assert np.array_equal(_bits(row), _bits([poly_eval(p, z) for z in points.tolist()]))

    def test_poly_roots_many_rejects_a_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            poly_roots_many([Poly([1.0, 2.0]), Poly([])])

def _complex_compensated(polys, z):
    """Compensated Horner on complex arrays, each product with z's real and
    imaginary part split anew at every step: the formula poly_eval_compensated
    had before it split z's parts once and each value once per step."""
    def two_sum(a, b):
        s = a + b
        t = s - a
        return s, (a - (s - t)) + (b - t)

    def two_product(a, b):
        a1, b1 = (x * 134217729.0 - (x * 134217729.0 - x) for x in (a, b))
        p = a * b
        return p, ((a1 * b1 - p) + a1 * (b - b1) + (a - a1) * b1) + (a - a1) * (b - b1)

    z = np.asarray(z, dtype=complex)
    size = max(q.coeffs.size for q in polys)
    out = err = np.zeros((len(polys), z.size), complex)
    for c in np.array([q.padded(size) for q in polys]).T[::-1, :, None]:
        (p1, e1), (p2, e2) = two_product(out, z.real), two_product(1j * out, z.imag)
        out, e3 = two_sum(p1, p2)
        out, e4 = two_sum(out, c)
        err = err * z + (e1 + e2 + e3 + e4)
    return out + err


class TestCompensatedEvaluation:
    """poly_eval_compensated against exact evaluation of the same float coefficients."""

    def test_values_match_the_complex_formula_bit_for_bit(self):
        rng = np.random.default_rng(67)
        for trial in range(300):
            polys = [Poly(_random_coeffs(rng, int(n))) for n in rng.integers(1, 32, rng.integers(1, 5))]
            if trial % 3 == 1:
                # real coefficients, some exactly zero, at real points and the roots of unity of order four
                polys = [Poly(np.where(rng.random(q.coeffs.size) < 0.3, 0.0, q.coeffs.real)) for q in polys]
                points = np.concatenate((rng.normal(size=4), [1.0, -1.0, 1j, -1j]))
            elif trial % 3 == 2:
                # next to the roots of a product of linear factors, and on them
                roots = _random_coeffs(rng, int(rng.integers(1, 31)))
                polys.append(Poly.from_roots(roots, leading=_random_coeffs(rng, 1)[0]))
                points = np.concatenate((roots + 1e-9 * np.exp(1j * rng.uniform(0, 2 * np.pi, roots.size)), roots))
            else:
                points = _random_coeffs(rng, 6)
            polys = [q for q in polys if not q.is_zero] or [Poly([1.0])]
            ours, reference = poly_eval_compensated(polys, points), _complex_compensated(polys, points)
            assert np.array_equal(ours.view(np.uint64), reference.view(np.uint64))

    @staticmethod
    def _relative_errors(polys, points, values):
        out = []
        for q, row in zip(polys, values):
            for z, value in zip(points.tolist(), row.tolist()):
                exact, _ = exact_horner(q.coeffs, ExactComplex.of(z))
                out.append(float(((exact - value).abs2() / exact.abs2()) ** 0.5))
        return np.array(out)

    def test_values_are_rounded_once(self):
        rng = np.random.default_rng(61)
        polys = [Poly(_random_coeffs(rng, n)) for n in (1, 2, 5, 9, 17, 30)]
        points = np.concatenate((np.exp(1j * rng.uniform(0, 2 * np.pi, 6)), _random_coeffs(rng, 3)))
        errors = self._relative_errors(polys, points, poly_eval_compensated(polys, points))
        assert errors.max() <= 2.0 ** -52

    def test_values_next_to_a_root_keep_their_digits(self):
        # a fivefold root next to the points: Horner's terms cancel to 1e-15 of their size
        root = 0.7 + 0.2j
        polys = [Poly.from_roots([root] * 5), Poly.from_roots([0.3j, -1.1, root])]
        points = root + 1e-3 * np.exp(1j * np.array([0.3, 1.7, 4.0]))
        compensated = self._relative_errors(polys, points, poly_eval_compensated(polys, points))
        plain = self._relative_errors(polys, points, poly_eval_many(polys, points))
        assert compensated.max() <= 2.0 ** -52
        assert plain.max() >= 1e-2


def test_compose_phi_omega_is_the_reduced_composition():
    from conftest import blaschke_rational, boundary_example_target, superficial_map

    from royalgamma.gamma import compose_phi_omega

    # at omega = i the boundary example's node is a removable singularity
    maps = [generate_h_nu(0, 0.5), generate_h_nu(2, 0.35), boundary_example_target(1j, 1.0, 1.0),
            superficial_map(blaschke_rational([0.3j, -0.2, 0.5 + 0.1j], 1j), 0.4 - 0.3j)]
    omegas = [*np.exp(1j * (np.pi * (2.0 * np.arange(8) + 1.0) / 8.0 + 0.0137 * 5)), 1.0, 1j, -1j, 2.5 - 0.5j]
    cancelled = 0
    for h in maps:
        for omega in omegas:
            composed = ((2.0 * complex(omega) * h.p.num - h.s.num,), 2.0 * h.den - complex(omega) * h.s.num)
            [((num,), den, _)] = _joint_reduce_all_roots([composed])
            assert _same_function(compose_phi_omega(omega, h), RationalFn(num / den.leading, den / den.leading))
            cancelled += den.degree < composed[1].degree
    assert cancelled >= 1


@seed(989)
@settings(max_examples=200, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 2 * np.pi), st.booleans()),
        min_size=2,
        max_size=31,
    ),
)
def test_derivative_of_a_trimmed_polynomial_never_trims(terms):
    # magnitudes 1e-10 to 1e10, some coefficients exactly zero
    coeffs = [0.0 if zero else 10.0 ** exponent * np.exp(1j * angle) for exponent, angle, zero in terms]
    p = Poly(coeffs)
    if p.degree < 1:
        return
    d = poly_derivative(p)
    assert d.degree == p.degree - 1
    reference = Poly(p.coeffs[1:] * np.arange(1, p.coeffs.size))
    assert np.array_equal(d.coeffs.view(np.uint64), reference.coeffs.view(np.uint64))


def test_derivative_keeps_a_top_coefficient_at_the_trim_threshold():
    for n in range(1, 31):
        for top in (np.nextafter(TRIM_TOL, 1.0), 2 * TRIM_TOL, 1e-11j):
            p = Poly([1.0] * n + [top])
            assert p.degree == n
            d = poly_derivative(p)
            assert d.degree == n - 1
            assert np.array_equal(d.coeffs, Poly(p.coeffs[1:] * np.arange(1, n + 1)).coeffs)


@seed(988)
@settings(max_examples=40, deadline=None)
@given(
    num=st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
    den=st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
)
def test_joint_reduce_many_idempotent(num, den):
    from hypothesis import assume

    den_poly = Poly(den)
    assume(not den_poly.is_zero)
    [((once_num,), once_den, _)] = joint_reduce_many([((Poly(num),), den_poly)])
    [((twice_num,), twice_den, _)] = joint_reduce_many([((once_num,), once_den)])
    # agreement is relative to the coefficient scale, as in the trim rule
    scale = max(1.0, *(np.max(np.abs(p.coeffs)) for p in (once_num, once_den) if not p.is_zero))
    assert poly_allclose(once_num, twice_num, atol=1e-9 * scale)
    assert poly_allclose(once_den, twice_den, atol=1e-9 * scale)


class TestSerialization:
    def test_poly_roundtrip(self):
        p = Poly([1.0 + 2.0j, -0.5])
        assert poly_allclose(Poly.from_list(p.to_list()), p, atol=0.0)

    def test_rational_roundtrip(self):
        f = RationalFn(Poly([1.0, 1j]), Poly([1.0, 0.25]))
        g = RationalFn.from_json_dict(f.to_json_dict())
        assert poly_allclose(f.num, g.num, atol=0.0)
        assert poly_allclose(f.den, g.den, atol=0.0)

    def test_json_shape(self):
        f = RationalFn(Poly([1.0]), Poly([0.0, 1.0]))
        obj = f.to_json_dict()
        assert obj == {"num": [[1.0, 0.0]], "den": [[0.0, 0.0], [1.0, 0.0]]}
