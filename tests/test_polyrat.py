import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (
    ARRAY_QUOTIENT_ERROR,
    PRODUCT_ERROR,
    QUOTIENT_ERROR,
    UNIT_ROUNDOFF,
    ExactComplex,
    exact_horner,
    gate_points,
    horner_bound,
    modulus,
    poly_allclose,
    to_decimal,
)

from royalgamma import generate_h_nu
from royalgamma.blaschke import build_parametrization, circle_grid, phasar_derivative, solve_blaschke
from royalgamma.errors import ExceptionalZeta, ZeroPolynomial
from royalgamma.gamma import extract_royal_data
from royalgamma.pick import build_pick_matrix, choose_tau
from royalgamma.polyrat import (
    PD_TOL,
    RESIDUAL_TOL,
    ROOT_CLUSTER_TOL,
    TRIM_TOL,
    Poly,
    RationalFn,
    RootCluster,
    _apart,
    _clusters,
    _horner_at,
    _pair_roots,
    _schur_parameters,
    _stacked,
    _stacked_companion_roots,
    _trimmed_sizes,
    joint_reduce,
    pole_margins,
    poly_derivative,
    poly_eval,
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

    def test_a_non_finite_scale_trims_nothing(self):
        # an infinite or a NaN scale trims nothing: every coefficient stays, an overflowing product's too
        polys = [Poly([np.inf, 1.0]), Poly([1.0, 2.0, np.inf]), Poly([1e308, 1e308]) * Poly([10.0]), Poly([np.nan, 0.0])]
        assert [p.coeffs.size for p in polys] == [2, 3, 2, 2]
        rows, sizes = _stacked(polys), np.array([2, 3, 2, 2])
        assert _trimmed_sizes(rows, sizes).tolist() == [2, 3, 2, 2]

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
        p = Poly([-1.0, 0.0, 1.0])
        for rc in poly_roots(p):
            assert abs(poly_eval(p, rc.value)) <= 1e-12

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
        (num,), den = joint_reduce((Poly([-1.0, 0.0, 1.0]),), Poly([-1.0, 1.0]))
        assert poly_allclose(num, Poly([1.0, 1.0]), atol=1e-9)
        assert poly_allclose(den, Poly([1.0]), atol=1e-12)

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
        (num,), den = joint_reduce((Poly([]),), Poly([2.0, 1.0]))
        assert num.is_zero
        assert den.coeffs.tolist() == [1.0]

    def test_true_common_root_is_cancelled(self):
        a = 0.3 + 0.4j
        (num,), den = joint_reduce((Poly.from_roots([a, 0.7j]),), Poly.from_roots([a, -0.5]))
        assert (num.degree, den.degree) == (1, 1)
        assert abs(num.coeffs[0] + 0.7j) < 1e-12
        assert abs(den.coeffs[0] - 0.5) < 1e-12

    def test_pair_within_root_cluster_tol_is_cancelled(self):
        # 5e-8 apart pairs at ROOT_CLUSTER_TOL, and no sampled check backs the pairing off
        a = 0.3 + 0.4j
        (num,), den = joint_reduce((Poly.from_roots([a + 5e-8, 0.7j]),), Poly.from_roots([a, -0.5]))
        assert (num.degree, den.degree) == (1, 1)
        assert abs(den.coeffs[0] - 0.5) < 1e-12

    @pytest.mark.parametrize("degree", [12, 16, 20])
    def test_a_shared_root_near_the_circle_cancels_at_high_degree(self, degree):
        # each numerator's root lies ROOT_CLUSTER_TOL / 2 from a denominator root of modulus 0.97
        rng = np.random.default_rng(degree)
        angles = 2.0 * np.pi * (np.arange(degree) + rng.uniform(0.0, 0.5, degree)) / degree
        den_roots = rng.uniform(0.9, 0.98, degree) * np.exp(1j * angles)
        den_roots[0] = 0.97 * np.exp(1j * angles[0])
        nums = tuple(Poly.from_roots([den_roots[0] + 0.5 * ROOT_CLUSTER_TOL * np.exp(1j * rng.uniform(0.0, 6.3))]
                                     + list(rng.uniform(0.5, 0.98, degree - 1) * np.exp(1j * angles[1:] + 0.3j)),
                                     leading=_random_coeffs(rng, 1)[0]) for _ in range(3))
        out_nums, den = joint_reduce(nums, Poly.from_roots(den_roots, leading=0.5j))
        assert den.degree == degree - 1 and min(abs(rc.value - den_roots[0]) for rc in poly_roots(den)) > 1e-3
        assert all(q.degree == degree - 1 for q in out_nums)
        _assert_reduced((out_nums, den))

    def test_near_common_root_is_not_cancelled(self):
        # 1e-5 apart is farther than ROOT_CLUSTER_TOL: the inputs come back themselves
        a = 0.3 + 0.4j
        nums, den = (Poly.from_roots([a + 1e-5, 0.7j]),), Poly.from_roots([a, -0.5])
        out_nums, out_den = joint_reduce(nums, den)
        assert out_nums is nums and out_den is den

    def test_scaling_made_monic(self):
        from royalgamma.gamma import compose_phi_omega

        # the joint reduction keeps leading coefficients; the composition divides them out
        h = generate_h_nu(2, 0.35)
        for omega in (1.0, -1j, 2.5 - 0.5j):
            (num,), den = joint_reduce((2.0 * omega * h.p.num - h.s.num,), 2.0 * h.den - omega * h.s.num)
            assert den.leading != 1.0
            composed = compose_phi_omega(omega, h)
            assert composed.den.leading == 1.0
            assert composed.num.leading == num.leading / den.leading


class TestPairRoots:
    """_pair_roots, the pairing behind joint_reduce, on hand-made clusters."""

    def test_multiplicities_bound_the_cancellation(self):
        den = [RootCluster(0.5, 2), RootCluster(-0.2j, 1)]
        num = [RootCluster(0.5 + 1e-9, 1), RootCluster(0.9, 1)]
        den_left, (num_left,), cancelled = _pair_roots(den, [num])
        assert cancelled == 1
        assert den_left == [0.5, -0.2j]
        assert num_left == [0.9]

    def test_a_zero_numerator_shares_every_root(self):
        den = [RootCluster(0.5, 2), RootCluster(-0.2j, 1)]
        num = [RootCluster(-0.2j, 1)]
        den_left, (zero_left, num_left), cancelled = _pair_roots(den, [None, num])
        assert cancelled == 1
        assert den_left == [0.5, 0.5]
        assert zero_left is None and num_left == []

    def test_a_root_must_be_shared_by_every_numerator(self):
        den = [RootCluster(0.5, 1)]
        den_left, nums_left, cancelled = _pair_roots(den, [[RootCluster(0.5, 1)], [RootCluster(0.7, 1)]])
        assert cancelled == 0
        assert den_left == [0.5]
        assert nums_left == [[0.5], [0.7]]

    @pytest.mark.parametrize("gap, cancelled", [(0.9 * ROOT_CLUSTER_TOL, 1), (1.1 * ROOT_CLUSTER_TOL, 0)])
    def test_roots_pair_within_root_cluster_tol(self, gap, cancelled):
        _, _, count = _pair_roots([RootCluster(0.25j, 1)], [[RootCluster(0.25j + gap, 1)]])
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
        out.append(RootCluster(centroid, m))
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
            ref = _reference_trim_coeffs(coeffs)
            poly = Poly(coeffs if isinstance(coeffs, np.ndarray) else list(np.atleast_1d(coeffs)))
            assert poly.coeffs.shape == ref.shape and poly.coeffs.ndim == 1
            assert np.array_equal(_bits(poly.coeffs), _bits(ref))
            # Poly keeps a trimmed copy: a caller's array is neither frozen nor shared
            assert not isinstance(coeffs, np.ndarray) or (coeffs.flags.writeable and not np.shares_memory(coeffs, poly.coeffs))

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
        grid = np.concatenate(([0.0, complex(-0.0)], _random_coeffs(rng, 61)))
        for p in polys:
            for z in points:
                ours, ref = poly_eval(p, z), _reference_poly_eval(p, z)
                assert type(ours) is complex and type(ref) is complex
                assert np.array_equal(_bits(ours), _bits(ref))
            for zs in (grid, grid.reshape(7, 9), grid[:0], grid.real):
                assert np.array_equal(_bits(poly_eval(p, zs)), _bits(_reference_poly_eval(p, zs)))


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
    return _sequential_clusters(p, raw.tolist(), values, slopes)


def _sequential_clusters(p, raw, values, slopes):
    """_clusters as it was before the sweep: the greedy pass over every root, each centroid recomputed."""
    polished = []
    for r, fr, dfr in zip(raw, values, slopes):
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
    out = [RootCluster(c, len(m)) for c, m in zip(centroids, clusters)]
    out.sort(key=lambda rc: (rc.value.real, rc.value.imag))
    return out


def _cluster_bits(clusters):
    return [rc.multiplicity for rc in clusters], _bits([rc.value for rc in clusters]).tolist()


def _same_function(ours, ref):
    return all(np.array_equal(_bits(a.coeffs), _bits(b.coeffs)) for a, b in ((ours.num, ref.num), (ours.den, ref.den)))


def _assert_reduced(reduced):
    """A reduced function reduces no further: a second reduction returns it itself."""
    nums, den = reduced
    again = joint_reduce(nums, den)
    assert again[0] is nums and again[1] is den


def test_joint_reduction_cancels_shared_factors_within_root_cluster_tol():
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
    dropped = 0
    for nums, den in items:
        reduced = joint_reduce(nums, den)
        cut = den.degree - reduced[1].degree
        # a cancelled root leaves every nonzero numerator too
        assert all(q.is_zero or q.degree == out.degree + cut for q, out in zip(nums, reduced[0]))
        _assert_reduced(reduced)
        dropped += cut > 0
    assert dropped >= 10


class TestJointReductionOutcomes:
    """What joint_reduce cancels, and that it returns its inputs themselves when nothing cancels."""

    def _cases(self):
        a = 0.3 + 0.4j
        near = ((Poly.from_roots([a + 5e-8, 0.7j]),), Poly.from_roots([a, -0.5]))
        common = ((Poly.from_roots([a, 0.7j], leading=3.0),), Poly.from_roots([a, -0.5], leading=0.5j))
        zero = ((Poly([]),), Poly([2.0, 1.0]))
        rng = np.random.default_rng(91)
        plain = [((Poly(_random_coeffs(rng, n)),), Poly(_random_coeffs(rng, n + d))) for n in (1, 3, 5) for d in (0, 2)]
        return {"near": near, "common": common, "zero": zero, "plain": plain}

    @pytest.mark.parametrize("case, degrees", [("near", (1, 1)), ("common", (1, 1)), ("zero", (-1, 0))])
    def test_a_shared_root_cancels(self, case, degrees):
        reduced = joint_reduce(*self._cases()[case])
        assert (reduced[0][0].degree, reduced[1].degree) == degrees
        _assert_reduced(reduced)

    def test_nothing_to_pair_returns_the_inputs(self):
        for nums, den in self._cases()["plain"]:
            out_nums, out_den = joint_reduce(nums, den)
            assert out_nums is nums and out_den is den

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan)])
    def test_a_non_finite_function_comes_back_as_it_is(self, bad):
        # eigvals takes no NaN (a Poly keeps no infinity): no root is found, and nothing cancels
        for nums, den in (((Poly([bad, 1.0]),), Poly([0.5, 1.0])), ((Poly([0.5, 1.0]),), Poly([bad, 0.5, 1.0]))):
            out_nums, out_den = joint_reduce(nums, den)
            assert out_nums is nums and out_den is den

    @pytest.mark.parametrize("seed", [95, 96, 97])
    def test_random_functions_lose_their_common_factor(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(32):
            n = int(rng.integers(1, 6))
            num, den = Poly(_random_coeffs(rng, n)), Poly(_random_coeffs(rng, n + int(rng.integers(0, 3))))
            shared = rng.uniform() < 0.5
            if shared:
                common = Poly.from_roots([_random_coeffs(rng, 1)[0]])
                num, den = num * common, den * common
            reduced = joint_reduce((num,), den)
            assert (reduced[0][0].degree, reduced[1].degree) == (num.degree - shared, den.degree - shared)
            _assert_reduced(reduced)


class TestBatchKernelsAreBitIdentical:
    """poly_roots_many gives exactly what the one-at-a-time kernel gave."""

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

    def test_poly_eval_at_a_point_matches_poly_eval_on_an_array(self):
        rng = np.random.default_rng(96)
        polys = [Poly([]), Poly([-0.0]), Poly([1.5j])] + [Poly(_random_coeffs(rng, n)) for n in (2, 3, 5, 9, 14)]
        points = np.concatenate(([0.0, -1.0, 1j], np.exp(1j * rng.uniform(0, 2 * np.pi, 5)), _random_coeffs(rng, 4)))
        for p in polys:
            assert np.array_equal(_bits(poly_eval(p, points)), _bits([poly_eval(p, z) for z in points.tolist()]))

    @pytest.mark.parametrize("factor, merged", [(0.9, True), (1.1, False)])
    def test_a_root_pair_on_either_side_of_the_cluster_radius(self, factor, merged):
        polys = [Poly.from_roots([base, base + factor * ROOT_CLUSTER_TOL * step, -0.6 + 0.1j, 0.8j], leading=1.5 - 0.5j)
                 for base, step in ((0.5, 1.0), (0.3 + 0.2j, np.exp(0.7j)), (-0.4j, 1j))]
        for p, clusters in zip(polys, poly_roots_many(polys)):
            assert _cluster_bits(clusters) == _cluster_bits(poly_roots(p)) == _cluster_bits(_sequential_poly_roots(p))
            assert (max(rc.multiplicity for rc in clusters) == 2) == merged

    def test_triple_roots(self):
        polys = [Poly([-0.125, 0.75, -1.5, 1.0]), Poly.from_roots([0.2 - 0.3j] * 3 + [0.7, -0.5j], leading=2.0),
                 Poly.from_roots([0.0] * 3 + [0.4 + 0.1j, -0.9], leading=1j)]
        for p, clusters in zip(polys, poly_roots_many(polys)):
            assert _cluster_bits(clusters) == _cluster_bits(poly_roots(p)) == _cluster_bits(_sequential_poly_roots(p))
        assert sum(rc.multiplicity for rc in poly_roots(polys[0])) == 3
        assert RootCluster(0j, 3) in poly_roots(polys[2])

    def test_zero_coefficients_at_either_end(self):
        # roots at zero from zero low coefficients, and a top coefficient just above the trim, whose roots are huge
        rng = np.random.default_rng(91)
        polys = [Poly(np.concatenate((np.zeros(k), _random_coeffs(rng, n + 1)))) for k in (1, 2, 3) for n in (0, 1, 5)]
        for n in (2, 6):
            coeffs = _random_coeffs(rng, n + 1)
            coeffs[-1] = 2 * TRIM_TOL * np.max(np.abs(coeffs[:-1]))
            polys += [Poly(coeffs), Poly(np.concatenate(([0.0], coeffs)))]
        assert all(p.coeffs[0] == 0 for p in polys[:9]) and max(abs(rc.value) for rc in poly_roots(polys[-1])) > 1e10
        for p, clusters in zip(polys, poly_roots_many(polys)):
            assert _cluster_bits(clusters) == _cluster_bits(poly_roots(p)) == _cluster_bits(_sequential_poly_roots(p))

    @pytest.mark.parametrize("raw, apart", [
        ([complex(-0.0, 0.5)], True),
        ([complex(-0.0, 0.5), complex(-0.0, -0.5), 0.25 + 0j], True),
        ([complex(-0.0, 0.5), 0.25 + 0j, 0.25 + 5e-8j], False),
        # sorted by real part, a root between two near ones is far from both
        ([0j, 5e-8 + 1j, 9e-8 + 0j], False),
        ([0j, 5e-8 + 1j, 1.1e-7 + 0j], True),
    ])
    def test_clusters_match_the_greedy_pass_down_to_signed_zeros(self, raw, apart):
        # p and p' are zero and one at each raw root, so each polished root keeps the raw root's bits
        at_raw = (Poly([0.5, 1.0]), raw, [0j] * len(raw), [1 + 0j] * len(raw))
        clusters = _clusters(*at_raw)
        assert _apart(sorted(raw, key=lambda w: (w.real, w.imag))) == apart
        assert _cluster_bits(clusters) == _cluster_bits(_sequential_clusters(*at_raw))
        # a singleton's centroid sum([r]) / 1 has a +0.0 real part
        assert all(np.copysign(1.0, rc.value.real) == 1.0 for rc in clusters if rc.value.real == 0)

    def test_a_nan_root_is_near_every_root(self):
        assert not _apart([complex(np.nan, 0.0), 1 + 0j]) and not _apart([1 + 0j, complex(0.5, np.nan)])
        assert _apart([complex(np.nan, 0.0)]) and _apart([])

    def test_poly_roots_many_rejects_a_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            poly_roots_many([Poly([1.0, 2.0]), Poly([])])

def _rational_error(f, z):
    """|f(z) - N/D| and its bound, N and D the exact values at z of f's float numerator and denominator.

    At one point f evaluates num and den by Horner's rule in Python complex arithmetic, within
    b_N and b_D = 4 n u sum_j |c_j| |z|^j of N and D (``horner_bound``), and divides them in Python.
    The quotient of the two values is within e = (b_N + |N/D| b_D) / (|D| - b_D) of N/D, and the
    division rounds within QUOTIENT_ERROR of it: |f(z) - N/D| <= e + QUOTIENT_ERROR (|N/D| + e)."""
    z = complex(z)
    num, den = (q.coeffs.tolist() for q in (f.num, f.den))
    exact_num, exact_den = (exact_horner(coeffs, ExactComplex.of(z))[0] for coeffs in (num, den))
    size = modulus(exact_den)
    b_num, b_den = horner_bound(num, z), horner_bound(den, z)
    assert size > b_den
    value = modulus(exact_num) / size
    gap = (b_num + value * b_den) / (size - b_den)
    return modulus(ExactComplex.of(f(z)) * exact_den - exact_num) / size, gap + QUOTIENT_ERROR * (value + gap)


class TestRationalEvaluationIsBitIdentical:
    """On arrays a rational function's one two-row Horner pass gives exactly
    poly_eval(num, z) / poly_eval(den, z), divided by numpy; at one point its value
    goes through the exact-oracle gate of the point path instead."""

    def _functions(self):
        rng = np.random.default_rng(97)
        nan_num = _random_coeffs(rng, 4)
        nan_num[1] = complex(np.nan, 0.5)
        pairs = [(Poly(_random_coeffs(rng, n)), Poly(_random_coeffs(rng, d)))
                 for n, d in ((1, 1), (2, 6), (6, 2), (5, 5), (9, 13), (13, 9))]
        pairs += [(Poly([]), Poly(_random_coeffs(rng, 4))), (Poly(nan_num), Poly(_random_coeffs(rng, 3))),
                  (Poly([-0.0, complex(0.0, -0.0), 2.0]), Poly([1.0, -0.0]))]
        return [RationalFn(num, den) for num, den in pairs]

    def _points(self):
        rng = np.random.default_rng(98)
        return [0.3 - 0.7j, 0j, -1.0 + 0j, np.complex128(1j), np.asarray(np.exp(0.7j)),
                _random_coeffs(rng, 7), np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 5))), np.zeros(0, complex)]

    def test_values_match_poly_eval(self):
        for f in self._functions():
            for z in self._points():
                assert np.array_equal(_bits(f.values(z)), _bits([poly_eval(f.num, z), poly_eval(f.den, z)]))
                got = f(z)
                if np.ndim(z) == 0:
                    assert type(got) is complex
                    if np.isnan(f.num.coeffs).any():
                        assert cmath.isnan(got)
                    else:
                        error, bound = _rational_error(f, z)
                        assert error <= bound
                    continue
                reference = poly_eval(f.num, z) / poly_eval(f.den, z)
                assert type(got) is type(reference)
                assert np.shape(got) == np.shape(reference)
                assert np.array_equal(_bits(got), _bits(reference))

    def test_a_scalar_quotient_is_divided_in_python(self):
        f = RationalFn(Poly([0.3 + 0.1j, -1.2, 0.7j]), Poly([1.1, 0.2 - 0.4j]))
        for z in (0.3 - 0.7j, np.exp(2.1j), 1.0):
            value = f(z)
            assert type(value) is complex
            assert value == _horner_at(f.num.coeffs.tolist(), complex(z)) / _horner_at(f.den.coeffs.tolist(), complex(z))

    def test_point_calls_keep_the_lists_and_array_calls_stack_nothing(self):
        f = RationalFn(Poly([1.0, 2.0j]), Poly([3.0]))
        f(np.arange(3.0))
        f.values(np.arange(2.0))
        assert not hasattr(f, "_lists")
        f(0.5)
        lists = f._lists
        assert lists == ([1.0 + 0j, 2.0j], [3.0 + 0j]) and all(type(c) is complex for q in lists for c in q)
        f(np.complex128(0.25j))
        assert not hasattr(f, "_slopes")
        phasar_derivative(f, 1.0)
        # the derivatives' lists and the scales of the vanishing and pole tests are kept beside them
        slopes = f._slopes
        assert slopes == ([2j], [], 2.0, 3.0) and f._derivative_lists() == (*lists, *slopes)
        phasar_derivative(f, -1.0)
        f(np.arange(2.0))
        assert f._lists is lists and f._slopes is slopes


class TestPointEvaluationMatchesAnExactOracle:
    """A rational function's value at one point, in Python complex arithmetic, against the exact
    quotient of its float numerator and denominator, within the bound ``_rational_error`` derives
    from the complex Horner error bound 4 n u sum_j |c_j| |z|^j."""

    def test_degrees_1_to_30(self):
        rng = np.random.default_rng(2101)
        points = gate_points(rng)
        for n in range(1, 31):
            f = RationalFn(Poly(_random_coeffs(rng, n + 1)), Poly(_random_coeffs(rng, int(rng.integers(1, 31)) + 1)))
            for z in points:
                error, bound = _rational_error(f, z)
                assert error <= bound, (n, z, error / bound)

    @pytest.mark.parametrize("nu", [0, 3, 7, 10, 14])
    def test_interpolants_of_h_nu(self, nu):
        data = extract_royal_data(generate_h_nu(nu, 0.5))
        pick = build_pick_matrix(data)
        param = build_parametrization(pick, data, choose_tau(pick, data))
        points = list(data.sigma) + gate_points(np.random.default_rng(nu))
        for zeta in circle_grid(8):
            try:
                phi = solve_blaschke(param, zeta)
            except ExceptionalZeta:
                continue
            assert phi.degree == 2 * nu + 2
            for z in points:
                error, bound = _rational_error(phi, z)
                assert error <= bound, (zeta, z, error / bound)

    def test_a_point_value_is_a_python_complex(self):
        f = RationalFn(Poly([0.3 + 0.1j, -1.2, 0.7j]), Poly([1.1, 0.2 - 0.4j]))
        for z in (0.3 - 0.7j, 0.5, 2, np.complex128(1j), np.float64(0.25), np.asarray(np.exp(0.7j)), np.asarray(-1)):
            assert type(f(z)) is complex

    def test_a_nan_coefficient_propagates(self):
        for num, den in (([complex(np.nan, 0.5), 1.0], [1.0, 0.5]), ([1.0, 2.0, 3.0], [1.0, complex(0.5, np.nan)])):
            f = RationalFn(Poly(num), Poly(den))
            for z in (0j, 0.5, np.exp(0.7j), np.asarray(1.05j)):
                assert cmath.isnan(f(z))


def _replayed_steps(coeffs, size):
    """The steps of ``_schur_parameters`` on one polynomial, in its own numpy operations on a one-row
    array: for each step, q and q~ before it, gamma, the new q and q~ before their power-of-two
    scaling, and that scale."""
    q = coeffs[None, :size] * np.cumprod(np.concatenate(([1.0], np.full(size - 1, 1.0 + ROOT_CLUSTER_TOL))))
    reflected = np.conj(q[:, ::-1])
    steps = []
    with np.errstate(all="ignore"):
        for _ in range(size - 1):
            gamma = np.conj(reflected[:, 0] / q[:, 0])
            new_q = (q - gamma[:, None] * reflected)[:, :-1]
            new_reflected = (reflected - np.conj(gamma)[:, None] * q)[:, 1:]
            scale = np.ldexp(1.0, -np.frexp(np.abs(new_q[:, 0]))[1])[:, None]
            steps.append((q[0], reflected[0], complex(gamma[0]), new_q[0], new_reflected[0], float(scale[0, 0])))
            q, reflected = new_q * scale, new_reflected * scale
    return steps


def _running_bounds(steps) -> list[float]:
    """For each step, a bound g on |gamma(float) - gamma(exact)|, the exact recursion taken on the
    same scaled input (a running error analysis, Higham, 2nd ed., section 3.3).

    Let e_j and f_j bound the errors of q_j and q~_j against the exact ones, 0 at the start,
    A = |q_0| - e_0 > 0 and X = |gamma| / (1 - Q), Q = ARRAY_QUOTIENT_ERROR.  The quotient
    x = q~_0 / q_0 of the floats is within (f_0 + |x| e_0) / A of the exact conj(gamma), and numpy's
    division rounds within Q |x|, so g = (f_0 + X e_0) / A + Q X.  The new q_j = q_j - gamma q~_j
    gains g |q~_j| + (|gamma| + g) f_j from the product's operands, PRODUCT_ERROR |gamma| |q~_j| from
    its rounding and u |new q_j| / (1 - u) from the subtraction's, and the new
    q~_j = q~_(j + 1) - conj(gamma) q_(j + 1) likewise with q and q~ swapped; the dropped columns are
    0 in the exact recursion, and the power-of-two scale is exact, so it scales e and f too.  The
    bound is summed in floats: its own rounding, a few u relative, lies far below the margins the
    tests measure.  Once A <= 0 the bound is infinite."""
    errors = reflected_errors = np.zeros(steps[0][0].size) if steps else None
    bounds = []
    for q, reflected, gamma, new_q, new_reflected, scale in steps:
        a = abs(q[0]) - errors[0]
        if not a > 0.0:
            return bounds + [np.inf] * (len(steps) - len(bounds))
        x = abs(gamma) / (1.0 - ARRAY_QUOTIENT_ERROR)
        g = (reflected_errors[0] + x * errors[0]) / a + ARRAY_QUOTIENT_ERROR * x

        def grown(own, other, other_errors, result):
            return (own + (g + PRODUCT_ERROR * abs(gamma)) * np.abs(other) + (abs(gamma) + g) * other_errors
                    + UNIT_ROUNDOFF * np.abs(result) / (1.0 - UNIT_ROUNDOFF))

        errors, reflected_errors = (scale * grown(errors[:-1], reflected[:-1], reflected_errors[:-1], new_q),
                                    scale * grown(reflected_errors[1:], q[1:], errors[1:], new_reflected))
        bounds.append(g)
    return bounds


def _certain_decision(steps):
    """The exact recursion's verdict where the running bounds decide it: False if some step has
    |gamma| - g > 1, True if every step has |gamma| + g < 1, else None.  Each g is widened by
    4 u max(1, |gamma|) for the rounding of the modulus; the exact polynomial has no zero in the
    closed disc of radius R iff every exact |gamma_k| < 1."""
    slack = [(abs(gamma), bound + 4 * UNIT_ROUNDOFF * max(1.0, abs(gamma)))
             for (_, _, gamma, _, _, _), bound in zip(steps, _running_bounds(steps))]
    if any(size - gap > 1.0 for size, gap in slack):
        return False
    return True if all(size + gap < 1.0 for size, gap in slack) else None


def _fraction_pair(z):
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _exact_schur_parameters(q) -> list:
    """The Schur–Cohn recursion in exact rational arithmetic on the float coefficients ``q``
    (ascending, the top one nonzero): each step's gamma as a (real, imaginary) pair of Fractions."""
    q = [_fraction_pair(c) for c in q]
    out = []
    for m in range(len(q) - 1, 0, -1):
        (a, b), (c, d) = q[m], q[0]
        norm = c * c + d * d
        gamma = ((a * c - b * d) / norm, (a * d + b * c) / norm)  # q_m / conj(q_0)
        out.append(gamma)
        q = [(x - (gamma[0] * y + gamma[1] * z), w - (gamma[1] * y - gamma[0] * z))
             for (x, w), (y, z) in ((q[j], q[m - j]) for j in range(m))]
    return out


def _gap_to_exact(gamma, exact) -> float:
    re, im = Fraction(gamma.real) - exact[0], Fraction(gamma.imag) - exact[1]
    return float(to_decimal(re * re + im * im, sqrt=True))


def _near_circle_case(rng, degree, delta):
    """A polynomial whose smallest root has modulus R (1 + delta), R = 1 + ROOT_CLUSTER_TOL, the
    others 1.2 to 2.5 times as far out, with a random leading coefficient."""
    radius = 1.0 + ROOT_CLUSTER_TOL
    moduli = np.concatenate(([radius * (1.0 + delta)], rng.uniform(1.2, 2.5, degree - 1)))
    roots = moduli * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, degree))
    return Poly.from_roots(roots.tolist(), leading=complex(*rng.normal(size=2)))


def _margin_and_steps(p):
    """The kernel's margin of ``p`` and its replayed steps, whose gammas are the kernel's, bit for bit."""
    margin, gammas = pole_margins(p.coeffs[None], [p.coeffs.size])[0], _schur_parameters(p.coeffs[None], [p.coeffs.size])[0]
    steps = _replayed_steps(p.coeffs, p.coeffs.size)
    assert np.array_equal(_bits([gamma for _, _, gamma, _, _, _ in steps]), _bits(gammas))
    return margin, steps


class TestPoleMarginMatchesAnExactOracle:
    """The Schur–Cohn kernel behind the pole test: each step's gamma against the exact recursion
    on the same float input, within the running bound ``_running_bounds`` derives from the
    per-operation bounds of ``conftest``; its decision against the roots; and its edge cases."""

    def test_gammas_within_the_running_bound(self):
        rng = np.random.default_rng(2301)
        polys = [Poly(_random_coeffs(rng, n + 1)) for n in range(1, 31)]
        polys += [_near_circle_case(rng, n, sign * delta) for n in (1, 2, 5, 12, 20)
                  for delta in (1e-2, 1e-4, 1e-6) for sign in (1.0, -1.0)]
        worst, gated = 0.0, 0
        for p in polys:
            _, steps = _margin_and_steps(p)
            scaled = steps[0][0]
            exact = _exact_schur_parameters(scaled)
            for (_, _, gamma, _, _, _), bound, reference in zip(steps, _running_bounds(steps), exact):
                error = _gap_to_exact(gamma, reference)
                assert error <= bound, (p.degree, error, bound)
                if np.isfinite(bound):
                    worst, gated = max(worst, error / bound), gated + 1
        assert gated >= 300
        assert worst <= 1.0, worst  # 0.24 here

    def test_decisions_agree_with_the_roots(self):
        # wherever the running bounds decide the exact verdict, the kernel's decision and the roots'
        # must both be that verdict; the bounds decide every case up to degree 16, and from 17 on,
        # where they grow past the margins, not all of them
        rng = np.random.default_rng(2302)
        radius = 1.0 + ROOT_CLUSTER_TOL
        undecided = []
        for degree in range(1, 31):
            for delta in (1e-2, 1e-4, 1e-6):
                for sign in (1.0, -1.0):
                    p = _near_circle_case(rng, degree, sign * delta)
                    margin, steps = _margin_and_steps(p)
                    outside = min(abs(rc.value) for rc in poly_roots(p)) > radius
                    verdict = _certain_decision(steps)
                    if verdict is None:
                        undecided.append(degree)
                    else:
                        assert (margin > 0) == outside == verdict, (degree, sign * delta, margin)
        assert min(undecided) >= 17 and len(undecided) <= 31, undecided  # 31 of the 180, from degree 17

    def test_edge_cases(self):
        radius = 1.0 + ROOT_CLUSTER_TOL
        cases = [
            ([-radius, 1.0, 0.0], 2),  # a root exactly on the circle of radius R: gamma = -1
            ([-2.0 * radius, 2.0, 0.0], 2),
            ([-1.0, 1.0, 0.0], 2),  # a root on the unit circle, inside the band
            ([3.0 + 1.0j, 0.0, 0.0], 1),  # a constant
            ([2.0, 1.0, 0.0], 3),  # a zero leading term within the size
            ([2.0, 1.0, 0.0], 2),  # the same polynomial trimmed
            ([0.0, 1.0, 0.5], 3),  # a root at 0: q_0 = 0
            ([complex(np.nan, 0.0), 1.0, 0.0], 2),  # a NaN coefficient
            ([1.0, 0.25j, 0.0], 2),  # 1 - R / |root| at degree 1
        ]
        coeffs = np.array([c for c, _ in cases], complex)
        sizes = np.array([size for _, size in cases])
        margins = pole_margins(coeffs, sizes)
        assert margins[0] == 0.0 and margins[1] == 0.0 and not margins[0] > 0.0
        assert margins[2] == 1.0 - radius
        assert margins[3] == 1.0
        assert margins[4] == margins[5] == 1.0 - radius / 2.0
        assert not margins[6] > 0.0 and np.isnan(margins[7]) and not margins[7] > 0.0
        assert margins[8] == 1.0 - radius * 0.25
        # each row's margin is its own, bit for bit, alone and at its own width
        for row, size, margin in zip(coeffs, sizes, margins):
            assert np.array_equal(_bits(pole_margins(row[None], [size])), _bits(margin))
            assert np.array_equal(_bits(pole_margins(row[None, :size], [size])), _bits(margin))


def test_clusters_that_grow_keep_the_sequential_centroids():
    # each cluster's centroid is recomputed as it gains a member: a triple root at zero, a double root
    # split by the eigensolver, and a near-triple root that splits into three clusters
    polys = [Poly.from_roots([0.0, 0.0, 0.0, 0.3 + 0.2j, 0.3 + 0.2j, -0.6], leading=2.0 - 1j),
             Poly.from_roots([0.5, 0.5 + 3e-8, 0.5 + 6e-8j, -0.2 + 0.4j, 0.1j], leading=1.5 + 0.5j)]
    found = poly_roots_many(polys)
    assert sorted(rc.multiplicity for rc in found[0]) == [1, 2, 3]
    for p, clusters in zip(polys, found):
        assert _cluster_bits(clusters) == _cluster_bits(_sequential_poly_roots(p))
        assert _cluster_bits(clusters) == _cluster_bits(_scalar_polish_roots(p))


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
            (num,), den = joint_reduce(*composed)
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
def test_joint_reduce_idempotent(num, den):
    from hypothesis import assume

    den_poly = Poly(den)
    assume(not den_poly.is_zero)
    (once_num,), once_den = joint_reduce((Poly(num),), den_poly)
    (twice_num,), twice_den = joint_reduce((once_num,), once_den)
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
