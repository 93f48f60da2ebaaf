import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import ExactComplex, exact_horner, poly_allclose

from royalgamma import generate_h_nu
from royalgamma.errors import NumericalFailure, ZeroPolynomial
from royalgamma.polyrat import (
    PD_TOL,
    RESIDUAL_TOL,
    ROOT_CLUSTER_TOL,
    TRIM_TOL,
    Poly,
    RationalFn,
    RootCluster,
    _drift_candidates,
    _pair_roots,
    _sampled_drift,
    _stacked_companion_roots,
    _trim_coeffs,
    joint_reduce_many,
    poly_derivative,
    poly_eval,
    poly_eval_compensated,
    poly_eval_many,
    poly_roots,
    poly_roots_many,
    rat_reduce,
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


class TestRatReduce:
    def test_shared_linear_factor(self):
        f = RationalFn(Poly([-1.0, 0.0, 1.0]), Poly([-1.0, 1.0]))
        g = rat_reduce(f)
        assert poly_allclose(g.num, Poly([1.0, 1.0]), atol=1e-9)
        assert poly_allclose(g.den, Poly([1.0]), atol=1e-12)

    def test_scaling_made_monic(self):
        g = rat_reduce(RationalFn(Poly([0.0, 2.0]), Poly([2.0])))
        assert poly_allclose(g.num, Poly([0.0, 1.0]), atol=1e-12)
        assert poly_allclose(g.den, Poly([1.0]), atol=1e-12)

    def test_removable_singularity_drops_degree(self):
        # composing the omega = -conj(eta) functional with the one-boundary-node
        # closed form produces a removable singularity at the node
        from conftest import boundary_example_target

        h = boundary_example_target(1j, 1.0, 1.0)
        omega = 1j  # -conj(i) = i... -conj(eta) for eta = i is i
        num = 2.0 * omega * h.p.num - h.s.num
        den = 2.0 * h.den - omega * h.s.num
        raw = RationalFn(num, den)
        assert max(raw.num.degree, raw.den.degree) == 1
        reduced = rat_reduce(raw)
        assert reduced.degree == 0

    def test_zero_numerator(self):
        g = rat_reduce(RationalFn(Poly([]), Poly([2.0, 1.0])))
        assert g.num.is_zero
        assert poly_allclose(g.den, Poly([1.0]))

    def test_near_common_root_is_not_cancelled(self):
        # 5e-8 apart pairs at root_cluster_tol = 1e-7, but cancelling the pair
        # moves the sampled values, so the pairing backs off
        a = 0.3 + 0.4j
        g = rat_reduce(RationalFn(Poly.from_roots([a + 5e-8, 0.7j]), Poly.from_roots([a, -0.5])))
        assert g.den.degree == 2
        assert g.num.degree == 2

    def test_true_common_root_is_cancelled(self):
        a = 0.3 + 0.4j
        g = rat_reduce(RationalFn(Poly.from_roots([a, 0.7j]), Poly.from_roots([a, -0.5])))
        assert g.den.degree == 1
        assert g.num.degree == 1
        assert abs(g.den.coeffs[0] - 0.5) < 1e-12


def _scalar_drift_candidates():
    rng = np.random.default_rng(20311)
    return [rng.uniform(0.1, 2.5) * np.exp(2j * np.pi * rng.uniform()) for _ in range(4000)]


def _scalar_sampled_drift(reference, candidate, avoid):
    """The one-point-at-a-time sampled check that the array version must reproduce."""
    rng = np.random.default_rng(20311)
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 32 and attempts < 4000:
        attempts += 1
        z = rng.uniform(0.1, 2.5) * np.exp(2j * np.pi * rng.uniform())
        if any(abs(z - a) < 5e-2 for a in avoid):
            continue
        ref = reference(z)
        worst = max(worst, abs(ref - candidate(z)) / max(1.0, abs(ref)))
        checked += 1
    return worst


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

    def test_drift_candidates_match_scalar_draws(self):
        assert np.array_equal(_drift_candidates(), np.array(_scalar_drift_candidates()))

    def _pairs(self):
        # reference and a perturbed candidate, nonzero drift at every scale
        rng = np.random.default_rng(41)
        for eps in (1e-6, 1e-9, 1e-13):
            for _ in range(4):
                num = rng.normal(size=6) + 1j * rng.normal(size=6)
                den = rng.normal(size=5) + 1j * rng.normal(size=5)
                yield RationalFn(Poly(num), Poly(den)), RationalFn(Poly(num * (1.0 + eps)), Poly(den))

    def test_drift_with_empty_avoid(self):
        for reference, candidate in self._pairs():
            drift = _sampled_drift(reference, candidate, [])
            assert drift > 0.0
            assert drift == _scalar_sampled_drift(reference, candidate, [])

    def test_drift_when_avoid_rejects_early_candidates(self):
        for count in range(4):
            early = [complex(z) + 1e-3 for z in _drift_candidates()[:count]] + [0.5j, -1.0]
            for reference, candidate in self._pairs():
                avoid = early + [rc.value for rc in poly_roots(reference.num) + poly_roots(reference.den)]
                drift = _sampled_drift(reference, candidate, avoid)
                assert drift > 0.0
                assert _bits(drift).tolist() == _bits(_scalar_sampled_drift(reference, candidate, avoid)).tolist()

    def test_drift_with_fewer_than_32_clear_candidates(self, monkeypatch):
        import royalgamma.polyrat

        # 20 candidates, the first few of them avoided: the check uses the ones that remain
        short = _drift_candidates()[:20]
        monkeypatch.setattr(royalgamma.polyrat, "_drift_candidates", lambda: short)
        rng = np.random.default_rng(98)
        for i in range(6):
            f = RationalFn(Poly(_random_coeffs(rng, 3)), Poly([0.0, 1.0, 0.5]))
            g = RationalFn(f.num * (1.0 + 1e-9), f.den)
            avoid = [0.0, -2.0] + [complex(z) for z in short[:i]]
            kept = [complex(z) for z in short if all(abs(complex(z) - a) >= 5e-2 for a in avoid)]
            assert len(kept) <= 20 - i
            expected = 0.0
            for z in kept:
                ref = f(z)
                expected = max(expected, abs(ref - g(z)) / max(1.0, abs(ref)))
            drift = _sampled_drift(f, g, avoid)
            assert drift > 0.0
            assert _bits(drift).tolist() == _bits(expected).tolist()

    def test_drift_raises_on_a_zero_denominator_and_max_skips_nan(self):
        # a denominator that underflows to 0 at the sample points, and a quotient that overflows
        underflow = RationalFn(Poly([1.0, 1.0]), Poly([0.0, 0.0, 5e-324]))
        with pytest.raises(ZeroDivisionError, match="complex division by zero"):
            _sampled_drift(underflow, underflow, [])
        overflow = RationalFn(Poly([1e300, 1e300]), Poly([1e-20, 1e-30]))
        candidate = RationalFn(overflow.num * 1.5, overflow.den)
        # Python's max passes over the NaN of inf / inf
        assert _sampled_drift(overflow, candidate, []) == _scalar_sampled_drift(overflow, candidate, []) == 0.0

    def test_drift_of_a_faithful_reduction(self):
        f = RationalFn(Poly.from_roots([0.2, 0.7j, -1.1]), Poly.from_roots([0.2, -0.5]))
        g = rat_reduce(f)
        avoid = [0.2, 0.7j, -1.1, -0.5]
        assert _sampled_drift(f, g, avoid) == _scalar_sampled_drift(f, g, avoid)

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


def _sequential_drift(reference, candidate, avoid):
    candidates = _drift_candidates()
    avoid = np.asarray(avoid, dtype=complex)
    kept = []
    for start in range(0, candidates.size, 64):
        block = candidates[start:start + 64]
        gap = block[:, None] - avoid[None, :]
        kept += block[~np.any(np.hypot(gap.real, gap.imag) < 5e-2, axis=1)].tolist()
        if len(kept) >= 32:
            break
    z = np.array(kept[:32], dtype=complex)
    values = [_sequential_horner(q.coeffs, z).tolist() for q in (reference.num, reference.den, candidate.num, candidate.den)]
    worst = 0.0
    for rn, rd, cn, cd in zip(*values):
        ref = rn / rd
        worst = max(worst, abs(ref - cn / cd) / max(1.0, abs(ref)))
    return worst


def _sequential_rat_reduce(f):
    """rat_reduce as it was before the batch kernel: one function, one drift check per pairing."""
    if f.num.is_zero:
        return RationalFn(Poly([]), Poly([1.0]))
    den_scale = float(np.max(np.abs(f.den.coeffs)))
    f = RationalFn(Poly(f.num.coeffs / den_scale), Poly(f.den.coeffs / den_scale))
    num_clusters = _sequential_poly_roots(f.num) if f.num.degree >= 1 else []
    den_clusters = _sequential_poly_roots(f.den) if f.den.degree >= 1 else []
    avoid = [rc.value for rc in num_clusters] + [rc.value for rc in den_clusters]
    worst = None
    for pair_tol in (ROOT_CLUSTER_TOL, ROOT_CLUSTER_TOL * 1e-2, ROOT_CLUSTER_TOL * 1e-4, 1e-300):
        den_roots, (num_roots,), cancelled = _pair_roots(den_clusters, [num_clusters], pair_tol)
        if cancelled:
            lead_ratio = f.num.leading / f.den.leading
            out = RationalFn(Poly.from_roots(num_roots, leading=lead_ratio), Poly.from_roots(den_roots, leading=1.0))
        else:
            out = f.normalized()
        drift = _sequential_drift(f, out, avoid)
        if drift <= RESIDUAL_TOL:
            return out
        worst = drift if worst is None else min(worst, drift)
    return NumericalFailure(f"no faithful cancellation found; best sampled drift {worst:.3e}")


def _cluster_bits(clusters):
    return ([rc.multiplicity for rc in clusters], _bits([rc.value for rc in clusters]).tolist(),
            np.array([rc.residual for rc in clusters]).view(np.uint64).tolist())


def _same_function(ours, ref):
    if isinstance(ref, NumericalFailure):
        return isinstance(ours, NumericalFailure) and str(ours) == str(ref)
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
            den_roots, num_roots, cancelled = _pair_roots(den_clusters, num_clusters, ROOT_CLUSTER_TOL)
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


class TestBatchKernelsAreBitIdentical:
    """poly_roots_many and rat_reduce give exactly what the one-at-a-time kernels gave."""

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

    def _cases(self):
        a = 0.3 + 0.4j
        back_off = RationalFn(Poly.from_roots([a + 5e-8, 0.7j]), Poly.from_roots([a, -0.5]))
        common = RationalFn(Poly.from_roots([a, 0.7j], leading=3.0), Poly.from_roots([a, -0.5], leading=0.5j))
        zero = RationalFn(Poly([]), Poly([2.0, 1.0]))
        rng = np.random.default_rng(91)
        plain = [RationalFn(Poly(_random_coeffs(rng, n)), Poly(_random_coeffs(rng, n + d))) for n in (1, 3, 5) for d in (0, 2)]
        return {"back_off": back_off, "common": common, "zero": zero, "plain": plain}

    @pytest.mark.parametrize("case", ["back_off", "common", "zero"])
    def test_rat_reduce_matches_the_sequential_reduction(self, case):
        f = self._cases()[case]
        assert _same_function(rat_reduce(f), _sequential_rat_reduce(f))

    @pytest.mark.parametrize("seed", [95, 96, 97])
    def test_rat_reduce_matches_the_sequential_reduction_on_random_functions(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(32):
            n = int(rng.integers(1, 6))
            f = RationalFn(Poly(_random_coeffs(rng, n)), Poly(_random_coeffs(rng, n + int(rng.integers(0, 3)))))
            assert _same_function(rat_reduce(f), _sequential_rat_reduce(f))

    def test_a_failing_function_fails_alone(self, monkeypatch):
        import royalgamma.polyrat

        original = royalgamma.polyrat._sampled_drift

        def drifting(reference, candidate, avoid):
            # every pairing of a cubic numerator disagrees with its input
            return 1.0 if reference.num.degree == 3 else original(reference, candidate, avoid)

        rng = np.random.default_rng(92)
        # the cubic has a genuine common root, so its reduction cancels and checks the drift
        common = Poly.from_roots([0.3 - 0.2j])
        cubic = RationalFn(Poly(_random_coeffs(rng, 3)) * common, Poly(_random_coeffs(rng, 2)) * common)
        quartic = RationalFn(Poly(_random_coeffs(rng, 5)), Poly(_random_coeffs(rng, 3)))
        assert rat_reduce(cubic).den.degree == 1
        monkeypatch.setattr(royalgamma.polyrat, "_sampled_drift", drifting)
        with pytest.raises(NumericalFailure, match=r"no faithful cancellation found; best sampled drift 1\.000e\+00"):
            rat_reduce(cubic)
        assert _same_function(rat_reduce(quartic), _sequential_rat_reduce(quartic))

    def test_nothing_to_pair_skips_the_drift_check(self, monkeypatch):
        import royalgamma.polyrat

        def forbidden(reference, candidate, avoid):
            raise AssertionError("drift checked although nothing cancels")

        functions = self._cases()["plain"]
        monkeypatch.setattr(royalgamma.polyrat, "_sampled_drift", forbidden)
        for f in functions:
            reduced = rat_reduce(f)
            assert (reduced.num.degree, reduced.den.degree) == (f.num.degree, f.den.degree)
            assert _same_function(reduced, _sequential_rat_reduce(f))


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
    from conftest import blaschke_rational, superficial_map

    from royalgamma.gamma import compose_phi_omega

    maps = [generate_h_nu(0, 0.5), generate_h_nu(2, 0.35),
            superficial_map(blaschke_rational([0.3j, -0.2, 0.5 + 0.1j], 1j), 0.4 - 0.3j)]
    omegas = [*np.exp(1j * (np.pi * (2.0 * np.arange(8) + 1.0) / 8.0 + 0.0137 * 5)), 1.0, -1j, 2.5 - 0.5j]
    for h in maps:
        for omega in omegas:
            composed = RationalFn(2.0 * complex(omega) * h.p.num - h.s.num, 2.0 * h.den - complex(omega) * h.s.num)
            assert _same_function(compose_phi_omega(omega, h), _sequential_rat_reduce(composed))


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
def test_rat_reduce_idempotent(num, den):
    from hypothesis import assume

    from royalgamma.errors import NumericalFailure

    den_poly = Poly(den)
    assume(not den_poly.is_zero)
    f = RationalFn(Poly(num), den_poly)
    try:
        once = rat_reduce(f)
    except NumericalFailure:
        assume(False)
    twice = rat_reduce(once)
    # agreement is relative to the coefficient scale, as in the trim rule
    scale = max(1.0, *(np.max(np.abs(p.coeffs)) for p in (once.num, once.den) if not p.is_zero))
    assert poly_allclose(once.num, twice.num, atol=1e-9 * scale)
    assert poly_allclose(once.den, twice.den, atol=1e-9 * scale)


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
