import cmath
import dataclasses
import functools
import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    ARRAY_QUOTIENT_ERROR,
    PRODUCT_ERROR,
    QUOTIENT_ERROR,
    RationalComplex,
    SUM_ERROR,
    UNIT_ROUNDOFF,
    ExactComplex,
    blaschke_rational,
    boundary_example_data,
    boundary_example_target,
    exact_errors,
    exact_horner,
    exact_phasar,
    fd_phasar,
    gate_points,
    interior_example_data,
    modulus,
    poly_allclose,
    random_solvable_instances,
    to_decimal,
)

from royalgamma import generate_h_nu
from royalgamma.blaschke import (
    build_parametrization,
    circle_grid,
    disc_grid,
    phasar_derivative,
    solve_blaschke,
    to_blaschke_product,
)
from royalgamma.blaschke import (
    BlaschkeProduct,
    _check_c_dominated_by_d,
    _check_no_common_zero,
    _disc_points,
    _factored_form_points,
    _partial_products,
    _power_table,
    _read_only_grid,
    _table_values,
)
from royalgamma.errors import ExceptionalZeta, InvalidData, NotInner, NumericalFailure, ZeroOrPoleAtPoint
from royalgamma.polyrat import RESIDUAL_TOL, TRIM_TOL, _horner_at
from royalgamma.gamma import extract_royal_data
from royalgamma.pick import BlaschkeData, build_pick_matrix, choose_tau, kernel_solves, tau_candidate
from royalgamma.polyrat import Poly, RationalFn, joint_reduce, poly_eval, poly_roots


def build_for(data, tau=None):
    m = build_pick_matrix(data)
    if tau is None:
        tau = choose_tau(m, data)
    return build_parametrization(m, data, tau)


def _one_at_a_time_phasar(f, z):
    """phasar_derivative as it was before the batch, four evaluations at one point, each by the point
    path's Python Horner rule on a polynomial's coefficient list."""
    z = complex(z)
    nz, dz, dnz, ddz = (_horner_at(q.coeffs.tolist(), z) for q in (f.num, f.den, f.num.derivative(), f.den.derivative()))
    scale_n = max(1.0, float(np.max(np.abs(f.num.coeffs))) if not f.num.is_zero else 1.0)
    scale_d = max(1.0, float(np.max(np.abs(f.den.coeffs))))
    if abs(nz) <= TRIM_TOL * scale_n * 1e3:
        raise ZeroOrPoleAtPoint(f"function vanishes at {z}")
    if abs(dz) <= TRIM_TOL * scale_d * 1e3:
        raise ZeroOrPoleAtPoint(f"function has a pole at {z}")
    w = z * (dnz / nz - ddz / dz)
    return w.real


def _phasar_error(f, z, value):
    """How far ``value``, phasar_derivative(f, z), lies from the exact Re w, w = z (N'/N - D'/D) with
    N, N', D and D' the exact values at z of f's float numerator, denominator and their derivatives; and
    the bound on it, ``exact_phasar``'s with the quotients of Python complex arithmetic, within QUOTIENT_ERROR."""
    real, _, bound = exact_phasar(f.num.coeffs.tolist(), f.den.coeffs.tolist(), z, QUOTIENT_ERROR)
    return float(abs(Fraction(value) - real)), bound


class TestPhasarDerivativesAreBitIdentical:
    def _fns(self):
        rng = np.random.default_rng(95)
        fns = [RationalFn(Poly(rng.normal(size=n) + 1j * rng.normal(size=n)), Poly(rng.normal(size=d) + 1j * rng.normal(size=d)))
               for n, d in ((1, 1), (2, 5), (5, 2), (4, 4), (9, 9), (13, 7))]
        return fns + [blaschke_rational([0.5, 0.3j, -0.2 + 0.1j]), generate_h_nu(3, 0.4).p]

    def test_values_match_one_at_a_time(self):
        points = np.exp(1j * np.array([0.0, 0.7, 2.0, np.pi, -1.3]))
        for f in self._fns():
            for z in points:
                value, ref = phasar_derivative(f, z), _one_at_a_time_phasar(f, z)
                assert type(value) is float
                assert np.array(value).view(np.uint64) == np.array(ref).view(np.uint64)
                error, bound = _phasar_error(f, z, value)
                assert error <= bound

    def test_a_zero_or_a_pole_raises(self):
        zero_at_half = blaschke_rational([0.5])
        with pytest.raises(ZeroOrPoleAtPoint, match=r"vanishes at \(0.5\+0j\)"):
            phasar_derivative(zero_at_half, 0.5)
        with pytest.raises(ZeroOrPoleAtPoint, match=r"pole at \(2\+0j\)"):
            phasar_derivative(zero_at_half, 2.0)


class TestPhasarDerivative:
    def test_identity_function(self):
        f = RationalFn(Poly([0.0, 1.0]), Poly([1.0]))
        for z in [1.0, 1j, np.exp(0.3j)]:
            assert float(phasar_derivative(f, z)) == pytest.approx(1.0)

    def test_single_factor_at_one(self):
        # rate of change of the argument of (z - 1/2)/(1 - z/2) at z = 1:
        # (1 - |1/2|^2)/|1 - 1/2|^2 = 3
        f = blaschke_rational([0.5])
        assert float(phasar_derivative(f, 1.0)) == pytest.approx(3.0)

    def test_generator_p_component(self):
        h = generate_h_nu(0, 0.5)
        val = phasar_derivative(h.p, -1.0)
        assert float(val) == pytest.approx(4.0)
        assert float(val) == pytest.approx(fd_phasar(h.p, -1.0), abs=1e-5)

    def test_zero_or_pole_rejected(self):
        f = blaschke_rational([0.5])
        with pytest.raises(ZeroOrPoleAtPoint):
            phasar_derivative(f, 0.5)
        with pytest.raises(ZeroOrPoleAtPoint):
            phasar_derivative(f, 2.0)


class TestBuildParametrization:
    def test_interior_closed_form_any_tau(self):
        data = interior_example_data()
        eta = 0.5
        for tau in [1.0 + 0j, np.exp(1.9j)]:
            param = build_for(data, tau)
            tb = np.conj(tau)
            denom = 1 - eta**2
            assert poly_allclose(param.a, Poly([-(eta**2) / denom, tb / denom]), atol=1e-12)
            assert poly_allclose(param.b, Poly([eta / denom, -eta * tb / denom]), atol=1e-12)
            assert poly_allclose(param.c, Poly([-eta / denom, eta * tb / denom]), atol=1e-12)
            assert poly_allclose(param.d, Poly([1 / denom, -(eta**2) * tb / denom]), atol=1e-12)

    def test_tau_is_the_chosen_base_point_bit_for_bit(self):
        data = interior_example_data()
        m = build_pick_matrix(data)
        tau = tau_candidate(16)
        assert build_parametrization(m, data, tau).tau == tau

    def test_interior_closed_form_tau_one(self):
        param = build_for(interior_example_data(), 1.0)
        scale = 0.75
        assert poly_allclose(param.a, Poly([-0.25 / scale, 1.0 / scale]), atol=1e-12)
        assert poly_allclose(param.b, Poly([0.5 / scale, -0.5 / scale]), atol=1e-12)
        assert poly_allclose(param.c, Poly([-0.5 / scale, 0.5 / scale]), atol=1e-12)
        assert poly_allclose(param.d, Poly([1.0 / scale, -0.25 / scale]), atol=1e-12)

    def test_boundary_closed_form(self):
        data = boundary_example_data()
        param = build_for(data)
        tau = param.tau
        eta, rho = 1j, 1.0
        tb = np.conj(tau)
        sq = rho * abs(1 - tau) ** 2
        a_cf = Poly([1 / (1 - tau) - 1 / sq, -1 / (1 - tau) + tb / sq])
        b_cf = Poly([eta / sq, -eta * tb / sq])
        c_cf = Poly([-np.conj(eta) / sq, np.conj(eta) * tb / sq])
        d_cf = Poly([1 / sq + 1 / (1 - tau), -tb / sq - 1 / (1 - tau)])
        assert poly_allclose(param.a, a_cf, atol=1e-12)
        assert poly_allclose(param.b, b_cf, atol=1e-12)
        assert poly_allclose(param.c, c_cf, atol=1e-12)
        assert poly_allclose(param.d, d_cf, atol=1e-12)

    def test_normalization_at_tau(self, solvable_instances):
        for data, _ in solvable_instances[:20]:
            param = build_for(data)
            assert param.normalization_residual() <= 1e-9

    def test_c_bounded_by_d_on_disc(self, solvable_instances):
        grid = disc_grid(256)
        for data, _ in solvable_instances[:20]:
            param = build_for(data)
            excess = np.abs(poly_eval(param.c, grid)) - np.abs(poly_eval(param.d, grid))
            assert float(np.max(excess)) <= 1e-8

    def test_c_above_d_at_one_disc_grid_point_raises(self):
        # c = d (1 + e)(1 + conj(w) lambda) / 2 has |c| = |d| (1 + e) at the grid point w on the circle, and
        # at most (1 + e) cos(pi / 16) |d| or (1 + e)(1 + 14/15) / 2 |d| at every other grid point
        param = build_for(random_solvable_instances(seed=33, count=1, max_degree=4)[0][0])
        grid = disc_grid(256)
        w = complex(grid[-3])
        assert abs(abs(w) - 1.0) < 1e-15
        for e, raises in ((1e-4, True), (-1e-4, False)):
            c = param.d * Poly([(1 + e) / 2, (1 + e) * w.conjugate() / 2])
            excess = np.abs(poly_eval(c, grid)) - np.abs(poly_eval(param.d, grid))
            assert np.flatnonzero(excess > RESIDUAL_TOL).tolist() == ([grid.size - 3] if raises else [])
            changed = dataclasses.replace(param, c=c)
            if raises:
                with pytest.raises(NumericalFailure, match="exceeds"):
                    _check_c_dominated_by_d(changed)
            else:
                _check_c_dominated_by_d(changed)

    def test_max_degree_is_n(self, solvable_instances):
        for data, _ in solvable_instances[:20]:
            param = build_for(data)
            assert param.degree == data.n


class TestSolveBlaschke:
    def test_zero_target_gives_rotation(self):
        data = BlaschkeData(sigma=(0j,), eta=(0j,), rho=(), k=0)
        param = build_for(data, 1.0)
        for zeta in [1.0, 1j, np.exp(0.77j)]:
            phi = solve_blaschke(param, zeta)
            assert phi.den.degree == 0
            assert poly_allclose(phi.num, Poly([0.0, zeta]), atol=1e-12)

    def test_interpolation_anchors(self):
        param = build_for(interior_example_data(), 1.0)
        phi = solve_blaschke(param, 1.0)
        assert phi(1.0) == pytest.approx(1.0)
        assert phi(0.0) == pytest.approx(0.5)

    def test_boundary_phasar_condition(self):
        data = boundary_example_data()
        param = build_for(data)
        phi = solve_blaschke(param, np.exp(0.9j))
        assert fd_phasar(phi, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_exceptional_zeta_rejected(self):
        data = boundary_example_data()
        param = build_for(data)
        assert any(abs(z - 1j) < 1e-9 for z in param.exceptional.points)
        with pytest.raises(ExceptionalZeta):
            solve_blaschke(param, 1j)

    @pytest.mark.parametrize("zeta", [complex(np.nan, 0.0), complex(1.0, np.nan)])
    def test_a_nan_parameter_is_invalid(self, zeta):
        param = build_for(interior_example_data(), 1.0)
        with pytest.raises(InvalidData, match="unimodular"):
            solve_blaschke(param, zeta)

    @pytest.mark.parametrize("nu, r, index", [(9, 0.2, 39), (7, 0.8, 44)])
    def test_a_near_exceptional_parameter_keeps_its_degree(self, nu, r, index):
        # a numerator root passes within ROOT_CLUSTER_TOL of a denominator root here;
        # cancelling the pair would drop a degree and miss the nodes by 1.9e-4 and 3.2e-4
        data = extract_royal_data(generate_h_nu(nu, r))
        phi = solve_blaschke(build_for(data), circle_grid(64)[index])
        assert phi.degree == data.n
        assert max(abs(phi(s) - e) for s, e in zip(data.sigma, data.eta)) <= RESIDUAL_TOL

    def test_family_properties(self, solvable_instances):
        for data, _ in solvable_instances[:12]:
            param = build_for(data)
            for zeta in circle_grid(16):
                zeta = complex(zeta)
                try:
                    phi = solve_blaschke(param, zeta)
                except ExceptionalZeta:
                    continue
                assert abs(phi(param.tau) - zeta) <= 1e-8
                for j in range(data.n):
                    assert abs(phi(data.sigma[j]) - data.eta[j]) <= 1e-7
                for j in range(data.k):
                    assert abs(float(phasar_derivative(phi, data.sigma[j])) - data.rho[j]) <= 1e-7
                assert phi.num.degree == data.n
                ring = circle_grid(256)
                assert float(np.max(np.abs(np.abs(phi(ring)) - 1.0))) <= 1e-9

    def test_solution_is_unique_for_fixed_zeta(self):
        data = boundary_example_data()
        param = build_for(data)
        zeta = np.exp(1.234j)
        p1 = solve_blaschke(param, zeta)
        p2 = solve_blaschke(param, zeta)
        assert poly_allclose(p1.num, p2.num, atol=0.0)
        assert poly_allclose(p1.den, p2.den, atol=0.0)

    def test_uniqueness_across_base_points(self):
        # a solution built from one base point, pinned at a second base point,
        # must be reproduced by the second parametrization
        data = extract_royal_data(generate_h_nu(0, 0.5))
        m = build_pick_matrix(data)
        tau1 = choose_tau(m, data)
        tau2 = tau_candidate(7)
        assert abs(tau1 - tau2) > 1e-6
        param1 = build_parametrization(m, data, tau1)
        param2 = build_parametrization(m, data, tau2)
        phi1 = solve_blaschke(param1, np.exp(0.31j))
        phi2 = solve_blaschke(param2, phi1(tau2))
        assert poly_allclose(phi1.num, phi2.num, atol=1e-9)
        assert poly_allclose(phi1.den, phi2.den, atol=1e-9)


class TestToBlaschkeProduct:
    def test_identity(self):
        f = RationalFn(Poly([0.0, 1.0]), Poly([1.0]))
        product = to_blaschke_product(f)
        assert product.unimodular_constant == pytest.approx(1.0)
        assert product.zeros == (0.0,)

    def test_single_factor_with_sign(self):
        f = blaschke_rational([0.25], constant=-1.0)
        product = to_blaschke_product(f)
        assert product.unimodular_constant == pytest.approx(-1.0)
        assert abs(product.zeros[0] - 0.25) <= 1e-12

    def test_boundary_example_p_component(self):
        # for the one-boundary-node closed form, the second component is a
        # degree-1 product with zero (2 rho - conj(kappa))/(1 + 2 rho)
        eta, rho = 1j, 1.0
        for kappa in [1.0 + 0j, np.exp(2.1j)]:
            h = boundary_example_target(eta, rho, kappa)
            product = to_blaschke_product(h.p)
            alpha = (2 * rho - np.conj(kappa)) / (1 + 2 * rho)
            assert abs(product.zeros[0] - alpha) <= 1e-10
            assert abs(product.unimodular_constant - eta**2 * kappa) <= 1e-10

    def test_roundtrip_evaluation(self):
        f = blaschke_rational([0.3 + 0.2j, -0.4j], constant=np.exp(0.9j))
        product = to_blaschke_product(f)
        pts = 0.8 * circle_grid(17)
        np.testing.assert_allclose(product(pts), f(pts), atol=1e-10)

    def test_zeros_next_to_every_fixed_anchor(self):
        # each of 1, i, -1, -i and exp(0.7i) lies within 1e-3 of a zero: the constant is read on the grid
        constant = np.exp(0.3j)
        f = blaschke_rational([0.9995 * z for z in (1.0, 1j, -1.0, -1j, np.exp(0.7j))], constant=constant)
        product = to_blaschke_product(f)
        assert abs(product.unimodular_constant - constant) <= 1e-10
        pts = 0.8 * circle_grid(17)
        np.testing.assert_allclose(product(pts), f(pts), atol=1e-10)

    def test_a_nan_coefficient_is_not_inner(self):
        with pytest.raises(NotInner, match="not unimodular"):
            to_blaschke_product(RationalFn(Poly([complex(np.nan, 0.0), 1.0]), Poly([1.0])))

    def test_not_inner_rejected(self):
        with pytest.raises(NotInner):
            to_blaschke_product(RationalFn(Poly([0.0, 2.0]), Poly([1.0])))

    def test_a_common_factor_is_not_a_zero(self):
        # the input must be reduced: a shared root inside the disc would be a spurious zero
        f = blaschke_rational([0.3 + 0.2j, -0.4j], constant=np.exp(0.9j))
        factor = Poly.from_roots([0.5j])
        with pytest.raises(NotInner, match="factored form disagrees"):
            to_blaschke_product(RationalFn(f.num * factor, f.den * factor))


def _bits(values):
    """The exact bit patterns of complex values: equal iff identical, signed zeros included."""
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64)


def _sequential_product(constant, zeros, z):
    """BlaschkeProduct.__call__ as it was: each factor formed and multiplied in on its own."""
    z = np.asarray(z, dtype=complex)
    out = np.full_like(z, constant)
    for a in zeros:
        out = out * (z - a) / (1.0 - np.conj(a) * z)
    if z.ndim == 0:
        return complex(out)
    return out


def _three_pass_factored_form(f):
    """to_blaschke_product as it was: the input evaluated on the grid, at the anchor and at
    the check points in three passes, each as poly_eval(num, z) / poly_eval(den, z).
    Returns (constant, zeros)."""
    def at(z):
        return poly_eval(f.num, z) / poly_eval(f.den, z)

    grid = circle_grid(256)
    worst = float(np.max(np.abs(np.abs(at(grid)) - 1.0)))
    if not worst <= RESIDUAL_TOL:
        raise NotInner(f"not unimodular on the circle: off by {worst:.3e}")
    zeros = []
    if f.num.degree >= 1:
        for rc in poly_roots(f.num):
            if abs(rc.value) >= 1.0:
                raise NotInner(f"numerator zero {rc.value} is not inside the open disc")
            zeros.extend([rc.value] * rc.multiplicity)
    candidates = itertools.chain([1.0 + 0j, 1j, -1.0 + 0j, -1j, np.exp(0.7j)], grid)
    anchor = next((complex(z) for z in candidates if all(abs(z - a) > 1e-3 for a in zeros)), complex("nan"))
    constant = complex(at(anchor) / _sequential_product(1.0 + 0j, zeros, anchor))
    if not abs(abs(constant) - 1.0) <= RESIDUAL_TOL:
        raise NotInner(f"recovered constant has modulus {abs(constant):.12g}")
    constant = constant / abs(constant)
    rng = np.random.default_rng(41205)
    pts = rng.uniform(0.0, 1.0, 64) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 64))
    drift = float(np.max(np.abs(at(pts) - _sequential_product(constant, zeros, pts))))
    if not drift <= RESIDUAL_TOL * 10:
        raise NotInner(f"factored form disagrees with the input by {drift:.3e}")
    return constant, zeros


def _exact_product(constant, zeros, z, quotient_error=QUOTIENT_ERROR):
    """The exact c prod (z - a) and prod (1 - conj(a) z) of the float ``constant`` and ``zeros`` at z, and a
    bound on the relative error of BlaschkeProduct's value at z, its quotients rounded within ``quotient_error``.

    At one point the product is c times, zero by zero, (z - a) / (1 - conj(a) z) in Python complex
    arithmetic: z - a rounds within u, conj(a) z within PRODUCT_ERROR, so 1 - conj(a) z is within
    b = (1 + k PRODUCT_ERROR)(1 + u) - 1 of itself, relatively, with k = |a z| / |1 - conj(a) z|; the running
    product rounds within PRODUCT_ERROR and the quotient within QUOTIENT_ERROR.  Each zero so moves the
    value by a factor within (1 + u)(1 + PRODUCT_ERROR)(1 + QUOTIENT_ERROR) / (1 - b) of the exact one,
    and the product of those factors, less one, bounds the relative error.

    On an array each ratio (z - a) / (1 - conj(a) z) is rounded first, by numpy: z - a within u, 1 - conj(a) z
    within b, and their quotient within ARRAY_QUOTIENT_ERROR; the running product from c then rounds within
    PRODUCT_ERROR per zero.  Each zero meets the same roundings as at one point, with numpy's quotient for
    CPython's, so the bound is the same product of factors with ARRAY_QUOTIENT_ERROR for QUOTIENT_ERROR."""
    z = complex(z)
    point = ExactComplex.of(z)
    above, below, growth = ExactComplex.of(constant), ExactComplex.of(1.0), 0.0
    for a in map(complex, zeros):
        above = above * (point - a)
        below = below * (1.0 - ExactComplex.of(a).conj() * point)
        k = abs(a * z) / abs(1.0 - a.conjugate() * z)
        b = k * PRODUCT_ERROR + SUM_ERROR + k * PRODUCT_ERROR * SUM_ERROR
        growth += math.log1p(SUM_ERROR) + math.log1p(PRODUCT_ERROR) + math.log1p(quotient_error) - math.log1p(-b)
    return above, below, math.expm1(growth)


def _product_error(product, z, value=None):
    """|product(z) - B(z)| and its bound, B the exact product of the float constant and zeros; given the
    ``value`` the product took at z within an array, with the bound of the array order."""
    quotient_error = QUOTIENT_ERROR if value is None else ARRAY_QUOTIENT_ERROR
    above, below, relative = _exact_product(product.unimodular_constant, product.zeros, z, quotient_error)
    value = product(z) if value is None else value
    size = modulus(below)
    return modulus(ExactComplex.of(value) * below - above) / size, modulus(above) / size * relative


def _constant_error(f, product):
    """|c - c*| and its bound, c the unimodular constant to_blaschke_product found for ``f`` with the
    zeros of ``product``, and c* the exact direction of N / (D B) at the anchor z: N and D the exact values
    there of f's float numerator and denominator, and B the product of those zeros with constant 1.

    The table product gives n and d within b_N and b_D of N and D (``_table_bound``), so n / d is within
    e = (b_N / |N| + b_D / |D|) / (1 - b_D / |D|) of N / D, relatively, and dividing them rounds within
    QUOTIENT_ERROR: v = n / d is within t_v = (1 + e)(1 + QUOTIENT_ERROR) - 1 of N / D.  The value of the
    product at z is within t_B of B, relatively (``_exact_product``), and dividing v by it rounds within
    QUOTIENT_ERROR: the quotient is within t = (1 + t_v)(1 + QUOTIENT_ERROR) / (1 - t_B) - 1 of N / (D B),
    relatively, and its direction within t / (1 - t) of c*.  Its modulus, a hypot, is within one ulp, 2 u,
    and dividing by it rounds each part once, which adds (1 + u) / (1 - 2 u) - 1."""
    points = _factored_form_points()
    i, z = next((i, z) for i, z in enumerate(map(complex, points[:261]))
                if all(abs(z - a) > 1e-3 for a in product.zeros))
    size = max(f.num.coeffs.size, f.den.coeffs.size)
    point, gaps, exact = ExactComplex.of(z), [], []
    for q in (f.num, f.den):
        value = exact_horner(q.coeffs.tolist(), point)[0]
        gaps.append(float(_table_bounds(q.coeffs.tolist(), [z], size)[0]) / modulus(value))
        exact.append(value)
    assert gaps[1] < 1
    e = (gaps[0] + gaps[1]) / (1 - gaps[1])
    above, below, relative = _exact_product(1.0, product.zeros, z)
    direction = exact[0] * below * (exact[1] * above).conj()
    norm = to_decimal(direction.abs2(), sqrt=True)
    c = product.unimodular_constant
    error = ((Decimal(c.real) - to_decimal(direction.real()) / norm) ** 2
             + (Decimal(c.imag) - to_decimal(direction.imag()) / norm) ** 2).sqrt()
    t = math.expm1(math.log1p(e) + 2 * math.log1p(QUOTIENT_ERROR) - math.log1p(-relative))
    return float(error), t / (1 - t) + math.expm1(math.log1p(SUM_ERROR) - math.log1p(-2 * SUM_ERROR))


def _factored_outcome(recover, f):
    """The bits of the constant and zeros ``recover`` finds for ``f``, or its NotInner message."""
    try:
        result = recover(f)
    except NotInner as exc:
        return str(exc)
    constant, zeros = (result.unimodular_constant, result.zeros) if isinstance(result, BlaschkeProduct) else result
    return _bits(constant).tolist(), _bits(list(zeros)).tolist()


def _interpolants(data, count=16):
    param = build_for(data)
    out = []
    for zeta in circle_grid(count):
        try:
            out.append(solve_blaschke(param, zeta))
        except ExceptionalZeta:
            pass
    return out


def _assert_same_factored_form(f):
    """to_blaschke_product against the three passes: the same verdict, the same message up to its last
    word, the whole message for the failures found before the constant is read off, and the zeros bit for
    bit; the constant, read off through the product's value at one point, within ``_constant_error``'s
    bound.  Returns the outcome."""
    ours, reference = _factored_outcome(to_blaschke_product, f), _factored_outcome(_three_pass_factored_form, f)
    assert isinstance(ours, str) == isinstance(reference, str)
    if isinstance(reference, str):
        assert ours.rsplit(" ", 1)[0] == reference.rsplit(" ", 1)[0]
        if not reference.startswith(("recovered constant", "factored form disagrees")):
            assert ours == reference
        return ours
    assert ours[1] == reference[1]
    error, bound = _constant_error(f, to_blaschke_product(f))
    assert error <= bound
    return ours


class TestFactoredFormIsBitIdentical:
    """The factored form, evaluated once over all its points, gives exactly the zeros the three passes
    gave.  The product at one point, in Python complex arithmetic, and on an array, as one running
    product of its ratios, goes through the exact-oracle gate instead, as does the constant read off
    through it."""

    def test_product_matches_the_sequential_loop(self):
        rng = np.random.default_rng(99)
        points = [0.3 - 0.7j, 1.0, np.complex128(np.exp(0.7j)), np.asarray(-1j), 0.8 * circle_grid(17),
                  rng.uniform(0.0, 1.0, (4, 6)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (4, 6)))]
        for degree in (0, 1, 2, 5, 8, 12):
            zeros = tuple(complex(z) for z in rng.uniform(0.0, 0.95, degree) * np.exp(2j * np.pi * rng.uniform(0, 1, degree)))
            product = BlaschkeProduct(complex(np.exp(2j * np.pi * rng.uniform())), zeros)
            for z in points:
                got = product(z)
                if np.ndim(z) == 0:
                    assert type(got) is complex
                    error, bound = _product_error(product, z)
                    assert error <= bound
                    continue
                reference = _sequential_product(product.unimodular_constant, zeros, z)
                assert type(got) is type(reference)
                assert np.shape(got) == np.shape(reference)
                for w, value in zip(np.ravel(z).tolist(), np.ravel(got).tolist()):
                    error, bound = _product_error(product, w, value)
                    assert error <= bound, (degree, w, error / bound)

    def test_zeros_are_the_root_values_by_multiplicity(self):
        functions = [phi for nu, r in ((0, 0.5), (4, 0.7), (10, 0.5))
                     for phi in _interpolants(extract_royal_data(generate_h_nu(nu, r)), 8)]
        functions += [blaschke_rational([0.3 + 0.2j, 0.3 + 0.2j, -0.4j, 0.0], constant=np.exp(0.9j))]
        for f in functions:
            product = to_blaschke_product(f)
            zeros = [rc.value for rc in poly_roots(f.num) for _ in range(rc.multiplicity)]
            assert _bits(list(product.zeros)).tolist() == _bits(zeros).tolist()

    def test_matches_the_three_pass_form_on_interpolants(self):
        functions = [phi for nu, r in ((0, 0.5), (1, 0.3), (4, 0.7))
                     for phi in _interpolants(extract_royal_data(generate_h_nu(nu, r)))]
        boundary = [data for data, _ in random_solvable_instances(seed=31, count=12, max_degree=6) if data.k]
        assert len(boundary) >= 3
        functions += [phi for data in boundary for phi in _interpolants(data, 8)]
        for f in functions:
            _assert_same_factored_form(f)

    def test_matches_the_three_pass_form_on_every_failure(self):
        near_anchors = blaschke_rational([0.9995 * z for z in (1.0, 1j, -1.0, -1j)])
        # unimodular at the 256 grid points, where z**256 = 1, but not at the fifth anchor exp(0.7i)
        off_grid = Poly(np.concatenate(([1.0 - 1e-6], np.zeros(255), [1e-6])))
        f = blaschke_rational([0.3 + 0.2j, -0.4j], constant=np.exp(0.9j))
        factor = Poly.from_roots([0.5j])
        cases = {
            "not unimodular": RationalFn(Poly([0.0, 2.0]), Poly([1.0])),
            "not unimodular on the circle: off by nan": RationalFn(Poly([complex(np.nan, 0.0), 1.0]), Poly([1.0])),
            "numerator zero": RationalFn(Poly([1.0, -0.5]), Poly([-0.5, 1.0])),
            "recovered constant": RationalFn(near_anchors.num, near_anchors.den * off_grid),
            "factored form disagrees": RationalFn(f.num * factor, f.den * factor),
        }
        for message, g in cases.items():
            outcome = _assert_same_factored_form(g)
            assert isinstance(outcome, str) and outcome.startswith(message)
        g = blaschke_rational([0.9995 * z for z in (1.0, 1j, -1.0, -1j, np.exp(0.7j))], constant=np.exp(0.3j))
        assert not isinstance(_assert_same_factored_form(g), str)


def _table_bounds(coeffs, zs, size) -> np.ndarray:
    """Bounds on the error of the values at the fixed points ``zs`` of the polynomial with the float ``coeffs``
    (ascending), as ``_table_values`` takes it: the row of ``size`` >= len(coeffs) coefficients, zero-padded,
    times the column of z's powers in the cached power table.

    Row j of the table is row j - 1 times z, so t_0 = 1 and t_1 = 1 z are exact, and each further power
    rounds one product, within PRODUCT_ERROR of the exact product of its operands: t_j is within
    r_j = (1 + PRODUCT_ERROR)^(j - 1) - 1 of z^j, relatively.  Each part of the matrix product's value is a
    sum of 2 size real products of floats, Re c_j Re t_j and -Im c_j Im t_j for the real part, summed in
    whatever order, blocking and fused multiply-adds the BLAS kernel uses, and scaled by alpha = 1 exactly:
    each term meets at most 2 size roundings, so the part is within gamma_(2 size) of the sum of the
    moduli of its terms (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 3.1),
    with gamma_k = k u / (1 - k u).  That sum is at most sum_j |c_j| |t_j| for each part, by
    Cauchy-Schwarz, so the value is within sqrt(2) gamma_(2 size) sum_j |c_j| |t_j| of sum_j c_j t_j.
    With |t_j| <= (1 + r_j) |z|^j the error is at most sum_j |c_j| |z|^j (r_j + sqrt(2) gamma_(2 size)
    (1 + r_j)), which is (2 sqrt(2) (j - 1) + 2 sqrt(2) size) u for the term of z^j to first order, against
    Horner's 3.83 n u for every term.  Evaluating the bound in floats moves it by a relative O(size u)."""
    gamma = 2 * size * UNIT_ROUNDOFF / (1 - 2 * size * UNIT_ROUNDOFF)
    r = np.expm1(np.maximum(np.arange(len(coeffs)) - 1, 0) * np.log1p(PRODUCT_ERROR))
    weights = np.abs(np.asarray(coeffs, dtype=complex)) * (r + np.sqrt(2) * gamma * (1 + r))
    return np.abs(np.asarray(zs))[:, None] ** np.arange(len(coeffs)) @ weights


class TestTableEvaluationMatchesAnExactOracle:
    """Two polynomials at a fixed point set, as one (2 x size) @ (size x points) product with the cached
    power table, against their exact values for the same float coefficients, within ``_table_bounds``:
    at the factored form's 325 points and the parametrization's 256-point disc grid.  The largest ratio
    of error to bound measured was 0.29 (0.37 under OpenBLAS's generic Prescott kernel), on the random
    coefficients; 0.17 on the interpolants."""

    @staticmethod
    def _assert_within_bounds(pairs) -> float:
        """Assert every value of each pair within its bound, at both point sets; return the largest ratio
        of error to bound."""
        worst = 0.0
        for points in (_factored_form_points, _disc_points):
            zs = points().tolist()
            for pair in pairs:
                size = max(q.coeffs.size for q in pair)
                for q, row in zip(pair, _table_values(pair, points).tolist()):
                    coeffs = q.coeffs.tolist()
                    errors, bounds = np.array(exact_errors(coeffs, zs, row)), _table_bounds(coeffs, zs, size)
                    assert np.all(errors <= bounds), (size, np.max(errors - bounds))
                    worst = max(worst, float(np.max(errors / np.maximum(bounds, np.finfo(float).tiny))))
        return worst

    def test_random_coefficients_of_degree_1_to_30(self):
        rng = np.random.default_rng(2401)
        pairs = []
        for n in range(1, 31):
            coeffs = [rng.normal(size=k) + 1j * rng.normal(size=k) for k in (n + 1, int(rng.integers(1, n + 2)))]
            pairs.append(tuple(map(Poly, coeffs)))
        self._assert_within_bounds(pairs)

    @pytest.mark.parametrize("nu", [0, 3, 7, 10, 14])
    def test_interpolants_of_h_nu(self, nu):
        phis = _interpolants(extract_royal_data(generate_h_nu(nu, 0.5)), 4)
        assert phis and max(phi.degree for phi in phis) == 2 * nu + 2
        self._assert_within_bounds([(phi.num, phi.den) for phi in phis])

    def test_the_integer_oracle_is_exact_horner(self):
        rng = np.random.default_rng(2403)
        zs = [0j, 1.0, complex(-0.0, -0.5), 1e-17 + 1j, 0.6 - 2e-300j] + _factored_form_points()[::40].tolist()
        for n in (0, 1, 7, 30):
            coeffs = (rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)).tolist()
            values = [complex(*pair) for pair in rng.normal(size=(len(zs), 2))]
            for z, value, error in zip(zs, values, exact_errors(coeffs, zs, values)):
                exact = modulus(ExactComplex.of(value) - exact_horner(coeffs, ExactComplex.of(z))[0])
                assert abs(error - exact) <= 4 * UNIT_ROUNDOFF * exact

    def test_values_do_not_depend_on_what_was_evaluated_before(self):
        rng = np.random.default_rng(2402)
        functions = [RationalFn(Poly(rng.normal(size=n) + 1j * rng.normal(size=n)), Poly(rng.normal(size=m)))
                     for n, m in ((3, 3), (9, 2), (1, 14), (31, 20), (6, 6))]
        functions += _interpolants(extract_royal_data(generate_h_nu(4, 0.5)), 2)
        for points in (_factored_form_points, _disc_points):
            for f in functions:
                _power_table.cache_clear()
                alone = _bits(_table_values((f.num, f.den), points))
                for other in functions:
                    _table_values((other.num, other.den), points)
                assert np.array_equal(_bits(_table_values((f.num, f.den), points)), alone)
        for f in functions[-2:]:
            _power_table.cache_clear()
            alone = _factored_outcome(to_blaschke_product, f)
            for other in functions:
                _table_values((other.num, other.den), _factored_form_points)
            assert _factored_outcome(to_blaschke_product, f) == alone


class TestPointEvaluationMatchesAnExactOracle:
    """A Blaschke product and a phasar derivative at one point, in Python complex arithmetic,
    against the exact values for the same float inputs, within the bounds ``_exact_product`` and
    ``_phasar_error`` derive from the complex Horner error bound 4 n u sum_j |c_j| |z|^j."""

    def test_products_up_to_degree_30(self):
        rng = np.random.default_rng(2102)
        points = gate_points(rng)  # every zero is within 0.95 of 0, so no pole is within 1.05
        for degree in range(31):
            zeros = rng.uniform(0.0, 0.95, degree) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, degree))
            product = BlaschkeProduct(complex(np.exp(2j * np.pi * rng.uniform())), tuple(zeros.tolist()))
            for z in points:
                error, bound = _product_error(product, z)
                assert error <= bound, (degree, z, error / bound)

    @pytest.mark.parametrize("nu", [0, 3, 7, 14])
    def test_phasar_derivatives_at_boundary_nodes(self, nu):
        # as extract_royal_data takes them of h_nu's p, and as the scalar residuals take them of each interpolant
        h = generate_h_nu(nu, 0.5)
        data = extract_royal_data(h)
        for f in [h.p] + _interpolants(data, 8):
            for z in data.sigma[: data.k]:
                error, bound = _phasar_error(f, z, phasar_derivative(f, z))
                assert error <= bound, (z, error / bound)

    def test_phasar_derivatives_of_boundary_interpolants(self):
        boundary = [data for data, _ in random_solvable_instances(seed=31, count=12, max_degree=6) if data.k]
        for data in boundary:
            for f in _interpolants(data, 8):
                for z in data.sigma[: data.k]:
                    error, bound = _phasar_error(f, z, phasar_derivative(f, z))
                    assert error <= bound, (z, error / bound)

    def test_a_point_value_is_a_python_complex(self):
        product = BlaschkeProduct(np.exp(0.4j), (0.3 + 0.2j, np.complex128(-0.5j)))
        for z in (0.3 - 0.7j, 0.5, 2, np.complex128(1j), np.float64(0.25), np.asarray(np.exp(0.7j)), np.asarray(-1)):
            assert type(product(z)) is complex

    def test_a_nan_zero_or_constant_propagates(self):
        for product in (BlaschkeProduct(1.0 + 0j, (0.3, complex(np.nan, 0.1))), BlaschkeProduct(complex(np.nan, 1.0), (0.3,))):
            for z in (0j, 0.5, np.exp(0.7j), np.asarray(1.02j)):
                assert cmath.isnan(product(z))


def _poly_expression(param, zeta):
    """solve_blaschke's quotient in Poly arithmetic, as it was built before."""
    zeta = complex(zeta)
    zeta = zeta / abs(zeta)
    num = zeta * param.a + param.b
    den = zeta * param.c + param.d
    return RationalFn(num / den.leading, den / den.leading)


def test_solve_blaschke_matches_the_poly_expression():
    params = [build_for(data) for data, _ in random_solvable_instances(seed=32, count=6, max_degree=5)]
    base = build_for(interior_example_data(), 1.0)
    # signed zeros inside the coefficients and beyond the shorter polynomial of a sum
    params += [dataclasses.replace(base, a=Poly([1.0, -0.0, complex(-0.0, 0.0), 2.0]),
                                   b=Poly([0.5, complex(0.0, -0.0), -0.0, complex(-0.0, -0.0), complex(-0.0, -0.0), 1.0]),
                                   c=Poly([-0.0, 0.25]), d=Poly([2.0, -0.0, complex(-0.0, -0.0), 1.0]))]
    # a top coefficient one ulp above the trim threshold, which a zeta * a trims away
    band = circle_grid(64)[40]
    params += [dataclasses.replace(base, a=Poly([1.0, 0.5, TRIM_TOL * (1 + 2**-52)]), b=Poly([0.2, 0.1j, 0.7, 0.3]),
                                   c=Poly([0.1, 0.2j, TRIM_TOL * (1 + 2**-52)]), d=Poly([2.0, 0.3]))]
    assert (params[-1].a * band).degree == 1
    for param in params:
        for zeta in [1.0, -1.0, 1j, -1j, np.exp(0.3j), band, *circle_grid(8)[1::2]]:
            try:
                got = solve_blaschke(param, zeta)
            except ExceptionalZeta:
                continue
            reference = _poly_expression(param, zeta)
            for ours, ref in ((got.num, reference.num), (got.den, reference.den)):
                assert ours.coeffs.size == ref.coeffs.size
                assert np.array_equal(_bits(ours.coeffs), _bits(ref.coeffs))


def _shared(param, point, names="abcd"):
    """``param`` with the factor (lambda - point) multiplied into the polynomials ``names``."""
    factor = Poly([-complex(point), 1.0])
    return dataclasses.replace(param, **{name: getattr(param, name) * factor for name in names})


def _joint_reduction_raises(param):
    """The check as it was: whether the joint reduction cancels a zero of a that b, c and d share."""
    _, den = joint_reduce((param.b, param.c, param.d), param.a)
    return den is not param.a


def _check_raises(param, data):
    try:
        _check_no_common_zero(param, data)
    except NumericalFailure:
        return True
    return False


class TestNoCommonZeroCheck:
    """The parametrization check evaluates a, b, c and d at the nodes and the interior nodes' reflections,
    the only zeros of ad - bc = B/B(tau); the joint reduction that decided it before is the oracle."""

    def _case(self):
        # interior nodes, none at 0: each has a reflection for the check to look at
        data = next(d for d, _ in random_solvable_instances(seed=33, count=20, max_degree=4)
                    if d.k == 0 and d.n >= 2 and all(s != 0 for s in d.sigma))
        return data, build_for(data)

    def test_a_factor_shared_at_a_node_raises(self):
        for data in (self._case()[0], boundary_example_data()):
            param = build_for(data)
            for node in data.sigma:
                with pytest.raises(NumericalFailure, match="a, b, c, d share the zero"):
                    _check_no_common_zero(_shared(param, node), data)

    def test_a_factor_shared_at_a_reflection_raises(self):
        data, param = self._case()
        for reflection in (1 / node.conjugate() for node in data.sigma):
            with pytest.raises(NumericalFailure, match=re.escape(f"share the zero {reflection}")):
                _check_no_common_zero(_shared(param, reflection), data)

    def test_a_zero_polynomial_shares_every_zero(self):
        data, param = self._case()
        reflection = 1 / np.conj(data.sigma[0])
        with pytest.raises(NumericalFailure, match="share"):
            _check_no_common_zero(dataclasses.replace(_shared(param, reflection, "acd"), b=Poly([])), data)

    def test_a_nonzero_constant_shares_none(self):
        data, param = self._case()
        node, reflection = data.sigma[0], 1 / np.conj(data.sigma[0])
        _check_no_common_zero(dataclasses.replace(_shared(param, node, "abd"), c=Poly([0.25])), data)
        _check_no_common_zero(dataclasses.replace(_shared(param, reflection, "bcd"), a=Poly([0.25])), data)
        _check_no_common_zero(param, data)

    def test_only_the_zeros_of_ad_minus_bc_are_looked_at(self):
        # a factor shared elsewhere cannot come out of the assembly, and the check does not look for it
        data, param = self._case()
        _check_no_common_zero(_shared(param, 0.05 + 0.02j), data)
        assert _joint_reduction_raises(_shared(param, 0.05 + 0.02j))

    def test_a_zero_value_at_a_node_leaves_c_and_d_sharing_its_reflection(self):
        # (c, d) = conj(eta_j) (a, b) at the reflection: with eta_j = 0 both vanish there, a and b do not
        data = BlaschkeData(sigma=(0.5, -0.3j), eta=(0.0, 0.2), rho=(), k=0)
        param = build_for(data)
        assert max(abs(param.c(2.0)), abs(param.d(2.0))) <= 1e-15 and min(abs(param.a(2.0)), abs(param.b(2.0))) > 1
        _check_no_common_zero(param, data)
        assert not _joint_reduction_raises(param)

    @pytest.mark.parametrize("nu", [5, 6, 7])
    def test_build_parametrization_finds_no_roots(self, nu, monkeypatch):
        import royalgamma.polyrat

        data = extract_royal_data(generate_h_nu(nu, 0.5))
        m = build_pick_matrix(data)
        tau = choose_tau(m, data)
        calls = []
        monkeypatch.setattr(royalgamma.polyrat, "poly_roots_many", lambda polys: calls.append(polys))
        build_parametrization(m, data, tau)
        assert calls == []

    def test_decisions_agree_with_the_joint_reduction(self):
        # h_nu up to degree 30, the worked examples, and random data up to degree 30 with interior and with
        # boundary nodes; each as built, and with a factor shared at a node and at a reflection
        cases = [extract_royal_data(generate_h_nu(nu, r)) for nu in range(15) for r in (0.3, 0.5)]
        cases += [interior_example_data(), boundary_example_data()]
        cases += [data for data, _ in random_solvable_instances(seed=41, count=40, max_degree=30)]
        assert max(data.n for data in cases) == 30 and sum(data.k > 0 for data in cases) >= 10
        shared = 0
        for data in cases:
            param = build_for(data)
            assert not _check_raises(param, data) and not _joint_reduction_raises(param)
            points = [data.sigma[0]] + [1 / np.conj(s) for s in data.sigma[data.k:] if s != 0][:1]
            if data.n <= 12:
                for point in points:
                    assert _check_raises(_shared(param, point), data) == _joint_reduction_raises(_shared(param, point))
                    shared += 1
        assert shared >= 40


def _rational_product(p, q):
    out = [RationalComplex() for _ in range(len(p) + len(q) - 1)]
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] = out[i + j] + x * y
    return out


def _rational_sum(p, q, sign=1):
    p, q = list(p), list(q)
    size = max(len(p), len(q))
    p, q = p + [RationalComplex()] * (size - len(p)), q + [RationalComplex()] * (size - len(q))
    return [x + y * sign for x, y in zip(p, q)]


def _rational_at(p, z):
    out = RationalComplex()
    for c in reversed(p):
        out = out * z + c
    return out


def _rational_solve(matrix, columns):
    """The exact solution X of matrix X = columns by Gauss-Jordan elimination."""
    rows = [list(row) + list(rhs) for row, rhs in zip(matrix, zip(*columns))]
    n = len(rows)
    for j in range(n):
        pivot = next(i for i in range(j, n) if rows[i][j] != 0)
        rows[j], rows[pivot] = rows[pivot], rows[j]
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for i in range(n):
            if i != j:
                rows[i] = [x - rows[i][j] * y for x, y in zip(rows[i], rows[j])]
    return [[row[n + col] for row in rows] for col in range(len(columns))]


def _rational_data(zeros, sigma, k, bump):
    """Values eta_j = f(sigma_j) of f = prod (lambda - a) / (1 - conj(a) lambda) over ``zeros``, and, at the
    first k nodes, on the circle, rho_j = sigma f'/f = sum (1 - |a|^2) / |sigma_j - a|^2, plus ``bump``."""
    sigma = [RationalComplex(*s) for s in sigma]
    zeros = [RationalComplex(*a) for a in zeros]
    eta = [RationalComplex(1) for _ in sigma]
    for a in zeros:
        eta = [e * (s - a) / (1 - a.conj() * s) for e, s in zip(eta, sigma)]
    rho = [sum(((1 - a * a.conj()) / ((s - a) * (s - a).conj()) for a in zeros), RationalComplex(bump))
           for s in sigma[:k]]
    return sigma, eta, rho


def _rational_quadruple(sigma, eta, rho, tau):
    """(a, b, c, d) as ``build_parametrization`` assembles them, exactly: the Pick matrix, the kernel solves
    at tau, the partial products, the four kernel sums and the shifted combination over P(tau)."""
    n, k = len(sigma), len(rho)
    pick = [[rho[i] if i == j < k else (1 - eta[i].conj() * eta[j]) / (1 - sigma[i].conj() * sigma[j])
             for j in range(n)] for i in range(n)]
    x = [1 / (1 - s.conj() * tau) for s in sigma]
    wx, wy = _rational_solve(pick, [x, [e.conj() * v for e, v in zip(eta, x)]])
    factors = [[RationalComplex(1), -s.conj()] for s in sigma]
    partial = [functools.reduce(_rational_product, factors[:i] + factors[i + 1:], [RationalComplex(1)])
               for i in range(n)]
    product = functools.reduce(_rational_product, factors, [RationalComplex(1)])

    def kernel_sum(weights):
        return functools.reduce(_rational_sum, ([w.conj() * c for c in row] for w, row in zip(weights, partial)))

    t = [RationalComplex(1), -tau.conj()]
    n_xx, n_xy = kernel_sum(wx), kernel_sum(wy)
    n_yx, n_yy = (kernel_sum([e * w for e, w in zip(eta, ws)]) for ws in (wx, wy))
    scale = 1 / _rational_at(product, tau)
    quad = (_rational_sum(product, _rational_product(t, n_xx), -1), _rational_product(t, n_xy),
            _rational_sum([], _rational_product(t, n_yx), -1), _rational_sum(product, _rational_product(t, n_yy)))
    return [[c * scale for c in q] for q in quad]


_F = Fraction
_RATIONAL_CASES = [
    # (zeros of f, nodes with the boundary ones first, boundary count, rho bump, tau), all rational
    ([(_F(1, 2),), (0, _F(-1, 3))], [(_F(1, 4),), (_F(-1, 2), _F(1, 3))], 0, 0, (_F(3, 5), _F(4, 5))),
    ([(_F(1, 2),), (0, _F(-1, 3)), (_F(1, 4), _F(1, 4))], [(_F(3, 5), _F(4, 5)), (-1,), (0, _F(1, 2))], 2, 0,
     (_F(5, 13), _F(12, 13))),
    ([(_F(1, 2),), (0, _F(-1, 3)), (_F(1, 4), _F(1, 4)), (_F(-2, 5), _F(1, 5))],
     [(_F(-4, 5), _F(3, 5)), (_F(1, 3),), (0,), (_F(-1, 2), _F(-1, 5))], 1, 1, (_F(-7, 25), _F(24, 25))),
    ([(_F(1, 3),), (_F(-1, 2), _F(1, 4))], [(1,), (0, 1)], 2, _F(1, 2), (_F(-3, 5), _F(-4, 5))),
]


class TestDeterminantIdentity:
    """ad - bc = B(lambda)/B(tau), B(lambda) = prod_j (lambda - sigma_j)(1 - conj(sigma_j) lambda), the identity
    ``_check_no_common_zero`` proves and rests on.

    Exactly, for rational data of up to four nodes, interior and on the circle, one of them 0, at rational base
    points: the Pick matrix and kernel solves are solved in complex Fractions and (a, b, c, d) assembled as
    ``build_parametrization`` assembles them.  In floats the computed det meets B/B(tau) only as well as the
    kernel solves are accurate.  The largest relative coefficient gap measured was 6.1e-13 on this test's inputs
    (degree 10 and below), 3.3e-12 on the benchmark pools (degree 12 and below) at seeds 1, 2, 3 and 7, 2.1e-7 on
    their h_10 defect inputs and 2.5e-7 at h_10 with r = 0.5 (degree 22), 6.4e-4 at h_14 (degree 30) and 1.0e-5 on
    the random data up to degree 30 of ``TestNoCommonZeroCheck`` (seed 41).  The gap follows the kernel solves' error, not cancellation, so the float test
    holds it to 1e-11 at degree 10 and below only."""

    @pytest.mark.parametrize("case", range(len(_RATIONAL_CASES)))
    def test_exactly_on_rational_data(self, case):
        zeros, nodes, k, bump, tau = _RATIONAL_CASES[case]
        sigma, eta, rho = _rational_data(zeros, nodes, k, bump)
        tau = RationalComplex(*tau)
        a, b, c, d = _rational_quadruple(sigma, eta, rho, tau)
        det = _rational_sum(_rational_product(a, d), _rational_product(b, c), -1)
        blaschke = functools.reduce(_rational_product, ([-s, RationalComplex(1)] for s in sigma), [RationalComplex(1)])
        blaschke = functools.reduce(_rational_product, ([RationalComplex(1), -s.conj()] for s in sigma), blaschke)
        at_tau = _rational_at(blaschke, tau)
        assert _rational_sum(det, [coeff / at_tau for coeff in blaschke], -1) == [RationalComplex()] * len(blaschke)
        assert [_rational_at(q, tau) for q in (a, b, c, d)] == [1, 0, 0, 1]
        for j, (s, e) in enumerate(zip(sigma, eta)):
            assert _rational_at(a, s) == e * _rational_at(c, s) and _rational_at(b, s) == e * _rational_at(d, s)
            if j >= k and s != 0:
                z = 1 / s.conj()
                assert _rational_at(c, z) == e.conj() * _rational_at(a, z)
                assert _rational_at(d, z) == e.conj() * _rational_at(b, z)
        # the exact assembly is the package's: the float one meets it to rounding
        data = BlaschkeData(sigma=tuple(complex(float(s.re), float(s.im)) for s in sigma),
                            eta=tuple(complex(float(e.re), float(e.im)) for e in eta),
                            rho=tuple(float(r.re) for r in rho), k=k)
        param = build_for(data, complex(float(tau.re), float(tau.im)))
        for q, exact in zip((param.a, param.b, param.c, param.d), (a, b, c, d)):
            exact = np.array([complex(float(x.re), float(x.im)) for x in exact])
            assert np.max(np.abs(q.padded(exact.size) - exact)) <= 1e-12 * max(1.0, np.max(np.abs(exact)))

    def test_in_floats_to_degree_10(self):
        cases = [extract_royal_data(generate_h_nu(nu, r)) for nu in range(5) for r in (0.2, 0.5, 0.8)]
        cases += [data for data, _ in random_solvable_instances(seed=43, count=40, max_degree=10)]
        assert max(data.n for data in cases) == 10 and sum(data.k > 0 for data in cases) >= 10
        worst = 0.0
        for data in cases:
            param = build_for(data)
            det = param.a * param.d - param.b * param.c
            blaschke = Poly([1.0])
            for s in data.sigma:
                blaschke = blaschke * Poly([-s, 1.0]) * Poly([1.0, -np.conj(s)])
            blaschke = blaschke / blaschke(param.tau)
            size = max(det.coeffs.size, blaschke.coeffs.size)
            worst = max(worst, np.max(np.abs(det.padded(size) - blaschke.padded(size))) / np.max(np.abs(blaschke.coeffs)))
        assert worst <= 1e-11


def _exact_partial_products(points):
    """Exact coefficients of prod_{l != i} (1 - points_l lambda) for each i, then of the whole product."""
    def product(skip):
        coeffs = [ExactComplex.of(1.0)]
        for l, point in enumerate(points):
            if l != skip:
                minus = ExactComplex.of(-complex(point))
                coeffs = [c + minus * below for c, below in zip(coeffs + [ExactComplex()], [ExactComplex()] + coeffs)]
        return coeffs

    return [product(i) for i in range(len(points))] + [product(None)]


def _exact_parametrization(data, wx, wy, tau):
    """The numerators of (a, b, c, d), n + 1 wide, and the value of the product at tau that divides them,
    computed exactly from the float kernel solves, nodes, values and base point."""
    rows = _exact_partial_products(np.conj(np.array(data.sigma)))
    n, eta_bar = data.n, [ExactComplex.of(np.conj(e)) for e in data.eta]
    wx_bar, wy_bar = ([ExactComplex.of(np.conj(w)) for w in solve] for solve in (wx, wy))
    weights = [wx_bar, wy_bar, [e * w for e, w in zip(eta_bar, wx_bar)], [e * w for e, w in zip(eta_bar, wy_bar)]]
    tau_bar = ExactComplex.of(np.conj(tau))
    shifted = []  # (1 - conj(tau) lambda) times each kernel sum
    for w in weights:
        sums = [sum((w[i] * rows[i][j] for i in range(n)), ExactComplex()) for j in range(n)] + [ExactComplex()]
        shifted.append([sums[0]] + [sums[j] - tau_bar * sums[j - 1] for j in range(1, n + 1)])
    product = rows[n]
    numerators = [[p - q for p, q in zip(product, shifted[0])], shifted[1],
                  [ExactComplex() - q for q in shifted[2]], [p + q for p, q in zip(product, shifted[3])]]
    at_tau = ExactComplex()
    for c in product[::-1]:
        at_tau = at_tau * ExactComplex.of(tau) + c
    return numerators, at_tau


class TestParametrizationMatchesAnExactOracle:
    """The partial products, their product and (a, b, c, d), against the same
    quantities computed exactly from the same float inputs."""

    @staticmethod
    def _relative_error(rows, exact):
        worst = 0.0
        for row, exact_row in zip(rows, exact):
            gap = max(modulus(ExactComplex.of(value) - e) for value, e in zip(row.tolist(), exact_row))
            worst = max(worst, gap / max(map(modulus, exact_row)))
        return worst

    @pytest.mark.parametrize("nu", [4, 10, 14])
    def test_partial_products_of_h_nu(self, nu):
        # Leja order keeps below 3e-15; node order loses 1.5e-12 at nu = 10 and 2.7e-10 at nu = 14
        points = np.conj(np.array(extract_royal_data(generate_h_nu(nu, 0.5)).sigma))
        assert self._relative_error(_partial_products(points), _exact_partial_products(points)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 5, 12, 20, 30])
    def test_partial_products_of_random_nodes(self, n):
        rng = np.random.default_rng(n)
        radii = np.where(rng.uniform(size=n) < 0.5, 1.0, rng.uniform(0.0, 1.0, n))
        points = radii * np.exp(2j * np.pi * rng.uniform(size=n))
        assert self._relative_error(_partial_products(points), _exact_partial_products(points)) <= 1e-14

    def test_each_coefficient_of_a_b_c_d(self):
        # within 4 n ulps of each polynomial's largest coefficient, n the degree
        cases = [extract_royal_data(generate_h_nu(nu, r)) for nu in range(6) for r in (0.2, 0.5, 0.8)]
        cases += [data for data, _ in random_solvable_instances(seed=77, count=40, max_degree=12)]
        assert max(data.n for data in cases) == 12 and sum(data.k == 0 for data in cases) >= 5
        worst = 0.0
        for data in cases:
            m = build_pick_matrix(data)
            param = build_parametrization(m, data, choose_tau(m, data))
            wx, wy, _ = kernel_solves(m, data, param.tau)
            numerators, at_tau = _exact_parametrization(data, wx, wy, param.tau)
            size = modulus(at_tau)
            for q, numerator in zip((param.a, param.b, param.c, param.d), numerators):
                scale = max(map(modulus, numerator)) / size
                for value, exact in zip(q.padded(data.n + 1).tolist(), numerator):
                    gap = modulus(ExactComplex.of(value) * at_tau - exact) / size
                    worst = max(worst, gap / (data.n * np.finfo(float).eps * scale))
        assert worst <= 4.0, worst  # 1.7 here; 5.1 with the factors in node order


def test_fixed_grids_are_cached_read_only():
    for grid in (circle_grid, disc_grid):
        cached = _read_only_grid(grid, 256)
        assert _read_only_grid(grid, 256) is cached
        assert not cached.flags.writeable
        assert np.array_equal(_bits(cached), _bits(grid(256)))
    assert _factored_form_points() is _factored_form_points() and not _factored_form_points().flags.writeable
    assert _disc_points() is _read_only_grid(disc_grid, 256)
    # the power tables: cached per point set and coefficient count, read-only, the repeated products
    for points in (_factored_form_points, _disc_points):
        z = points()
        for size in (1, 2, 5, 31):
            table = _power_table(points, size)
            assert _power_table(points, size) is table
            assert not table.flags.writeable and table.shape == (size, z.size)
            powers = [np.ones(z.size, complex)]
            for _ in range(1, size):
                powers.append(powers[-1] * z)
            assert np.array_equal(_bits(table), _bits(powers))
