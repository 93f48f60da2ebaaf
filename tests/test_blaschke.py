import numpy as np
import pytest
from conftest import (
    blaschke_rational,
    boundary_example_data,
    boundary_example_target,
    fd_phasar,
    interior_example_data,
    poly_allclose,
)

from royalgamma import generate_h_nu
from royalgamma.blaschke import (
    build_parametrization,
    circle_grid,
    disc_grid,
    phasar_derivative,
    phasar_from_values,
    solve_blaschke,
    to_blaschke_product,
)
from royalgamma.blaschke import PhasarValue
from royalgamma.errors import ExceptionalZeta, InvalidData, NotInner, ZeroOrPoleAtPoint
from royalgamma.polyrat import RESIDUAL_TOL, TRIM_TOL
from royalgamma.gamma import extract_royal_data
from royalgamma.pick import BlaschkeData, build_pick_matrix, choose_tau, tau_candidate
from royalgamma.polyrat import Poly, RationalFn, poly_eval, poly_eval_many


def build_for(data, tau=None):
    m = build_pick_matrix(data)
    if tau is None:
        tau = choose_tau(m, data)
    return build_parametrization(m, data, tau)


def _one_at_a_time_phasar(f, z):
    """phasar_derivative as it was before the batch: four evaluations at one point."""
    z = complex(z)
    nz = poly_eval(f.num, z)
    dz = poly_eval(f.den, z)
    scale_n = max(1.0, float(np.max(np.abs(f.num.coeffs))) if not f.num.is_zero else 1.0)
    scale_d = max(1.0, float(np.max(np.abs(f.den.coeffs))))
    if abs(nz) <= TRIM_TOL * scale_n * 1e3:
        raise ZeroOrPoleAtPoint(f"function vanishes at {z}")
    if abs(dz) <= TRIM_TOL * scale_d * 1e3:
        raise ZeroOrPoleAtPoint(f"function has a pole at {z}")
    w = z * (poly_eval(f.num.derivative(), z) / nz - poly_eval(f.den.derivative(), z) / dz)
    return PhasarValue(w.real, abs(w.imag))


class TestPhasarDerivativesAreBitIdentical:
    def _fns(self):
        rng = np.random.default_rng(95)
        fns = [RationalFn(Poly(rng.normal(size=n) + 1j * rng.normal(size=n)), Poly(rng.normal(size=d) + 1j * rng.normal(size=d)))
               for n, d in ((1, 1), (2, 5), (5, 2), (4, 4), (9, 9), (13, 7))]
        return fns + [blaschke_rational([0.5, 0.3j, -0.2 + 0.1j]), generate_h_nu(3, 0.4).p]

    def _values(self, f, points):
        # as verification takes them: rows of a wider pass, with another polynomial first
        rows = poly_eval_many([Poly(np.arange(1.0, 12.0)), f.num, f.den, f.num.derivative(), f.den.derivative()], points)
        return rows[1:].tolist()

    def test_values_match_one_at_a_time(self):
        points = np.exp(1j * np.array([0.0, 0.7, 2.0, np.pi, -1.3]))
        for f in self._fns():
            for z, value in zip(points, phasar_from_values(f, points, self._values(f, points))):
                ref = _one_at_a_time_phasar(f, z)
                assert np.array([float(value), value.imag_residual]).view(np.uint64).tolist() == np.array(
                    [float(ref), ref.imag_residual]).view(np.uint64).tolist()
                single = phasar_derivative(f, z)
                assert (float(single), single.imag_residual) == (float(ref), ref.imag_residual)

    def test_first_failure_in_point_order(self):
        zero_at_half = blaschke_rational([0.5])
        with pytest.raises(ZeroOrPoleAtPoint, match=r"vanishes at \(0.5\+0j\)"):
            phasar_from_values(zero_at_half, [1.0, 0.5, 2.0], self._values(zero_at_half, [1.0, 0.5, 2.0]))
        with pytest.raises(ZeroOrPoleAtPoint, match=r"pole at \(2\+0j\)"):
            phasar_from_values(zero_at_half, [2.0, 0.5], self._values(zero_at_half, [2.0, 0.5]))


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
        assert val.imag_residual <= 1e-12
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
