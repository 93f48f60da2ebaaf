from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    ExactComplex,
    _data_quality_ok,
    blaschke_rational,
    boundary_example_data,
    boundary_example_target,
    exact_horner,
    interior_example_data,
    interior_example_target,
    poly_allclose,
    random_solvable_instances,
    superficial_map,
    to_decimal,
)
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from royalgamma.blaschke import build_parametrization, circle_grid
from royalgamma.errors import (
    InvalidData,
    RoyalGammaError,
    MultiplicityAboveOne,
    NumericalFailure,
    PreconditionViolated,
    RoyalRange,
    SingularPoint,
)
from royalgamma.gamma import (
    GammaInnerFn,
    PointClass,
    classify_point,
    construct_h,
    extract_royal_data,
    gamma_inner_distance,
    generate_h_nu,
    phi_omega,
    royal_nodes,
    royal_polynomial,
    solve_royal_problem,
    solve_s0_p0,
    verify_royal_solution,
)
from royalgamma.pick import BlaschkeData, build_pick_matrix, choose_tau
from royalgamma.polyrat import RESIDUAL_TOL, Poly, poly_roots


def pipeline_parts(data):
    m = build_pick_matrix(data)
    tau = choose_tau(m, data)
    param = build_parametrization(m, data, tau)
    return m, tau, param


def royal_range_map():
    return GammaInnerFn.from_numerators(Poly([0.0, 2.0]), Poly([0.0, 0.0, 1.0]), Poly([1.0]))


class TestClassifyPoint:
    def test_origin_is_interior(self):
        assert classify_point((0j, 0j)) is PointClass.INTERIOR_G

    def test_two_one_is_distinguished(self):
        assert classify_point((2.0 + 0j, 1.0 + 0j)) is PointClass.DISTINGUISHED_BGAMMA

    def test_conjugate_pair_point(self):
        # (-2 eta, eta^2) for eta = i: s - conj(s) p = -2i + (2i)(-1)(-1)... = 0
        assert classify_point((-2j, -1.0 + 0j)) is PointClass.DISTINGUISHED_BGAMMA

    def test_outside(self):
        assert classify_point((3.0 + 0j, 0j)) is PointClass.OUTSIDE

    def test_boundary_but_not_distinguished(self):
        # (s, p) = (1, 0) comes from (z, w) = (1, 0): on the topological
        # boundary (|s - conj(s) p| = 1 - |p|^2) without |p| = 1
        assert classify_point((1.0 + 0j, 0j)) is PointClass.BOUNDARY_GAMMA


class TestPhiOmega:
    def test_zero_point(self):
        for omega in circle_grid(8):
            assert phi_omega(complex(omega), (0j, 0j)) == 0

    def test_royal_normalization(self):
        for omega in circle_grid(8):
            for lam in [0.3 + 0.4j, -0.7j, 0.9 + 0j]:
                val = phi_omega(complex(omega), (2 * lam, lam * lam))
                assert abs(val + lam) <= 1e-12

    def test_direct_substitution(self):
        assert phi_omega(1.0, (1.0 + 0j, 0j)) == pytest.approx(-1.0)

    def test_singularity(self):
        omega = np.exp(0.37j)
        with pytest.raises(SingularPoint):
            phi_omega(omega, (2 * np.conj(omega), np.conj(omega) ** 2))


class TestSolveS0P0:
    def test_interior_example_family(self):
        data = interior_example_data()
        _, _, param = pipeline_parts(data)
        sol = solve_s0_p0(param, data)
        assert sol.kind == "family"
        mem = sol.member(1.0)
        assert mem.s0 == pytest.approx(-8.0 / 5.0)
        assert mem.p0 == pytest.approx(1.0)

    def test_boundary_example_family(self):
        data = boundary_example_data()
        _, _, param = pipeline_parts(data)
        sol = solve_s0_p0(param, data)
        assert sol.kind == "family"
        mem = sol.member(1.0)
        assert abs(mem.s0) <= 1e-12
        assert mem.p0 == pytest.approx(1.0)
        # closed form for this data: s0 = -eta - omega^2 conj(eta)
        for omega in [np.exp(0.3j), np.exp(2.2j)]:
            mem = sol.member(omega)
            assert mem.s0 == pytest.approx(-1j - omega**2 * (-1j))

    def test_rejecting_member_at_extreme_t(self):
        data = boundary_example_data()
        _, _, param = pipeline_parts(data)
        sol = solve_s0_p0(param, data)
        # t = -Im(omega) hits -1 at omega = i, which is rejected
        assert sol.member(1j) is None

    def test_generator_data_is_unique(self):
        h = generate_h_nu(0, 0.5)
        data = extract_royal_data(h)
        _, tau, param = pipeline_parts(data)
        sol = solve_s0_p0(param, data)
        assert sol.kind == "unique"
        assert sol.s0 == pytest.approx(h.s(tau))
        assert sol.p0 == pytest.approx(h.p(tau))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_zero_values_never_vanish(self, n):
        # every eta_j = 0 zeroes two of the three columns; the third, n_xx, stays
        sigma = tuple(complex(0.8 * (j + 1) / (n + 1) * np.exp(2j * np.pi * j / n)) for j in range(n))
        data = BlaschkeData(sigma=sigma, eta=(0j,) * n, rho=(), k=0)
        _, _, param = pipeline_parts(data)
        sol = solve_s0_p0(param, data)
        assert sol.singular_values[0] > 0
        assert sol.kind != "none"

    def test_perturbed_rho_unsolvable(self):
        data = extract_royal_data(generate_h_nu(1, 0.5))
        bad = BlaschkeData(
            sigma=data.sigma, eta=data.eta,
            rho=(data.rho[0] + 0.5,) + data.rho[1:], k=data.k,
        )
        _, _, param = pipeline_parts(bad)
        sol = solve_s0_p0(param, bad)
        assert sol.kind == "none"
        assert sol.residual > 1e-4

    def test_data_hash_guard(self):
        data = interior_example_data()
        _, _, param = pipeline_parts(data)
        other = boundary_example_data()
        with pytest.raises(InvalidData):
            solve_s0_p0(param, other)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega", [0.0, float("nan"), complex(float("nan"), 0.0),
                                       float("inf"), complex(0.0, float("inf"))])
    def test_a_zero_or_non_finite_parameter_gives_no_member(self, omega):
        data = interior_example_data()
        sol = solve_s0_p0(pipeline_parts(data)[2], data)
        assert sol.member(omega) is None
        # the solve keeps every valid member of its grid
        result = solve_royal_problem(data, omega_grid=8, extra_omegas_fn=lambda tau: (omega,))
        assert result.status == "solved"
        assert len(result.solutions) == 8 and not result.skipped


class TestConstructH:
    def test_interior_example_member(self):
        data = interior_example_data()
        _, tau, param = pipeline_parts(data)
        sol = solve_s0_p0(param, data)
        target = interior_example_target(0.5, 1.0)
        omega = complex(np.sqrt(target.p(tau)))
        mem = sol.member(omega)
        h = construct_h(param, mem.s0, mem.p0)
        assert gamma_inner_distance(h, target) <= 1e-9
        pt = h(0.0)
        assert pt.s == pytest.approx(-1.0)
        assert pt.p == pytest.approx(0.25)

    def test_boundary_example_member(self):
        data = boundary_example_data()
        _, tau, param = pipeline_parts(data)
        sol = solve_s0_p0(param, data)
        target = boundary_example_target(1j, 1.0, 1.0)
        omega = complex(np.sqrt(target.p(tau)))
        mem = sol.member(omega)
        h = construct_h(param, mem.s0, mem.p0)
        assert gamma_inner_distance(h, target) <= 1e-9
        pt = h(1.0)
        assert abs(pt.s + 2j) <= 1e-10
        assert abs(pt.p + 1.0) <= 1e-10

    def test_base_values_anchored_at_tau(self):
        data = boundary_example_data()
        _, tau, param = pipeline_parts(data)
        sol = solve_s0_p0(param, data)
        mem = sol.member(np.exp(0.51j))
        h = construct_h(param, mem.s0, mem.p0)
        assert abs(h.s(tau) - mem.s0) <= 1e-12
        assert abs(h.p(tau) - mem.p0) <= 1e-12

    def test_precondition_violations(self):
        data = interior_example_data()
        _, _, param = pipeline_parts(data)
        with pytest.raises(PreconditionViolated):
            construct_h(param, 0.1, 0.5)  # |p0| != 1
        with pytest.raises(PreconditionViolated):
            construct_h(param, 2.5, 1.0)  # |s0| >= 2
        with pytest.raises(PreconditionViolated):
            construct_h(param, 0.2j, 1.0)  # s0 != conj(s0) p0
        with pytest.raises(PreconditionViolated):
            construct_h(param, 0.3, 1.0)  # off the family: identity violated

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s0, p0", [(float("nan"), 1.0), (complex(0.0, float("nan")), 1.0),
                                        (0.5, float("nan")), (0.5, complex(1.0, float("nan")))])
    def test_nan_base_values_violate_the_preconditions(self, s0, p0):
        data = interior_example_data()
        _, _, param = pipeline_parts(data)
        with pytest.raises(PreconditionViolated, match="nan"):
            construct_h(param, s0, p0)

    def test_a_nan_coefficient_fails_the_boundary_identities(self):
        # s is NaN on the whole circle, so two of the three circle residuals are NaN
        with pytest.raises(NumericalFailure, match="boundary identities violated"):
            GammaInnerFn.from_numerators(Poly([np.nan, 0.5]), Poly([0.0, 1.0]), Poly([1.0]))

    def test_a_nan_anchor_gap_fails(self, monkeypatch):
        import royalgamma.gamma

        data = interior_example_data()
        _, _, param = pipeline_parts(data)
        mem = solve_s0_p0(param, data).member(np.exp(0.51j))
        # s and p come out NaN at tau, so the gap to the base values is NaN
        monkeypatch.setattr(royalgamma.gamma, "poly_eval_many",
                            lambda polys, z: np.resize([np.nan, np.nan, 1.0 + 0j], (len(polys), 1)))
        with pytest.raises(NumericalFailure, match="misses its base values by nan"):
            construct_h(param, mem.s0, mem.p0)


class TestRoyalNodes:
    def test_royal_range_flagged(self):
        with pytest.raises(RoyalRange):
            royal_nodes(royal_range_map())

    def test_generator_nodes(self):
        rd = royal_nodes(generate_h_nu(0, 0.5))
        assert rd.type_pair == (2, 1)
        (node_b, mult_b), (node_i, mult_i) = rd.nodes
        assert abs(node_b + 1.0) <= 1e-9 and mult_b == 1
        assert abs(node_i) <= 1e-9 and mult_i == 1
        assert abs(rd.values[0] - 1.0) <= 1e-9
        assert abs(rd.values[1]) <= 1e-9
        assert rd.boundary_rho[0] == pytest.approx(2.0)

    def test_interior_example_target_nodes(self):
        h = interior_example_target(0.5, np.exp(0.3j))
        rd = royal_nodes(h)
        assert rd.type_pair == (1, 0)
        assert abs(rd.nodes[0][0]) <= 1e-9
        assert abs(rd.values[0] - 0.5) <= 1e-9

    def test_higher_generator_boundary_nodes(self):
        rd = royal_nodes(generate_h_nu(1, 0.5))
        assert rd.type_pair == (4, 3)
        expected = [np.exp(1j * np.pi * (2 * j + 1) / 3) for j in range(3)]
        for (node, mult), ref in zip(rd.nodes[:3], expected):
            assert abs(node - ref) <= 1e-9
            assert mult == 1

    def test_even_boundary_orders_for_all_boundary_maps(self):
        rng = np.random.default_rng(2718)
        for _ in range(10):
            zeros = [complex(rng.uniform(0.05, 0.55) * np.exp(2j * np.pi * rng.uniform())) for _ in range(2)]
            p = blaschke_rational(zeros, complex(np.exp(2j * np.pi * rng.uniform())))
            beta = complex(np.exp(2j * np.pi * rng.uniform()))
            h = superficial_map(p, beta)
            royal, _ = royal_polynomial(h)
            for rc in poly_roots(royal):
                if abs(abs(rc.value) - 1.0) <= 1e-6:
                    assert rc.multiplicity % 2 == 0


class TestExtractRoyalData:
    def test_generator_roundtrip_values(self):
        data = extract_royal_data(generate_h_nu(0, 0.5))
        assert data.k == 1
        assert abs(data.sigma[0] + 1.0) <= 1e-9
        assert abs(data.sigma[1]) <= 1e-9
        assert abs(data.eta[0] - 1.0) <= 1e-9
        assert abs(data.eta[1]) <= 1e-9
        assert data.rho[0] == pytest.approx(2.0)

    def test_boundary_target_extraction(self):
        h = boundary_example_target(1j, 1.0, 1.0)
        data = extract_royal_data(h)
        assert data.k == 1
        assert abs(data.sigma[0] - 1.0) <= 1e-9
        assert abs(data.eta[0] - 1j) <= 1e-9
        assert data.rho[0] == pytest.approx(1.0)

    def test_multiplicity_above_one_rejected(self):
        h = generate_h_nu(0, 0.5)

        def square_sub(poly):
            out = np.zeros(2 * poly.coeffs.size - 1, dtype=complex)
            out[::2] = poly.coeffs
            return Poly(out)

        doubled = GammaInnerFn.from_numerators(
            square_sub(h.s.num), square_sub(h.p.num), square_sub(h.den)
        )
        with pytest.raises(MultiplicityAboveOne):
            extract_royal_data(doubled)

    def test_full_roundtrip_property(self, solvable_instances):
        for data, h in solvable_instances[:10]:
            again = extract_royal_data(h)
            assert again.n == data.n and again.k == data.k
            for a, b in zip(again.sigma, data.sigma):
                assert abs(a - b) <= 1e-7
            for a, b in zip(again.eta, data.eta):
                assert abs(a - b) <= 1e-7
            for a, b in zip(again.rho, data.rho):
                assert abs(a - b) <= 1e-7


class TestVerify:
    def test_wrong_rho_reported(self):
        h = generate_h_nu(0, 0.5)
        wrong = BlaschkeData(sigma=(-1.0 + 0j, 0j), eta=(1.0 + 0j, 0j), rho=(3.0,), k=1)
        report = verify_royal_solution(h, wrong)
        assert not report.passed
        assert report.residuals["phasar_p_max"] == pytest.approx(2.0)

    def test_royal_range_flag(self):
        data = BlaschkeData(sigma=(0.5 + 0j,), eta=(-0.5 + 0j,), rho=(), k=0)
        report = verify_royal_solution(royal_range_map(), data)
        assert report.royal_range
        assert not report.passed
        assert "royal_range" in report.failures
        # a map into the royal variety gets no cross-check
        assert not any(name.startswith("phi_omega") for name in report.residuals)

    def test_json_shape(self):
        h = generate_h_nu(0, 0.5)
        data = extract_royal_data(h)
        obj = verify_royal_solution(h, data).to_json_dict()
        assert obj["pass"] is True
        assert "residuals" in obj and "degree" in obj


def _alone(result, data):
    """Each report of a solve, and the report of verifying that map alone."""
    assert result.solutions
    return ([sol.report.to_json_dict() for sol in result.solutions],
            [verify_royal_solution(sol.h, data).to_json_dict() for sol in result.solutions])


class TestFamilyVerificationMatchesSingleMaps:
    """A family solve reports for every member exactly what verifying that
    member alone reports."""

    @pytest.mark.parametrize("data", [interior_example_data(), boundary_example_data()], ids=["interior", "boundary"])
    def test_worked_examples(self, data):
        together, alone = _alone(solve_royal_problem(data, omega_grid=24), data)
        assert together == alone
        assert all(report["pass"] for report in together)

    def test_a_failing_probe_stops_only_its_own_map(self, monkeypatch):
        import royalgamma.gamma

        # the family's maps are verified in one pass; a probe at a singularity of the second map fails only it
        data = boundary_example_data()
        reference = [sol.report.to_json_dict() for sol in solve_royal_problem(data, omega_grid=6).solutions]
        original = royalgamma.gamma._phi_check_omegas
        passes = []

        def singular_second(s_at_nodes, data):
            passes.append(len(s_at_nodes))
            probes = original(s_at_nodes, data)
            probes[1, 3] = -np.conj(data.eta[0])  # top and bottom vanish together at the boundary node
            return probes

        monkeypatch.setattr(royalgamma.gamma, "_phi_check_omegas", singular_second)
        together = [sol.report.to_json_dict() for sol in solve_royal_problem(data, omega_grid=6).solutions]
        assert passes == [len(together)] and len(together) > 2
        assert "composed cross-check failed: function vanishes at (1+0j)" in together[1]["failures"]
        assert "phi_omega_interp_max" not in together[1]["residuals"]
        assert together[:1] + together[2:] == reference[:1] + reference[2:]
        assert "phi_omega_phasar_max" in together[0]["residuals"]

    def test_maps_without_a_cross_check_between_members(self):
        # verifying maps one after another carries nothing from one report to the next
        data = boundary_example_data()
        members = solve_royal_problem(data, omega_grid=8).solutions
        hs = [royal_range_map(), members[0].h, royal_range_map(), *(sol.h for sol in members[1:]), royal_range_map()]
        reports = [verify_royal_solution(h, data).to_json_dict() for h in hs]
        assert reports[0] == reports[2] == reports[-1]
        assert "royal_range" in reports[0]["failures"]
        assert [reports[1], *reports[3:-1]] == [sol.report.to_json_dict() for sol in members]
        assert "phi_omega_phasar_max" in reports[1]["residuals"]

    def test_a_solve_verifies_each_member_once(self, monkeypatch):
        import royalgamma.gamma

        original = royalgamma.gamma._verify_many
        calls = []

        def counting(maps, data, pass_tol):
            calls.append((list(maps), pass_tol))
            return original(maps, data, pass_tol)

        monkeypatch.setattr(royalgamma.gamma, "_verify_many", counting)
        result = solve_royal_problem(boundary_example_data(), omega_grid=12, pass_tol=1e-6)
        # one pass over the family, in which every built map is verified exactly once, under the solve's pass_tol
        assert len(calls) == 1 and len(result.solutions) > 1
        assert [id(h) for h in calls[0][0]] == [id(sol.h) for sol in result.solutions]
        assert calls[0][1] == 1e-6
        assert all(sol.report.pass_tol == 1e-6 for sol in result.solutions)

    def test_aborted_cross_check_keeps_its_failure(self, monkeypatch):
        import royalgamma.gamma

        def nowhere(s_at_nodes, data):
            return np.full((len(s_at_nodes), 8), complex(np.nan, np.nan))

        # every probe placement fails, as it did from degree 10 on before the gap fallback
        monkeypatch.setattr(royalgamma.gamma, "_phi_check_omegas", nowhere)
        h = generate_h_nu(4, 0.5)
        data = extract_royal_data(h)
        result = solve_royal_problem(data, omega_grid=16, extra_omegas_fn=lambda tau: (complex(np.sqrt(h.p(tau))),))
        together, alone = _alone(result, data)
        assert together == alone
        for report in together:
            assert "composed cross-check failed: could not place probe points away from all singularities" in report["failures"]
            assert "phi_omega_interp_max" not in report["residuals"]

    def test_a_mixed_batch(self, monkeypatch):
        import royalgamma.gamma
        from royalgamma.gamma import _verify_many

        data = boundary_example_data()
        members = [sol.h for sol in solve_royal_problem(data, omega_grid=8).solutions]
        factor = Poly.from_roots([0.3 + 0.4j], leading=2.0 - 1j)
        shared = GammaInnerFn.from_numerators(*(q * factor for q in (members[3].s.num, members[3].p.num, members[3].den)))
        wrong_degree = GammaInnerFn.from_numerators(Poly([0.0, 2.0]) * 1j, Poly([0.0, 0.0, -1.0]), Poly([1.0]))
        # the cross-check of members[1] aborts: a probe at the singularity of its boundary node
        target = members[1].s(np.array(data.sigma))
        original = royalgamma.gamma._phi_check_omegas

        def aborting(s_at_nodes, data):
            probes = original(s_at_nodes, data)
            probes[np.all(s_at_nodes == target, axis=-1), 3] = -np.conj(data.eta[0])
            return probes

        monkeypatch.setattr(royalgamma.gamma, "_phi_check_omegas", aborting)
        maps = [members[0], royal_range_map(), members[1], shared, wrong_degree, royal_range_map(), *members[2:]]
        together = [report.to_json_dict() for report in _verify_many(maps, data, None)]
        assert together == [verify_royal_solution(h, data).to_json_dict() for h in maps]
        assert "composed cross-check failed: function vanishes at (1+0j)" in together[2]["failures"]
        assert "royal_range" in together[1]["failures"] and "royal_range" in together[5]["failures"]
        assert together[3]["pass"] and not together[4]["pass"]
        assert "phi_omega_phasar_max" in together[0]["residuals"]

    @seed(1212)
    @settings(max_examples=16, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        radii=st.lists(st.floats(0.05, 0.6), min_size=1, max_size=8),
        angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=10, max_size=10),
        beta_radius=st.floats(0.3, 0.9),
        boundary=st.booleans(),
    )
    def test_superficial_maps(self, radii, angles, beta_radius, boundary):
        # a unimodular beta puts every royal node on the circle
        zeros = [r * np.exp(1j * a) for r, a in zip(radii, angles)]
        beta = np.exp(1j * angles[-2]) * (1.0 if boundary else beta_radius)
        try:
            data = extract_royal_data(superficial_map(blaschke_rational(zeros, np.exp(1j * angles[-1])), beta))
        except RoyalGammaError:
            assume(False)
        assume(_data_quality_ok(data))
        result = solve_royal_problem(data, omega_grid=8)
        assume(result.status == "solved")
        together, alone = _alone(result, data)
        assert together == alone


def _bits(values):
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64).tolist()


def _map_facts(h):
    """Everything construction fixes about a map, exact to the bit; an error by its type and text."""
    if isinstance(h, RoyalGammaError):
        return type(h).__name__, str(h)
    return ([_bits(q.coeffs) for q in (h.s.num, h.p.num, h.den, h.s.den)], h.s.den is h.p.den,
            _bits(h.denominator_min_root_modulus), _bits(h.circle_residuals), h.royal_range)


def _built_alone(param, pairs):
    """construct_h of each (s0, p0) on its own, or the error it raises."""
    out = []
    for s0, p0 in pairs:
        try:
            out.append(construct_h(param, s0, p0))
        except RoyalGammaError as exc:
            out.append(exc)
    return out


def _member_bits(member):
    """A family member's omega, t, s0 and p0, exact to the bit."""
    return None if member is None else [_bits(part) for part in member]


def _numerator_rows(triples):
    """(num_s, num_p, den) triples as the rows and lengths the batch builder takes."""
    rows = np.zeros((len(triples), 3, max(q.coeffs.size for triple in triples for q in triple)), complex)
    for row, triple in zip(rows, triples):
        for part, q in zip(row, triple):
            part[: q.coeffs.size] = q.coeffs
    return rows, np.array([[q.coeffs.size for q in triple] for triple in triples])


def _from_numerators_alone(triples):
    """GammaInnerFn.from_numerators of each triple on its own, or the error it raises."""
    out = []
    for triple in triples:
        try:
            out.append(GammaInnerFn.from_numerators(*triple))
        except RoyalGammaError as exc:
            out.append(exc)
    return out


def _assert_roots_reused(h, cancelled):
    """The map's smallest denominator root modulus, from its joint reduction,
    is the one its denominator's roots give: bit for bit when nothing cancelled."""
    refound = min(abs(rc.value) for rc in poly_roots(h.den))
    if cancelled:
        assert abs(h.denominator_min_root_modulus - refound) <= 1e-12
    else:
        assert _bits(h.denominator_min_root_modulus) == _bits(refound)


class TestBatchedConstructionMatchesSingleMembers:
    """A family's members are built in one batch, and each is bit for bit the
    map construct_h builds for that member alone, or fails with its error."""

    def _check(self, data, omega_grid):
        from royalgamma.gamma import _construct_many

        result = solve_royal_problem(data, omega_grid=omega_grid)
        param, s0p0 = result.parametrization, result.s0p0
        members = ([s0p0.member(omega) for omega in circle_grid(omega_grid)] if s0p0.kind == "family"
                   else [s0p0])
        members = [mem for mem in members if mem is not None]
        alone = _built_alone(param, [(mem.s0, mem.p0) for mem in members])
        batch = _construct_many(param, [(mem.s0, mem.p0) for mem in members])
        assert [_map_facts(h) for h in batch] == [_map_facts(h) for h in alone]
        for h in batch:
            if not isinstance(h, RoyalGammaError):
                _assert_roots_reused(h, cancelled=h.den.degree < param.degree)
        # the solve reports the same maps, and skips the same members with the same words in the same order
        assert [_map_facts(sol.h) for sol in result.solutions] == [
            _map_facts(h) for h in alone if not isinstance(h, RoyalGammaError)]
        assert list(result.skipped) == [f"omega = {mem.omega}: {h}" for mem, h in zip(members, alone)
                                        if isinstance(h, RoyalGammaError)]
        return result

    def test_interior_example(self):
        assert not self._check(interior_example_data(), 24).skipped

    def test_boundary_example_with_members_in_the_royal_variety(self):
        # omega = +-i give |t| = 1 up to rounding: the map falls into the royal variety
        result = self._check(boundary_example_data(), 32)
        assert len(result.skipped) == 2
        assert all("degenerates into the royal variety" in text for text in result.skipped)

    def test_precondition_failures_keep_their_place(self):
        from royalgamma.gamma import _construct_many

        data = boundary_example_data()
        param = pipeline_parts(data)[2]
        family = solve_s0_p0(param, data)
        good = [family.member(omega) for omega in (np.exp(0.3j), np.exp(2.0j))]
        pairs = [(0.1, 0.5), (good[0].s0, good[0].p0), (2.5, 1.0), (0.2j, 1.0), (good[1].s0, good[1].p0), (0.3, 1.0)]
        batch = _construct_many(param, pairs)
        alone = _built_alone(param, pairs)
        assert [_map_facts(h) for h in batch] == [_map_facts(h) for h in alone]
        assert [isinstance(h, PreconditionViolated) for h in batch] == [True, False, True, True, False, True]

    def test_generator_map_is_unique(self):
        h = generate_h_nu(1, 0.5)
        result = self._check(extract_royal_data(h), 8)
        assert result.s0p0.kind == "unique" and len(result.solutions) == 1

    def test_a_shared_factor_is_cancelled(self):
        # (lambda - a) with |a| < 1 divides both numerators and the denominator
        h = generate_h_nu(1, 0.5)
        factor = Poly.from_roots([0.3 + 0.4j], leading=2.0 - 1j)
        shared = GammaInnerFn.from_numerators(h.s.num * factor, h.p.num * factor, h.den * factor)
        assert shared.den.degree == h.den.degree
        assert gamma_inner_distance(shared, h) <= 1e-12
        _assert_roots_reused(shared, cancelled=True)

    def test_a_mixed_batch(self):
        from royalgamma.gamma import _construct_many, _maps_from_numerators

        data = boundary_example_data()
        param = pipeline_parts(data)[2]
        family = solve_s0_p0(param, data)
        grid = circle_grid(32)
        # in the middle: no member at NaN, infinite and zero omega; the grid's omega = +-i (grid[8], grid[24])
        # are members up to rounding, and their maps fall into the royal variety
        omegas = [*grid[5:10], complex(np.nan, 0.0), complex(0.0, np.inf), 0j, *grid[22:27]]
        members = family.members(np.array(omegas))
        alone = [family.member(omega) for omega in omegas]
        assert [_member_bits(member) for member in zip(*members)] == [
            _member_bits(member) for member in alone if member is not None]
        assert [member is None for member in alone] == [False] * 5 + [True] * 3 + [False] * 5

        # in the middle: NaN base values and precondition failures
        pairs = [(member.s0, member.p0) for member in alone if member is not None]
        pairs[5:5] = [(complex(np.nan, 0.0), 1.0), (0.5, complex(1.0, np.nan)), (0.1, 0.5), (2.5, 1.0), (0.3, 1.0)]
        batch = _construct_many(param, pairs)
        assert [_map_facts(h) for h in batch] == [_map_facts(h) for h in _built_alone(param, pairs)]
        assert [type(h).__name__ for h in batch if isinstance(h, RoyalGammaError)] == (
            ["RoyalRange"] + ["PreconditionViolated"] * 5 + ["RoyalRange"])

        # in the middle: a cancelled shared factor, a denominator root in the disc, violated boundary
        # identities and a map into the royal variety, among maps whose triples are not monic
        h = generate_h_nu(1, 0.5)
        factor = Poly.from_roots([0.3 + 0.4j], leading=2.0 - 1j)
        triples = [(q.s.num * 3j, q.p.num * 3j, q.den * 3j) for q in (b for b in batch if not isinstance(b, RoyalGammaError))]
        triples[2:2] = [(h.s.num * factor, h.p.num * factor, h.den * factor),
                        (h.s.num, h.p.num, Poly.from_roots([0.5, -3.0, 2.0j, 1.5])),
                        (h.s.num * 1.1, h.p.num, h.den),
                        (Poly([0.0, 2.0]), Poly([0.0, 0.0, 1.0]), Poly([1.0]))]
        built = _maps_from_numerators(*_numerator_rows(triples))
        assert [_map_facts(q) for q in built] == [_map_facts(q) for q in _from_numerators_alone(triples)]
        assert [type(q).__name__ for q in built[2:6]] == ["GammaInnerFn", "DenominatorZeroInDisc", "NumericalFailure",
                                                          "GammaInnerFn"]
        assert built[2].den.degree == h.den.degree and built[5].royal_range

    @seed(1313)
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        radii=st.lists(st.floats(0.05, 0.6), min_size=1, max_size=8),
        angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=10, max_size=10),
        beta_radius=st.floats(0.3, 0.9),
        boundary=st.booleans(),
    )
    def test_superficial_maps(self, radii, angles, beta_radius, boundary):
        zeros = [r * np.exp(1j * a) for r, a in zip(radii, angles)]
        beta = np.exp(1j * angles[-2]) * (1.0 if boundary else beta_radius)
        try:
            data = extract_royal_data(superficial_map(blaschke_rational(zeros, np.exp(1j * angles[-1])), beta))
        except RoyalGammaError:
            assume(False)
        assume(_data_quality_ok(data))
        result = solve_royal_problem(data, omega_grid=8)
        assume(result.s0p0 is not None and result.s0p0.kind != "none")
        self._check(data, 8)


def _construction_inputs():
    """(data, solve) pairs: the worked examples' families, h_nu for nu = 0 to 3, and random families."""
    for data in (interior_example_data(), boundary_example_data()):
        yield data, solve_royal_problem(data, omega_grid=64)
    for nu in range(4):
        data = extract_royal_data(generate_h_nu(nu, 0.5))
        yield data, solve_royal_problem(data, omega_grid=8)
    for data, _ in random_solvable_instances(seed=20240, count=50):
        yield data, solve_royal_problem(data, omega_grid=8)


def _modulus(z: ExactComplex) -> float:
    return float(to_decimal(z.abs2(), sqrt=True))


class TestConstructionMatchesAnExactOracle:
    """Each member's identity, num_s, num_p and den are weighted sums of a, b, c
    and d; the built map's coefficients, times the exact leading coefficient
    of den, are those sums up to a few roundings of their terms."""

    def test_weighted_sums(self):
        worst, maps = 0.0, 0
        for data, result in _construction_inputs():
            param = result.parametrization
            width = param.degree + 1
            inputs = [q.padded(width) for q in (param.a, param.b, param.c, param.d)]
            scale = max(float(np.max(np.abs(inputs))), 1.0)
            for sol in result.solutions:
                if sol.h.den.degree < param.degree:  # the joint reduction cancelled a factor
                    continue
                s0, p0 = complex(sol.s0), complex((np.array([sol.p0]) / abs(sol.p0))[0])  # p0 as construction takes it
                weights = [(s0, -2.0, 2.0 * p0, -s0), (0.0, 0.0, 4.0 * p0, -2.0 * s0),
                           (-2.0 * p0, s0, 0.0, 0.0), (0.0, 0.0, s0, -2.0)]
                exact = [[sum((ExactComplex.of(w) * complex(x[j]) for w, x in zip(row, inputs)), ExactComplex())
                          for j in range(width)] for row in weights]
                # condition-weighted scale of each sum: sum_k |w_k| |x_k|
                cond = [[sum(abs(w) * abs(x[j]) for w, x in zip(row, inputs)) for j in range(width)] for row in weights]
                assert max(map(_modulus, exact[0])) <= RESIDUAL_TOL * 4.0 * scale
                top = sol.h.den.degree
                lead = exact[3][top]
                for k, q in enumerate((sol.h.s.num, sol.h.p.num, sol.h.den), start=1):
                    for j, built in enumerate(q.padded(width).tolist()):
                        gap = _modulus(ExactComplex.of(built) * lead - exact[k][j])
                        # the sum's own terms, and the leading coefficient the map was divided by
                        bound = cond[k][j] + abs(built) * cond[3][top]
                        worst = max(worst, gap / max(bound * 2.0 ** -52, 1e-300))  # in ulps of the bound
                maps += 1
        assert maps >= 300
        assert worst <= 2.0, worst  # 0.77 on these maps


class TestSolveBlocks:
    """A solve builds and verifies its members in blocks of a fixed size; the
    blocks change no map, report or skip text."""

    @pytest.mark.parametrize("block", [1, 3, 4])
    def test_blocks_do_not_change_results(self, monkeypatch, block):
        import royalgamma.gamma

        data = boundary_example_data()
        whole = solve_royal_problem(data, omega_grid=32)
        param = whole.parametrization
        members = [member for member in map(whole.s0p0.member, circle_grid(32)) if member is not None]
        alone = _built_alone(param, [(member.s0, member.p0) for member in members])
        skips = [i for i, h in enumerate(alone) if isinstance(h, RoyalGammaError)]
        # a block boundary falls between a skipped member and a kept one; with blocks of one, a block
        # holds only a skipped member
        assert len(skips) == 2 and any(i % block == 0 or (i + 1) % block == 0 for i in skips)
        monkeypatch.setattr(royalgamma.gamma, "_BLOCK", block)
        blocked = solve_royal_problem(data, omega_grid=32)
        kept = [(member, h) for member, h in zip(members, alone) if not isinstance(h, RoyalGammaError)]
        assert [_map_facts(sol.h) for sol in blocked.solutions] == [_map_facts(h) for _, h in kept]
        assert [sol.report.to_json_dict() for sol in blocked.solutions] == [
            verify_royal_solution(h, data).to_json_dict() for _, h in kept]
        assert [_member_bits((sol.omega, sol.t, sol.s0, sol.p0)) for sol in blocked.solutions] == [
            _member_bits(member) for member, _ in kept]
        assert list(blocked.skipped) == [f"omega = {member.omega}: {h}" for member, h in zip(members, alone)
                                         if isinstance(h, RoyalGammaError)]
        assert [_map_facts(sol.h) for sol in whole.solutions] == [_map_facts(sol.h) for sol in blocked.solutions]


def _comb_probes(s_at_nodes, data):
    """The probe placement of the rigid comb alone, as it was before the gap fallback."""
    forbidden = [-np.conj(data.eta[j]) for j in range(data.k)]
    for shift in range(300):
        probes = np.exp(1j * (np.pi * (2.0 * np.arange(8) + 1.0) / 8.0 + 0.0137 * shift))
        ok = all(abs(w - f) > 0.05 for w in probes for f in forbidden)
        if ok:
            margins = np.abs(2.0 - probes[:, None] * s_at_nodes[None, :])
            ok = bool(np.all(margins > 0.02))
        if ok:
            return probes
    return None


class TestProbePlacement:
    """The comb keeps its probes wherever it can place them; from nine
    boundary nodes on, each probe goes into a gap between the singularities."""

    def test_comb_probes_are_unchanged(self, solvable_instances):
        from royalgamma.gamma import _phi_check_omegas

        for data, h in solvable_instances[:20] + [(extract_royal_data(generate_h_nu(3, 0.5)), generate_h_nu(3, 0.5))]:
            s_at_nodes = h.s(np.array(data.sigma))
            comb = _comb_probes(s_at_nodes, data)
            assert comb is not None
            assert _bits(_phi_check_omegas(s_at_nodes, data)) == _bits(comb)

    @pytest.mark.parametrize("nu", range(4, 15))
    def test_generator_maps_pass_from_degree_ten(self, nu):
        from royalgamma.gamma import _phi_check_omegas

        for r in (0.2, 0.5, 0.8):
            h = generate_h_nu(nu, r)
            data = extract_royal_data(h)
            s_at_nodes = h.s(np.array(data.sigma))
            assert _comb_probes(s_at_nodes, data) is None
            probes = _phi_check_omegas(s_at_nodes, data)
            assert len(probes) == 8
            forbidden = -np.conj(np.array(data.eta[: data.k]))
            assert np.abs(probes[:, None] - forbidden[None, :]).min() > 0.05
            assert np.abs(2.0 - probes[:, None] * s_at_nodes[None, :]).min() > 0.02
            report = verify_royal_solution(h, data)
            assert report.passed, report.failures
            assert report.residuals["phi_omega_phasar_max"] < 1e-9


def _exact_crosscheck(h, data, probes):
    """The cross-check residuals in exact arithmetic, from the same float
    coefficients, nodes, values and probes as the float64 report, rounded to
    50 digits.  Multiplying through by the denominator,
    (2 omega p - s)/(2 - omega s) is top/bottom with top = 2 omega num_p - num_s
    and bottom = 2 den - omega num_s, and its phasar derivative is
    Re(z (top'/top - bottom'/bottom))."""
    interp2 = phasar = Fraction(0)
    for j, z in enumerate(data.sigma):
        z = ExactComplex.of(z)
        (ns, dns), (np_, dnp), (d, dd) = (exact_horner(q.coeffs, z) for q in (h.s.num, h.p.num, h.den))
        for omega in map(ExactComplex.of, probes.tolist()):
            top, bottom = 2 * omega * np_ - ns, 2 * d - omega * ns
            interp2 = max(interp2, (top - ExactComplex.of(data.eta[j]) * bottom).abs2() / bottom.abs2())
            if j < data.k:
                d_top, d_bottom = 2 * omega * dnp - dns, 2 * dd - omega * dns
                product = top * bottom
                # Re(z (top' bottom - bottom' top) / (top bottom)), one division
                slope = (z * (d_top * bottom - d_bottom * top) * product.conj()).real() / product.abs2()
                phasar = max(phasar, abs(slope - Fraction(data.rho[j])))
    return to_decimal(interp2, sqrt=True), to_decimal(phasar)


def _error(value: float, exact: Decimal) -> float:
    return float(abs(Decimal(value) - exact))


def _oracle_maps():
    """(kind, map, data): worked-example and random family members, and h_nu up to degree 30."""
    for data in (interior_example_data(), boundary_example_data()):
        yield from (("worked", sol.h, data) for sol in solve_royal_problem(data, omega_grid=8).solutions)
    for data, _ in random_solvable_instances(seed=31, count=6):
        result = solve_royal_problem(data, omega_grid=4)
        if result.s0p0 is not None and result.s0p0.kind == "family":
            yield from (("family", sol.h, data) for sol in result.solutions)
    for nu in (4, 10, 14):
        for r in (0.2, 0.5, 0.8):
            h = generate_h_nu(nu, r)
            yield "h_nu", h, extract_royal_data(h)


class TestPointCrossCheck:
    """The cross-check evaluates (2 omega p - s)/(2 - omega s) and its phasar
    derivative from s, p, s' and p' at the nodes."""

    def test_residuals_match_an_exact_oracle(self):
        from royalgamma.gamma import _phi_check_omegas

        worst_interp = worst_phasar = 0.0
        kinds = set()
        for kind, h, data in _oracle_maps():
            report = verify_royal_solution(h, data)
            assert report.passed, report.failures
            probes = _phi_check_omegas(h.s(np.array(data.sigma)), data)
            interp, phasar = _exact_crosscheck(h, data, probes)
            worst_interp = max(worst_interp, _error(report.residuals["phi_omega_interp_max"], interp))
            if data.k:
                worst_phasar = max(worst_phasar, _error(report.residuals["phi_omega_phasar_max"], phasar))
            kinds.add(kind)
        assert kinds == {"worked", "family", "h_nu"}
        # the earlier cross-check, through the root-reduced composed functions,
        # was off by up to 5.3e-14 and 5.5e-11 on these maps
        assert worst_interp <= 5.3e-14
        assert worst_phasar <= 5.5e-11

    @pytest.mark.parametrize("kind", ["interior", "boundary", "h_nu"])
    def test_residuals_match_the_composed_functions_at_the_nodes(self, kind):
        from royalgamma.blaschke import phasar_derivative
        from royalgamma.gamma import _phi_check_omegas, compose_phi_omega

        if kind == "h_nu":
            h = generate_h_nu(4, 0.5)
            data = extract_royal_data(h)
        else:
            data = interior_example_data() if kind == "interior" else boundary_example_data()
            h = solve_royal_problem(data, omega_grid=4).solutions[0].h
        report = verify_royal_solution(h, data)
        assert report.passed, report.failures
        # the paper's Phi_omega o h, reduced as a rational function, at the same probes
        composed = [compose_phi_omega(omega, h) for omega in _phi_check_omegas(h.s(np.array(data.sigma)), data)]
        interp = max(abs(complex(f(z)) - eta) for f in composed for z, eta in zip(data.sigma, data.eta))
        assert report.residuals["phi_omega_interp_max"] == pytest.approx(interp, abs=1e-12)
        if data.k:
            phasar = max(abs(float(phasar_derivative(f, z)) - rho) for f in composed for z, rho in zip(data.sigma, data.rho))
            assert report.residuals["phi_omega_phasar_max"] == pytest.approx(phasar, abs=1e-11)
        else:
            assert "phi_omega_phasar_max" not in report.residuals

    def test_interior_nodes_get_no_phasar_residual(self):
        data = interior_example_data()
        h = interior_example_target(0.5, np.exp(0.3j))
        report = verify_royal_solution(h, data)
        assert report.passed, report.failures
        assert report.residuals["phi_omega_interp_max"] <= 1e-12
        assert "phi_omega_phasar_max" not in report.residuals
        assert "phasar_p_max" not in report.residuals

    def test_a_wrong_phasar_derivative_is_measured(self):
        from royalgamma.gamma import _phi_check_omegas

        # the map's phasar derivative of p at the node is 2 * 2.5, the data ask for 2 * 1
        data = boundary_example_data()
        h = boundary_example_target(1j, 2.5, np.exp(0.4j))
        report = verify_royal_solution(h, data)
        _, phasar = _exact_crosscheck(h, data, _phi_check_omegas(h.s(np.array(data.sigma)), data))
        assert report.residuals["phi_omega_phasar_max"] == pytest.approx(1.5, abs=1e-9)
        assert _error(report.residuals["phi_omega_phasar_max"], phasar) <= 1e-12
        assert "phi_omega_phasar_max = 1.500e+00 exceeds 1.0e-08" in report.failures

    @pytest.mark.parametrize("example, omega, failure", [
        # at a boundary node, omega = -conj(eta) makes top and bottom vanish together
        ("boundary", -np.conj(1j), "function vanishes at (1+0j)"),
        # at the interior node s = -1, so omega = 2 / s makes bottom vanish
        ("interior", -2.0, "function has a pole at 0j"),
    ])
    def test_a_probe_at_a_singularity_fails_the_report(self, monkeypatch, example, omega, failure):
        import warnings

        import royalgamma.gamma

        data = boundary_example_data() if example == "boundary" else interior_example_data()
        h = solve_royal_problem(data, omega_grid=4).solutions[0].h
        monkeypatch.setattr(royalgamma.gamma, "_phi_check_omegas", lambda s_at_nodes, data: np.array([[0.5j, omega]]))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            report = verify_royal_solution(h, data)
        assert not report.passed
        assert f"composed cross-check failed: {failure}" in report.failures
        assert not any(name.startswith("phi_omega") for name in report.residuals)
        assert all(np.isfinite(value) for value in report.residuals.values())

    def test_a_nan_residual_fails(self, monkeypatch):
        import royalgamma.gamma

        data = boundary_example_data()
        h = solve_royal_problem(data, omega_grid=4).solutions[0].h
        monkeypatch.setattr(royalgamma.gamma, "_crosscheck", lambda *args: [{"phi_omega_interp_max": float("nan")}])
        report = verify_royal_solution(h, data)
        assert not report.passed
        assert "phi_omega_interp_max = nan exceeds 1.0e-08" in report.failures


class TestGenerateHNu:
    def test_coefficients(self):
        h = generate_h_nu(0, 0.5)
        # monic denominator: s = 2 lambda/(lambda + 2), p = (2 lambda^2 + lambda)/(lambda + 2)
        assert poly_allclose(h.den, Poly([2.0, 1.0]), atol=1e-12)
        assert poly_allclose(h.s.num, Poly([0.0, 2.0]), atol=1e-12)
        assert poly_allclose(h.p.num, Poly([0.0, 1.0, 2.0]), atol=1e-12)
        assert h.degree == 2

    def test_degree_and_type(self):
        for nu, r in [(0, 0.3), (1, 0.5), (2, 0.7)]:
            h = generate_h_nu(nu, r)
            assert h.degree == 2 * nu + 2
            assert royal_nodes(h).type_pair == (2 * nu + 2, 2 * nu + 1)

    def test_boundary_values_on_distinguished_boundary(self):
        h = generate_h_nu(1, 0.5)
        for theta in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
            pt = h(np.exp(1j * theta))
            assert classify_point(pt) is PointClass.DISTINGUISHED_BGAMMA

    def test_parameter_validation(self):
        with pytest.raises(InvalidData):
            generate_h_nu(0, 1.5)
        with pytest.raises(InvalidData):
            generate_h_nu(-1, 0.5)


class TestGammaInnerFnSerialization:
    def test_roundtrip(self):
        h = generate_h_nu(1, 0.4)
        back = GammaInnerFn.from_json_dict(h.to_json_dict())
        assert gamma_inner_distance(h, back) <= 1e-12

    def test_mismatched_denominators_rejected(self):
        h = generate_h_nu(0, 0.5)
        obj = h.to_json_dict()
        obj["s"]["den"] = [[1.0, 0.0], [0.9, 0.0]]
        with pytest.raises(InvalidData):
            GammaInnerFn.from_json_dict(obj)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("component, part", [("s", "num"), ("s", "den"), ("p", "num"), ("p", "den")])
    def test_non_finite_coefficients_rejected(self, component, part, value):
        obj = generate_h_nu(0, 0.5).to_json_dict()
        obj[component][part][-1] = [0.5, value]
        with pytest.raises(InvalidData, match="not finite"):
            GammaInnerFn.from_json_dict(obj)


class TestJointReduction:
    def test_factor_shared_by_all_three_cancels(self):
        extra = Poly([-3.0, 1.0])
        h = GammaInnerFn.from_numerators(Poly([0.0, 2.0]) * extra, Poly([0.0, 0.0, 1.0]) * extra, extra)
        assert h.den.degree == 0
        assert poly_allclose(h.s.num, Poly([0.0, 2.0]), atol=1e-12)
        assert poly_allclose(h.p.num, Poly([0.0, 0.0, 1.0]), atol=1e-12)

    def test_factor_shared_with_one_numerator_kept(self):
        # z = w = B for the degree-1 Blaschke factor B: s = 2B and p = B^2 over
        # the shared denominator (1 - conj(a) lambda)^2; num_s shares one root
        # with it, num_p shares none, so nothing cancels
        a = 0.5
        blaschke_num, blaschke_den = Poly([-a, 1.0]), Poly([1.0, -a])
        h = GammaInnerFn.from_numerators(
            2.0 * (blaschke_num * blaschke_den), blaschke_num * blaschke_num, blaschke_den * blaschke_den
        )
        assert h.den.degree == 2
        assert h.s.num.degree == 2
        assert h.degree == 2

    def test_zero_numerator_shares_every_root(self):
        extra = Poly([-3.0, 1.0])
        h = GammaInnerFn.from_numerators(Poly([]), Poly([0.0, 0.0, 1.0]) * extra, extra)
        assert h.s.num.is_zero
        assert h.den.degree == 0
        assert poly_allclose(h.p.num, Poly([0.0, 0.0, 1.0]), atol=1e-12)


class TestPipelineComputesOnce:
    def test_one_pick_matrix_and_one_cholesky_per_solve(self, monkeypatch):
        import royalgamma.gamma
        import royalgamma.pick

        counts = {"build_pick_matrix": 0, "cholesky": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        original_build = royalgamma.pick.build_pick_matrix
        for module in (royalgamma.pick, royalgamma.gamma):
            monkeypatch.setattr(module, "build_pick_matrix", counting("build_pick_matrix", original_build))
        monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))

        data = extract_royal_data(generate_h_nu(1, 0.5))
        result = solve_royal_problem(data)
        assert result.status == "solved"
        assert counts == {"build_pick_matrix": 1, "cholesky": 1}

    def test_no_exceptional_set_without_boundary_nodes(self, monkeypatch):
        import royalgamma.pick

        calls = []
        original = royalgamma.pick.exceptional_set

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(royalgamma.pick, "exceptional_set", counting)
        data = interior_example_data()
        assert data.k == 0
        assert choose_tau(build_pick_matrix(data), data) == royalgamma.pick.tau_candidate(1)
        assert calls == []

    def test_verify_reuses_the_validated_denominator_roots(self, monkeypatch):
        import royalgamma.gamma

        h = generate_h_nu(0, 0.5)
        data = extract_royal_data(h)
        dens = []
        original = royalgamma.gamma.poly_roots

        def counting(p, *args, **kwargs):
            if p is h.den:
                dens.append(p)
            return original(p, *args, **kwargs)

        monkeypatch.setattr(royalgamma.gamma, "poly_roots", counting)
        report = verify_royal_solution(h, data)
        monkeypatch.undo()
        assert report.denominator_min_root_modulus == min(abs(rc.value) for rc in poly_roots(h.den))
        assert dens == []

    def test_circle_residuals_and_royal_polynomial_once_per_map(self, monkeypatch):
        import royalgamma.gamma

        maps_per_call = {"_circle_residuals": [], "_royal_ranges": [], "royal_polynomial": []}

        def counting(name):
            original = getattr(royalgamma.gamma, name)

            def wrapper(first, *args):
                maps_per_call[name].append(1 if name == "royal_polynomial" else len(first))
                return original(first, *args)
            return wrapper

        for name in maps_per_call:
            monkeypatch.setattr(royalgamma.gamma, name, counting(name))
        result = solve_royal_problem(boundary_example_data(), omega_grid=16)
        # the members at omega = +-i are built and validated, then fall into the royal variety
        built = len(result.solutions) + sum("royal variety" in text for text in result.skipped)
        assert len(result.solutions) > 1 and built == len(result.solutions) + 2
        # one pass each over the family's built maps; verification reads both facts off the maps
        assert maps_per_call == {"_circle_residuals": [built], "_royal_ranges": [built], "royal_polynomial": []}

    def test_two_kernel_solves_per_solve(self, monkeypatch):
        import royalgamma.pick

        calls = []
        original = royalgamma.pick.solve_pd

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(royalgamma.pick, "solve_pd", counting)
        data = extract_royal_data(generate_h_nu(0, 0.5))
        assert data.k > 0
        assert solve_royal_problem(data).status == "solved"
        assert len(calls) == 2

    def test_one_base_point_per_solve(self):
        seen = []
        data = boundary_example_data()
        result = solve_royal_problem(data, omega_grid=16, extra_omegas_fn=lambda tau: seen.append(tau) or ())
        assert result.status == "solved"
        assert result.tau is result.parametrization.tau
        assert len(seen) == 1 and seen[0] is result.tau
        with pytest.raises(TypeError):
            solve_royal_problem(data, tau_start=2)

    def test_the_base_value_solve_carries_the_policy(self):
        data = interior_example_data()
        m = build_pick_matrix(data)
        param = build_parametrization(m, data, choose_tau(m, data))
        sol = solve_s0_p0(param, data)
        assert sol.kind == "family"
        assert sol.member(1.0) is not None
        with pytest.raises(TypeError):
            sol.member(1.0, 1e-7)

    def test_a_second_policy_is_a_type_error(self):
        data = extract_royal_data(generate_h_nu(0, 0.5))
        m = build_pick_matrix(data)
        with pytest.raises(TypeError):
            choose_tau(m, data, 1)
        with pytest.raises(TypeError):
            verify_royal_solution(generate_h_nu(0, 0.5), data, 1e-7)

    def test_no_function_takes_a_policy(self):
        # the tolerances are module constants in polyrat; nothing accepts one
        policy = object()
        data = extract_royal_data(generate_h_nu(0, 0.5))
        with pytest.raises(TypeError):
            build_pick_matrix(data, policy)
        with pytest.raises(TypeError):
            poly_roots(Poly([1.0, 2.0, 1.0]), policy)
        with pytest.raises(TypeError):
            solve_royal_problem(data, tol=policy)
        with pytest.raises(TypeError):
            solve_royal_problem(data, policy)


class TestConstructionInvariants:
    def test_construction_correctness_random_data(self, solvable_instances):
        # wherever base values exist, the constructed map verifies at 1e-7
        for data, _ in solvable_instances[:25]:
            result = solve_royal_problem(data, omega_grid=16, pass_tol=1e-7)
            assert result.status == "solved", (data, result.reason)
            assert result.verified, [s.report.failures for s in result.solutions]

    def test_completeness_for_generator_instances(self):
        for nu, r in [(0, 0.5), (0, 0.8), (1, 0.5)]:
            h = generate_h_nu(nu, r)
            data = extract_royal_data(h)
            result = solve_royal_problem(
                data, omega_grid=16,
                extra_omegas_fn=lambda tau: (complex(np.sqrt(h.p(tau))),),
            )
            best = min(gamma_inner_distance(h, s.h) for s in result.solutions)
            assert best <= 1e-6

    def test_phi_omega_constant_at_boundary_royal_nodes(self, solvable_instances):
        probes = np.exp(1j * np.pi * (2 * np.arange(8) + 1) / 8)
        for data, h in solvable_instances[:12]:
            for j in range(data.k):
                sigma, eta = data.sigma[j], data.eta[j]
                vals = []
                for omega in probes:
                    if abs(omega + np.conj(eta)) < 0.05:
                        continue
                    vals.append(phi_omega(complex(omega), h(sigma)))
                assert max(abs(v - eta) for v in vals) <= 1e-8

    def test_bounded_s_iff_c_dominated(self):
        # 100 random scalar tuples satisfying the base-value constraints
        rng = np.random.default_rng(515)
        done = 0
        while done < 100:
            omega = complex(np.exp(2j * np.pi * rng.uniform()))
            t = float(rng.uniform(-0.95, 0.95))
            s0, p0 = 2 * t * omega, omega * omega
            c = complex(rng.normal() + 1j * rng.normal())
            d = complex(rng.normal() + 1j * rng.normal())
            if abs(s0 * c - 2 * d) < 1e-6 or abs(abs(c) - abs(d)) <= 1e-9:
                continue
            s = 2 * (2 * p0 * c - s0 * d) / (s0 * c - 2 * d)
            assert (abs(s) <= 2.0) == (abs(c) <= abs(d))
            done += 1

    def test_composition_identity(self, solvable_instances):
        # 20 random (omega, lambda) pairs: the composed functional agrees with
        # the linear-fractional substitution zeta(omega) = (2 omega p0 - s0)/(2 - omega s0)
        rng = np.random.default_rng(616)
        checked = 0
        idx = 0
        while checked < 20:
            data, _ = solvable_instances[idx % len(solvable_instances)]
            idx += 1
            m = build_pick_matrix(data)
            tau = choose_tau(m, data)
            param = build_parametrization(m, data, tau)
            sol = solve_s0_p0(param, data)
            if sol.kind == "unique":
                s0, p0 = sol.s0, sol.p0
            elif sol.kind == "family":
                mem = sol.member(complex(np.exp(2j * np.pi * rng.uniform())))
                if mem is None:
                    continue
                s0, p0 = mem.s0, mem.p0
            else:
                continue
            h = construct_h(param, s0, p0)
            for _ in range(4):
                omega = complex(np.exp(2j * np.pi * rng.uniform()))
                lam = complex(rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform()))
                if abs(2 - omega * h.s(lam)) < 1e-3 or abs(2 - omega * s0) < 1e-3:
                    continue
                zeta = (2 * omega * p0 - s0) / (2 - omega * s0)
                num = param.a(lam) * zeta + param.b(lam)
                den = param.c(lam) * zeta + param.d(lam)
                lhs = phi_omega(omega, h(lam))
                assert abs(lhs - num / den) <= 1e-9
                checked += 1
