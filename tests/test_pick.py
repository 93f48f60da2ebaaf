import numpy as np
import pytest
from conftest import boundary_example_data, interior_example_data, random_solvable_instances

from royalgamma import generate_h_nu
from royalgamma.errors import DegenerateData, InvalidData, NoSuitableTau, PoleAtNode, SingularPick
from royalgamma.gamma import extract_royal_data
from royalgamma.pick import (
    MIN_TAU_NODE_DISTANCE,
    BlaschkeData,
    build_pick_matrix,
    check_positive_definite,
    choose_tau,
    exceptional_set,
    kernel_solves,
    solve_pd,
    tau_candidate,
)


def hnu_data():
    return extract_royal_data(generate_h_nu(0, 0.5))


def random_raw_data(rng, n_max=5):
    """Valid (not necessarily solvable) data: distinct nodes, positive rho."""
    while True:
        n = int(rng.integers(1, n_max + 1))
        k = int(rng.integers(0, n + 1))
        phases = 2 * np.pi * rng.uniform(size=k)
        sigma = [complex(np.exp(1j * t)) for t in phases]
        sigma += [complex(rng.uniform(0.05, 0.85) * np.exp(2j * np.pi * rng.uniform())) for _ in range(n - k)]
        if min((abs(a - b) for i, a in enumerate(sigma) for b in sigma[:i]), default=1.0) < 1e-2:
            continue
        eta = [complex(np.exp(2j * np.pi * rng.uniform())) for _ in range(k)]
        eta += [complex(rng.uniform(0.0, 0.85) * np.exp(2j * np.pi * rng.uniform())) for _ in range(n - k)]
        rho = [float(rng.uniform(0.5, 3.0)) for _ in range(k)]
        return BlaschkeData(tuple(sigma), tuple(eta), tuple(rho), k=k)


def kernel_columns(d, tau):
    """Closed-form Szego-kernel columns x_tau and y_tau = conj(eta) x_tau."""
    x = 1.0 / (1.0 - np.conj(np.array(d.sigma)) * tau)
    return x, np.conj(np.array(d.eta)) * x


class TestBlaschkeData:
    def test_boundary_projection(self):
        d = BlaschkeData(sigma=(1.0 + 1e-10j,), eta=(1j,), rho=(1.0,), k=1)
        assert abs(abs(d.sigma[0]) - 1.0) == 0.0

    def test_rejects_offcircle_boundary(self):
        with pytest.raises(InvalidData):
            BlaschkeData(sigma=(0.9 + 0j,), eta=(1j,), rho=(1.0,), k=1)

    def test_rejects_coincident_nodes(self):
        with pytest.raises(InvalidData):
            BlaschkeData(sigma=(0.5 + 0j, 0.5 + 0j), eta=(0j, 0.1 + 0j), rho=(), k=0)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(InvalidData):
            BlaschkeData(sigma=(1.0 + 0j,), eta=(1j,), rho=(0.0,), k=1)

    @pytest.mark.parametrize("name, value", [
        ("sigma", complex("nan")), ("eta", complex("nan")), ("rho", float("inf")),
    ])
    def test_rejects_non_finite(self, name, value):
        fields = {"sigma": (1.0 + 0j, 0.5 + 0j), "eta": (1j, 0j), "rho": (1.0,)}
        fields[name] = (value,) + fields[name][1:]
        with pytest.raises(InvalidData, match="not finite"):
            BlaschkeData(**fields, k=1)

    @pytest.mark.parametrize("rho", ["x", [1]])
    def test_json_rejects_non_numeric_rho(self, rho):
        with pytest.raises(InvalidData, match="malformed rho"):
            BlaschkeData.from_json_dict({"nodes": [{"sigma": [1.0, 0.0], "eta": [0.0, 1.0], "rho": rho}]})

    def test_json_roundtrip_reorders_boundary_first(self):
        obj = {
            "nodes": [
                {"sigma": [0.0, 0.0], "eta": [0.5, 0.0], "rho": None},
                {"sigma": [-1.0, 0.0], "eta": [1.0, 0.0], "rho": 2.0},
            ]
        }
        d = BlaschkeData.from_json_dict(obj)
        assert d.k == 1
        assert d.sigma[0] == -1.0
        back = d.to_json_dict()
        assert back["nodes"][0]["rho"] == 2.0

    def test_json_rho_required_iff_on_circle(self):
        with pytest.raises(InvalidData):
            BlaschkeData.from_json_dict({"nodes": [{"sigma": [1.0, 0.0], "eta": [0.0, 1.0], "rho": None}]})
        with pytest.raises(InvalidData):
            BlaschkeData.from_json_dict({"nodes": [{"sigma": [0.5, 0.0], "eta": [0.0, 0.5], "rho": 1.0}]})

    def test_json_empty_rejected(self):
        with pytest.raises(InvalidData):
            BlaschkeData.from_json_dict({"nodes": []})


class TestBuildPickMatrix:
    def test_single_interior(self):
        m = build_pick_matrix(interior_example_data())
        np.testing.assert_allclose(m.entries, [[0.75]])

    def test_single_boundary_diagonal_is_rho(self):
        m = build_pick_matrix(boundary_example_data())
        np.testing.assert_allclose(m.entries, [[1.0]])

    def test_generator_data(self):
        m = build_pick_matrix(hnu_data())
        np.testing.assert_allclose(m.entries, [[2.0, 1.0], [1.0, 1.0]], atol=1e-12)

    def test_degenerate_nodes(self):
        # 1e-12 apart: distinct enough for BlaschkeData, but 1 - conj(sigma_0) sigma_1
        # rounds below TRIM_TOL
        d = BlaschkeData(
            sigma=(-0.6421150291127853 + 0.7666083024514455j, -0.6421150291135519 + 0.7666083024508034j),
            eta=(1.0 + 0j, -1.0 + 0j),
            rho=(1.0, 1.0),
            k=2,
        )
        with pytest.raises(DegenerateData):
            build_pick_matrix(d)

    def test_hermitian_for_random_data(self):
        rng = np.random.default_rng(555)
        for _ in range(100):
            d = random_raw_data(rng)
            m = build_pick_matrix(d).entries
            assert np.max(np.abs(m - m.conj().T)) <= 1e-14 * max(1.0, np.max(np.abs(m)))


class TestPositivity:
    def test_definite_with_eigenvalue(self):
        m = build_pick_matrix(hnu_data())
        res = check_positive_definite(m)
        assert res.kind == "definite"
        assert res.min_eigenvalue == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-12)

    def test_semidefinite_rank(self):
        from royalgamma.pick import PickMatrix

        entries = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        m = PickMatrix(entries=entries, min_eigenvalue=float(np.linalg.eigvalsh(entries)[0]))
        res = check_positive_definite(m)
        assert res.kind == "semidefinite"
        assert res.rank == 1

    def test_indefinite(self):
        from royalgamma.pick import PickMatrix

        entries = np.array([[0.0, 0.0], [0.0, -1.0]], dtype=complex)
        m = PickMatrix(entries=entries, min_eigenvalue=-1.0)
        assert check_positive_definite(m).kind == "indefinite"

    def test_solvable_data_is_definite(self):
        for data, _ in random_solvable_instances(seed=77, count=12):
            m = build_pick_matrix(data)
            assert check_positive_definite(m).kind == "definite"


class TestKernelVectors:
    """``kernel_solves`` solves against the closed-form kernel columns:
    ``M wx`` and ``M wy`` give back x_tau and y_tau."""

    def test_interior_node_kills_dependence(self):
        d = interior_example_data()
        m = build_pick_matrix(d)
        wx, wy, _ = kernel_solves(m, d, 0.3 + 0.2j)
        np.testing.assert_allclose(m.entries @ wx, [1.0])
        np.testing.assert_allclose(m.entries @ wy, [0.5])

    def test_two_nodes_at_zero(self):
        d = hnu_data()
        m = build_pick_matrix(d)
        wx, _, _ = kernel_solves(m, d, 0.0)
        np.testing.assert_allclose(m.entries @ wx, [1.0, 1.0])

    def test_boundary_substitution(self):
        d = boundary_example_data()
        m = build_pick_matrix(d)
        wx, wy, _ = kernel_solves(m, d, 1j)
        np.testing.assert_allclose(m.entries @ wx, [1.0 / (1.0 - 1j)])
        np.testing.assert_allclose(m.entries @ wy, [-1j / (1.0 - 1j)])

    def test_pole_at_node(self):
        d = boundary_example_data()
        with pytest.raises(PoleAtNode):
            kernel_solves(build_pick_matrix(d), d, 1.0)

    def test_y_is_conjugate_eta_times_x(self):
        for d, _ in random_solvable_instances(seed=101, count=10):
            m = build_pick_matrix(d)
            wx, wy, _ = kernel_solves(m, d, 0.3 + 0.1j)
            x, y = kernel_columns(d, 0.3 + 0.1j)
            scale = float(np.max(np.abs(x)))
            np.testing.assert_allclose(m.entries @ wx, x, rtol=0, atol=1e-9 * scale)
            np.testing.assert_allclose(m.entries @ wy, y, rtol=0, atol=1e-9 * scale)


class TestAugmentedRho:
    def test_singular_pick_rejected(self):
        from royalgamma.pick import PickMatrix

        entries = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        m = PickMatrix(entries=entries, min_eigenvalue=0.0)
        with pytest.raises(SingularPick):
            solve_pd(m, np.array([1.0, 0.0]))


class TestExceptionalSet:
    def test_no_boundary_nodes_empty(self):
        d = interior_example_data()
        m = build_pick_matrix(d)
        exc = exceptional_set(m, d, 1.0)
        assert exc.points == ()
        assert not exc.whole_circle

    def test_scalar_boundary_case(self):
        d = boundary_example_data()
        m = build_pick_matrix(d)
        exc = exceptional_set(m, d, np.exp(2.3j))
        assert len(exc.points) == 1
        assert abs(exc.points[0] - 1j) <= 1e-12

    def test_brute_force_scan_agrees(self):
        # compare against a dense scan of the defining scalar on the circle
        d = hnu_data()
        m = build_pick_matrix(d)
        tau = 1j
        exc = exceptional_set(m, d, tau)
        assert len(exc.points) <= d.k
        grid = np.exp(2j * np.pi * np.arange(4096) / 4096)
        spacing = 2 * np.pi / 4096
        for alpha, beta in exc.pairs:
            scal = np.abs(alpha - grid * beta)
            deep = grid[scal < abs(beta) * spacing]
            for z in deep:
                assert min((abs(z - q) for q in exc.points), default=np.inf) < 4 * spacing

    def test_at_most_k_points(self):
        for data, _ in random_solvable_instances(seed=414, count=15):
            m = build_pick_matrix(data)
            exc = exceptional_set(m, data, tau_candidate(3))
            if not exc.whole_circle:
                assert len(exc.points) <= data.k


class TestKernelSolves:
    def test_tau_candidates_are_exactly_unimodular(self):
        for m in range(1, 1001):
            z = tau_candidate(m)
            assert z == complex(z / abs(z)), m

    def test_solved_once_and_kept_on_the_matrix(self, monkeypatch):
        import royalgamma.pick

        data = hnu_data()
        m = build_pick_matrix(data)
        calls = []
        original = royalgamma.pick.solve_pd

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(royalgamma.pick, "solve_pd", counting)
        tau = tau_candidate(1)
        first = kernel_solves(m, data, tau)
        assert exceptional_set(m, data, tau) is first[2]
        assert kernel_solves(m, data, tau) is first
        # x_tau and y_tau are the two columns of one solve
        assert len(calls) == 1
        assert np.array_equal(calls[0][1], np.column_stack(kernel_columns(data, tau)))

    def test_keyed_by_the_data(self):
        data = hnu_data()
        # rotating every target value by one unimodular constant keeps the Pick matrix
        rotated = BlaschkeData(data.sigma, tuple(1j * e for e in data.eta), data.rho, data.k)
        m = build_pick_matrix(data)
        assert np.allclose(build_pick_matrix(rotated).entries, m.entries, atol=1e-15)
        tau = tau_candidate(1)
        _, wy, _ = kernel_solves(m, data, tau)
        _, wy_rotated, _ = kernel_solves(m, rotated, tau)
        assert np.array_equal(wy_rotated, solve_pd(m, np.column_stack(kernel_columns(rotated, tau)))[:, 1])
        assert not np.allclose(wy_rotated, wy)


class TestChooseTau:
    def test_interior_data_takes_first_candidate(self):
        d = interior_example_data()
        m = build_pick_matrix(d)
        assert choose_tau(m, d) == tau_candidate(1)

    def test_avoids_boundary_nodes(self):
        d = boundary_example_data()
        m = build_pick_matrix(d)
        tau = choose_tau(m, d)
        assert abs(tau - 1.0) > MIN_TAU_NODE_DISTANCE

    def test_deterministic(self):
        d = hnu_data()
        m = build_pick_matrix(d)
        assert choose_tau(m, d) == choose_tau(m, d)

    def test_exhaustion(self, monkeypatch):
        import royalgamma.pick

        d = interior_example_data()
        m = build_pick_matrix(d)
        monkeypatch.setattr(royalgamma.pick, "MAX_TAU_CANDIDATES", 0)
        with pytest.raises(NoSuitableTau):
            choose_tau(m, d)
