"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import (
    boundary_example_data,
    boundary_example_target,
    fd_phasar,
    interior_example_data,
    interior_example_target,
)

from royalgamma.blaschke import build_parametrization, circle_grid, disc_grid, phasar_derivative, solve_blaschke
from royalgamma.cli import main
from royalgamma.errors import ExceptionalZeta
from royalgamma.gamma import (
    PointClass,
    classify_point,
    compose_phi_omega,
    construct_h,
    extract_royal_data,
    gamma_inner_distance,
    generate_h_nu,
    phi_omega,
    solve_royal_problem,
    solve_s0_p0,
    verify_royal_solution,
)
from royalgamma.pick import build_pick_matrix, choose_tau
from royalgamma.polyrat import poly_eval


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def _probe_omegas(data):
    """Eight deterministic unimodular probes avoiding -conj(eta_j)."""
    forbidden = [-np.conj(data.eta[j]) for j in range(data.k)]
    for shift in range(300):
        probes = np.exp(1j * (np.pi * (2 * np.arange(8) + 1) / 8 + 0.0137 * shift))
        if all(abs(w - f) > 0.05 for w in probes for f in forbidden):
            return [complex(w) for w in probes]
    raise AssertionError("no probe placement found")


@pytest.fixture(scope="module")
def worked_examples():
    """Constructed maps for the two closed-form examples and the roundtrips."""
    state = {}

    data1 = interior_example_data()
    res1 = solve_royal_problem(data1, omega_grid=32)
    target1 = interior_example_target(0.5, 1.0)
    omega1 = complex(np.sqrt(target1.p(res1.tau)))
    mem1 = res1.s0p0.member(omega1)
    h1 = construct_h(res1.parametrization, mem1.s0, mem1.p0)
    state["interior"] = (data1, res1, target1, h1)

    data2 = boundary_example_data()
    res2 = solve_royal_problem(data2, omega_grid=32)
    target2 = boundary_example_target(1j, 1.0, 1.0)
    omega2 = complex(np.sqrt(target2.p(res2.tau)))
    mem2 = res2.s0p0.member(omega2)
    h2 = construct_h(res2.parametrization, mem2.s0, mem2.p0)
    state["boundary"] = (data2, res2, target2, h2)

    state["roundtrips"] = {}
    for nu, r in [(0, 0.5), (0, 0.9), (1, 0.5)]:
        start = time.monotonic()
        h = generate_h_nu(nu, r)
        data = extract_royal_data(h)
        res = solve_royal_problem(
            data, omega_grid=64,
            extra_omegas_fn=lambda tau, h=h: (complex(np.sqrt(h.p(tau))),),
        )
        elapsed = time.monotonic() - start
        state["roundtrips"][(nu, r)] = (h, data, res, elapsed)
    return state


def test_criterion_1_interior_example(worked_examples):
    with criterion(1, "interior closed-form family member reproduced at 1e-9"):
        data, res, target, h = worked_examples["interior"]
        assert res.status == "solved"
        assert res.s0p0.kind == "family"
        pt = h(0.0)
        assert abs(pt.s - (-1.0)) <= 1e-9
        assert abs(pt.p - 0.25) <= 1e-9
        # coefficient-wise match of s = beta + conj(beta) p with beta = -4/5
        # and p = (lambda + 1/4)/(1 + lambda/4)
        assert gamma_inner_distance(h, target) <= 1e-9
        beta = -0.8
        grid = disc_grid(64)
        assert np.max(np.abs(h.s(grid) - (beta + np.conj(beta) * h.p(grid)))) <= 1e-9
        report = verify_royal_solution(h, data, pass_tol=1e-9)
        assert report.passed, report.failures


def test_criterion_2_boundary_example(worked_examples):
    with criterion(2, "boundary closed-form family member reproduced at 1e-8"):
        data, res, target, h = worked_examples["boundary"]
        assert res.status == "solved"
        assert res.s0p0.kind == "family"
        # p(lambda) = -(3 lambda - 1)/(3 - lambda) via alpha(kappa) = (2 rho - conj(kappa))/(1 + 2 rho)
        assert gamma_inner_distance(h, target) <= 1e-8
        pt = h(1.0)
        assert abs(pt.s - (-2j)) <= 1e-8
        assert abs(pt.p - (-1.0)) <= 1e-8
        assert abs(float(phasar_derivative(h.p, 1.0)) - 2.0) <= 1e-8
        report = verify_royal_solution(h, data, pass_tol=1e-9)
        assert report.passed, report.failures


def test_criterion_3_generator_roundtrips(worked_examples):
    with criterion(3, "generator-family roundtrips match at stated tolerances, < 10 s each"):
        expected_nodes = {
            (0, 0.5): ([-1.0 + 0j, 0j], [1.0 + 0j, 0j], [2.0]),
            (0, 0.9): ([-1.0 + 0j, 0j], [1.0 + 0j, 0j], [10.0]),
            (1, 0.5): (
                [np.exp(1j * np.pi / 3), -1.0 + 0j, np.exp(5j * np.pi / 3), 0j],
                [-np.exp(2j * np.pi / 3), -1.0 + 0j, -np.exp(10j * np.pi / 3), 0j],
                [5.0, 5.0, 5.0],
            ),
        }
        for (nu, r), (h, data, res, elapsed) in worked_examples["roundtrips"].items():
            assert elapsed < 10.0, f"(nu={nu}, r={r}) took {elapsed:.1f} s"
            sig_ref, eta_ref, rho_ref = expected_nodes[(nu, r)]
            for got, ref in zip(data.sigma, sig_ref):
                assert abs(got - ref) <= 1e-7
            for got, ref in zip(data.eta, eta_ref):
                assert abs(got - ref) <= 1e-7
            for j, (got, ref) in enumerate(zip(data.rho, rho_ref)):
                assert abs(got - ref) <= 1e-7
                # independent finite-difference check of the extracted value
                assert abs(2 * got - fd_phasar(h.p, data.sigma[j])) <= 1e-4
            assert res.status == "solved"
            best = min(gamma_inner_distance(h, sol.h) for sol in res.solutions)
            assert best <= 1e-6
        # Pick matrix of the (0, 0.5) instance
        _, data, _, _ = worked_examples["roundtrips"][(0, 0.5)]
        pick = build_pick_matrix(data)
        assert np.max(np.abs(pick.entries - np.array([[2.0, 1.0], [1.0, 1.0]]))) <= 1e-9


def test_criterion_4_composed_solutions(worked_examples):
    with criterion(4, "composed linear-fractional maps solve the scalar problem (8 probes)"):
        cases = [
            (worked_examples["interior"][0], worked_examples["interior"][3]),
            (worked_examples["boundary"][0], worked_examples["boundary"][3]),
        ]
        for key, (h, data, res, _) in worked_examples["roundtrips"].items():
            cases.append((data, res.solutions[0].h))
        for data, h in cases:
            for omega in _probe_omegas(data):
                phi = compose_phi_omega(omega, h)
                for j in range(data.n):
                    assert abs(phi(data.sigma[j]) - data.eta[j]) <= 1e-7
                for j in range(data.k):
                    assert abs(fd_phasar(phi, data.sigma[j], step=1e-6) - data.rho[j]) <= 1e-6


def test_criterion_5_parametrization_suite(solvable_instances):
    with criterion(5, "parametrization suite on 50 random solvable data sets"):
        assert len(solvable_instances) == 50
        grid = disc_grid(256)
        for data, _ in solvable_instances:
            pick = build_pick_matrix(data)
            tau = choose_tau(pick, data)
            param = build_parametrization(pick, data, tau)
            assert param.normalization_residual() <= 1e-9
            excess = np.abs(poly_eval(param.c, grid)) - np.abs(poly_eval(param.d, grid))
            assert float(np.max(excess)) <= 1e-8
            solved = 0
            for zeta in circle_grid(16):
                try:
                    phi = solve_blaschke(param, complex(zeta))
                except ExceptionalZeta:
                    continue
                solved += 1
                for j in range(data.n):
                    assert abs(phi(data.sigma[j]) - data.eta[j]) <= 1e-7
                for j in range(data.k):
                    assert abs(float(phasar_derivative(phi, data.sigma[j])) - data.rho[j]) <= 1e-7
                assert phi.num.degree == data.n
            assert solved >= 16 - data.k


def test_criterion_6_geometry_oracle():
    with criterion(6, "membership classifier agrees with the two-root oracle on 10000 samples"):
        rng = np.random.default_rng(4242)
        band = 1e-8
        samples = []
        for _ in range(5000):
            z = rng.uniform(0, 1.25) * np.exp(2j * np.pi * rng.uniform())
            w = rng.uniform(0, 1.25) * np.exp(2j * np.pi * rng.uniform())
            samples.append((z + w, z * w))
        for _ in range(5000):
            s = complex(rng.uniform(-2.6, 2.6), rng.uniform(-2.6, 2.6))
            p = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            samples.append((s, p))
        disagreements = 0
        for s, p in samples:
            root = np.sqrt(s * s - 4.0 * p)
            m1, m2 = sorted((abs((s + root) / 2.0), abs((s - root) / 2.0)), reverse=True)
            if abs(m1 - 1.0) <= band or abs(m2 - 1.0) <= band:
                continue
            expected = PointClass.INTERIOR_G if m1 < 1.0 else PointClass.OUTSIDE
            if classify_point((s, p)) is not expected:
                disagreements += 1
        assert disagreements == 0


def test_criterion_7_negative_controls(tmp_path, capsys):
    with criterion(7, "negative controls exit with the documented codes and flags"):
        # a single perturbed boundary derivative makes the problem unsolvable at step 3
        data = extract_royal_data(generate_h_nu(1, 0.5))
        obj = data.to_json_dict()
        obj["nodes"][0]["rho"] += 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["solve", "--input", str(bad)]) == 2
        assert "step 3" in capsys.readouterr().err

        indef = tmp_path / "indef.json"
        indef.write_text(json.dumps({"nodes": [
            {"sigma": [1.0, 0.0], "eta": [1.0, 0.0], "rho": 0.1},
            {"sigma": [-1.0, 0.0], "eta": [-1.0, 0.0], "rho": 0.1},
        ]}))
        assert main(["solve", "--input", str(indef)]) == 2
        assert "step 1" in capsys.readouterr().err

        royal = tmp_path / "royal.json"
        royal.write_text(json.dumps({
            "s": {"num": [[0.0, 0.0], [2.0, 0.0]], "den": [[1.0, 0.0]]},
            "p": {"num": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "den": [[1.0, 0.0]]},
        }))
        report = tmp_path / "royal_report.json"
        assert main(["verify", "--input", str(royal), "--output", str(report)]) == 3
        assert json.loads(report.read_text())["royal_range"] is True


def test_criterion_8_scalar_identities(solvable_instances):
    with criterion(8, "bounded-s equivalence (100 draws) and composition identity (20 pairs) at 1e-9"):
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
            assert (abs(s) <= 2.0 + 1e-9) == (abs(c) <= abs(d) + 1e-9)
            done += 1

        rng = np.random.default_rng(616)
        checked = 0
        idx = 0
        while checked < 20:
            data, _ = solvable_instances[idx % len(solvable_instances)]
            idx += 1
            pick = build_pick_matrix(data)
            tau = choose_tau(pick, data)
            param = build_parametrization(pick, data, tau)
            sol = solve_s0_p0(param)
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
                num = poly_eval(param.a, lam) * zeta + poly_eval(param.b, lam)
                den = poly_eval(param.c, lam) * zeta + poly_eval(param.d, lam)
                assert abs(phi_omega(omega, h(lam)) - num / den) <= 1e-9
                checked += 1
