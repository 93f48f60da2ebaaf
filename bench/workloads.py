"""Workloads of the royalgamma benchmark: seeded inputs, the timed call into
the library, and the oracle that judges each output.

Inputs are made by forward extraction: build a map known to be valid, read
its royal data off with ``extract_royal_data``, and hand only that data to the
code under test.  The generators live here rather than in ``tests/`` so that
editing the test suite cannot change what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from royalgamma import (
    BlaschkeData,
    GammaInnerFn,
    Parametrization,
    Poly,
    RationalFn,
    build_parametrization,
    build_pick_matrix,
    check_positive_definite,
    choose_tau,
    circle_grid,
    extract_royal_data,
    gamma_inner_distance,
    generate_h_nu,
    phasar_derivative,
    solve_blaschke,
    solve_royal_problem,
    to_blaschke_product,
)
from royalgamma.errors import ExceptionalZeta, RoyalGammaError

# The oracle's thresholds are fixed here, at the library's values when the
# benchmark was defined (``cli.ROUNDTRIP_MATCH_TOL`` and the default
# ``residual_tol``): loosening a library tolerance must not turn a failure
# into a pass.
ROUNDTRIP_MATCH_TOL = 1e-6
RESIDUAL_TOL = 1e-8

# Family solves cost time linear in the grid, nearly all of it per member.
# The CLI default of 256 takes seconds per solve; at 32 a 30-second run makes
# about seven passes over the pool, enough for a median per problem and a
# tail percentile with ten solves beyond it.
FAMILY_OMEGA_GRID = 32
SCALAR_PARAMETERS = 64  # unimodular parameters per data set, as `royalgamma blaschke`
GENERATOR_ATTEMPTS = 200


@dataclass(frozen=True)
class Problem:
    label: str
    data: BlaschkeData
    source: GammaInnerFn  # the map the data describe

    def describe(self) -> dict:
        return {"label": self.label, "degree": self.data.n, "k": self.data.k}


class Outcome(NamedTuple):
    """Oracle verdict on one solve."""

    attempted: int  # operations in the solve
    failed: int
    maps: int  # verified output maps
    kind: str  # s0p0 kind of a royal solve, "scalar" otherwise
    digest: str  # sha256 of the serialized output
    notes: tuple[str, ...]


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- generators


def _blaschke_rational(zeros, constant: complex) -> RationalFn:
    num = Poly([constant])
    den = Poly([1.0])
    for a in zeros:
        num = num * Poly([-a, 1.0])
        den = den * Poly([1.0, -np.conj(a)])
    return RationalFn(num, den)


def _superficial_map(p: RationalFn, beta: complex) -> GammaInnerFn:
    """(beta + conj(beta) p, p): a valid map whenever |beta| <= 1 and p is inner."""
    return GammaInnerFn.from_numerators(beta * p.den + np.conj(beta) * p.num, p.num, p.den)


def _rotate_map(h: GammaInnerFn, angle: float) -> GammaInnerFn:
    """Precompose with lambda -> exp(i angle) lambda."""
    phase = np.exp(1j * angle)

    def twist(poly: Poly) -> Poly:
        return Poly(poly.coeffs * phase ** np.arange(poly.coeffs.size))

    return GammaInnerFn.from_numerators(twist(h.s.num), twist(h.p.num), twist(h.den))


def _well_conditioned(data: BlaschkeData) -> bool:
    """Reject close nodes, interior nodes hugging the circle and a nearly
    singular Pick matrix: such draws test conditioning, not the pipeline."""
    sigma = np.array(data.sigma)
    gaps = np.abs(sigma[:, None] - sigma[None, :]) + 2.0 * np.eye(data.n)
    if np.min(gaps) < 0.08 or np.any(np.abs(sigma[data.k:]) > 0.95):
        return False
    pick = build_pick_matrix(data)
    return pick.min_eigenvalue > 1e-6 * float(np.max(np.abs(np.diag(pick.entries))))


def _unimodular(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def _superficial_problem(rng, degree: int, boundary: bool) -> Problem:
    """A superficial map of the given degree; a unimodular beta puts every
    royal node on the circle, |beta| < 1 puts them inside the disc."""
    for _ in range(GENERATOR_ATTEMPTS):
        zeros = [complex(rng.uniform(0.05, 0.6) * np.exp(2j * np.pi * rng.uniform())) for _ in range(degree)]
        p = _blaschke_rational(zeros, _unimodular(rng))
        beta = _unimodular(rng) if boundary else complex(rng.uniform(0.3, 0.9)) * _unimodular(rng)
        try:
            h = _superficial_map(p, beta)
            data = extract_royal_data(h)
        except RoyalGammaError:
            continue
        if _well_conditioned(data):
            where = "boundary" if boundary else "interior"
            return Problem(f"superficial degree {degree} {where}", data, h)
    raise RuntimeError(f"no well-conditioned superficial map of degree {degree} in {GENERATOR_ATTEMPTS} draws")


def _h_nu_problem(rng, nu: int) -> Problem:
    """h_nu at a random r and rotation; a draw whose royal data cannot be
    read off is drawn again, as for superficial maps."""
    for _ in range(GENERATOR_ATTEMPTS):
        r = float(rng.uniform(0.25, 0.75))
        angle = float(rng.uniform(0.0, 2.0 * np.pi))
        h = _rotate_map(generate_h_nu(nu, r), angle)
        try:
            data = extract_royal_data(h)
        except RoyalGammaError:
            continue
        return Problem(f"h_nu nu={nu} r={r:.3f} rotation={angle:.3f}", data, h)
    raise RuntimeError(f"no h_nu with nu={nu} whose royal data can be read off in {GENERATOR_ATTEMPTS} draws")


def _interior_example(kappa: complex) -> Problem:
    """Worked example: node 0, value 1/2.  Its family is the degree-1 maps
    p = (kappa lambda + eta^2)/(1 + conj(eta)^2 kappa lambda), s = beta + conj(beta) p."""
    eta = 0.5
    beta = -2.0 * eta / (1.0 + eta**2)
    num_p = Poly([eta**2, kappa])
    den = Poly([1.0, np.conj(eta) ** 2 * kappa])
    h = GammaInnerFn.from_numerators(beta * den + np.conj(beta) * num_p, num_p, den)
    return Problem("worked example interior", BlaschkeData(sigma=(0j,), eta=(eta + 0j,), rho=(), k=0), h)


def _boundary_example(kappa: complex) -> Problem:
    """Worked example: node 1, value i, rho = 1.  Its family is
    p = eta^2 kappa (lambda - alpha)/(1 - conj(alpha) lambda), s = -eta - conj(eta) p,
    alpha = (2 rho - conj(kappa))/(1 + 2 rho)."""
    eta, rho = 1j, 1.0
    alpha = (2.0 * rho - np.conj(kappa)) / (1.0 + 2.0 * rho)
    num_p = eta**2 * kappa * Poly([-alpha, 1.0])
    den = Poly([1.0, -np.conj(alpha)])
    h = GammaInnerFn.from_numerators(-eta * den - np.conj(eta) * num_p, num_p, den)
    return Problem("worked example boundary", BlaschkeData(sigma=(1 + 0j,), eta=(eta,), rho=(rho,), k=1), h)


def family_problems(seed: int) -> list[Problem]:
    """The two worked examples and superficial maps of degree 1 to 4, with
    interior and with boundary nodes."""
    rng = np.random.default_rng(seed)
    interior = [_interior_example(_unimodular(rng))]
    boundary = [_boundary_example(_unimodular(rng))]
    for degree in range(1, 5):
        interior.append(_superficial_problem(rng, degree, False))
        boundary.append(_superficial_problem(rng, degree, True))
    return interior + boundary


def unique_problems(seed: int) -> list[Problem]:
    """h_nu for nu = 0 (degree 2), nine draws of r and rotation; an odd count
    puts the median solve inside one problem's times, not between two.  From
    nu = 1 up verification rejects some recovered maps (from nu = 4, all of
    them); see the README."""
    rng = np.random.default_rng(seed)
    return [_h_nu_problem(rng, 0) for _ in range(9)]


def scalar_problems(seed: int) -> list[Problem]:
    """Superficial maps with interior nodes at every degree from 4 to 12.
    Neighbouring degrees cost about the same, and the count is odd, so the
    median solve falls inside one problem's times among others close to it.
    With boundary nodes, at any degree, about one data set in forty has an
    interpolant whose phasar residual misses RESIDUAL_TOL; see the README."""
    rng = np.random.default_rng(seed)
    return [_superficial_problem(rng, degree, False) for degree in range(4, 13)]


def unique_defects(seed: int) -> list[Problem]:
    """Known defect, kept out of the timed pool: verification rejects every
    recovered h_nu from nu = 4 (degree 10) up, although the map is correct."""
    return [_h_nu_problem(np.random.default_rng([seed, 1]), 4)]


def scalar_defects(seed: int) -> list[Problem]:
    """Known defect, kept out of the timed pool: at degree 22 (h_nu, nu = 10)
    interpolants miss RESIDUAL_TOL at the boundary nodes."""
    return [_h_nu_problem(np.random.default_rng([seed, 1]), 10)]


# ---------------------------------------------------------- royal (family, unique)


def solve_royal(problem: Problem):
    source = problem.source

    def exact_parameter(tau):
        # the family member reproducing the source has p0 = p(tau); omega is its root
        return (complex(np.sqrt(source.p(tau))),)

    return solve_royal_problem(problem.data, omega_grid=FAMILY_OMEGA_GRID, extra_omegas_fn=exact_parameter)


def check_royal(problem: Problem, result) -> Outcome:
    """One operation per solve: it fails unless some returned map is within
    ROUNDTRIP_MATCH_TOL of the source map and verification accepts that map."""
    payload = {
        "status": result.status,
        "failed_step": result.failed_step,
        "reason": result.reason,
        "tau": None if result.tau is None else _c(result.tau),
        "s0p0_kind": None if result.s0p0 is None else result.s0p0.kind,
        "solutions": [
            {
                "omega": None if sol.omega is None else _c(sol.omega),
                "t": sol.t,
                "s0": _c(sol.s0),
                "p0": _c(sol.p0),
                "h": sol.h.to_json_dict(),
                "report": sol.report.to_json_dict(),
            }
            for sol in result.solutions
        ],
        "skipped": list(result.skipped),
    }
    kind = payload["s0p0_kind"] or "none"
    digest = _digest(payload)
    if result.status != "solved":
        return Outcome(1, 1, 0, kind, digest, (f"not solved at step {result.failed_step}: {result.reason}",))
    distances = [gamma_inner_distance(problem.source, sol.h) for sol in result.solutions]
    best = int(np.argmin(distances))
    if distances[best] > ROUNDTRIP_MATCH_TOL:
        return Outcome(1, 1, 0, kind, digest, (f"closest map is {distances[best]:.3e} from the source",))
    report = result.solutions[best].report
    if not report.passed:
        note = f"verification rejects the recovered map ({distances[best]:.1e} from the source): "
        return Outcome(1, 1, 0, kind, digest, (note + "; ".join(report.failures),))
    verified = sum(sol.report.passed for sol in result.solutions)
    return Outcome(1, 0, verified, kind, digest, ())


# ----------------------------------------------------------------------- scalar


class ScalarEntry(NamedTuple):
    zeta: complex
    phi: RationalFn
    interp_residual: float
    phasar_residual: float
    product: object  # BlaschkeProduct, or the RoyalGammaError that prevented it


class ScalarResult(NamedTuple):
    tau: complex
    param: Parametrization
    entries: list[ScalarEntry]


def solve_scalar(problem: Problem) -> ScalarResult:
    """What `royalgamma blaschke` computes: Pick matrix, base point,
    parametrization, then per parameter the interpolant, its residuals at the
    nodes and its factored Blaschke form."""
    data = problem.data
    pick = build_pick_matrix(data)
    positivity = check_positive_definite(pick)
    if positivity.kind != "definite":
        raise RuntimeError(f"Pick matrix is {positivity.kind}")
    tau = choose_tau(pick, data)
    param = build_parametrization(pick, data, tau)
    entries = []
    for zeta in circle_grid(SCALAR_PARAMETERS):
        try:
            phi = solve_blaschke(param, zeta)
        except ExceptionalZeta:
            continue  # skipped, as `royalgamma blaschke` does
        interp = max(abs(phi(s) - e) for s, e in zip(data.sigma, data.eta))
        phasar = max(
            (abs(float(phasar_derivative(phi, data.sigma[j])) - data.rho[j]) for j in range(data.k)),
            default=0.0,
        )
        try:
            product = to_blaschke_product(phi)
        except RoyalGammaError as exc:
            product = exc
        entries.append(ScalarEntry(complex(zeta), phi, float(interp), float(phasar), product))
    return ScalarResult(tau, param, entries)


def check_scalar(problem: Problem, result: ScalarResult) -> Outcome:
    """One operation per interpolant: it fails when its interpolation or
    phasar residual exceeds RESIDUAL_TOL or it has no factored Blaschke form."""
    solutions = []
    failed = 0
    notes = []
    for entry in result.entries:
        item = {
            "zeta": _c(entry.zeta),
            "rational": entry.phi.to_json_dict(),
            "max_interp_residual": entry.interp_residual,
            "max_phasar_residual": entry.phasar_residual,
        }
        bad = []
        if entry.interp_residual > RESIDUAL_TOL:
            bad.append(f"interpolation residual {entry.interp_residual:.2e}")
        if entry.phasar_residual > RESIDUAL_TOL:
            bad.append(f"phasar residual {entry.phasar_residual:.2e}")
        if isinstance(entry.product, RoyalGammaError):
            item["blaschke_error"] = str(entry.product)
            bad.append(f"no Blaschke form: {entry.product}")
        else:
            item["blaschke"] = entry.product.to_json_dict()
        if bad:
            failed += 1
            notes.append(f"zeta {entry.zeta:.4f}: " + ", ".join(bad))
        solutions.append(item)
    payload = {"tau": _c(result.tau), "parametrization": result.param.to_json_dict(), "solutions": solutions}
    attempted = len(result.entries)
    return Outcome(attempted, failed, attempted - failed, "scalar", _digest(payload), tuple(notes))


@dataclass(frozen=True)
class Workload:
    make_problems: Callable[[int], list]
    solve: Callable
    check: Callable[[Problem, object], Outcome]
    ops_per_solve: int  # operations counted as failed when a solve raises
    make_defects: Callable[[int], list] = lambda seed: []  # solved once, untimed, not in `failed`


WORKLOADS = {
    "family": Workload(family_problems, solve_royal, check_royal, 1),
    "unique": Workload(unique_problems, solve_royal, check_royal, 1, unique_defects),
    "scalar": Workload(scalar_problems, solve_scalar, check_scalar, SCALAR_PARAMETERS, scalar_defects),
}
