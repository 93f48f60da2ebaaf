"""Blaschke interpolation data and the associated Pick matrix machinery.

The Pick matrix carries the boundary phasar-derivative bounds on its diagonal.
Positive definiteness certifies solvability of the interpolation problem; the
exceptional parameter set and the deterministic base-point selection
implemented here feed the linear-fractional parametrization of all solutions.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateData,
    InvalidData,
    NoSuitableTau,
    PoleAtNode,
    SingularPick,
)
from .polyrat import PD_TOL, RESIDUAL_TOL, ROOT_CLUSTER_TOL, TRIM_TOL

__all__ = [
    "BlaschkeData",
    "PickMatrix",
    "PositivityResult",
    "ExceptionalSet",
    "build_pick_matrix",
    "check_positive_definite",
    "kernel_solves",
    "exceptional_set",
    "choose_tau",
]

# Inputs declared to lie on the unit circle must be within this distance of it;
# they are then projected exactly onto the circle, because the downstream
# boundary identities are tolerance-sensitive.
BOUNDARY_INPUT_TOL = 1e-9

# Candidate base points must keep at least this distance from boundary nodes.
MIN_TAU_NODE_DISTANCE = 1e-3

# How many points of the base-point sequence are tried before giving up.
MAX_TAU_CANDIDATES = 1000

_GOLDEN_FRAC = (np.sqrt(5.0) - 1.0) / 2.0


def _project_to_circle(z: complex) -> complex:
    return complex(z / abs(z))


@dataclass(frozen=True)
class BlaschkeData:
    """Interpolation data (sigma, eta, rho) with n nodes, the first k on the circle.

    sigma : nodes, boundary first, pairwise distinct
    eta   : target values, unimodular for the boundary nodes, inside the disc otherwise
    rho   : positive phasar-derivative values, one per boundary node
    """

    sigma: tuple[complex, ...]
    eta: tuple[complex, ...]
    rho: tuple[float, ...]
    k: int

    def __post_init__(self):
        sigma = tuple(complex(s) for s in self.sigma)
        eta = tuple(complex(e) for e in self.eta)
        rho = tuple(float(r) for r in self.rho)
        for name, values in (("sigma", sigma), ("eta", eta), ("rho", rho)):
            for j, v in enumerate(values):
                if not cmath.isfinite(v):
                    raise InvalidData(f"{name}[{j}] = {v} is not finite")
        n, k = len(sigma), self.k
        if len(eta) != n:
            raise InvalidData(f"{n} nodes but {len(eta)} target values")
        if not 0 <= k <= n or len(rho) != k:
            raise InvalidData(f"need one rho per boundary node: k={k}, len(rho)={len(rho)}")
        if n == 0:
            raise InvalidData("empty node list")
        projected_sigma, projected_eta = [], []
        for j in range(n):
            s, e = sigma[j], eta[j]
            if j < k:
                if abs(abs(s) - 1.0) > BOUNDARY_INPUT_TOL:
                    raise InvalidData(f"node {j}: |sigma| = {abs(s):.12g} is not on the unit circle")
                if abs(abs(e) - 1.0) > BOUNDARY_INPUT_TOL:
                    raise InvalidData(f"node {j}: |eta| = {abs(e):.12g} is not unimodular")
                s, e = _project_to_circle(s), _project_to_circle(e)
            else:
                if abs(s) >= 1.0:
                    raise InvalidData(f"node {j}: interior node has |sigma| = {abs(s):.12g} >= 1")
                if abs(e) >= 1.0:
                    raise InvalidData(f"node {j}: interior target has |eta| = {abs(e):.12g} >= 1")
            projected_sigma.append(s)
            projected_eta.append(e)
        for j in range(n):
            for i in range(j):
                if abs(projected_sigma[i] - projected_sigma[j]) <= 1e-12:
                    raise InvalidData(f"nodes {i} and {j} coincide")
        for j, r in enumerate(rho):
            if not r > 0:
                raise InvalidData(f"rho[{j}] = {r} must be strictly positive")
        object.__setattr__(self, "sigma", tuple(projected_sigma))
        object.__setattr__(self, "eta", tuple(projected_eta))
        object.__setattr__(self, "rho", rho)

    @property
    def n(self) -> int:
        return len(self.sigma)

    def to_json_dict(self) -> dict:
        nodes = []
        for j in range(self.n):
            nodes.append(
                {
                    "sigma": [self.sigma[j].real, self.sigma[j].imag],
                    "eta": [self.eta[j].real, self.eta[j].imag],
                    "rho": self.rho[j] if j < self.k else None,
                }
            )
        return {"nodes": nodes}

    @classmethod
    def from_json_dict(cls, obj) -> "BlaschkeData":
        """Load from the node-list schema; boundary nodes are exactly those with a rho.

        Nodes may arrive in any order and are reordered boundary-first,
        preserving relative order within each group.
        """
        if not isinstance(obj, dict) or "nodes" not in obj or not isinstance(obj["nodes"], list):
            raise InvalidData('expected an object with a "nodes" list')
        if len(obj["nodes"]) == 0:
            raise InvalidData("empty node list")
        boundary, interior = [], []
        for idx, node in enumerate(obj["nodes"]):
            try:
                s = complex(node["sigma"][0], node["sigma"][1])
                e = complex(node["eta"][0], node["eta"][1])
            except (KeyError, TypeError, IndexError) as exc:
                raise InvalidData(f"node {idx}: malformed sigma/eta ({exc})") from exc
            try:
                r = None if node.get("rho") is None else float(node["rho"])
            except (TypeError, ValueError) as exc:
                raise InvalidData(f"node {idx}: malformed rho ({exc})") from exc
            on_circle = abs(abs(s) - 1.0) <= BOUNDARY_INPUT_TOL
            if r is None and on_circle:
                raise InvalidData(f"node {idx}: |sigma| = 1 requires a rho value")
            if r is not None and not on_circle:
                raise InvalidData(f"node {idx}: rho given but |sigma| = {abs(s):.12g} is not 1")
            if r is None:
                interior.append((s, e))
            else:
                boundary.append((s, e, r))
        sigma = [b[0] for b in boundary] + [i[0] for i in interior]
        eta = [b[1] for b in boundary] + [i[1] for i in interior]
        rho = [b[2] for b in boundary]
        return cls(tuple(sigma), tuple(eta), tuple(rho), k=len(boundary))

    def canonical_digest(self) -> str:
        """A short hash of the serialized data, computed once per data object."""
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        payload = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class PickMatrix:
    """Hermitian Pick matrix; the minimum eigenvalue is cached at construction,
    the lower Cholesky factor on first use, and the kernel solves at each base
    point by :func:`kernel_solves`."""

    entries: np.ndarray
    min_eigenvalue: float
    _kernel_solves: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @functools.cached_property
    def cholesky_factor(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.entries)
        except np.linalg.LinAlgError as exc:
            raise SingularPick(f"Cholesky factorization failed: {exc}") from exc


@dataclass(frozen=True)
class PositivityResult:
    kind: str  # "definite" | "semidefinite" | "indefinite"
    min_eigenvalue: float
    rank: int


@dataclass(frozen=True)
class ExceptionalSet:
    """Parameters zeta for which the augmented problem degenerates.

    ``pairs`` holds, per boundary node j, the scalars (alpha_j, beta_j) of the
    defining equation alpha_j = zeta * beta_j; when both vanish for some node
    the whole circle is exceptional.
    """

    points: tuple[complex, ...]
    whole_circle: bool
    pairs: tuple[tuple[complex, complex], ...] = field(default=())


def build_pick_matrix(data: BlaschkeData) -> PickMatrix:
    """Pick matrix with entries (1 - conj(eta_i) eta_j)/(1 - conj(sigma_i) sigma_j),
    replaced by rho_i on the diagonal of the boundary block."""
    n, k = data.n, data.k
    m = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == j and i < k:
                m[i, j] = data.rho[i]
                continue
            den = 1.0 - np.conj(data.sigma[i]) * data.sigma[j]
            if i != j and abs(den) < TRIM_TOL:
                raise DegenerateData(f"nodes {i} and {j}: 1 - conj(sigma_i) sigma_j vanishes")
            m[i, j] = (1.0 - np.conj(data.eta[i]) * data.eta[j]) / den
    m = 0.5 * (m + m.conj().T)
    m.setflags(write=False)
    min_eig = float(np.linalg.eigvalsh(m)[0])
    return PickMatrix(entries=m, min_eigenvalue=min_eig)


def check_positive_definite(M: PickMatrix) -> PositivityResult:
    """Classify by the cached minimum eigenvalue against ``PD_TOL``; for a
    matrix that is not definite, rank counts the eigenvalues above it."""
    min_eig = M.min_eigenvalue
    if min_eig > PD_TOL:
        return PositivityResult("definite", min_eig, M.n)
    rank = int(np.count_nonzero(np.linalg.eigvalsh(M.entries) > PD_TOL))
    kind = "semidefinite" if min_eig >= -PD_TOL else "indefinite"
    return PositivityResult(kind, min_eig, rank)


def solve_pd(M: PickMatrix, rhs: np.ndarray) -> np.ndarray:
    """Apply the inverse of a positive definite ``M`` through its cached Cholesky factor."""
    if M.min_eigenvalue <= PD_TOL:
        raise SingularPick(f"Pick matrix fails Cholesky at PD_TOL: min eigenvalue {M.min_eigenvalue:.3e}")
    lower = M.cholesky_factor
    y = np.linalg.solve(lower, rhs)
    return np.linalg.solve(lower.conj().T, y)


def kernel_solves(
    M: PickMatrix, data: BlaschkeData, tau: complex
) -> tuple[np.ndarray, np.ndarray, ExceptionalSet]:
    """The kernel solves wx = M^-1 x_tau and wy = M^-1 y_tau, and the
    exceptional set they define; solved once per (data, tau), as the two
    columns of one solve, and kept on ``M``.

    The Szego-kernel columns are x_tau = 1/(1 - conj(sigma) tau) and
    y_tau = conj(eta) x_tau, entrywise.

    With the inner product <u, v> = sum u_i conj(v_i), the exceptional
    parameters solve alpha_j = zeta * beta_j for the j-th entries alpha_j of wx
    and beta_j of wy, per boundary node, keeping unimodular solutions.  If both
    vanish for some node the whole circle is exceptional.
    """
    key = (data, complex(tau))
    if key in M._kernel_solves:
        return M._kernel_solves[key]
    dens = 1.0 - np.conj(np.array(data.sigma)) * complex(tau)
    if np.min(np.abs(dens)) < TRIM_TOL:
        raise PoleAtNode(f"tau = {tau} coincides with a kernel pole 1/conj(sigma_j)")
    x = 1.0 / dens
    solved = solve_pd(M, np.column_stack((x, np.conj(np.array(data.eta)) * x)))
    solved.setflags(write=False)
    wx, wy = solved.T
    scale = max(1.0, float(np.max(np.abs(solved))))
    points: list[complex] = []
    pairs = [(complex(alpha), complex(beta)) for alpha, beta in solved[: data.k]]
    whole = False
    for alpha, beta in pairs:
        if abs(alpha) <= TRIM_TOL * scale and abs(beta) <= TRIM_TOL * scale:
            whole = True
            continue
        if abs(beta) <= TRIM_TOL * scale:
            continue
        zeta = alpha / beta
        if abs(abs(zeta) - 1.0) <= RESIDUAL_TOL:
            zeta = _project_to_circle(zeta)
            if all(abs(zeta - q) > ROOT_CLUSTER_TOL for q in points):
                points.append(zeta)
    M._kernel_solves[key] = wx, wy, ExceptionalSet(points=tuple(points), whole_circle=whole, pairs=tuple(pairs))
    return M._kernel_solves[key]


def exceptional_set(M: PickMatrix, data: BlaschkeData, tau: complex) -> ExceptionalSet:
    """Parameters zeta for which the augmented problem degenerates at base point tau."""
    return kernel_solves(M, data, tau)[2]


def tau_candidate(m: int) -> complex:
    """m-th point of the deterministic golden-ratio sequence, exactly unimodular."""
    frac = (m * _GOLDEN_FRAC) % 1.0
    return _project_to_circle(complex(np.exp(2j * np.pi * frac)))


def choose_tau(M: PickMatrix, data: BlaschkeData) -> complex:
    """First point of the golden-ratio circle sequence that is a usable base point.

    Usable means: distance above MIN_TAU_NODE_DISTANCE from every boundary
    node, and a finite exceptional set.  The sequence is fixed, so identical
    data always get the identical base point.
    """
    boundary = data.sigma[: data.k]
    for m in range(1, 1 + MAX_TAU_CANDIDATES):
        tau = tau_candidate(m)
        if boundary and min(abs(tau - s) for s in boundary) <= MIN_TAU_NODE_DISTANCE:
            continue
        # without boundary nodes the exceptional set is empty
        if data.k and exceptional_set(M, data, tau).whole_circle:
            continue
        return tau
    raise NoSuitableTau(f"no usable base point among {MAX_TAU_CANDIDATES} candidates")
