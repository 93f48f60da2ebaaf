"""Base values (s0, p0) of the maps with prescribed royal nodes: the
defining identity s0 a - 2 b + 2 p0 c - s0 d = 0 on the distinguished
boundary, solved for a unique pair or a one-parameter family of them."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blaschke import Parametrization
from .errors import InvalidData
from .pick import BlaschkeData
from .polyrat import PD_TOL, RESIDUAL_TOL, TRIM_TOL


class FamilyMember(NamedTuple):
    omega: complex | None
    t: float | None
    s0: complex
    p0: complex


@dataclass(frozen=True)
class S0P0Solution:
    """Outcome of the base-value solve: a unique pair, a one-parameter family,
    or no admissible pair at all.

    ``row`` holds the single scalar equation c*u + g*v + b = 0 (u = omega^2,
    v = t*omega) in the family case.  ``residual`` is the least-squares or
    constraint-violation size backing a "none" verdict.
    """

    kind: str  # "unique" | "family" | "none"
    residual: float
    s0: complex | None = None
    p0: complex | None = None
    omega: complex | None = None
    t: float | None = None
    row: tuple[complex, complex, complex] | None = None
    singular_values: tuple[float, ...] = ()
    notes: tuple[str, ...] = ()

    def member(self, omega: complex) -> FamilyMember | None:
        """Family member at a unimodular omega, or None when omega is zero or
        not finite, or when t fails to be real in (-1, 1) there: the batch of
        one of :meth:`members`."""
        found = self.members([complex(omega)])
        return FamilyMember(*(part.item() for part in found)) if found.omega.size else None

    def members(self, omegas) -> FamilyMember:
        """The members :meth:`member` gives at the parameters ``omegas``, in
        order, as arrays (omega, t, s0, p0) over the accepted parameters, in
        one elementwise array pass."""
        if self.kind != "family":
            raise ValueError("members() applies to family solutions only")
        omegas = np.asarray(omegas, dtype=complex)
        c, g, b = self.row
        if abs(g) <= TRIM_TOL * max(abs(c), abs(g), abs(b), 1.0):
            omegas = omegas[:0]
        omegas = omegas[(omegas != 0) & np.isfinite(omegas)]
        omega = omegas / np.abs(omegas)
        u = omega * omega
        # v = -(c u + b)/g, and t = v conj(omega) must be real in (-1, 1)
        t_complex = -(c * u + b) / g * np.conj(omega)
        t = t_complex.real
        accepted = ~(np.abs(t_complex.imag) > RESIDUAL_TOL) & ~(np.abs(t) >= 1.0)
        omega, t, u = omega[accepted], t[accepted], u[accepted]
        return FamilyMember(omega, t, 2.0 * t * omega, u)


def solve_s0_p0(param: Parametrization, data: BlaschkeData) -> S0P0Solution:
    """Solve for base values (s0, p0) on the distinguished boundary with |s0| < 2.

    Writing s0 = 2 t omega, p0 = omega^2, the degree-(n-1) coefficient
    polynomials of the defining identity stack into an n x 3 system
    [Q_c | Q_g | Q_b] in the unknowns u = omega^2, v = t omega.  Rank
    decisions use singular values against PD_TOL times the largest one;
    near-threshold values are reported in ``notes`` rather than silently
    resolved.

    The system never vanishes, so its largest singular value is positive, its
    rank is at least one, and no family leaves every admissible pair free.
    Each column is a kernel numerator sum_i conj(w_i) P_i, a combination of
    the partial products P_i = prod_{l != i} (1 - conj(sigma_l) lambda),
    which are linearly independent for distinct nodes.  So Q_b = n_xy
    vanishes only if wy = M^-1 y_tau does, that is only if
    y_tau = conj(eta) x_tau is 0.  Every entry 1/(1 - conj(sigma_j) tau) of
    x_tau is nonzero, so then every eta_j is 0, n_yy vanishes too, and
    Q_g = n_xx + n_yy = n_xx is nonzero because wx = M^-1 x_tau is.
    """
    if param.data_hash != data.canonical_digest():
        raise InvalidData("parametrization was built from different interpolation data")
    n_xx, n_xy, n_yx, n_yy = param.kernel_numerators
    q_g = n_xx + n_yy
    stacked = np.column_stack([poly.padded(data.n) for poly in (n_yx, q_g, n_xy)])

    sv_full = np.linalg.svd(stacked, compute_uv=False)
    scale = float(sv_full[0])
    solution = functools.partial(S0P0Solution, singular_values=tuple(float(s) for s in sv_full))
    thr = PD_TOL * scale
    notes = tuple(
        f"singular value {float(s):.3e} is near the rank threshold {thr:.3e}"
        for s in sv_full
        if thr / 10.0 < float(s) < thr * 10.0
    )
    solution = functools.partial(solution, notes=notes)
    rank_full = int(np.count_nonzero(sv_full > thr))

    lhs = stacked[:, :2]
    rhs = -stacked[:, 2]
    sv_lhs = np.linalg.svd(lhs, compute_uv=False)
    rank_lhs = int(np.count_nonzero(sv_lhs > thr))

    if rank_lhs == 0:
        return solution(kind="none", residual=float(np.linalg.norm(rhs)) / scale)
    if rank_lhs == 1:
        if rank_full >= 2:
            sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=PD_TOL)
            return solution(kind="none", residual=float(np.linalg.norm(lhs @ sol - rhs)) / scale)
        idx = int(np.argmax(np.linalg.norm(stacked, axis=1)))
        c, g, b = (complex(stacked[idx, j]) for j in range(3))
        return solution(kind="family", residual=0.0, row=(c, g, b))

    # full-rank left-hand side: at most one candidate pair
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    u, v = complex(sol[0]), complex(sol[1])
    res = float(np.linalg.norm(lhs @ sol - rhs)) / scale
    if res > RESIDUAL_TOL:
        return solution(kind="none", residual=res)
    unimodularity = abs(abs(u) - 1.0)
    if unimodularity > RESIDUAL_TOL:
        return solution(
            kind="none", residual=max(res, unimodularity),
            notes=notes + (f"unique candidate has |omega^2| = {abs(u):.12g}",),
        )
    omega = complex(np.sqrt(u / abs(u)))
    t_complex = v * np.conj(omega)
    if abs(t_complex.imag) > RESIDUAL_TOL:
        return solution(
            kind="none", residual=max(res, abs(t_complex.imag)),
            notes=notes + ("unique candidate has non-real t",),
        )
    t = float(t_complex.real)
    if abs(t) >= 1.0:
        return solution(
            kind="none", residual=max(res, abs(t) - 1.0),
            notes=notes + (f"unique candidate has |t| = {abs(t):.12g} >= 1",),
        )
    return solution(kind="unique", residual=res, s0=2.0 * t * omega, p0=u / abs(u), omega=omega, t=t)
