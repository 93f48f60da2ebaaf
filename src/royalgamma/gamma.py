"""Geometry of the symmetrized bidisc and construction of rational maps into it
with prescribed royal nodes, values and boundary phasar derivatives.

The closed symmetrized bidisc is {(z+w, zw) : |z| <= 1, |w| <= 1}; its
distinguished boundary is cut out by |s| <= 2, |p| = 1, s = conj(s) p.  A map
h = (s, p) lands on the royal variety s^2 = 4p at its royal nodes; prescribing
those nodes, the values there and the phasar derivative of p at boundary nodes
determines h up to (at most) one unimodular parameter, which this module
solves for explicitly.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .blaschke import (
    Parametrization,
    build_parametrization,
    circle_grid,
    phasar_derivative,
    phasar_from_values,
)
from .errors import (
    DenominatorZeroInDisc,
    InvalidData,
    MultiplicityAboveOne,
    NumericalFailure,
    PreconditionViolated,
    RoyalGammaError,
    RoyalRange,
    SingularPoint,
    ZeroOrPoleAtPoint,
)
from .pick import (
    BlaschkeData,
    PositivityResult,
    build_pick_matrix,
    check_positive_definite,
    choose_tau,
)
from .polyrat import (
    PD_TOL,
    RESIDUAL_TOL,
    ROOT_CLUSTER_TOL,
    TRIM_TOL,
    Poly,
    RationalFn,
    joint_reduce_many,
    poly_eval,
    poly_eval_compensated,
    poly_eval_many,
    poly_roots,
    poly_roots_many,
    rat_reduce,
)

__all__ = [
    "GammaPoint",
    "PointClass",
    "classify_point",
    "phi_omega",
    "compose_phi_omega",
    "GammaInnerFn",
    "RoyalData",
    "FamilyMember",
    "S0P0Solution",
    "VerificationReport",
    "RoyalSolution",
    "RoyalPipelineResult",
    "solve_s0_p0",
    "construct_h",
    "royal_nodes",
    "extract_royal_data",
    "verify_royal_solution",
    "generate_h_nu",
    "solve_royal_problem",
    "gamma_inner_distance",
]


class GammaPoint(NamedTuple):
    s: complex
    p: complex


class PointClass(enum.Enum):
    INTERIOR_G = "interior_G"
    BOUNDARY_GAMMA = "boundary_Gamma"
    DISTINGUISHED_BGAMMA = "distinguished_bGamma"
    OUTSIDE = "outside"


def classify_point(pt) -> PointClass:
    """Membership test for the symmetrized bidisc.

    (s, p) lies in the closed set iff |s| <= 2 and |s - conj(s) p| <= 1 - |p|^2;
    it lies on the distinguished boundary iff additionally |p| = 1 and
    s = conj(s) p.  Strict inequalities with margin classify the interior.
    """
    s, p = complex(pt[0]), complex(pt[1])
    t = RESIDUAL_TOL
    sym = abs(s - np.conj(s) * p)
    if abs(abs(p) - 1.0) <= t and sym <= t and abs(s) <= 2.0 + t:
        return PointClass.DISTINGUISHED_BGAMMA
    slack = 1.0 - abs(p) ** 2
    if abs(s) <= 2.0 + t and sym <= slack + t:
        if abs(s) < 2.0 - t and sym < slack - t:
            return PointClass.INTERIOR_G
        return PointClass.BOUNDARY_GAMMA
    return PointClass.OUTSIDE


def phi_omega(omega: complex, pt) -> complex:
    """The linear-fractional functional (2 omega p - s)/(2 - omega s)."""
    s, p = complex(pt[0]), complex(pt[1])
    omega = complex(omega)
    den = 2.0 - omega * s
    if abs(den) < TRIM_TOL * max(1.0, abs(s)):
        raise SingularPoint(f"(s, p) sits at the singularity of the omega = {omega} functional")
    return (2.0 * omega * p - s) / den


@dataclass(frozen=True, eq=False)
class GammaInnerFn:
    """Pair of rational functions (s, p) over one shared denominator.

    Invariants (validated by :meth:`from_numerators`): the denominator has no
    zeros in the closed unit disc, and on the circle |p| = 1, s = conj(s) p
    and |s| <= 2 hold within the residual tolerance.  Each fact about the map
    below is computed at most once.
    """

    s: RationalFn
    p: RationalFn

    @property
    def den(self) -> Poly:
        return self.p.den

    @functools.cached_property
    def denominator_min_root_modulus(self) -> float:
        """Smallest modulus of a root of the shared denominator; inf if constant."""
        if self.den.degree < 1:
            return float("inf")
        return min(abs(rc.value) for rc in poly_roots(self.den))

    @functools.cached_property
    def circle_residuals(self) -> tuple[float, float, float]:
        """| |p| - 1 |, |s - conj(s) p| and |s| - 2, each at its maximum over a 256-point circle grid."""
        grid = circle_grid(256)
        dv = poly_eval(self.den, grid)
        sv = poly_eval(self.s.num, grid) / dv
        pv = poly_eval(self.p.num, grid) / dv
        return (
            float(np.max(np.abs(np.abs(pv) - 1.0))),
            float(np.max(np.abs(sv - np.conj(sv) * pv))),
            float(np.max(np.abs(sv)) - 2.0),
        )

    @functools.cached_property
    def royal(self) -> tuple[Poly, float]:
        """The royal polynomial and its scale, as :func:`royal_polynomial` returns them."""
        return royal_polynomial(self)

    @functools.cached_property
    def royal_range(self) -> bool:
        """Whether s^2 - 4p vanishes identically, i.e. the map sends the disc
        into the royal variety."""
        royal, scale = self.royal
        return royal.is_zero or _coeff_max(royal) <= 100 * TRIM_TOL * scale

    @property
    def degree(self) -> int:
        return self.p.degree

    def __call__(self, z) -> GammaPoint:
        return GammaPoint(self.s(z), self.p(z))

    @classmethod
    def from_numerators(cls, num_s: Poly, num_p: Poly, den: Poly) -> "GammaInnerFn":
        """Build from the shared-denominator representation.

        Joint reduction cancels a denominator root only when both numerators
        share it; the denominator is then made monic and the map validated.
        This is the one-map call of the batch a family is built with.
        """
        return _raised(_maps_from_numerators([(num_s, num_p, den)])[0])

    def to_json_dict(self) -> dict:
        return {
            "s": self.s.to_json_dict(),
            "p": self.p.to_json_dict(),
            "degree": self.degree,
        }

    @classmethod
    def from_json_dict(cls, obj) -> "GammaInnerFn":
        try:
            for pair in obj["s"]["num"] + obj["s"]["den"] + obj["p"]["num"] + obj["p"]["den"]:
                if not np.isfinite(complex(*pair)):
                    raise InvalidData(f"map coefficient {pair} is not finite")
            s = RationalFn.from_json_dict(obj["s"])
            p = RationalFn.from_json_dict(obj["p"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidData(f"malformed map: {exc}") from exc
        n = max(s.den.coeffs.size, p.den.coeffs.size)
        pad_s, pad_p = s.den.padded(n), p.den.padded(n)
        scale = max(1.0, float(np.max(np.abs(pad_p))))
        if np.max(np.abs(pad_s - pad_p)) > 1e-9 * scale:
            raise InvalidData("components do not share a common denominator")
        try:
            return cls.from_numerators(s.num, p.num, p.den)
        except RoyalGammaError as exc:
            raise InvalidData(f"not a valid map into the symmetrized bidisc: {exc}") from exc


def _coeff_max(p: Poly) -> float:
    if p.is_zero:
        return 0.0
    return float(np.max(np.abs(p.coeffs)))


def _raised(outcome):
    """The map of a one-element batch, or its error raised."""
    if isinstance(outcome, RoyalGammaError):
        raise outcome
    return outcome


def _attempt(step, *args):
    """``step(*args)``, or the package error it raises."""
    try:
        return step(*args)
    except RoyalGammaError as exc:
        return exc


def _maps_from_numerators(triples: Sequence[tuple[Poly, Poly, Poly]]) -> list[GammaInnerFn | RoyalGammaError]:
    """:meth:`GammaInnerFn.from_numerators` of each (num_s, num_p, den), or
    its error: one ``poly_roots_many`` call finds the roots of every joint
    reduction, and one those of every monic denominator."""
    if any(den.is_zero for _, _, den in triples):
        raise ZeroDivisionError("shared denominator is the zero polynomial")
    maps = []
    for (num_s, num_p), den in joint_reduce_many([((num_s, num_p), den) for num_s, num_p, den in triples]):
        lead = den.leading
        num_s, num_p, den = num_s / lead, num_p / lead, den / lead
        maps.append(GammaInnerFn(s=RationalFn(num_s, den), p=RationalFn(num_p, den)))
    found = iter(poly_roots_many([h.den for h in maps if h.den.degree >= 1]))
    for h in maps:
        if h.den.degree >= 1:
            # fills the cached property with what its own poly_roots call gives
            vars(h)["denominator_min_root_modulus"] = min(abs(rc.value) for rc in next(found))
    return [_attempt(_validate_gamma_inner, h) for h in maps]


def _validate_gamma_inner(h: GammaInnerFn) -> GammaInnerFn:
    min_mod = h.denominator_min_root_modulus
    if min_mod <= 1.0 + ROOT_CLUSTER_TOL:
        raise DenominatorZeroInDisc(f"denominator root of modulus {min_mod:.12g} in the closed disc")
    p_uni, sym, s_excess = h.circle_residuals
    if p_uni > RESIDUAL_TOL or sym > RESIDUAL_TOL or s_excess > RESIDUAL_TOL:
        raise NumericalFailure(
            f"boundary identities violated: | |p|-1 | = {p_uni:.3e}, "
            f"|s - conj(s) p| = {sym:.3e}, |s| - 2 = {s_excess:.3e}"
        )
    return h


def royal_polynomial(h: GammaInnerFn) -> tuple[Poly, float]:
    """Numerator of s^2 - 4p over the shared denominator, with its natural scale."""
    num_s, num_p, den = h.s.num, h.p.num, h.den
    ss = num_s * num_s
    pd4 = 4.0 * (num_p * den)
    scale = max(_coeff_max(ss), _coeff_max(pd4), 1e-300)
    return ss - pd4, scale


def compose_phi_omega(omega: complex, h: GammaInnerFn) -> RationalFn:
    """The rational function (2 omega p - s)/(2 - omega s), reduced."""
    omega = complex(omega)
    return rat_reduce(RationalFn(2.0 * omega * h.p.num - h.s.num, 2.0 * h.den - omega * h.s.num))


@dataclass(frozen=True)
class RoyalData:
    """Royal nodes of a map, boundary nodes first, with values and multiplicities.

    Boundary multiplicity is half the order of the corresponding zero of the
    royal polynomial; the type pair records (total multiplicity in the closed
    disc, multiplicity on the circle).
    """

    nodes: tuple[tuple[complex, int], ...]
    values: tuple[complex, ...]
    boundary_rho: tuple[float, ...]
    type_pair: tuple[int, int]

    @property
    def boundary_count(self) -> int:
        return self.type_pair[1]


def _angle_key(z: complex) -> float:
    return float(np.angle(z) % (2.0 * np.pi))


def royal_nodes(h: GammaInnerFn) -> RoyalData:
    """Locate the royal nodes of ``h`` inside the closed disc.

    Zeros of the royal polynomial within 10 * ROOT_CLUSTER_TOL of the circle
    are snapped onto it and must have even order (half of which is the royal
    multiplicity); the multiplicities over the closed disc must sum to the
    degree of the map.

    Raises RoyalRange when s^2 - 4p vanishes identically: then every point of
    the disc is royal and enumeration is meaningless.
    """
    if h.royal_range:
        raise RoyalRange("s^2 - 4p vanishes identically; the map sends the disc into the royal variety")
    snap_band = 10.0 * ROOT_CLUSTER_TOL
    boundary: list[tuple[complex, int]] = []
    interior: list[tuple[complex, int]] = []
    for rc in poly_roots(h.royal[0]):
        mod = abs(rc.value)
        if abs(mod - 1.0) <= snap_band:
            if rc.multiplicity % 2 != 0:
                raise NumericalFailure(
                    f"royal zero {rc.value} on the circle has odd order {rc.multiplicity}"
                )
            boundary.append((rc.value / mod, rc.multiplicity // 2))
        elif mod < 1.0:
            interior.append((rc.value, rc.multiplicity))
    boundary.sort(key=lambda item: _angle_key(item[0]))
    interior.sort(key=lambda item: (_angle_key(item[0]), abs(item[0])))

    k = sum(m for _, m in boundary)
    n = k + sum(m for _, m in interior)
    if n != h.degree:
        raise NumericalFailure(
            f"royal multiplicities in the closed disc sum to {n}, expected the degree {h.degree}"
        )

    nodes = tuple(boundary + interior)
    values = []
    rho = []
    for idx, (node, _mult) in enumerate(nodes):
        eta = -h.s(node) / 2.0
        on_circle = idx < len(boundary)
        if on_circle:
            if abs(abs(eta) - 1.0) > RESIDUAL_TOL:
                raise NumericalFailure(f"royal value at boundary node {node} has modulus {abs(eta):.12g}")
            eta = eta / abs(eta)
        square_gap = abs(h.p(node) - eta * eta)
        if square_gap > RESIDUAL_TOL:
            raise NumericalFailure(f"p(node) != value^2 at {node}: off by {square_gap:.3e}")
        values.append(eta)
        if on_circle:
            rho.append(0.5 * float(phasar_derivative(h.p, node)))
    return RoyalData(
        nodes=nodes,
        values=tuple(values),
        boundary_rho=tuple(rho),
        type_pair=(n, k),
    )


def extract_royal_data(h: GammaInnerFn) -> BlaschkeData:
    """Interpolation data read off a map: nodes, values, and half the phasar
    derivative of p at each boundary node.  All multiplicities must be one."""
    rd = royal_nodes(h)
    if any(m > 1 for _, m in rd.nodes):
        worst = max(m for _, m in rd.nodes)
        raise MultiplicityAboveOne(f"royal node of multiplicity {worst}; only simple nodes are supported")
    sigma = tuple(node for node, _ in rd.nodes)
    return BlaschkeData(sigma=sigma, eta=rd.values, rho=rd.boundary_rho, k=rd.boundary_count)


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
        """Family member at a unimodular omega, or None when t fails to be
        real in (-1, 1) there."""
        if self.kind != "family":
            raise ValueError("member() applies to family solutions only")
        omega = complex(omega)
        omega = omega / abs(omega)
        u = omega * omega
        c, g, b = self.row
        row_scale = max(abs(c), abs(g), abs(b), 1.0)
        if abs(g) <= TRIM_TOL * row_scale:
            return None
        v = -(c * u + b) / g
        t_complex = v * np.conj(omega)
        if abs(t_complex.imag) > RESIDUAL_TOL:
            return None
        t = float(t_complex.real)
        if abs(t) >= 1.0:
            return None
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


def construct_h(param: Parametrization, s0: complex, p0: complex) -> GammaInnerFn:
    """Assemble the map with base values (s0, p0) from the parametrization:

        s = 2 (2 p0 c - s0 d)/(s0 c - 2 d),  p = (-2 p0 a + s0 b)/(s0 c - 2 d).

    The inputs must satisfy |p0| = 1, s0 = conj(s0) p0, |s0| < 2 and the
    defining identity s0 a - 2 b + 2 p0 c - s0 d = 0 within tolerance.  This
    is the one-member call of the batch a family is built with.
    """
    return _raised(_construct_many(param, [(s0, p0)])[0])


def _construct_many(param: Parametrization, base_values) -> list[GammaInnerFn | RoyalGammaError]:
    """:func:`construct_h` of each (s0, p0), or the error that rejects it."""
    admitted = [_attempt(_admit, param, s0, p0) for s0, p0 in base_values]
    built = iter(_maps_from_numerators([item[2] for item in admitted if not isinstance(item, RoyalGammaError)]))
    return [item if isinstance(item, RoyalGammaError) else _attempt(_anchored, param, next(built), *item[:2])
            for item in admitted]


def _admit(param: Parametrization, s0: complex, p0: complex):
    """The base values checked and normalized, with the numerators and
    denominator of their map."""
    s0, p0 = complex(s0), complex(p0)
    if abs(abs(p0) - 1.0) > RESIDUAL_TOL:
        raise PreconditionViolated(f"|p0| = {abs(p0):.12g} is not 1")
    p0 = p0 / abs(p0)
    if abs(s0) >= 2.0:
        raise PreconditionViolated(f"|s0| = {abs(s0):.12g} is not below 2")
    if abs(s0 - np.conj(s0) * p0) > RESIDUAL_TOL * max(1.0, abs(s0)):
        raise PreconditionViolated("s0 != conj(s0) p0: the pair is off the distinguished boundary")
    identity = s0 * param.a - 2.0 * param.b + 2.0 * p0 * param.c - s0 * param.d
    scale = max(_coeff_max(param.a), _coeff_max(param.b), _coeff_max(param.c), _coeff_max(param.d), 1.0)
    if _coeff_max(identity) > RESIDUAL_TOL * 4.0 * scale:
        raise PreconditionViolated(
            f"defining identity violated by {_coeff_max(identity):.3e} (scale {scale:.3e})"
        )

    num_s = 2.0 * (2.0 * p0 * param.c - s0 * param.d)
    num_p = -2.0 * p0 * param.a + s0 * param.b
    den = s0 * param.c - 2.0 * param.d
    return s0, p0, (num_s, num_p, den)


def _anchored(param: Parametrization, h: GammaInnerFn | RoyalGammaError, s0: complex, p0: complex) -> GammaInnerFn:
    """The built map, checked to leave the royal variety and to take its base values at tau."""
    h = _raised(h)
    if h.royal_range:
        raise RoyalRange("constructed map degenerates into the royal variety")
    anchor_gap = max(abs(h.s(param.tau) - s0), abs(h.p(param.tau) - p0))
    if anchor_gap > 1e-6:
        raise NumericalFailure(f"constructed map misses its base values by {anchor_gap:.3e}")
    return h


def generate_h_nu(nu: int, r: float) -> GammaInnerFn:
    """Test-generator family of degree 2 nu + 2 and type (2 nu + 2, 2 nu + 1):

        s = 2 (1 - r) lambda^(nu+1) / (1 + r lambda^(2 nu + 1)),
        p = lambda (lambda^(2 nu + 1) + r) / (1 + r lambda^(2 nu + 1)).

    Boundary royal nodes are the (2 nu + 1)-th roots of -1, plus a simple
    interior node at 0.
    """
    if nu < 0 or not isinstance(nu, (int, np.integer)):
        raise InvalidData("nu must be a non-negative integer")
    if not 0.0 < r < 1.0:
        raise InvalidData("r must lie strictly between 0 and 1")
    m = 2 * nu + 1
    den = np.zeros(m + 1, dtype=complex)
    den[0], den[m] = 1.0, r
    num_s = np.zeros(nu + 2, dtype=complex)
    num_s[nu + 1] = 2.0 * (1.0 - r)
    num_p = np.zeros(m + 2, dtype=complex)
    num_p[1], num_p[m + 1] = r, 1.0
    return GammaInnerFn.from_numerators(Poly(num_s), Poly(num_p), Poly(den))


@dataclass(frozen=True)
class VerificationReport:
    """Named residuals for every checkable property of a candidate solution."""

    residuals: dict
    degree_expected: int
    degree_actual: int
    denominator_min_root_modulus: float
    royal_range: bool
    passed: bool
    failures: tuple[str, ...]
    pass_tol: float

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "degree": {"expected": self.degree_expected, "actual": self.degree_actual},
            "denominator_min_root_modulus": float(self.denominator_min_root_modulus),
            "royal_range": self.royal_range,
            "failures": list(self.failures),
            "pass_tol": self.pass_tol,
        }


def _phi_check_omegas(s_at_nodes: np.ndarray, data: BlaschkeData) -> np.ndarray:
    """Eight deterministic probe points staying away from the removable
    singularities -conj(eta_j) and from near-poles of the composed function,
    given s at the nodes.

    A rigid comb of eight is turned in 300 small steps; where no turn clears
    every singularity (from nine boundary nodes on it cannot), each probe
    goes on its own into the widest gaps between the singularities."""
    forbidden = [-np.conj(data.eta[j]) for j in range(data.k)]

    def clear(probes):
        ok = all(abs(w - f) > 0.05 for w in probes for f in forbidden)
        # keep |2 - omega s| bounded away from zero at every node
        return ok and bool(np.all(np.abs(2.0 - probes[:, None] * s_at_nodes[None, :]) > 0.02))

    for shift in range(300):
        probes = np.exp(1j * (np.pi * (2.0 * np.arange(8) + 1.0) / 8.0 + 0.0137 * shift))
        if clear(probes):
            return probes
    if forbidden:
        starts = np.sort(np.angle(forbidden) % (2.0 * np.pi))
        widths = np.diff(starts, append=starts[0] + 2.0 * np.pi)
        counts = np.zeros(starts.size, int)
        for _ in range(8):
            # the next probe splits the gap whose probes lie farthest apart
            counts[np.argmax(widths / (counts + 1))] += 1
        probes = np.exp(1j * np.concatenate([start + width * np.arange(1, count + 1) / (count + 1)
                                             for start, width, count in zip(starts, widths, counts)]))
        if clear(probes):
            return probes
    raise NumericalFailure("could not place probe points away from all singularities")


def verify_royal_solution(
    h: GammaInnerFn, data: BlaschkeData, *, pass_tol: float | None = None
) -> VerificationReport:
    """Structured residuals for every requirement the constructed map must meet.

    Checks, in order: interpolation of nodes and values, phasar derivative of
    p at boundary nodes, the three boundary identities on a 256-point circle
    grid, reduced degree, the linear-fractional cross-check at eight probe
    parameters, and the pole locations.  ``passed`` is true iff every
    residual is at most ``pass_tol`` (by default ``RESIDUAL_TOL``) and the
    structural checks hold.
    """
    pass_tol = RESIDUAL_TOL if pass_tol is None else float(pass_tol)
    sigma = np.array(data.sigma)
    eta = np.array(data.eta)
    polys = (h.s.num, h.p.num, h.den)
    num_s, num_p, den, d_num_s, d_num_p, d_den = poly_eval_many([*polys, *(q.derivative() for q in polys)], sigma)
    s_at_nodes, p_at_nodes = num_s / den, num_p / den
    residuals: dict[str, float] = {}
    failures: list[str] = []
    residuals["interp_s_max"] = float(np.max(np.abs(s_at_nodes + 2.0 * eta)))
    residuals["interp_p_max"] = float(np.max(np.abs(p_at_nodes - eta * eta)))
    if data.k:
        phasars = phasar_from_values(h.p, sigma[: data.k], [x[: data.k].tolist() for x in (num_p, den, d_num_p, d_den)])
        residuals["phasar_p_max"] = max([0.0, *(abs(float(ap) - 2.0 * rho) for ap, rho in zip(phasars, data.rho))])
    p_uni, sym, s_excess = h.circle_residuals
    residuals["circle_p_unimodular_max"] = p_uni
    residuals["circle_s_symmetry_max"] = sym
    residuals["circle_s_bound_excess"] = max(s_excess, 0.0)
    if h.degree != data.n:
        failures.append(f"degree {h.degree} != {data.n}")
    if h.royal_range:
        failures.append("royal_range")
    else:
        # compensated s and p keep their digits next to a denominator root; s', p' by the quotient rule
        acc_s, acc_p, acc_den = poly_eval_compensated(polys, sigma)
        s, p = acc_s / acc_den, acc_p / acc_den
        ds, dp = (d_num_s - s * d_den) / acc_den, (d_num_p - p * d_den) / acc_den
        try:
            probes = _phi_check_omegas(s_at_nodes, data)
            residuals.update(_crosscheck(probes, data, s, p, ds, dp))
        except RoyalGammaError as exc:
            failures.append(f"composed cross-check failed: {exc}")
    den_min = h.denominator_min_root_modulus
    if den_min <= 1.0:
        failures.append(f"denominator root of modulus {den_min:.12g} inside the closed disc")
    for name, value in residuals.items():
        if not value <= pass_tol:  # a NaN fails too
            failures.append(f"{name} = {value:.3e} exceeds {pass_tol:.1e}")
    return VerificationReport(
        residuals=residuals, degree_expected=data.n, degree_actual=h.degree,
        denominator_min_root_modulus=den_min, royal_range=h.royal_range,
        passed=not failures, failures=tuple(failures), pass_tol=pass_tol,
    )


def _crosscheck(probes: np.ndarray, data: BlaschkeData, s, p, ds, dp) -> dict[str, float]:
    """Residuals of (2 omega p - s)/(2 - omega s), one function per probe
    omega, from s, p, s' and p' at the nodes: with top = 2 omega p - s and
    bottom = 2 - omega s (both at most 4 in modulus), its value top/bottom
    should be eta_j, and its phasar derivative at a boundary node z, by the
    chain rule Re(z ((2 omega p' - s')/top + omega s'/bottom)), rho_j.  Raises
    at the first probe, and within it the first node, where bottom or (at a
    boundary node) top is at most 1e3 TRIM_TOL."""
    k = data.k
    omega = probes[:, None]
    top, bottom = 2.0 * omega * p - s, 2.0 - omega * s
    vanishes = (np.abs(top) <= 1e3 * TRIM_TOL) & (np.arange(top.shape[1]) < k)
    pole = np.abs(bottom) <= 1e3 * TRIM_TOL
    if np.any(vanishes | pole):
        probe, node = np.argwhere(vanishes | pole)[0]
        what = "vanishes" if vanishes[probe, node] else "has a pole"
        raise ZeroOrPoleAtPoint(f"function {what} at {complex(data.sigma[node])}")
    residuals = {"phi_omega_interp_max": float(np.max(np.abs(top / bottom - np.array(data.eta))))}
    if k:
        z = np.array(data.sigma[:k])
        phasar = z * ((2.0 * omega * dp[:k] - ds[:k]) / top[:, :k] + omega * ds[:k] / bottom[:, :k])
        residuals["phi_omega_phasar_max"] = float(np.max(np.abs(phasar.real - np.array(data.rho))))
    return residuals


@dataclass(frozen=True)
class RoyalSolution:
    omega: complex | None
    t: float | None
    s0: complex
    p0: complex
    h: GammaInnerFn
    report: VerificationReport


@dataclass(frozen=True)
class RoyalPipelineResult:
    status: str  # "solved" | "not_solvable"
    failed_step: int | None
    reason: str | None
    data: BlaschkeData
    positivity: PositivityResult | None = None
    parametrization: Parametrization | None = None
    s0p0: S0P0Solution | None = None
    solutions: tuple[RoyalSolution, ...] = ()
    skipped: tuple[str, ...] = ()

    @property
    def tau(self) -> complex | None:
        """The base point, as the parametrization holds it."""
        return None if self.parametrization is None else self.parametrization.tau

    @property
    def verified(self) -> tuple[RoyalSolution, ...]:
        return tuple(s for s in self.solutions if s.report.passed)


def solve_royal_problem(
    data: BlaschkeData,
    *,
    omega_grid: int = 256,
    extra_omegas_fn: Callable[[complex], tuple[complex, ...]] | None = None,
    pass_tol: float | None = None,
) -> RoyalPipelineResult:
    """End-to-end solve: Pick matrix, positivity, base point, parametrization,
    base values, construction, verification.

    A unique base-value pair gives one solution; a family is sampled on an
    ``omega_grid``-point circle grid, plus the parameters that
    ``extra_omegas_fn`` returns for the chosen base point (e.g. an exact
    parameter computed from a candidate solution)."""
    M = build_pick_matrix(data)
    positivity = check_positive_definite(M)
    result = functools.partial(RoyalPipelineResult, data=data, positivity=positivity)
    if positivity.kind != "definite":
        reason = f"Pick matrix is {positivity.kind} (min eigenvalue {positivity.min_eigenvalue:.6g})"
        return result("not_solvable", 1, reason)
    param = build_parametrization(M, data, choose_tau(M, data))
    s0p0 = solve_s0_p0(param, data)
    result = functools.partial(result, parametrization=param, s0p0=s0p0)
    if s0p0.kind == "none":
        return result("not_solvable", 3, f"no admissible base values (s0, p0); residual {s0p0.residual:.6g}")
    if s0p0.kind == "unique":
        members = [FamilyMember(s0p0.omega, s0p0.t, s0p0.s0, s0p0.p0)]
    else:
        omegas = list(circle_grid(omega_grid))
        if extra_omegas_fn is not None:
            omegas.extend(extra_omegas_fn(param.tau))
        members = []
        for omega in omegas:
            found = s0p0.member(omega)
            if found is not None:
                members.append(found)
    built: list[tuple[FamilyMember, GammaInnerFn]] = []
    skipped: list[str] = []
    for mem, h in zip(members, _construct_many(param, [(mem.s0, mem.p0) for mem in members])):
        if isinstance(h, RoyalGammaError):
            skipped.append(f"omega = {mem.omega}: {h}")
        else:
            built.append((mem, h))
    solutions = [RoyalSolution(mem.omega, mem.t, mem.s0, mem.p0, h, verify_royal_solution(h, data, pass_tol=pass_tol))
                 for mem, h in built]
    if not solutions:
        detail = "the family accepted no member with real t in (-1, 1) on the sampled grid"
        if skipped:
            detail = f"all accepted members failed construction: {'; '.join(skipped[:3])}"
        return result("not_solvable", 3, detail, skipped=tuple(skipped))
    return result("solved", None, None, solutions=tuple(solutions), skipped=tuple(skipped))


def gamma_inner_distance(h1: GammaInnerFn, h2: GammaInnerFn) -> float:
    """Max coefficient gap between the shared-denominator representations.

    Both maps are compared in the canonical (reduced, monic-denominator) form
    they are constructed in; maps of different degree are infinitely far apart.
    """
    if h1.degree != h2.degree:
        return float("inf")
    worst = 0.0
    for left, right in ((h1.s.num, h2.s.num), (h1.p.num, h2.p.num), (h1.den, h2.den)):
        size = max(left.coeffs.size, right.coeffs.size)
        if size:
            worst = max(worst, float(np.max(np.abs(left.padded(size) - right.padded(size)))))
    return worst
