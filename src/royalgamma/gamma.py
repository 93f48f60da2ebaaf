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

from .basevalues import FamilyMember, S0P0Solution, solve_s0_p0
from .blaschke import (
    Parametrization,
    _read_only_grid,
    build_parametrization,
    circle_grid,
    phasar_derivative,
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
)
from .pick import (
    BlaschkeData,
    PositivityResult,
    build_pick_matrix,
    check_positive_definite,
    choose_tau,
)
from .polyrat import (
    RESIDUAL_TOL,
    ROOT_CLUSTER_TOL,
    TRIM_TOL,
    Poly,
    RationalFn,
    _horner,
    _products,
    _stacked,
    _trimmed_sizes,
    joint_reduce,
    pole_margins,
    poly_roots,
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


# Members a solve builds and verifies in one array pass.  A pass holds a few
# kilobytes per member, so blocks of this many keep it small at any grid.
_BLOCK = 256


@dataclass(frozen=True, eq=False, slots=True)
class GammaInnerFn:
    """Pair of rational functions (s, p) over one shared denominator.

    Invariants (validated by :meth:`from_numerators` and construction, the
    two callers of one validator): the denominator has no zero in the closed
    disc of radius 1 + ``ROOT_CLUSTER_TOL`` (``pole_margin``, from the
    Schur–Cohn recursion of :func:`polyrat.pole_margins`, is positive; 1 if
    it is constant), and on the circle |p| = 1, s = conj(s) p and
    |s| <= 2 hold within the residual tolerance.  The builder computes each
    fact below once: ``circle_residuals`` are | |p| - 1 |, |s - conj(s) p|
    and |s| - 2, each at its maximum over a 256-point circle grid, and
    ``royal_range`` tells whether s^2 - 4p vanishes identically, i.e. the map
    sends the disc into the royal variety.
    """

    s: RationalFn
    p: RationalFn
    pole_margin: float
    circle_residuals: tuple[float, float, float]
    royal_range: bool

    @property
    def den(self) -> Poly:
        return self.p.den

    @property
    def degree(self) -> int:
        return self.p.degree

    def __call__(self, z) -> GammaPoint:
        return GammaPoint(self.s(z), self.p(z))

    @classmethod
    def from_numerators(cls, num_s: Poly, num_p: Poly, den: Poly) -> "GammaInnerFn":
        """Build from the shared-denominator representation.

        The input may share factors: :func:`polyrat.joint_reduce` cancels a
        denominator root both numerators share, and the reduced triple, after
        its royal-range test, is validated as a family's members are.
        """
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):  # a non-finite input fails validation
            (num_s, num_p), den = joint_reduce((num_s, num_p), den)
            rows, sizes = _rows_of((num_s, num_p, den))
            return _raised(_maps_from_numerators(rows, sizes, _royal_ranges(rows)).items[0])

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


def _rows_of(triple: tuple[Poly, Poly, Poly]) -> tuple[np.ndarray, np.ndarray]:
    """One map's (num_s, num_p, den) as the rows and sizes of a batch of one."""
    return _stacked(triple)[None], np.array([[q.coeffs.size for q in triple]])


def _raised(outcome):
    """The map of a one-element batch, or its error raised."""
    if isinstance(outcome, RoyalGammaError):
        raise outcome
    return outcome


class _Outcomes:
    """The outcome of each member of a batch, and the members still standing:
    a check rejects members with their error, and the rest go on to the next."""

    def __init__(self, count: int):
        self.items: list = [None] * count
        self.live = np.arange(count)

    def check(self, passed: np.ndarray, error: Callable[[int], RoyalGammaError]) -> np.ndarray:
        """Reject the live members where ``passed`` (over them) is false, each with
        ``error`` of its position among them; return ``passed``."""
        if not passed.all():
            for position in np.flatnonzero(~passed):
                self.items[self.live[position]] = error(position)
            self.live = self.live[passed]
        return passed

    def take(self, results: Sequence):
        """Record a result for each live member; those whose result is an error drop out."""
        for i, result in zip(self.live, results):
            self.items[i] = result
        self.live = self.live[[not isinstance(result, RoyalGammaError) for result in results]]


class _Block(NamedTuple):
    """The outcome of each member of a batch, a map or its error, and the
    maps' monic, trimmed (num_s, num_p, den) in the batch's order: ``rows``
    (maps x 3 x coefficients, zero beyond the lengths ``sizes``), as
    construction left them for the checks that read them."""

    items: list
    rows: np.ndarray
    sizes: np.ndarray


def _maps_from_numerators(rows: np.ndarray, sizes: np.ndarray, royal: np.ndarray) -> _Block:
    """The validated map of each member's reduced (num_s, num_p, den), the
    rows of ``rows`` (members x 3 x coefficients, zero beyond the lengths
    ``sizes``), or its error; ``royal`` is each map's royal-range test.

    The monic division and the trim are array passes, the pole test is one
    :func:`pole_margins` pass over the denominators, and the circle
    residuals a (members x points) pass over the members standing; only the
    maps that pass get their ``Poly`` triples, and their rows stay in the block."""
    if not sizes[:, 2].all():
        raise ZeroDivisionError("shared denominator is the zero polynomial")
    count, width = rows.shape[0], rows.shape[2]
    monic = rows / rows[np.arange(count), 2, sizes[:, 2] - 1][:, None, None]
    sizes = _trimmed_sizes(monic.reshape(-1, width), sizes.reshape(-1)).reshape(count, 3)
    monic[np.arange(width) >= sizes[:, :, None]] = 0.0
    margins = pole_margins(monic[:, 2], sizes[:, 2])
    out = _Outcomes(count)
    out.check(margins > 0.0, lambda i: DenominatorZeroInDisc(
        f"pole margin {margins[i]:.3e}: a denominator zero within radius 1 + ROOT_CLUSTER_TOL"))
    circle = _circle_residuals(monic[out.live])
    passed = out.check(np.all(circle <= RESIDUAL_TOL, axis=1), lambda i: NumericalFailure(
        "boundary identities violated: | |p|-1 | = {:.3e}, |s - conj(s) p| = {:.3e}, |s| - 2 = {:.3e}".format(*circle[i])))
    kept = sizes.tolist()
    for i, margin, residuals in zip(out.live.tolist(), margins[out.live].tolist(), circle[passed].tolist()):
        num_s, num_p, den = (Poly._untrimmed(part[:size].copy()) for part, size in zip(monic[i], kept[i]))
        out.items[i] = GammaInnerFn(RationalFn(num_s, den), RationalFn(num_p, den), margin, tuple(residuals),
                                    bool(royal[i]))
    return _Block(out.items, monic[out.live], sizes[out.live])


def _circle_residuals(coeffs: np.ndarray) -> np.ndarray:
    """| |p| - 1 |, |s - conj(s) p| and |s| - 2 of each map, the rows (num_s,
    num_p, den) of ``coeffs`` (maps x 3 x coefficients), each at its maximum
    over a 256-point circle grid: (maps x 3).  Eight maps at a time keep the
    (maps x points) arrays small: with chunks of 16, 32 or 256 maps the
    benchmark's seed-1 ``family`` pool pass took 26.4-27.0 ms at best of 15,
    against 21.6-22.4 ms with chunks of 8 (2 shared cores, numpy 2.4)."""
    out = np.empty((len(coeffs), 3))
    grid = _read_only_grid(circle_grid, 256)
    for start in range(0, len(coeffs), 8):
        chunk = coeffs[start:start + 8]
        values = _horner(chunk.reshape(-1, chunk.shape[2]), grid).reshape(len(chunk), 3, 256)
        quotients = values[:, :2] / values[:, 2:]
        sv, pv = quotients[:, 0], quotients[:, 1]
        out[start:start + 8, 0] = np.max(np.abs(np.abs(pv) - 1.0), axis=1)
        out[start:start + 8, 1] = np.max(np.abs(sv - np.conj(sv) * pv), axis=1)
        out[start:start + 8, 2] = np.max(np.abs(sv), axis=1) - 2.0
    return out


def _royal_ranges(coeffs: np.ndarray) -> np.ndarray:
    """Whether s^2 - 4p vanishes identically for each map, the rows (num_s,
    num_p, den) of ``coeffs`` (maps x 3 x coefficients): the largest
    coefficient of num_s^2 - 4 num_p den against the larger of the two
    products' largest coefficients."""
    products = _products(coeffs[:, :2], coeffs[:, 0::2])  # num_s num_s and num_p den
    ss, pd4 = products[:, 0], 4.0 * products[:, 1]
    scale = np.maximum(np.maximum(np.abs(ss).max(axis=1), np.abs(pd4).max(axis=1)), 1e-300)
    return np.abs(ss - pd4).max(axis=1) <= 100 * TRIM_TOL * scale


def royal_polynomial(h: GammaInnerFn) -> Poly:
    """Numerator of s^2 - 4p over the shared denominator."""
    num_s, num_p, den = h.s.num, h.p.num, h.den
    return num_s * num_s - 4.0 * (num_p * den)


def compose_phi_omega(omega: complex, h: GammaInnerFn) -> RationalFn:
    """The rational function (2 omega p - s)/(2 - omega s), reduced, with a
    monic denominator.  At omega = -conj(eta), eta the value at a boundary
    node, both vanish at the node: :func:`polyrat.joint_reduce` removes the singularity."""
    omega = complex(omega)
    (num,), den = joint_reduce((2.0 * omega * h.p.num - h.s.num,), 2.0 * h.den - omega * h.s.num)
    return RationalFn(num / den.leading, den / den.leading)


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
    for rc in poly_roots(royal_polynomial(h)):
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
            rho.append(0.5 * phasar_derivative(h.p, node))
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


def construct_h(param: Parametrization, s0: complex, p0: complex) -> GammaInnerFn:
    """Assemble the map with base values (s0, p0) from the parametrization:

        s = 2 (2 p0 c - s0 d)/(s0 c - 2 d),  p = (-2 p0 a + s0 b)/(s0 c - 2 d).

    The inputs must satisfy |p0| = 1, s0 = conj(s0) p0, |s0| < 2 and the
    defining identity s0 a - 2 b + 2 p0 c - s0 d = 0 within tolerance.  This
    is the batch of one of the construction a family's members go through.
    """
    return _raised(_construct_many(param, [(s0, p0)]).items[0])


def _construct_many(param: Parametrization, base_values) -> _Block:
    """:func:`construct_h` of each pair (s0, p0), or the error that rejects it,
    with the rows of the maps it keeps.

    Every check runs once over the members that passed the checks before
    it, in construct_h's order, and is written so that a NaN fails it.  The
    defining identity, both numerators and the denominator are fixed linear
    combinations of a, b, c and d, so each member's four come from one
    elementwise weighted sum, trimmed as ``Poly`` trims; the arithmetic is
    row by row, so a member's bits do not depend on its batch.  The maps are
    built and validated together after the royal-range test, and the values
    of their rows at tau close the batch.

    Nothing is cancelled.  If den = s0 c - 2 d and num_s / 2 = 2 p0 c - s0 d
    vanish at lambda, then, as [[s0, -2], [2 p0, -s0]] has determinant
    4 p0 - s0^2, s0^2 = 4 p0 or c(lambda) = d(lambda) = 0.  By the identity
    ad - bc = B/B(tau) (``blaschke._check_no_common_zero``) c and d vanish
    together only where all four do, which that check excludes, or at the
    reflection of an interior node with eta_j = 0, where (c, d) = conj(eta_j)
    (a, b); ``TestConstructionCancelsNothing`` is the oracle.  At
    s0^2 = 4 p0, num_s^2 - 4 num_p den = den^2 (s^2 - 4 p)
    vanishes identically, shared factor or not: the royal-range test runs
    first, on the unreduced rows."""
    base = np.array(base_values, dtype=complex).reshape(-1, 2)
    s0, p0 = base.T
    s0_modulus, p0_modulus = np.hypot(s0.real, s0.imag), np.hypot(p0.real, p0.imag)
    out = _Outcomes(s0.size)

    def precondition(passed, text):
        out.check(passed, lambda i: PreconditionViolated(text(i)))
        return out.live

    live = precondition(np.abs(p0_modulus - 1.0) <= RESIDUAL_TOL, lambda i: f"|p0| = {p0_modulus[i]:.12g} is not 1")
    p0[live] /= p0_modulus[live]
    live = precondition(s0_modulus[live] < 2.0, lambda i: f"|s0| = {s0_modulus[live[i]]:.12g} is not below 2")
    gap = s0[live] - np.conj(s0[live]) * p0[live]
    live = precondition(np.hypot(gap.real, gap.imag) <= RESIDUAL_TOL * np.maximum(1.0, s0_modulus[live]),
                        lambda i: "s0 != conj(s0) p0: the pair is off the distinguished boundary")

    # rows: the identity s0 a - 2 b + 2 p0 c - s0 d, num_s, num_p and den; columns weight a, b, c and d
    s0, p0 = s0[live], p0[live]
    zero, two = np.zeros_like(s0), np.full_like(s0, 2.0)
    weights = np.stack((s0, -two, 2.0 * p0, -s0, zero, zero, 4.0 * p0, -2.0 * s0,
                        -2.0 * p0, s0, zero, zero, zero, zero, s0, -two), axis=1).reshape(-1, 4, 4, 1)
    abcd = _stacked((param.a, param.b, param.c, param.d))
    rows = (weights * abcd).sum(axis=2)
    violation = np.abs(rows[:, 0]).max(axis=1)
    scale = max(float(np.abs(abcd).max()), 1.0)
    passed = violation <= RESIDUAL_TOL * 4.0 * scale
    precondition(passed, lambda i: f"defining identity violated by {violation[i]:.3e} (scale {scale:.3e})")
    rows, width = rows[passed, 1:], rows.shape[2]
    sizes = _trimmed_sizes(rows.reshape(-1, width), width).reshape(-1, 3)
    rows[np.arange(width) >= sizes[:, :, None]] = 0.0
    off = out.check(~_royal_ranges(rows), lambda i: RoyalRange("constructed map degenerates into the royal variety"))
    block = _maps_from_numerators(rows[off], sizes[off], np.zeros(off.sum(), bool))
    out.take(block.items)
    values = _horner(block.rows.reshape(-1, width), [param.tau]).reshape(-1, 3).T
    misses = values[:2] / values[2] - base[out.live].T
    anchor_gap = np.maximum(*np.hypot(misses.real, misses.imag))
    passed = out.check(anchor_gap <= 1e-6, lambda i: NumericalFailure(
        f"constructed map misses its base values by {anchor_gap[i]:.3e}"))
    return _Block(out.items, block.rows[passed], block.sizes[passed])


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
    """Named residuals for every checkable property of a candidate solution, and
    the map's ``pole_margin`` (JSON key ``pole_margin``), read off the map."""

    residuals: dict
    degree_expected: int
    degree_actual: int
    pole_margin: float
    royal_range: bool
    passed: bool
    failures: tuple[str, ...]
    pass_tol: float

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "degree": {"expected": self.degree_expected, "actual": self.degree_actual},
            "pole_margin": float(self.pole_margin),
            "royal_range": self.royal_range,
            "failures": list(self.failures),
            "pass_tol": self.pass_tol,
        }


def verify_royal_solution(
    h: GammaInnerFn, data: BlaschkeData, *, pass_tol: float | None = None
) -> VerificationReport:
    """Structured residuals for every requirement the constructed map must meet.

    Checks, in order: interpolation of nodes and values (``interp_s_max``,
    ``interp_p_max``), the phasar derivatives of p and of s at the boundary
    nodes (``phasar_p_max``, ``phasar_s_max``), the three boundary
    identities on a 256-point circle grid, reduced degree, and the pole
    test: the map's ``pole_margin``, found when it was built, must be
    positive.  ``passed`` is true iff every residual is at most ``pass_tol``
    (by default ``RESIDUAL_TOL``) and the structural checks hold.  This is
    the batch of one of the verification a family's members go through.

    ``phasar_s_max`` is the largest |z (num_s'/num_s - den'/den) - rho_j|
    over the boundary nodes z = sigma_j, that is |z s'/s - rho_j|, a complex
    modulus, so it checks both Re = rho_j and Im = 0.  Why this value, and
    why no check of the paper's functionals
    Phi_omega = (2 omega p - s)/(2 - omega s) at probe parameters omega is
    needed:

    - At a node, s = -2 eta and p = eta^2, so 2 omega p - s =
      2 eta (1 + omega eta) and 2 - omega s = 2 (1 + omega eta): Phi_omega o h
      takes the value eta wherever 1 + omega eta != 0, off by at most the
      interpolation residuals over |1 + omega eta|.
    - At a boundary node, |eta| = 1, and on the circle s = conj(s) p and
      |s| <= 2, so |s| = 2 is a maximum along the circle.  Write A = i z s'
      and P = i z p', the derivatives along the circle.  The maximum gives
      Re(conj(s) A) = 0, so conj(eta) A is imaginary, and so
      conj(A) = -conj(eta)^2 A.  Differentiating s = conj(s) p gives
      A = conj(A) eta^2 - 2 conj(eta) P = -A - 2 conj(eta) P.  So
      s' = -conj(eta) p', and z s'/s = z p'/(2 eta^2) = z p'/(2 p) = rho_j,
      half of p's phasar derivative, which is real.
    - With f = Phi_omega o h, f'/f = (2 omega p' - s')/(2 omega p - s)
      + omega s'/(2 - omega s).  At a boundary node, with s' = -conj(eta) p'
      and conj(eta) = 1/eta, this is p'/(2 (1 + omega eta)) times
      (2 omega + 1/eta)/eta - omega/eta = (1 + omega eta)/eta^2, that is
      p'/(2 p) = s'/s, for every omega.

    So the composed functions add nothing at the nodes beyond s, p, s' and
    p', which the residuals above check directly, and a check at probe
    parameters would only divide those residuals by |1 + omega eta|.
    """
    return _verify_many([h], *_rows_of((h.s.num, h.p.num, h.den)), data, pass_tol)[0]


def _verify_many(maps: Sequence[GammaInnerFn], rows: np.ndarray, sizes: np.ndarray, data: BlaschkeData,
                 pass_tol: float | None) -> list[VerificationReport]:
    """:func:`verify_royal_solution` of each map, as (maps x nodes) array passes
    over the rows construction left: monic (num_s, num_p, den) in ``rows``
    (maps x 3 x coefficients, zero beyond the lengths ``sizes``).  The degree
    is p's, max(size of num_p, size of den) - 1; the phasar derivatives at a
    boundary node z, Re(z (num_p'/num_p - den'/den)) of p and
    z (num_s'/num_s - den'/den) of s, are array expressions.  A NaN value or
    a zero divisor at a node makes its residual NaN or infinite, which fails
    that map's report and no other: a vanishing num_p at a boundary node
    reads ``interp_p_max`` = 1, as |eta| = 1 there, a vanishing den ``inf``."""
    pass_tol = RESIDUAL_TOL if pass_tol is None else float(pass_tol)
    sigma, eta, k = np.array(data.sigma), np.array(data.eta), data.k
    coeffs = rows.reshape(-1, rows.shape[2])
    derivatives = np.zeros_like(coeffs)
    derivatives[:, :-1] = coeffs[:, 1:] * np.arange(1, coeffs.shape[1])
    values = _horner(np.concatenate((coeffs, derivatives)), sigma)
    num_s, num_p, den, d_num_s, d_num_p, d_den = values.reshape(2, -1, 3, sigma.size).transpose(0, 2, 1, 3).reshape(6, -1, sigma.size)
    degrees = (np.maximum(sizes[:, 1], sizes[:, 2]) - 1).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        interp_s = np.max(np.abs(num_s / den + 2.0 * eta), axis=1).tolist()
        interp_p = np.max(np.abs(num_p / den - eta * eta), axis=1).tolist()
        if k:
            z, rho, slope_den = sigma[:k], np.array(data.rho), d_den[:, :k] / den[:, :k]
            # z times each slope in real arithmetic: numpy's complex product is fused on its SIMD loops, and
            # which loop runs depends on how many maps the block holds, so a map's bits would depend on its block
            slope = d_num_p[:, :k] / num_p[:, :k] - slope_den
            phasar_p_max = np.max(np.abs(z.real * slope.real - z.imag * slope.imag - 2.0 * rho), axis=1).tolist()
            slope = d_num_s[:, :k] / num_s[:, :k] - slope_den
            phasar_s = np.hypot(z.real * slope.real - z.imag * slope.imag - rho, z.real * slope.imag + z.imag * slope.real)
            phasar_s_max = np.max(phasar_s, axis=1).tolist()

    reports = []
    for index, h in enumerate(maps):
        residuals: dict[str, float] = {"interp_s_max": interp_s[index], "interp_p_max": interp_p[index]}
        failures: list[str] = []
        if k:
            residuals["phasar_p_max"] = phasar_p_max[index]
            residuals["phasar_s_max"] = phasar_s_max[index]
        p_uni, sym, s_excess = h.circle_residuals
        residuals["circle_p_unimodular_max"] = p_uni
        residuals["circle_s_symmetry_max"] = sym
        residuals["circle_s_bound_excess"] = max(s_excess, 0.0)
        if degrees[index] != data.n:
            failures.append(f"degree {degrees[index]} != {data.n}")
        if h.royal_range:
            failures.append("royal_range")
        if not h.pole_margin > 0.0:  # a NaN fails too
            failures.append(f"pole margin {h.pole_margin:.3e}: a denominator zero within radius 1 + ROOT_CLUSTER_TOL")
        for name, value in residuals.items():
            if not value <= pass_tol:  # a NaN fails too
                failures.append(f"{name} = {value:.3e} exceeds {pass_tol:.1e}")
        reports.append(VerificationReport(
            residuals=residuals, degree_expected=data.n, degree_actual=degrees[index],
            pole_margin=h.pole_margin, royal_range=h.royal_range,
            passed=not failures, failures=tuple(failures), pass_tol=pass_tol,
        ))
    return reports


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
    parameter computed from a candidate solution).  The members are selected
    in one array pass, then built and verified in array passes over blocks
    of them; a map and a report are made per member only as output."""
    M = build_pick_matrix(data)
    positivity = check_positive_definite(M)
    result = functools.partial(RoyalPipelineResult, data=data, positivity=positivity)
    if positivity.kind != "definite":
        reason = f"Pick matrix is {positivity.kind} (min eigenvalue {positivity.min_eigenvalue:.6g})"
        return result("not_solvable", 1, reason)
    param = build_parametrization(M, data, choose_tau(M, data))
    s0p0 = solve_s0_p0(param)
    result = functools.partial(result, parametrization=param, s0p0=s0p0)
    if s0p0.kind == "none":
        return result("not_solvable", 3, f"no admissible base values (s0, p0); residual {s0p0.residual:.6g}")
    if s0p0.kind == "unique":
        members = FamilyMember(*(np.array([part]) for part in (s0p0.omega, s0p0.t, s0p0.s0, s0p0.p0)))
    else:
        extras = [] if extra_omegas_fn is None else [complex(omega) for omega in extra_omegas_fn(param.tau)]
        members = s0p0.members(np.concatenate((circle_grid(omega_grid), np.array(extras, dtype=complex))))
    solutions: list[RoyalSolution] = []
    skipped: list[str] = []
    for start in range(0, members.omega.size, _BLOCK):
        block = [part[start:start + _BLOCK].tolist() for part in members]
        built = _construct_many(param, np.column_stack((members.s0[start:start + _BLOCK], members.p0[start:start + _BLOCK])))
        skipped += [f"omega = {omega}: {h}" for omega, h in zip(block[0], built.items) if isinstance(h, RoyalGammaError)]
        kept = [(mem, h) for mem, h in zip(zip(*block), built.items) if not isinstance(h, RoyalGammaError)]
        reports = _verify_many([h for _, h in kept], built.rows, built.sizes, data, pass_tol)
        solutions += [RoyalSolution(*mem, h, report) for (mem, h), report in zip(kept, reports)]
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
