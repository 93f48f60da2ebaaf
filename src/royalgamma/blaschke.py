"""Finite Blaschke products, phasar derivatives, and the linear-fractional
parametrization, the identity at a base point, of all degree-n solutions of
the boundary-augmented interpolation problem."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExceptionalZeta,
    InvalidData,
    NotInner,
    NumericalFailure,
    UnsuitableTau,
    ZeroOrPoleAtPoint,
)
from .pick import BlaschkeData, ExceptionalSet, PickMatrix, kernel_solves
from .polyrat import (
    RESIDUAL_TOL,
    ROOT_CLUSTER_TOL,
    TRIM_TOL,
    Poly,
    RationalFn,
    poly_eval,
    poly_eval_many,
    poly_roots,
    poly_roots_many,
)

__all__ = [
    "PhasarValue",
    "BlaschkeProduct",
    "Parametrization",
    "phasar_derivative",
    "phasar_from_values",
    "build_parametrization",
    "solve_blaschke",
    "to_blaschke_product",
    "circle_grid",
    "disc_grid",
]

# Band on the defining scalar alpha_j - zeta * beta_j inside which a parameter
# is treated as exceptional; the linear-fractional formula degenerates there.
EXCEPTIONAL_SCALAR_TOL = 1e-8


def circle_grid(m: int) -> np.ndarray:
    """m equispaced points on the unit circle, starting at 1."""
    return np.exp(2j * np.pi * np.arange(m) / m)


def disc_grid(m: int) -> np.ndarray:
    """Deterministic grid of about m points covering the closed unit disc."""
    side = max(2, int(round(np.sqrt(m))))
    radii = np.linspace(0.0, 1.0, side)
    angles = 2j * np.pi * np.arange(side) / side
    return (radii[:, None] * np.exp(angles)[None, :]).ravel()


class PhasarValue(float):
    """Phasar derivative as a plain float, carrying the imaginary-part diagnostic.

    For an inner function the quantity z f'(z)/f(z) is real on the circle;
    ``imag_residual`` records how far from real it actually was.
    """

    __slots__ = ("imag_residual",)

    def __new__(cls, value: float, imag_residual: float):
        obj = super().__new__(cls, value)
        obj.imag_residual = float(imag_residual)
        return obj


def phasar_derivative(f: RationalFn, z: complex) -> PhasarValue:
    """Rate of change of arg f(e^(i theta)) at z on the circle: Re(z f'(z)/f(z))."""
    values = poly_eval_many([f.num, f.den, f.num.derivative(), f.den.derivative()], [complex(z)]).tolist()
    return phasar_from_values(f, [z], values)[0]


def phasar_from_values(f: RationalFn, zs, values) -> list[PhasarValue]:
    """:func:`phasar_derivative` of ``f`` at each point of ``zs``, given the
    values of f.num, f.den and their derivatives there as four lists of Python
    complex numbers.  Raises at the first point where ``f`` vanishes or has a pole."""
    scale_n = max(1.0, float(np.max(np.abs(f.num.coeffs))) if not f.num.is_zero else 1.0)
    scale_d = max(1.0, float(np.max(np.abs(f.den.coeffs))))
    out = []
    for z, nz, dz, dnz, ddz in zip([complex(z) for z in zs], *values):
        if abs(nz) <= TRIM_TOL * scale_n * 1e3:
            raise ZeroOrPoleAtPoint(f"function vanishes at {z}")
        if abs(dz) <= TRIM_TOL * scale_d * 1e3:
            raise ZeroOrPoleAtPoint(f"function has a pole at {z}")
        w = z * (dnz / nz - ddz / dz)
        out.append(PhasarValue(w.real, abs(w.imag)))
    return out


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product c * prod (lambda - zero_j)/(1 - conj(zero_j) lambda)."""

    unimodular_constant: complex
    zeros: tuple[complex, ...]

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full_like(z, self.unimodular_constant)
        for a in self.zeros:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        if z.ndim == 0:
            return complex(out)
        return out

    def to_json_dict(self) -> dict:
        return {
            "constant": [self.unimodular_constant.real, self.unimodular_constant.imag],
            "zeros": [[a.real, a.imag] for a in self.zeros],
        }


@dataclass(frozen=True, eq=False)
class Parametrization:
    """Polynomials (a, b, c, d) that form the identity matrix at tau.

    For every unimodular zeta off the exceptional set, (a zeta + b)/(c zeta + d)
    is the unique degree-n solution of the interpolation problem taking the
    value zeta at tau.  ``exceptional`` caches the defining scalars so
    membership can be tested without the original Pick matrix,
    ``kernel_numerators`` keeps (n_xx, n_xy, n_yx, n_yy), the kernel sums at
    tau over the common product, from which (a, b, c, d) were assembled.
    """

    a: Poly
    b: Poly
    c: Poly
    d: Poly
    tau: complex
    data_hash: str
    exceptional: ExceptionalSet
    kernel_numerators: tuple[Poly, Poly, Poly, Poly]

    @property
    def degree(self) -> int:
        return max(p.degree for p in (self.a, self.b, self.c, self.d))

    def normalization_residual(self) -> float:
        at = self.tau
        return max(
            abs(poly_eval(self.a, at) - 1.0),
            abs(poly_eval(self.b, at)),
            abs(poly_eval(self.c, at)),
            abs(poly_eval(self.d, at) - 1.0),
        )

    def to_json_dict(self) -> dict:
        return {
            "tau": [self.tau.real, self.tau.imag],
            "a": self.a.to_list(),
            "b": self.b.to_list(),
            "c": self.c.to_list(),
            "d": self.d.to_list(),
        }


def _kernel_numerator_polynomials(data: BlaschkeData, wx: np.ndarray, wy: np.ndarray):
    """Numerator polynomials of the four kernel sums over the common product
    prod_j (1 - conj(sigma_j) lambda), from the kernel solves wx = M^-1 x_tau
    and wy = M^-1 y_tau.

    Returns (n_xx, n_xy, n_yx, n_yy, product), each of degree at most n-1
    except the product itself.  The kernels are expanded symbolically; the
    simple poles never get sampled numerically.
    """
    sigma = np.array(data.sigma)
    eta_bar = np.conj(np.array(data.eta))
    n = data.n

    partials = []
    for i in range(n):
        f = Poly([1.0])
        for l in range(n):
            if l != i:
                f = f * Poly([1.0, -np.conj(sigma[l])])
        partials.append(f)
    product = Poly([1.0])
    for l in range(n):
        product = product * Poly([1.0, -np.conj(sigma[l])])

    def assemble(weights):
        acc = Poly([])
        for i in range(n):
            acc = acc + complex(weights[i]) * partials[i]
        return acc

    n_xx = assemble(np.conj(wx))
    n_xy = assemble(np.conj(wy))
    n_yx = assemble(eta_bar * np.conj(wx))
    n_yy = assemble(eta_bar * np.conj(wy))
    return n_xx, n_xy, n_yx, n_yy, product


def build_parametrization(M: PickMatrix, data: BlaschkeData, tau: complex) -> Parametrization:
    """Assemble the quadruple (a, b, c, d) that is the identity at base point tau.

    The assembly multiplies the kernel sums through by the common product of
    (1 - conj(sigma_j) lambda), so every coefficient is exact up to rounding.
    The documented invariants (normalization at tau, max degree n, no common
    zero, |c| <= |d| on the closed disc) are validated before returning.
    """
    tau = complex(tau / abs(tau))
    wx, wy, exc = kernel_solves(M, data, tau)
    if exc.whole_circle:
        raise UnsuitableTau("every unimodular parameter is exceptional for this base point")

    n_xx, n_xy, n_yx, n_yy, product = _kernel_numerator_polynomials(data, wx, wy)
    one_minus_tau = Poly([1.0, -np.conj(tau)])
    scale = poly_eval(product, tau)

    a = (product - one_minus_tau * n_xx) / scale
    b = (one_minus_tau * n_xy) / scale
    c = -1.0 * (one_minus_tau * n_yx) / scale
    d = (product + one_minus_tau * n_yy) / scale

    param = Parametrization(
        a=a, b=b, c=c, d=d, tau=tau, data_hash=data.canonical_digest(), exceptional=exc,
        kernel_numerators=(n_xx, n_xy, n_yx, n_yy),
    )

    res = param.normalization_residual()
    if res > RESIDUAL_TOL:
        raise NumericalFailure(f"normalization at tau off by {res:.3e}")
    if param.degree != data.n:
        raise NumericalFailure(f"max degree {param.degree} != n = {data.n}")
    _check_no_common_zero(param)
    _check_c_dominated_by_d(param)
    return param


def _check_no_common_zero(param: Parametrization) -> None:
    """Narrow the zeros of a to those that b, c and d share in turn, with the
    roots of all four from one ``poly_roots_many`` call; the zero polynomial
    shares every zero, a nonzero constant none."""
    others = [q for q in (param.b, param.c, param.d) if not q.is_zero]
    if param.a.degree < 1 or any(q.degree < 1 for q in others):
        return
    found = poly_roots_many([param.a, *others])
    shared = [rc.value for rc in found[0]]
    for clusters in found[1:]:
        shared = [z for z in shared if any(abs(z - rc.value) <= ROOT_CLUSTER_TOL for rc in clusters)]
    if shared:
        raise NumericalFailure(f"a, b, c, d share the zero {shared[0]}")


def _check_c_dominated_by_d(param: Parametrization) -> None:
    grid = disc_grid(256)
    excess = np.abs(poly_eval(param.c, grid)) - np.abs(poly_eval(param.d, grid))
    worst = float(np.max(excess))
    if worst > RESIDUAL_TOL:
        raise NumericalFailure(f"|c| exceeds |d| on the closed disc by {worst:.3e}")


def solve_blaschke(param: Parametrization, zeta: complex) -> RationalFn:
    """The solution (a zeta + b)/(c zeta + d) for a unimodular parameter zeta,
    divided through by the denominator's leading coefficient.

    Raises ExceptionalZeta when zeta sits inside the tolerance band of the
    defining scalar for some boundary node; the formula degenerates there.

    Nothing is cancelled.  A common zero lambda of a zeta + b and c zeta + d
    would put (zeta, 1) in the kernel of [[a, b], [c, d]](lambda) and lower
    the solution's degree, and the degree drops only at exceptional
    parameters (Sarason, "Nevanlinna-Pick interpolation with boundary data",
    1998).  Near an exceptional parameter a numerator root can pass within
    ``ROOT_CLUSTER_TOL`` of a denominator root without being shared;
    cancelling that near pair drops the degree and moves the values at the
    nodes, so the unreduced quotient is the faithful one.
    """
    zeta = complex(zeta)
    if not abs(abs(zeta) - 1.0) <= 1e-6:  # a NaN fails too
        raise InvalidData(f"parameter zeta must be unimodular, |zeta| = {abs(zeta):.12g}")
    zeta = zeta / abs(zeta)
    for alpha, beta in param.exceptional.pairs:
        if abs(alpha - zeta * beta) <= EXCEPTIONAL_SCALAR_TOL * max(1.0, abs(alpha), abs(beta)):
            raise ExceptionalZeta(f"zeta = {zeta} is within tolerance of the exceptional set")
    num = zeta * param.a + param.b
    den = zeta * param.c + param.d
    return RationalFn(num / den.leading, den / den.leading)


@functools.cache
def _factored_form_check_points() -> np.ndarray:
    """The 64 points of the unit disc at which a factored form is checked,
    drawn from ``default_rng(41205)`` on first use, not at import."""
    rng = np.random.default_rng(41205)
    out = rng.uniform(0.0, 1.0, 64) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 64))
    out.setflags(write=False)
    return out


def to_blaschke_product(f: RationalFn) -> BlaschkeProduct:
    """Recover the factored form of a rational inner function.

    The input must have no common zero of numerator and denominator, as
    :func:`solve_blaschke`'s quotients have none, and be unimodular on the
    circle grid; its numerator zeros, the product's zeros, must lie strictly
    inside the disc.  The unimodular constant is read off at the first
    circle point away from the zeros (five fixed points, then the grid), a
    NaN fails every check, and the factored form is checked against the
    input at 64 deterministic points before returning, so a common factor of
    numerator and denominator raises :class:`NotInner`.
    """
    grid = circle_grid(256)
    vals = f(grid)
    worst = float(np.max(np.abs(np.abs(vals) - 1.0)))
    if not worst <= RESIDUAL_TOL:
        raise NotInner(f"not unimodular on the circle: off by {worst:.3e}")

    zeros: list[complex] = []
    if f.num.degree >= 1:
        for rc in poly_roots(f.num):
            if abs(rc.value) >= 1.0:
                raise NotInner(f"numerator zero {rc.value} is not inside the open disc")
            zeros.extend([rc.value] * rc.multiplicity)

    # five fixed points, then the grid; with no point away from the zeros the constant is NaN and fails
    candidates = itertools.chain([1.0 + 0j, 1j, -1.0 + 0j, -1j, np.exp(0.7j)], grid)
    anchor = next((complex(z) for z in candidates if all(abs(z - a) > 1e-3 for a in zeros)), complex("nan"))
    base = BlaschkeProduct(unimodular_constant=1.0 + 0j, zeros=tuple(zeros))
    constant = complex(f(anchor) / base(anchor))
    if not abs(abs(constant) - 1.0) <= RESIDUAL_TOL:
        raise NotInner(f"recovered constant has modulus {abs(constant):.12g}")
    result = BlaschkeProduct(unimodular_constant=constant / abs(constant), zeros=tuple(zeros))

    pts = _factored_form_check_points()
    drift = float(np.max(np.abs(f(pts) - result(pts))))
    if not drift <= RESIDUAL_TOL * 10:
        raise NotInner(f"factored form disagrees with the input by {drift:.3e}")
    return result
