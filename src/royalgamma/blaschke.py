"""Finite Blaschke products, phasar derivatives, and the linear-fractional
parametrization, the identity at a base point, of all degree-n solutions of
the boundary-augmented interpolation problem."""

from __future__ import annotations

import functools
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
    TRIM_TOL,
    Poly,
    RationalFn,
    _added,
    _horner,
    _horner_at,
    _is_point,
    _stacked,
    _trimmed,
    poly_roots,
)

__all__ = [
    "BlaschkeProduct",
    "Parametrization",
    "phasar_derivative",
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


def phasar_derivative(f: RationalFn, z: complex) -> float:
    """Rate of change of arg f(e^(i theta)) at z on the circle: Re(z f'(z)/f(z)).  The values of
    f.num, f.den and their derivatives at the one point z are taken in Python complex arithmetic, on
    the coefficient lists f keeps, and so are the scales of the vanishing and pole tests.  Raises where
    ``f`` vanishes or has a pole at z."""
    z = complex(z)
    num, den, num_slope, den_slope, scale_n, scale_d = f._derivative_lists()
    nz, dz, dnz, ddz = (_horner_at(q, z) for q in (num, den, num_slope, den_slope))
    if abs(nz) <= TRIM_TOL * scale_n * 1e3:
        raise ZeroOrPoleAtPoint(f"function vanishes at {z}")
    if abs(dz) <= TRIM_TOL * scale_d * 1e3:
        raise ZeroOrPoleAtPoint(f"function has a pole at {z}")
    w = z * (dnz / nz - ddz / dz)
    return w.real


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product c * prod (lambda - zero_j)/(1 - conj(zero_j) lambda)."""

    unimodular_constant: complex
    zeros: tuple[complex, ...]

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        """The product at one point, in Python complex arithmetic with the zeros taken one at a time, or
        at every point of an array, as one running product, from c, of the ratios (z - a)/(1 - conj(a) z)
        of every zero a, formed as one (zeros x points) array."""
        if _is_point(z):
            z, out = complex(z), complex(self.unimodular_constant)
            for a in map(complex, self.zeros):
                out = out * (z - a) / (1.0 - a.conjugate() * z)
            return out
        z = np.asarray(z, dtype=complex)
        zeros = np.array(self.zeros, dtype=complex).reshape((-1,) + (1,) * z.ndim)
        ratios = (z - zeros) / (1.0 - np.conj(zeros) * z)
        return np.multiply.reduce(ratios, axis=0, initial=complex(self.unimodular_constant))

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
    value zeta at tau.  ``data`` is the interpolation data it was built
    from, ``exceptional`` caches the defining scalars so membership can be
    tested without the original Pick matrix, ``kernel_numerators`` keeps
    (n_xx, n_xy, n_yx, n_yy), the kernel sums at tau over the common
    product, from which (a, b, c, d) were assembled.
    """

    a: Poly
    b: Poly
    c: Poly
    d: Poly
    tau: complex
    data: BlaschkeData
    exceptional: ExceptionalSet
    kernel_numerators: tuple[Poly, Poly, Poly, Poly]

    @property
    def degree(self) -> int:
        return max(p.degree for p in (self.a, self.b, self.c, self.d))

    def normalization_residual(self) -> float:
        """The largest distance of (a, b, c, d)(tau) from (1, 0, 0, 1), each by Horner's rule in Python complex."""
        quad = (self.a, self.b, self.c, self.d)
        return max(abs(_horner_at(q.coeffs.tolist(), self.tau) - one) for q, one in zip(quad, (1, 0, 0, 1)))

    def to_json_dict(self) -> dict:
        return {
            "tau": [self.tau.real, self.tau.imag],
            "a": self.a.to_list(),
            "b": self.b.to_list(),
            "c": self.c.to_list(),
            "d": self.d.to_list(),
        }


def _partial_products(points: np.ndarray) -> np.ndarray:
    """Coefficients of the partial products prod_{l != i} (1 - points_l lambda) of n distinct points, as
    rows i < n, and of the product of all n factors, as row n.

    Each factor is multiplied into every row but its own, the factors in Leja order (Calvetti and Reichel,
    Numer. Algorithms 33, 2003): the point of largest modulus first, then each time the point whose product
    of distances to those taken is largest, ties to the lower index.  In node order the coefficients of
    h_nu's product grow large before they cancel, and lose about four digits at degree 22.
    """
    rows = np.zeros((points.size + 1, points.size + 1), complex)
    rows[:, 0] = 1.0
    l, distances = int(np.argmax(np.abs(points))), np.ones(points.size)
    for _ in range(points.size):
        step = -points[l] * rows[:, :-1]
        step[l] = 0.0
        rows[:, 1:] += step
        distances *= np.abs(points - points[l])
        distances[l] = -np.inf  # taken: a distinct point's distances keep it at -inf
        l = int(np.argmax(distances))
    return rows


def _kernel_numerator_polynomials(data: BlaschkeData, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Coefficients, n + 1 wide, of the four kernel sums n_xx, n_xy, n_yx, n_yy over the common product
    prod_l (1 - conj(sigma_l) lambda), then of the product, from the kernel solves wx and wy at tau: each
    sum is sum_i w_i P_i over the partial products P_i, so the simple poles never get sampled."""
    rows = _partial_products(np.conj(np.array(data.sigma)))
    weights = np.conj([wx, wy, wx, wy])
    weights[2:] *= np.conj(np.array(data.eta))
    return np.concatenate((weights @ rows[:-1], rows[-1:]))


def build_parametrization(M: PickMatrix, data: BlaschkeData, tau: complex) -> Parametrization:
    """Assemble the quadruple (a, b, c, d) that is the identity at base point tau.

    The assembly multiplies the kernel sums through by the common product of
    (1 - conj(sigma_j) lambda), so every coefficient is exact up to rounding:
    (a, b, c, d) = (P - t n_xx, t n_xy, -t n_yx, P + t n_yy)/P(tau) with
    t = 1 - conj(tau) lambda, in one shifted combination of the rows.
    The documented invariants (normalization at tau, max degree n, no common
    zero, |c| <= |d| on the closed disc) are validated before returning.
    """
    tau = complex(tau / abs(tau))
    wx, wy, exc = kernel_solves(M, data, tau)
    if exc.whole_circle:
        raise UnsuitableTau("every unimodular parameter is exceptional for this base point")

    rows = _kernel_numerator_polynomials(data, wx, wy)
    quad = rows[:4] * np.array([-1.0, 1.0, -1.0, 1.0])[:, None]
    quad[:, 1:] -= np.conj(tau) * quad[:, :-1]
    quad[[0, 3]] += rows[4]
    quad /= complex(_horner(rows[4], tau))

    param = Parametrization(
        *map(Poly, quad), tau=tau, data=data, exceptional=exc,
        kernel_numerators=tuple(map(Poly, rows[:4])),
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
    """Raise where a, b, c and d vanish together: only at a node or an interior node's reflection can they, as
    ad - bc = B/B(tau) with B(lambda) = prod_j (lambda - sigma_j)(1 - conj(sigma_j) lambda).

    Proof: with P = prod_l (1 - conj(sigma_l) lambda), t = 1 - conj(tau) lambda, the Szego kernels x_z =
    (1 / (1 - conj(sigma_i) z))_i, y_z = conj(eta) x_z and the Pick matrix M, [[a, b], [c, d]] = P/P(tau) (I - t UV),
    U the rows x_lambda^T, y_lambda^T, V the columns M^-T conj(x_tau), -M^-T conj(y_tau).  Sylvester's
    det(I - t UV) = det(I - t VU) is det(M^T - t C) / det M^T, C_ij = conj(x_tau,i) x_lambda,j (1 - eta_i conj(eta_j)),
    and the Stein identity (1 - sigma_i conj(tau))(1 - conj(sigma_j) lambda) - t (1 - sigma_i conj(sigma_j)) =
    (sigma_i - lambda)(conj(sigma_j) - conj(tau)) makes M^T - t C = D M^T E, D = diag((sigma_i - lambda) /
    (1 - sigma_i conj(tau))), E = diag((conj(sigma_i) - conj(tau)) / (1 - conj(sigma_i) lambda)); at a boundary
    node C_ii = 0 and D_ii E_ii = 1, so M_ii = rho_i fits too.  As |tau| = 1, P^2 det D det E / P(tau)^2 = B/B(tau)
    (Sarason, Integral Equations Operator Theory 30, 1998; Ball, Gohberg and Rodman, 1990).  In floats it holds only
    as well as the kernel solves do, so it is cited, not checked.

    At a node (a, b) = eta_j (c, d), and at an interior node's reflection (c, d) = conj(eta_j) (a, b), where
    P x_lambda keeps only its j-th entry: so c and d are tested at the nodes, a and b at the reflections (0 reflects
    to infinity, where the degree check looks).  q vanishes at z when |q(z)| is within Horner's error bound
    4 m u sum_j |c_j| |z|^j at degree m (Higham, section 5.1, as in ``_horner_at``), both from one Horner pass."""
    data = param.data
    points = np.array(data.sigma + tuple(1 / s.conjugate() for s in data.sigma[data.k:] if s))
    rows = _stacked((param.a, param.b, param.c, param.d))
    at = np.abs(_horner(np.concatenate((rows, np.abs(rows))), np.repeat([points, np.abs(points)], 4, axis=0)))
    vanishing = at[:4] <= 4 * (rows.shape[1] - 1) * 2.0**-53 * at[4:]
    common = np.concatenate((vanishing[2:, :data.n].all(axis=0), vanishing[:2, data.n:].all(axis=0)))
    if common.any():
        raise NumericalFailure(f"a, b, c, d share the zero {complex(points[np.argmax(common)])}")


def _check_c_dominated_by_d(param: Parametrization) -> None:
    c, d = np.abs(_table_values((param.c, param.d), _disc_points))
    worst = float(np.max(c - d))
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
    for j, (alpha, beta) in enumerate(param.exceptional.pairs):
        gap, band = abs(alpha - zeta * beta), EXCEPTIONAL_SCALAR_TOL * max(1.0, abs(alpha), abs(beta))
        if gap <= band:
            raise ExceptionalZeta(f"zeta = {zeta} is exceptional at boundary node {j}, sigma = {param.data.sigma[j]}: "
                                  f"|alpha - zeta beta| = {gap:.3e} is within the band {band:.3e}")
    # Poly's steps on the bare coefficients: each product, sum and quotient is a fresh array, trimmed as Poly trims
    num, den = (_trimmed(_added(_trimmed(p.coeffs * zeta), q.coeffs))
                for p, q in ((param.a, param.b), (param.c, param.d)))
    lead = complex(den[-1]) if den.size else 0j
    return RationalFn(*(Poly._untrimmed(_trimmed(coeffs / lead)) for coeffs in (num, den)))


@functools.cache
def _read_only_grid(grid, m: int) -> np.ndarray:
    """``grid(m)`` as a read-only array, built on first use, not at import."""
    out = grid(m)
    out.setflags(write=False)
    return out


@functools.cache
def _factored_form_points() -> np.ndarray:
    """Five fixed anchors, the 256-point circle grid, then 64 points of the unit disc
    drawn from ``default_rng(41205)``: where a factored form is read off and checked."""
    rng = np.random.default_rng(41205)
    checks = rng.uniform(0.0, 1.0, 64) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 64))
    out = np.concatenate(([1.0 + 0j, 1j, -1.0 + 0j, -1j, np.exp(0.7j)], _read_only_grid(circle_grid, 256), checks))
    out.setflags(write=False)
    return out


_disc_points = functools.partial(_read_only_grid, disc_grid, 256)


@functools.cache
def _power_table(points, size: int) -> np.ndarray:
    """The powers z**j, j < size, of the fixed points ``points()`` as rows, read-only: each row is the
    row before times the points, so z**j is j - 1 rounded products."""
    z = points()
    out = np.ones((size, z.size), complex)
    for j in range(1, size):
        out[j] = out[j - 1] * z
    out.setflags(write=False)
    return out


def _table_values(polys, points) -> np.ndarray:
    """Two polynomials at the fixed points ``points()``: one (2 x size) @ (size x points) product with the
    cached power table, always of two rows, as a BLAS product's bits can depend on the rows beside a row."""
    rows = _stacked(polys)
    return rows @ _power_table(points, rows.shape[1])


def to_blaschke_product(f: RationalFn) -> BlaschkeProduct:
    """Recover the factored form of a rational inner function.

    The input must have no common zero of numerator and denominator, as
    :func:`solve_blaschke`'s quotients have none, and be unimodular on the
    circle grid; its numerator zeros, the product's zeros, must lie strictly
    inside the disc.  The unimodular constant is read off at the first
    circle point away from the zeros (five fixed points, then the grid), a
    NaN fails every check, and the factored form is checked against the
    input at 64 deterministic points before returning, so a common factor of
    numerator and denominator raises :class:`NotInner`.  The input is
    evaluated once, at all of these points together, in one matrix product
    with their cached power table; the zeros are the values of
    ``poly_roots(f.num)``, each repeated by its multiplicity, and the
    product is evaluated at the 64 points in one array product.
    """
    points = _factored_form_points()
    num, den = _table_values((f.num, f.den), _factored_form_points)
    vals = num / den
    worst = float(np.max(np.abs(np.abs(vals[5:261]) - 1.0)))
    if not worst <= RESIDUAL_TOL:
        raise NotInner(f"not unimodular on the circle: off by {worst:.3e}")

    zeros: list[complex] = []
    for rc in poly_roots(f.num):  # a zero numerator failed the unimodularity test
        if abs(rc.value) >= 1.0:
            raise NotInner(f"numerator zero {rc.value} is not inside the open disc")
        zeros.extend([rc.value] * rc.multiplicity)

    # the first circle point away from the zeros; with none the constant is NaN and fails
    candidates = enumerate(map(complex, points[:261]))
    i, z = next(((i, z) for i, z in candidates if all(abs(z - a) > 1e-3 for a in zeros)), (None, None))
    base = BlaschkeProduct(1.0 + 0j, tuple(zeros))
    constant = complex("nan") if i is None else complex(num[i]) / complex(den[i]) / base(z)
    if not abs(abs(constant) - 1.0) <= RESIDUAL_TOL:
        raise NotInner(f"recovered constant has modulus {abs(constant):.12g}")
    result = BlaschkeProduct(unimodular_constant=constant / abs(constant), zeros=tuple(zeros))

    drift = float(np.max(np.abs(vals[261:] - result(points[261:]))))
    if not drift <= RESIDUAL_TOL * 10:
        raise NotInner(f"factored form disagrees with the input by {drift:.3e}")
    return result
