"""Shared generators and oracles for the test suite.

Random solvable interpolation data is produced by forward extraction: build a
map that is known to be valid (a superficial map (beta + conj(beta) p, p) for
an inner p, or a generator-family instance, possibly rotated), read its royal
data off, and hand that data to the code under test.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from royalgamma import (
    BlaschkeData,
    GammaInnerFn,
    Poly,
    RationalFn,
    build_pick_matrix,
    extract_royal_data,
    generate_h_nu,
)
from royalgamma.errors import RoyalGammaError


def poly_allclose(p: Poly, q: Poly, atol: float = 1e-9) -> bool:
    """Coefficient-wise agreement after padding to a common length."""
    n = max(p.coeffs.size, q.coeffs.size)
    return bool(np.all(np.abs(p.padded(n) - q.padded(n)) <= atol))


class ExactComplex:
    """A complex number (re + i im) 2**exp with integer re and im, for
    oracles: floats convert without rounding, and sums and products are exact.
    There is no division: divide the exact results as Fractions."""

    __slots__ = ("re", "im", "exp")

    def __init__(self, re: int = 0, im: int = 0, exp: int = 0):
        self.re, self.im, self.exp = re, im, exp

    @classmethod
    def of(cls, z) -> "ExactComplex":
        z = complex(z)
        (a, b), (c, d) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        scale = max(b, d)  # both powers of two
        return cls(a * (scale // b), c * (scale // d), 1 - scale.bit_length())

    def _aligned(self, other):
        other = other if isinstance(other, ExactComplex) else ExactComplex.of(other)
        exp = min(self.exp, other.exp)
        a, b = self.re << (self.exp - exp), self.im << (self.exp - exp)
        return a, b, other.re << (other.exp - exp), other.im << (other.exp - exp), exp

    def __add__(self, other):
        a, b, c, d, exp = self._aligned(other)
        return ExactComplex(a + c, b + d, exp)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, c, d, exp = self._aligned(other)
        return ExactComplex(a - c, b - d, exp)

    def __rsub__(self, other):
        return ExactComplex.of(other) - self

    def __mul__(self, other):
        other = other if isinstance(other, ExactComplex) else ExactComplex.of(other)
        return ExactComplex(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re,
                            self.exp + other.exp)

    __rmul__ = __mul__

    def conj(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im, self.exp)

    def real(self) -> Fraction:
        return self.re * Fraction(2) ** self.exp

    def imag(self) -> Fraction:
        return self.im * Fraction(2) ** self.exp

    def abs2(self) -> Fraction:
        return (self.re * self.re + self.im * self.im) * Fraction(2) ** (2 * self.exp)


class RationalComplex:
    """A complex number with Fraction parts, for exact linear algebra on rational data, where
    :class:`ExactComplex`, with no division, cannot go: sums, products and quotients are exact."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def _of(z) -> "RationalComplex":
        return z if isinstance(z, RationalComplex) else RationalComplex(z)

    def __add__(self, other):
        other = self._of(other)
        return RationalComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def __sub__(self, other):
        return self + -self._of(other)

    def __rsub__(self, other):
        return self._of(other) - self

    def __mul__(self, other):
        other = self._of(other)
        return RationalComplex(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._of(other)
        size = other.re * other.re + other.im * other.im
        return self * RationalComplex(other.re / size, -other.im / size)

    def __rtruediv__(self, other):
        return self._of(other) / self

    def __eq__(self, other):
        other = self._of(other)
        return self.re == other.re and self.im == other.im

    def conj(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def __repr__(self):
        return f"({self.re} + {self.im}i)"


def exact_horner(coeffs, z: ExactComplex) -> tuple[ExactComplex, ExactComplex]:
    """The polynomial with the float coefficients ``coeffs`` (ascending) and
    its derivative at ``z``, exactly."""
    value = slope = ExactComplex()
    for c in coeffs[::-1]:
        slope = slope * z + value
        value = value * z + complex(c)
    return value, slope


def _over_a_power_of_two(values):
    """Integer parts (re, im) and one power of two d with each complex value equal to (re + i im) / d."""
    ratios = [(v.real.as_integer_ratio(), v.imag.as_integer_ratio()) for v in map(complex, values)]
    d = max([1] + [den for pair in ratios for _, den in pair])
    return [(a * (d // b), c * (d // e)) for (a, b), (c, e) in ratios], d


def exact_errors(coeffs, zs, values) -> list:
    """|v - P(z)| for each float point z of ``zs`` and float value v of ``values``, P the polynomial with
    the float ``coeffs`` (ascending), in integer arithmetic and rounded once: :func:`exact_horner`'s
    values, without the derivative, over the common power-of-two denominators of the coefficients and of
    each point's parts."""
    ints, q = _over_a_power_of_two(coeffs)
    out = []
    for z, value in zip(zs, values):
        [(x, y)], s = _over_a_power_of_two([z])
        [(vr, vi)], d = _over_a_power_of_two([value])
        re = im = 0
        power = 1  # s^(n - j) at the step of c_j: the value is sum_j c_j (x + i y)^j s^(n - j) / (q s^n)
        for a, b in reversed(ints):
            re, im = re * x - im * y + a * power, re * y + im * x + b * power
            power *= s
        scale = q * power // s
        common = max(scale, d)  # both powers of two; int / int rounds once
        re, im = vr * (common // d) - re * (common // scale), vi * (common // d) - im * (common // scale)
        out.append(abs(complex(re / common, im / common)))
    return out


# The unit roundoff u of IEEE double, and bounds on the relative error of one
# complex operation on floats, each against the exact result of its rounded
# operands.  A sum or difference rounds each part once: u.  A product
# (x + iy)(v + iw) = (xv - yw) + i(xw + yv): sqrt(2) gamma_2 with
# gamma_k = k u / (1 - k u) (Higham, *Accuracy and Stability of Numerical
# Algorithms*, 2nd ed., lemma 3.5).  A quotient as CPython divides, by Smith's
# algorithm: with |c| >= |d| it takes t = d / c, e = c + d t and
# ((p + q t) + i(q - p t)) / e, where c and d t share their sign, so e is within
# gamma_3 and each part of the numerator within u of itself plus gamma_2 of
# |q| or |p|; as |e| >= |c + id|, that is 5 u of the quotient's part plus
# 2 u |p + iq| / |c + id| for each part, so 7 u of the quotient to first order,
# and 8 u bounds the terms of order u^2 too.
UNIT_ROUNDOFF = np.finfo(float).eps / 2
SUM_ERROR = UNIT_ROUNDOFF
PRODUCT_ERROR = np.sqrt(2) * 2 * UNIT_ROUNDOFF / (1 - 2 * UNIT_ROUNDOFF)
QUOTIENT_ERROR = 8 * UNIT_ROUNDOFF
# numpy divides complex arrays by the same Smith's algorithm, but multiplies
# each part of the numerator by the rounded reciprocal 1 / e instead of dividing
# it by e: one more rounding of each part, so 6 u of the quotient's part plus
# 2 u |p + iq| / |c + id|, 8 u to first order, and 9 u bounds the terms of
# order u^2 too.
ARRAY_QUOTIENT_ERROR = QUOTIENT_ERROR + UNIT_ROUNDOFF


def horner_bound(coeffs, z) -> float:
    """A bound on the error of Horner's rule in complex arithmetic for the
    polynomial with the float ``coeffs`` (ascending) at z: 4 n u S, where n is
    the degree and S = sum_j |c_j| |z|^j.

    A step rounds one product, within PRODUCT_ERROR = 2 sqrt(2) u + O(u^2) of
    the exact product of its operands, and one sum, within u.  The coefficient
    c_j passes through at most n steps, so the computed value is
    sum_j c_j z^j (1 + theta_j) with |theta_j| <= ((1 + PRODUCT_ERROR)(1 + u))^n - 1,
    which is (2 sqrt(2) + 1) n u = 3.83 n u to first order (Higham, 2nd ed.,
    section 5.1, with complex operations).  4 n u covers the terms of order
    u^2 and the rounding of S, summed here in floats, up to degree 10^6."""
    n = len(coeffs) - 1
    size = sum(abs(complex(c)) * abs(z) ** j for j, c in enumerate(coeffs))
    return 4 * max(n, 0) * UNIT_ROUNDOFF * size


def derivative_bound(coeffs, z) -> float:
    """A bound on the error of the derivative of the polynomial with ``coeffs``
    at z, as ``Poly.derivative`` and Horner's rule compute it: 4 n u S' with
    S' = sum_j j |c_j| |z|^(j-1).  Forming j c_j rounds once, within u S', and
    Horner's rule over the n - 1 steps of the derivative adds at most
    4 (n - 1) u (1 + u) S' (:func:`horner_bound`)."""
    n = len(coeffs) - 1
    size = sum(j * abs(complex(c)) * abs(z) ** (j - 1) for j, c in enumerate(coeffs) if j)
    return 4 * max(n, 0) * UNIT_ROUNDOFF * size


def gate_points(rng) -> list:
    """Points for the exact-oracle gates of the point path: 0, 1 and -i, then three
    random points inside the unit disc, three on the circle and three just outside it."""
    angles = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 9))
    return [0j, 1.0, -1j] + np.concatenate((0.6 * angles[:3], angles[3:6], 1.02 * angles[6:])).tolist()


def modulus(z: ExactComplex) -> float:
    """|z| of an exact complex number, to 50 significant digits and then rounded to a float."""
    return float(to_decimal(z.abs2(), sqrt=True))


def to_decimal(q: Fraction, sqrt: bool = False) -> Decimal:
    """``q``, or its square root, to 50 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        value = Decimal(q.numerator) / Decimal(q.denominator)
        return value.sqrt() if sqrt else value


def fd_phasar(f, z, step=1e-6) -> float:
    """Finite-difference oracle for the phasar derivative.

    Uses the argument of the ratio so no branch cut is crossed for small steps.
    """
    zp = z * np.exp(1j * step)
    zm = z * np.exp(-1j * step)
    return float(np.angle(f(zp) / f(zm)) / (2.0 * step))


def blaschke_rational(zeros, constant=1.0 + 0j) -> RationalFn:
    """Finite Blaschke product as an explicit rational function."""
    num = Poly([complex(constant)])
    den = Poly([1.0])
    for a in zeros:
        num = num * Poly([-complex(a), 1.0])
        den = den * Poly([1.0, -np.conj(a)])
    return RationalFn(num, den)


def superficial_map(p: RationalFn, beta: complex) -> GammaInnerFn:
    """The map (beta + conj(beta) p, p); valid whenever |beta| <= 1 and p is inner."""
    num_s = complex(beta) * p.den + np.conj(beta) * p.num
    return GammaInnerFn.from_numerators(num_s, p.num, p.den)


def rotate_map(h: GammaInnerFn, angle: float) -> GammaInnerFn:
    """Precompose with the rotation lambda -> exp(i angle) lambda."""
    phase = np.exp(1j * angle)

    def twist(poly: Poly) -> Poly:
        if poly.is_zero:
            return poly
        return Poly(poly.coeffs * phase ** np.arange(poly.coeffs.size))

    return GammaInnerFn.from_numerators(twist(h.s.num), twist(h.p.num), twist(h.den))


def _data_quality_ok(data: BlaschkeData) -> bool:
    n = data.n
    for i in range(n):
        for j in range(i):
            if abs(data.sigma[i] - data.sigma[j]) < 0.08:
                return False
    for j in range(data.k, n):
        if abs(data.sigma[j]) > 0.95:
            return False
    pick = build_pick_matrix(data)
    return pick.min_eigenvalue > 1e-6 * float(np.max(np.abs(np.diag(pick.entries))))


def random_solvable_instances(seed: int, count: int, max_degree: int = 4):
    """Yield ``count`` pairs (data, source map) of known-solvable instances.

    Cycles through interior-node superficial maps, all-boundary superficial
    maps and rotated generator-family instances, rejecting ill-conditioned
    draws (close nodes, nodes hugging the circle, nearly singular Pick matrix).
    """
    rng = np.random.default_rng(seed)
    out = []
    kind = 0
    while len(out) < count:
        kind = (kind + 1) % 4
        try:
            if kind in (0, 1):
                degree = int(rng.integers(1, max_degree + 1))
                zeros = [
                    complex(rng.uniform(0.05, 0.6) * np.exp(2j * np.pi * rng.uniform()))
                    for _ in range(degree)
                ]
                constant = complex(np.exp(2j * np.pi * rng.uniform()))
                p = blaschke_rational(zeros, constant)
                if kind == 0:
                    beta = complex(rng.uniform(0.3, 0.9) * np.exp(2j * np.pi * rng.uniform()))
                else:
                    beta = complex(np.exp(2j * np.pi * rng.uniform()))
                    if degree > 3:
                        degree = 3
                        p = blaschke_rational(zeros[:3], constant)
                h = superficial_map(p, beta)
            elif kind == 2:
                h = rotate_map(generate_h_nu(0, float(rng.uniform(0.2, 0.8))), float(rng.uniform(0, 2 * np.pi)))
            else:
                if max_degree >= 4:
                    h = rotate_map(generate_h_nu(1, float(rng.uniform(0.2, 0.8))), float(rng.uniform(0, 2 * np.pi)))
                else:
                    h = rotate_map(generate_h_nu(0, float(rng.uniform(0.2, 0.8))), float(rng.uniform(0, 2 * np.pi)))
            data = extract_royal_data(h)
        except RoyalGammaError:
            continue
        if not _data_quality_ok(data):
            continue
        out.append((data, h))
    return out


@pytest.fixture(scope="session")
def solvable_instances():
    return random_solvable_instances(seed=20240, count=50)


# closed forms for the two worked one-node examples, used as oracles

def interior_example_target(eta: complex, kappa: complex) -> GammaInnerFn:
    """Degree-1 map with royal node 0 and value eta:
    p = (kappa lambda + eta^2)/(1 + conj(eta)^2 kappa lambda), s = beta + conj(beta) p,
    beta = -2 eta / (1 + |eta|^2)."""
    eta, kappa = complex(eta), complex(kappa)
    beta = -2.0 * eta / (1.0 + abs(eta) ** 2)
    num_p = Poly([eta**2, kappa])
    den = Poly([1.0, np.conj(eta) ** 2 * kappa])
    num_s = beta * den + np.conj(beta) * num_p
    return GammaInnerFn.from_numerators(num_s, num_p, den)


def boundary_example_target(eta: complex, rho: float, kappa: complex) -> GammaInnerFn:
    """Degree-1 map with royal node 1, value eta on the circle, and Ap(1) = 2 rho:
    p = eta^2 kappa (lambda - alpha)/(1 - conj(alpha) lambda) with
    alpha = (2 rho - conj(kappa))/(1 + 2 rho), s = -eta - conj(eta) p."""
    eta, kappa = complex(eta), complex(kappa)
    alpha = (2.0 * rho - np.conj(kappa)) / (1.0 + 2.0 * rho)
    num_p = eta**2 * kappa * Poly([-alpha, 1.0])
    den = Poly([1.0, -np.conj(alpha)])
    num_s = -eta * den - np.conj(eta) * num_p
    return GammaInnerFn.from_numerators(num_s, num_p, den)


def interior_example_data() -> BlaschkeData:
    return BlaschkeData(sigma=(0j,), eta=(0.5 + 0j,), rho=(), k=0)


def boundary_example_data() -> BlaschkeData:
    return BlaschkeData(sigma=(1.0 + 0j,), eta=(1j,), rho=(1.0,), k=1)
