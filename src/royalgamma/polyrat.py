"""Complex polynomial and rational-function arithmetic, and the package's tolerance constants.

Polynomials are stored densely in ascending powers.  All values are immutable
after construction and every operation is pure, so concurrent reads are safe.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ZeroPolynomial

__all__ = [
    "TRIM_TOL",
    "ROOT_CLUSTER_TOL",
    "RESIDUAL_TOL",
    "PD_TOL",
    "Poly",
    "RationalFn",
    "RootCluster",
    "poly_eval",
    "poly_derivative",
    "poly_roots",
    "poly_roots_many",
    "pole_margins",
    "joint_reduce",
]


# The numerical thresholds of the package, one set for every solve.

# Relative size below which a quantity counts as zero: ``Poly`` drops trailing
# coefficients at most this times the largest one, and the pole, degeneracy
# and vanishing tests (the royal-range test among them) use it too.
TRIM_TOL = 1e-12

# Radius within which nearby roots merge into one cluster; the cluster size is
# the reported multiplicity.
ROOT_CLUSTER_TOL = 1e-7

# Threshold on residuals: the identities checked while a map or a
# parametrization is built, the checks of a factored Blaschke form, and
# verification unless ``pass_tol`` is given.
RESIDUAL_TOL = 1e-8

# Margin for positive-definiteness and matrix-rank decisions.
PD_TOL = 1e-10


def _trim_coeffs(coeffs: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1:
        coeffs = np.atleast_1d(coeffs).ravel()
    if coeffs.size == 0:
        return coeffs
    scale = np.abs(coeffs).max()
    if scale == 0.0:
        return coeffs[:0]
    keep = coeffs.size
    # the scalar abs: numpy's array abs rounds some complex moduli differently
    while keep > 0 and abs(coeffs[keep - 1]) <= TRIM_TOL * scale:
        keep -= 1
    return coeffs[:keep].copy()


def _added(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The untrimmed sum of two coefficient arrays; beyond the shorter, the longer's signed zeros stay."""
    if a.size < b.size:
        a, b = b, a
    out = a.copy()
    out[: b.size] += b
    return out


def _trimmed_sizes(rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """How many coefficients ``Poly`` keeps of each row's first ``sizes``
    entries, decided as :func:`_trim_coeffs` decides it; the entries beyond
    them must be zero."""
    kept = ~(np.hypot(rows.real, rows.imag) <= TRIM_TOL * np.abs(rows).max(axis=1, keepdims=True))
    # beyond its size a row keeps nothing, unless a NaN scale keeps everything
    return np.minimum(np.where(kept, np.arange(1, rows.shape[1] + 1), 0).max(axis=1), sizes)


class Poly:
    """Dense complex polynomial, coefficient of lambda**j at index j.

    The zero polynomial is represented by an empty coefficient array and has
    degree -1 (the distinguished sentinel).  Trailing coefficients at most
    ``TRIM_TOL`` times the largest one are dropped at construction.
    Negation and the derivative skip the trim, which cannot bite there:
    negating keeps every modulus, and for finite trimmed coefficients the top
    one of the derivative, |n c_n| > 1e-12 n max|c_j|, exceeds 1e-12 times the
    others, each at most (n - 1) max|c_j|.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex]):
        trimmed = _trim_coeffs(coeffs if isinstance(coeffs, np.ndarray) else np.asarray(list(coeffs)))
        trimmed.setflags(write=False)
        object.__setattr__(self, "coeffs", trimmed)

    @classmethod
    def _untrimmed(cls, coeffs: np.ndarray) -> "Poly":
        coeffs.setflags(write=False)
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def leading(self) -> complex:
        if self.is_zero:
            return 0j
        return complex(self.coeffs[-1])

    def __call__(self, z):
        return poly_eval(self, z)

    def derivative(self) -> "Poly":
        return poly_derivative(self)

    def padded(self, size: int) -> np.ndarray:
        """The coefficients followed by zeros up to length ``size``."""
        out = np.zeros(size, dtype=complex)
        out[: self.coeffs.size] = self.coeffs
        return out

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(_added(self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        # in IEEE arithmetic a - b is a + (-b) bit for bit
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._untrimmed(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly([])
            return Poly(np.convolve(self.coeffs, other.coeffs))
        return Poly(self.coeffs * complex(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, scalar) -> "Poly":
        return Poly(self.coeffs / complex(scalar))

    def __repr__(self):
        return f"Poly({np.array2string(self.coeffs, separator=', ')})"

    @classmethod
    def from_roots(cls, roots: Iterable[complex], leading: complex = 1.0) -> "Poly":
        coeffs = np.array([complex(leading)])
        for r in roots:
            coeffs = np.convolve(coeffs, np.array([-complex(r), 1.0]))
        return cls(coeffs)

    def to_list(self) -> list:
        """Serialize as a JSON-friendly list of [re, im] pairs, ascending powers."""
        return [[float(c.real), float(c.imag)] for c in self.coeffs]

    @classmethod
    def from_list(cls, pairs) -> "Poly":
        return cls([complex(re, im) for re, im in pairs])


def _horner(coeffs: np.ndarray, z) -> np.ndarray:
    """One polynomial at every point of ``z``; for 2-D ``coeffs``, the
    polynomial of each row at the points ``z`` or, for 2-D ``z``, at the
    points in the same row of ``z``."""
    # numpy arithmetic at every z, a 0-d one too: root polishing needs poly_eval
    # to agree bit for bit with its batched form
    z = np.asarray(z, dtype=complex)
    if coeffs.ndim == 2:
        out = np.zeros((coeffs.shape[0], z.shape[-1]), complex)
        coeffs = coeffs.T[:, :, None]
    else:
        out = np.zeros(z.shape, complex)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _is_point(z) -> bool:
    """Whether ``z`` is one point: a Python or numpy number, or a 0-d array."""
    return isinstance(z, (complex, float, int)) or np.ndim(z) == 0


def _horner_at(coeffs: list, z: complex) -> complex:
    """The polynomial with the Python complex ``coeffs`` (ascending) at the one
    point ``z``, by Horner's rule in Python complex arithmetic.  Its error is at
    most 4 n u sum_j |c_j| |z|^j at degree n (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., section 5.1), as the exact-oracle tests
    of the point path check."""
    out = 0j
    for c in reversed(coeffs):
        out = out * z + c
    return out


def poly_eval(p: Poly, z):
    """Horner evaluation of ``p`` at a scalar or array argument."""
    out = _horner(p.coeffs, z)
    if out.ndim == 0:
        return complex(out)
    return out


def _stacked(polys: Sequence[Poly]) -> np.ndarray:
    """The coefficients of each polynomial as a row, zero-padded on top to a
    common width of at least 1."""
    coeffs = np.zeros((len(polys), max([1] + [q.coeffs.size for q in polys])), complex)
    for row, q in zip(coeffs, polys):
        row[: q.coeffs.size] = q.coeffs
    return coeffs


def _products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The product of the polynomials whose coefficients run along the last
    axis of ``left`` and ``right``, one for each index of the other axes."""
    width = right.shape[-1]
    out = np.zeros(left.shape[:-1] + (left.shape[-1] + width - 1,), complex)
    for power in range(left.shape[-1]):
        out[..., power:power + width] += left[..., power:power + 1] * right
    return out


@functools.cache
def _ramp(size: int) -> np.ndarray:
    """1, 2, ..., size - 1, read-only: the factors j of a derivative's coefficients j c_j."""
    out = np.arange(1, size)
    out.setflags(write=False)
    return out


def poly_derivative(p: Poly) -> Poly:
    """Coefficient-shifted derivative; the zero and constant cases give zero."""
    if p.coeffs.size <= 1:
        return Poly([])
    return Poly._untrimmed(p.coeffs[1:] * _ramp(p.coeffs.size))


class RootCluster(NamedTuple):
    """A root of a polynomial, the centroid of the raw roots merged into it, and how many were merged."""

    value: complex
    multiplicity: int


def _stacked_companion_roots(coeffs: np.ndarray, zeros: int) -> np.ndarray:
    """Row i is ``np.roots(coeffs[i, ::-1])``, for rows of degree >= 1 with
    exactly ``zeros`` zero low coefficients: one stacked eigvals call."""
    m, n = coeffs.shape[0], coeffs.shape[1] - zeros - 1
    if not n:
        return np.zeros((m, zeros), complex)
    top = coeffs[:, zeros:][:, ::-1]
    companion = np.zeros((m, n, n), complex)
    companion.reshape(m, n * n)[:, n::n + 1] = 1.0  # the subdiagonal
    companion[:, 0, :] = -top[:, 1:] / top[:, :1]
    roots = np.linalg.eigvals(companion)
    return np.concatenate((roots, np.zeros((m, zeros), complex)), axis=1) if zeros else roots


def _clusters(p: Poly, raw: list, values: list, slopes: list) -> tuple[list[complex], list[int]]:
    """Centroids and sizes of the clusters of the raw roots of ``p``, given p
    and p' there (``values``, ``slopes``)."""
    # step in Python complex: numpy's complex division rounds differently
    polished = []
    for r, fr, dfr in zip(raw, values, slopes):
        if dfr != 0:
            step = fr / dfr
            if abs(step) < 1e-4:
                r = r - step
        polished.append(complex(r))
    polished.sort(key=lambda w: (w.real, w.imag))

    # each cluster's centroid is kept, and recomputed only when the cluster grows
    clusters: list[list[complex]] = []
    means: list[complex] = []
    for r in polished:
        for k, centroid in enumerate(means):
            if abs(r - centroid) <= ROOT_CLUSTER_TOL:
                break
        else:
            k = len(means)
            clusters.append([])
            means.append(r)
        clusters[k].append(r)
        means[k] = sum(clusters[k]) / len(clusters[k])

    centroids = []
    for members, centroid in zip(clusters, means):
        m = len(members)
        if m >= 2:
            # an m-fold root of p is a simple root of the (m-1)-th derivative;
            # Newton there recovers the accuracy lost to root splitting
            q = p
            for _ in range(m - 1):
                q = poly_derivative(q)
            dq = poly_derivative(q)
            for _ in range(2):
                dqv = poly_eval(dq, centroid)
                if dqv == 0:
                    break
                step = poly_eval(q, centroid) / dqv
                if abs(step) > 1e-3:
                    break
                centroid -= step
        centroids.append(centroid)
    return centroids, [len(members) for members in clusters]


def poly_roots_many(polys: Sequence[Poly]) -> list[list[RootCluster]]:
    """All roots of each polynomial, counted with multiplicity.

    Roots come from the eigenvalues of the balanced companion matrix, each
    polished with one Newton step.  Roots closer than ``ROOT_CLUSTER_TOL``
    are merged into a single cluster whose size is the reported multiplicity
    and whose centroid is the reported value.  Polynomials of one coefficient
    count and one number of zero low coefficients share a stacked eigvals call
    and one row-wise Horner pass, of them and their derivatives at the raw roots.

    Raises
    ------
    ZeroPolynomial
        If a polynomial is identically zero (roots are undefined).
    """
    out: list[list[RootCluster]] = [[] for _ in polys]
    groups: dict[tuple[int, int], list[int]] = {}
    for index, p in enumerate(polys):
        if p.is_zero:
            raise ZeroPolynomial("roots of the zero polynomial are undefined")
        if p.degree >= 1:
            zeros = 0
            while p.coeffs[zeros] == 0:
                zeros += 1
            groups.setdefault((p.coeffs.size, zeros), []).append(index)
    for (size, zeros), members in groups.items():
        m = len(members)
        # the polynomials, then their derivatives zero-padded on top
        coeffs = np.zeros((2 * m, size), complex)
        coeffs[:m] = [polys[i].coeffs for i in members]
        coeffs[m:, :-1] = coeffs[:m, 1:] * _ramp(size)
        raw = _stacked_companion_roots(coeffs[:m], zeros)
        at_raw = _horner(coeffs, np.concatenate((raw, raw))).tolist()
        for i, row in zip(members, zip(raw.tolist(), at_raw[:m], at_raw[m:])):
            clusters = map(RootCluster, *_clusters(polys[i], *row))
            out[i] = sorted(clusters, key=lambda rc: (rc.value.real, rc.value.imag))
    return out


def poly_roots(p: Poly) -> list[RootCluster]:
    """The root clusters of ``p``: :func:`poly_roots_many` of one polynomial."""
    return poly_roots_many([p])[0]


def _schur_parameters(coeffs: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The Schur–Cohn recursion on q(lambda) = D(R lambda), R = 1 + ``ROOT_CLUSTER_TOL``, for the
    polynomial D of each row of ``coeffs`` (its first ``sizes`` entries, the rest zero): the gamma_k
    of its steps, 0 beyond a row's degree (rows x largest degree).

    A step at degree m takes gamma = q_m / conj(q_0) and q <- q - gamma q~, where
    q~(lambda) = lambda^m conj(q(1 / conj(lambda))) has |q~| = |q| on the circle; q_m cancels.
    If |gamma| < 1, then |gamma q~| < |q| on the circle wherever q != 0, so there
    q - gamma q~ vanishes exactly where q does and, by Rouché when that is nowhere, has as many
    zeros as q in the open disc.  If |gamma| >= 1, the product of the m roots of q has modulus
    |q_0 / q_m| <= 1, so one lies in the closed disc.  So D has no zero in |lambda| <= R iff every
    |gamma_k| < 1 (Henrici, *Applied and Computational Complex Analysis*, vol. 1, section 6.8).
    q~ is carried along: gamma = conj(q~_0 / q_0), (q~ - conj(gamma) q) / lambda is the new q~, and
    both are scaled by the power of two that brings |q_0| into [1/2, 1), exactly.  The arithmetic is
    row by row, and a row's columns beyond its degree never reach the rest: its bits are its own."""
    degree = np.maximum(np.asarray(sizes) - 1, 0)
    steps = int(degree.max(initial=0))
    q = coeffs[:, :steps + 1] * np.cumprod(np.concatenate(([1.0], np.full(steps, 1.0 + ROOT_CLUSTER_TOL))))  # R^j
    index = degree[:, None] - np.arange(steps + 1)
    reflected = np.where(index >= 0, np.conj(q[np.arange(len(q))[:, None], np.maximum(index, 0)]), 0.0)
    out = np.zeros((len(coeffs), steps), complex)
    with np.errstate(all="ignore"):  # a zero q_0 or a NaN fails the test, and must not warn
        for k in range(steps):
            gamma = np.where(degree > k, np.conj(reflected[:, 0] / q[:, 0]), 0.0)
            q, reflected = (q - gamma[:, None] * reflected)[:, :-1], (reflected - np.conj(gamma)[:, None] * q)[:, 1:]
            scale = np.ldexp(1.0, -np.frexp(np.abs(q[:, 0]))[1])[:, None]
            q, reflected, out[:, k] = q * scale, reflected * scale, gamma
    return out


def pole_margins(coeffs: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """1 - max_k |gamma_k| of :func:`_schur_parameters` for each row: positive iff its polynomial
    has no zero in the closed disc of radius 1 + ``ROOT_CLUSTER_TOL``; 1 for a constant, 1 - R / |root|
    at degree 1, and NaN, which fails the test, for a NaN coefficient."""
    return 1.0 - np.abs(_schur_parameters(coeffs, sizes)).max(axis=1, initial=0.0)


class RationalFn:
    """Quotient of two :class:`Poly`; the denominator is never the zero polynomial.  At one point num and
    den are evaluated in Python complex arithmetic, on their coefficient lists, kept from the first point
    call, and divided in Python; on an array of points in one two-row Horner pass, with nothing kept."""

    __slots__ = ("num", "den", "_lists")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroDivisionError("rational function denominator is the zero polynomial")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    def _coefficient_lists(self) -> tuple[list, list]:
        """num's and den's coefficients as Python lists of complex, made on the first call and kept."""
        if not hasattr(self, "_lists"):
            object.__setattr__(self, "_lists", (self.num.coeffs.tolist(), self.den.coeffs.tolist()))
        return self._lists

    def values(self, z) -> np.ndarray:
        """num and den at every point of ``z`` in one two-row Horner pass, bit
        for bit the values :func:`poly_eval` gives: shape (2,) + z.shape."""
        z = np.asarray(z, dtype=complex)
        return _horner(_stacked((self.num, self.den)), z.reshape(-1)).reshape((2,) + z.shape)

    def __call__(self, z):
        if _is_point(z):
            z = complex(z)
            num, den = self._coefficient_lists()
            return _horner_at(num, z) / _horner_at(den, z)
        num, den = self.values(z)
        return num / den

    def __repr__(self):
        return f"RationalFn({self.num!r}, {self.den!r})"

    def to_json_dict(self) -> dict:
        return {"num": self.num.to_list(), "den": self.den.to_list()}

    @classmethod
    def from_json_dict(cls, obj) -> "RationalFn":
        return cls(Poly.from_list(obj["num"]), Poly.from_list(obj["den"]))


def _pair_roots(den_clusters, num_clusters):
    """Cancel the denominator roots that every numerator shares, respecting multiplicities.

    ``num_clusters`` holds the root clusters of each numerator, or None for
    the zero numerator, which shares every root.  Roots pair when they lie
    within ``ROOT_CLUSTER_TOL``.  Returns the remaining denominator roots, the
    remaining roots of each numerator (None stays None) and the number of
    roots cancelled.
    """
    den_left = [[rc.value, rc.multiplicity] for rc in den_clusters]
    nums_left = [None if clusters is None else [[rc.value, rc.multiplicity] for rc in clusters]
                 for clusters in num_clusters]
    cancelled = 0
    for d_entry in den_left:
        near = [[e for e in left if abs(e[0] - d_entry[0]) <= ROOT_CLUSTER_TOL]
                for left in nums_left if left is not None]
        m = min([d_entry[1]] + [sum(e[1] for e in entries) for entries in near])
        d_entry[1] -= m
        cancelled += m
        for entries in near:
            rest = m
            for e in entries:
                cut = min(e[1], rest)
                e[1] -= cut
                rest -= cut

    def expand(left):
        return [v for v, mult in left for _ in range(mult)]

    return expand(den_left), [None if left is None else expand(left) for left in nums_left], cancelled


def joint_reduce(nums: Sequence[Poly], den: Poly) -> tuple[tuple[Poly, ...], Poly]:
    """Cancel the denominator roots that every numerator shares.

    A zero numerator shares every root.  The roots of ``den`` and of each
    nonconstant numerator come from one :func:`poly_roots_many` call and pair
    as :func:`_pair_roots` pairs them.  Each stripped polynomial keeps its
    leading coefficient, and no sampled check compares the stripped function
    with the input: this is the package's one root cancellation.
    Returns (numerators, denominator): the inputs themselves when nothing
    cancels, or when a coefficient is not finite and no root can be found.
    """
    nums = tuple(nums)
    if den.degree < 1 or not all(np.isfinite(q.coeffs).all() for q in (den, *nums)):
        return nums, den
    den_clusters, *found = poly_roots_many([den, *(q for q in nums if q.degree >= 1)])
    found = iter(found)
    num_clusters = [None if q.is_zero else next(found) if q.degree >= 1 else [] for q in nums]
    den_roots, num_roots, cancelled = _pair_roots(den_clusters, num_clusters)
    if not cancelled:
        return nums, den
    return (tuple(q if roots is None else Poly.from_roots(roots, leading=q.leading) for q, roots in zip(nums, num_roots)),
            Poly.from_roots(den_roots, leading=den.leading))
