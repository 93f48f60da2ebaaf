"""Complex polynomial and rational-function arithmetic, and the package's tolerance constants.

Polynomials are stored densely in ascending powers.  All values are immutable
after construction and every operation is pure, so concurrent reads are safe.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import NumericalFailure, ZeroPolynomial

__all__ = [
    "TRIM_TOL",
    "ROOT_CLUSTER_TOL",
    "RESIDUAL_TOL",
    "PD_TOL",
    "Poly",
    "RationalFn",
    "RootCluster",
    "poly_eval",
    "poly_eval_many",
    "poly_eval_compensated",
    "poly_derivative",
    "poly_roots",
    "poly_roots_many",
    "joint_reduce_many",
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
        a, b = self.coeffs, other.coeffs
        if a.size < b.size:
            a, b = b, a
        out = a.copy()
        out[: b.size] += b
        return Poly(out)

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
    # numpy arithmetic even at a scalar z: Python complex rounds x*y + w differently
    z = np.asarray(z, dtype=complex)
    if coeffs.ndim == 2:
        out = np.zeros((coeffs.shape[0], z.shape[-1]), complex)
        coeffs = coeffs.T[:, :, None]
    else:
        out = np.zeros(z.shape, complex)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def poly_eval(p: Poly, z):
    """Horner evaluation of ``p`` at a scalar or array argument."""
    out = _horner(p.coeffs, z)
    if out.ndim == 0:
        return complex(out)
    return out


def poly_eval_many(polys: Sequence[Poly], z) -> np.ndarray:
    """Each polynomial at the points ``z``, or at its own row of a 2-D ``z``,
    in one row-wise Horner pass: bit for bit the values :func:`poly_eval`
    gives.  The zero padding on top of a shorter row keeps its Horner value
    at +0 until the first true coefficient."""
    return _horner(_stacked(polys), z)


def _stacked(polys: Sequence[Poly], width: int = 1) -> np.ndarray:
    """The coefficients of each polynomial as a row, zero-padded on top to a
    common width of at least ``width``."""
    coeffs = np.zeros((len(polys), max([width] + [q.coeffs.size for q in polys])), complex)
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


def _two_sum(a, b):
    """a + b and its rounding error (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _halves(x):
    """Dekker's split of x into a high half of 26 bits and the low rest (2**27 + 1 splits a double)."""
    scaled = x * 134217729.0
    high = scaled - (scaled - x)
    return high, x - high


def _product_error(a_halves, b_halves, p):
    """The rounding error of the product p = a * b, from the halves of a and b (Dekker's TwoProduct)."""
    (a1, a2), (b1, b2) = a_halves, b_halves
    return ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _compensated_horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Each row of ``coeffs`` at the points ``z`` by compensated Horner.

    A step's value v is kept as two planes, its real and imaginary parts.
    v z is v Re(z) plus (i v) Im(z), both products taken part by part in one
    pass with their rounding errors; z's parts are split in halves once, and
    v's once per step for both products."""
    rows, size = coeffs.shape[0], z.size
    # arrays over (part, row, point), the real part at index 0 and the imaginary part at 1
    z_parts = np.empty((2, 1, rows, size))
    z_parts[0], z_parts[1] = z.real, z.imag
    z_halves = _halves(z_parts)
    planes = np.empty((coeffs.shape[1], 2, rows, size))
    planes[:, 0], planes[:, 1] = coeffs.T.real[:, :, None], coeffs.T.imag[:, :, None]
    swap_sign = np.array([-1.0, 1.0])[:, None, None]  # v Im(z) swapped and so signed is (i v) Im(z)
    out = np.zeros((2, rows, size))
    err = np.zeros((rows, size), complex)
    for c in planes[::-1]:
        products = out * z_parts  # [v Re(z), v Im(z)], each as [real part, imaginary part]
        errors = _product_error(_halves(out), z_halves, products)
        out, e3 = _two_sum(products[0], products[1, ::-1] * swap_sign)
        out, e4 = _two_sum(out, c)
        errors = ((errors[0] + errors[1, ::-1] * swap_sign) + e3) + e4
        err = err * z
        err.real += errors[0]
        err.imag += errors[1]
    err.real += out[0]
    err.imag += out[1]
    return err


def poly_eval_compensated(polys: Sequence[Poly], z) -> np.ndarray:
    """Each polynomial at the points ``z`` by compensated Horner (Graillat and
    Ménissier-Morain, 2008): as accurate as Horner in twice the working
    precision rounded once, so a value next to a root keeps its leading digits."""
    return _compensated_horner(_stacked(polys), np.asarray(z, dtype=complex))


def poly_derivative(p: Poly) -> Poly:
    """Coefficient-shifted derivative; the zero and constant cases give zero."""
    if p.coeffs.size <= 1:
        return Poly([])
    return Poly._untrimmed(p.coeffs[1:] * np.arange(1, p.coeffs.size))


class RootCluster(NamedTuple):
    value: complex
    multiplicity: int
    residual: float


def _stacked_companion_roots(coeffs: np.ndarray, zeros: int) -> np.ndarray:
    """Row i is ``np.roots(coeffs[i, ::-1])``, for rows of degree >= 1 with
    exactly ``zeros`` zero low coefficients: one stacked eigvals call."""
    m, n = coeffs.shape[0], coeffs.shape[1] - zeros - 1
    if not n:
        return np.zeros((m, zeros), complex)
    top = coeffs[:, zeros:][:, ::-1]
    companion = np.eye(n, k=-1, dtype=complex)[None].repeat(m, axis=0)
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

    clusters: list[list[complex]] = []
    for r in polished:
        for members in clusters:
            centroid = sum(members) / len(members)
            if abs(r - centroid) <= ROOT_CLUSTER_TOL:
                members.append(r)
                break
        else:
            clusters.append([r])

    centroids = []
    for members in clusters:
        centroid = complex(sum(members) / len(members))
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
    are merged into a single cluster whose size is the reported multiplicity;
    the cluster centroid is the reported value and ``|p(value)|`` its residual.
    Polynomials of one coefficient count and one number of zero low
    coefficients share a stacked eigvals call and row-wise Horner passes.

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
        coeffs[m:, :-1] = coeffs[:m, 1:] * np.arange(1, size)
        raw = _stacked_companion_roots(coeffs[:m], zeros)
        at_raw = _horner(coeffs, np.concatenate((raw, raw))).tolist()
        found = [_clusters(polys[i], *row) for i, row in zip(members, zip(raw.tolist(), at_raw[:m], at_raw[m:]))]
        width = max(len(centroids) for centroids, _ in found)
        points = np.array([centroids + [0j] * (width - len(centroids)) for centroids, _ in found])
        for i, (centroids, sizes), residuals in zip(members, found, _horner(coeffs[:m], points).tolist()):
            clusters = [RootCluster(c, size, abs(fc)) for c, size, fc in zip(centroids, sizes, residuals)]
            out[i] = sorted(clusters, key=lambda rc: (rc.value.real, rc.value.imag))
    return out


def poly_roots(p: Poly) -> list[RootCluster]:
    """The root clusters of ``p``: :func:`poly_roots_many` of one polynomial."""
    return poly_roots_many([p])[0]


class RationalFn:
    """Quotient of two :class:`Poly`; the denominator is never the zero polynomial."""

    __slots__ = ("num", "den")

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

    def __call__(self, z):
        return poly_eval(self.num, z) / poly_eval(self.den, z)

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


def joint_reduce_many(items: Sequence[tuple[tuple[Poly, ...], Poly]]) -> list[tuple[tuple[Poly, ...], Poly, list]]:
    """Cancel, for each (numerators, denominator) pair, the denominator roots
    shared by every numerator.

    A zero numerator shares every root.  Each stripped polynomial keeps its
    leading coefficient, and no sampled check compares the stripped pair with
    the input: this is the package's one root cancellation.
    Returns (numerators, denominator, denominator roots) per pair: the inputs
    themselves when nothing cancels, and the roots left after the
    cancellation, each repeated by its multiplicity.

    Every denominator's roots come from one :func:`poly_roots_many` call.  A
    pair can cancel only where all its numerators nearly vanish at a root z
    of the denominator, within 1e-3 of sum_j |c_j| (|z| + 1)^j: a numerator
    with a found root within ``ROOT_CLUSTER_TOL`` of z is at most that
    distance times this sum there, plus its small residual at the root.
    Only for such pairs are the numerators' roots found, in one more call,
    and paired.
    """
    pairs = [index for index, (_, den) in enumerate(items) if den.degree >= 1]
    den_clusters = dict(zip(pairs, poly_roots_many([items[index][1] for index in pairs])))
    numerators = [q for index in pairs for q in items[index][0]]
    width = max([1] + [len(clusters) for clusters in den_clusters.values()])
    points = np.zeros((len(numerators), width), complex)
    rows = iter(points)
    for index in pairs:
        for _ in items[index][0]:
            row = next(rows)
            row[: len(den_clusters[index])] = [rc.value for rc in den_clusters[index]]
    coeffs = _stacked(numerators)
    vanishing = np.abs(_horner(coeffs, points)) <= 1e-3 * _horner(np.abs(coeffs), np.abs(points) + 1.0).real
    vanishing = iter(vanishing.tolist())
    cancelling = set()
    for index in pairs:
        nums = items[index][0]
        together = [all(column) for column in zip(*(next(vanishing) for _ in nums))]
        if not nums or any(together[: len(den_clusters[index])]):
            cancelling.add(index)
    found = iter(poly_roots_many([q for index in sorted(cancelling) for q in items[index][0] if q.degree >= 1]))
    out = []
    for index, (nums, den) in enumerate(items):
        den_roots = [rc.value for rc in den_clusters.get(index, []) for _ in range(rc.multiplicity)]
        if index in cancelling:
            num_clusters = [None if q.is_zero else next(found) if q.degree >= 1 else [] for q in nums]
            den_roots, num_roots, cancelled = _pair_roots(den_clusters[index], num_clusters)
            if cancelled:
                nums = tuple(q if roots is None else Poly.from_roots(roots, leading=q.leading)
                             for q, roots in zip(nums, num_roots))
                den = Poly.from_roots(den_roots, leading=den.leading)
        out.append((nums, den, den_roots))
    return out
