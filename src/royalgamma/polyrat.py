"""Complex polynomial and rational-function arithmetic, and the package's tolerance constants.

Polynomials are stored densely in ascending powers.  All values are immutable
after construction and every operation is pure, so concurrent reads are safe.
"""

from __future__ import annotations

import functools
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
    "rat_reduce",
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

# Threshold on residuals: the identities checked while a map is built, the
# sampled drift of a reduction, and verification unless ``pass_tol`` is given.
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
    polynomial of each row at the points in the same row of ``z``."""
    # numpy arithmetic even at a scalar z: Python complex rounds x*y + w differently
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, complex)
    for c in (coeffs.T[:, :, None] if coeffs.ndim == 2 else coeffs)[::-1]:
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
    z = np.asarray(z, dtype=complex)
    coeffs = np.zeros((len(polys), max((q.coeffs.size for q in polys), default=0)), complex)
    for row, q in zip(coeffs, polys):
        row[: q.coeffs.size] = q.coeffs
    return _horner(coeffs, np.broadcast_to(z, (len(polys), z.shape[-1])))


def _two_sum(a, b):
    """a + b and its rounding error (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_product(a, b):
    """a * b and its rounding error (Dekker's TwoProduct; 2**27 + 1 splits a double in halves)."""
    a1, b1 = (x * 134217729.0 - (x * 134217729.0 - x) for x in (a, b))
    p = a * b
    return p, ((a1 * b1 - p) + a1 * (b - b1) + (a - a1) * b1) + (a - a1) * (b - b1)


def poly_eval_compensated(polys: Sequence[Poly], z) -> np.ndarray:
    """Each polynomial at the points ``z`` by compensated Horner (Graillat and
    Ménissier-Morain, 2008): as accurate as Horner in twice the working
    precision rounded once, so a value next to a root keeps its leading digits."""
    z = np.asarray(z, dtype=complex)
    size = max(q.coeffs.size for q in polys)
    out = err = np.zeros((len(polys), z.size), complex)
    for c in np.array([q.padded(size) for q in polys]).T[::-1, :, None]:
        # out * z + c = out + e1 + e2 + e3 + e4 exactly, the products taken part by part
        (p1, e1), (p2, e2) = _two_product(out, z.real), _two_product(1j * out, z.imag)
        out, e3 = _two_sum(p1, p2)
        out, e4 = _two_sum(out, c)
        err = err * z + (e1 + e2 + e3 + e4)
    return out + err


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

    def normalized(self) -> "RationalFn":
        """Scale numerator and denominator so the denominator is monic."""
        lead = self.den.leading
        return RationalFn(self.num / lead, self.den / lead)

    def __repr__(self):
        return f"RationalFn({self.num!r}, {self.den!r})"

    def to_json_dict(self) -> dict:
        return {"num": self.num.to_list(), "den": self.den.to_list()}

    @classmethod
    def from_json_dict(cls, obj) -> "RationalFn":
        return cls(Poly.from_list(obj["num"]), Poly.from_list(obj["den"]))


def _pair_roots(den_clusters, num_clusters, pair_tol: float):
    """Cancel the denominator roots that every numerator shares, respecting multiplicities.

    ``num_clusters`` holds the root clusters of each numerator, or None for
    the zero numerator, which shares every root.  Roots pair when they lie
    within ``pair_tol``.  Returns the remaining denominator roots, the
    remaining roots of each numerator (None stays None) and the number of
    roots cancelled.
    """
    den_left = [[rc.value, rc.multiplicity] for rc in den_clusters]
    nums_left = [None if clusters is None else [[rc.value, rc.multiplicity] for rc in clusters]
                 for clusters in num_clusters]
    cancelled = 0
    for d_entry in den_left:
        near = [[e for e in left if abs(e[0] - d_entry[0]) <= pair_tol]
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
    leading coefficient; unlike :func:`rat_reduce` there is no sampled check.
    All roots come from one :func:`poly_roots_many` call.  Returns
    (numerators, denominator, denominator roots) per pair: the inputs
    themselves when nothing cancels, and the roots left after the
    cancellation, each repeated by its multiplicity.
    """
    found = iter(poly_roots_many([q for nums, den in items if den.degree >= 1
                                  for q in (den, *nums) if q.degree >= 1]))
    out = []
    for nums, den in items:
        den_roots: list[complex] = []
        if den.degree >= 1:
            den_clusters = next(found)
            num_clusters = [None if q.is_zero else next(found) if q.degree >= 1 else [] for q in nums]
            den_roots, num_roots, cancelled = _pair_roots(den_clusters, num_clusters, ROOT_CLUSTER_TOL)
            if cancelled:
                nums = tuple(q if roots is None else Poly.from_roots(roots, leading=q.leading)
                             for q, roots in zip(nums, num_roots))
                den = Poly.from_roots(den_roots, leading=den.leading)
        out.append((nums, den, den_roots))
    return out


@functools.cache
def _drift_candidates() -> np.ndarray:
    """The fixed sequence of 4000 sample candidates in the annulus 0.1 <= |z| <= 2.5.

    Bit for bit the points that alternating ``uniform(0.1, 2.5)`` radius and
    ``uniform()`` angle draws from ``default_rng(20311)`` give.  Built on first
    use, not at import.
    """
    u = np.random.default_rng(20311).random(8000)
    out = (0.1 + 2.4 * u[0::2]) * np.exp(2j * np.pi * u[1::2])
    out.setflags(write=False)
    return out


def _sampled_drift(reference: RationalFn, candidate: RationalFn, avoid) -> float:
    """Relative disagreement of ``candidate`` with ``reference`` at 32
    deterministic points away from all roots: the first candidates of
    :func:`_drift_candidates` at least 5e-2 from every point of ``avoid``,
    filtered 64 at a time.  Distances use ``np.hypot`` and the quotients
    Python complex division, because numpy's complex ``abs`` and division
    round differently from the scalar operations this check was defined with.
    """
    candidates = _drift_candidates()
    avoid = np.asarray(avoid, dtype=complex)
    kept: list[complex] = []
    for start in range(0, candidates.size, 64):
        block = candidates[start:start + 64]
        gap = block[:, None] - avoid[None, :]
        kept += block[~np.any(np.hypot(gap.real, gap.imag) < 5e-2, axis=1)].tolist()
        if len(kept) >= 32:
            break
    values = poly_eval_many([reference.num, reference.den, candidate.num, candidate.den], kept[:32]).tolist()
    worst = 0.0
    for rn, rd, cn, cd in zip(*values):
        ref = rn / rd
        worst = max(worst, abs(ref - cn / cd) / max(1.0, abs(ref)))
    return worst


# Pairing tolerances of the reduction, loosest first; 1e-300 cancels only exact pairs.
_PAIR_TOLS = (ROOT_CLUSTER_TOL, ROOT_CLUSTER_TOL * 1e-2, ROOT_CLUSTER_TOL * 1e-4, 1e-300)


def rat_reduce(f: RationalFn) -> RationalFn:
    """Cancel root pairs shared by numerator and denominator; monic denominator.

    Roots of the numerator within ``ROOT_CLUSTER_TOL`` of a root of the
    denominator are cancelled, respecting multiplicities.  When nothing pairs,
    the input is returned with its denominator made monic.  A cancelled form
    is checked against the input at 32 deterministic sample points away from
    the roots.  A pair that merely passes within the pairing tolerance without
    being a genuine common factor would move those sampled values, so on
    disagreement beyond ``RESIDUAL_TOL`` the pairing backs off to tighter
    tolerances, cancelling nothing in the worst case (faithfulness wins over
    eagerness); a function that still disagrees raises
    :class:`NumericalFailure`.
    """
    if f.num.is_zero:
        return RationalFn(Poly([]), Poly([1.0]))
    # rescale so the denominator is O(1); extreme scales would overflow the
    # leading-coefficient ratio of the cancelled form
    den_scale = float(np.max(np.abs(f.den.coeffs)))
    f = RationalFn(Poly(f.num.coeffs / den_scale), Poly(f.den.coeffs / den_scale))
    found = iter(poly_roots_many([q for q in (f.num, f.den) if q.degree >= 1]))
    num, den = (next(found) if q.degree >= 1 else [] for q in (f.num, f.den))
    avoid = [rc.value for rc in num + den]
    worst = None
    for pair_tol in _PAIR_TOLS:
        den_roots, (num_roots,), cancelled = _pair_roots(den, [num], pair_tol)
        if not cancelled:
            reduced = f.normalized()
            if worst is None:
                # the loosest pairing cancels nothing, so no tighter one does
                return reduced
        else:
            reduced = RationalFn(Poly.from_roots(num_roots, leading=f.num.leading / f.den.leading),
                                 Poly.from_roots(den_roots, leading=1.0))
        drift = _sampled_drift(f, reduced, avoid)
        if drift <= RESIDUAL_TOL:
            return reduced
        worst = drift if worst is None else min(worst, drift)
    raise NumericalFailure(f"no faithful cancellation found; best sampled drift {worst:.3e}")
