"""The composed cross-check of verification: probe parameters omega for the
linear-fractional functionals (2 omega p - s)/(2 - omega s), and the
residuals of each map's composed functions at the royal nodes."""

from __future__ import annotations

import functools

import numpy as np

from .pick import BlaschkeData
from .polyrat import TRIM_TOL


@functools.cache
def _comb_turns() -> np.ndarray:
    """The rigid comb of eight probes, turned in 300 small steps: (turns x 8)."""
    turns = np.exp(1j * (np.pi * (2.0 * np.arange(8) + 1.0) / 8.0 + 0.0137 * np.arange(300)[:, None]))
    turns.setflags(write=False)
    return turns


def _phi_check_omegas(s_at_nodes: np.ndarray, data: BlaschkeData) -> np.ndarray:
    """Eight deterministic probe points for each map, given s at the nodes
    (maps x nodes, or one map's nodes), staying away from the removable
    singularities -conj(eta_j) and from near-poles of the composed function;
    a map no placement clears gets NaN probes.

    The first turn of the rigid comb (:func:`_comb_turns`) that clears every
    singularity is taken; where no turn does (from nine boundary nodes on it
    cannot), each probe goes on its own into the widest gaps between the
    singularities.  The singularities depend on eta alone, so which turns
    clear them is decided once for all maps, and the turns after the first
    only when some map needs them."""
    s_at_nodes = np.asarray(s_at_nodes)
    rows = s_at_nodes.reshape(-1, s_at_nodes.shape[-1])
    forbidden = -np.conj(np.array(data.eta[: data.k], dtype=complex))

    def clear_of_eta(probes):
        gap = probes[..., None] - forbidden
        return np.all(np.hypot(gap.real, gap.imag) > 0.05, axis=(-2, -1))

    def bounded(probes, todo):
        # keep |2 - omega s| bounded away from zero at every node
        return np.all(np.abs(2.0 - probes[:, None] * rows[todo][:, None, :]) > 0.02, axis=(1, 2))

    def candidates():
        # the first turn clears almost always; the others are tested together when it does not
        for turns in np.split(_comb_turns(), [1]):
            yield from turns[clear_of_eta(turns)]
        if forbidden.size:
            starts = np.sort(np.angle(forbidden) % (2.0 * np.pi))
            widths = np.diff(starts, append=starts[0] + 2.0 * np.pi)
            counts = np.zeros(starts.size, int)
            for _ in range(8):
                # the next probe splits the gap whose probes lie farthest apart
                counts[np.argmax(widths / (counts + 1))] += 1
            gaps = np.exp(1j * np.concatenate([start + width * np.arange(1, count + 1) / (count + 1)
                                               for start, width, count in zip(starts, widths, counts)]))
            if clear_of_eta(gaps):
                yield gaps

    out = np.full((len(rows), 8), complex(np.nan, np.nan))
    todo = np.arange(len(rows))
    for probes in candidates():
        placed = bounded(probes, todo)
        out[todo[placed]] = probes
        todo = todo[~placed]
        if not todo.size:
            break
    return out.reshape(s_at_nodes.shape[:-1] + (8,))


def _crosscheck(probes: np.ndarray, data: BlaschkeData, s, p, ds, dp) -> list[dict[str, float] | str]:
    """Residuals of (2 omega p - s)/(2 - omega s) for each map (row), one
    function per probe omega of its row, from s, p, s' and p' at the nodes:
    with top = 2 omega p - s and bottom = 2 - omega s (both at most 4 in
    modulus), its value top/bottom should be eta_j, and its phasar derivative
    at a boundary node z, by the chain rule
    Re(z ((2 omega p' - s')/top + omega s'/bottom)), rho_j.  A map gets
    instead the text of its failure: NaN probes, or the first probe, and
    within it the first node, where bottom or (at a boundary node) top is at
    most 1e3 TRIM_TOL."""
    k = data.k
    omega, s, p = probes[:, :, None], s[:, None, :], p[:, None, :]
    top, bottom = 2.0 * omega * p - s, 2.0 - omega * s
    vanishes = (np.abs(top) <= 1e3 * TRIM_TOL) & (np.arange(top.shape[2]) < k)
    pole = np.abs(bottom) <= 1e3 * TRIM_TOL
    unplaced = np.isnan(probes).any(axis=1)
    bad = (vanishes | pole).any(axis=(1, 2))
    ok = ~(unplaced | bad)
    ok = slice(None) if ok.all() else ok
    interp = np.max(np.abs(top[ok] / bottom[ok] - np.array(data.eta)), axis=(1, 2)).tolist()
    if k:
        z, omega, ds = np.array(data.sigma[:k]), omega[ok], ds[ok][:, None, :k]
        phasar = z * ((2.0 * omega * dp[ok][:, None, :k] - ds) / top[ok][:, :, :k] + omega * ds / bottom[ok][:, :, :k])
        phasar_max = np.max(np.abs(phasar.real - np.array(data.rho)), axis=(1, 2)).tolist()
    outcomes = []
    done = iter(range(len(interp)))
    for row in range(len(probes)):
        if unplaced[row]:
            outcomes.append("could not place probe points away from all singularities")
        elif bad[row]:
            probe, node = np.argwhere(vanishes[row] | pole[row])[0]
            what = "vanishes" if vanishes[row, probe, node] else "has a pole"
            outcomes.append(f"function {what} at {complex(data.sigma[node])}")
        else:
            j = next(done)
            outcomes.append({"phi_omega_interp_max": interp[j], **({"phi_omega_phasar_max": phasar_max[j]} if k else {})})
    return outcomes
