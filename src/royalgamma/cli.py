"""Command-line front end.

Subcommands: solve, verify, sweep, blaschke, roundtrip.  Inputs and results
are JSON (complex numbers as [re, im] pairs), sweeps are CSV, plots are SVG.
Exit codes are disjoint: 0 success, 1 input error, 2 unsolvable or
inapplicable, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ._svg import Panel, panels_svg
from .blaschke import (
    build_parametrization,
    circle_grid,
    phasar_derivative,
    solve_blaschke,
    to_blaschke_product,
)
from .errors import (
    ExceptionalZeta,
    InvalidData,
    MultiplicityAboveOne,
    RoyalGammaError,
    RoyalRange,
)
from .gamma import (
    GammaInnerFn,
    classify_point,
    extract_royal_data,
    gamma_inner_distance,
    generate_h_nu,
    solve_royal_problem,
    verify_royal_solution,
)
from .pick import BlaschkeData, build_pick_matrix, check_positive_definite, choose_tau

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNSOLVABLE = 2
EXIT_VERIFICATION = 3

ROUNDTRIP_MATCH_TOL = 1e-6


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors are input errors: ``main`` prints
    ``input error: <message>`` and exits with the input-error code."""

    def error(self, message):
        raise InvalidData(message)


def _grid_size(text: str) -> int:
    size = int(text)
    if not 8 <= size <= 65536:
        raise argparse.ArgumentTypeError(f"must lie in [8, 65536], got {size}")
    return size


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be strictly positive")
    return value


def _build_parser() -> _Parser:
    """Each subcommand declares only the flags it reads."""
    parser = _Parser(prog="royalgamma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="solve the royal interpolation problem from a data file")
    verify = sub.add_parser("verify", help="verify a candidate map against interpolation data")
    sweep = sub.add_parser("sweep", help="tabulate a one-parameter solution family as CSV")
    blaschke = sub.add_parser(
        "blaschke", help="solve the scalar interpolation problem and emit its parametrization",
        description="Solve the scalar interpolation problem at min(--omega-grid, 64) parameters "
                    "and emit its parametrization.",
    )
    roundtrip = sub.add_parser("roundtrip", help="extract data from a map, re-solve, and match the original")

    for p in (solve, sweep, blaschke):
        p.add_argument("--input", required=True, help="interpolation data JSON path")
    for p in (verify, roundtrip):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", help='map JSON path; verify also reads the "data" of an {"h", "data"} file')
        source.add_argument("--generator", choices=["h_nu"], help="built-in generator name")
        p.add_argument("--nu", type=int, default=0, help="generator index parameter")
        p.add_argument("--r", type=float, default=0.5, help="generator radius parameter in (0, 1)")
    for p in (solve, verify, blaschke, roundtrip):
        p.add_argument("--output", help="output path (default: stdout)")
    sweep.add_argument("--output", required=True, help="output CSV path")
    for p in (solve, verify):
        p.add_argument("--tol", type=_positive, dest="pass_tol", metavar="TOL",
                       help="verification threshold on every residual")
    for p in (solve, sweep, blaschke, roundtrip):
        p.add_argument("--omega-grid", type=_grid_size, default=256, dest="omega_grid",
                       help="parameter grid size in [8, 65536]")
    sweep.add_argument("--plot", action="store_true", help="also write an SVG plot beside the CSV")
    return parser


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InvalidData(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidData(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise InvalidData(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    except OSError as exc:
        raise InvalidData(f"cannot read input file {path}: {exc.strerror}")


def _write_text(path: str | None, text: str) -> None:
    """The one writer of every output: JSON, CSV and SVG."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidData(f"cannot write output file {path}: {exc.strerror}")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _c(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _obtain_h(args: argparse.Namespace):
    """The map of ``--generator`` or ``--input``, and the "data" object that an
    {"h", "data"} input file carries (None otherwise)."""
    if args.generator is not None:
        return generate_h_nu(args.nu, args.r), None
    payload, data = _read_json(args.input), None
    if isinstance(payload, dict) and "h" in payload:
        payload, data = payload["h"], payload.get("data")
    if isinstance(payload, dict) and "s" in payload and "p" in payload:
        return GammaInnerFn.from_json_dict(payload), data
    raise InvalidData('expected a map object with "s" and "p" components')


def _solve(data: BlaschkeData, **options):
    """The pipeline with the options a command reads; a failed step is reported on stderr."""
    result = solve_royal_problem(data, **options)
    if result.status != "solved":
        print(f"not solvable at step {result.failed_step}: {result.reason}", file=sys.stderr)
    return result


def _solution_json(sol) -> dict:
    return {
        "omega": None if sol.omega is None else _c(sol.omega),
        "t": sol.t,
        "s0": _c(sol.s0),
        "p0": _c(sol.p0),
        "h": sol.h.to_json_dict(),
        "report": sol.report.to_json_dict(),
    }


def cmd_solve(args: argparse.Namespace) -> int:
    data = BlaschkeData.from_json_dict(_read_json(args.input))
    result = _solve(data, omega_grid=args.omega_grid, pass_tol=args.pass_tol)
    if result.status != "solved":
        payload = {
            "status": "not_solvable",
            "failed_step": result.failed_step,
            "reason": result.reason,
        }
        _write_text(args.output, _dump(payload))
        return EXIT_UNSOLVABLE
    payload = {
        "status": "solved",
        "tau": _c(result.tau),
        "pick_min_eigenvalue": result.positivity.min_eigenvalue,
        "s0p0_kind": result.s0p0.kind,
        "solutions": [_solution_json(s) for s in result.solutions],
        "verified_count": len(result.verified),
    }
    _write_text(args.output, _dump(payload))
    if not result.verified:
        print("solutions constructed but none verified", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    h, data_obj = _obtain_h(args)
    if data_obj is not None:
        data = BlaschkeData.from_json_dict(data_obj)
    else:
        try:
            data = extract_royal_data(h)
        except RoyalRange:
            payload = {"pass": False, "royal_range": True,
                       "failures": ["royal_range: the map sends the disc into the royal variety"]}
            _write_text(args.output, _dump(payload))
            print("verification failed: royal range", file=sys.stderr)
            return EXIT_VERIFICATION
        except MultiplicityAboveOne as exc:
            print(f"inapplicable: {exc}", file=sys.stderr)
            return EXIT_UNSOLVABLE

    report = verify_royal_solution(h, data, pass_tol=args.pass_tol)
    grid = circle_grid(256)
    counts: dict[str, int] = {}
    for z in grid:
        label = classify_point(h(z)).value
        counts[label] = counts.get(label, 0) + 1
    payload = report.to_json_dict()
    payload["boundary_classification_counts"] = dict(sorted(counts.items()))
    _write_text(args.output, _dump(payload))
    if not report.passed:
        print("verification failed: " + "; ".join(report.failures), file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _sweep_rows(result):
    n = result.data.n
    header = ["omega_re", "omega_im", "t", "s0_re", "s0_im", "p0_re", "p0_im"]
    for stem in ("s_num", "p_num", "den"):
        for j in range(n + 1):
            header += [f"{stem}_{j}_re", f"{stem}_{j}_im"]
    header.append("max_residual")
    rows = [header]
    for sol in result.solutions:
        row = [repr(float(sol.omega.real)), repr(float(sol.omega.imag)), repr(float(sol.t)),
               repr(float(sol.s0.real)), repr(float(sol.s0.imag)),
               repr(float(sol.p0.real)), repr(float(sol.p0.imag))]
        for poly in (sol.h.s.num, sol.h.p.num, sol.h.den):
            for c in poly.padded(n + 1):
                row += [repr(float(c.real)), repr(float(c.imag))]
        row.append(repr(max(sol.report.residuals.values())))
        rows.append(row)
    return rows


def _sweep_svg(result) -> str:
    theta = np.linspace(0.0, 2.0 * np.pi, 181)
    ring = np.exp(1j * theta)
    solutions = result.solutions
    step = max(1, len(solutions) // 16)
    sampled = solutions[::step]
    node_angles = [float(np.angle(s) % (2 * np.pi)) for s in result.data.sigma[: result.data.k]]
    s_panel = Panel(title="|s| on the circle, per sampled parameter", marker_xs=node_angles)
    p_panel = Panel(title="arg p on the circle, per sampled parameter", marker_xs=node_angles)
    for sol in sampled:
        s_panel.curves.append((theta.tolist(), np.abs(sol.h.s(ring)).tolist()))
        p_panel.curves.append((theta.tolist(), np.unwrap(np.angle(sol.h.p(ring))).tolist()))
    return panels_svg([s_panel, p_panel])


def cmd_sweep(args: argparse.Namespace) -> int:
    result = _solve(BlaschkeData.from_json_dict(_read_json(args.input)), omega_grid=args.omega_grid)
    if result.status != "solved":
        return EXIT_UNSOLVABLE
    if result.s0p0.kind != "family":
        print(f"nothing to sweep: base values are {result.s0p0.kind}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    _write_text(args.output, "\n".join(",".join(row) for row in _sweep_rows(result)) + "\n")
    if args.plot:
        _write_text(os.path.splitext(args.output)[0] + ".svg", _sweep_svg(result))
    return EXIT_OK


def cmd_blaschke(args: argparse.Namespace) -> int:
    data = BlaschkeData.from_json_dict(_read_json(args.input))
    M = build_pick_matrix(data)
    positivity = check_positive_definite(M)
    if positivity.kind != "definite":
        print(f"not solvable at step 1: Pick matrix is {positivity.kind}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    param = build_parametrization(M, data, choose_tau(M, data))
    solutions = []
    for zeta in circle_grid(min(args.omega_grid, 64)):
        try:
            phi = solve_blaschke(param, zeta)
        except ExceptionalZeta:
            continue
        interp = max(abs(phi(s) - e) for s, e in zip(data.sigma, data.eta))
        phasar = 0.0
        for j in range(data.k):
            phasar = max(phasar, abs(phasar_derivative(phi, data.sigma[j]) - data.rho[j]))
        entry = {
            "zeta": _c(complex(zeta)),
            "rational": phi.to_json_dict(),
            "max_interp_residual": float(interp),
            "max_phasar_residual": float(phasar),
        }
        try:
            product = to_blaschke_product(phi)
            entry["blaschke"] = product.to_json_dict()
        except RoyalGammaError as exc:
            entry["blaschke_error"] = str(exc)
        solutions.append(entry)
    payload = {
        "tau": _c(param.tau),
        "pick_min_eigenvalue": positivity.min_eigenvalue,
        "parametrization": param.to_json_dict(),
        "exceptional_points": [_c(z) for z in param.exceptional.points],
        "solutions": solutions,
    }
    _write_text(args.output, _dump(payload))
    return EXIT_OK


def cmd_roundtrip(args: argparse.Namespace) -> int:
    h, _ = _obtain_h(args)
    try:
        data = extract_royal_data(h)
    except (MultiplicityAboveOne, RoyalRange) as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return EXIT_UNSOLVABLE

    def exact_parameters(tau):
        # the family member reproducing h has p0 = p(tau); omega is its root
        return (complex(np.sqrt(h.p(tau))),)

    result = _solve(data, omega_grid=args.omega_grid, extra_omegas_fn=exact_parameters)
    if result.status != "solved":
        return EXIT_UNSOLVABLE
    distances = [gamma_inner_distance(h, sol.h) for sol in result.solutions]
    best = int(np.argmin(distances))
    payload = {
        "extracted_data": data.to_json_dict(),
        "family_kind": result.s0p0.kind,
        "solutions_tried": len(result.solutions),
        "best_distance": float(distances[best]),
        "best_omega": None if result.solutions[best].omega is None else _c(result.solutions[best].omega),
        "match": bool(distances[best] <= ROUNDTRIP_MATCH_TOL),
    }
    _write_text(args.output, _dump(payload))
    if distances[best] > ROUNDTRIP_MATCH_TOL:
        print(f"no family member matches the input map (best distance {distances[best]:.3e})", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "blaschke": cmd_blaschke,
    "roundtrip": cmd_roundtrip,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except InvalidData as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RoyalGammaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSOLVABLE


def entry() -> None:
    sys.exit(main())
