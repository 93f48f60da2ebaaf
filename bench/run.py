"""Benchmark of the royalgamma pipeline, driven through its public API.

    python3 bench/run.py --workload {family,unique,scalar} --seed N --seconds S --trace {0,1}

Run it from the repository root.  One caller drives a closed loop: it starts
the next solve only after the previous one returns, on one thread, BLAS
included.  The inputs come from the seed; the library receives only the
generated data.

--trace 0 times whole passes over the input pool with tracing off until S
seconds of solving have passed, and reports the end-to-end metrics.  The
machine's speed drifts, so times are scaled by a reference probe timed next to
them (see reference.py); raw times are printed beside them.  --trace 1 alternates untraced and traced passes over
the whole input pool for at least S seconds and reports per-layer
metrics from the spans, and the tracing overhead.  Either way every solve is
judged by the workload's oracle, and the digest of its serialized output must
be identical each time the same input is solved.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Details,
including the spans of a traced run, go to bench/out/.
"""

import os
import sys
import time

SETUP_START = time.perf_counter()
# one caller, one thread: set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5  # this process plus fresh probe processes; the median is reported
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10  # solves that must lie beyond the reported tail percentile
PROBE_EVERY_S = 0.5  # solving time between two reference probes
SETUP_PROBES = 3  # reference probes after each set-up; their median scales it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("family", "unique", "scalar"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_library():
    """Import royalgamma from this checkout's src/, never from anywhere else."""
    package = SRC / "royalgamma"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no royalgamma sources at {package}")
    sys.path.insert(0, str(SRC))
    import royalgamma

    if Path(royalgamma.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported royalgamma from {royalgamma.__file__}, not {package}")


class Ledger:
    """Oracle verdicts and solve times of one run, with the determinism check."""

    def __init__(self):
        self.digests = {}  # problem index -> digest of its first output
        self.kinds = {}
        self.mismatches = set()
        self.times = []
        self.maps_of = {}  # problem index -> verified maps per solve
        self.attempted = self.failed = 0
        self.notes = set()

    def record(self, index, outcome, seconds=None):
        if self.digests.setdefault(index, outcome.digest) != outcome.digest:
            self.mismatches.add(index)
        self.kinds.setdefault(index, outcome.kind)
        if seconds is None:  # warm-up: checked for determinism, not counted
            return
        self.times.append(seconds)
        self.maps_of.setdefault(index, outcome.maps)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.notes.update((index, note) for note in outcome.notes)

    def combined_digest(self) -> str:
        text = json.dumps(sorted(self.digests.items()))
        return hashlib.sha256(text.encode()).hexdigest()


def solve_and_check(workload, problem, recorder=None):
    """Time one solve, under ``recorder`` when given, then judge it;
    returns (seconds, Outcome)."""
    from workloads import Outcome

    start = time.perf_counter()
    try:
        with recorder or contextlib.nullcontext():
            result = workload.solve(problem)
    except Exception as exc:  # the loop must go on; the solve counts as failed
        seconds = time.perf_counter() - start
        note = f"raised {type(exc).__name__}: {exc}"
        ops = workload.ops_per_solve
        digest = hashlib.sha256(note.encode()).hexdigest()
        return seconds, Outcome(ops, ops, 0, "raised", digest, (note,))
    seconds = time.perf_counter() - start
    return seconds, workload.check(problem, result)


def scaled_setup(setup_s) -> float:
    """``setup_s`` scaled by reference probes run right after it."""
    from reference import REFERENCE_S, probe

    return setup_s * REFERENCE_S / statistics.median(probe() for _ in range(SETUP_PROBES))


def setup_probe(args) -> float:
    """Scaled set-up time of a fresh interpreter: imports, inputs, warm-up solve."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def tail(times):
    """The time at the highest percentile with at least TAIL_BEYOND solves
    beyond it (the maximum when there are too few solves), and that percentile."""
    ordered = sorted(times)
    index = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def measure(workload, problems, seconds, ledger):
    """Closed loop of whole passes over the pool until the solves have taken
    ``seconds``, so that every problem is solved equally often.  A reference
    probe runs before the first solve, after the last, and between solves
    whenever PROBE_EVERY_S of solving has passed; each solve time is scaled
    by the mean of the probes on either side of it.  Returns a list of
    (problem index, scaled seconds)."""
    from reference import REFERENCE_S, probe

    probes = [probe()]
    solves = []  # (problem index, raw seconds, index of the probe before it)
    busy = since_probe = 0.0
    while busy < seconds or not solves:
        for index, problem in enumerate(problems):
            if since_probe >= PROBE_EVERY_S:
                probes.append(probe())
                since_probe = 0.0
            elapsed, outcome = solve_and_check(workload, problem)
            ledger.record(index, outcome, elapsed)
            solves.append((index, elapsed, len(probes) - 1))
            busy += elapsed
            since_probe += elapsed
    probes.append(probe())
    return [(index, raw * REFERENCE_S / (0.5 * (probes[before] + probes[before + 1])))
            for index, raw, before in solves]


def end_to_end_metrics(ledger, scaled, setups):
    """Times are scaled ones.  Rates are per pass at each problem's median
    solve time, so that a spell in which the machine runs slow moves them no
    more than the median."""
    times = [seconds for _, seconds in scaled]
    times_of = defaultdict(list)
    for index, seconds in scaled:
        times_of[index].append(seconds)
    pass_s = sum(statistics.median(each) for each in times_of.values())
    maps = sum(ledger.maps_of.values())
    tail_s, tail_pct = tail(times)
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "solve_s.p50": (statistics.median(times), "s",
                        f"{len(times)} solves in {len(times) // len(times_of)} passes; "
                        f"raw {statistics.median(ledger.times):.4g} s"),
        "solve_s.tail": (tail_s, "s", f"p{tail_pct:.1f} of {len(times)} solves"),
        "solves_per_s": (len(times_of) / pass_s, "1/s", f"pass of {len(times_of)} problems"),
        "maps_per_s": (maps / pass_s, "1/s", f"{maps} verified maps per pass"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
    }


def traced_passes(workload, problems, seed, seconds, ledger):
    """Alternate untraced and traced passes over the pool for at least
    ``seconds``; return per-layer metrics and the recorder."""
    from tracer import SpanRecorder, summarize

    recorder = SpanRecorder()
    recorder.context = "setup"
    with recorder:
        workload.make_problems(seed)
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for index, problem in enumerate(problems):
            elapsed, outcome = solve_and_check(workload, problem)
            untraced.append(elapsed)
            ledger.record(index, outcome, elapsed)
        for index, problem in enumerate(problems):
            recorder.context = len(traced)
            elapsed, outcome = solve_and_check(workload, problem, recorder)
            traced.append(elapsed)
            ledger.record(index, outcome, elapsed)

    solves = len(traced)
    layer = summarize(recorder.spans, set(range(solves)))
    setup = summarize(recorder.spans, {"setup"})

    def ms(name):
        return (1e3 * layer[name]["self_s"] / solves, "ms_traced/solve")

    def calls(name):
        return (layer[name]["calls"] / solves, "calls/solve")

    def verdicts(name, verdict):
        return (layer[name]["verdicts"][verdict] / solves, "count/solve")

    def share(name, verdict):
        total = layer[name]["calls"]
        return (layer[name]["verdicts"][verdict] / total if total else 0.0, "ratio")

    metrics = {
        "gamma.verify_royal_solution.ms": ms("gamma.verify_royal_solution"),
        "gamma.verify_royal_solution.calls": calls("gamma.verify_royal_solution"),
        "gamma.verify_royal_solution.pass_ratio": share("gamma.verify_royal_solution", "pass"),
        "gamma.verify_royal_solution.crosscheck_aborted": verdicts("gamma.verify_royal_solution", "aborted"),
        "gamma.compose_phi_omega.calls": calls("gamma.compose_phi_omega"),
        "polyrat.rat_reduce.ms": ms("polyrat.rat_reduce"),
        "polyrat.rat_reduce.calls": calls("polyrat.rat_reduce"),
        "blaschke.build_parametrization.ms": ms("blaschke.build_parametrization"),
        "blaschke.build_parametrization.calls": calls("blaschke.build_parametrization"),
        "pick.solve_pd.calls": calls("pick.solve_pd"),
        "pick.exceptional_set.calls": calls("pick.exceptional_set"),
        "pick.build_pick_matrix.calls": calls("pick.build_pick_matrix"),
        "pick.choose_tau.ms": ms("pick.choose_tau"),
        "pick.choose_tau.candidates": (layer["pick.tau_candidate"]["calls"] / solves, "count/solve"),
        "polyrat.poly_roots.ms": ms("polyrat.poly_roots"),
        "polyrat.poly_roots.calls": calls("polyrat.poly_roots"),
        "gamma.construct_h.ms": ms("gamma.construct_h"),
        "gamma.construct_h.calls": calls("gamma.construct_h"),
        "gamma.construct_h.skipped": verdicts("gamma.construct_h", "raised"),
        "gamma.member.accept_ratio": share("gamma.member", "accepted"),
        "gamma.solve_s0_p0.ms": ms("gamma.solve_s0_p0"),
        "blaschke.solve_blaschke.ms": ms("blaschke.solve_blaschke"),
        "blaschke.solve_blaschke.calls": calls("blaschke.solve_blaschke"),
        "blaschke.to_blaschke_product.ms": ms("blaschke.to_blaschke_product"),
        "blaschke.phasar_derivative.calls": calls("blaschke.phasar_derivative"),
        "gamma.extract_royal_data.ms": (1e3 * setup["gamma.extract_royal_data"]["self_s"], "ms_traced/setup"),
    }
    metrics = {name: (value, unit, "") for name, (value, unit) in metrics.items()}
    traced_p50, untraced_p50 = statistics.median(traced), statistics.median(untraced)
    metrics["trace.overhead.ratio"] = (
        traced_p50 / untraced_p50, "x",
        f"traced p50 {traced_p50:.4g} s / untraced p50 {untraced_p50:.4g} s over {solves} solves each")
    return metrics, recorder


def known_defects(workload, seed) -> list[str]:
    """Solve each known-defect input of the workload once, after the
    measurement, and describe its verdict.  These inputs stay out of the pool,
    where every operation must pass; their verdicts are printed, not counted
    in ``failed``, so the defects stay in sight and a fix shows."""
    lines = []
    for problem in workload.make_defects(seed):
        _, outcome = solve_and_check(workload, problem)
        state = "present" if outcome.failed else "gone"
        note = f"; first: {outcome.notes[0]}" if outcome.notes else ""
        lines.append(f"{problem.label}: {outcome.failed} of {outcome.attempted} operations fail, "
                     f"defect {state}{note}")
    return lines


def source_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py"))


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    import numpy
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    problems = workload.make_problems(args.seed)
    ledger = Ledger()
    ledger.record(0, solve_and_check(workload, problems[0])[1])  # warm-up
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_probe:
        print(json.dumps({"setup_s": scaled_setup(setup_s)}))
        return 0

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, numpy {numpy.__version__}, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}; src lines {source_lines()}")

    recorder = None
    if args.trace:
        metrics, recorder = traced_passes(workload, problems, args.seed, args.seconds, ledger)
        print(f"per-layer metrics (ms measured under tracing; calls per traced solve; "
              f"spans of watched functions missing from the library: {recorder.missing or 'none'})")
    else:
        setups = [scaled_setup(setup_s)] + [setup_probe(args) for _ in range(SETUP_REPEATS - 1)]
        scaled = measure(workload, problems, args.seconds, ledger)
        metrics = end_to_end_metrics(ledger, scaled, setups)
        print(f"end-to-end metrics (tracing off; times scaled to the reference probe, raw set-up {setup_s:.4g} s)")

    failed_share = ledger.failed / ledger.attempted
    for name, (value, unit, detail) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({detail})" if detail else ""))
    print(f"  failed_share = {failed_share:.6g} ratio  ({ledger.failed} of {ledger.attempted} operations)")

    print("problems (index: label, degree, k boundary nodes, s0p0 kind):")
    for index, problem in enumerate(problems):
        info = problem.describe()
        print(f"  {index}: {info['label']}, degree {info['degree']}, k {info['k']}, "
              f"{ledger.kinds.get(index, 'not solved')}")
    for index, note in sorted(ledger.notes)[:8]:
        print(f"  failure on problem {index}: {note}")
    defects = known_defects(workload, args.seed)
    if defects:
        print("known defects (inputs outside the pool, solved once, not counted in failed):")
        for line in defects:
            print(f"  {line}")
    deterministic = not ledger.mismatches
    print(f"output digest {ledger.combined_digest()} over {len(ledger.digests)} problems; "
          + ("identical across repeats" if deterministic else
             f"DIFFERS across repeats for problems {sorted(ledger.mismatches)}"))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    reported = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    details = {
        "problems": [dict(problem.describe(), kind=ledger.kinds.get(i)) for i, problem in enumerate(problems)],
        "metrics": reported,
        "solve_seconds": ledger.times,
        "digests": {str(index): digest for index, digest in sorted(ledger.digests.items())},
        "failures": sorted(ledger.notes),
        "known_defects": defects,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    if recorder is not None:
        from tracer import FIELDS

        spans = {"fields": FIELDS, "spans": recorder.spans}
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")

    print(json.dumps({
        "correct": deterministic and ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
