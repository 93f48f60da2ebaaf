"""Span recorder for the traced run of the benchmark.

A ``sys.setprofile`` hook, installed from here, opens a span when one of the
watched library functions is called and closes it when that call returns or
raises; the library's source is untouched.  Each span keeps its name, start,
end, parent span and the id of the solve (or set-up) it belongs to, and, for
a few functions, a verdict read off the return value.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import royalgamma.blaschke
import royalgamma.gamma
import royalgamma.pick
import royalgamma.polyrat

# span name -> (module, attribute path) of the watched function
WATCHED = {
    "pick.build_pick_matrix": (royalgamma.pick, "build_pick_matrix"),
    "pick.solve_pd": (royalgamma.pick, "solve_pd"),
    "pick.exceptional_set": (royalgamma.pick, "exceptional_set"),
    "pick.choose_tau": (royalgamma.pick, "choose_tau"),
    "pick.tau_candidate": (royalgamma.pick, "tau_candidate"),
    "blaschke.build_parametrization": (royalgamma.blaschke, "build_parametrization"),
    "blaschke.solve_blaschke": (royalgamma.blaschke, "solve_blaschke"),
    "blaschke.to_blaschke_product": (royalgamma.blaschke, "to_blaschke_product"),
    "blaschke.phasar_derivative": (royalgamma.blaschke, "phasar_derivative"),
    "gamma.solve_royal_problem": (royalgamma.gamma, "solve_royal_problem"),
    "gamma.solve_s0_p0": (royalgamma.gamma, "solve_s0_p0"),
    "gamma.member": (royalgamma.gamma, "S0P0Solution.member"),
    "gamma.construct_h": (royalgamma.gamma, "construct_h"),
    "gamma.verify_royal_solution": (royalgamma.gamma, "verify_royal_solution"),
    "gamma.compose_phi_omega": (royalgamma.gamma, "compose_phi_omega"),
    "gamma.extract_royal_data": (royalgamma.gamma, "extract_royal_data"),
    "polyrat.rat_reduce": (royalgamma.polyrat, "rat_reduce"),
    "polyrat.poly_roots": (royalgamma.polyrat, "poly_roots"),
}

CROSSCHECK_ABORT = "composed cross-check failed"

# verdicts read off the return value; a call that raises returns None here
VERDICTS = {
    "gamma.verify_royal_solution": lambda report: (
        "none" if report is None
        else "pass" if report.passed
        else "aborted" if any(f.startswith(CROSSCHECK_ABORT) for f in report.failures)
        else "fail"
    ),
    "gamma.member": lambda member: "accepted" if member is not None else "rejected",
    "gamma.construct_h": lambda h: "built" if h is not None else "raised",
}

FIELDS = ("name", "start", "end", "parent", "context", "verdict")


def _resolve(module, path: str):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return getattr(obj, "__code__", None)


class SpanRecorder:
    """Records spans of the watched functions while installed as the profile hook.

    Set ``context`` to the solve id (or "setup") before each unit of work.
    """

    def __init__(self):
        self.names = {}
        self.missing = []
        for name, (module, path) in WATCHED.items():
            code = _resolve(module, path)
            if code is None:
                self.missing.append(name)
            else:
                self.names[code] = name
        self.spans: list[list] = []
        self.context = None
        self._open: list[tuple] = []

    def _hook(self, frame, event, arg):
        if event == "call":
            name = self.names.get(frame.f_code)
            if name is not None:
                parent = self._open[-1][1] if self._open else -1
                self._open.append((frame, len(self.spans)))
                self.spans.append([name, time.perf_counter(), None, parent, self.context, None])
        elif event == "return" and self._open and self._open[-1][0] is frame:
            _, index = self._open.pop()
            span = self.spans[index]
            span[2] = time.perf_counter()
            verdict = VERDICTS.get(span[0])
            if verdict is not None:
                span[5] = verdict(arg)

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        self._open.clear()


def summarize(spans, contexts) -> dict:
    """Per span name, over the spans whose context is in ``contexts``:
    call count, self seconds (the span minus its child spans) and verdict counts."""
    child = [0.0] * len(spans)
    for name, start, end, parent, context, verdict in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "verdicts": defaultdict(int)})
    for index, (name, start, end, parent, context, verdict) in enumerate(spans):
        if context not in contexts:
            continue
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - child[index]
        if verdict is not None:
            entry["verdicts"][verdict] += 1
    return out
