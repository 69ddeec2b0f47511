"""One benchmark pass: a fresh process that runs a workload's command
sequence through ``aovcache.cli.main`` and records where its time went.

    python3 perfbench/child.py PASS_SPEC.json

``run.py`` writes the spec: the source tree to import ``aovcache`` from,
the CLI argument lists, the trace mode and the output directory.  The
pass writes ``result.json`` there and, when traced, ``spans.npz``.

Untraced, only the coarse calls are timed: ``build_policy_tables`` and
the ``build_content_tables`` calls inside it, each ``simulator.run`` and
each ``relaxed_lower_bound``.  Traced, every public function of the
layer modules is wrapped as well.  A function is
wrapped at every module attribute that refers to it, because that is
where its callers look it up: ``whittle`` calls ``solve_case2`` through
``aovcache.whittle.solve_case2`` and ``thresholds.optimal_average_cost``
through ``aovcache.thresholds.solve_case2``.  Each span is named
``<module>.<function>@<site>`` after the defining module and the module
it was looked up through, and spans stay in memory until the pass ends.
Both kinds of pass run the speed probe.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import signal
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("model", "thresholds", "whittle", "policies", "simulator", "cli")
SPEED_PERIOD_S = 0.05


def speed_kernel() -> float:
    """Fixed pure-Python work, about 0.5 ms; its duration tracks how fast
    the host runs this process at the moment."""
    acc = 0.0
    for i in range(4000):
        acc += (i * 0.5) % 3.0
    return acc


class SpeedProbe:
    """Times ``speed_kernel`` every ``SPEED_PERIOD_S`` of wall time, from
    a SIGALRM handler, so each stretch of the pass has a speed reading."""

    def __init__(self) -> None:
        self.marks = array("q")   # start, end of each kernel run

    def _tick(self, signum, frame) -> None:
        t0 = time.monotonic_ns()
        speed_kernel()
        self.marks.extend((t0, time.monotonic_ns()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Spans:
    """Calls of probed functions: name, start, end and parent span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]

    def wrap(self, fn, label: str, on_return=None):
        nid = len(self.names)
        self.names.append(label)
        name, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            i = len(end)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(start[i], end[i], args, out)
            return out

        return probe

    def save(self, path: Path) -> None:
        import numpy as np  # here, so the timed aovcache import still loads it

        np.savez(path, names=np.array(self.names), name=np.array(self.name),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end))


def install(spans: Spans, fn, label: str, on_return=None) -> None:
    """Replace ``fn`` by a probe at every ``aovcache`` module attribute
    bound to it."""
    for modname, mod in sorted(sys.modules.items()):
        if modname != "aovcache" and not modname.startswith("aovcache."):
            continue
        site = modname.rpartition(".")[2]
        for attr, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, attr, spans.wrap(fn, f"{label}@{site}", on_return))


def public_functions(mod):
    short = mod.__name__.rpartition(".")[2]
    for attr, val in list(vars(mod).items()):
        if (inspect.isfunction(val) and not attr.startswith("_")
                and val.__module__ == mod.__name__):
            yield val, f"{short}.{attr}"


def main() -> int:
    speed = SpeedProbe()
    speed.start()
    spec = json.loads(Path(sys.argv[1]).read_text())
    out = Path(spec["out"])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))

    t0 = time.monotonic_ns()
    import aovcache.cli as cli
    import_end = time.monotonic_ns()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"aovcache imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    from aovcache import policies, simulator, whittle

    rec = {"import_start_ns": t0, "import_end_ns": import_end,
           "tables_ready_ns": None, "table_bytes": None, "runs": [], "bounds": []}

    def tables_built(t_start, t_end, args, tables):
        if rec["tables_ready_ns"] is None:
            rec["tables_ready_ns"] = t_end
            rec["table_bytes"] = sum(
                c.w_of_tau.nbytes + 8 * len(c.breakpoints) for c in tables.content)

    def run_done(t_start, t_end, args, m):
        cfg = args[0]
        rec["runs"].append({
            "policy": cfg.policy.value, "M": cfg.system.M, "seed": cfg.seed,
            "horizon_events": cfg.horizon_events, "beta": cfg.system.beta,
            "event_count": m.event_count,
            "serve_after_wait": m.serve_after_wait,
            "reconciliation": m.reconciliation, "fetch_rate": m.fetch_rate,
        })

    def bound_done(t_start, t_end, args, result):
        rec["bounds"].append({"M": args[0].M})

    spans = Spans()
    hooked = {
        policies.build_policy_tables: tables_built,
        simulator.run: run_done,
        policies.relaxed_lower_bound: bound_done,
    }
    # per-content table builds split the table phase into short segments
    coarse = {**hooked, whittle.build_content_tables: None}
    if spec["traced"]:
        for layer in LAYERS:
            for fn, label in public_functions(sys.modules[f"aovcache.{layer}"]):
                install(spans, fn, label, hooked.get(fn))
        for meth in ("table", "close"):
            setattr(cli.Reporter, meth, spans.wrap(
                getattr(cli.Reporter, meth), f"cli.Reporter.{meth}@cli"))
    else:
        for fn, on_return in coarse.items():
            install(spans, fn, f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}",
                    on_return)

    rec["exit_codes"] = [cli.main(argv) for argv in spec["commands"]]
    speed.stop()
    rec["speed_marks"] = list(speed.marks)
    rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec["traced"]:
        spans.save(out / "spans.npz")
    else:
        rec["spans"] = [[spans.names[n], s, e]
                        for n, s, e in zip(spans.name, spans.start, spans.end)]
    (out / "result.json").write_text(json.dumps(rec, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
