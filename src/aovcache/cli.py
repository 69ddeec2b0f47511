"""Command-line interface: solver reports, index tables, simulations, sweeps.

One JSON config document drives everything:

    {
      "system": {"N": 100, "beta": 4.0, "M": 25, "zipf_alpha": 1.0,
                 "lambda": 0.01},
      "costs":  {"c_a": 0.1, "c_f": 1.0, "c_w": 0.01},
      "policy": "whittle",
      "sim":    {"horizon_events": 1000000, "seed": 7, "warmup": 0.1,
                 "mode": "expected"},
      "sweep":  {"axis": "M", "values": [20, 22, 24], "reps": 5}
    }

``system.popularity`` / ``system.lambdas`` may replace the Zipf /
shared-rate shortcuts with explicit per-content lists.  All outputs are
CSV with fixed column order plus a manifest JSON recording the config
digest and seed, so every row set is reproducible.

Exit codes: 0 ok, 2 config error, 3 runtime error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import importlib.util
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, _ckernel
from .model import ContentParams, CostModel, SystemParams, validate, zipf_popularity
from .policies import PolicyKind, relaxed_lower_bound
from .simulator import AgeingMode, SimConfig, aggregate, sweep
from .thresholds import content_constants, relaxed_batch
from .whittle import build_index_tables, cached_indices

# The interpreter's start and the imports above leave ~22k long-lived
# objects, ~9k of them numpy's.  Frozen, the collector skips them, and the
# interpreter does not walk them all again as the process exits (~20 ms
# of every command).  This runs once per process, before any command, so
# what a command makes is collected as before.
gc.freeze()

_FMT = "%.12g"


class ConfigError(Exception):
    pass


def _f(x) -> str:
    return _FMT % x


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return _typed("config", json.load(fh), dict)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e


def build_system(doc: dict) -> SystemParams:
    try:
        sysdoc, costs = (_typed(name, doc[name], dict) for name in ("system", "costs"))
        n = _checked("N", sysdoc["N"], _integer, lambda x: x >= 1, "an integer >= 1")
        beta = _checked("beta", sysdoc["beta"], float)
        m = _checked("M", sysdoc["M"], _integer, lambda x: x >= 0, "an integer >= 0")
        if "popularity" in sysdoc:
            pops = [_checked("popularity", x, float)
                    for x in _typed("popularity", sysdoc["popularity"], list)]
        else:
            alpha = _checked("zipf_alpha", sysdoc.get("zipf_alpha", 1.0), float,
                             lambda a: 0 <= a < math.inf, "finite and >= 0")
            pops = zipf_popularity(n, alpha).tolist()
        if "lambdas" in sysdoc:
            lams = [_checked("lambdas", x, float)
                    for x in _typed("lambdas", sysdoc["lambdas"], list)]
        else:
            lams = [_checked("lambda", sysdoc["lambda"], float)] * n
        for name, values in (("popularity", pops), ("lambdas", lams)):
            if len(values) != n:
                raise ConfigError(f"{name}: length {len(values)}, not N={n}")
        cm = CostModel(*(_checked(c, costs[c], float) for c in ("c_a", "c_f", "c_w")))
        contents = tuple(
            ContentParams(lam=lams[i], p=pops[i], costs=cm) for i in range(n)
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"malformed config: {e}") from e
    if "C_h" in costs:
        raise ConfigError("C_h: the holding cost is the dual variable of the capacity "
                          "constraint, which the solvers find; a config cannot set it")
    system = SystemParams(beta=beta, contents=contents, M=m)
    problems = validate(system)
    if problems:
        raise ConfigError("; ".join(map(str, problems)))
    return system


def _capacity(system: SystemParams, value) -> int:
    """A capacity given on the command line or read from a CSV, held to
    the same checks as the config's own M."""
    m = _checked("capacity", value, _integer, what="an integer")
    problems = validate(replace(system, M=m))
    if problems:
        raise ConfigError("; ".join(map(str, problems)) + f" (got M={m})")
    return m


def _checked(name: str, value, parse, ok=lambda x: True, what: str = "a number"):
    """``parse(value)`` if it parses and passes ``ok``; otherwise a
    ConfigError naming the field ``name``."""
    try:
        x = parse(value)
        if ok(x):
            return x
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name}: must be {what} (got {value!r})")


def _typed(name: str, value, kind: type):
    """``value`` if it is a JSON object (``kind`` dict) or array (list)."""
    if not isinstance(value, kind):
        what = "a JSON object" if kind is dict else "a list"
        raise ConfigError(f"{name}: must be {what} (got {value!r})")
    return value


def _member(name: str, value, enum):
    """The member of ``enum`` whose value is ``value``."""
    return _checked(name, value, enum, what="one of " + ", ".join(m.value for m in enum))


def _integer(value) -> int:
    """``value`` as an int, if it is a whole number (``int`` truncates 2.5)."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _finite_positive(x: float) -> bool:
    return 0 < x < math.inf


def _sim_config(doc: dict, system: SystemParams, args) -> SimConfig:
    sim = _typed("sim", doc.get("sim", {}), dict)
    seed = _checked("seed", args.seed if args.seed is not None else sim.get("seed", 0),
                    _integer, lambda x: x >= 0, "an integer >= 0")
    policy = _member("policy", doc.get("policy", "whittle"), PolicyKind)
    ageing = _member("mode", args.mode or sim.get("mode", "expected"), AgeingMode)
    horizon_events = horizon_time = None
    if "horizon_events" in sim:
        horizon_events = _checked("horizon_events", sim["horizon_events"], _integer,
                                  lambda x: x > 0, "an integer > 0")
    if "horizon_time" in sim:
        horizon_time = _checked("horizon_time", sim["horizon_time"], float, _finite_positive,
                                "finite and > 0")
    return SimConfig(
        system=system,
        policy=policy,
        horizon_events=horizon_events,
        horizon_time=horizon_time,
        seed=seed,
        ageing_mode=ageing,
        warmup=_checked("warmup", sim.get("warmup", 0.1), float, lambda x: 0 <= x <= 0.5,
                        "in [0, 0.5]"),
    )


def _run_config(doc: dict, system: SystemParams, args, reps) -> tuple[SimConfig, int, int | None]:
    """The config of a command that runs the configured horizon, which the
    config must give, its replications (``--reps``, else ``reps``) and its
    worker processes (``--processes``, else None: serial)."""
    cfg = _sim_config(doc, system, args)
    if cfg.horizon_events is None and cfg.horizon_time is None:
        raise ConfigError("horizon_events: the sim section gives no horizon "
                          "(horizon_events or horizon_time)")
    reps = _checked("reps", args.reps if args.reps is not None else reps, _integer,
                    lambda x: x >= 1, "an integer >= 1")
    processes = args.processes
    if processes is not None:
        processes = _checked("--processes", processes, _integer, lambda x: x >= 1,
                             "an integer >= 1")
    return cfg, reps, processes


def scipy_version() -> str | None:
    """``scipy.__version__`` without importing scipy, which only ``verify``
    computes with: the ``version`` that its ``scipy/version.py`` defines
    (about 8 ms less start-up for every other command).  None when scipy
    is not installed."""
    if "scipy" in sys.modules:
        return sys.modules["scipy"].__version__
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    path = Path(spec.submodule_search_locations[0]) / "version.py"
    module_spec = importlib.util.spec_from_file_location("scipy.version", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.version


def config_digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class Reporter:
    """Writes CSVs (and the run manifest) to --out, or CSV to stdout.

    ``seed`` is the effective seed of a simulating command (``--seed`` or
    the config's ``sim.seed``); None for commands that draw nothing.
    """

    def __init__(self, out: str | None, doc: dict, seed: int | None = None):
        self.dir = Path(out) if out else None
        if self.dir:
            self.dir.mkdir(parents=True, exist_ok=True)
        self.manifest = {
            "command": " ".join(sys.argv[1:]),
            "config_digest": config_digest(doc),
            "seed": seed,
            "version": __version__,
            "numpy_version": np.__version__,
            "scipy_version": scipy_version(),
            # the loop every policy and ageing mode runs in; "python" here
            # means the reference loop, as the compiled kernel could not be
            # built or loaded
            "event_loop": "compiled" if _ckernel.event_loop is not None else "python",
            # where the Wright omega and Lambert W values come from
            "special_functions": "compiled" if _ckernel.special is not None else "scipy",
            "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "outputs": [],
        }
        self._t0 = time.time()

    def table(self, name: str, header: list[str], rows) -> None:
        if self.dir:
            path = self.dir / name
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                w.writerows(rows)
            self.manifest["outputs"].append(str(path))
            print(f"wrote {path}")
        else:
            w = csv.writer(sys.stdout)
            w.writerow(header)
            w.writerows(rows)

    def close(self) -> None:
        if self.dir:
            self.manifest["wall_clock_s"] = round(time.time() - self._t0, 3)
            path = self.dir / "manifest.json"
            path.write_text(json.dumps(self.manifest, indent=2) + "\n")
            print(f"wrote {path}")


def _count(flag: str, value) -> int:
    """A point count given by ``flag``: an integer >= 0."""
    return _checked(flag, value, _integer, lambda x: x >= 0, "an integer >= 0")


def cmd_solve(doc: dict, args) -> int:
    system = build_system(doc)
    points = _count("--ch-points", args.ch_points)
    rep = Reporter(args.out, doc)
    k = content_constants(system.contents, system.beta)
    # every content's C_h points in one kernel call
    ch = np.concatenate([np.linspace(0.0, I, points) for I in k.I.tolist()])
    idx = np.repeat(np.arange(system.N), points)
    solved = relaxed_batch(ch, k.take(idx))[:4]
    consts = zip(k.q_hat[idx].tolist(), k.tau0[idx].tolist(), k.I[idx].tolist())
    rows = [
        [i, _f(c), _f(tb), _f(tt), qb, q_hat, _f(tau0), _f(I), _f(theta)]
        for i, c, tb, tt, qb, theta, (q_hat, tau0, I)
        in zip(idx.tolist(), ch.tolist(), *(a.tolist() for a in solved), consts)
    ]
    rep.table("thresholds.csv",
              ["content_id", "C_h", "tau_bar", "tau_tilde", "Q_bar", "Q_hat",
               "tau0", "I", "theta"], rows)
    rep.close()
    return 0


def _content_ids(system: SystemParams, value: str) -> list[int]:
    """The ids of a ``--contents`` list, each in ``0..N-1``."""
    try:
        ids = [int(x) for x in value.split(",")]
    except ValueError as e:
        raise ConfigError(f"--contents: {value!r} is not a comma list of integers") from e
    bad = [i for i in ids if not 0 <= i < system.N]
    if bad:
        raise ConfigError(f"--contents: ids {bad} outside 0..{system.N - 1}")
    return ids


def cmd_whittle(doc: dict, args) -> int:
    system = build_system(doc)
    if args.family not in ("cached", "uncached", "both"):
        raise ConfigError(f"unknown state family {args.family!r}")
    which = list(range(system.N)) if not args.contents else _content_ids(system, args.contents)
    tau_points = _count("--tau-points", args.tau_points)
    rep = Reporter(args.out, doc)
    rows = []
    contents = [system.contents[i] for i in which]
    k = content_constants(contents, system.beta)
    built, counts = build_index_tables(contents, system.beta)
    rep.manifest["index_builds"] = [counts._asdict()]
    tables = built.content
    for j, (i, tb) in enumerate(zip(which, tables)):
        if args.family in ("cached", "both"):
            taus = np.linspace(0.0, tb.tau_star, tau_points)
            w = cached_indices(k.take([j]), tb.tau_star, taus)
            rows.extend([i, "cached", 0, _f(tau), _f(x)]
                        for tau, x in zip(taus.tolist(), w.tolist()))
        if args.family in ("uncached", "both"):
            for q in range(tb.q_hat + 3):
                rows.append([i, "uncached", q, _f(0.0), _f(tb.uncached(q))])
    rep.table("whittle.csv", ["content_id", "family", "Q", "tau", "W"], rows)
    rep.close()
    return 0


_METRIC_HEADER = ["axis_value", "policy", "replication", "avg_cost", "fetch_cost",
                  "ageing_cost", "waiting_cost", "avg_wait_time",
                  "avg_cost_se", "avg_wait_time_se"]


def _metric_rows(cells, policy: str | None) -> list[list]:
    """One row per replication, then a mean row per axis value; with
    ``policy`` None the axis value names the policy."""
    rows = [
        [c.value, policy or c.value, c.replication, _f(c.metrics.avg_total_cost),
         _f(c.metrics.fetch_cost_rate), _f(c.metrics.ageing_cost_rate),
         _f(c.metrics.waiting_cost_rate), _f(c.metrics.avg_wait_time), "", ""]
        for c in cells
    ]
    return rows + [
        [a["value"], policy or a["value"], "mean", _f(a["avg_cost"]), _f(a["fetch_cost"]),
         _f(a["ageing_cost"]), _f(a["waiting_cost"]), _f(a["avg_wait_time"]),
         _f(a["avg_cost_se"]), _f(a["avg_wait_time_se"])]
        for a in aggregate(cells)
    ]


def _recorded_sweep(rep: Reporter, cfg: SimConfig, axis: str, values, reps: int,
                    processes) -> list:
    """``sweep``'s cells; the manifest gets its table builds as
    ``index_builds`` and a summary of its runs as ``runs``: their count,
    events, seconds (the sweep's wall-clock time less its builds'), events
    per second and the processes they ran in.  With more than one process
    the seconds include the pool's start-up and the sending of tables to
    its workers, and the events per second are those of all workers
    together."""
    builds = []
    start = time.perf_counter()
    cells = sweep(cfg, axis, values, reps, processes=processes, builds=builds)
    seconds = time.perf_counter() - start - sum(b.seconds for b in builds)
    events = sum(c.metrics.event_count for c in cells)
    rep.manifest["index_builds"] = [b._asdict() for b in builds]
    rep.manifest["runs"] = {"count": len(cells), "events": events, "seconds": seconds,
                            "events_per_s": events / seconds, "processes": processes or 1}
    return cells


def cmd_simulate(doc: dict, args) -> int:
    system = build_system(doc)
    cfg, reps, processes = _run_config(doc, system, args, 1)
    rep = Reporter(args.out, doc, cfg.seed)
    cells = _recorded_sweep(rep, cfg, "M", [system.M], reps, processes)
    rep.table("metrics.csv", _METRIC_HEADER, _metric_rows(cells, cfg.policy.value))
    rep.close()
    return 0


def cmd_sweep(doc: dict, args) -> int:
    system = build_system(doc)
    swp = _typed("sweep", doc.get("sweep", {}), dict)
    cfg, reps, processes = _run_config(doc, system, args, swp.get("reps", 1))
    axis = args.axis or swp.get("axis")
    values = args.values.split(",") if args.values else swp.get("values")
    if not axis or not values:
        raise ConfigError("sweep needs an axis and values (config or flags)")
    values = _typed("values", values, list)
    if axis == "M":
        values = [_capacity(system, v) for v in values]
    elif axis == "c_w":
        values = [_checked("c_w", v, float, _finite_positive, "finite and > 0") for v in values]
    elif axis == "policy":
        values = [_member("policy", v, PolicyKind).value for v in values]
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    rep = Reporter(args.out, doc, cfg.seed)
    cells = _recorded_sweep(rep, cfg, axis, values, reps, processes)
    rep.table("metrics.csv", _METRIC_HEADER,
              _metric_rows(cells, None if axis == "policy" else cfg.policy.value))
    rep.close()
    return 0


def _bound(system: SystemParams, consts, m: int) -> tuple[float, float, float]:
    """``(C_h*, bound, occupancy)`` of the dual bound at capacity ``m``; the
    occupancy is the relaxed policy's mean number of cached contents at
    C_h*: M where the dual's slope is continuous there, at most M at C_h* = 0."""
    ch, bound = relaxed_lower_bound(replace(system, M=m))
    return ch, bound, float(relaxed_batch(ch, consts).occupancy.sum())


def cmd_lower_bound(doc: dict, args) -> int:
    system = build_system(doc)
    m_values = ([_capacity(system, x) for x in args.m_values.split(",")]
                if args.m_values else [system.M])
    rep = Reporter(args.out, doc)
    consts = content_constants(system.contents, system.beta)
    rows = [[m, *map(_f, _bound(system, consts, m))] for m in m_values]
    rep.table("lower_bound.csv", ["M", "C_h_star", "bound", "occupancy"], rows)
    rep.close()
    return 0


def cmd_compare(doc: dict, args) -> int:
    """Join a sweep CSV (M axis) against the dual bound; report the gap."""
    system = build_system(doc)
    try:
        with open(args.metrics) as fh:
            reader = csv.DictReader(fh)
            header, metrics = reader.fieldnames or (), list(reader)
    except OSError as e:
        raise ConfigError(f"--metrics: cannot read {args.metrics!r}: {e.strerror}") from e
    missing = [c for c in ("replication", "axis_value", "policy", "avg_cost")
               if c not in header]
    if missing:
        raise ConfigError(f"--metrics: {args.metrics!r} has no column {', '.join(missing)}")
    rep = Reporter(args.out, doc)
    consts = content_constants(system.contents, system.beta)
    rows = []
    bounds: dict[int, tuple[float, float, float]] = {}
    for row in metrics:
        if row["replication"] != "mean":
            continue
        m = _capacity(system, row["axis_value"])
        if m not in bounds:
            bounds[m] = _bound(system, consts, m)
        _, bound, occupancy = bounds[m]
        cost = _checked("--metrics: avg_cost", row["avg_cost"], float)
        rows.append([m, row["policy"], _f(cost), _f(bound),
                     _f((cost - bound) / bound), _f(occupancy)])
    rep.table("compare.csv", ["M", "policy", "avg_cost", "bound", "relative_gap", "occupancy"],
              rows)
    rep.close()
    return 0


def cmd_verify(doc: dict, args) -> int:
    """Oracle-equivalence and invariant battery (``checks.battery``); exit 4
    on a failure."""
    # imported here: the checks' oracle pulls in scipy.sparse, which costs
    # every other command about 0.4 s of import time
    from .checks import battery

    system = build_system(doc)
    cfg = _sim_config(doc, system, args)
    rep = Reporter(args.out, doc, cfg.seed)
    rows = []
    for name, r, seconds in battery(system, cfg, args.quick):
        rows.append([name, "PASS" if r.passed else "FAIL", r.detail, f"{seconds:.3f}"])
        print(f"{rows[-1][1]}  {name}" + (f"  ({r.detail})" if r.detail else ""), flush=True)
    if rep.dir:
        rep.table("verify.csv", ["check", "result", "detail", "seconds"], rows)
    rep.close()
    failed = [name for name, result, _, _ in rows if result == "FAIL"]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 4
    print(f"all {len(rows)} properties passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="aovcache",
        description="Content caching with version-ageing, fetching and waiting "
                    "costs: threshold solvers, Whittle indices, simulator.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, sim=False, runs=False):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory (default: stdout)")
        if sim:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--mode", choices=["expected", "realized"], default=None)
        if runs:
            p.add_argument("--reps", type=int, default=None)
            p.add_argument("--processes", type=int, default=None)

    p = sub.add_parser("solve", help="threshold report per content and C_h")
    common(p)
    p.add_argument("--ch-points", type=int, default=9)

    p = sub.add_parser("whittle", help="Whittle index tables as CSV")
    common(p)
    p.add_argument("--family", default="both",
                   help="state family: cached, uncached, or both")
    p.add_argument("--contents", default=None, help="comma list of content ids")
    p.add_argument("--tau-points", type=int, default=21)

    p = sub.add_parser("simulate", help="run the configured simulation")
    common(p, sim=True, runs=True)

    p = sub.add_parser("sweep", help="sweep M, c_w, or policy")
    common(p, sim=True, runs=True)
    p.add_argument("--axis", choices=["M", "c_w", "policy"], default=None)
    p.add_argument("--values", default=None, help="comma-separated axis values")

    p = sub.add_parser("lower-bound", help="relaxed-problem dual lower bound")
    common(p)
    p.add_argument("--m-values", default=None, help="comma list of capacities")

    p = sub.add_parser("compare", help="gap between a sweep CSV and the bound")
    common(p)
    p.add_argument("--metrics", required=True, help="metrics.csv from sweep")

    p = sub.add_parser("verify", help="oracle-equivalence and invariant battery")
    common(p, sim=True)
    p.add_argument("--quick", action="store_true")

    args = ap.parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "whittle": cmd_whittle,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "lower-bound": cmd_lower_bound,
        "compare": cmd_compare,
        "verify": cmd_verify,
    }
    try:
        doc = load_config(args.config)
        return handlers[args.cmd](doc, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
