"""The aovcache benchmark: three CLI workloads, untraced end-to-end
metrics and a traced per-layer run.

    python3 perfbench/run.py --workload desk-capacity --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``aovcache`` is imported from
its ``src/``.  Each pass is one fresh single-threaded Python process
(``child.py``) that calls ``aovcache.cli.main`` for the workload's
command sequence with ``--seed`` set from the benchmark seed.  Passes
repeat until ``--seconds`` have gone by (at least ``MIN_PASSES``).  A
speed probe in each pass reads how fast the host runs it, and every
time reported is scaled to one reference speed (``segment_seconds``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  Every
pass's output is checked; ``attempted``/``failed`` count those checks.
The last stdout line is the result JSON; the line before it is the
machine record.  Pass outputs go to ``.perfbench_out/`` in the checkout.
See README.md for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 3          # untraced passes per --trace 0 run
RUN_LIMIT_S = 170       # a pass still running past this is killed
STOP_STARTING_S = 110   # past this, start no pass that is not needed
POLL_S = 0.005
KERNEL_REF_NS = 500_000  # probe-kernel time that defines the reference speed
SE_MULTIPLE = 3.0       # a policy's cost may sit this many SEs below the bound
RECON_TOL = 1e-9
POLICIES = ("whittle", "myopic", "static-top-m", "infinite-capacity")
FEASIBLE = ("whittle", "myopic", "static-top-m")  # hold exactly M copies

WORKLOADS = {
    "desk-capacity": {
        "config": "desk.json",
        "commands": [
            ["sweep", "--axis", "M", "--values", "20,25,30", "--reps", "10"],
            ["compare", "--metrics", "{out}/sim/metrics.csv"],
        ],
    },
    "paper-whittle": {
        "config": "paper-n100.json",
        "commands": [
            ["simulate", "--reps", "20"],
            ["compare", "--metrics", "{out}/sim/metrics.csv"],
        ],
    },
    "desk-baselines": {
        "config": "desk-baselines.json",
        "commands": [
            ["sweep", "--axis", "policy", "--values",
             "myopic,static-top-m,infinite-capacity", "--mode", "realized",
             "--reps", "6"],
            ["lower-bound", "--m-values", "20,25,30"],
        ],
    },
}
# the first command simulates (out dir "sim", takes --seed); the second
# writes the dual bound (out dir "bound")
OUT_DIRS = ("sim", "bound")


def commands(workload: str, seed: int, out: Path) -> list[list[str]]:
    w = WORKLOADS[workload]
    config = str(HERE / "configs" / w["config"])
    cmds = []
    for k, argv in enumerate(w["commands"]):
        cmd = [a.replace("{out}", str(out)) for a in argv]
        cmd[1:1] = ["--config", config, "--out", str(out / OUT_DIRS[k])]
        if k == 0:
            cmd += ["--seed", str(seed)]
        cmds.append(cmd)
    return cmds


# -- machine record ----------------------------------------------------------


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    digest = hashlib.sha256()
    for f in sorted((SRC / "aovcache").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
        "loadavg_start": _loadavg(),
    }


# -- one pass ----------------------------------------------------------------


class Checks:
    def __init__(self) -> None:
        self.failed: list[str] = []
        self.attempted = 0

    def __call__(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def run_pass(workload: str, seed: int, pass_dir: Path, traced: bool,
             deadline: float) -> dict:
    pass_dir.mkdir(parents=True)
    spec = {"src": str(SRC), "out": str(pass_dir), "traced": traced,
            "commands": commands(workload, seed, pass_dir)}
    (pass_dir / "spec.json").write_text(json.dumps(spec, indent=1) + "\n")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with open(pass_dir / "child.log", "w") as log:
        spawn = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(pass_dir / "spec.json")],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    try:
        # poll rather than wait(timeout=...), whose back-off can add 50 ms
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise RuntimeError(f"pass in {pass_dir} ran past the run's time limit")
            time.sleep(POLL_S)
        done = time.monotonic_ns()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    result = pass_dir / "result.json"
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"pass in {pass_dir} exited {proc.returncode}; see child.log")
    rec = json.loads(result.read_text())
    if rec["tables_ready_ns"] is None:
        raise RuntimeError(f"pass in {pass_dir} never built policy tables")
    return {
        "traced": traced,
        "dir": pass_dir,
        "rec": rec,
        "spawn_ns": spawn,
        "done_ns": done,
        "setup_s": (rec["tables_ready_ns"] - spawn) / 1e9,
        "wall_s": (done - spawn) / 1e9,
        "peak_rss_mb": rec["maxrss_kb"] / 1024.0,
    }


def segments(p: dict) -> list[tuple[str, int, bool]]:
    """Cut an untraced pass, spawn to exit, at every boundary of its
    coarse spans: (innermost span name or phase, duration ns, in setup)."""
    rec = p["rec"]
    spans = [("import", rec["import_start_ns"], rec["import_end_ns"])]
    spans += [(name.partition("@")[0], s, e) for name, s, e in rec["spans"]]
    marks = sorted([p["spawn_ns"], p["done_ns"]] + [t for _, s, e in spans for t in (s, e)])
    out = []
    for a, b in zip(marks, marks[1:]):
        inner = max(((s, name) for name, s, e in spans if s <= a and b <= e),
                    default=(0, "other"))[1]
        out.append((inner, b - a, b <= rec["tables_ready_ns"]))
    return out


def normalized(p: dict, cut: list[tuple[str, int, bool]]) -> list[float]:
    """Segment durations in seconds at the reference speed.

    The speed-probe runs inside a segment are taken out of it, and the
    rest is scaled by ``KERNEL_REF_NS`` over the median probe-kernel time
    read inside the segment, or at its nearest probes when it is shorter
    than the probe period.
    """
    m = np.array(p["rec"]["speed_marks"], dtype=np.int64).reshape(-1, 2)
    mid = m.mean(axis=1)
    k = (m[:, 1] - m[:, 0]).astype(np.float64)
    out = []
    t = p["spawn_ns"]
    for _, d, _ in cut:
        a, b = t, t + d
        t = b
        inside = (m[:, 0] >= a) & (m[:, 1] <= b)
        if inside.any():
            k_seg = np.median(k[inside])
        else:
            j = int(np.searchsorted(mid, (a + b) / 2))
            k_seg = np.median(k[max(j - 1, 0):j + 1])
        out.append((d - k[inside].sum()) * KERNEL_REF_NS / k_seg / 1e9)
    return out


def speed_factor(p: dict) -> float:
    """Reference over median probe-kernel time for a whole pass."""
    m = np.array(p["rec"]["speed_marks"], dtype=np.int64).reshape(-1, 2)
    return KERNEL_REF_NS / float(np.median(m[:, 1] - m[:, 0]))


def segment_seconds(untraced: list[dict]) -> tuple[list[tuple[str, bool]], list[float]]:
    """(name, in setup) and reference-speed seconds of each segment.

    Every pass repeats the same work with the same seed, so the passes
    cut into the same sequence of segments: the import, a table build
    per content, a ``simulator.run`` per cell, a bound per capacity,
    and the gaps between them.  A shared host's speed for one process
    can swing by 2x for seconds to tens of seconds (seen on a 2-vCPU
    Xeon virtual machine; see README.md), so each segment is
    first scaled to the reference speed read from its pass's speed probe
    (see ``normalized``), and then taken at its median over passes.
    """
    cuts = [segments(p) for p in untraced]
    if len({len(c) for c in cuts}) != 1:
        raise RuntimeError("passes did not repeat the same coarse calls")
    seg_s = [statistics.median(col)
             for col in zip(*(normalized(p, c) for p, c in zip(untraced, cuts)))]
    return [(name, setup) for name, _, setup in cuts[0]], seg_s


def end_to_end(untraced: list[dict]) -> dict:
    kinds, seg_s = segment_seconds(untraced)

    def total(pick) -> float:
        return sum(d for d, k in zip(seg_s, kinds) if pick(*k))

    events = sum(r["event_count"] for r in untraced[0]["rec"]["runs"])
    return {
        "setup_s": total(lambda name, setup: setup),
        "wall_s": total(lambda name, setup: True),
        "sim_events_per_s": events / total(lambda name, setup: name == "simulator.run"),
        "bound_s": total(lambda name, setup: name == "policies.relaxed_lower_bound"),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_pass(p: dict, checks: Checks, reference: bytes | None, config_m: int) -> None:
    """Output checks of one pass; sets ``p["bound_gap_pct"]``.  Rows of a
    policy sweep are at the config's capacity ``config_m``."""
    rec, d = p["rec"], p["dir"]
    for k, code in enumerate(rec["exit_codes"]):
        checks(f"command {k} exit code {code}", code == 0)
    for r in rec["runs"]:
        tag = f"run {r['policy']} M={r['M']} seed={r['seed']}"
        checks(f"{tag}: event_count", r["event_count"] == r["horizon_events"])
        checks(f"{tag}: serve_after_wait", r["serve_after_wait"] == 0)
        checks(f"{tag}: reconciliation", r["reconciliation"] <= RECON_TOL)
    p["bound_gap_pct"] = 0.0
    sim_csv = d / "sim" / "metrics.csv"
    bound_dir = d / "bound"
    bound_csvs = list(bound_dir.glob("*.csv")) if bound_dir.is_dir() else []
    checks("metrics.csv and bound CSV written", sim_csv.exists() and len(bound_csvs) == 1)
    if not (sim_csv.exists() and len(bound_csvs) == 1):
        return
    body = sim_csv.read_bytes()
    if reference is not None:
        checks("metrics.csv identical to the first pass", body == reference)
    bounds = {int(r["M"]): float(r["bound"]) for r in _read_csv(bound_csvs[0])}
    gaps = []
    for row in _read_csv(sim_csv):
        if row["replication"] != "mean" or row["policy"] not in FEASIBLE:
            continue
        m = int(row["axis_value"]) if row["axis_value"].isdigit() else config_m
        cost, se = float(row["avg_cost"]), float(row["avg_cost_se"])
        checks(f"{row['policy']} M={m}: cost >= bound - {SE_MULTIPLE:g} SE",
               m in bounds and cost >= bounds[m] - SE_MULTIPLE * se)
        if row["policy"] == "whittle" and m in bounds:
            gaps.append(100.0 * (cost - bounds[m]) / bounds[m])
    if gaps:
        p["bound_gap_pct"] = max(gaps)


# -- traced-pass analysis ----------------------------------------------------


def span_stats(path: Path) -> dict:
    """Per-name calls, self seconds and call durations.

    Names are ``<module>.<function>@<site>``; the totals are kept per
    full name and per ``<module>.<function>`` over all sites.  Self time
    is a span's duration minus the time its child spans cover.
    """
    z = np.load(path)
    names = [str(n) for n in z["names"]]
    nid, parent = z["name"], z["parent"]
    dur = (z["end"] - z["start"]).astype(np.float64)
    has_parent = parent >= 0
    cover = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - cover
    calls = np.bincount(nid, minlength=len(names))
    selfs = np.bincount(nid, weights=self_t, minlength=len(names))
    stats: dict[str, dict] = {}
    for i, full in enumerate(names):
        for key in (full, full.partition("@")[0]):
            s = stats.setdefault(key, {"calls": 0, "self_s": 0.0, "ids": []})
            s["calls"] += int(calls[i])
            s["self_s"] += selfs[i] / 1e9
            s["ids"].append(i)
    stats["_dur_ns"], stats["_nid"] = dur, nid
    return stats


def _get(stats: dict, name: str, field: str) -> float:
    return stats.get(name, {}).get(field, 0)


def call_us_percentiles(stats: dict, name: str) -> tuple[float, float]:
    ids = stats.get(name, {}).get("ids", [])
    d = stats["_dur_ns"][np.isin(stats["_nid"], ids)]
    if not len(d):
        return 0.0, 0.0
    p50, p99 = np.percentile(d / 1e3, [50, 99])
    return float(p50), float(p99)


def per_layer(untraced: list[dict], traced: list[dict], checks: Checks) -> dict:
    """Per-layer metrics.  Counts and self times come from the traced
    passes; timings of the import and of the coarse calls (tables, runs,
    bounds) come from the untraced passes, which carry no probes inside
    those calls.  Times are at the reference speed, as in ``end_to_end``;
    a traced pass is scaled by its own ``speed_factor``."""
    med = statistics.median
    per_pass = [span_stats(p["dir"] / "spans.npz") for p in traced]
    factors = [speed_factor(p) for p in traced]
    kinds, seg_s = segment_seconds(untraced)
    names = [name for name, _ in kinds]

    def seg_total(*wanted) -> float:
        return sum(d for d, name in zip(seg_s, names) if name in wanted)

    first = per_pass[0]
    call_counts = [{k: v["calls"] for k, v in s.items() if not k.startswith("_")}
                   for s in per_pass]
    for k, counts in enumerate(call_counts[1:], 1):
        checks(f"traced pass {k} call counts equal pass 0", counts == call_counts[0])

    def self_s(*labels):
        return med(f * sum(_get(s, n, "self_s") for n in labels)
                   for s, f in zip(per_pass, factors))

    def calls(name):
        return _get(first, name, "calls")

    p50, p99 = zip(*((f * a, f * b) for (a, b), f in zip(
        (call_us_percentiles(s, "thresholds.solve_case2") for s in per_pass), factors)))
    rec0 = untraced[0]["rec"]
    n_bounds = len(rec0["bounds"])
    m = {
        "cli.import_s": seg_total("import"),
        "cli.build_system.self_s": self_s("cli.build_system"),
        "cli.report.self_s": self_s("cli.Reporter.table", "cli.Reporter.close"),
        "model.validate.calls": calls("model.validate"),
        "model.validate.self_s": self_s("model.validate"),
        "thresholds.solve_case2.calls": calls("thresholds.solve_case2"),
        "thresholds.solve_case2.self_s": self_s("thresholds.solve_case2"),
        "thresholds.solve_case2.us_p50": med(p50),
        "thresholds.solve_case2.us_p99": med(p99),
        "thresholds.compute_I.calls": calls("thresholds.compute_I"),
        "thresholds.solve_q_hat.calls": calls("thresholds.solve_q_hat"),
        "thresholds.optimal_average_cost.calls": calls("thresholds.optimal_average_cost"),
        "thresholds.optimal_average_cost.self_s": self_s("thresholds.optimal_average_cost"),
        "whittle.build_content_tables.calls": calls("whittle.build_content_tables"),
        "whittle.build_content_tables.self_s": self_s("whittle.build_content_tables"),
        "whittle.solve_thresholds.calls": calls("thresholds.solve_thresholds@whittle"),
        "whittle.table_bytes": rec0["table_bytes"],
        "policies.build_policy_tables.calls": calls("policies.build_policy_tables"),
        "policies.build_policy_tables.s": seg_total("policies.build_policy_tables",
                                                    "whittle.build_content_tables"),
        "policies.relaxed_lower_bound.calls": calls("policies.relaxed_lower_bound"),
        "policies.relaxed_lower_bound.s_per_call": (
            seg_total("policies.relaxed_lower_bound") / n_bounds if n_bounds else 0.0),
        "policies.dual_value.calls": calls("policies.dual_value"),
        "policies.myopic_decide.calls": calls("policies.myopic_decide"),
        "policies.myopic_decide.self_s": self_s("policies.myopic_decide"),
        "policies.static_topm_decide.calls": calls("policies.static_topm_decide"),
        "policies.static_topm_decide.self_s": self_s("policies.static_topm_decide"),
        "simulator.run.calls": calls("simulator.run"),
        "simulator.run.self_s": self_s("simulator.run"),
        "simulator.sweep.self_s": self_s("simulator.sweep"),
    }
    # run segments come in call order, one per simulator.run
    run_s = [d for d, name in zip(seg_s, names) if name == "simulator.run"]
    for pol in POLICIES:
        cells = [(r, d) for r, d in zip(rec0["runs"], run_s) if r["policy"] == pol]
        m[f"simulator.events_per_s.{pol}"] = (
            sum(r["event_count"] for r, _ in cells) / sum(d for _, d in cells)
            if cells else 0.0)
        m[f"simulator.fetches_per_request.{pol}"] = (
            statistics.fmean(r["fetch_rate"] / r["beta"] for r, _ in cells) if cells else 0.0)
    wall_u = med(p["wall_s"] * speed_factor(p) for p in untraced)
    wall_t = med(p["wall_s"] * f for p, f in zip(traced, factors))
    m["trace.overhead_pct"] = 100.0 * (wall_t - wall_u) / wall_u
    m["bound_gap_pct"] = untraced[0]["bound_gap_pct"]
    return m


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "aovcache" / "cli.py").is_file():
        print(f"no aovcache source tree at {SRC}", file=sys.stderr)
        return 2
    machine = machine_record()
    compileall.compile_dir(SRC / "aovcache", quiet=1)
    # sweeps seed replication r with cli_seed + r; spacing the cli seeds
    # keeps the replications of nearby benchmark seeds apart
    seed = args.seed * 1000 % 2**31
    run_dir = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # warm the interpreter's file cache with one unmeasured import
    warm = subprocess.run([sys.executable, "-c", "import aovcache.cli"],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, timeout=deadline - time.monotonic())
    if warm.returncode != 0:
        print(warm.stderr.decode(errors="replace"), file=sys.stderr)
        return 3

    config = json.loads((HERE / "configs" / WORKLOADS[args.workload]["config"]).read_text())
    config_m = int(config["system"]["M"])
    t0 = time.monotonic()
    passes: list[dict] = []
    checks = Checks()
    reference = None
    while True:
        n_traced = sum(p["traced"] for p in passes)
        enough = (n_traced >= 1 and len(passes) - n_traced >= 1) if args.trace else (
            len(passes) >= MIN_PASSES)
        elapsed = time.monotonic() - t0
        if enough and (elapsed >= args.seconds or elapsed >= STOP_STARTING_S):
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        try:
            p = run_pass(args.workload, seed, run_dir / f"pass{len(passes)}", traced,
                         deadline)
        except RuntimeError as e:
            print(f"benchmark pass failed: {e}", file=sys.stderr)
            return 3
        check_pass(p, checks, reference, config_m)
        if reference is None:
            reference = (p["dir"] / "sim" / "metrics.csv").read_bytes()
        print(f"pass {len(passes)} traced={int(traced)} "
              f"wall {p['wall_s']:.2f}s setup {p['setup_s']:.2f}s", file=sys.stderr)
        passes.append(p)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    try:
        if args.trace:
            values = per_layer(untraced, traced, checks)
            values["check_fail_ratio"] = len(checks.failed) / checks.attempted
        else:
            values = end_to_end(untraced)
    except RuntimeError as e:
        print(f"benchmark passes differ: {e}", file=sys.stderr)
        return 3
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    metrics = {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}

    machine["loadavg_end"] = _loadavg()
    kernel_us = [(e - s) / 1e3 for p in passes
                 for s, e in zip(p["rec"]["speed_marks"][::2], p["rec"]["speed_marks"][1::2])]
    machine["speed_kernel_us"] = dict(zip(
        ("p10", "p50", "p90"), (round(q, 1) for q in np.percentile(kernel_us, [10, 50, 90]))))
    record = {
        "workload": args.workload, "seed": args.seed, "cli_seed": seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine,
        "passes": [{k: v for k, v in p.items() if k not in ("dir", "rec")}
                   for p in passes],
        "failed_checks": checks.failed, "metrics": metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"machine": machine, "failed_checks": checks.failed}))
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
