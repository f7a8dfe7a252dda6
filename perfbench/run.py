#!/usr/bin/env python3
"""Benchmark of the sfp simulator: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --criteria        # opt-in: acceptance criteria timings
    python3 perfbench/run.py --write-golden    # re-pin golden.json (deliberate only)

Run from the repository root; the program is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "_out"
SRC = ROOT / "src"

# Import sfp from this checkout's source tree, or stop.
if not (SRC / "sfp" / "__init__.py").is_file():
    sys.exit(f"perfbench: no sfp source tree at {SRC}")
sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
import sfp  # noqa: E402

if Path(sfp.__file__).resolve().parent != (SRC / "sfp").resolve():
    sys.exit(f"perfbench: imported sfp from {sfp.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, parse_report, run_cli  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 5
MIN_JOBS = 4
WALL_LIMIT_S = 150.0
THREADS = 2


def declared_units(trace: bool) -> dict:
    """{metric name: unit} as BENCHMARK.json declares them, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def job_seed(seed: int, k: int) -> int:
    """Seed of the k-th timed job of a run; never the default (golden) seed."""
    return 1000 * seed + k + 1


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _cpu_info() -> dict:
    info = {"cpu_model": None, "l2": None, "l3": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return info


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(threads: int) -> dict:
    nproc = os.cpu_count()
    load = os.getloadavg()[0]
    return {"nproc": nproc, **_cpu_info(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "git_commit": _git_commit(), "threads": threads, "load1_start": load,
            "busy_at_start": load > (nproc or 1)}


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------

class Runner:
    """Runs a workload's jobs in this process, timing steps and checking outputs."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.sink = []
        self.undo_capture = layers.capture_generated(self.sink)
        self.attempted = 0
        self.failures = []
        self.verdicts = []

    def record(self, label: str, results) -> None:
        for name, ok, detail in results:
            self.attempted += 1
            if not ok:
                self.failures.append(f"{label}: {name}: {detail}")

    def job(self, seed: int, traced: bool = False, steps=None) -> dict:
        steps = steps if steps is not None else self.workload.steps(seed, OUT_DIR)
        rng = np.random.default_rng([seed, 12345])
        state, results = {}, {}
        for name, fn in steps:
            self.sink.clear()
            if traced:
                self.tracer.run_id = f"{seed}/{name}"
                self.tracer.recording = True
                root = self.tracer.begin(layers.ROOT_SPAN, root=True)
            t0 = time.perf_counter()
            try:
                res = fn()
            except Exception:
                res = {"rc": None, "text": "", "err": traceback.format_exc()}
            dt = time.perf_counter() - t0
            if traced:
                self.tracer.end(root)
                self.tracer.recording = False
            res["dt"], res["captured"] = dt, list(self.sink)
            self.sink.clear()
            label = f"{self.workload.name}/{name} seed={seed}"
            try:
                self.record(label, self.workload.check(name, res, rng, state))
            except Exception:
                self.record(label, [("check-raised", False, traceback.format_exc(limit=3))])
            self.verdicts += [(label, *v) for v in parse_report(res["text"])["verdicts"]]
            res["captured"] = None
            results[name] = res
        return results

    def timed_jobs(self, seeds, budget_s: float, min_jobs: int, deadline: float,
                   paired_trace: bool = False, probes: list | None = None) -> list:
        """Jobs until `budget_s` of measured time is spent.

        With paired_trace each job is followed by a traced replay of its
        seed, so drift in machine speed hits both sides of the
        tracing-overhead ratio alike.  With a `probes` list, each job is
        followed by one set-up probe (appended to it, and counted in the
        budget), and probes continue after the last job until there are
        SETUP_PROBES: set-up is sampled across the run, not bunched at its
        start.
        """
        jobs, measured = [], 0.0
        for seed in seeds:
            job = self.job_metrics(seed, self.job(seed))
            measured += job["dt"]
            if paired_trace:
                layers.instrument(self.tracer)
                try:
                    job["traced"] = self.job_metrics(seed, self.job(seed, traced=True))
                finally:
                    self.tracer.unpatch()
                measured += job["traced"]["dt"]
            if probes is not None:
                probes.append(self.setup_probe())
                measured += probes[-1]
            jobs.append(job)
            if len(jobs) >= min_jobs and (measured >= budget_s or time.monotonic() > deadline):
                break
        while probes is not None and len(probes) < SETUP_PROBES:
            probes.append(self.setup_probe())
        return jobs

    def job_metrics(self, seed: int, results: dict) -> dict:
        """Work, estimates and output digests of one job.  A step that raised
        or reported no estimates is a failed check, not a crash; such a job
        has no estimates (rse_max None)."""
        w = self.workload
        try:
            reps, rse = w.estimates(results)
            rse_max = max(rse)
        except Exception:
            reps, rse_max = 0, None
            self.record(f"{w.name} seed={seed}",
                        [("estimates", False, traceback.format_exc(limit=3))])
        digests = {}
        for k, r in results.items():
            try:
                digests[k] = w.digest(k, r)
            except Exception:
                digests[k] = None
        return {"seed": seed, "dt": sum(r["dt"] for r in results.values()),
                "pairs": w.pairs_per_job(), "reps": reps, "rse_max": rse_max,
                "steps": {k: r["dt"] for k, r in results.items()}, "digests": digests}

    def setup_probe(self) -> float:
        """Wall time of a fresh process that imports sfp and runs the workload
        at toy size: the cold start a CLI user pays on every call."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe",
                                   "--workload", self.workload.name], cwd=ROOT,
                                  capture_output=True, text=True, timeout=60)
            ok, detail = proc.returncode == 0, proc.stderr[-2000:]
        except subprocess.TimeoutExpired:
            ok, detail = False, "timed out after 60 s"
        dt = time.perf_counter() - t0
        self.record(f"{self.workload.name} setup probe", [("probe-exit-code", ok, detail)])
        return dt

    def close(self) -> None:
        self.undo_capture()


# ---------------------------------------------------------------------------
# A benchmark run
# ---------------------------------------------------------------------------

def toy_reports(workload) -> dict:
    """{step: (exit code, output digest)} of the toy-size job at the default seed."""
    out = {}
    for name, fn in workload.steps(DEFAULT_SEED, OUT_DIR, probe=True):
        try:
            res = fn()
            out[name] = (res["rc"], workload.digest(name, res))
        except Exception:
            traceback.print_exc()
            out[name] = (None, "step raised")
    return out


def probe(workload_name: str) -> int:
    reports = toy_reports(WORKLOADS[workload_name])
    if any(rc not in (0, 2) for rc, _ in reports.values()):
        print(f"toy run failed: {reports}", file=sys.stderr)
        return 1
    return 0


def golden_checks(runner, golden: dict) -> None:
    runner.record("small-boxes", checks.check_small_boxes(golden["edges"]))
    w = runner.workload
    want = golden["reports"][w.name]
    runner.record(f"{w.name} toy seed={DEFAULT_SEED}", [
        (f"report-digest {step}", rc in (0, 2) and digest == want.get(step),
         f"rc={rc} {digest[:16]} vs golden {str(want.get(step))[:16]}")
        for step, (rc, digest) in toy_reports(w).items()])


def run(args) -> dict:
    started = time.monotonic()
    deadline = started + WALL_LIMIT_S
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    prov = provenance(THREADS)
    setup = None if args.trace else []

    runner = Runner(workload, Tracer() if args.trace else None)
    try:
        golden_checks(runner, checks.load_golden())
        seeds = (job_seed(args.seed, k) for k in range(10_000))
        jobs = runner.timed_jobs(seeds, args.seconds, 2 if args.trace else MIN_JOBS, deadline,
                                 paired_trace=bool(args.trace), probes=setup)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            metrics = traced_metrics(runner, workload, jobs, args.seed)
        else:
            metrics = end_to_end_metrics(jobs, setup, rss_mb)
    finally:
        runner.close()

    prov["load1_end"] = os.getloadavg()[0]
    return {"provenance": prov, "workload": workload.name, "seed": args.seed,
            "trace": args.trace, "jobs": jobs, "setup_probes_s": setup,
            "metrics": metrics, "attempted": runner.attempted, "failures": runner.failures,
            "verdicts": runner.verdicts, "elapsed_s": time.monotonic() - started}


def end_to_end_metrics(jobs, setup, rss_mb) -> dict:
    """End-to-end metrics.  Jobs without estimates (failed, and so already
    counted in `failed`) are left out of the estimate-based metrics, which
    read 0 if no job has estimates."""
    med = statistics.median
    run_s = med(j["dt"] for j in jobs)
    good = [j for j in jobs if j["rse_max"] is not None]
    rse2 = statistics.fmean(j["rse_max"] ** 2 for j in good) if good else 0.0
    return {"setup_s": med(setup), "run_s": run_s,
            "pairs_per_s": med(j["pairs"] / j["dt"] for j in jobs),
            "replicates_per_s": med(j["reps"] / j["dt"] for j in good) if good else 0.0,
            "s_to_1pct": run_s * rse2 / 0.01 ** 2, "peak_rss_mb": rss_mb}


def traced_metrics(runner, workload, jobs, seed) -> dict:
    """Per-layer metrics from the traced replays of the timed jobs."""
    traced = [j["traced"] for j in jobs]
    runner.record("traced-vs-untraced", [
        (f"report-identical seed={j['seed']}", t["digests"] == j["digests"], str(t["digests"]))
        for t, j in zip(traced, jobs)])
    overhead = statistics.median(t["dt"] / j["dt"] for t, j in zip(traced, jobs)) - 1.0
    speedup = 0.0
    if workload.name == "monte-carlo":
        last = jobs[-1]
        one = dict(workload.steps(last["seed"], OUT_DIR, bridge_threads=1))["bridge"]
        t1 = runner.job(last["seed"], steps=[("bridge", one)])["bridge"]["dt"]
        speedup = t1 / last["steps"]["bridge"]
    runner.tracer.write_jsonl(OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl")
    return layers.per_layer_metrics(runner.tracer.spans, len(traced), overhead, speedup)


def criteria() -> dict:
    """Elapsed time and pass/fail of the long acceptance criteria (never gated)."""
    from sfp import verify
    out = {"provenance": provenance(1), "criteria": []}
    runs = [("4", lambda: verify.criterion_adjacent_decay(seed=0)),
            ("6", lambda: verify.criterion_degree_tail(seed=0)),
            ("7", lambda: verify.criterion_bridge_slope(seed=0)),
            ("8", lambda: verify.criterion_fkg(seed=0)),
            ("11", lambda: verify.criterion_distance_suite(seed=0, full_scale=True))]
    for cid, fn in runs:
        t0 = time.perf_counter()
        res = fn()
        out["criteria"].append({"criterion": cid, "name": res.name, "passed": res.passed,
                                "elapsed_s": time.perf_counter() - t0})
        print(json.dumps(out["criteria"][-1]), flush=True)
    t0 = time.perf_counter()
    res = run_cli(["verify", "--quick"])
    out["criteria"].append({"criterion": "verify --quick", "name": "verify-quick",
                            "passed": res["rc"] == 0, "elapsed_s": time.perf_counter() - t0})
    out["provenance"]["load1_end"] = os.getloadavg()[0]
    return out


def write_golden() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    golden = {"default_seed": DEFAULT_SEED, "edges": checks.edge_digests(), "reports": {}}
    for w in WORKLOADS.values():
        reports = toy_reports(w)
        if any(rc not in (0, 2) for rc, _ in reports.values()):
            sys.exit(f"refusing to pin goldens: {w.name} exited with {reports}")
        golden["reports"][w.name] = {step: digest for step, (_, digest) in reports.items()}
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--criteria", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.write_golden:
        write_golden()
        return 0
    if args.criteria:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        out = criteria()
        (OUT_DIR / "criteria.json").write_text(json.dumps(out, indent=1) + "\n")
        print(json.dumps(out))
        return 0
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.probe:
        return probe(args.workload)

    rec = run(args)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rec, indent=1, default=str) + "\n")
    print("provenance " + json.dumps(rec["provenance"]))
    failed_verdicts = [v for v in rec["verdicts"] if not v[2]]
    print(f"verdicts: {len(rec['verdicts']) - len(failed_verdicts)} pass, "
          f"{len(failed_verdicts)} FAIL (statistical, reported, not counted as failures)")
    for v in failed_verdicts:
        print(f"  FAIL {v[0]} {v[1]}: {v[3]}")
    for f in rec["failures"]:
        print(f"  CHECK FAILED {f}")
    units = declared_units(bool(args.trace))
    if list(rec["metrics"]) != list(units):
        raise RuntimeError("computed metrics differ from those BENCHMARK.json declares: "
                           f"{list(rec['metrics'])} vs {list(units)}")
    print(json.dumps({
        "correct": not rec["failures"], "attempted": rec["attempted"],
        "failed": len(rec["failures"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in rec["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
