"""The four workloads of the sfp benchmark.

Each workload is a fixed list of steps.  A step calls `sfp.cli.main(argv)`
in-process, as a user would, or (box2d-io only) reloads the file the
previous step wrote.  Inputs are a pure function of the seed.  Besides its
steps, a workload knows the work one job does (pair decisions and
replicates, computed here from the configuration, not read from the
program), the estimates it reports with their relative standard errors,
and the untimed checks to run on each step's output.

Why these four (they stress different layers, and each optimisation
planned for the program has one workload that exercises it and one that
bypasses it):

- degree-tail: d=1 generation at two cutoffs; almost all time is keyed
  hashing.  No BFS, I/O or Monte-Carlo work.
- distances: coupled SFP/LRP boxes (every pair hashed twice) plus an
  sfpnn truncated box; about half of the time is BFS.
- monte-carlo: the adjacent, FKG and bridge kernels at two threads; no
  graph code runs, so it bypasses every generation or BFS change.
- box2d-io: d=2 generation (hundreds of short offsets and the Python lag
  loop of the truncation bias), then the only file write and read, which
  take most of its time.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from sfp import cli, graph
from sfp.params import ModelKind

import checks


def pairs_decided(d: int, side: int, cutoff: float | None) -> int:
    """Vertex pairs of the box {0..side-1}^d within Euclidean distance cutoff."""
    n = side ** d
    if cutoff is None or cutoff >= math.sqrt(d) * (side - 1):
        return n * (n - 1) // 2
    c = min(side - 1, int(math.floor(cutoff)))
    if d == 1:
        return c * side - c * (c + 1) // 2
    axis = np.arange(-c, c + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    r2 = sum(g * g for g in grids)
    mult = np.prod([side - np.abs(g) for g in grids], axis=0)
    inside = (r2 > 0) & (r2 <= float(cutoff) ** 2)
    return int(mult[inside].sum()) // 2


def run_cli(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return {"rc": rc, "text": out.getvalue(), "err": err.getvalue()}


def parse_report(text: str) -> dict:
    header, rows, verdicts, flags = None, [], [], []
    for line in text.splitlines():
        if line.startswith("#verdict "):
            _, rule, result, detail = (line.split(" ", 3) + [""])[:4]
            verdicts.append((rule, result == "pass", detail))
        elif line.startswith("#flag "):
            flags.append(line[len("#flag "):])
        elif not line or line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return {"rows": rows, "verdicts": verdicts, "flags": flags}


def report_body(text: str) -> str:
    """The CSV minus the lines that may differ between reruns."""
    return "\n".join(l for l in text.splitlines()
                     if not l.startswith(("#wallclock", "#threads")))


def _rc_check(res, allowed=(0, 2)) -> tuple:
    return ("exit-code", res["rc"] in allowed, f"rc={res['rc']} {res['err'].strip()[-200:]}")


def _captured_check(res, kinds) -> tuple:
    got = [r.params.kind for r in res["captured"]]
    return ("realizations-generated", got == list(kinds), f"{[k.value for k in got]}")


class Workload:
    name = ""

    def steps(self, seed: int, out_dir: Path, probe: bool = False) -> list:
        """[(step name, zero-argument callable returning a result dict)]."""
        raise NotImplementedError

    def pairs_per_job(self) -> int:
        raise NotImplementedError

    def estimates(self, results: dict) -> tuple:
        """(replicates summed over estimate points, [relative standard errors])."""
        raise NotImplementedError

    def check(self, step: str, res: dict, rng, state: dict) -> list:
        raise NotImplementedError

    def digest(self, step: str, res: dict) -> str:
        return checks.sha256(report_body(res["text"]))

    @staticmethod
    def _cli(argv):
        return lambda: run_cli(argv)


class DegreeTail(Workload):
    name = "degree-tail"
    SIDE, MARGIN = 20_000, 1_000
    # (tau, cutoff, hill k): criterion 6 with L, R and k scaled down.
    CASES = ((3.5, 1_000.0, 160), (2.5, 3_000.0, 400))

    def steps(self, seed, out_dir, probe=False):
        side, margin, scale = (2_000, 100, 10) if probe else (self.SIDE, self.MARGIN, 1)
        return [(f"tau{tau:g}", self._cli([
            "degrees", "--alpha", "1.5", "--tau", repr(tau), "--side", str(side),
            "--trunc", repr(cutoff / scale), "--margin", str(margin),
            "--hill-k", str(k // scale), "--threads", "2", "--seed", str(seed)]))
            for tau, cutoff, k in self.CASES]

    def pairs_per_job(self):
        return sum(pairs_decided(1, self.SIDE, cutoff) for _, cutoff, _ in self.CASES)

    def estimates(self, results):
        rse = []
        for res in results.values():
            for row in parse_report(res["text"])["rows"]:
                if row["estimator"] == "hill":
                    rse.append(float(row["stderr"]) / float(row["estimate"]))
        return len(self.CASES) * (self.SIDE - 2 * self.MARGIN), rse

    def check(self, step, res, rng, state):
        out = [_rc_check(res), _captured_check(res, [ModelKind.SFP])]
        if len(res["captured"]) != 1:
            return out
        r = res["captured"][0]
        tau, cutoff, k = next(c for c in self.CASES if f"tau{c[0]:g}" == step)
        out.append(("box-config", r.params.tau == tau and r.trunc == cutoff
                     and r.spec.side == self.SIDE, f"tau={r.params.tau} trunc={r.trunc}"))
        out += checks.check_realization(r, rng)
        # Recompute the Hill estimate from the generated box.
        deg = r.degrees()[self.MARGIN:self.SIDE - self.MARGIN]
        x = np.sort(deg[deg > 0].astype(np.float64))
        n = len(x)
        hill = 1.0 / float(np.mean(np.log(x[n - k:] / x[n - k - 1])))
        rows = [row for row in parse_report(res["text"])["rows"] if row["estimator"] == "hill"]
        got = float(rows[0]["estimate"]) if rows else math.nan
        out.append(("hill-recomputed", abs(got - hill) <= 1e-12 * abs(hill),
                    f"report {got!r} vs recomputed {hill!r}"))
        return out


class Distances(Workload):
    name = "distances"
    N_COUPLED = [2 ** k for k in range(4, 11)]
    N_NN = [2 ** k for k in range(4, 13)]

    def steps(self, seed, out_dir, probe=False):
        base = ["distances", "--alpha", "1.5", "--tau", "3.5", "--lambda", "5", "--seed", str(seed)]
        if probe:
            return [("coupled", self._cli(base + ["--side", "256", "--n-list", "16,32,64",
                                                  "--sources", "4", "--compare-lrp"])),
                    ("sfpnn", self._cli(base + ["--model", "sfpnn", "--side", "512", "--trunc",
                                                "32", "--n-list", "16,32,64", "--sources", "4"]))]
        return [("coupled", self._cli(base + [
                    "--side", "4096", "--n-list", ",".join(map(str, self.N_COUPLED)),
                    "--sources", "24", "--compare-lrp"])),
                ("sfpnn", self._cli(base + [
                    "--model", "sfpnn", "--side", "16384", "--trunc", "512",
                    "--n-list", ",".join(map(str, self.N_NN)), "--sources", "96"]))]

    def pairs_per_job(self):
        return 2 * pairs_decided(1, 4096, None) + pairs_decided(1, 16384, 512.0)

    def estimates(self, results):
        # A median of hop counts comes with no standard error; its relative
        # precision is that of the sample it rests on, 1/sqrt(samples).
        reps, rse = 0, []
        for res in results.values():
            for row in parse_report(res["text"])["rows"]:
                n = int(row["samples"])
                reps += n
                rse.append(1.0 / math.sqrt(n) if n else math.inf)
        return reps, rse

    def check(self, step, res, rng, state):
        out = [_rc_check(res)]
        rows = parse_report(res["text"])["rows"]
        if step == "coupled":
            out.append(_captured_check(res, [ModelKind.SFP, ModelKind.LRP]))
            out.append(("row-count", len(rows) == 2 * len(self.N_COUPLED), f"{len(rows)} rows"))
            med = {(row["model"], row["N"]): float(row["median_hops"]) for row in rows}
            dom = all(med.get(("sfp", str(n)), math.inf) <= med.get(("lrp", str(n)), -math.inf)
                      for n in self.N_COUPLED)
            out.append(("coupled-median-domination", dom, "sfp median <= lrp median at every N"))
            if len(res["captured"]) == 2:
                out.append(checks.check_coupled(*res["captured"]))
        else:
            out.append(_captured_check(res, [ModelKind.SFP_NN]))
            out.append(("row-count", len(rows) == len(self.N_NN), f"{len(rows)} rows"))
        out.append(("samples-bounded", all(0 < int(row["samples"]) <= (24 if step == "coupled" else 96)
                                           for row in rows), "0 < samples <= sources"))
        for r in res["captured"]:
            out += checks.check_realization(r, rng)
        return out


class MonteCarlo(Workload):
    name = "monte-carlo"
    ADJ_REPS, FKG_REPS, BRIDGE_REPS = 2_000_000, 2_000_000, 400_000
    PATH = (0, 17, -5, 30)
    BRIDGE_N = (64, 128, 256, 512, 1024)
    BETA = 0.5

    def steps(self, seed, out_dir, probe=False, bridge_threads=2):
        div = 1000 if probe else 1
        common = ["--alpha", "1.5", "--tau", "2.5", "--seed", str(seed)]
        return [
            ("adjacent", self._cli(["adjacent", *common, "--rxy", repr(100.0 ** (2.0 / 3.0)),
                                    "--ryz", repr(10.0 ** (2.0 / 3.0)), "--threads", "2",
                                    "--replicates", str(self.ADJ_REPS // div)])),
            ("fkg", self._cli(["fkg", *common, "--path", ";".join(map(str, self.PATH)),
                               "--threads", "2", "--replicates", str(self.FKG_REPS // div)])),
            ("bridge", self._cli(["bridge", *common, "--beta", repr(self.BETA),
                                  "--n-list", ",".join(map(str, self.BRIDGE_N)),
                                  "--threads", str(bridge_threads),
                                  "--replicates", str(self.BRIDGE_REPS // div)])),
        ]

    def cube_size(self, n: int) -> int:
        half, mid = float(n) ** self.BETA, n / 2.0
        return math.floor(mid + half) - math.ceil(mid - half) + 1

    def pairs_per_job(self):
        # Edge probabilities evaluated: two per replicate at each of the 5
        # adjacent points, one per path edge, two per cube vertex.
        return (2 * 5 * self.ADJ_REPS + (len(self.PATH) - 1) * self.FKG_REPS
                + sum(2 * self.cube_size(n) * self.BRIDGE_REPS for n in self.BRIDGE_N))

    def estimates(self, results):
        reps, rse = 0, []
        for step, res in results.items():
            for row in parse_report(res["text"])["rows"]:
                if step == "fkg":
                    reps += self.FKG_REPS
                    rse.append(float(row["se_path"]) / float(row["p_path"]))
                else:
                    reps += int(row["n"])
                    rse.append(float(row["stderr"]) / float(row["estimate"]))
        return reps, rse

    def check(self, step, res, rng, state):
        out = [_rc_check(res), _captured_check(res, [])]
        rows = parse_report(res["text"])["rows"]
        if step == "fkg":
            cuts = len(self.PATH) - 2
            out.append(("row-count", len(rows) == cuts, f"{len(rows)} rows"))
            # path = head x tail replicate by replicate, each factor <= 1.
            ok = all(float(r["p_path"]) <= min(float(r["p_head"]), float(r["p_tail"]))
                     and float(r["se_path"]) > 0 for r in rows)
            out.append(("path-below-factors", ok, "p_path <= min(p_head, p_tail), se > 0"))
            return out
        want_n = self.ADJ_REPS if step == "adjacent" else self.BRIDGE_REPS
        want_rows = 5 if step == "adjacent" else len(self.BRIDGE_N)
        out.append(("row-count", len(rows) == want_rows, f"{len(rows)} rows"))
        ok = all(int(r["n"]) == want_n and 0 < float(r["estimate"]) <= 1
                 and float(r["stderr"]) > 0 for r in rows)
        out.append(("estimates-valid", ok, f"n == {want_n}, 0 < estimate <= 1, stderr > 0"))
        if step == "bridge":
            sizes = [int(r["cube_size"]) for r in rows]
            want = [self.cube_size(n) for n in self.BRIDGE_N]
            out.append(("cube-sizes", sizes == want, f"{sizes} vs {want}"))
        return out


class Box2dIO(Workload):
    name = "box2d-io"
    SIDE, CUTOFF = 128, 12.0

    def steps(self, seed, out_dir, probe=False):
        side, cutoff = (16, 4.0) if probe else (self.SIDE, self.CUTOFF)
        path = out_dir / "box2d-io.txt"
        argv = ["generate", "--dim", "2", "--alpha", "3", "--tau", "2.5", "--side", str(side),
                "--trunc", repr(cutoff), "--seed", str(seed), "--out", str(path)]

        def generate():
            return {**run_cli(argv), "out_path": path}

        def load():
            r = graph.load_realization(path)
            cl = graph.clusters(r)
            deg = r.degrees()
            return {"rc": 0, "text": "", "err": "", "out_path": path, "realization": r,
                    "clusters": cl, "degrees": deg}

        return [("generate", generate), ("load", load)]

    def pairs_per_job(self):
        return pairs_decided(2, self.SIDE, self.CUTOFF)

    def estimates(self, results):
        deg = results["load"]["degrees"].astype(np.float64)
        n = len(deg)
        return n, [float(deg.std() / (deg.mean() * math.sqrt(n)))]

    def digest(self, step, res):
        if step == "generate":
            return checks.sha256(res["out_path"].read_bytes())
        cl, deg = res["clusters"], res["degrees"]
        return checks.sha256(f"{res['realization'].n_edges} {cl.largest} "
                             f"{cl.sizes[cl.largest]} {deg.sum()}")

    def check(self, step, res, rng, state):
        path = res["out_path"]
        if step == "generate":
            state["generated"] = res["captured"][0] if len(res["captured"]) == 1 else None
            return [_rc_check(res, (0,)), _captured_check(res, [ModelKind.SFP]),
                    ("file-written", path.is_file() and path.stat().st_size > 0, path.name)]
        r, cl, deg = res["realization"], res["clusters"], res["degrees"]
        out = [_captured_check(res, [])]
        if state.get("generated") is not None:
            out += checks.check_roundtrip(state["generated"], r, path,
                                          path.with_name(path.name + ".copy"))
        out += checks.check_realization(r, rng)
        sizes_ok = (sum(cl.sizes.values()) == r.n_vertices
                    and cl.sizes[cl.largest] == max(cl.sizes.values())
                    and int(np.flatnonzero(cl.labels == cl.largest)[0]) == cl.largest)
        out.append(("clusters-consistent", sizes_ok, f"{len(cl.sizes)} clusters"))
        out.append(("degree-sum", int(deg.sum()) == 2 * r.n_edges, f"{int(deg.sum())}"))
        return out


WORKLOADS = {w.name: w for w in (DegreeTail(), Distances(), MonteCarlo(), Box2dIO())}
