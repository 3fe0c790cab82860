"""End-to-end benchmark of the rotinv command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  One closed-loop client runs a workload's
commands one at a time, each a fresh `python -m rotinv` process with `src` on
PYTHONPATH, as a user at a terminal would, and starts the next command only
when the previous one has exited.  It repeats whole rounds of the workload
until S seconds have passed, checks every output against references computed
in perfbench/workloads.py, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates an untraced
round with a traced one, which runs the same commands through
perfbench/traced_cli.py, and reports the per-layer metrics, the untraced
stage times and the tracing overhead.  perfbench/README.md lists what each
metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from traced_cli import LAYER_FUNCTIONS
from workloads import WORKLOADS, Command, Outcome

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0    # commands still running then are killed and fail
STAGES = ("construct", "verify", "solve")

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "verify_s": "s",
                    "peak_rss_mb": "MB", "artifact_bytes": "bytes"}
COUNTERS = {"jsonio.bytes_written": "bytes", "jsonio.bytes_read": "bytes",
            "ham_model.global_nnz": "count", "spectral_engine.matvecs": "count",
            "tri_flags.cell_nnz": "count", "tri_flags.offsets_checked": "count"}
SPAN_NAMES = ["cli.main"] + [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items()
                             for fn in fns]


def per_layer_units() -> dict:
    units = {"cli.startup_s": "s", "cli.pipeline_s": "s", "cli.trace_overhead_s": "s"}
    for stage in STAGES:
        units[f"cli.{stage}_s"] = "s"
        units[f"cli.{stage}_trace_overhead_s"] = "s"
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    units.update(COUNTERS)
    return units


def digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def span_totals(spans: list) -> dict:
    """Per span name: calls, total time, and self time (minus direct children)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {}
    for (name, start, end, _), child in zip(spans, covered):
        calls, total, own = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, total + end - start, own + end - start - child)
    return totals


class Client:
    """Runs one rotinv command at a time in `workdir` and waits for it."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1",
                        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def spawn(self, cmd: list) -> dict:
        """Run one child to its end: exit code, wall seconds, peak RSS in MB,
        spawn time and its decoded stdout and stderr."""
        spawned = time.perf_counter()
        # pipes, not files: truncating a file on some disks costs tens of ms
        proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        streams = {}
        readers = [threading.Thread(target=lambda k, f: streams.update({k: f.read()}),
                                    args=(key, pipe))
                   for key, pipe in (("stdout", proc.stdout), ("stderr", proc.stderr))]
        killer = threading.Timer(max(0.0, self.deadline - spawned), proc.kill)
        for thread in readers + [killer]:
            thread.start()
        # wait4 gives this child's own peak RSS, unlike RUSAGE_CHILDREN
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - spawned
        killer.cancel()
        for thread in readers + [killer]:
            thread.join()
        proc.stdout.close()
        proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall": wall, "rss": usage.ru_maxrss / 1024.0,
                "spawned": spawned, "stdout": streams["stdout"].decode(),
                "stderr": streams["stderr"].decode()}

    def setup(self, workload) -> float:
        """Write the input models, then one cold CLI start; seconds taken."""
        for name in workload.inputs:
            (self.workdir / name).unlink(missing_ok=True)
        start = time.perf_counter()
        for name, doc in workload.inputs.items():
            with open(self.workdir / name, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
        rc = self.spawn([sys.executable, "-m", "rotinv", "--version"])["rc"]
        if rc != 0:
            raise RuntimeError(f"rotinv --version exited {rc}")
        return time.perf_counter() - start

    def command(self, op: Command, traced: bool) -> dict:
        """Run one command, check its output; a dict of what it cost and gave."""
        cmd = [sys.executable, "-m", "rotinv", *op.argv]
        spans_path = self.workdir / "spans.json"
        capture_path = self.workdir / "capture.npz"
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path),
                   str(capture_path) if op.capture else "-", "--", *op.argv]
        child = self.spawn(cmd)
        res = {"stage": op.stage, "wall": child["wall"], "rss": child["rss"],
               "problems": []}
        stdout = child["stdout"]
        written = [self.workdir / name for name in op.writes]
        res["digests"] = [hashlib.sha256(stdout.encode()).hexdigest()]
        if child["rc"] != 0:
            err = child["stderr"].strip().splitlines()
            res["problems"].append(f"{op.argv[0]} exited {child['rc']}: "
                                   f"{err[-1] if err else ''}")
            return res
        res["bytes"] = sum(p.stat().st_size for p in written)
        res["digests"] += [digest(p) for p in written]
        capture = None
        if traced:
            with open(spans_path) as fh:
                trace = json.load(fh)
            res["startup"] = trace["imports_done"] - child["spawned"]
            res["spans"] = span_totals(trace["spans"])
            res["counters"] = trace["counters"]
            if op.capture:
                with np.load(capture_path) as data:
                    capture = {key: data[key] for key in data.files}
        res["problems"] = [f"{op.argv[0]}: {p}" for p in
                           op.check(Outcome(self.workdir, stdout, capture))]
        return res


def run_round(client: Client, ops: list, traced: bool) -> dict:
    """One pass over a workload's operations.

    Files the commands write are removed first, outside the timed region, so
    every round writes them afresh as the first one does.
    """
    for op in ops:
        for name in getattr(op, "writes", ()):
            (client.workdir / name).unlink(missing_ok=True)
    commands, attempted, failed, problems = [], 0, 0, []
    for op in ops:
        attempted += 1
        if isinstance(op, Command):
            res = client.command(op, traced)
            commands.append(res)
            op_failed, op_problems = bool(res["problems"]), res["problems"]
        else:
            op_failed, op_problems = op.run(client.workdir)
        failed += op_failed
        problems += op_problems
    stages = {s: sum(c["wall"] for c in commands if c["stage"] == s)
              for s in STAGES if any(c["stage"] == s for c in commands)}
    return {"commands": commands, "attempted": attempted, "failed": failed,
            "problems": problems, "stages": stages,
            "pipeline": sum(c["wall"] for c in commands)}


def end_to_end(rounds: list, setups: list) -> dict:
    cmds = [c for r in rounds for c in r["commands"]]
    return {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(r["pipeline"] for r in rounds),
        "verify_s": statistics.median(r["stages"]["verify"] for r in rounds),
        "peak_rss_mb": max(c["rss"] for c in cmds),
        "artifact_bytes": statistics.median(
            sum(c.get("bytes", 0) for c in r["commands"]) for r in rounds),
    }


def per_layer(plain: list, traced: list) -> dict:
    """Medians over traced rounds of each round's sums, plus trace overhead."""
    def median_of(fn, rounds):
        return statistics.median(fn(r) for r in rounds)

    def round_sum(r, name, index):
        return sum(c.get("spans", {}).get(name, (0, 0.0, 0.0))[index]
                   for c in r["commands"])

    # a command that failed left no trace; its round still counts, with zeros
    out = {"cli.startup_s": statistics.median(
        [c["startup"] for r in traced for c in r["commands"] if "startup" in c] or [0.0])}
    out["cli.pipeline_s"] = median_of(lambda r: r["pipeline"], plain)
    out["cli.trace_overhead_s"] = median_of(lambda r: r["pipeline"], traced) - \
        out["cli.pipeline_s"]
    for stage in STAGES:
        untraced = median_of(lambda r: r["stages"].get(stage, 0.0), plain)
        out[f"cli.{stage}_s"] = untraced
        out[f"cli.{stage}_trace_overhead_s"] = \
            median_of(lambda r: r["stages"].get(stage, 0.0), traced) - untraced
    for name in SPAN_NAMES:
        for index, suffix in enumerate(("calls", "s", "self_s")):
            out[f"{name}.{suffix}"] = median_of(
                lambda r: round_sum(r, name, index), traced)
    for name in COUNTERS:
        out[name] = median_of(
            lambda r: sum(c.get("counters", {}).get(name, 0) for c in r["commands"]),
            traced)
    return out


def listed_metrics(trace: bool) -> list | None:
    """The metric names BENCHMARK.json lists for this mode, if it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rotinv" / "cli.py").is_file():
        print(f"error: no rotinv sources under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    workdir = BENCH_DIR / ".work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    client = Client(workdir, started + RUN_LIMIT_S)
    setups = [client.setup(workload) for _ in range(SETUP_REPEATS)]

    ops = workload.operations(args.seed)
    plain, traced, problems = [], [], []
    measure_start = time.perf_counter()
    while True:
        plain.append(run_round(client, ops, traced=False))
        problems += plain[-1]["problems"]
        if args.trace:
            traced.append(run_round(client, ops, traced=True))
            problems += traced[-1]["problems"]
            for a, b in zip(plain[-1]["commands"], traced[-1]["commands"]):
                if a["digests"] != b["digests"]:
                    problems.append("traced outputs differ from untraced ones")
        if problems or time.perf_counter() - measure_start >= args.seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    if args.trace:
        metrics = per_layer(plain, traced)
        units = per_layer_units()
    else:
        metrics = end_to_end(plain, setups)
        units = END_TO_END_UNITS
    listed = listed_metrics(bool(args.trace))
    if listed is not None and sorted(listed) != sorted(metrics):
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    stage_text = ", ".join(
        f"{s}_s {statistics.median(r['stages'][s] for r in plain):.3f}"
        for s in STAGES if s in plain[0]["stages"])
    print(f"{args.workload}: {len(plain)} rounds (median {stage_text}), "
          f"setup x{len(setups)}, {time.perf_counter() - started:.1f} s in all")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
