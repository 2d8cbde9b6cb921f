#!/usr/bin/env python3
"""pdfam benchmark: four seeded batch workloads, end-to-end and per-layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload expand-u1 --seed 1 --seconds 28 --trace 0

Each workload is a closed loop: one process and one thread run the jobs of
the seeded job list back to back, pass after pass, until ``--seconds`` have
gone by (at least one full pass).  Every job's output is checked by the
benchmark's own arithmetic (perfbench/check.py) the first time it runs and
must come back byte-identical every later time.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median over fresh interpreters of `import pdfam` plus
               `certify_catalog()`, the cost every CLI process pays;
  wall_s       time to complete the job list once: the sum over jobs of
               each job's median latency;
  job_p50_s    median over jobs of each job's median latency;
  peak_rss_mb  peak resident memory of the measuring process.
The three times are wall-clock seconds scaled to reference host speed
(perfbench/hostspeed.py): a fixed kernel is timed before and after every
job and every set-up sample, so that other tenants' load on a shared host,
which moves raw wall time by 30% from minute to minute, cancels out.  The
raw wall-clock figures are printed and recorded next to them.
``--trace 1`` runs half the time untraced and half traced (perfbench/tracing.py)
and reports the per-layer metrics of the traced passes: exact counts from
the first traced pass, times (raw wall-clock) as the median over traced
passes; trace.overhead_frac compares the two halves' wall_s.  Spans are
written to perfbench/out/trace-<workload>.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The known-defect
probe of hds-search (a Cayley table whose identity is not label 0) is
reported on its own line and as ``search.defect_probe_misses``; it is not
counted as a failed operation.
"""

import os

# one thread: pin numpy's BLAS/OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import at_reference, kernel_s  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7
# a fresh interpreter: host-speed kernel, import + catalog, kernel again
SETUP_CODE = f"""import sys, time
sys.path.insert(0, {str(HERE)!r})
from hostspeed import kernel_s
before = kernel_s()
start = time.perf_counter()
import pdfam
pdfam.certify_catalog()
took = time.perf_counter() - start
print(took, before, kernel_s())
"""


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg": list(os.getloadavg())}


def measure_setup() -> list[tuple[float, float]]:
    """(raw, reference-speed) set-up times of fresh interpreters; the first
    run only warms the file caches."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], check=True,
                             capture_output=True, text=True)
        took, before, after = map(float, out.stdout.split())
        samples.append((took, at_reference(took, before, after)))
    return samples[1:]


def selftest() -> bool:
    done = subprocess.run([sys.executable, str(HERE / "selftest.py")],
                          capture_output=True, text=True)
    if done.returncode:
        print(done.stdout + done.stderr, end="")
    return done.returncode == 0


class Runner:
    """Runs passes over a job list and keeps latencies, outputs and checks."""

    def __init__(self, workload):
        self.workload = workload
        self.first: dict[int, list[bytes]] = {}
        self.defect: dict[int, bool] = {}  # probe reproduced the known defect
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def _record(self, i: int, outs, error) -> None:
        job = self.workload.jobs[i]
        self.attempted += 1
        problems = []
        if error is not None:
            problems = [f"raised {error!r}"]
        elif i not in self.first:
            self.first[i] = outs
            problems, self.defect[i] = job.check(outs)
        elif outs != self.first[i]:
            problems = ["output differs from its first run"]
        if problems:
            self.failed += 1
            self.problems += [f"{job.name}: {p}" for p in problems]

    def run(self, seconds: float, tracer=None, on_pass=None):
        """Jobs back to back until `seconds` are up, at least one full pass.

        Returns each job's latencies, raw and scaled to reference speed.
        """
        jobs = self.workload.jobs
        raw: list[list[float]] = [[] for _ in jobs]
        ref: list[list[float]] = [[] for _ in jobs]
        clock = time.perf_counter
        deadline = clock() + seconds
        passes = i = 0
        speed = kernel_s()
        while True:
            if tracer is not None:
                tracer.job = f"{passes}.{i}"
            outs, error = None, None
            start = clock()
            try:
                outs = jobs[i].run()
            except Exception as exc:  # a failed operation, counted below
                error = exc
            took = clock() - start
            before, speed = speed, kernel_s()
            raw[i].append(took)
            ref[i].append(at_reference(took, before, speed))
            self._record(i, outs, error)
            i += 1
            if i == len(jobs):
                if passes == 0:
                    self.problems += self.workload.check_pass(
                        {jobs[k].name: o for k, o in self.first.items()})
                i, passes = 0, passes + 1
                if on_pass is not None:
                    on_pass()
            if passes and clock() >= deadline:
                return raw, ref

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in sorted(self.first):
            for out in self.first[i]:
                h.update(out)
        return h.hexdigest()


def summary(lats) -> dict:
    """wall_s and job_p50_s from per-job medians, at reference speed, with
    the raw wall-clock figures alongside."""
    raw, ref = ([statistics.median(x) for x in lat] for lat in lats)
    return {"wall_s": sum(ref), "job_p50_s": statistics.median(ref),
            "raw_wall_s": sum(raw), "raw_job_p50_s": statistics.median(raw),
            "passes": min(len(x) for x in lats[0]),
            "runs": sum(map(len, lats[0])), "job_latencies_s": lats}


def trace_run(runner, seconds, tracer):
    """Untraced then traced passes; per-layer figures of the traced ones."""
    untraced = summary(runner.run(seconds / 2))
    outputs = sum(job.outputs for job in runner.workload.jobs)
    per_pass, spans = [], []

    def on_pass():
        per_pass.append(layer_metrics(tracer.spans, tracer.counts, outputs))
        spans.extend(tracer.spans)
        tracer.reset()

    tracer.install()
    try:
        traced = summary(runner.run(seconds / 2, tracer, on_pass))
    finally:
        tracer.uninstall()
    spans.extend(tracer.spans)  # the unfinished last pass
    first = per_pass[0]
    metrics = {}
    for key, value in first.items():
        if isinstance(value, int):
            metrics[key] = value
            if any(p[key] != value for p in per_pass):
                runner.problems.append(f"count {key} differs between passes")
        else:
            metrics[key] = statistics.median(p[key] for p in per_pass)
    metrics["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
    return metrics, spans, traced


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_per_output")):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "pdfam" / "__init__.py").is_file():
        print(f"error: no pdfam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ["PYTHONPATH"] = str(SRC)  # for the child processes
    import pdfam
    if Path(pdfam.__file__).resolve().parent != SRC / "pdfam":
        print(f"error: imported pdfam from {pdfam.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    setup = [] if args.trace else measure_setup()
    ok = selftest()
    workload = WORKLOADS[args.workload](args.seed, OUT / "work" / args.workload)
    runner = Runner(workload)
    tracer = Tracer()

    # warm-up: the catalog's lazy builds and one job, untimed
    if args.trace:
        tracer.install()
        tracer.job = "setup"
    try:
        pdfam.catalog.certify_catalog()
    finally:
        tracer.uninstall()
    catalog_s = sum(s[3] - s[2] for s in tracer.spans
                    if s[1] == "catalog.certify_catalog")
    tracer.reset()
    workload.jobs[0].run()

    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics, spans, stats = trace_run(runner, args.seconds, tracer)
        metrics["catalog.certify_catalog_s"] = catalog_s
        (OUT / f"trace-{args.workload}.json").write_text(json.dumps({
            "fields": ["id", "name", "start", "end", "parent", "job"],
            "jobs": [job.name for job in workload.jobs],
            "spans": spans}))
    else:
        stats = summary(runner.run(args.seconds))
        metrics = {"setup_s": statistics.median(r for _, r in setup),
                   "wall_s": stats["wall_s"], "job_p50_s": stats["job_p50_s"],
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024}

    probes = sum(job.probe for job in workload.jobs)
    misses = sum(runner.defect.values())
    if args.trace:
        metrics["search.defect_probe_misses"] = misses
    samples = {"setup_s": len(setup), "wall_s": stats["passes"],
               "job_p50_s": len(workload.jobs)}
    correct = ok and not runner.problems
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "inputs": workload.inputs, "digest": runner.digest(),
        "passes": stats["passes"], "job_runs": stats["runs"],
        "raw": {"setup_s": statistics.median(t for t, _ in setup) if setup else None,
                "wall_s": stats["raw_wall_s"],
                "job_p50_s": stats["raw_job_p50_s"]},
        "job_latencies_s": {job.name: {"raw": r, "reference": f} for job, r, f
                            in zip(workload.jobs, *stats["job_latencies_s"])},
        "attempted": runner.attempted, "failed": runner.failed,
        "known_defect": {"probe_jobs": probes, "reproduced": misses},
        "selftest": ok, "problems": runner.problems, "metrics": metrics,
    }
    (OUT / f"run-{args.workload}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n")

    print(f"env: {json.dumps(env)}")
    print(f"inputs: {json.dumps(workload.inputs, default=str)}")
    print(f"digest: {record['digest']}")
    for name, value in metrics.items():
        n = samples.get(name, "")
        print(f"  {name:44s} {value:>16.6g} {unit_of(name):6s}"
              f"{f'  n={n}' if n != '' else ''}")
    raw = "  ".join(f"{k} {v:.6g}" for k, v in record["raw"].items()
                    if v is not None)
    print(f"  raw wall-clock seconds: {raw}")
    print(f"  {'failed_frac':44s} {runner.failed / runner.attempted:>16.6g} "
          f"ratio   {runner.failed} of {runner.attempted} operations")
    if probes:
        print(f"  known defect: {misses} of {probes} probe jobs (a table "
              f"whose identity is not label 0) found no difference sets; "
              f"search_hds assumes the identity is label 0")
    for p in runner.problems[:20]:
        print(f"  problem: {p}")
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
