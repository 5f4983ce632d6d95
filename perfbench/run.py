"""hoytsense benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; hoytsense is imported from its
``src`` directory, never from an installed copy.  ``--trace 0`` measures
the end-to-end metrics, ``--trace 1`` the per-layer ones from a separate
traced run.  The last line of stdout is the result as one JSON object; the
full record, with every failed or wrong row, the request latencies and the
environment, goes to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (after the path set-up)

SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170.0

# one thread per process: BLAS pools would make a single client use more
# than one core, and the figures depend on how many the machine has
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
                 OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

# the probe times the calibration kernel, then the import, in one fresh
# interpreter's CPU time, as the worker times requests; calibrate imports
# only math and time
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "import calibrate; k = [calibrate.kernel() for _ in range(7)]; "
                "t = time.thread_time(); import hoytsense.cli; "
                "print(time.thread_time() - t, calibrate.slowdown(k))")


def measure_setup() -> List[List[float]]:
    """[import seconds, slowdown] of hoytsense.cli in fresh interpreters.

    One unmeasured import first, so that writing bytecode caches into a
    fresh checkout is not counted.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, HERE],
                              env=CHILD_ENV, cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        if i:
            samples.append([float(x) for x in done.stdout.split()])
    return samples


def run_worker(args, spans_path: str) -> Dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans_path]
    done = subprocess.run(cmd, env=CHILD_ENV, cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    if os.path.realpath(result["package"]) != os.path.realpath(
            os.path.join(SRC, "hoytsense")):
        raise RuntimeError(f"worker imported hoytsense from {result['package']}")
    return result


def tail(latencies: List[float], two_rounds: int) -> Dict[str, float]:
    """The percentile with ten executions beyond it in a two-round run.

    `two_rounds` is the number of executions in the first two rounds (a
    request cut at the limit runs once).  Every run has at least two rounds,
    so the percentile 1 - 10/two_rounds has ten or more executions beyond
    it.  It is fixed per workload, not taken from this run's count, so that
    runs that fit different numbers of rounds report the same percentile.
    """
    ordered = sorted(latencies)
    beyond = 10 * len(ordered) // two_rounds
    return {"value": ordered[len(ordered) - beyond - 1],
            "percentile": 100.0 * (1.0 - 10.0 / two_rounds),
            "samples": len(ordered), "beyond": beyond}


def environment(seed: int) -> Dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed}


def judge_all(records: List[Dict], problems: List[str]):
    """Verdicts per request; the listing of every failed or wrong row.

    Output the checker cannot read is a problem of the run: it makes the
    result incorrect, and its rows count as failed.
    """
    import checker
    attempted = completed = failed = wrong = 0
    listing = []
    for i, rec in enumerate(records):
        rec["verdicts"] = 0
        try:
            verdicts = checker.judge(rec)
        except checker.MalformedOutput as exc:
            problems.append(f"request {i} {' '.join(rec['argv'])}: {exc}")
            verdicts = [{"verdict": "failed", "why": str(exc)}] * (rec["rows"] or 1)
        attempted += len(verdicts)
        if not (rec["timed_out"] or rec["raised"]):
            completed += len(verdicts)
            rec["verdicts"] = len(verdicts)
        for v in verdicts:
            if v["verdict"] == "ok":
                continue
            failed += v["verdict"] == "failed"
            wrong += v["verdict"] == "wrong"
            listing.append(dict(v, stratum=rec["stratum"], argv=rec["argv"]))
    return attempted, completed, failed, wrong, listing


def _two_rounds(records: List[Dict]) -> int:
    return sum(min(2, len(r["normalized_s"])) for r in records)


def end_to_end(result: Dict, setup: List[float], counts) -> Dict[str, Dict]:
    attempted, completed, failed, wrong, _ = counts
    records = result["records"]
    latencies = [x for r in records for x in r["normalized_s"]]
    # every repetition of a finished request; the limit of one that did not
    # finish is a choice of the benchmark, and failed_frac counts its rows
    busy = sum(sum(r["normalized_s"]) for r in records
               if not (r["timed_out"] or r["raised"]))
    rows = sum(r["verdicts"] * len(r["normalized_s"]) for r in records)
    return {
        "setup_s": {"value": statistics.median(t / s for t, s in setup),
                    "unit": "s"},
        "rows_per_s": {"value": rows / busy, "unit": "1/s"},
        "req_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
        "req_tail_ms": {"value": 1e3 * tail(latencies, _two_rounds(records))["value"],
                        "unit": "ms"},
        "failed_frac": {"value": failed / attempted, "unit": "fraction"},
        "wrong_frac": {"value": wrong / attempted, "unit": "fraction"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


# per-layer metrics: (span, [(suffix, summary key, unit)])
_CS = [("calls", "calls", "count"), ("self_s", "self_s", "s")]
LAYERS = [
    ("average.avg_auc_closed", _CS + [("terms", "payload", "count"),
                                      ("failed", "failed", "count")]),
    ("average.avg_auc_quadrature", _CS + [("evals", "payload", "count"),
                                          ("failed", "failed", "count")]),
    ("average.avg_pd_quadrature", _CS + [("evals", "payload", "count"),
                                         ("failed", "failed", "count")]),
    ("quadrature.integrate_half_line", _CS + [("evals", "payload", "count")]),
    ("detector.auc_awgn", _CS),
    ("detector.threshold_for_pf", _CS),
    ("detector.pf", _CS),
    ("hoyt.snr_pdf", _CS),
    ("specfun.marcum_q", _CS),
    ("specfun.reg_upper_gamma", _CS),
    ("specfun.bessel_i", _CS),
    ("montecarlo.estimate_auc", _CS + [("trials", "payload", "count")]),
    ("montecarlo.estimate_pd", _CS + [("trials", "payload", "count")]),
    ("hoyt.sample_snr", _CS),
]
BATCH_STAGES = ("gamma", "poisson", "normal", "sort", "rank")


def per_layer(result: Dict, traced_rows: int) -> Dict[str, Dict]:
    """Per-layer figures of the traced round, plus the tracing overhead.

    Times are divided by the round's slowdown, as the end-to-end ones are.
    """
    trace = result["trace"]
    layers = trace["layers"]
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "payload": 0.0, "failed": 0}
    span = lambda name: layers.get(name, zero)  # noqa: E731
    out = {"cli.main.self_s": {"value": span("cli.main")["self_s"], "unit": "s"},
           "cli.rows": {"value": traced_rows, "unit": "count"}}
    for name, fields in LAYERS:
        for suffix, key, unit in fields:
            out[f"{name}.{suffix}"] = {"value": span(name)[key], "unit": unit}
    quad = span("quadrature.integrate_half_line")
    # a converged call at last level L did 32 (2^(L+1) - 1) evaluations,
    # 32 * 2^L = evals/2 + 16 of them at the final level
    final = quad["payload"] / 2.0 + 16.0 * (quad["calls"] - quad["failed"])
    out["quadrature.useful_ratio"] = {
        "value": final / quad["payload"] if quad["payload"] else 0.0,
        "unit": "fraction"}
    est = [span("montecarlo.estimate_auc"), span("montecarlo.estimate_pd")]
    busy = sum(e["total_s"] for e in est)
    out["montecarlo.trials_per_s"] = {
        "value": sum(e["payload"] for e in est) / busy if busy else 0.0,
        "unit": "1/s"}
    for stage in BATCH_STAGES:
        out[f"montecarlo.batch.{stage}_s"] = {
            "value": span(f"montecarlo.batch.{stage}")["self_s"], "unit": "s"}
    checks = 0.0
    for suite in workloads.SUITES:
        s = span(f"validate.{suite}")
        out[f"validate.{suite}.s"] = {"value": s["total_s"], "unit": "s"}
        checks += s["payload"]
    out["validate.checks"] = {"value": checks, "unit": "count"}
    out["trace.overhead_frac"] = {
        "value": trace["traced_s"] / trace["untraced_s"] - 1.0, "unit": "fraction"}
    for metric in out.values():
        if metric["unit"] == "s":
            metric["value"] /= trace["slowdown"]
        elif metric["unit"] == "1/s":
            metric["value"] *= trace["slowdown"]
    return out


def trace_consistent(result: Dict) -> List[str]:
    """Problems with the traced run; empty when CSVs match and times add up."""
    trace = result["trace"]
    problems = [f"traced CSV differs for request {i}" for i in trace["mismatched"]]
    layers = trace["layers"].values()
    self_sum = sum(s["self_s"] for s in layers)
    root = trace["layers"].get("cli.main", {"total_s": 0.0})["total_s"]
    if abs(self_sum - root) > 1e-6 * max(root, 1.0):
        problems.append(f"self times sum to {self_sum} s, root spans to {root} s")
    if root > trace["traced_wall_s"] * (1.0 + 1e-9):
        problems.append("spans exceed the traced wall time")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "hoytsense", "cli.py")):
        print(f"perfbench: no hoytsense source under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # one spans file per workload: they run to tens of MB
    spans_path = os.path.join(OUT, f"spans-{args.workload}.jsonl")

    setup = [] if args.trace else measure_setup()
    started = time.perf_counter()
    result = run_worker(args, spans_path)
    worker_s = time.perf_counter() - started

    # outside the timed region: references need scipy
    problems = [f"request {i} printed different output when repeated"
                for i in result["unrepeatable"]]
    if result["threads"] > 1:
        # latencies are the worker thread's CPU time; others' would be missed
        problems.append(f"the worker ran {result['threads']} threads")
    counts = judge_all(result["records"], problems)
    attempted, completed, failed, wrong, listing = counts
    if args.trace:
        problems += trace_consistent(result)
        metrics = per_layer(result, completed)  # the traced round's rows
    else:
        metrics = end_to_end(result, setup, counts)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "limits_s": {"row": workloads.ROW_LIMIT_S, "suite": workloads.SUITE_LIMIT_S},
        "rounds": result["rounds"], "wall_s": result["wall_s"],
        "worker_s": worker_s, "setup_samples_s": setup,
        "requests": len(result["records"]),
        "tail": tail([x for r in result["records"] for x in r["normalized_s"]],
                     _two_rounds(result["records"])),
        "rows": {"attempted": attempted, "completed": completed,
                 "failed": failed, "wrong": wrong},
        "problems": problems, "metrics": metrics,
        "trace_summary": {k: v for k, v in result.get("trace", {}).items()
                          if k != "layers"},
        "not_ok_rows": listing,
        "latencies_s": [[r["stratum"], r["latencies_s"], r["normalized_s"],
                         r["kernels_s"], r["wall_s"]] for r in result["records"]],
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"environment": record["environment"],
                      "rounds": record["rounds"], "tail": record["tail"],
                      "rows": record["rows"], "problems": problems}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed + wrong, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
