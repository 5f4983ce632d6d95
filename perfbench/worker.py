"""Run one workload's requests through ``hoytsense.cli.main`` in-process.

One client, closed loop: each request starts when the previous one has
returned.  The seed's request list runs as a whole, again and again, until
the next round would overrun ``--seconds`` (at least two rounds).  Every
repetition must print the same bytes as the first.  A request that hits
its time limit or raises is not repeated.  The limit is on CPU time, as
the latencies are, so a busy machine does not push more requests past it;
it is enforced with SIGVTALRM in this thread: no extra thread or process
is started.

A latency is the CPU time of this process's one thread: the request does
no I/O and runs single-threaded (BLAS is held to one thread, and a run
with more threads is not ``correct``), so on an idle machine it equals the
wall time, while on a busy one it leaves out the time the thread waited to
be scheduled.  The wall times are kept too.  Latencies are normalized for
machine speed (see ``calibrate.py``).  The worker times the calibration
kernels before every request, and every 0.25 s of CPU time inside one
(from a SIGPROF handler, whose time is taken off the latency).  It divides
each latency by the slowdown that the samples of the kernel for its kind
of work, its own and its neighbours', give.  The raw latencies are kept
too.

With ``--trace 1`` the rounds get half the time, then the request list
runs once more with the tracer installed.  Its CSV must match byte for
byte, and its time over the untraced one gives the tracing overhead.

Prints one JSON document on stdout.  ``run.py`` checks and reduces it;
this process imports no scipy, so its peak RSS is the CLI's own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional

import calibrate
import workloads
from tracer import Tracer


class RequestTimeout(BaseException):
    """Raised by SIGVTALRM; a BaseException so no handler in the CLI eats it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


# CPU seconds between calibration samples taken inside a request
SAMPLE_EVERY_S = 0.25


class _Sampler:
    """SIGPROF handler: times the calibration kernels inside a long request.

    The machine's speed can change during a request of several seconds, so
    the samples before and after it are not enough.  Time spent here is
    taken off the request's latency.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0       # CPU seconds
        self.spent_wall = 0.0

    def __call__(self, signum, frame) -> None:
        start, wall = time.thread_time(), time.perf_counter()
        self.samples.append(calibrate.sample())
        self.spent += time.thread_time() - start
        self.spent_wall += time.perf_counter() - wall


def _threads() -> int:
    """Threads in this process; a request's latency is one thread's CPU time."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def run_request(main, argv, limit_s: float, tracer: Optional[Tracer] = None) -> Dict:
    """One request: latency, exit code, captured output, kernel samples.

    Untraced requests are sampled; a traced one is not, so that its spans
    hold only hoytsense's own time.
    """
    out, err = io.StringIO(), io.StringIO()
    outcome = {"rc": None, "timed_out": False, "raised": None}
    call = main if tracer is None else tracer.wrap(main, "cli.main")
    sampler = _Sampler()
    signal.signal(signal.SIGPROF, sampler)
    signal.setitimer(signal.ITIMER_VIRTUAL, limit_s)
    if tracer is None:
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start, wall = time.thread_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome["rc"] = call(list(argv))
    except RequestTimeout:
        outcome["timed_out"] = True
    except Exception as exc:  # the CLI let an error escape: its rows fail
        outcome["raised"] = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
        signal.setitimer(signal.ITIMER_PROF, 0.0)
    outcome["latency_s"] = time.thread_time() - start - sampler.spent
    outcome["wall_s"] = time.perf_counter() - wall - sampler.spent_wall
    outcome["threads"] = _threads()
    outcome["samples_s"] = sampler.samples
    outcome["stdout"] = out.getvalue()
    outcome["stderr"] = err.getvalue()[:500]
    return outcome


# kernel samples taken before the requests on either side of a request
# that join its own in the median: one sample hit by an interrupt or a
# page fault then cannot move a request's slowdown
NEIGHBOURS = 2


def _normalize(run: List[tuple], requests: List[workloads.Request]) -> List[float]:
    """Latencies of one round over the slowdown around each request.

    run holds (request, latency, kernel sample before it, samples during
    it); the slowdown is the median of the samples during the request and
    of those before it and its neighbours in the round, of the kernel for
    the request's kind of work (see ``calibrate.py``).
    """
    before = [k for _, _, k, _ in run]
    out = []
    for j, (i, latency, _, during) in enumerate(run):
        mc = requests[i].monte_carlo
        window = before[max(0, j - NEIGHBOURS):j + NEIGHBOURS + 1] + during
        out.append(latency / calibrate.slowdown(
            [pair[mc] for pair in window],
            calibrate.REF_RNG_S if mc else calibrate.REF_S))
    return out


def rounds(main, requests: List[workloads.Request], seconds: float) -> Dict:
    """Repeat the request list while the next round fits in `seconds`."""
    start = time.perf_counter()
    records: List[Dict] = []
    runs: List[List[tuple]] = []   # per round: _normalize's tuples
    mismatched = set()
    todo = range(len(requests))
    last = 0.0
    threads = 1
    # at least two rounds, so every request's output is seen to repeat
    while len(runs) < 2 or (time.perf_counter() - start) + last <= seconds:
        t0 = time.perf_counter()
        runs.append([])
        for i in todo:
            kernel = calibrate.sample()
            req = requests[i]
            rec = run_request(main, req.argv, req.limit_s)
            runs[-1].append((i, rec["latency_s"], kernel, rec["samples_s"]))
            wall = rec["wall_s"]
            threads = max(threads, rec["threads"])
            if len(runs) == 1:
                # kept per round below
                del rec["latency_s"], rec["samples_s"], rec["wall_s"]
                rec.update(argv=list(req.argv), rows=req.rows,
                           stratum=req.stratum, latencies_s=[], kernels_s=[],
                           normalized_s=[], wall_s=[])
                records.append(rec)
            elif (rec["stdout"], rec["rc"]) != (records[i]["stdout"], records[i]["rc"]):
                mismatched.add(i)
            records[i]["wall_s"].append(wall)
        todo = [i for i in todo
                if not (records[i]["timed_out"] or records[i]["raised"])]
        last = time.perf_counter() - t0
    for run in runs:
        for (i, latency, kernel, _), normalized in zip(run, _normalize(run, requests)):
            records[i]["latencies_s"].append(latency)
            records[i]["kernels_s"].append(kernel)
            # a request cut at the limit waited the limit, whatever the speed
            cut = records[i]["timed_out"]
            records[i]["normalized_s"].append(
                requests[i].limit_s if cut else normalized)
    return {"records": records, "rounds": len(runs),
            "wall_s": time.perf_counter() - start,
            "unrepeatable": sorted(mismatched), "threads": threads}


def traced_round(main, requests, records) -> Dict:
    """The request list once more, traced; requests that failed are skipped."""
    tracer = Tracer()
    tracer.install()
    run, mismatched, walls = [], [], []
    try:
        for i, req in enumerate(requests):
            if records[i]["timed_out"] or records[i]["raised"]:
                continue
            tracer.request_id = i
            kernel = calibrate.sample()
            # a limit the tracing overhead cannot reach
            rec = run_request(main, req.argv, 20.0 * req.limit_s, tracer)
            run.append((i, rec["latency_s"], kernel, []))
            walls.append(rec["wall_s"])
            if (rec["stdout"], rec["rc"]) != (records[i]["stdout"], records[i]["rc"]):
                mismatched.append(i)
    finally:
        tracer.uninstall()
    # both sides normalized, so a change of machine speed between the
    # untraced rounds and this one does not pass for tracing overhead
    return {"untraced_s": sum(statistics.median(records[i]["normalized_s"])
                              for i, _, _, _ in run),
            "traced_s": sum(_normalize(run, requests)),
            "traced_wall_s": sum(walls),
            "slowdown": calibrate.slowdown([k[0] for _, _, k, _ in run]),
            "spans": len(tracer.name),
            "layers": tracer.summary(), "mismatched": mismatched,
            "tracer": tracer}


def warm_up(main) -> None:
    # first calls pay for lazy imports and caches that a long-lived
    # process pays once; start-up itself is measured as setup_s
    for argv in (["point", "--metric", "auc", "--u", "2", "--q", "0.5",
                  "--snr-db", "3"],
                 ["sweep", "--metric", "pd", "--u", "2.5", "--q", "0.5",
                  "--snr-db", "3", "--lambda", "6"],
                 ["sweep", "--metric", "auc", "--method", "mc", "--u", "2",
                  "--q", "0.5", "--snr-db", "3", "--trials", "1000"]):
        run_request(main, argv, workloads.ROW_LIMIT_S)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None,
                    help="file for the traced round's spans (JSON lines)")
    args = ap.parse_args()

    import hoytsense
    from hoytsense import cli
    signal.signal(signal.SIGVTALRM, _on_alarm)
    warm_up(cli.main)

    requests = workloads.requests(args.workload, args.seed)
    result = rounds(cli.main, requests,
                    args.seconds / 2.0 if args.trace else args.seconds)
    result["package"] = os.path.dirname(hoytsense.__file__)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        trace = traced_round(cli.main, requests, result["records"])
        tracer = trace.pop("tracer")
        if args.spans:
            tracer.write(args.spans)
        result["trace"] = trace
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
