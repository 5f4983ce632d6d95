"""Tests of the benchmark's own code (needs hoytsense on PYTHONPATH).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math
import signal

import pytest

import checker
import workloads
import worker
from hoytsense import cli
from tracer import Tracer


def _argv(workload, seed):
    return [r.argv for r in workloads.requests(workload, seed)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv(workload):
    assert _argv(workload, 7) == _argv(workload, 7)
    assert _argv(workload, 7) != _argv(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_draws_values_not_the_mix(workload):
    strata = [[(r.stratum, r.argv[0], r.rows) for r in
               workloads.requests(workload, seed)] for seed in (1, 2, 3)]
    assert strata[0] == strata[1] == strata[2]


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGVTALRM, worker._on_alarm)
    old_prof = signal.getsignal(signal.SIGPROF)
    yield
    signal.signal(signal.SIGVTALRM, old)
    signal.signal(signal.SIGPROF, old_prof)


def _record(argv, rows, alarm_limit=workloads.ROW_LIMIT_S, tracer=None):
    rec = worker.run_request(cli.main, argv, alarm_limit, tracer)
    rec.update(argv=list(argv), rows=rows, stratum="test")
    return rec


def _perturb(rec, index, verdict, tolerances):
    # move the value away from the reference by this many tolerances
    head, *lines = rec["stdout"].splitlines()
    fields = lines[index].split(",")
    value = float(fields[5])
    fields[5] = repr(value + math.copysign(tolerances * verdict["tolerance"],
                                           value - verdict["reference"]))
    lines[index] = ",".join(fields)
    return dict(rec, stdout="\n".join([head] + lines) + "\n")


def test_perturbed_values_are_flagged_wrong(alarm):
    argv = ("sweep", "--metric", "cauc", "--u", "5", "--q", "0.5,1",
            "--snr-db", "0:10:5")
    rec = _record(argv, 6)
    assert [v["verdict"] for v in checker.judge(rec)] == ["ok"] * 6
    nudged = checker.judge(_perturb(rec, 4, checker.judge(rec)[4], 1.01))
    assert [v["verdict"] for v in nudged] == ["ok"] * 4 + ["wrong", "ok"]

    mc = ("sweep", "--metric", "pd", "--method", "mc", "--trials", "20000",
          "--u", "2.5", "--q", "0.3", "--snr-db", "5", "--lambda", "8")
    rec = _record(mc, 1)
    (v,) = checker.judge(rec)
    assert v["verdict"] == "ok"
    (v,) = checker.judge(_perturb(rec, 0, v, 1.01))
    assert v["verdict"] == "wrong"


def test_failures_and_validate_lines_are_counted(alarm):
    # finite sum overflows at u=150, 30 dB: an exit-3 nan row
    rec = _record(("point", "--metric", "cauc", "--u", "150", "--q", "0.5",
                   "--snr-db", "30"), 1)
    assert rec["rc"] == 3
    assert [v["verdict"] for v in checker.judge(rec)] == ["failed"]
    rec = _record(("validate", "--suite", "specfun"), None,
                  workloads.SUITE_LIMIT_S)
    verdicts = checker.judge(rec)
    assert verdicts and all(v["verdict"] == "ok" for v in verdicts)
    failing = dict(rec, stdout=rec["stdout"].replace("PASS", "FAIL", 1), rc=1)
    assert [v["verdict"] for v in checker.judge(failing)].count("wrong") == 1


def test_time_limit_fails_all_rows(alarm):
    # the q=1e-6 quadrature stalls; a short limit cuts it in-process
    argv = ("sweep", "--metric", "auc", "--method", "quadrature", "--u", "5",
            "--q", "1e-6,0.5", "--snr-db", "10")
    rec = _record(argv, 2, alarm_limit=0.2)
    assert rec["timed_out"] and rec["latency_s"] < 2.0
    assert [v["verdict"] for v in checker.judge(rec)] == ["failed", "failed"]


def test_traced_csv_is_byte_identical(alarm):
    requests = [("sweep", "--metric", "auc", "--method", "mc", "--trials",
                 "70000", "--u", "2.5", "--q", "0.3", "--snr-db", "0:5:5",
                 "--seed", "11"),
                ("sweep", "--metric", "pf", "--method", "mc", "--trials",
                 "30000", "--u", "3", "--q", "1", "--snr-db", "0",
                 "--lambda", "7"),
                ("sweep", "--metric", "cauc", "--method", "quadrature",
                 "--u", "2.5", "--q", "0.4", "--snr-db", "10"),
                ("roc", "--u", "4", "--q", "0.5", "--snr-db", "5",
                 "--points", "3"),
                ("point", "--metric", "auc", "--u", "3", "--q", "0.2",
                 "--snr-db", "12")]
    plain = [worker.run_request(cli.main, a, 30.0) for a in requests]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [worker.run_request(cli.main, a, 30.0, tracer) for a in requests]
    finally:
        tracer.uninstall()
    for p, t in zip(plain, traced):
        assert p["rc"] == t["rc"] == 0
        assert p["stdout"] == t["stdout"]

    layers = tracer.summary()
    for name in ("cli.main", "montecarlo.estimate_auc", "montecarlo.estimate_pd",
                 "montecarlo.batch.gamma", "montecarlo.batch.rank",
                 "hoyt.sample_snr", "average.avg_auc_quadrature",
                 "average.avg_auc_closed", "detector.threshold_for_pf",
                 "specfun.marcum_q", "hoyt.snr_pdf"):
        assert layers[name]["calls"] > 0, name
    # self times add up to the root spans, and none is negative
    assert math.isclose(sum(s["self_s"] for s in layers.values()),
                        layers["cli.main"]["total_s"], rel_tol=1e-9)
    assert min(tracer.self_times()) >= 0
    assert layers["montecarlo.estimate_auc"]["payload"] == 70000 * 2
    # uninstall restored the originals
    import numpy
    from hoytsense import average, montecarlo, validate
    assert not hasattr(average.avg_auc_closed, "__wrapped__")
    assert montecarlo.np is numpy
    assert not hasattr(validate.SUITES["mc"], "__wrapped__")


def test_benchmark_json_names_what_run_reports():
    import json
    import os

    import run
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    fake = {"trace": {"layers": {}, "traced_s": 1.0, "untraced_s": 1.0,
                      "slowdown": 1.0}}
    layers = run.per_layer(fake, 0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(name, m["unit"]) for name, m in layers.items()]
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "rows_per_s", "req_p50_ms", "req_tail_ms", "failed_frac",
        "wrong_frac", "peak_rss_mb"}


def test_tail_leaves_ten_requests_beyond():
    import run
    # 100 executions in two rounds: the 90th percentile, ten beyond it
    t = run.tail([float(i) for i in range(100)], 100)
    assert (t["value"], t["percentile"], t["beyond"]) == (89.0, 90.0, 10)
    # more rounds keep the percentile and put more executions beyond it
    t = run.tail([float(i) for i in range(300)], 100)
    assert (t["value"], t["percentile"], t["beyond"]) == (269.0, 90.0, 30)
    # 113 executions in two rounds: one request hit the limit and ran once
    t = run.tail([float(i) for i in range(113)], 113)
    assert t["beyond"] == 10 and t["value"] == 102.0


def test_one_spiked_kernel_sample_does_not_move_a_slowdown():
    import calibrate
    # ten 5 ms requests at the reference speed; the kernels sampled before
    # request 4 were preempted and read 30 times too slow
    requests = [workloads.Request(("point",), 1, "test"),
                workloads.Request(("sweep", "--method", "mc"), 1, "test")] * 5
    samples = [(calibrate.REF_S, calibrate.REF_RNG_S)] * 10
    samples[4] = (30.0 * calibrate.REF_S, 30.0 * calibrate.REF_RNG_S)
    run = [(i, 5e-3, k, []) for i, k in enumerate(samples)]
    assert worker._normalize(run, requests) == [5e-3] * 10
    # each kind of request is divided by its own kernel's slowdown
    samples = [(2.0 * calibrate.REF_S, calibrate.REF_RNG_S)] * 10
    run = [(i, 5e-3, k, []) for i, k in enumerate(samples)]
    assert worker._normalize(run, requests) == [2.5e-3, 5e-3] * 5
