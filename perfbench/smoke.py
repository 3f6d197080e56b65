#!/usr/bin/env python3
"""Tiny-scale smoke run of every survey-benchmark workload.

    python3 perfbench/smoke.py [--seed N]

Run from the root of a checkout. For each workload, runs perfbench/run.py at
--scale tiny untraced and traced, and asserts that
  * every metric BENCHMARK.json names (end_to_end untraced, per_layer traced)
    is emitted with its unit, and nothing else;
  * every correctness check passed (correct, failed == 0);
  * the traced run confirms the bypasses (no IPC on fb_clean, no sweep time
    on drapid_spe) and that the layers each workload is for did work;
  * per-layer self times cover at least 90% of the traced job on the batch
    workloads.
Exits non-zero on the first failure.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BYPASSED_ZERO = {
    "fb_clean": ["dataflow.ipc_mb"],
    "drapid_spe": ["dedisp.sweep.s"],
    "serve_mixed": [],
}
EXERCISED = {
    "fb_clean": ["dedisp.sweep.s", "clustering.dbscan.s", "ml.predict.s"],
    "drapid_spe": ["dataflow.ipc_mb", "dataflow.search.s", "ml.train.s"],
    "serve_mixed": ["dedisp.sweep.s", "serve.query.s"],
}
BATCH = ("fb_clean", "drapid_spe")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d" %
                             (workload, trace, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expect = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            result, report = run(workload, args.seed, trace)
            tag = "%s trace=%d" % (workload, trace)
            metrics = result["metrics"]
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, tag + ": result keys"
            assert result["correct"] is True and result["failed"] == 0, (
                tag + ": checks failed: " +
                "; ".join(l for l in report if l.startswith("check failed")))
            assert result["attempted"] >= 1, tag + ": nothing attempted"
            assert set(metrics) == set(expect[trace]), (
                tag + ": metric names differ: missing %s, extra %s" %
                (sorted(set(expect[trace]) - set(metrics)),
                 sorted(set(metrics) - set(expect[trace]))))
            for name, unit in expect[trace].items():
                assert metrics[name]["unit"] == unit, (
                    "%s: %s unit %s, expected %s" %
                    (tag, name, metrics[name]["unit"], unit))
            if trace == 0:
                for name, m in metrics.items():
                    assert m["value"] > 0, "%s: %s is not positive" % (tag, name)
            else:
                for name in BYPASSED_ZERO[workload]:
                    assert metrics[name]["value"] == 0, (
                        "%s: bypassed %s = %s" %
                        (tag, name, metrics[name]["value"]))
                for name in EXERCISED[workload]:
                    assert metrics[name]["value"] > 0, (
                        "%s: %s did no work" % (tag, name))
                if workload in BATCH:
                    cov = metrics["trace.coverage"]["value"]
                    assert cov >= 0.9, "%s: coverage %.3f" % (tag, cov)
            print("ok %s" % tag)
    print("smoke: all workloads passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
