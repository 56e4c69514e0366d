#!/usr/bin/env python3
"""SMOQE serving benchmark: one command, three workloads, oracle-checked.

    python3 servebench/run.py --workload view_read --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the library and the benchmark (CMake,
into $CARGO_TARGET_DIR/servebench or .bench_build/servebench), runs the
helper self-tests, then the phases of servebench/src/main.cc:

  gen    seeded inputs (document text, view or policy text, queries,
         schedules, deltas, a prepared durable store)
  serve  the end-to-end run against exec::QueryService, tracing off
  trace  (--trace 1 only) the traced per-layer replay of the same inputs
  check  every answer against the materialize-then-evaluate oracle

The last line of stdout is the result: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. Everything else (spans, per-layer table,
raw phase outputs) is written under <build root>/out/<workload>-s<seed>/.
See servebench/README.md for the metrics, workloads and measured spreads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("view_read", "tenant_mix", "durable_mixed")


def run_budget_s(seconds):
    """Time every phase after the build must end within: set-up, warm-up,
    closed-loop rounds and the oracle check grow with the run length."""
    return 60 + 3 * seconds


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, log_path, timeout):
    """Runs cmd to completion (stdout+stderr to log_path); True on exit 0."""
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        try:
            return proc.wait(timeout=max(timeout, 1)) == 0
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return False


def tail(path, lines=20):
    try:
        with open(path) as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator, log, 300):
            message = "configure failed:\n" + tail(log)
            shutil.rmtree(build_dir, ignore_errors=True)
            fail(message)
    if not run(["cmake", "--build", build_dir, "-j", "4"], log, 840):
        fail("build failed:\n" + tail(log))


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def ratio(num, den):
    return num / den if den else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    # The metric names and units are BENCHMARK.json's, at the repo root.
    spec = load("BENCHMARK.json")
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    root = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "servebench")
    build_dir = os.path.join(root, "build")
    build(build_dir)
    binary = os.path.join(build_dir, "servebench")
    deadline = time.monotonic() + run_budget_s(args.seconds)

    tag = "%s-s%d" % (args.workload, args.seed)
    work = os.path.join(root, "runs", "%s-p%d" % (tag, os.getpid()))
    out = os.path.join(root, "out", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(out, exist_ok=True)

    selftest_ok = run([os.path.join(build_dir, "servebench_selftest"), work],
                      os.path.join(out, "selftest.log"), 60)
    phases = [["gen", args.workload, str(args.seed), str(args.seconds), work],
              ["serve", work]]
    if args.trace:
        phases.append(["trace", work])
    phases.append(["check", work])
    phase_s = []
    for phase in phases:
        log = os.path.join(out, phase[0] + ".log")
        t0 = time.monotonic()
        if not run([binary] + phase, log, deadline - time.monotonic()):
            shutil.rmtree(work, ignore_errors=True)
            fail("phase %s failed:\n%s" % (phase[0], tail(log)))
        phase_s.append("%s %.1f s" % (phase[0], time.monotonic() - t0))

    serve = load(os.path.join(work, "serve.json"))
    check = load(os.path.join(work, "check.json"))
    trace = load(os.path.join(work, "trace.json")) if args.trace else {}
    for name in ("serve.json", "check.json", "trace.json", "spans.jsonl",
                 "layers.md"):
        if os.path.exists(os.path.join(work, name)):
            shutil.copy(os.path.join(work, name), os.path.join(out, name))
    shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        tenant = args.workload == "tenant_mix"
        batches = serve["svc_batches"]
        trace.update({
            "exec.batch_size_mean": ratio(serve["svc_queries"], batches),
            "exec.batches_aged_frac": ratio(serve["svc_batches_aged"], batches),
            "exec.coalesced_frac": ratio(serve["svc_coalesced"],
                                         serve["svc_queries"]),
            "exec.evaluator_reuse_frac": ratio(
                serve["svc_evaluator_reuses"],
                serve["svc_role_groups"] if tenant else batches),
            "exec.role_groups_per_batch": ratio(serve["svc_role_groups"],
                                                batches),
            # Same reads on both sides: the replayed schedule prefix.
            "exec.dispatch_residual_ms":
                serve["read_p50_replayed_ms"] - trace["stage_sum_p50_ms"],
        })
        metrics = {n: {"value": trace[n], "unit": u} for n, u in per_layer}
        with open(os.path.join(out, "per_layer.json"), "w") as f:
            json.dump(metrics, f, indent=1)
        # layers.md: the traced self-time table, then every per-layer
        # metric (counts, ratios, times) grouped by layer.
        with open(os.path.join(out, "layers.md"), "a") as f:
            f.write("\n| layer | metric | value | unit |\n"
                    "| --- | --- | ---: | --- |\n")
            for name, unit in per_layer:
                f.write("| %s | %s | %.6g | %s |\n" %
                        (name.split(".")[0], name, metrics[name]["value"],
                         unit))
    else:
        metrics = {n: {"value": serve[n], "unit": u} for n, u in end_to_end}

    correct = (selftest_ok and check["failed"] == 0 and
               check["planted_flagged"] == 1 and
               check["invalid_versions"] == 0 and
               serve["read_p99_reportable"] == 1)
    print("servebench %s seed=%d seconds=%d trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("  cpu_ms_per_op %.4f  cpu_ms_per_read %.4f  (process CPU at the "
          "calibration's speed, median of %d blocks; as measured %.4f and "
          "%.4f; calibration %.2f ms)" %
          (serve["cpu_ms_per_op"], serve["cpu_ms_per_read"],
           len(serve["round_ms"].split()), serve["raw_cpu_ms_per_op"],
           serve["raw_cpu_ms_per_read"], serve["calibration_ms"]))
    print("  read_p50_ms %.3f  read_p99_ms %.3f  (n=%d open-loop reads, %d "
          "beyond p99)" % (serve["read_p50_ms"], serve["read_p99_ms"],
                           serve["read_samples"], serve["read_p99_beyond"]))
    print("  read_qps_max %.1f queries/s (n=%d closed-loop reads)" %
          (serve["read_qps_max"], serve["closed_reads"]))
    if serve["write_samples"]:
        print("  write_p50_ms %.3f  write_p99_ms %.3f  (n=%d writes, %d "
              "beyond p99)" % (serve["write_p50_ms"], serve["write_p99_ms"],
                               serve["write_samples"],
                               serve["write_p99_beyond"]))
    print("  setup_s %.4f (as measured %.4f)  rss_mb %.1f" %
          (serve["setup_s"], serve["raw_setup_s"], serve["rss_mb"]))
    print("  sender lateness p99 %.2f ms max %.2f ms; writer lateness p99 "
          "%.2f ms max %.2f ms; cpu steal %.2f%%" %
          (serve["sender_late_p99_ms"], serve["sender_late_max_ms"],
           serve["writer_late_p99_ms"], serve["writer_late_max_ms"],
           100 * serve["steal_frac"]))
    print("  check: %d of %d operations failed%s; planted wrong answer %s; "
          "selftest %s" %
          (check["failed"], check["attempted"],
           (": " + check["failures"]) if check["failures"] else "",
           "flagged" if check["planted_flagged"] else "NOT flagged",
           "passed" if selftest_ok else "FAILED"))
    print("  phases: " + ", ".join(phase_s) + "; outputs: " + out)
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(check["attempted"]),
                      "failed": int(check["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
