#!/usr/bin/env python3
"""MicroTools tool benchmark: build the harness from source, run one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (or anywhere: paths resolve from this file).
The first run configures and builds the MicroTools libraries plus the
harness in Release mode under $CARGO_TARGET_DIR (default .bench_build);
later runs only re-check the build. Each run then

  1. computes the reference results for the seed's inputs once (cached
     per drawn input set and harness binary under the build directory),
  2. runs the workload for --seconds seconds in a fresh harness process,
     sampling the process's thread count, and
  3. prints a "record" line (host environment, load average before and
     after, per-pass figures, the memo-off reference time) and, as the
     last line, the result: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 the per_layer list, from traced passes run alongside untraced
ones (see README.md).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explore_sim_l1", "explore_sim_l3", "explore_native",
             "multicore_sim")
DEFAULT_SEED = 1
# Claims measured on other seeds are confirmed on this one before they are
# accepted; it is not used while tuning.
HELD_OUT_SEED = 20120910
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.realpath(os.path.join(ROOT, target))
    if not path.startswith(os.path.realpath(ROOT) + os.sep):
        path = os.path.join(ROOT, ".bench_build")
    return os.path.join(path, "perfbench")


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_harness", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_harness")


def loadavg():
    with open("/proc/loadavg") as f:
        return " ".join(f.read().split()[:3])


def threads_of(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reference(harness, state, workload, seed):
    """Path of the reference for the seed's inputs, computed on first use.

    References are cached per harness binary and per drawn input set, so a
    rebuilt harness never reuses a stale one.
    """
    with open(harness, "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:16]
    done = subprocess.run([harness, "reference", "--workload", workload,
                           "--seed", str(seed), "--data", HERE,
                           "--dir", os.path.join(state, "work", "ref"),
                           "--cache-dir", os.path.join(state, "ref", key)],
                          check=True, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("MicroTools sources not found: expected src/ next to perfbench/")
    # Compilers, and the native backend's kernel compiles, write their
    # temporaries under $TMPDIR: keep them inside the checkout too.
    state = os.path.join(build_root(), "state")
    os.makedirs(os.path.join(state, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(state, "tmp")
    harness = build(build_root())
    load_before = loadavg()
    ref_started = time.monotonic()
    ref = reference(harness, state, args.workload, args.seed)
    ref_seconds = time.monotonic() - ref_started

    out_dir = os.path.join(state, "out")
    os.makedirs(out_dir, exist_ok=True)
    # One file per workload, overwritten by each traced run: a native trace
    # is tens of MB.
    trace_out = os.path.join(out_dir, args.workload + ".trace.json")
    command = [harness, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--data", HERE, "--ref", ref,
               "--dir", os.path.join(state, "work", "run"),
               "--trace-out", trace_out]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    # Drain stdout on a thread so a long report can never fill the pipe
    # while the loop below samples the thread count.
    captured = []
    reader = threading.Thread(
        target=lambda: captured.append(proc.stdout.read()))
    reader.start()
    peak_threads = 0
    started = time.monotonic()
    while proc.poll() is None:
        peak_threads = max(peak_threads, threads_of(proc.pid))
        if time.monotonic() - started > RUN_TIMEOUT_S:
            proc.kill()
            proc.wait()
            reader.join()
            fail("harness run exceeded %d s" % RUN_TIMEOUT_S)
        time.sleep(0.02)
    reader.join()
    proc.stdout.close()
    output = captured[0].splitlines()
    if proc.returncode != 0 or not output:
        fail("harness run failed with exit code %d" % proc.returncode)
    for line in output[:-1]:
        print(line)
    result = json.loads(output[-1])

    nproc = os.cpu_count() or 1
    if peak_threads > nproc:
        fail("%s ran %d threads on a %d-CPU host" %
             (args.workload, peak_threads, nproc))

    record = result["record"]
    record.update({
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "nproc": nproc,
        "peak_threads": peak_threads,
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "reference_s": ref_seconds,
    })
    print(json.dumps({"record": record}, sort_keys=True))

    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            fail("harness did not report metric %s" % m["name"])
        metrics[m["name"]] = {"value": result["metrics"][m["name"]],
                              "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
