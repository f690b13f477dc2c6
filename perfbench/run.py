#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload do-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory, each run's scratch files to .bench_run/. The last line
of stdout is the run's result object; build output goes to stderr. A
traced run (--trace 1) leaves its span file at
.bench_run/spans-<workload>-seed<seed>.jsonl (format in perfbench/README.md).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("do-ladder", "serve-zipf", "batch-isolated")
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to the benchmark; run from a full checkout")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def commit_id():
    """The git commit, or outside a repository a hash of the measured sources
    (src/, examples/defender_serve.cpp, perfbench/) so that runs of the same
    code still say so."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    roots = [os.path.join(REPO_ROOT, "src"), BENCH_DIR,
             os.path.join(REPO_ROOT, "examples", "defender_serve.cpp")]
    for root in roots:
        files = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for path in files:
            digest.update(os.path.relpath(path, REPO_ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()


def run_group(cmd, timeout):
    """Runs `cmd` in its own process group; kills the whole group (the
    spawned server and worker processes too) when it ends or times out."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("driver timed out after %d s" % timeout, 3)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build_dir = build(["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode)
    if args.workload is None:
        fail("--workload is required")

    build_dir = build(["perfbench_driver", "defender_serve_bin"])
    run_root = ".bench_run"
    run_dir = os.path.join(run_root, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "defender_serve"),
           "--run-dir", run_dir, "--commit", commit_id()]
    code, out = run_group(cmd, DRIVER_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    spans = os.path.join(run_dir, "spans.jsonl")
    if code == 0 and args.trace and os.path.isfile(spans):
        os.replace(spans, os.path.join(
            run_root, "spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
    shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
