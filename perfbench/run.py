#!/usr/bin/env python3
"""Build and run the ftpim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls reuse the build. The benchmark binary runs
all three workloads in one process and prints, as its last stdout line, one
JSON object with the keys correct, attempted, failed and metrics.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_ft_eval", "serve_open_loop", "fleet_lifetime")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """Digest of the library sources, so two checkouts can be told apart."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    binary = os.path.join(build_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(os.path.join(out_root, "perfbench"))
    workdir = os.path.join(out_root, "runs", str(os.getpid()))
    trace_dir = os.path.join(out_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--cache-dir", os.path.join(out_root, "cache"),
           "--source-id", source_id()]
    env = dict(os.environ)
    env.pop("FTPIM_THREADS", None)  # each workload pins its own thread count
    env.pop("FTPIM_KERNEL", None)
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    if os.path.isdir(workdir):
        for name in os.listdir(workdir):
            if name.startswith("trace_"):
                stem = name[len("trace_"):-len(".jsonl")]
                shutil.move(os.path.join(workdir, name),
                            os.path.join(trace_dir, f"{stem}-{args.workload}-seed{args.seed}.jsonl"))
        shutil.rmtree(workdir, ignore_errors=True)
    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        fail(f"benchmark exited with code {result.returncode}")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
