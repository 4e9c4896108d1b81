#!/usr/bin/env python3
"""Build the DeepMC benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload analyze-gen --seed 1 --seconds 5 --trace 0

Run it from the root of a checkout. It configures and builds
perfbench/CMakeLists.txt (the repository's libraries plus the benchmark)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, then runs the benchmark binary. The binary prints a host stamp and,
as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to stderr. Scratch files
(serve sockets and caches, the traced run's Chrome trace) stay under the
build directory.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analyze-gen", "execute-corpus", "serve-edit", "kv-dynamic")


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if pathlib.Path(top).resolve() != ROOT:
            return "unknown"
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(bdir):
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                    "perfbench", "perfbench_selftest"],
                   stdout=sys.stderr, check=True)
    return bdir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no DeepMC sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = build_dir()
    try:
        binary = build(base / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    work = base / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work), "--sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out", str(base / f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
