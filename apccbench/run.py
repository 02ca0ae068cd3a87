#!/usr/bin/env python3
"""Build and run the APCC benchmark.

    python3 apccbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 apccbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds
the benchmark (apccbench/CMakeLists.txt, which compiles the library from
../src) into the build directory: $CARGO_TARGET_DIR if set, else
.bench_build. Later runs rebuild only what changed. Build output goes to
stderr; the benchmark's own output, whose last line is the JSON result,
goes to stdout. A traced run also writes its spans to
<build dir>/traces/<workload>-seed<n>.json.
"""
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build(build_dir: Path) -> Path:
    jobs = str(max(1, min(4, (os.cpu_count() or 1))))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--parallel", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("apccbench: build failed: " + " ".join(step))
    return build_dir / "apccbench"


def trace_path(argv, build_dir: Path):
    """The span file for a traced run, or None."""
    opts = dict(zip(argv[::2], argv[1::2]))
    if opts.get("--trace") != "1":
        return None
    out = build_dir / "traces"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{opts.get('--workload', 'run')}-seed{opts.get('--seed', '0')}.json"
    return out / name


def main(argv) -> int:
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    command = [str(binary), *argv]
    trace = trace_path(argv, build_dir)
    if trace is not None:
        command += ["--trace-out", str(trace)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
