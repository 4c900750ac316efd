#!/usr/bin/env python3
"""End-to-end benchmark of DQN-Docking: build, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload <dock_gateway|train_table1|screen_library>
                             --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from this tree's sources
with the root CMakeLists.txt) as a Release build under $CARGO_TARGET_DIR
(default .bench_build) and runs the requested workload in a fresh
process. Scratch files go into a mkdtemp directory under the repository
root that is removed on exit; a traced run leaves its span file in
.bench_traces/. The last line of standard output is the result object:
{"correct", "attempted", "failed", "metrics"}. A build that is not
Release with NDEBUG is refused, as scripts/bench_scoring.py refuses debug
builds.

Stdlib only.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("dock_gateway", "train_table1", "screen_library")
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(bdir: Path) -> Path:
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return bdir / "perfbench"


def check_stamp(line: str) -> None:
    if not line.startswith("stamp "):
        raise SystemExit("perfbench: binary printed no stamp line")
    stamp = json.loads(line[len("stamp "):])
    if stamp.get("build_type") != "Release" or not stamp.get("ndebug"):
        raise SystemExit(f"refusing to report: build type is {stamp.get('build_type')!r} "
                         f"(NDEBUG {stamp.get('ndebug')}); rebuild {build_dir()} as Release")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit(f"perfbench: build failed: {e}")
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(workdir), "--trace-dir", str(ROOT / ".bench_traces")],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"perfbench: {args.workload} exited with {proc.returncode}")
    check_stamp(lines[0])
    json.loads(lines[-1])  # the result must be one JSON object
    print(lines[0])
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
