#!/usr/bin/env python3
"""Run the Q-network benchmarks and emit BENCH_nn.json.

Covers the paper architecture (Table 1: 16,599 -> 135 -> 135 -> 12,
minibatch 32) across thread counts: forward, forward+backward
("fwd_bwd"), and for the folded network the whole learn step
("learn_step": forward+backward, the RMSprop step, and the next
single-state predict with its refold); plus the scaled preset and
single-state inference. Refuses to publish
numbers measured from a debug harness build unless --allow-debug is
passed, and refuses output that does not stamp the GEMM kernel tier
(generic or avx512) the runs dispatched to.

Stdlib only. Usage:

    python3 scripts/bench_nn.py [--build-dir build] [--out BENCH_nn.json]
                                [--min-time 0.5] [--allow-debug]

Expects the bench harness at <build-dir>/bench/bench_nn (built with
-DDQNDOCK_BUILD_BENCH=ON, the default; use a Release build dir).
items_per_second is states per second (batch rows x iterations / time).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

# benchmark name -> (section, key). Thread-sweep benchmarks carry the
# google-benchmark /Arg and /real_time suffixes.
BENCH_MAP = {
    "BM_PaperNetForward/0/real_time": ("paper_forward", "threads_0"),
    "BM_PaperNetForward/2/real_time": ("paper_forward", "threads_2"),
    "BM_PaperNetForward/4/real_time": ("paper_forward", "threads_4"),
    "BM_PaperNetForward/8/real_time": ("paper_forward", "threads_8"),
    "BM_PaperNetFwdBwd/0/real_time": ("paper_fwd_bwd", "threads_0"),
    "BM_PaperNetFwdBwd/2/real_time": ("paper_fwd_bwd", "threads_2"),
    "BM_PaperNetFwdBwd/4/real_time": ("paper_fwd_bwd", "threads_4"),
    "BM_PaperNetFwdBwd/8/real_time": ("paper_fwd_bwd", "threads_8"),
    "BM_ScaledNetForward": ("scaled_net", "forward"),
    "BM_ScaledNetFwdBwd": ("scaled_net", "fwd_bwd"),
    "BM_PaperNetSingleInference": ("paper_single_inference", "states_per_second"),
    "BM_PaperNetForwardFolded/0/real_time": ("fold_forward", "threads_0"),
    "BM_PaperNetForwardFolded/2/real_time": ("fold_forward", "threads_2"),
    "BM_PaperNetForwardFolded/4/real_time": ("fold_forward", "threads_4"),
    "BM_PaperNetForwardFolded/8/real_time": ("fold_forward", "threads_8"),
    "BM_PaperNetFwdBwdFolded/0/real_time": ("fold_fwd_bwd", "threads_0"),
    "BM_PaperNetFwdBwdFolded/2/real_time": ("fold_fwd_bwd", "threads_2"),
    "BM_PaperNetFwdBwdFolded/4/real_time": ("fold_fwd_bwd", "threads_4"),
    "BM_PaperNetFwdBwdFolded/8/real_time": ("fold_fwd_bwd", "threads_8"),
    "BM_PaperNetLearnStepFolded/0/real_time": ("fold_learn_step", "threads_0"),
    "BM_PaperNetLearnStepFolded/2/real_time": ("fold_learn_step", "threads_2"),
    "BM_PaperNetLearnStepFolded/4/real_time": ("fold_learn_step", "threads_4"),
    "BM_PaperNetLearnStepFolded/8/real_time": ("fold_learn_step", "threads_8"),
    "BM_PaperNetSingleInferenceFolded": ("fold_single_inference", "states_per_second"),
}

# Threaded GEMMs must never run slower than serial (the per-worker
# work floor in src/nn/gemm.cpp keeps paper-shape products serial), nor
# may the row-parallel optimizer sweep and refold of the learn step; the
# factor absorbs measurement noise, not regressions.
THREAD_SCALING_SECTIONS = ("paper_forward", "paper_fwd_bwd", "fold_forward",
                           "fold_fwd_bwd", "fold_learn_step")
THREAD_SCALING_TOLERANCE = 0.85

DEBUG_BUILD_TYPES = {"", "debug"}


def run_bench(binary: Path, min_time: float, bench_filter: str = "BM_") -> dict:
    cmd = [
        str(binary),
        f"--benchmark_filter={bench_filter}",
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark run failed (exit {proc.returncode})")
    return json.loads(proc.stdout)


def check_build_type(ctx: dict, allow_debug: bool) -> str:
    """Refuse debug harness OR debug benchmark-library builds."""
    harness = ctx.get("dqndock_bench_build_type", "")
    if harness.lower() in DEBUG_BUILD_TYPES or ctx.get("dqndock_bench_asserts") == "on":
        msg = (f"refusing to publish: bench harness build type is "
               f"{harness or 'unknown'!r} (asserts "
               f"{ctx.get('dqndock_bench_asserts', 'unknown')}); "
               f"rebuild with -DCMAKE_BUILD_TYPE=Release")
        if not allow_debug:
            raise SystemExit(msg)
        sys.stderr.write(f"WARNING (--allow-debug): {msg}\n")
    library = ctx.get("library_build_type", "")
    if library.lower() != "release":
        msg = (f"refusing to publish: benchmark library build type is "
               f"{library or 'unknown'!r}; rebuild the bench tree instead of "
               f"linking a debug libbenchmark")
        if not allow_debug:
            raise SystemExit(msg)
        sys.stderr.write(f"WARNING (--allow-debug): {msg}\n")
    return harness


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build", type=Path)
    ap.add_argument("--out", default="BENCH_nn.json", type=Path)
    ap.add_argument("--min-time", default=0.5, type=float,
                    help="seconds per benchmark (google-benchmark min time)")
    ap.add_argument("--allow-debug", action="store_true",
                    help="emit JSON even from a debug harness build (flagged, for smoke tests)")
    ap.add_argument("--skip-scaling-check", action="store_true",
                    help="skip the threads>=serial gate (noisy shared machines)")
    ap.add_argument("--scaling-retries", default=2, type=int,
                    help="re-measure rows that fail the threads>=serial gate this "
                         "many times before failing; a real regression reproduces, "
                         "a throttled-host transient does not")
    args = ap.parse_args()

    binary = args.build_dir / "bench" / "bench_nn"
    if not binary.exists():
        raise SystemExit(f"{binary} not found - build with -DDQNDOCK_BUILD_BENCH=ON first")

    raw = run_bench(binary, args.min_time)
    ctx = raw.get("context", {})
    harness_build_type = check_build_type(ctx, args.allow_debug)

    # Schema gate: rows without the dispatched GEMM tier are meaningless
    # for cross-tier comparison.
    gemm_tier = ctx.get("dqndock_gemm_kernel_tier")
    if gemm_tier not in ("generic", "avx512"):
        raise SystemExit(f"refusing to publish: bench_nn reported GEMM kernel "
                         f"tier {gemm_tier!r} (expected 'generic' or 'avx512'); "
                         f"rebuild the bench tree")

    sections: dict = {}
    for bench in raw.get("benchmarks", []):
        mapping = BENCH_MAP.get(bench.get("name", ""))
        if mapping is None:
            continue
        section, key = mapping
        sections.setdefault(section, {})[key] = bench["items_per_second"]

    missing = [f"{s}.{k}" for s, k in BENCH_MAP.values()
               if k not in sections.get(s, {})]
    if missing:
        raise SystemExit(f"incomplete benchmark output: {sorted(missing)}")

    # Schema gate for the fold stamp: rows must say what the
    # DQNDOCK_FOLD_STATIC gate resolved to when they were measured.
    fold_static = ctx.get("dqndock_fold_static")
    if fold_static not in ("on", "off"):
        raise SystemExit(f"refusing to publish: bench_nn reported fold_static "
                         f"{fold_static!r} (expected 'on' or 'off'); rebuild the "
                         f"bench tree")

    # Negative-thread-scaling gate: giving a GEMM a pool must never cost
    # throughput at any thread count. Failing rows are re-measured (max
    # over runs, serial row included so an inflated baseline re-settles
    # too): a regressed partition cap fails every run, host throttling
    # does not.
    if not args.skip_scaling_check:
        name_of = {v: k for k, v in BENCH_MAP.items()}
        for attempt in range(args.scaling_retries + 1):
            failures = []
            for section in THREAD_SCALING_SECTIONS:
                rows = sections[section]
                serial = rows["threads_0"]
                for key, rate in sorted(rows.items()):
                    if key != "threads_0" and rate < THREAD_SCALING_TOLERANCE * serial:
                        failures.append((section, key, rate, serial))
            if not failures:
                break
            if attempt == args.scaling_retries:
                section, key, rate, serial = failures[0]
                raise SystemExit(
                    f"negative thread scaling in {section}: {key} ran at "
                    f"{rate:.1f} states/s vs {serial:.1f} serial "
                    f"(floor {THREAD_SCALING_TOLERANCE:.2f}x) across "
                    f"{args.scaling_retries + 1} runs; the GEMM partition "
                    f"cap regressed")
            names = {name_of[(s, k)] for s, k, _, _ in failures}
            names |= {name_of[(s, "threads_0")] for s, _, _, _ in failures}
            # the harness filters on the pre-report name (no /real_time suffix)
            bench_filter = ("^(" +
                            "|".join(sorted(n.replace("/real_time", "") for n in names)) +
                            ")$")
            sys.stderr.write(f"scaling gate: re-measuring {sorted(names)} "
                             f"(attempt {attempt + 1}/{args.scaling_retries})\n")
            for bench in run_bench(binary, args.min_time, bench_filter).get("benchmarks", []):
                mapping = BENCH_MAP.get(bench.get("name", ""))
                if mapping is None:
                    continue
                section, key = mapping
                rows = sections[section]
                rows[key] = max(rows[key], bench["items_per_second"])

    report = {
        "benchmark": "bench_nn",
        "architecture": "paper Table 1 (16599 -> 135 -> 135 -> 12, batch 32)",
        "metric": "states_per_second",
        "date": ctx.get("date"),
        "num_cpus": ctx.get("num_cpus"),
        "cpu_scaling_enabled": ctx.get("cpu_scaling_enabled"),
        "harness_build_type": harness_build_type,
        "benchmark_library_build_type": ctx.get("library_build_type"),
        # GEMM tier the runs dispatched to at runtime (CPUID probe or the
        # DQNDOCK_FORCE_KERNEL override): "avx512" or "generic".
        "gemm_kernel_tier": gemm_tier,
        # What the DQNDOCK_FOLD_STATIC gate resolved to in the bench env
        # (the folded rows below configure the fold explicitly).
        "fold_static": fold_static,
        "paper_net": {
            "forward": sections["paper_forward"],
            "fwd_bwd": sections["paper_fwd_bwd"],
            "single_inference": sections["paper_single_inference"]["states_per_second"],
        },
        "fold_static_paper_net": {
            "forward": sections["fold_forward"],
            "fwd_bwd": sections["fold_fwd_bwd"],
            "learn_step": sections["fold_learn_step"],
            "single_inference": sections["fold_single_inference"]["states_per_second"],
        },
        "scaled_net": sections["scaled_net"],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    fwd = sections["paper_forward"]["threads_0"]
    fwd_bwd = sections["paper_fwd_bwd"]["threads_0"]
    print(f"  paper net (tier {gemm_tier}): forward {fwd:8.1f} states/s  "
          f"fwd+bwd {fwd_bwd:8.1f} states/s  (serial)")
    ffwd = sections["fold_forward"]["threads_0"]
    ffwd_bwd = sections["fold_fwd_bwd"]["threads_0"]
    fsingle = sections["fold_single_inference"]["states_per_second"]
    print(f"  folded        (tier {gemm_tier}): forward {ffwd:8.1f} states/s  "
          f"fwd+bwd {ffwd_bwd:8.1f} states/s  single {fsingle:8.1f} states/s")
    learn = sections["fold_learn_step"]
    print("  folded learn step (states/s): " +
          "  ".join(f"{k} {v:8.1f}" for k, v in sorted(learn.items())))


if __name__ == "__main__":
    main()
