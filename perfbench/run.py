#!/usr/bin/env python3
"""Benchmark of vmtsim's runSimulation and vmtserve's ShardedDriver.

Builds perfbench/ (which compiles the simulator sources under src/)
into .bench_build/, runs one workload in its own process and prints two
JSON lines on stdout: a report (host metadata, per-repetition details,
output checks, tracing overhead), then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics. Run from the repository root:

    python3 perfbench/run.py --workload sim_wa_1k --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

--selftest runs every workload traced on the development and the
held-out seed and fails unless every output check passes and the
wrapped runs are bitwise identical to the unwrapped ones.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Seeds fixed for development and for confirming a claim on inputs it
# was not tuned on (see README.md).
DEV_SEED = 7
HELDOUT_SEED = 20181

# The paper's result (Section V): VMT-WA at GV 22 cuts the smoothed
# peak cooling load about 12% below round robin; fail below 11%.
PAPER_MIN_PEAK_CUT = 0.11

# setup_s is the mean over this many set-up processes, each given this
# share of --seconds: every process settles in its own page-fault mode,
# so one process's median would flip between modes from run to run.
SETUP_PROCESSES = 5
SETUP_SHARE = 0.03

# A run must end within 180 s (900 s for the one that builds).
RUN_LIMIT_S = 170
BUILD_RUN_LIMIT_S = 880


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then bring the harness up to date. Returns
    (binary path, whether anything was compiled)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no simulator sources under %s/src" % ROOT)
    out = build_root() / "perfbench"
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    binary = out / "vmt_perfbench"
    before = binary.stat().st_mtime_ns if binary.exists() else None
    try:
        if not (out / "CMakeCache.txt").exists():
            subprocess.run(configure, check=True, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_RUN_LIMIT_S)
        subprocess.run(["cmake", "--build", str(out), "--target",
                        "vmt_perfbench", "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_RUN_LIMIT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        die("build failed: %s" % err)
    built = before is None or binary.stat().st_mtime_ns != before
    return binary, built


def harness(binary, args, deadline):
    """Run the harness once and parse its JSON line."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die("harness timed out: %s" % " ".join(args))
    if proc.returncode != 0:
        die("harness failed (exit %d): %s" % (proc.returncode,
                                             " ".join(args)))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        die("harness printed no JSON: %r" % proc.stdout[-500:])


def commit():
    """The checkout's commit when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError):
        return None


def source_digest():
    """SHA-256 over src/ (paths and contents), which identifies the
    measured code when the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_metadata(result):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "compiler": result["compiler"],
        "build_type": result["build_type"],
        "cxx_flags": result["cxx_flags"].strip(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "threads": result["threads"],
    }


def run_workload(binary, spec, workload, seed, seconds, trace, deadline):
    """One benchmark run: returns (report, result)."""
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        die("unknown workload %r (have %s)" % (workload, ", ".join(names)))
    metric_specs = spec["per_layer" if trace else "end_to_end"]

    scratch = build_root() / "run" / ("%s-%d-%d" % (workload, seed,
                                                   os.getpid()))
    spans = build_root() / "spans" / ("%s-seed%d.csv" % (workload, seed))
    scratch.mkdir(parents=True, exist_ok=True)
    spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        common = ["--workload", workload, "--seed", str(seed),
                  "--scratch", str(scratch)]
        start = time.monotonic()
        setups = []
        if not trace:
            for _ in range(SETUP_PROCESSES):
                setups.append(harness(binary, common + [
                    "--mode", "setup",
                    "--seconds", str(SETUP_SHARE * seconds)],
                    deadline)["setup_s"])
        args = common + ["--mode", "trace" if trace else "e2e",
                         "--seconds",
                         str(max(0.1, seconds - (time.monotonic() - start)))]
        if trace:
            args += ["--spans-out", str(spans)]
        out = harness(binary, args, deadline)
        if setups:
            out["metrics"]["setup_s"] = sum(setups) / len(setups)
            out["setup_s_by_process"] = setups

        attempted = out["attempted"]
        failed = out["failed"]
        paper = None
        if workload == "sim_wa_1k":
            # Each workload runs in its own process, so the round-robin
            # baseline of the paper check runs in a child of its own.
            rr = harness(binary, ["--workload", "sim_rr_1k", "--seed",
                                  str(seed), "--mode", "peak", "--scratch",
                                  str(scratch)], deadline)
            cut = 1.0 - out["peak_cooling_kw"] / rr["peak_cooling_kw"]
            paper = {"wa_peak_kw": out["peak_cooling_kw"],
                     "rr_peak_kw": rr["peak_cooling_kw"],
                     "cut": cut, "ok": cut >= PAPER_MIN_PEAK_CUT}
            attempted += 1
            failed += 0 if paper["ok"] else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    missing = [m["name"] for m in metric_specs if m["name"] not in
               out["metrics"]]
    if missing:
        die("harness did not report %s" % ", ".join(missing))
    metrics = {m["name"]: {"value": out["metrics"][m["name"]],
                           "unit": m["unit"]} for m in metric_specs}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report = {k: v for k, v in out.items() if k != "metrics"}
    report.update({"host": host_metadata(out), "paper_check": paper,
                   "trace": trace})
    if trace:
        report["spans_file"] = str(spans.relative_to(ROOT))
        report["tracing_overhead_frac"] = out["metrics"][
            "trace.overhead_frac"]
    return report, result


def selftest(binary, spec, seconds):
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in (DEV_SEED, HELDOUT_SEED):
            deadline = time.monotonic() + RUN_LIMIT_S
            report, result = run_workload(binary, spec, workload, seed,
                                          seconds, True, deadline)
            passed = result["correct"] and not report["differences"]
            ok = ok and passed
            print(json.dumps({"workload": workload, "seed": seed,
                              "passed": passed,
                              "differences": report["differences"],
                              "checks": report["checks"],
                              "paper_check": report["paper_check"]}))
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die("no BENCHMARK.json at %s" % ROOT)
    spec = json.loads(spec_path.read_text())
    start = time.monotonic()
    binary, built = build()
    deadline = start + (BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S)

    if args.selftest:
        return selftest(binary, spec, args.seconds or 1)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    report, result = run_workload(binary, spec, args.workload, args.seed,
                                  args.seconds, args.trace == 1, deadline)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
