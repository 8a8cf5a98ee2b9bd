#!/usr/bin/env python3
"""Build and run the bSOAP end-to-end round-trip benchmark.

    python3 bench/e2e/run.py --workload patch_steady --seed 1 --seconds 20 --trace 0
    python3 bench/e2e/run.py                  # every workload, one after another
    python3 bench/e2e/run.py --selftest       # histogram and input-generator checks

Builds bench/e2e, with the libraries it links, into build-e2e/ at the
repository root, runs bsoap_e2e once per workload and prints its report.
The last line of output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics BENCHMARK.json lists with
--trace 0, its per-layer metrics with --trace 1 (spans go to
build-e2e/trace/<workload>.jsonl, or --trace-dir). Exits non-zero when the
build fails, a round trip fails or answers wrongly, or a workload leaves its
regime.

--save DIR also writes each result to DIR/<workload>-s<seed>-t<trace>.json,
the input compare.py reads.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "bench" / "e2e"
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "bsoap_e2e"
RESULT_PREFIX = "E2E_RESULT "


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def run_logged(cmd, timeout):
    """Runs a build step; its output goes to stderr only when it fails."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{cmd[0]} failed: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"{' '.join(cmd)} exited with {done.returncode}")


def build():
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_logged(configure, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(BUILD), "--target", "bsoap_e2e",
                "-j", jobs], timeout=840)


def run_workload(workload, seed, seconds, trace_dir):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if trace_dir is not None:
        cmd += ["--trace", str(trace_dir)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=seconds * 1.5 + 60)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: {e}")
    result = None
    for line in done.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if result is None:
        fail(f"{workload}: bsoap_e2e exited with {done.returncode} "
             "and no result")
    return done.returncode, result


def contract_result(spec, result, traced):
    """The result line: the metrics BENCHMARK.json names, with its units."""
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, default=BUILD / "trace")
    parser.add_argument("--save", type=Path, default=None)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail(f"unknown workload {args.workload}; one of {', '.join(names)}")
    seconds = args.seconds if args.seconds else float(spec["run_seconds"])
    if seconds <= 0:
        fail("--seconds must be positive")

    build()
    if args.selftest:
        sys.exit(subprocess.run([str(BINARY), "--selftest"]).returncode)

    traced = args.trace == 1
    lines = {}
    ok = True
    for workload in workloads:
        code, result = run_workload(workload, args.seed, seconds,
                                    args.trace_dir if traced else None)
        line = contract_result(spec, result, traced)
        ok = ok and code == 0 and line["correct"]
        lines[workload] = line
        if args.save is not None:
            args.save.mkdir(parents=True, exist_ok=True)
            path = args.save / f"{workload}-s{args.seed}-t{args.trace}.json"
            path.write_text(json.dumps({
                "workload": workload, "seed": args.seed,
                "trace": args.trace, "seconds": seconds,
                "result": line}) + "\n")

    sys.stdout.flush()
    if len(workloads) == 1:
        print(json.dumps(lines[workloads[0]]))
    else:
        # Several workloads: one line, metrics named <workload>.<metric>.
        print(json.dumps({
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}.{name}": m for w, l in lines.items()
                        for name, m in l["metrics"].items()}}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
