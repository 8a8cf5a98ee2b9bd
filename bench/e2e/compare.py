#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results, metric by metric.

    python3 bench/e2e/compare.py A B
    python3 bench/e2e/compare.py bench/e2e/baseline.json results/
    python3 bench/e2e/compare.py --write-baseline OUT --commit SHA DIR

A and B are each a directory of result files written by
`run.py --save DIR`, or a baseline file written by --write-baseline. For
every workload x metric the table shows each set's median and quartiles
(Python's statistics.quantiles, n=4), the change of B against A in the
direction that is worse, and, for end-to-end metrics, the bound
BENCHMARK.json fixes and a verdict:

    agree       B is no worse than A by more than the bound
    regressed   B is worse than A by more than the bound
    unresolved  a set's quartile spread is wider than the bound, so the
                runs cannot tell; it is not reported as unchanged unless
                every run of B reads better than every run of A

Per-layer metrics have no bound and are shown for information. Exits 1
when any end-to-end metric regressed or is unresolved.
"""
import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values):
    values = sorted(values)
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median,
                "n": len(values), "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def load_set(path):
    """{workload: {metric: summary}} plus units, from a directory or baseline."""
    path = Path(path)
    if path.is_file():
        data = json.loads(path.read_text())
        return data["workloads"]
    runs = {}
    units = {}
    for f in sorted(path.glob("*.json")):
        data = json.loads(f.read_text())
        for name, m in data["result"]["metrics"].items():
            runs.setdefault(data["workload"], {}).setdefault(name, []).append(
                m["value"])
            units[name] = m["unit"]
    if not runs:
        sys.exit(f"compare.py: no result files in {path}")
    out = {}
    for workload, metrics in runs.items():
        out[workload] = {}
        for name, values in metrics.items():
            out[workload][name] = dict(summarize(values), unit=units[name])
    return out


def worse_by(a, b, better):
    """Relative change of b against a, positive when b is worse."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    delta = (b - a) / abs(a)
    return delta if better == "lower" else -delta


def spread(s):
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def verdict(a, b, better, bound):
    if max(spread(a), spread(b)) > bound:
        va, vb = a.get("values"), b.get("values")
        if va and vb:
            if better == "lower" and max(vb) < min(va):
                return "agree"
            if better == "higher" and min(vb) > max(va):
                return "agree"
        return "unresolved"
    return "regressed" if worse_by(a["median"], b["median"], better) > bound \
        else "agree"


def fmt(s):
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"


def compare(a_path, b_path):
    spec = load_spec()
    a, b = load_set(a_path), load_set(b_path)
    metrics = [(m, True) for m in spec["end_to_end"]] + \
              [(m, False) for m in spec["per_layer"]]
    bad = 0
    header = (f"{'workload':<13} {'metric':<30} {'A median [q1, q3]':<40} "
              f"{'B median [q1, q3]':<40} {'worse':>8} {'bound':>6}  verdict")
    print(header)
    for w in spec["workloads"]:
        workload = w["name"]
        for m, bounded in metrics:
            sa = a.get(workload, {}).get(m["name"])
            sb = b.get(workload, {}).get(m["name"])
            if sa is None or sb is None:
                continue
            worse = worse_by(sa["median"], sb["median"], m["better"])
            if bounded:
                v = verdict(sa, sb, m["better"], m["bound"])
                bound = f"{m['bound'] * 100:.0f}%"
                if v != "agree":
                    bad += 1
                    v += f" (spread A {spread(sa) * 100:.1f}%, " \
                         f"B {spread(sb) * 100:.1f}%)"
            else:
                v, bound = "-", "-"
            print(f"{workload:<13} {m['name']:<30} {fmt(sa):<40} {fmt(sb):<40} "
                  f"{worse * 100:>+7.2f}% {bound:>6}  {v}")
    return 1 if bad else 0


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def write_baseline(out, commit, directory):
    data = load_set(directory)
    seconds = {json.loads(f.read_text()).get("seconds")
               for f in Path(directory).glob("*.json")}
    Path(out).write_text(json.dumps({
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "run_seconds": sorted(s for s in seconds if s is not None),
        "workloads": data}, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", type=Path)
    parser.add_argument("--write-baseline", type=Path, default=None)
    parser.add_argument("--commit", default="unknown")
    args = parser.parse_args()
    if args.write_baseline is not None:
        if len(args.sets) != 1:
            parser.error("--write-baseline takes one result directory")
        write_baseline(args.write_baseline, args.commit, args.sets[0])
        return 0
    if len(args.sets) != 2:
        parser.error("give two result sets to compare")
    return compare(args.sets[0], args.sets[1])


if __name__ == "__main__":
    sys.exit(main())
