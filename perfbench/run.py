#!/usr/bin/env python3
"""The amsc benchmark: host speed of the simulator on three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig11_grid --seed 42 \\
        --seconds 30 --trace 0

Builds perfbench/ (and with it the simulator library) under
.bench_build/, then runs the workload's scenario from
perfbench/workloads/ through the perfbench program, repeating it until
--seconds are used up. With --trace 0 the last line of stdout is a JSON
object with every end-to-end metric; with --trace 1 each repetition
also runs the traced driver and the metrics are the per-layer ones.
Every point is checked: a serving point must complete its requests, a
drained run must deliver every NoC message, and at the default seed
the point's fingerprint must equal perfbench/reference.json. At any
other seed the fingerprint digest is printed for exact comparison.

    python3 perfbench/run.py --selftest          # benchmark self-tests
    python3 perfbench/run.py --update-reference  # rewrite the reference

See perfbench/README.md for the metrics and how to read them.
"""

import argparse
import copy
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 42

# Workload -> sweep workers. The definitions are perfbench/workloads/*.scn.
WORKLOADS = {"fig11_grid": 2, "serving_decode": 1, "dram_stream": 1}

# Self-test geometry and the point of each workload it checks.
REDUCED = ["num_sms=16", "num_clusters=4", "num_mcs=4", "slices_per_mc=4"]
SELFTEST_POINTS = {
    "fig11_grid": "MS/adaptive",
    "serving_decode": "serving_decode",
    "dram_stream": "dram_stream",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build the perfbench program; return its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no amsc source tree at {ROOT}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_bin(exe, args, cpus=None):
    """Run the perfbench program (on @cpus if given); return its JSON line."""
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    out = subprocess.run([exe] + args, check=True, stdout=subprocess.PIPE,
                         text=True, timeout=150, preexec_fn=pin).stdout
    return json.loads(out.strip().splitlines()[-1])


def rotating_cpus(width):
    """CPU sets of @width consecutive allowed CPUs, one per repetition.

    On a shared host the speed of each CPU drifts independently, so the
    repetitions of a run are spread over all CPUs rather than left on
    whichever one the scheduler picks.
    """
    allowed = sorted(os.sched_getaffinity(0))
    width = min(width, len(allowed))
    k = 0
    while True:
        yield {allowed[(k + j) % len(allowed)] for j in range(width)}
        k += 1


def scenario(workload):
    return os.path.join(HERE, "workloads", workload + ".scn")


def repeat(seconds, fn):
    """Call fn() until the next call would overrun @seconds (at least once)."""
    results = []
    start = time.monotonic()
    while True:
        results.append(fn())
        elapsed = time.monotonic() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def nearest_rank(values, p):
    """Nearest-rank percentile of @values (p in [0, 1])."""
    v = sorted(values)
    return v[max(0, math.ceil(p * len(v)) - 1)]


def fingerprint_failures(workload, seed, iterations):
    """Per-iteration lists of (label, why) fingerprint failures.

    At the default seed every iteration must equal the stored
    reference. At any other seed the digest is printed, and every
    iteration must equal the first (the simulator is deterministic).
    """
    if seed == DEFAULT_SEED:
        with open(REFERENCE) as f:
            expect = json.load(f)[workload]
    else:
        expect = iterations[0]["fingerprints"]
        digest = hashlib.sha256(json.dumps(expect, sort_keys=True).encode())
        print(f"fingerprint {workload} seed={seed} "
              f"sha256={digest.hexdigest()}")
    return [compare_fingerprints(expect, it["fingerprints"])
            for it in iterations]


def compare_fingerprints(expect, got):
    """(label, why) for each point whose fingerprint differs."""
    by_label = {fp["label"]: fp for fp in expect}
    bad = [(label, "point missing")
           for label in sorted(set(by_label) - {fp["label"] for fp in got})]
    for fp in got:
        ref = by_label.get(fp["label"])
        if ref is None:
            bad.append((fp["label"], "no reference fingerprint"))
            continue
        fields = sorted(k for k in set(ref) | set(fp)
                        if ref.get(k) != fp.get(k))
        if fields:
            bad.append((fp["label"],
                        "fingerprint differs in " + ", ".join(fields)))
    return bad


def judge(workload, seed, iterations):
    """Count attempted and failed points; log every failure."""
    prints = fingerprint_failures(workload, seed, iterations)
    attempted = failed = 0
    for it, fp_bad in zip(iterations, prints):
        why = {}
        for f in it["failures"]:
            why.setdefault(f["label"], []).append(f["why"])
        for label, w in fp_bad:
            why.setdefault(label, []).append(w)
        attempted += it["points"]
        failed += len(why)
        for label, ws in why.items():
            log(f"{workload}: point {label} failed: {'; '.join(ws)}")
    return attempted, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(iterations):
    med = statistics.median
    return {
        "wall_s": metric(med(i["sweep_wall_s"] for i in iterations), "s"),
        "sim_cycles_per_s": metric(
            med(i["cycles"] / sum(i["point_run_s"]) for i in iterations),
            "cycles/s"),
        "point_wall_p50_s": metric(
            med(nearest_rank(i["point_wall_s"], 0.5) for i in iterations),
            "s"),
        "point_wall_p80_s": metric(
            med(nearest_rank(i["point_wall_s"], 0.8) for i in iterations),
            "s"),
        "setup_s": metric(
            med(i["load_expand_s"] + sum(i["construct_s"])
                for i in iterations), "s"),
        "peak_rss_mb": metric(
            med(i["peak_rss_kb"] / 1024.0 for i in iterations), "MB"),
    }


def layer_unit(name):
    leaf = name.split(".", 1)[1]
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_pct"):
        return "%"
    if leaf.startswith("ns_per_"):
        return "ns"
    if leaf.endswith("_cycles"):
        return "cycles"
    if leaf == "ckpt_bytes":
        return "bytes"
    if leaf.endswith(("share", "rate", "efficiency", "occupancy",
                      "per_router_cycle")):
        return "ratio"
    return "count"


def per_layer(iterations):
    names = iterations[0]["layers"].keys()
    return {n: metric(statistics.median(i["layers"][n] for i in iterations),
                      layer_unit(n))
            for n in names}


def bench(args):
    exe = build()
    workers = WORKLOADS[args.workload]
    cmd = ["traced" if args.trace else "timed", scenario(args.workload),
           f"workers={workers}", f"seed={args.seed}"]
    cpus = rotating_cpus(workers)
    iterations = repeat(args.seconds, lambda: run_bin(exe, cmd, next(cpus)))
    attempted, failed = judge(args.workload, args.seed, iterations)
    metrics = per_layer(iterations) if args.trace else end_to_end(iterations)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def update_reference():
    exe = build()
    ref = {}
    for w, workers in WORKLOADS.items():
        it = run_bin(exe, ["timed", scenario(w), f"workers={workers}",
                           f"seed={DEFAULT_SEED}"])
        if it["failures"]:
            raise RuntimeError(f"{w}: {it['failures']}")
        ref[w] = it["fingerprints"]
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {REFERENCE}")
    return 0


def selftest():
    """Traced driver == GpuSystem::run(); perturbed reference fails."""
    exe = build()
    ok = True
    for w, label in SELFTEST_POINTS.items():
        r = subprocess.run([exe, "selftest", scenario(w), f"point={label}"]
                           + REDUCED, stdout=subprocess.PIPE, text=True)
        res = json.loads(r.stdout.strip().splitlines()[-1])
        passed = r.returncode == 0 and res["identical"]
        log(f"selftest traced==GpuSystem {w} {label}: "
            f"{'ok' if passed else 'FAILED ' + res['why']}")
        ok = ok and passed

    it = run_bin(exe, ["timed", scenario("dram_stream"), "workers=1",
                       f"seed={DEFAULT_SEED}"])
    with open(REFERENCE) as f:
        ref = json.load(f)["dram_stream"]
    clean = compare_fingerprints(ref, it["fingerprints"])
    perturbed = copy.deepcopy(ref)
    perturbed[0]["llc_accesses"] += 1
    dirty = compare_fingerprints(perturbed, it["fingerprints"])
    passed = (not clean and len(dirty) == 1
              and "llc_accesses" in dirty[0][1])
    log(f"selftest perturbed reference reports a failed point: "
        f"{'ok' if passed else 'FAILED'} (clean={clean}, dirty={dirty})")
    ok = ok and passed
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.update_reference:
            return update_reference()
        if not args.workload:
            ap.error("--workload is required")
        return bench(args)
    except (RuntimeError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
