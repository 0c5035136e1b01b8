#!/usr/bin/env python3
"""End-to-end benchmark of mpcgs.

Run from the repository root:

    python3 perfbench/run.py --workload gmh_em --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py                  # every workload, one process each
    python3 perfbench/run.py --smoke          # toy sizes, seconds per workload
    python3 perfbench/run.py --write-spec     # rewrite BENCHMARK.json

The first call configures and builds perfbench/ (the library from src/ plus
the workload program perfbench.cc) with CMake under $CARGO_TARGET_DIR
(default .bench_build). Each workload then runs in its own process on data
simulated from a fixed data seed; --seed seeds the GMH chain
(perfbench/README.md says why nothing else). --trace 0 reports the
end-to-end metrics; --trace 1 is the separate traced run that reports the
per-layer metrics.
Every output is checked (bitwise repeats, thread invariance, reference
values in perfbench/reference.json); the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = 45

WORKLOADS = [
    ("gmh_em", "the paper's GMH sampler (estimateTheta, 24 x 2000 bp, 4 EM x 4000 samples); "
               "runs no smc or serve code, so it is the control for every SMC change"),
    ("smc_theta", "estimateThetaSmc plus its support interval (10 x 400 bp, 256 particles); "
                  "every SMC filter, resampling and slot change lands here"),
]

# (name, unit, bound). Every workload reports every metric; BENCHMARK.json
# and perfbench/README.md say what each means per workload.
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("solve_s", "s", 0.24),
    ("update_p50_ms", "ms", 0.24),
    ("peak_rss_mb", "MB", 0.15),
]

PER_LAYER = [
    ("core.smc_passes", "count"),
    ("core.mstep_ms", "ms"),
    ("mcmc.estep_s", "s"),
    ("mcmc.samples_per_s", "1/s"),
    ("mcmc.steps", "count"),
    ("mcmc.move_rate", "ratio"),
    ("lik.eval_us", "us"),
    ("lik.share", "ratio"),
    ("lik.flushes", "count"),
    ("lik.combine_ops", "count"),
    ("lik.matrices_computed", "count"),
    ("lik.matrix_dedup", "ratio"),
    ("smc.pass_ms", "ms"),
    ("smc.pass_share", "ratio"),
    ("smc.generations", "count"),
    ("smc.resample_rate", "ratio"),
    ("smc.update_ms", "ms"),
    ("smc.online_refreshes", "count"),
    ("smc.rejuvenation_accepts", "count"),
    ("par.launches", "count"),
    ("par.parks", "count"),
    ("par.wakes", "count"),
    ("par.steals", "count"),
    ("par.efficiency", "ratio"),
    ("serve.checkpoint_ms", "ms"),
    ("serve.checkpoint_kb", "KB"),
    ("serve.read_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("obs.traced_overhead", "ratio"),
]

# Generating theta of the simulated inputs: a sane estimate lands within
# this factor of it on any seed.
THETA_TRUE = 1.0
THETA_FACTOR = 5.0


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": better(n)} for n, u in PER_LAYER],
    }


def better(name):
    higher = ("mcmc.samples_per_s", "mcmc.move_rate", "lik.share", "lik.matrix_dedup",
              "smc.pass_share", "par.efficiency")
    return "higher" if name in higher else "lower"


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "perfbench"


def build():
    """Configure (once) and build perfbench; returns the binary's path."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-4000:], file=sys.stderr)
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def steal_ticks():
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def git_describe():
    """The checkout's revision now, not at configure time ("unknown" outside git)."""
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=HERE.parent, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def workload_process(binary, workload, args):
    """Run perfbench with `args`; echo its lines and return its JSON summary."""
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {args[0]} {workload} failed (exit {proc.returncode})")
    for line in lines[:-1]:
        print(f"{workload} {line}", flush=True)
    return json.loads(lines[-1])


def run_workload(binary, workload, seed, seconds, trace, smoke):
    """Generate the inputs, run one workload in its own process, check it."""
    run_dir = build_dir() / "runs" / f"{workload}-s{seed}{'-smoke' if smoke else ''}"
    run_dir.mkdir(parents=True, exist_ok=True)
    common = [workload, "--dir", str(run_dir)] + (["--smoke"] if smoke else [])
    gen = subprocess.run([str(binary), "gen"] + common, stdout=subprocess.PIPE, text=True)
    if gen.returncode != 0:
        raise SystemExit(f"perfbench: input generation failed for {workload}")
    print(gen.stdout.strip(), flush=True)

    steal0 = steal_ticks()
    result = workload_process(binary, workload, ["run"] + common +
                              ["--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)])
    steal1 = steal_ticks()
    if not trace:
        # Peak RSS of one operation in a process of its own (perfbench.cc
        # cmdPeak says why).
        peak = workload_process(binary, workload, ["peak"] + common + ["--seed", str(seed)])
        result["metrics"].update(peak["metrics"])

    steal = "unknown" if steal0 is None or steal1 is None else steal1 - steal0
    print(f"{workload} host nproc {os.cpu_count()} steal_ticks {steal} git {git_describe()}",
          flush=True)

    print(f"{workload} outputs {json.dumps(result['outputs'])}", flush=True)
    problems = check_outputs(workload, seed, smoke, result["outputs"])
    for p in problems:
        print(f"{workload} check FAILED {p}", flush=True)
    attempted = result["attempted"]
    failed = result["repeat_failures"]
    if problems or result["invariance_failures"]:
        failed = attempted
    print(f"{workload} check repeats {attempted - result['repeat_failures']}/{attempted} "
          f"reproduced, thread invariance failures {result['invariance_failures']}, "
          f"reference {'ok' if not problems else 'FAILED'}", flush=True)
    print(f"{workload} metric failed_frac {failed / attempted:.6g} ratio", flush=True)

    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit, *_ in wanted:
        m = result["metrics"].get(name)
        if m is None:
            print(f"{workload} metric {name} absent", flush=True)
            continue
        if m["unit"] != unit:
            raise SystemExit(f"perfbench: {name} reported in {m['unit']}, expected {unit}")
        metrics[name] = {"value": m["value"], "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def close(a, b, rel):
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(b), 1e-300)


def check_outputs(workload, seed, smoke, out):
    """Model-based checks for any seed, then the recorded reference values."""
    problems = []
    values = list(out.values())
    if not values or not all(math.isfinite(v) for v in values):
        return ["non-finite or missing outputs"]
    theta, lo, hi = out["theta"], out["lower"], out["upper"]
    if not 0 < lo < theta < hi:
        problems.append(f"support interval [{lo}, {hi}] does not bracket theta {theta}")
    if not smoke and not THETA_TRUE / THETA_FACTOR < theta < THETA_TRUE * THETA_FACTOR:
        problems.append(f"theta {theta} is not within x{THETA_FACTOR} of {THETA_TRUE}")
    if smoke:
        return problems

    refs = json.loads((HERE / "reference.json").read_text())
    ref = refs["values"][workload]
    tol = refs["tolerances"]
    # gmh_em records one entry per chain seed: any chain on these data must
    # land inside the default chain's interval. A recorded chain must
    # reproduce its own bounds; any other is held to the default chain's,
    # as loosely as chains spread on these data.
    rel = tol["support_bound_rel"]
    interval = ref
    if workload == "gmh_em":
        interval = ref[str(refs["default_seed"])]
        if str(seed) in ref:
            ref = ref[str(seed)]
        else:
            ref, rel = interval, tol["other_chain_rel"]
    if not interval["lower"] <= out["theta"] <= interval["upper"]:
        problems.append(f"theta {out['theta']} is outside the reference interval "
                        f"[{interval['lower']}, {interval['upper']}]")
    for bound in ("lower", "upper"):
        if not close(out[bound], ref[bound], rel):
            problems.append(f"{bound} {out[bound]} differs from the reference {ref[bound]}")
    if workload == "smc_theta" and not abs(out["log_l"] - ref["log_l"]) <= tol["log_z_abs"]:
        problems.append(f"logZ {out['log_l']} differs from the reference {ref['log_l']}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=None,
                    help="seed of the GMH chain (default and confirming seeds in reference.json)")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes for the smoke test")
    ap.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    args = ap.parse_args()

    if args.write_spec:
        path = HERE.parent / "BENCHMARK.json"
        path.write_text(json.dumps(spec(), indent=2) + "\n")
        print(f"wrote {path}")
        return

    refs = json.loads((HERE / "reference.json").read_text())
    seed = args.seed if args.seed is not None else refs["default_seed"]
    seconds = args.seconds if args.seconds is not None else (1 if args.smoke else RUN_SECONDS)
    binary = build()
    names = [args.workload] if args.workload else [n for n, _ in WORKLOADS]
    results = {n: run_workload(binary, n, seed, seconds, args.trace, args.smoke)
               for n in names}

    if args.workload:
        print(json.dumps(results[args.workload]))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
