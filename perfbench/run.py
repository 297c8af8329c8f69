#!/usr/bin/env python3
"""The dbp benchmark: one command, seeded workloads, checked outputs.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0

builds `dbp` and the in-process ledger from the checkout, generates the
workload's inputs from the seed, measures for --seconds, checks every
output against computations made apart from the program (checks.py), and
prints one JSON object as its last line: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced ledger with --trace 1.

    python3 perfbench/run.py --steadiness 10 [--workloads a,b] [--trace 0]

runs the workloads repeatedly, interleaved, on N consecutive seeds and prints each
end-to-end metric's median, quartiles and spread against its bound in
BENCHMARK.json.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import checks  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("steady", "crowded", "tenants", "score")
SHARDED = ("tenants",)
DBP = os.path.join(ROOT, "_build", "default", "bin", "dbp.exe")
LEDGER = os.path.join(ROOT, "_build", "default", "perfbench", "ledger", "ledger.exe")
MIN_ROUNDS = 3
# `score` scores slowly, so its rounds serve twice to give the serve
# medians as many samples as the other workloads get.
SERVES_PER_ROUND = {"steady": 1, "crowded": 1, "tenants": 1, "score": 2}
UNITS = {"serve_lines_per_s": "lines/s", "serve_cpu_us_per_line": "us/line",
         "recover_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
         "batch_jobs_per_s": "jobs/s", "score_jobs_per_s": "jobs/s"}
PROCESS_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(msg):
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


def host_shards():
    """cores - 1, so the router and the shard domains never outnumber
    the cores."""
    return max(1, len(os.sched_getaffinity(0)) - 1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "./bin/dbp.exe",
           "./perfbench/ledger/ledger.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("build failed: %s" % e)
    if r.returncode != 0 or not (os.path.exists(DBP) and os.path.exists(LEDGER)):
        raise BenchError("build failed:\n" + r.stdout.decode(errors="replace")[-4000:])


def spawn(args, cwd, err_path):
    """Run one process to its end through the ledger's launcher; (wall s,
    user+sys s, peak RSS MB, exit code).  The launcher, not this runner,
    forks the process, so its peak RSS is its own (see spawn_stubs.c)."""
    r = subprocess.run([LEDGER, "spawn", err_path] + args, cwd=cwd,
                       stdout=subprocess.PIPE, timeout=PROCESS_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("launcher failed on %s" % " ".join(args))
    o = json.loads(r.stdout)
    return o["wall_s"], o["cpu_s"], o["maxrss_kb"] / 1024.0, o["code"]


def run_ledger(args, cwd):
    r = subprocess.run([LEDGER] + args, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=PROCESS_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("ledger %s failed: %s" % (args[0], r.stderr.decode()[-2000:]))
    return r.stdout.decode()


def md5(path):
    h = hashlib.md5()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def serve_args(paths, shards, output="serve.journal", resume=False):
    a = [DBP, "serve", "-a", "first-fit", "--input", paths["arrivals"],
         "-o", output, "--snapshot", output + ".snap"]
    if shards:
        a += ["--shards", str(shards)]
    if resume:
        a.append("--resume")
    return a


def clear_serve_files(work):
    for f in os.listdir(work):
        if f.startswith("serve."):
            os.remove(os.path.join(work, f))


def serve_outputs(journal, shards):
    if not shards:
        return {"journal": checks.read_lines(journal)}
    return {
        "merged": checks.read_lines(journal),
        "segments": [checks.read_lines("%s.shard%d" % (journal, k)) for k in range(shards)],
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(workload, paths, lines, work, seconds, shards):
    """Rounds until --seconds have passed: one in-process sample (set-up,
    batch engine, scoring) from the ledger coprocess, then `dbp serve`
    and `dbp serve --resume` SERVES_PER_ROUND times.  Every figure is the
    median of its samples."""
    ledger = subprocess.Popen(
        [LEDGER, "e2e", "--instance", paths["instance"], "--score",
         ",".join(paths["score"]), "--shards", str(shards), "--work", work],
        cwd=work, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        engine_usage = json.loads(ledger.stdout.readline())["engine_usage"]
        samples = {k: [] for k in ("serve_lines_per_s", "serve_cpu_us_per_line",
                                   "recover_s", "peak_rss_mb", "setup_s",
                                   "batch_jobs_per_s", "score_jobs_per_s")}
        failed = attempted = 0
        digest = None
        errors = []
        start = time.perf_counter()
        rounds = 0
        # Stop before a round that would overrun --seconds.
        while rounds < MIN_ROUNDS or (time.perf_counter() - start) * (rounds + 1) / rounds < seconds:
            rounds += 1
            ledger.stdin.write("round\n")
            ledger.stdin.flush()
            r = json.loads(ledger.stdout.readline())
            for k in ("setup_s", "batch_jobs_per_s", "score_jobs_per_s"):
                samples[k].append(r[k])
            evaluations = r["evaluate"]
            for _ in range(SERVES_PER_ROUND[workload]):
                clear_serve_files(work)
                attempted += 2 * lines
                wall, cpu, rss, code = spawn(serve_args(paths, shards), work,
                                             os.path.join(work, "serve.err"))
                r_wall, _, _, r_code = spawn(serve_args(paths, shards, resume=True),
                                             work, os.path.join(work, "serve.err"))
                if code != 0 or r_code != 0:
                    failed += 2 * lines
                    log("dbp serve exited %d, --resume %d" % (code, r_code))
                    continue
                d = md5(os.path.join(work, "serve.journal"))
                if digest is None:
                    digest = d
                elif d != digest:
                    errors.append("a serve round's journal differs from the first's")
                samples["serve_lines_per_s"].append(lines / wall)
                samples["serve_cpu_us_per_line"].append(cpu * 1e6 / lines)
                samples["recover_s"].append(r_wall)
                samples["peak_rss_mb"].append(rss)
    finally:
        ledger.stdin.close()
        ledger.wait(timeout=PROCESS_TIMEOUT_S)
    if not samples["serve_lines_per_s"]:
        raise BenchError("no dbp serve round completed")
    # The journal was checked for determinism after every serve and
    # --resume; the last one is validated in full.
    jobs = checks.read_arrivals(paths["arrivals"])
    usage, errs = checks.check_serve(
        jobs, serve_outputs(os.path.join(work, "serve.journal"), shards), engine_usage)
    errors += errs
    instances = [checks.read_csv(p) for p in paths["score"]]
    packings = checks.read_packings(os.path.join(work, "packings.txt"))
    checked, errs = checks.check_score(instances, packings, evaluations)
    errors += errs
    attempted += checked
    m = {name: metric(statistics.median(v), UNITS[name]) for name, v in samples.items()}
    m["usage_ratio"] = metric(usage / checks.bound_ms(jobs), "ratio")
    log("%s: %d rounds, %d serves, %d packings checked"
        % (workload, rounds, len(samples["serve_lines_per_s"]), checked))
    return m, attempted, failed, errors


def traced(workload, paths, lines, work, seconds, shards):
    k = shards or host_shards()
    out = run_ledger(
        ["trace", "--instance", paths["instance"], "--arrivals", paths["arrivals"],
         "--score", ",".join(paths["score"]), "--shards", str(k),
         "--seconds", "%.3f" % seconds, "--work", work, "--out", "trace.json"], work)
    sys.stdout.write(out)
    with open(os.path.join(work, "trace.json")) as f:
        result = json.load(f)
    # The same input through `dbp serve`, unsharded and sharded: each
    # output is validated, and the ledger's must be byte-identical.
    modes = (
        (0, "unsharded.journal", ["ledger.journal"], "engine_usage"),
        (k, "sharded.journal",
         ["ledger.merged"] + ["ledger.merged.shard%d" % i for i in range(k)],
         "engine_usage_sharded"),
    )
    attempted = failed = 0
    done = []
    for mode_shards, output, ledger_files, usage_key in modes:
        attempted += lines
        _, _, _, code = spawn(serve_args(paths, mode_shards, output), work,
                              os.path.join(work, "serve.err"))
        if code != 0:
            failed += lines
        else:
            done.append((mode_shards, output, ledger_files, usage_key))
    jobs = checks.read_arrivals(paths["arrivals"])
    errors = []
    for mode_shards, output, ledger_files, usage_key in done:
        journal = os.path.join(work, output)
        _, errs = checks.check_serve(jobs, serve_outputs(journal, mode_shards),
                                     result[usage_key])
        errors += errs
        served = [journal] + ["%s.shard%d" % (journal, i) for i in range(mode_shards)]
        for mine, theirs in zip(ledger_files, served):
            attempted += lines
            if md5(os.path.join(work, mine)) != md5(theirs):
                errors.append("ledger %s differs from dbp serve's %s" % (mine, theirs))
    m = result["metrics"]
    log("%s: %d traced rounds" % (workload, result["rounds"]))
    return m, attempted, failed, errors


def run_one(args):
    build()
    work = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    gen = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), args.workload,
         str(args.seed), work], stdout=subprocess.PIPE, check=True)
    made = json.loads(gen.stdout)
    paths = workloads.paths_for(work, made["scored"])
    shards = host_shards() if args.workload in SHARDED else 0
    fn = traced if args.trace else untraced
    m, attempted, failed, errors = fn(args.workload, paths, made["lines"], work,
                                       args.seconds, shards)
    for e in errors:
        log("CHECK FAILED: " + e)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": m}))


def steadiness(args):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = {w: [] for w in names}
    for i in range(args.steadiness):
        for w in names:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(args.seed + i), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            if r.returncode != 0:
                log("%s seed %d exited %d: %s" % (w, args.seed + i, r.returncode,
                                                 r.stderr.decode()[-2000:]))
                continue
            res = json.loads(r.stdout.decode().strip().splitlines()[-1])
            runs[w].append(res)
            log("%s seed %d: %.1f s, correct=%s" % (w, args.seed + i,
                                                   time.perf_counter() - t0, res["correct"]))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print("%-8s %-22s %12s %12s %12s %8s %6s %9s"
          % ("workload", "metric", "q1", "median", "q3", "spread", "bound", "spr/bnd"))
    for w in names:
        rs = runs[w]
        if not rs:
            continue
        share = {r["failed"] / r["attempted"] for r in rs}
        print("%s: %d runs, correct %s, failed shares %s"
              % (w, len(rs), all(r["correct"] for r in rs), sorted(share)))
        for name in sorted(rs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            b = bounds.get(name, {}).get("bound")
            print("%-8s %-22s %12.6g %12.6g %12.6g %8.4f %6s %9s"
                  % (w, name, q1, med, q3, spread, b if b is not None else "-",
                     "%.3f" % (spread / b) if b else "-"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, default=0, metavar="N")
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    try:
        if args.steadiness:
            steadiness(args)
        elif args.workload:
            if args.seconds is None:
                args.seconds = 30.0
            run_one(args)
        else:
            ap.error("give --workload or --steadiness")
    except BenchError as e:
        log(str(e))
        sys.exit(2)


if __name__ == "__main__":
    main()
