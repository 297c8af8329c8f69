"""Seeded input generation for the benchmark workloads.

Every quantity is drawn on an integer grid: sizes in units of 1e-4 of a
bin, times in units of 1e-3.  The files carry the exact decimal strings
of those integers, so the program parses them into doubles while the
checks in ``checks.py`` work on the integers themselves and need no
floating-point tolerance for capacity or lower bounds.
"""

import bisect
import itertools
import os
import random

SIZE_UNIT = 10_000  # size k means k / SIZE_UNIT of a bin
TIME_UNIT = 1_000  # time t means t / TIME_UNIT

# Arrival lines of the serve-shaped workloads: one `dbp serve` pass takes
# about 0.4 s (steady, tenants) and 1.5 s (crowded, past its ~6k-arrival
# ramp) on a 2-core host.
STEADY_LINES = 60_000
CROWDED_LINES = 24_000
TENANT_KEYS = 64
ZIPF_S = 1.1

# `score`: (jobs, mu) per instance, uniform-generator shape.  Its serve
# stream is the instances concatenated in time SCORE_SERVE_COPIES times
# (~13k lines), long enough that process start-up does not dominate.
SCORE_INSTANCES = ((220, 2.0), (220, 10.0), (220, 100.0))
SCORE_SERVE_COPIES = 20
# Serve-shaped workloads also report the score layers, on this prefix.
SCORE_PREFIX = 160


class Job:
    __slots__ = ("id", "size", "arrival", "departure", "tenant")

    def __init__(self, id, size, arrival, departure, tenant=None):
        self.id = id
        self.size = size
        self.arrival = arrival
        self.departure = departure
        self.tenant = tenant


def fmt_size(k):
    return "%d.%04d" % divmod(k, SIZE_UNIT)


def fmt_time(t):
    return "%d.%03d" % divmod(t, TIME_UNIT)


def _uniform_int(rng, lo, hi, unit):
    return max(1, round(rng.uniform(lo, hi) * unit))


def _poisson_arrivals(rng, n, rate):
    t = 0.0
    out = []
    for _ in range(n):
        t += rng.expovariate(rate)
        out.append(round(t * TIME_UNIT))
    return out


def _steady_jobs(rng, n, tenants=False):
    if tenants:
        cum = list(itertools.accumulate(
            1.0 / (k + 1) ** ZIPF_S for k in range(TENANT_KEYS)))
    jobs = []
    for i, a in enumerate(_poisson_arrivals(rng, n, 2.0)):
        size = _uniform_int(rng, 0.05, 0.5, SIZE_UNIT)
        dur = min(50.0, max(0.5, rng.expovariate(1.0 / 5.0)))
        tenant = None
        if tenants:
            tenant = "t%d" % bisect.bisect_left(cum, rng.random() * cum[-1])
        jobs.append(Job(i, size, a, a + round(dur * TIME_UNIT), tenant))
    return jobs


def _crowded_jobs(rng, n):
    jobs = []
    for i, a in enumerate(_poisson_arrivals(rng, n, 2.0)):
        size = _uniform_int(rng, 0.05, 0.3, SIZE_UNIT)
        dur = rng.uniform(0.5, 1.5) * 2000.0
        jobs.append(Job(i, size, a, a + round(dur * TIME_UNIT)))
    return jobs


def _with_mu_jobs(rng, n, mu):
    """The uniform generator's ratio-vs-mu shape: Poisson arrivals at
    rate 2, durations U(1, mu) with both extremes forced, sizes
    U(0.05, 0.5)."""
    jobs = []
    for i, a in enumerate(_poisson_arrivals(rng, n, 2.0)):
        if i == 0:
            dur = 1.0
        elif i == 1:
            dur = mu
        else:
            dur = rng.uniform(1.0, mu)
        size = _uniform_int(rng, 0.05, 0.5, SIZE_UNIT)
        jobs.append(Job(i, size, a, a + round(dur * TIME_UNIT)))
    return jobs


def score_instances(seed):
    rng = random.Random("score-%d" % seed)
    return [_with_mu_jobs(rng, n, mu) for n, mu in SCORE_INSTANCES]


def _concat(instances):
    """One arrival stream out of several instances: each is shifted to
    start after the previous one has fully departed, ids renumbered."""
    jobs = []
    offset = 0
    for inst in instances:
        base = len(jobs)
        for j in inst:
            jobs.append(
                Job(base + j.id, j.size, j.arrival + offset, j.departure + offset)
            )
        offset = max(j.departure for j in jobs) + TIME_UNIT
    return jobs


def generate(workload, seed):
    """Return (serve jobs in arrival order, list of score instances)."""
    rng = random.Random("%s-%d" % (workload, seed))
    if workload == "steady":
        jobs = _steady_jobs(rng, STEADY_LINES)
    elif workload == "tenants":
        jobs = _steady_jobs(rng, STEADY_LINES, tenants=True)
    elif workload == "crowded":
        jobs = _crowded_jobs(rng, CROWDED_LINES)
    elif workload == "score":
        scored = score_instances(seed)
        return _concat(scored * SCORE_SERVE_COPIES), scored
    else:
        raise ValueError("unknown workload %r" % workload)
    prefix = [
        Job(j.id, j.size, j.arrival, j.departure) for j in jobs[:SCORE_PREFIX]
    ]
    return jobs, [prefix]


def csv_text(jobs):
    lines = ["id,size,arrival,departure"]
    for j in jobs:
        lines.append(
            "%d,%s,%s,%s"
            % (j.id, fmt_size(j.size), fmt_time(j.arrival), fmt_time(j.departure))
        )
    return "\n".join(lines) + "\n"


def jsonl_text(jobs):
    out = []
    for j in jobs:
        tenant = "" if j.tenant is None else ',"tenant":"%s"' % j.tenant
        out.append(
            '{"id":%d,"size":%s,"arrival":%s,"departure":%s%s}'
            % (j.id, fmt_size(j.size), fmt_time(j.arrival), fmt_time(j.departure),
               tenant)
        )
    return "\n".join(out) + "\n"


def paths_for(work_dir, scored):
    return {
        "arrivals": os.path.join(work_dir, "arrivals.jsonl"),
        "instance": os.path.join(work_dir, "instance.csv"),
        "score": [os.path.join(work_dir, "score%d.csv" % k) for k in range(scored)],
    }


def write(workload, seed, work_dir):
    """Write the workload's files; return their paths, the serve jobs
    and the score instances."""
    jobs, scored = generate(workload, seed)
    os.makedirs(work_dir, exist_ok=True)
    paths = paths_for(work_dir, len(scored))
    with open(paths["arrivals"], "w") as f:
        f.write(jsonl_text(jobs))
    with open(paths["instance"], "w") as f:
        f.write(csv_text(jobs))
    for p, inst in zip(paths["score"], scored):
        with open(p, "w") as f:
            f.write(csv_text(inst))
    return paths, jobs, scored


if __name__ == "__main__":
    # Generation runs in its own process so that the benchmark runner's
    # memory high-water mark, which every process it spawns inherits into
    # its peak-RSS figure, stays that of a small Python process.
    import json
    import sys

    paths, jobs, scored = write(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print(json.dumps({"lines": len(jobs), "scored": len(scored)}))
