"""Checks of the program's outputs, computed apart from the program.

Inputs are re-read from the generated files and parsed exactly: every
size is an integer number of 1e-4 bins and every time an integer number
of milliseconds (see ``workloads.py``), so capacity, usage and the lower
bounds below are exact integer arithmetic.  Nothing here compares
against a stored copy of earlier output.
"""

import collections
import json
from decimal import Decimal

from workloads import SIZE_UNIT, TIME_UNIT, Job


def _units(value, unit):
    scaled = Decimal(value) * unit
    if scaled != scaled.to_integral_value():
        raise ValueError("%s is off the %d-unit grid" % (value, unit))
    return int(scaled)


def read_arrivals(path):
    jobs = []
    with open(path) as f:
        for line in f:
            o = json.loads(line, parse_float=Decimal)
            jobs.append(
                Job(
                    o["id"],
                    _units(o["size"], SIZE_UNIT),
                    _units(o["arrival"], TIME_UNIT),
                    _units(o["departure"], TIME_UNIT),
                    o.get("tenant"),
                )
            )
    return jobs


def read_csv(path):
    jobs = []
    with open(path) as f:
        next(f)
        for line in f:
            i, s, a, d = line.strip().split(",")
            jobs.append(
                Job(int(i), _units(s, SIZE_UNIT), _units(a, TIME_UNIT),
                    _units(d, TIME_UNIT))
            )
    return jobs


def read_lines(path):
    with open(path) as f:
        return f.read().splitlines()


def _union_length(intervals):
    total = 0
    end = None
    for a, d in sorted(intervals):
        if end is None or a > end:
            total += d - a
            end = d
        elif d > end:
            total += d - end
            end = d
    return total


def _sweep(jobs, bin_of):
    """Per-instant load of every bin, departures before arrivals at
    equal times (intervals are half-open).  Returns the first overflow
    found as a message, or None."""
    events = []
    for j in jobs:
        events.append((j.arrival, 1, j))
        events.append((j.departure, 0, j))
    events.sort(key=lambda e: (e[0], e[1]))
    load = collections.defaultdict(int)
    for t, kind, j in events:
        b = bin_of[j.id]
        if kind == 0:
            load[b] -= j.size
        else:
            load[b] += j.size
            if load[b] > SIZE_UNIT:
                return "bin %s holds %d/%d at t=%d ms" % (b, load[b], SIZE_UNIT, t)
    return None


def bin_usage(jobs, bin_of):
    """Total usage in ms: sum over bins of the union of their jobs'
    intervals."""
    per_bin = collections.defaultdict(list)
    for j in jobs:
        per_bin[bin_of[j.id]].append((j.arrival, j.departure))
    return sum(_union_length(iv) for iv in per_bin.values()), per_bin


def lower_bounds(jobs):
    """(demand, span, integral of ceil S(t)), all in ms of one bin, the
    demand as an exact fraction numerator over SIZE_UNIT."""
    demand_num = sum(j.size * (j.departure - j.arrival) for j in jobs)
    span = _union_length([(j.arrival, j.departure) for j in jobs])
    deltas = collections.defaultdict(int)
    for j in jobs:
        deltas[j.arrival] += j.size
        deltas[j.departure] -= j.size
    ceil_integral = 0
    level = 0
    prev = None
    for t in sorted(deltas):
        if prev is not None and level > 0:
            ceil_integral += -(-level // SIZE_UNIT) * (t - prev)
        level += deltas[t]
        prev = t
    return demand_num, span, ceil_integral


def bound_ms(jobs):
    demand_num, span, ceil_integral = lower_bounds(jobs)
    return max(demand_num / SIZE_UNIT, span, ceil_integral)


def close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_decisions(jobs, decisions, where):
    """One Placed decision per arrival, in input order, seq from 0; no
    job placed twice; each bin's opening flag on its first job only.
    Returns (bin_of, errors)."""
    errors = []
    if len(decisions) != len(jobs):
        errors.append("%s: %d decisions for %d arrivals"
                      % (where, len(decisions), len(jobs)))
        return {}, errors
    bin_of = {}
    seen_bins = set()
    for k, (j, d) in enumerate(zip(jobs, decisions)):
        if d.get("seq") != k or d.get("job") != j.id or "bin" not in d:
            errors.append("%s: line %d is %r for job %d" % (where, k, d, j.id))
            break
        if j.id in bin_of:
            errors.append("%s: job %d placed twice" % (where, j.id))
            break
        bin_of[j.id] = d["bin"]
        if d["opened"] != (d["bin"] not in seen_bins):
            errors.append("%s: line %d opened flag disagrees" % (where, k))
            break
        seen_bins.add(d["bin"])
    return bin_of, errors


def check_serve(jobs, outputs, engine_usage):
    """Validate a `dbp serve` run.  ``outputs`` holds raw output lines:
    "journal" for an unsharded run, or "merged" and "segments" for a
    sharded one.  Returns (usage in ms, errors)."""
    errors = []
    if "journal" in outputs:
        decisions = [json.loads(x) for x in outputs["journal"]]
        bin_of, errs = check_decisions(jobs, decisions, "journal")
        errors += errs
    else:
        merged, segments = outputs["merged"], outputs["segments"]
        if len(merged) != len(jobs):
            errors.append("merged: %d lines for %d arrivals" % (len(merged), len(jobs)))
            return 0, errors
        routed = [[] for _ in segments]
        home = {}
        cursor = [0] * len(segments)
        for g, (j, line) in enumerate(zip(jobs, merged)):
            k = json.loads(line).get("shard")
            if not isinstance(k, int) or not 0 <= k < len(segments):
                errors.append("merged line %d has no valid shard label" % g)
                return 0, errors
            if home.setdefault(j.tenant, k) != k:
                errors.append("tenant %r lands in shards %d and %d"
                              % (j.tenant, home[j.tenant], k))
                return 0, errors
            seg = segments[k]
            if cursor[k] >= len(seg) or line != '{"shard":%d,' % k + seg[cursor[k]][1:]:
                errors.append("merged line %d is not segment %d line %d"
                              % (g, k, cursor[k]))
                return 0, errors
            cursor[k] += 1
            routed[k].append(j)
        if cursor != [len(s) for s in segments]:
            errors.append("segments hold lines the merged stream lacks")
        bin_of = {}
        for k, seg in enumerate(segments):
            decisions = [json.loads(x) for x in seg]
            b, errs = check_decisions(routed[k], decisions, "segment %d" % k)
            errors += errs
            bin_of.update({job: (k, bin) for job, bin in b.items()})
    if errors:
        return 0, errors
    overflow = _sweep(jobs, bin_of)
    if overflow:
        errors.append(overflow)
    usage, _ = bin_usage(jobs, bin_of)
    if not close(usage / TIME_UNIT, engine_usage, 1e-9):
        errors.append("served usage %.9f differs from Engine.run's %.9f"
                      % (usage / TIME_UNIT, engine_usage))
    demand_num, span, ceil_integral = lower_bounds(jobs)
    if usage * SIZE_UNIT < demand_num or usage < span or usage < ceil_integral:
        errors.append("usage %d ms is below a lower bound (%s, %d, %d)"
                      % (usage, demand_num / SIZE_UNIT, span, ceil_integral))
    return usage, errors


def read_packings(path):
    """packings.txt from the ledger: per (instance, label) the usage it
    reported and the item -> bin assignment."""
    out = {}
    cur = None
    with open(path) as f:
        for line in f:
            parts = line.split()
            if parts[0] == "packing":
                cur = {"usage": float(parts[3]), "bin_of": {}}
                out[(int(parts[1]), parts[2])] = cur
            else:
                cur["bin_of"][int(parts[0])] = int(parts[1])
    return out


def _max_open_over_ceil(jobs, per_bin):
    """Largest open-bins / ceil(S(t)) excess: the first instant where
    more than 4 ceil(S(t)) bins are open, as a message, or None."""
    deltas = collections.defaultdict(lambda: [0, 0])
    for ivs in per_bin.values():
        merged = []
        for a, d in sorted(ivs):
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], d)
            else:
                merged.append([a, d])
        for a, d in merged:
            deltas[a][0] += 1
            deltas[d][0] -= 1
    for j in jobs:
        deltas[j.arrival][1] += j.size
        deltas[j.departure][1] -= j.size
    open_bins = level = 0
    for t in sorted(deltas):
        open_bins += deltas[t][0]
        level += deltas[t][1]
        if open_bins > 4 * -(-level // SIZE_UNIT):
            return "%d bins open at t=%d ms, S=%d/%d" % (open_bins, t, level, SIZE_UNIT)
    return None


def check_score(instances, packings, evaluations):
    """Every portfolio packing of every score instance: a complete
    assignment within capacity, its usage recomputed, the same usage
    Runner.evaluate reported; DDFF within 4 d(R) + span(R) (Theorem 1);
    Dual Coloring with at most 4 ceil(S(t)) bins open (Theorem 2).
    Returns (packings checked, errors)."""
    errors = []
    checked = 0
    for k, jobs in enumerate(instances):
        labels = [lab for (i, lab) in packings if i == k]
        if not labels or set(labels) != set(evaluations[k]):
            errors.append("instance %d: packers %s vs evaluated %s"
                          % (k, sorted(labels), sorted(evaluations[k])))
            continue
        ids = {j.id for j in jobs}
        demand_num, span, _ = lower_bounds(jobs)
        for label in labels:
            checked += 1
            p = packings[(k, label)]
            where = "instance %d %s" % (k, label)
            if set(p["bin_of"]) != ids:
                errors.append("%s: assignment does not cover the items" % where)
                continue
            overflow = _sweep(jobs, p["bin_of"])
            if overflow:
                errors.append("%s: %s" % (where, overflow))
            usage, per_bin = bin_usage(jobs, p["bin_of"])
            if not close(usage / TIME_UNIT, p["usage"], 1e-9):
                errors.append("%s: usage %.9f, recomputed %.9f"
                              % (where, p["usage"], usage / TIME_UNIT))
            if not close(evaluations[k][label], p["usage"], 1e-12):
                errors.append("%s: Runner.evaluate reported %.17g, packing %.17g"
                              % (where, evaluations[k][label], p["usage"]))
            if label == "ddff" and usage * SIZE_UNIT > 4 * demand_num + span * SIZE_UNIT:
                errors.append("%s: usage %d ms above 4 d(R) + span(R)" % (where, usage))
            if label == "dual-coloring":
                excess = _max_open_over_ceil(jobs, per_bin)
                if excess:
                    errors.append("%s: %s" % (where, excess))
    return checked, errors
