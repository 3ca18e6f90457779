#!/usr/bin/env python3
"""Read, merge, validate and fit telemetry shards (docs/telemetry.md).

Each rank of a run with PX_TRACE=1 and/or PX_STATS=1 writes one binary
shard, `px_telemetry.<rank>.bin`: a header (magic, version, rank, clock
offset to rank 0) followed by typed, length-prefixed sections -- trace
`events` (one per ring), the `counters` movement since boot, and the
stats `sampler` summary plus one `series` section per counter.

  trace  SHARDS -o trace.json   Chrome trace_event JSON for Perfetto: a
                                process per rank, a thread per ring, fiber
                                slices, and parcel send -> dispatch flow
                                arrows across ranks
  stats  SHARDS -o stats.json   every rank's series on one timeline, with
                                the machine's parcel rate and per-rank p99
                                send -> dispatch latency
  check  OUT.json               validates either output (--min-ranks,
                                --min-ticks)
  fit    [--binary B ...]       sweeps B with PX_STATS=1, fits a power law
                                per counter, gates it with --check REF

All subcommands share one shard parser, one clock normalisation
(rank0_time = local_time - clock_offset_ns) and one duplicate-rank
check.  Any error prints `ERROR: ...` on stderr and exits 1.  Stdlib only:

  python3 tools/px_telemetry.py trace out/px_telemetry.*.bin -o trace.json
  python3 tools/px_telemetry.py check trace.json --min-ranks 4
"""

import argparse
import json
import math
import os
import struct
import subprocess
import sys
import tempfile

MAGIC = 0x52545850  # "PXTR"
VERSION = 2
HEADER = struct.Struct("<IIIIq")  # magic, version, rank, reserved, offset
SECTION = struct.Struct("<IIQ")   # kind, reserved, body bytes
EVENT = struct.Struct("<qQQQQII")  # ts, trace, span, parent, data, kind, arg
POINT = struct.Struct("<qQ")       # ts, value
EVENTS, COUNTERS, SAMPLER, SERIES = 1, 2, 3, 4

KIND_NAMES = [
    "none", "fiber_spawn", "fiber_start", "fiber_suspend", "fiber_resume",
    "fiber_yield", "fiber_end", "parcel_send", "parcel_enqueue", "wire_tx",
    "wire_rx", "parcel_dispatch", "lco_wait", "lco_fire", "migrate_begin",
    "migrate_implant", "migrate_end",
]
FIBER_SLICE_END = {"fiber_end", "fiber_suspend", "fiber_yield"}


class ShardError(Exception):
    pass


# ------------------------------------------------------------ shard parser

def read_name(blob, off, end, where):
    if off + 4 > end:
        raise ShardError(f"{where}: truncated name")
    (n,) = struct.unpack_from("<I", blob, off)
    if off + 4 + n > end:
        raise ShardError(f"{where}: name runs past its section")
    return blob[off + 4:off + 4 + n].decode("utf-8", "replace"), off + 4 + n


def parse_shard(path):
    """Returns one shard as a dict; timestamps are on rank 0's clock."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < HEADER.size:
        raise ShardError(f"{path}: truncated header")
    magic, version, rank, _, offset = HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ShardError(f"{path}: bad magic 0x{magic:08x}")
    if version != VERSION:
        raise ShardError(f"{path}: unsupported shard version {version}")
    shard = {"path": path, "rank": rank, "clock_offset_ns": offset,
             "rings": {}, "counters": {}, "sampler": None, "series": {}}
    off = HEADER.size
    while off < len(blob):
        where = f"{path}: section at byte {off}"
        if off + SECTION.size > len(blob):
            raise ShardError(f"{where}: truncated section header")
        kind, _, length = SECTION.unpack_from(blob, off)
        off += SECTION.size
        end = off + length
        if end > len(blob):
            raise ShardError(f"{where}: {length} bytes claimed, section "
                             "runs past the end of the file")
        if kind == EVENTS:
            if length < 8 or (length - 8) % EVENT.size:
                raise ShardError(f"{where}: bad events size {length}")
            (ring,) = struct.unpack_from("<I", blob, off)
            shard["rings"].setdefault(ring, []).extend(
                {"ts": ts - offset, "trace": trace, "span": span,
                 "parent": parent, "data": data, "arg": arg,
                 "kind": KIND_NAMES[k] if k < len(KIND_NAMES) else f"kind{k}"}
                for ts, trace, span, parent, data, k, arg
                in EVENT.iter_unpack(blob[off + 8:end]))
        elif kind == COUNTERS:
            while off < end:
                name, off = read_name(blob, off, end, where)
                if off + 8 > end:
                    raise ShardError(f"{where}: truncated counter {name}")
                (shard["counters"][name],) = struct.unpack_from("<q", blob, off)
                off += 8
        elif kind == SAMPLER:
            if length != 24:
                raise ShardError(f"{where}: bad sampler size {length}")
            shard["sampler"] = dict(zip(
                ("interval_us", "ticks", "dropped_points"),
                struct.unpack_from("<QQQ", blob, off)))
        elif kind == SERIES:
            name, off = read_name(blob, off, end, where)
            if (end - off) % POINT.size:
                raise ShardError(f"{where}: series {name} has a partial point")
            shard["series"][name] = [
                [ts - offset, value]
                for ts, value in POINT.iter_unpack(blob[off:end])]
        else:
            raise ShardError(f"{where}: unknown section kind {kind}")
        off = end
    return shard


def load_shards(paths, need):
    """Parses every shard, rank-ordered; `need` names the required part."""
    shards = {}
    for path in paths:
        shard = parse_shard(path)
        if shard["rank"] in shards:
            raise ShardError(f"{path}: duplicate shard for rank "
                             f"{shard['rank']} "
                             f"(also {shards[shard['rank']]['path']})")
        if need == "events" and not shard["rings"]:
            raise ShardError(f"{path}: no events sections (PX_TRACE off?)")
        if need == "series" and shard["sampler"] is None:
            raise ShardError(f"{path}: no sampler section (PX_STATS off?)")
        shards[shard["rank"]] = shard
    return [shards[r] for r in sorted(shards)]


def counter_max(shard, tail):
    """A per-rank counter: sim localities share one process-wide value."""
    return max((v for k, v in shard["counters"].items()
                if k.endswith("/" + tail)), default=0)


# ------------------------------------------------------------------ trace

def fiber_slices(events):
    """Pairs fiber_start with the next slice-ending event of the fiber."""
    slices, rest, start = [], [], None
    for ev in events:
        if ev["kind"] == "fiber_start":
            if start is not None:
                rest.append(start)  # unterminated (ring drop)
            start = ev
        elif (ev["kind"] in FIBER_SLICE_END and start is not None
              and ev["data"] == start["data"]):
            slices.append((start, ev))
            start = None
        else:
            rest.append(ev)
    if start is not None:
        rest.append(start)
    return slices, rest


def trace_events(shards):
    out, sends, dispatches = [], {}, {}
    for shard in shards:
        pid = shard["rank"]
        out.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": f"rank {pid}"}})
        moved = {k: v for k, v in sorted(shard["counters"].items()) if v}
        if moved:
            out.append({"ph": "M", "name": "process_labels", "pid": pid,
                        "tid": 0, "args": {"labels": json.dumps(moved)}})
        for tid, events in sorted(shard["rings"].items()):
            out.append({"ph": "M", "name": "thread_name", "pid": pid,
                        "tid": tid, "args": {"name": f"ring {tid}"}})
            slices, rest = fiber_slices(events)
            for start, end in slices:
                out.append({
                    "ph": "X", "name": f"fiber {start['data']}",
                    "cat": "fiber", "pid": pid, "tid": tid,
                    "ts": start["ts"] / 1000.0,
                    "dur": max((end["ts"] - start["ts"]) / 1000.0, 0.001),
                    "args": {"trace": str(start["trace"]),
                             "span": str(start["span"])}})
            for ev in rest:
                record = {
                    "ph": "i", "s": "t", "name": ev["kind"],
                    "cat": ev["kind"].split("_")[0], "pid": pid, "tid": tid,
                    "ts": ev["ts"] / 1000.0,
                    "args": {"trace": str(ev["trace"]),
                             "span": str(ev["span"]),
                             "data": str(ev["data"]), "arg": ev["arg"]}}
                out.append(record)
                key = (ev["trace"], ev["span"])
                if ev["trace"] and ev["kind"] == "parcel_send":
                    sends[key] = record
                elif ev["trace"] and ev["kind"] == "parcel_dispatch":
                    dispatches.setdefault(key, record)
    # One s/f arrow pair per matched send -> dispatch (trace, span) key.
    for (trace, span), send in sorted(sends.items()):
        disp = dispatches.get((trace, span))
        if disp is None:
            continue
        for phase, ref in (("s", send), ("f", disp)):
            arrow = {"ph": phase, "name": "parcel", "cat": "parcel",
                     "id": f"{trace:x}.{span:x}", "pid": ref["pid"],
                     "tid": ref["tid"], "ts": ref["ts"]}
            if phase == "f":
                arrow["bp"] = "e"  # bind to the enclosing slice
            out.append(arrow)
    return out


def cmd_trace(args):
    shards = load_shards(args.shards, "events")
    events = trace_events(shards)
    write_json(args.output, {"traceEvents": events, "displayTimeUnit": "ns"})
    drops = {s["rank"]: counter_max(s, "trace/drops") for s in shards}
    nflow = sum(1 for e in events if e["ph"] == "s")
    print(f"wrote {args.output}: {len(events)} trace events from "
          f"{len(shards)} rank(s), {nflow} parcel flow arrow(s); "
          f"trace/drops per rank {drops}"
          + (" (LOSSY: grow PX_TRACE_RING_BYTES)" if any(drops.values())
             else ""))
    return 0


# ------------------------------------------------------------------ stats

def window_rate(points):
    """First-to-last rate per second, or None without a usable span."""
    if len(points) < 2 or points[-1][0] <= points[0][0]:
        return None
    (t0, v0), (t1, v1) = points[0], points[-1]
    return (v1 - v0) * 1e9 / (t1 - t0)


def merge_stats(shards):
    ranks, series, rate, p99 = [], [], {}, {}
    for shard in shards:
        r = shard["rank"]
        ranks.append({"rank": r, "clock_offset_ns": shard["clock_offset_ns"],
                      **shard["sampler"], "shard": shard["path"]})
        for path, points in sorted(shard["series"].items()):
            series.append({"rank": r, "path": path, "points": points})
            if path.endswith("/parcels/delivered"):
                got = window_rate(points)
                if got is not None:
                    rate[r] = rate.get(r, 0.0) + got
            elif path.endswith("/parcels/hist_dispatch_ns/p99") and points:
                p99[r] = max(p99.get(r, 0), points[-1][1])
    return {"version": 1, "ranks": ranks, "series": series, "derived": {
        "parcel_rate_per_sec": sum(rate.values()),
        "parcel_rate_per_rank": {str(r): v for r, v in sorted(rate.items())},
        "p99_dispatch_ns_per_rank": {str(r): v
                                     for r, v in sorted(p99.items())}}}


def cmd_stats(args):
    merged = merge_stats(load_shards(args.shards, "series"))
    write_json(args.output, merged)
    d = merged["derived"]
    print(f"merged {len(merged['ranks'])} shard(s), "
          f"{len(merged['series'])} series -> {args.output}; machine parcel "
          f"rate {d['parcel_rate_per_sec']:.1f}/s; p99 dispatch ns per rank "
          f"{d['p99_dispatch_ns_per_rank']}")
    return 0


# ------------------------------------------------------------------ check

REQUIRED_BY_PHASE = {
    "M": ("name", "pid"),
    "X": ("name", "pid", "tid", "ts", "dur"),
    "i": ("name", "pid", "tid", "ts"),
    "s": ("name", "id", "pid", "tid", "ts"),
    "f": ("name", "id", "pid", "tid", "ts"),
}


def check_trace(doc, min_ranks):
    """Perfetto-loadable, and at least one flow edge crosses ranks."""
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        return ["'traceEvents' must be a non-empty list"], ""
    errors, starts, finishes, pids = [], {}, {}, set()
    for i, ev in enumerate(events):
        ph = ev.get("ph") if isinstance(ev, dict) else None
        if ph not in REQUIRED_BY_PHASE:
            errors.append(f"event {i} has unknown phase {ph!r}")
            continue
        pids.add(ev.get("pid"))
        errors += [f"event {i} (ph={ph}) missing key '{key}'"
                   for key in REQUIRED_BY_PHASE[ph] if key not in ev]
        errors += [f"event {i} has non-numeric '{key}'"
                   for key in ("ts", "dur")
                   if key in ev and not isinstance(ev[key], (int, float))]
        if ph == "s":
            starts[ev.get("id")] = ev
        elif ph == "f":
            finishes.setdefault(ev.get("id"), ev)
    if len(pids) < min_ranks:
        errors.append(f"expected >= {min_ranks} rank(s), found {len(pids)}")
    cross = sum(1 for fid, s in starts.items()
                if fid in finishes and finishes[fid].get("pid") != s.get("pid"))
    if not starts:
        errors.append("no flow-start ('s') events: no parcel edges merged")
    elif cross == 0:
        errors.append("no cross-rank flow edge (an s/f pair with differing "
                      "pids): the causal chain never crosses a process")
    return errors, (f"{len(events)} events, {len(starts)} flow edges, "
                    f"{cross} cross-rank")


def check_stats(doc, min_ranks, min_ticks):
    """Monotone series, enough ranks and ticks, parcels moving on them."""
    errors = []
    ranks, series = doc.get("ranks", []), doc.get("series", [])
    if len(ranks) < min_ranks:
        errors.append(f"expected >= {min_ranks} rank(s), found {len(ranks)}")
    errors += [f"rank {r.get('rank')}: only {r.get('ticks', 0)} sampler "
               f"tick(s), expected >= {min_ticks}"
               for r in ranks if r.get("ticks", 0) < min_ticks]
    if not series:
        errors.append("no series in merged timeline")
    for s in series:
        pts = s.get("points", [])
        bad = next((i for i in range(1, len(pts))
                    if pts[i][0] <= pts[i - 1][0]), None)
        if bad is not None:
            errors.append(f"rank {s.get('rank')} series {s.get('path')}: "
                          f"non-monotone timestamps at point {bad}")
    derived = doc.get("derived", {})
    rate = derived.get("parcel_rate_per_sec", 0.0)
    if rate <= 0.0:
        errors.append(f"machine-wide parcel rate is {rate}, expected > 0")
    delivering = sorted(r for r, v in
                        derived.get("parcel_rate_per_rank", {}).items()
                        if v > 0.0)
    if min_ranks > 1 and len(delivering) < 2:
        errors.append(f"parcels delivered on ranks {delivering}; a "
                      "distributed run must deliver on >= 2 ranks")
    p99 = derived.get("p99_dispatch_ns_per_rank", {})
    errors += [f"rank {r} delivered parcels but reports no p99 dispatch "
               "latency" for r in delivering if p99.get(r, 0) <= 0]
    return errors, (f"{len(ranks)} rank(s), {len(series)} series, parcel "
                    f"rate {rate:.1f}/s")


def cmd_check(args):
    with open(args.output_json, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except ValueError as e:
            raise ShardError(f"{args.output_json}: not JSON: {e}") from e
    if isinstance(doc, dict) and "traceEvents" in doc:
        errors, summary = check_trace(doc, args.min_ranks)
    elif isinstance(doc, dict) and "series" in doc and "ranks" in doc:
        errors, summary = check_stats(doc, args.min_ranks, args.min_ticks)
    else:
        errors = ["neither a trace nor a stats output"]
    for e in errors:
        print(f"ERROR: {args.output_json}: {e}", file=sys.stderr)
    if not errors:
        print(f"ok: {args.output_json}: {summary}")
    return 1 if errors else 0


# -------------------------------------------------------------------- fit

def sweep_point(args, iters, tails):
    """Runs one sweep point; sums each tail's windowed delta over ranks."""
    with tempfile.TemporaryDirectory(prefix="px_fit.") as out:
        env = dict(os.environ, PX_STATS="1", PX_TELEMETRY_DIR=out,
                   PX_STATS_INTERVAL_US=str(args.interval_us))
        proc = subprocess.run(
            [args.binary, str(args.ranks), str(iters)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=args.timeout)
        if proc.returncode != 0:
            raise ShardError(
                f"{args.binary} {args.ranks} {iters} exited "
                f"{proc.returncode}: {proc.stderr.decode(errors='replace')}")
        paths = [os.path.join(out, f) for f in sorted(os.listdir(out))
                 if f.startswith("px_telemetry.") and f.endswith(".bin")]
        if not paths:
            raise ShardError(f"no px_telemetry shards in {out}")
        totals = dict.fromkeys(tails, 0)
        for shard in load_shards(paths, "series"):
            for path, pts in shard["series"].items():
                for t in tails:
                    if path.endswith("/" + t) and len(pts) >= 2:
                        totals[t] += pts[-1][1] - pts[0][1]
        return totals


def fit_power_law(xs, ys):
    """Least squares on log(y) = log(coeff) + exponent*log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1)) for y in ys]  # a dead counter fits ~0
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    if sxx == 0.0:
        raise ShardError("need >= 2 distinct sweep points")
    slope = sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx
    icpt = my - slope * mx
    ss_tot = sum((b - my) ** 2 for b in ly)
    ss_res = sum((b - (icpt + slope * a)) ** 2 for a, b in zip(lx, ly))
    return slope, math.exp(icpt), 1.0 - ss_res / ss_tot if ss_tot else 1.0


def cmd_fit(args):
    if args.model is not None:
        with open(args.model, encoding="utf-8") as f:
            model = json.load(f)
    else:
        points = [int(p) for p in args.points.split(",") if p]
        tails = [t for t in args.counters.split(",") if t]
        if len(points) < 2:
            raise ShardError("need >= 2 sweep points")
        sweep = []
        for iters in points:
            totals = sweep_point(args, iters, tails)
            sweep.append({"iters": iters, "counters": totals})
            print(f"point iters={iters}: " +
                  ", ".join(f"{t}={totals[t]}" for t in tails))
        fits = {}
        for t in tails:
            e, c, r2 = fit_power_law(points,
                                     [p["counters"][t] for p in sweep])
            fits[t] = {"exponent": round(e, 4), "coeff": round(c, 4),
                       "r2": round(r2, 4)}
            print(f"fit {t}: total ~ {c:.2f} * x^{e:.3f} (r2={r2:.3f})")
        model = {"version": 1, "binary": os.path.basename(args.binary),
                 "ranks": args.ranks, "sweep": sweep, "fits": fits}
        write_json(args.output, model, indent=1)
        print(f"wrote {args.output}")
    if args.check is None:
        return 0
    with open(args.check, encoding="utf-8") as f:
        reference = json.load(f)
    errors = []
    for counter, ref in reference.get("fits", {}).items():
        got = model.get("fits", {}).get(counter)
        if got is None:
            errors.append(f"{counter}: fitted model has no entry")
        elif got["exponent"] - ref["exponent"] > args.tolerance:
            errors.append(
                f"{counter}: exponent {got['exponent']:.3f} exceeds "
                f"reference {ref['exponent']:.3f} by more than "
                f"{args.tolerance}")
    for e in errors:
        print(f"ERROR: {e}", file=sys.stderr)
    if not errors:
        print(f"ok: {len(reference.get('fits', {}))} counter exponent(s) "
              f"within tolerance {args.tolerance}")
    return 1 if errors else 0


# ------------------------------------------------------------------- main

def write_json(path, doc, indent=None):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=indent)
        f.write("\n")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, default in (("trace", "trace.json"), ("stats", "stats.json")):
        p = sub.add_parser(name, help=f"merge shards into {default}")
        p.add_argument("shards", nargs="+", help="px_telemetry.<rank>.bin")
        p.add_argument("-o", "--output", default=default)
    p = sub.add_parser("check", help="validate a trace or stats output")
    p.add_argument("output_json")
    p.add_argument("--min-ranks", type=int, default=1)
    p.add_argument("--min-ticks", type=int, default=2)
    p = sub.add_parser("fit", help="fit counter scaling models")
    p.add_argument("--binary", default="build/example_distributed_pingpong",
                   help="self-launching binary: <binary> <ranks> <iters>")
    p.add_argument("--ranks", type=int, default=2)
    p.add_argument("--points", default="100,200,400,800",
                   help="comma-separated iteration counts to sweep")
    p.add_argument("--counters",
                   default="parcels/sent,parcels/delivered,net/msgs_tx,"
                           "sched/spawned",
                   help="comma-separated counter path tails to fit")
    p.add_argument("--interval-us", type=int, default=2000,
                   help="PX_STATS_INTERVAL_US for sweep runs")
    p.add_argument("--timeout", type=int, default=120,
                   help="per-point timeout in seconds")
    p.add_argument("-o", "--output", default="BENCH_model.json")
    p.add_argument("--model", help="check this model instead of sweeping")
    p.add_argument("--check", help="reference model to gate exponents by")
    p.add_argument("--tolerance", type=float, default=0.25,
                   help="max allowed exponent increase over the reference")
    args = ap.parse_args(argv)
    cmd = {"trace": cmd_trace, "stats": cmd_stats, "check": cmd_check,
           "fit": cmd_fit}[args.cmd]
    try:
        return cmd(args)
    except (ShardError, OSError, ValueError, KeyError, TypeError,
            AttributeError,
            subprocess.TimeoutExpired) as e:
        print(f"ERROR: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
