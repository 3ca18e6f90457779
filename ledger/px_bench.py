#!/usr/bin/env python3
"""Parcel cost ledger: build px_ledger, run workloads, collate, diff.

Run from the root of a checkout (standard library only):

  python3 ledger/px_bench.py one --workload W --seed N --seconds S --trace 0|1
      One run.  Prints every metric as "name value unit", then as the last
      line one JSON object: correct, attempted, failed, and the metrics
      BENCHMARK.json lists (end_to_end untraced, per_layer traced).
  python3 ledger/px_bench.py run [--repeats 5] [--traced 1] [--out FILE]
      Every workload x repeats (alternating order, one seed per repeat),
      plus traced runs; collated with git sha, nproc and time.
  python3 ledger/px_bench.py noise [--runs 10] [--write]
      Ten seeds per workload; prints each end-to-end metric's relative
      IQR and, with --write, stores max(3 %, 3 x the worst workload's IQR),
      at most 25 %, as its bound.
  python3 ledger/px_bench.py diff A.json B.json
      Per workload and metric: both sides' median and quartiles, the change
      against the bound, and the pairwise win fraction.  Exit 1 on a
      regression; exit 2 when A and B were measured with different windows
      or core counts.
  python3 ledger/px_bench.py breakdown RESULTS.json
      Per-layer rows of each traced run and the residual of the blocking
      path.  Exit 1 on a clock-sanity violation or a missing residual.

run and noise always measure BENCHMARK.json's run_seconds, so two result
sets taken with the same nproc compare.

px_ledger is built with CMake into .bench_build/ledger under the checkout.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "ledger"
BENCHMARK = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
# Printed by every untraced run and shown by noise and diff, but not gated:
# on a shared host the tails, and storm-shm's peak memory, spread more than
# the largest bound allowed, 25 % (ledger/README.md, "Bounds and noise").
INFO = [{"name": "lat_p99_us", "better": "lower"},
        {"name": "lat_p999_us", "better": "lower"},
        {"name": "peak_rss_mb", "better": "lower"}]
# Bound rule: max(3 %, 3 x relative IQR over ten seeds), capped at the
# largest bound BENCHMARK.json may hold.
MIN_BOUND, MAX_BOUND = 0.03, 0.25


def fail(msg):
    print(f"px_bench: {msg}", file=sys.stderr)
    sys.exit(2)


def spec():
    try:
        return json.loads(BENCHMARK.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {BENCHMARK}: {e}")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no runtime sources (CMakeLists.txt, src/) under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(BUILD), "--target", "px_ledger", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "px_ledger"


def drive(binary, workload, seed, seconds, traced):
    """One px_ledger run: (exit code, human lines, full result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)] + (["--traced"] if traced else [])
    try:
        proc = subprocess.run(cmd, cwd=BUILD, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, [], None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, lines[:-1], result


# ------------------------------------------------------------------- one

def cmd_one(args):
    s = spec()
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in s[section]]
    binary = build()
    rc, lines, result = drive(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    for line in lines:
        print(line)
    if result is None:
        fail(f"px_ledger produced no result (exit {rc})")
    metrics = {}
    correct = bool(result.get("correct")) and rc == 0
    for name in wanted:
        m = result["metrics"].get(name)
        if m is None or not math.isfinite(m["value"]):
            print(f"px_bench: metric {name} missing", file=sys.stderr)
            correct = False
            continue
        # End-to-end metrics never read 0 on a working run.
        if section == "end_to_end" and m["value"] <= 0:
            print(f"px_bench: metric {name} reads {m['value']}",
                  file=sys.stderr)
            correct = False
        metrics[name] = m
    print(json.dumps({"correct": correct,
                      "attempted": int(result.get("attempted", 0)),
                      "failed": int(result.get("failed", 0)),
                      "metrics": metrics}))
    return 0 if correct else 1


# ------------------------------------------------------------ run / noise

def stamp():
    def git(*a):
        r = subprocess.run(["git", "-C", str(HERE)] + list(a),
                           stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        return r.stdout.strip() if r.returncode == 0 else ""
    sha = git("rev-parse", "--short", "HEAD") or "unknown"
    if sha != "unknown" and git("status", "--porcelain", "--", "."):
        sha += "-dirty"
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "timestamp_unix": int(time.time())}


def collect(binary, workloads, repeats, seconds, traced):
    """Runs workloads x repeats with seeds 1, 2, ..., alternating the
    workload order each repeat."""
    runs = []
    for seed in range(1, repeats + 1):
        order = workloads if seed % 2 else list(reversed(workloads))
        for w in order:
            rc, _, result = drive(binary, w, seed, seconds, traced)
            ok = result is not None and result.get("correct") and rc == 0
            print(f"  {w:<11} seed {seed:<3} "
                  f"{'traced' if traced else 'untraced'}: "
                  f"{'ok' if ok else f'FAILED (exit {rc})'}", file=sys.stderr)
            runs.append({"workload": w, "seed": seed, "traced": traced,
                         "exit": rc, "result": result})
    return runs


def write_results(path, results):
    """One run per line, so result sets kept in git diff line by line."""
    head = {k: v for k, v in results.items() if k != "runs"}
    runs = ",\n".join(json.dumps(r) for r in results["runs"])
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(head)[:-1] + ', "runs": [\n' + runs
                          + "\n]}\n")
    print(f"wrote {path}", file=sys.stderr)


def cmd_run(args):
    s = spec()
    workloads = [w["name"] for w in s["workloads"]]
    seconds = s["run_seconds"]
    binary = build()
    results = dict(stamp(), seconds=seconds, runs=[])
    results["runs"] += collect(binary, workloads, args.repeats, seconds, False)
    results["runs"] += collect(binary, workloads, args.traced, seconds, True)
    write_results(args.out, results)
    return 0 if all(r["exit"] == 0 for r in results["runs"]) else 1


def values(results, workload, metric, traced=False):
    out = []
    for r in results["runs"]:
        if r["workload"] != workload or r["traced"] != traced:
            continue
        m = (r["result"] or {}).get("metrics", {}).get(metric)
        if m is not None:
            out.append(m["value"])
    return out


def quartiles(vals):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(vals) < 2:
        v = vals[0] if vals else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def rel_iqr(vals):
    q1, q2, q3 = quartiles(vals)
    return (q3 - q1) / q2 if q2 else float("inf")


def cmd_noise(args):
    s = spec()
    workloads = [w["name"] for w in s["workloads"]]
    seconds = s["run_seconds"]
    binary = build()
    results = dict(stamp(), seconds=seconds, runs=[])
    results["runs"] += collect(binary, workloads, args.runs, seconds, False)
    if args.out:
        write_results(args.out, results)
    print(f"{'metric':<15}" + "".join(f"{w:>12}" for w in workloads)
          + f"{'3 x IQR':>9}{'bound':>7}")
    for m in s["end_to_end"] + INFO:
        spreads = [rel_iqr(values(results, w, m["name"])) for w in workloads]
        row = f"{m['name']:<15}" + "".join(f"{x:>12.2%}" for x in spreads)
        wanted = math.ceil(300 * max(spreads)) / 100
        row += f"{wanted:>9.2f}"
        if m in INFO:
            print(row + f"{'-':>7}  not gated")
            continue
        bound = min(MAX_BOUND, max(MIN_BOUND, wanted))
        flag = "  capped" if wanted > MAX_BOUND else ""
        flag += "  above 10 %" if bound > 0.10 else ""
        print(row + f"{bound:>7.2f}{flag}")
        m["bound"] = bound
    if args.write:
        BENCHMARK.write_text(json.dumps(s, indent=2) + "\n")
        print(f"wrote bounds into {BENCHMARK}", file=sys.stderr)
    return 0 if all(r["exit"] == 0 for r in results["runs"]) else 1


# ------------------------------------------------------------------ diff

def cmd_diff(args):
    s = spec()
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    print(f"A: {args.a} ({a.get('git_sha')}, nproc {a.get('nproc')}, "
          f"{a.get('seconds')} s)")
    print(f"B: {args.b} ({b.get('git_sha')}, nproc {b.get('nproc')}, "
          f"{b.get('seconds')} s)")
    for key in ("seconds", "nproc"):
        if a.get(key) != b.get(key):
            fail(f"A and B differ in {key}; their runs do not compare")
    workloads = [w["name"] for w in s["workloads"]]
    regressed = False
    for w in workloads:
        rows = []
        for m in s["end_to_end"] + INFO:
            av, bv = values(a, w, m["name"]), values(b, w, m["name"])
            if not av or not bv:
                continue
            aq, bq = quartiles(av), quartiles(bv)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (bq[1] - aq[1]) / aq[1] if aq[1] else 0.0
            pairs = list(zip(av, bv))
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            spread = max(rel_iqr(av), rel_iqr(bv))
            all_better = all(sign * (y - x) < 0 for x in av for y in bv)
            bound = m.get("bound")
            if bound is None:
                verdict, gate = "not gated", "         "
            else:
                gate = f"(bound {bound:.0%})"
                if worse > bound:
                    verdict = "REGRESSED"
                elif spread > bound and not all_better:
                    verdict = "unresolved"
                elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                      and abs(bq[1] - aq[1]) > aq[2] - aq[0]):
                    verdict = "better"
                else:
                    verdict = "same"
            regressed |= verdict == "REGRESSED"
            rows.append(f"  {m['name']:<14} A {aq[1]:>12.5g} [{aq[0]:.5g}, "
                        f"{aq[2]:.5g}]  B {bq[1]:>12.5g} [{bq[0]:.5g}, "
                        f"{bq[2]:.5g}]  worse {worse:>+7.2%} {gate}  "
                        f"B wins {wins}/{len(pairs)}  {verdict}")
        if rows:
            print(f"{w}:")
            print("\n".join(rows))
    return 1 if regressed else 0


# ------------------------------------------------------------- breakdown

SPANS = ["span.issue_us", "span.request_us", "span.handler_us",
         "span.reply_us"]
PATH = ["path.serialize_us", "path.port_us", "path.net_us",
        "path.threads_us", "path.lco_us"]


def cmd_breakdown(args):
    s = spec()
    results = json.loads(Path(args.results).read_text())
    traced = sorted({r["workload"] for r in results["runs"] if r["traced"]})
    bad = 0
    for w in traced:
        def med(name):
            v = values(results, w, name, traced=True)
            return statistics.median(v) if v else None
        unit = {}
        for r in results["runs"]:
            if r["workload"] == w and r["traced"] and r["result"]:
                unit.update({k: m["unit"]
                             for k, m in r["result"]["metrics"].items()})
        print(f"== {w} (traced runs: "
              f"{len(values(results, w, 'span.residual_us', True))}) ==")
        print(f"  untraced lat_p50_us {med('lat_p50_us'):.3f}   "
              f"trace.overhead_us {med('trace.overhead_us'):.3f}")
        print("  client spans (mean us):  " + "  ".join(
            f"{n.split('.')[1][:-3]} {med(n):.3f}" for n in SPANS))
        rows = [(n[5:-3], med(n)) for n in PATH if med(n) is not None]
        residual = med("span.residual_us")
        if residual is None:
            bad += 1
            print("  residual MISSING")
        else:
            # px_ledger defines residual = blocking spans - isolated layers.
            blocking = sum(v for _, v in rows) + residual
            print(f"  blocking spans {blocking:.3f} us = isolated layers "
                  "+ residual:")
            for name, v in rows + [("residual", residual)]:
                share = f"({v / blocking:.0%})" if blocking else ""
                print(f"    {name:<10} {v:>10.3f} us {share}")
        print("  per-layer rows:")
        for m in s["per_layer"]:
            v = med(m["name"])
            shown = "MISSING" if v is None else f"{v:.6g}"
            bad += v is None
            print(f"    {m['name']:<26} {shown:>12} {unit.get(m['name'], '')}")
        violations = med("trace.clock_violations") or 0
        print(f"  clock-sanity violations: {violations:.0f}")
        bad += violations != 0
    for w in ("rtt-shm", "rtt-tcp"):
        if w not in traced:
            print(f"no traced run of {w}")
            bad += 1
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    one = sub.add_parser("one", help="one run, result line last")
    one.add_argument("--workload", required=True)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run = sub.add_parser("run", help="all workloads x repeats, collated")
    run.add_argument("--repeats", type=int, default=5)
    run.add_argument("--traced", type=int, default=1,
                     help="traced runs per workload")
    run.add_argument("--out", default=str(ROOT / ".bench_build" /
                                          "results.json"))
    noise = sub.add_parser("noise", help="derive bounds from 10 seeds")
    noise.add_argument("--runs", type=int, default=10)
    noise.add_argument("--out")
    noise.add_argument("--write", action="store_true")
    diff = sub.add_parser("diff", help="compare two result sets")
    diff.add_argument("a")
    diff.add_argument("b")
    bd = sub.add_parser("breakdown", help="per-layer rows of traced runs")
    bd.add_argument("results")
    args = p.parse_args()
    return {"one": cmd_one, "run": cmd_run, "noise": cmd_noise,
            "diff": cmd_diff, "breakdown": cmd_breakdown}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
