#!/usr/bin/env python3
"""Replay benchmark of the out-of-core NVM simulator.

    python3 perfbench/run.py --workload ooc-pcm --seed 1 --seconds 30 --trace 0

Builds perfbench_replay (the simulator libraries plus perfbench/*.cpp)
into .bench_build/, runs one workload in its own process, checks every
simulated answer against the pinned digests, and prints the metrics. The
last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
separate traced run reports the per-layer ones (see perfbench/METRICS.md).
Exits non-zero if any answer is wrong or any replay fails.

    python3 perfbench/run.py --write-digests   # re-pin perfbench/digests.json
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check  # noqa: E402

ROOT = check.ROOT
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_replay")
WORKLOADS = ("ooc-pcm", "ckpt-nand", "lobpcg-ufs")
# The end-to-end metrics of BENCHMARK.json; the others are printed only.
GATED_END_TO_END = ("replay_ref", "setup_s", "peak_rss_mib")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources not found under src/; "
                 "run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_replay",
                    "-j", "4"], stdout=sys.stderr, check=True)


def replay_records(workload, seed, mode, seconds=0.0, spans_out=None):
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}", f"--mode={mode}",
           f"--seconds={seconds}"]
    if spans_out:
        cmd.append(f"--spans-out={spans_out}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


class Ledger:
    """Operations attempted and failed: each capture and each replay is one."""

    def __init__(self, ref, workload):
        self.ref, self.workload = ref, workload
        self.attempted = self.failed = 0

    def op(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                log("MISMATCH", p)
        return not problems

    def trace(self, rec):
        return self.op(check.check_trace(self.ref, self.workload, rec))

    def replay(self, rec, extra=()):
        if "error" in rec:
            return self.op([f"{rec['config']}: {rec['error']}"])
        problems = list(extra)
        if rec.get("aborted"):
            problems.append(f"{rec['config']}: replay aborted")
        problems += check.check_replay(self.ref, self.workload, rec["config"], rec["digest"])
        return self.op(problems)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, ref):
    records = replay_records(workload, seed, "run", seconds)
    ledger = Ledger(ref, workload)
    end = next(r for r in records if r["kind"] == "end")
    walls, makespan_s = {}, {}
    for rec in records:
        if rec["kind"] == "trace":
            ledger.trace(rec)
        elif rec["kind"] == "replay" and ledger.replay(rec):
            c = rec["config"]
            walls.setdefault(c, []).append(rec["wall_s"])
            makespan_s[c] = rec["digest"]["makespan_ps"] * 1e-12
    # Per config, the median over the run's round-robin passes.
    replay_s = sum(statistics.median(v) for v in walls.values())
    # The calibration kernel ran between every two replays; its median is
    # the run's machine speed.
    calib_s = statistics.median(end["calib_s"])
    log(f"{workload}: {len(end['setup_s'])} set-ups, {len(end['calib_s'])} calibrations "
        f"(median {calib_s * 1e3:.2f} ms), passes per config "
        f"{sorted({len(v) for v in walls.values()})}")
    for c in walls:
        log(f"  {c:22s} median {statistics.median(walls[c]):.4f} s  runs {len(walls[c])}")
    metrics = {
        "replay_s": metric(replay_s, "s"),
        "replay_ref": metric(replay_s / calib_s, "ratio"),
        "sim_s_per_wall_s": metric(sum(makespan_s.values()) / replay_s if replay_s else 0.0,
                                   "ratio"),
        "setup_s": metric(statistics.median(end["setup_s"]), "s"),
        "peak_rss_mib": metric(end["peak_rss_mib"], "MiB"),
        "calib_s": metric(calib_s, "s"),
    }
    return ledger, metrics


def per_layer(workload, seed, ref):
    spans = os.path.join(BUILD, f"spans-{workload}.csv")
    records = replay_records(workload, seed, "trace", spans_out=spans)
    ledger = Ledger(ref, workload)
    trace = next(r for r in records if r["kind"] == "trace")
    end = next(r for r in records if r["kind"] == "end")
    layers = []
    for rec in records:
        if rec["kind"] == "trace":
            ledger.trace(rec)
        elif rec["kind"] == "layers":
            extra = []
            if "error" not in rec and not rec["faithful"]:
                extra.append(f"{rec['config']}: layer driver digest "
                             f"{rec['driver_digest']} != run_experiment's")
            if ledger.replay(rec, extra):
                layers.append(rec)
    log(f"{workload}: spans written to {os.path.relpath(spans, ROOT)}")
    for r in layers:
        log(f"  {r['config']:22s} timeline.peak_live_mib {r['timeline_peak_live_mib']:.2f}"
            f"  reservations {r['timeline_reservations']}")

    def total(key):
        return sum(r[key] for r in layers)

    submit_s = total("ssd_read_submit_s") + total("ssd_write_submit_s")
    txns = total("transactions")
    dev = total("device_requests")
    s, n, ratio = "s", "count", "ratio"
    metrics = {
        "ooc.capture_s": metric(trace["trace_s"], s),
        "ooc.operator_applications": metric(trace["operator_applications"], n),
        "trace.requests": metric(trace["requests"], n),
        "engine.construct_s": metric(total("construct_s"), s),
        "engine.self_s": metric(total("driver_self_s"), s),
        "io_path.submit_s": metric(total("io_path_submit_s"), s),
        "io_path.device_requests": metric(dev, n),
        "ssd.submit_s": metric(submit_s, s),
        "ssd.read_submit_s": metric(total("ssd_read_submit_s"), s),
        # A share, not seconds: read-only lobpcg-ufs has no write time at all.
        "ssd.write_frac": metric(total("ssd_write_submit_s") / submit_s if submit_s else 0.0,
                                 ratio),
        "ssd.transactions": metric(txns, n),
        "ssd.txn_per_request": metric(txns / dev if dev else 0.0, ratio),
        "ssd.ns_per_txn": metric(submit_s * 1e9 / txns if txns else 0.0, "ns"),
        "ssd.device_stats_s": metric(total("device_stats_s"), s),
        "ftl.writes": metric(total("ftl_writes"), n),
        "timeline.reservations": metric(total("timeline_reservations"), n),
        "timeline.self_s": metric(total("timeline_self_s"), s),
        "controller.self_s": metric(total("controller_self_s"), s),
        "timeline.peak_live_mib": metric(
            max((r["timeline_peak_live_mib"] for r in layers), default=0.0), "MiB"),
        "link.transfer_s": metric(total("link_transfer_s"), s),
        "link.transfers": metric(total("link_transfers"), n),
        "obs.flight_frac": metric(
            total("engine_flight_s") / total("engine_noflight_s") - 1 if layers else 0.0,
            ratio),
        "tracing.overhead_frac": metric(
            total("driver_traced_s") / total("driver_plain_s") - 1 if layers else 0.0,
            ratio),
        "calib_s": metric(end["calib_s"], s),
    }
    return ledger, metrics


def write_digests():
    """Re-pins perfbench/digests.json from one replay of every workload."""
    out = {"workloads": {}}
    for w in WORKLOADS:
        records = replay_records(w, 0, "digest")
        trace = next(r for r in records if r["kind"] == "trace")
        out["workloads"][w] = {
            "trace": {k: trace[k] for k in check.TRACE_FIELDS},
            "replays": {r["config"]: r["digest"] for r in records if r["kind"] == "replay"},
        }
    with open(check.DIGESTS, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {os.path.relpath(check.DIGESTS, ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=4)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args()
    if not args.write_digests and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    if args.write_digests:
        write_digests()
        return 0
    ref = check.load_reference()
    if args.trace:
        ledger, metrics = per_layer(args.workload, args.seed, ref)
    else:
        ledger, metrics = end_to_end(args.workload, args.seed, args.seconds, ref)
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'operations':28s} {ledger.attempted:>16d} attempted, {ledger.failed} failed")
    if not args.trace:
        # Raw host seconds swing with the machine's speed; only the
        # drift-cancelled and memory figures are the gated result.
        metrics = {k: metrics[k] for k in GATED_END_TO_END}
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
