"""Answer checks for the replay benchmark.

Every replay's simulated answer is compared with a pinned reference:
`perfbench/digests.json` for every workload (trace shape, makespan in
picoseconds, transactions, device requests, PAL fractions, bandwidth and
channel utilisation) and, for ooc-pcm, the checked-in BENCH_headline.json
as well. Floats are compared exactly: the simulator is deterministic and
both files hold doubles written with 17 significant digits.
"""
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")
HEADLINE = os.path.join(ROOT, "BENCH_headline.json")

# Workloads whose replays must also reproduce BENCH_headline.json.
HEADLINE_WORKLOADS = ("ooc-pcm",)
HEADLINE_FIELDS = ("makespan_ms", "achieved_mbps", "channel_utilization")
TRACE_FIELDS = ("requests", "bytes", "read_bytes", "write_bytes",
                "operator_applications", "lambda0")
DIGEST_FIELDS = ("makespan_ps", "transactions", "device_requests", "pal_fraction",
                 "makespan_ms", "achieved_mbps", "channel_utilization")


def load_reference(digests_path=DIGESTS, headline_path=HEADLINE):
    with open(digests_path) as f:
        digests = json.load(f)
    with open(headline_path) as f:
        headline = json.load(f)
    return {"digests": digests["workloads"], "headline": headline["results"]}


def _diff(what, fields, got, want):
    return [f"{what}: {k} = {got.get(k)!r}, expected {want.get(k)!r}"
            for k in fields if got.get(k) != want.get(k)]


def check_trace(ref, workload, record):
    """Mismatches between a set-up's trace record and the pinned one."""
    want = ref["digests"].get(workload, {}).get("trace")
    if want is None:
        return [f"{workload}: no pinned trace digest"]
    return _diff(f"{workload} trace", TRACE_FIELDS, record, want)


def check_replay(ref, workload, config, digest):
    """Mismatches between one replay's digest and its references."""
    want = ref["digests"].get(workload, {}).get("replays", {}).get(config)
    if want is None:
        return [f"{workload} {config}: no pinned replay digest"]
    problems = _diff(f"{workload} {config}", DIGEST_FIELDS, digest, want)
    if workload in HEADLINE_WORKLOADS:
        row = ref["headline"].get(config)
        if row is None:
            problems.append(f"{config}: missing from BENCH_headline.json")
        else:
            problems += _diff(f"{config} vs BENCH_headline.json", HEADLINE_FIELDS,
                              digest, row)
    return problems
