#!/usr/bin/env python3
"""ShamFinder benchmark: zone bytes and registration feeds to homographs.

Run from the repository root:

    python3 shambench/run.py --workload zone_bulk --seed 1 --seconds 50 --trace 0

Builds the `shambench` package (release, offline), generates the
workload's inputs from the seed, then measures for `--seconds` seconds.
Each measuring child process sets up the index as the CLI does and runs
scan-zone (and serve-feed) passes until its budget is spent; every pass
is checked against its oracle. A watchdog kills a pass that runs far past
the median pass time; its operations count as failed. The last stdout
line is the JSON result; the lines before it name every metric with its
unit, the oracle outcome, hung passes and the machine fingerprint.

Zone workloads run scan passes only; feed_churn alternates scan and
feed passes; it is not in BENCHMARK.json (see METRICS.md). With
`--trace 1` one traced child replays the inputs through each layer and
reports the per-layer metrics instead. See METRICS.md.
"""

import argparse
import json
import math
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("zone_bulk", "zone_idn_dense", "feed_churn")
# Workloads whose children alternate scan passes with serve-feed passes.
FEED_WORKLOADS = ("feed_churn",)
PACKAGE = "shambench"
# Children per run, and set-ups per child: peak RSS is a median over
# children, set-up time a median over every set-up.
CHILDREN = 3
# A pass is killed once it runs this many times the run's median time
# for its phase (never sooner than WATCHDOG_FLOOR_S); before any pass
# of the phase has finished, after WATCHDOG_FIRST_S.
WATCHDOG_MULTIPLE = 4.0
WATCHDOG_FLOOR_S = 5.0
WATCHDOG_FIRST_S = 10.0
# Set-up, loading and generation never legitimately take this long.
STAGE_LIMIT_S = 150.0
# A traced child is killed after this long without output.
TRACE_LIMIT_S = 75.0
# Everything after the build ends within this many seconds; no child
# starts later than LAST_CHILD_S before that.
RUN_LIMIT_S = 170.0
LAST_CHILD_S = 40.0
# Slowest scan passes set aside before taking the run's scan rate: a lone
# pass can stall on a momentary hiccup of the host (see METRICS.md).
SCAN_OUTLIERS = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    # The program must pick its default thread count.
    env.pop("SHAM_THREADS", None)
    return env


class Child:
    """A measuring child whose stdout JSON lines arrive on a queue."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, env=child_env(), text=True, bufsize=1
        )
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.rss_kb = 0
        self.status = None

    def _read(self):
        for line in self.proc.stdout:
            line = line.strip()
            if line.startswith("{"):
                self.lines.put(json.loads(line))
        self.lines.put(None)

    def next(self, timeout):
        """The next JSON line, None at end of output, or "timeout"."""
        try:
            return self.lines.get(timeout=max(timeout, 0.01))
        except queue.Empty:
            return "timeout"

    def kill(self):
        # Not Popen.kill/poll: they may reap the child before `reap`
        # reads its resource usage. Until reaped, the pid stays ours.
        if self.status is None:
            try:
                os.kill(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def reap(self):
        """Waits for the child; records its exit code and peak RSS."""
        if self.status is None:
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.status = os.waitstatus_to_exitcode(status)
            self.proc.returncode = self.status
            self.rss_kb = usage.ru_maxrss
            self.reader.join(timeout=5)
            self.proc.stdout.close()
        return self.status


def run_once(argv, limit_s, feed_limit_s=None):
    """Runs a child to completion. Returns its JSON lines (None if it
    failed or went `limit_s` without output) and, when the watchdog
    killed a feed pass it had announced, that pass's operations."""
    child = Child(argv)
    lines, limit, feed_ops = [], limit_s, 0
    try:
        while True:
            item = child.next(limit)
            if item == "timeout":
                return None, feed_ops
            if item is None:
                break
            lines.append(item)
            in_feed = item.get("event") == "start" and feed_limit_s is not None
            feed_ops = item.get("ops", 0) if in_feed else 0
            limit = feed_limit_s if in_feed else limit_s
    finally:
        child.kill()
        child.reap()
    return (lines if child.status == 0 else None), 0


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    manifest = os.path.join(root, PACKAGE, "Cargo.toml")
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        log("error: the repository's crates are not here; run from the repository root")
        return None
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        log("error: building the benchmark failed")
        return None
    return os.path.join(target, "release", PACKAGE)


class Tally:
    """Everything measured in one run."""

    def __init__(self):
        self.setups = []
        self.rss_mb = []
        self.work = {"scan": 0, "feed": 0}
        self.churn_ms = []
        self.durations = {"scan": [], "feed": []}
        self.scan_rates = []
        self.attempted = 0
        self.failed = 0
        self.hung = {"scan": 0, "feed": 0}
        self.passes = {"scan": 0, "feed": 0}
        self.bad_passes = 0
        self.crashed = 0
        self.errors = []
        self.threads = set()

    def watchdog(self, phase):
        done = self.durations[phase]
        if not done:
            return WATCHDOG_FIRST_S
        return max(WATCHDOG_MULTIPLE * statistics.median(done), WATCHDOG_FLOOR_S)

    def finished(self, phase, line):
        self.passes[phase] += 1
        self.durations[phase].append(line["seconds"])
        self.failed += line["failed"]
        if not line["ok"]:
            self.bad_passes += 1
            self.errors.extend(line["errors"])
        if phase == "scan":
            self.work["scan"] += line["bytes"]
            self.scan_rates.append(line["bytes"] / 1e6 / line["seconds"])
        else:
            self.work["feed"] += line["registrations"]
            self.churn_ms.extend(line["churn_ms"])

    def metrics(self):
        """Every metric with at least one sample: name -> (value, unit, basis).

        Scan throughput is the rate every scan pass of the run reached
        but the SCAN_OUTLIERS slowest; feed throughput is the run's total
        work over its total pass time; churn latencies are percentiles
        over every churn of the run; set-up time and peak RSS are
        medians."""
        out = {}
        scan_s, feed_s = sum(self.durations["scan"]), sum(self.durations["feed"])
        if self.setups:
            out["setup_s"] = (statistics.median(self.setups), "s",
                              f"median of {len(self.setups)} set-ups")
        if scan_s:
            mean = self.work["scan"] / 1e6 / scan_s
            rates = sorted(self.scan_rates)
            rank = min(SCAN_OUTLIERS, len(rates) - 1)
            out["scan_mb_per_s"] = (rates[rank], "MB/s",
                                    f"slowest of {len(rates)} passes but {rank}; all passes: "
                                    f"{mean:.4g} MB/s over {scan_s:.2f} s")
        if self.rss_mb:
            out["peak_rss_mb"] = (statistics.median(self.rss_mb), "MB",
                                  f"median of {len(self.rss_mb)} children")
        if feed_s:
            out["feed_events_per_s"] = (self.work["feed"] / feed_s, "events/s",
                                        f"{self.passes['feed']} passes, {feed_s:.2f} s")
        if self.churn_ms:
            basis = f"{len(self.churn_ms)} churns"
            out["churn_apply_ms_p50"] = (nearest_rank(self.churn_ms, 0.50), "ms", basis)
            out["churn_apply_ms_p95"] = (nearest_rank(self.churn_ms, 0.95), "ms", basis)
        return out


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[min(max(math.ceil(q * len(ordered)), 1), len(ordered)) - 1]


def measure_child(binary, data, budget_s, feed, tally):
    """One child: set-up, then passes until its budget is spent."""
    child = Child([binary, "measure", "--dir", data, "--budget-ms", str(int(budget_s * 1000)),
                   "--feed", "1" if feed else "0"])
    phase, ops, killed = None, 0, False
    started, limit = time.monotonic(), STAGE_LIMIT_S
    try:
        while True:
            item = child.next(limit - (time.monotonic() - started))
            if item == "timeout":
                child.kill()
                killed = phase is not None
                break
            if item is None:
                break
            started = time.monotonic()
            event = item["event"]
            if event == "setup":
                tally.setups.append(item["setup_s"])
                tally.threads.add((item["nproc"], item["threads"]))
            elif event == "start":
                phase, ops = item["phase"], item["ops"]
                tally.attempted += ops
                limit = tally.watchdog(phase)
            elif event in ("scan", "feed"):
                tally.finished(event, item)
                phase, ops, limit = None, 0, STAGE_LIMIT_S
    finally:
        child.kill()
        status = child.reap()
    if killed:
        tally.hung[phase] += 1
        tally.failed += ops
        log(f"watchdog: killed a {phase} pass after {limit:.1f} s")
    elif status != 0:
        tally.crashed += 1
        tally.failed += ops
    else:
        tally.rss_mb.append(child.rss_kb / 1024.0)


# The result's metrics: the benchmark's end-to-end metrics.
END_TO_END = ("setup_s", "scan_mb_per_s", "peak_rss_mb")


def measure(binary, data, seconds, feed, prepared, hard_deadline):
    tally = Tally()
    deadline = time.monotonic() + seconds
    per_child = seconds / CHILDREN
    # Past the deadline, children start only until one has finished, and
    # never after the hard deadline.
    while time.monotonic() < hard_deadline and tally.crashed <= 3:
        left = deadline - time.monotonic()
        if left <= 0 and tally.rss_mb:
            break
        measure_child(binary, data, max(min(per_child, left), 0.0), feed, tally)

    print(f"passes: scan {tally.passes['scan']} feed {tally.passes['feed']}; "
          f"hung (killed by the watchdog): scan {tally.hung['scan']} feed {tally.hung['feed']}; "
          f"children crashed: {tally.crashed}")
    print(f"machine: nproc {prepared['nproc']}, threads {sorted(tally.threads)}, "
          f"frame.floor_mb_per_s {prepared['frame_floor_mb_per_s']}, "
          f"calib_mops {prepared['calib_mops']}")
    print("scan passes (MB/s, in order): " + " ".join(f"{r:.2f}" for r in tally.scan_rates))
    values = tally.metrics()
    for name, (value, unit, basis) in values.items():
        print(f"{name} = {value:.6g} {unit} ({basis})")
    share = tally.failed / max(tally.attempted, 1)
    print(f"failed_share = {share:.6g} ratio ({tally.failed} of {tally.attempted} operations)")
    print(f"oracle: {tally.bad_passes} pass(es) wrong" + "".join(f"\n  {e}" for e in tally.errors[:10]))
    missing = [name for name in END_TO_END if name not in values]
    if missing:
        log(f"error: no sample for {missing}")
        return None
    correct = tally.bad_passes == 0 and tally.crashed == 0
    metrics = {name: {"value": values[name][0], "unit": values[name][1]} for name in END_TO_END}
    return {"correct": correct, "attempted": max(tally.attempted, 1),
            "failed": tally.failed, "metrics": metrics}


def trace(binary, data, seed, out_dir, deadline):
    """The traced run. An attempt whose feed pass the watchdog kills is
    retried while time remains; the killed pass's operations count as
    attempted and failed."""
    spans = os.path.join(out_dir, f"trace-{os.path.basename(data)}.jsonl")
    hung, lost = 0, 0
    while time.monotonic() + TRACE_LIMIT_S < deadline:
        lines, killed_ops = run_once([binary, "trace", "--dir", data, "--out", spans,
                                      "--seed", str(seed)], TRACE_LIMIT_S, WATCHDOG_FIRST_S)
        if lines:
            line = lines[-1]
            print(f"trace: spans in {os.path.relpath(spans)}; hung feed passes killed: {hung}")
            for name, m in line["metrics"].items():
                print(f"{name} = {m['value']:.6g} {m['unit']}")
            print(f"oracle: {'ok' if line['ok'] else 'WRONG'}"
                  + "".join(f"\n  {e}" for e in line["errors"]))
            return {"correct": line["ok"], "attempted": max(line["ops"] + lost, 1),
                    "failed": line["failed"] + lost, "metrics": line["metrics"]}
        if not killed_ops:
            break
        hung += 1
        lost += killed_ops
        log("watchdog: killed the traced run's feed pass; retrying")
    log("error: the traced run failed")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind so that every child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    binary = build(root)
    started = time.monotonic()
    if binary is None:
        return 1
    out_dir = os.path.join(root, ".bench_out")
    data = os.path.join(root, ".bench_data", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        lines, _ = run_once([binary, "prepare", "--workload", args.workload,
                             "--seed", str(args.seed), "--dir", data], STAGE_LIMIT_S)
        if not lines:
            log("error: generating the inputs failed")
            return 1
        prepared = lines[-1]
        print(f"shambench {args.workload} seed {args.seed}: {prepared['zone_bytes']} zone bytes, "
              f"{prepared['owners']} owners ({prepared['idns']} IDNs, {prepared['malformed']} "
              f"malformed lines), {prepared['events']} feed events, "
              f"{prepared['expected_detections']} expected detections")
        if args.trace:
            result = trace(binary, data, args.seed, out_dir, started + RUN_LIMIT_S)
        else:
            result = measure(binary, data, args.seconds, args.workload in FEED_WORKLOADS,
                             prepared, started + RUN_LIMIT_S - LAST_CHILD_S)
        if result is None:
            return 1
        with open(os.path.join(out_dir, "runs.jsonl"), "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "prepared": prepared, **result}) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(data, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
