"""Benchmark harness for grifcalc (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  Every request runs in a
fresh Python process, one at a time (a closed loop with one client), as
a command-line user pays for it: in-process memo caches cannot carry over
from one request to the next.  Each child gets its own ``--cache``
directory under a temporary directory the harness owns, and
GRIFCALC_CACHE is removed from its environment, so a stray cache cannot
turn a cold request warm.  Every output is gated (see workloads.py); a
non-zero exit, a timeout, an empty or wrong output is a failed request.

--trace 0 measures the end-to-end metrics named in BENCHMARK.json with
tracing off.  Set-up (inputs, one untimed warm-up request that writes
bytecode caches, and the report-warm cache fill) is done once before the
loop and repeated between requests, evenly spread over the loop, and the
median of all set-ups is reported.  A set-up burst at the start alone
would sample the machine's speed at one moment; spread out, setup_s sees
the same stretch of machine time as the requests.  Time spent in these
repeats is left out of the loop's wall time.

--trace 1 runs every request twice, untraced and then under
perfbench/layertrace.py, and reports the per-layer metrics: per-request
means of span self times and counts, ratios of summed counts, the
report's own per-check timings (median over the untraced requests), and
the tracing overhead (median traced over untraced time of one request).

The last line of standard output is the JSON result; the line before it
stamps the environment (interpreter, code version, load, and a fixed
calibration loop timed before and after the loop, so a run slowed by
other load on the machine is visible).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# set-ups per end-to-end run; report-warm's fills a cache with one cold
# report (about 4 s), the others spawn one short warm-up request
SETUP_REPS = {"report-cold": 15, "report-warm": 5, "jring-generic": 15}
REQUEST_TIMEOUT_S = 60
TAIL_BEYOND = 10
CALIBRATION_STEPS = 2_000_000
# what the installed `grifcalc` script runs
CLI_MAIN = "import grifcalc.cli; grifcalc.cli.main()"

# ratio metric -> (numerator, denominator) in the summed trace totals
RATIOS = {
    "scalar.poly_gcd.useful_ratio":
        ("scalar.poly_gcd.useful", "scalar.poly_gcd.top_calls"),
    "linalg.rref.pivot_ratio": ("linalg.rref.pivots", "linalg.rref.rows_in"),
    "jacobian.quotient_basis.reuse_ratio":
        ("jacobian.quotient_basis.reused", "jacobian.quotient_basis.calls"),
    "linalg.RowReducer.add.useful_ratio":
        ("linalg.RowReducer.add.useful", "linalg.RowReducer.add.calls"),
    "cache.get.hit_ratio": ("cache.get.hits", "cache.get.calls"),
}
# counters reported as per-request means; absent means none were counted
COUNTERS = ("mulkernel.certificate_moves", "cache.rejects",
            "linalg.rref.nnz_in")


class Outcome:
    def __init__(self, wall, ok, error, rss_mb, timings=None, stats=None):
        self.wall = wall
        self.ok = ok
        self.error = error
        self.rss_mb = rss_mb
        self.timings = timings
        self.stats = stats


class SetupFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("GRIFCALC_CACHE", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, env, workdir, timeout):
    """Run argv to its exit; return (code, stdout, stderr, peak RSS in MB,
    timed out).  The child is killed after timeout seconds and always
    reaped before this returns."""
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill():
            with lock:
                if not state["exited"]:
                    proc.kill()
                    state["killed"] = True

        timer = threading.Timer(timeout, kill)
        timer.start()
        exited = False
        try:
            # wait without reaping, so kill() can never hit a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            exited = True
        finally:
            with lock:
                if not exited:
                    proc.kill()
                state["exited"] = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        timed_out = state["killed"] and os.WIFSIGNALED(status)
        return (proc.returncode, out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"),
                usage.ru_maxrss / 1024.0, timed_out)


def run_request(req, env, workdir, traced=False):
    stats_path = None
    if traced:
        fd, stats_path = tempfile.mkstemp(suffix=".json", dir=workdir)
        os.close(fd)
        argv = [sys.executable, os.path.join(HERE, "layertrace.py"),
                stats_path, req.kind] + req.args
    elif req.kind == "cli":
        argv = [sys.executable, "-c", CLI_MAIN] + req.args
    else:
        argv = [sys.executable, os.path.join(HERE, "jring_request.py")] \
            + req.args
    start = time.perf_counter()
    code, stdout, stderr, rss_mb, killed = spawn(argv, env, workdir,
                                                 REQUEST_TIMEOUT_S)
    timings, error = None, None
    try:
        if killed:
            raise workloads.GateError("timed out after %ds" % REQUEST_TIMEOUT_S)
        if code != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no error output"]
            raise workloads.GateError("exit code %s: %s" % (code, tail[0]))
        timings = req.check(stdout)
    except workloads.GateError as exc:
        error = str(exc)
    wall = time.perf_counter() - start
    stats = None
    if traced and error is None:
        with open(stats_path, encoding="utf-8") as fh:
            stats = json.load(fh)
    return Outcome(wall, error is None, error, rss_mb, timings, stats)


def set_up(name, seed, tmp, env):
    """Make a fresh workload and run its set-up requests."""
    wl = workloads.make_workload(name, seed,
                                 tempfile.mkdtemp(prefix="setup-", dir=tmp))
    for req in wl.setup_requests():
        out = run_request(req, env, wl.workdir)
        if not out.ok:
            raise SetupFailed("set-up request failed: %s" % out.error)
    return wl


def tail_percentile(n, beyond=TAIL_BEYOND):
    """Highest integer percentile p with at least `beyond` of n samples
    above its nearest-rank value, never below the median (p >= 50)."""
    if n <= 0:
        return 50
    return max(50, min(99, 100 * (n - beyond) // n))


def nearest_rank(values, p):
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


def calibrate():
    """Time a fixed pure-Python loop: a probe of this machine's speed."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_STEPS):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def git_sha():
    """Commit of the checkout, or None when it is not a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def timed_set_up(name, seed, tmp, env):
    start = time.perf_counter()
    wl = set_up(name, seed, tmp, env)
    return wl, time.perf_counter() - start


def loop(wl, env, seconds, traced, set_up_again=None, extra_setups=0):
    """Closed loop until the deadline, and at least one request.  With
    traced, each request runs untraced and then again traced.

    set_up_again() is called extra_setups times, evenly spaced over the
    loop (those still due when it ends run after it), and returns the
    time of one set-up.  That time does not count as loop time.  Returns
    the untraced and traced outcomes, the loop's wall time and the
    set-up times."""
    untraced, traced_out, setups = [], [], []
    start = time.perf_counter()
    paused = 0.0

    def run_due(elapsed):
        while (len(setups) < extra_setups and elapsed
               >= (len(setups) + 1) * seconds / (extra_setups + 1)):
            setups.append(set_up_again())

    while time.perf_counter() - paused < start + seconds or not untraced:
        req = wl.next_request()
        untraced.append(run_request(req, env, wl.workdir))
        if traced:
            traced_out.append(run_request(wl.again(req), env, wl.workdir,
                                          traced=True))
        before = time.perf_counter()
        run_due(before - paused - start)
        paused += time.perf_counter() - before
    loop_wall = time.perf_counter() - paused - start
    run_due(float("inf"))
    return untraced, traced_out, loop_wall, setups


def end_to_end(outcomes, loop_wall, setups):
    walls = [o.wall for o in outcomes]
    p = tail_percentile(len(walls))
    values = {
        "setup_s": statistics.median(setups),
        "request_p50_s": nearest_rank(walls, 50),
        "request_tail_s": nearest_rank(walls, p),
        "requests_per_s": sum(o.ok for o in outcomes) / loop_wall,
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }
    return values, {"tail_percentile": p, "samples": len(walls)}


def per_layer(untraced, traced):
    """Per-layer values from the traced requests that passed their gate."""
    import layertrace  # only the traced path loads the tracer

    good = [o for o in traced if o.ok]
    n = max(1, len(good))
    totals = {}
    for target in layertrace.TARGETS:
        totals[target[0] + ".calls"] = totals[target[0] + ".self_s"] = 0
    for o in good:
        for name, (calls, self_s) in o.stats["spans"].items():
            totals[name + ".calls"] = totals.get(name + ".calls", 0) + calls
            totals[name + ".self_s"] = totals.get(name + ".self_s", 0) + self_s
        for name, value in o.stats["counters"].items():
            totals[name] = totals.get(name, 0) + value
    for name in COUNTERS + tuple(x for pair in RATIOS.values() for x in pair):
        totals.setdefault(name, 0)
    values = {name: total / n for name, total in totals.items()}
    for name, (num, den) in RATIOS.items():
        values[name] = totals[num] / totals[den] if totals[den] else 0.0
    span_self = sum(v for k, v in values.items() if k.endswith(".self_s"))
    import_s = statistics.fmean(o.stats["import_s"] for o in good) if good else 0.0
    elapsed = statistics.fmean(o.stats["elapsed_s"] for o in good) if good else 0.0
    values["cli.import_s"] = import_s
    values["trace.accounted_ratio"] = ((import_s + span_self) / elapsed
                                       if elapsed else 0.0)
    values["trace.process_start_s"] = (
        statistics.fmean(o.wall - o.stats["elapsed_s"] for o in good)
        if good else 0.0)
    pairs = [t.wall / u.wall for u, t in zip(untraced, traced)
             if u.ok and t.ok]
    values["trace.overhead_ratio"] = statistics.median(pairs) if pairs else 0.0
    for check_id in workloads.CHECK_IDS:
        times = [o.timings[check_id] for o in untraced
                 if o.ok and o.timings]
        values["report.check.%s_s" % check_id] = (
            statistics.median(times) if times else 0.0)
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join(SRC, "grifcalc", "cli.py"))
            and os.path.isfile(SPEC)):
        print("error: run from a grifcalc checkout: src/grifcalc and "
              "BENCHMARK.json are required", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = child_env()
    scratch = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    stamp = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "python": platform.python_version(),
             "nproc": os.cpu_count()}
    stamp["git_sha"] = git_sha()

    def set_up_again():
        extra, seconds = timed_set_up(args.workload, args.seed, tmp, env)
        shutil.rmtree(extra.workdir, ignore_errors=True)
        return seconds

    try:
        wl, first_setup = timed_set_up(args.workload, args.seed, tmp, env)
        stamp["loadavg_before"] = os.getloadavg()
        stamp["calibration_before_s"] = calibrate()
        untraced, traced, loop_wall, setups = loop(
            wl, env, args.seconds, bool(args.trace), set_up_again,
            0 if args.trace else SETUP_REPS[args.workload] - 1)
        setups.insert(0, first_setup)
        stamp["calibration_after_s"] = calibrate()
        stamp["loadavg_after"] = os.getloadavg()
    except SetupFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    outcomes = untraced + traced
    failed = [o for o in outcomes if not o.ok]
    for o in failed[:5]:
        print("failed request: %s" % o.error, file=sys.stderr)
    stamp["setup_runs_s"] = setups
    stamp["requests"] = {"attempted": len(outcomes), "failed": len(failed),
                         "untraced": len(untraced), "traced": len(traced)}
    stamp["fail_ratio"] = len(failed) / len(outcomes)
    if args.trace:
        values = per_layer(untraced, traced)
    else:
        values, stamp["tail"] = end_to_end(untraced, loop_wall, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
