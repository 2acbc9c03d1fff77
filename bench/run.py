"""beattykit benchmark: closed-loop CLI and library workloads, end to end.

    python3 bench/run.py --workload sweep|phase|decimal --seed N \
        --seconds S --trace 0|1 [--smoke]
    python3 bench/run.py --make-refs

Run from the root of a checkout.  One client runs commands strictly one at
a time, each in a fresh interpreter with PYTHONPATH=src, as a user would.
A run makes one untimed warm-up pass, then repeats timed passes until
--seconds have passed, timing cold `import beattykit` (setup_s) before the
first pass and after every pass.  Between commands and probes it times the
reference program calibrate.py, and reports times scaled to the reference
speed (pass_s, setup_s), so that a machine that runs slower for seconds or
minutes at a time does not move them.  Every command's report is checked
against refs.json.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json under --trace 0
and its per-layer metrics under --trace 1.  The line before it holds the
full detail: quartiles and sample counts, per-family times, fail_ratio and
the machine fingerprint.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
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
from importlib import metadata
from pathlib import Path

import check
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs.json"
SETUP_FIRST = 3     # cold-import probes before the first timed pass
SETUP_EACH = 1      # and after every pass, so they share the run's drift
CALIBRATE = BENCH / "calibrate.py"
REF_S = 0.4         # calibrate.py's wall time at the reference speed
CMD_TIMEOUT = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
KERNELS = ("surd.floor_frac_many", "irrational.floor_frac_many")


class Runner:
    """Runs commands one at a time and keeps what they returned."""

    def __init__(self, work: Path, refs: dict):
        self.work = work
        self.refs = refs
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        for var in THREAD_VARS:
            self.env[var] = "1"
        self.attempted = 0
        self.failed = 0
        self.problems = []          # (command key, message)
        self.digests = {}           # command key -> sha256 of its report
        self.seq = 0
        self.peak_rss_kb = 0

    def argv(self, cmd, trace_path=None):
        py = [sys.executable]
        if trace_path is not None:
            return py + [str(BENCH / "child.py"), "--trace", trace_path,
                         str(self.seq), cmd.kind, *cmd.args]
        if cmd.kind == "cli":
            return py + ["-m", "beattykit.cli", *cmd.args]
        return py + [str(BENCH / "child.py"), "lib", *cmd.args]

    def spawn(self, argv, out_path):
        """Run argv to completion; (wall seconds, cpu seconds, exit code,
        peak RSS in KiB).

        Waits in a blocking wait4: Popen.wait(timeout) polls with sleeps
        of up to 50 ms, which would quantise every time.  A timer kills a
        child that outlives CMD_TIMEOUT.
        """
        with open(out_path, "wb") as out, \
                open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, env=self.env,
                                    cwd=ROOT)
            watchdog = threading.Timer(CMD_TIMEOUT, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if proc.returncode < 0 else proc.returncode
        return wall, usage.ru_utime + usage.ru_stime, code, usage.ru_maxrss

    def run(self, cmd, traced=False):
        """Run and check one command; returns (wall, cpu, report bytes, spans)."""
        self.seq += 1
        out_path = self.work / "out.txt"
        trace_path = self.work / "spans.json"
        trace_path.unlink(missing_ok=True)
        argv = self.argv(cmd, str(trace_path) if traced else None)
        wall, cpu, code, rss_kb = self.spawn(argv, out_path)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        out = out_path.read_bytes()
        self.attempted += 1
        problems = self.verify(cmd, code, out)
        spans = None
        if traced:
            try:
                doc = json.loads(trace_path.read_text())
                if doc["cmd_id"] == str(self.seq):
                    spans = doc["spans"]
                else:
                    problems.append("spans of another command")
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"no spans: {exc}")
        if problems:
            err = (self.work / "stderr.txt").read_text(errors="replace")
            if err:
                problems.append("stderr: " + err.strip().splitlines()[-1])
            self.problems += [(cmd.key, p) for p in problems]
            self.failed += 1
        return wall, cpu, len(out), spans

    def verify(self, cmd, code, out):
        if code is None:
            return ["killed by a signal (the timeout is "
                    f"{CMD_TIMEOUT:.0f} s)"]
        digest = hashlib.sha256(out).hexdigest()
        if self.digests.setdefault(cmd.key, digest) != digest:
            return ["report bytes differ from an earlier pass"]
        ref = self.refs.get(cmd.key)
        if ref is None:
            return ["no reference for this command"]
        return check.compare(ref, code, out)


# -- statistics ---------------------------------------------------------------

def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    vals = sorted(values)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "n": len(vals)}


def layer_metrics(commands_spans):
    """Per-layer totals of one traced pass.

    commands_spans: [(command wall, report bytes, kind, spans)].  `.s` is
    time inside the outermost call of that name, `.self_s` excludes child
    spans, counts are summed from the span records.
    """
    m = {"trace.remainder_s": 0.0, "cli.report_bytes": 0,
         "counting.kernel_points": 0}
    for wall, nbytes, kind, spans in commands_spans:
        if kind == "cli":
            m["cli.report_bytes"] += nbytes
        child_time = [0.0] * len(spans)
        for _, _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        layer_self = 0.0
        for i, (_, name, t0, t1, parent, counts) in enumerate(spans):
            if name == "cmd":
                continue
            dur = t1 - t0
            own = dur - child_time[i]
            layer_self += own
            anc, nested = parent, False
            while anc >= 0:
                nested |= spans[anc][1] == name
                anc = spans[anc][4]
            if not nested:
                m[name + ".s"] = m.get(name + ".s", 0.0) + dur
            m[name + ".self_s"] = m.get(name + ".self_s", 0.0) + own
            m[name + ".calls"] = m.get(name + ".calls", 0) + 1
            for key, val in counts.items():
                m[name + "." + key] = m.get(name + "." + key, 0) + val
            if name in KERNELS:
                anc = parent
                while anc >= 0 and spans[anc][1] != "counting.verify_sweep":
                    anc = spans[anc][4]
                if anc >= 0:
                    m["counting.kernel_points"] += counts["points"]
        m["trace.remainder_s"] += wall - layer_self
    return m


# per-layer metric -> key of the pass totals, where the names differ
ALIASES = {"sieve.records": "sieve.build_table.records",
           "sieve.table_bytes": "sieve.build_table.table_bytes",
           "cli.report_rows": "cli.emit.rows"}


def per_layer_values(names, passes, walls_traced, walls_plain):
    """The per-layer metrics `names`, as medians over the traced passes."""
    def med(key):
        return statistics.median(p.get(key, 0) for p in passes)

    out = {"trace.wall_s": statistics.median(walls_traced)}
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(walls_plain)
    kernel = med("counting.kernel_points")
    out["counting.useful_point_ratio"] = \
        med("counting.verify_sweep.grid_max") / kernel if kernel else 0.0
    for name in names:
        if name in out:
            continue
        if name.endswith(".ns_per_point"):
            layer = name[: -len(".ns_per_point")]
            points = med(layer + ".points")
            out[name] = med(layer + ".s") / points * 1e9 if points else 0.0
        else:
            out[name] = med(ALIASES.get(name, name))
    return out


def exact_counts(passes):
    """Every count of a traced pass; they must agree across passes."""
    return [{k: v for k, v in p.items()
             if not (k.endswith(".s") or k.endswith("_s"))} for p in passes]


# -- the run --------------------------------------------------------------------

def fingerprint():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "git_commit": git_commit(), "src_sha256": src.hexdigest()}


def git_commit():
    """HEAD of the checkout; None when it is not a git repository or git
    is missing.  git may not look above the checkout or read config files
    outside it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def probe(runner, argv, what):
    """Time one run of a probe program; its wall seconds."""
    wall, _, code, _ = runner.spawn(argv, runner.work / "out.txt")
    runner.attempted += 1
    if code != 0:
        runner.problems.append((what, f"exited {code}"))
        runner.failed += 1
    return wall


def probe_calibrate(runner):
    """Run calibrate.py once; how many times slower than at the reference
    speed the machine ran it."""
    return probe(runner, [sys.executable, str(CALIBRATE)], "calibrate") / REF_S


def measure(runner, warm, cmds, seconds, trace):
    """Warm-up pass, then passes until `seconds` are used, with setup
    probes before the first pass and after each one.  Another pass starts
    only if at least half of it would fit, so a run lasts about `seconds`.

    The warm-up runs the same commands at SMOKE sizes: that loads every
    module and fills the page cache as a full pass would, in less time.
    Spreading the setup probes over the run lets them see the same changes
    in machine speed as the passes do.  calibrate.py runs after every
    command and every setup probe, so each has a run of it on either side.

    Returns the setup probes, the calibrate.py slowdowns, the untraced
    passes and the traced passes.  A setup probe, and each command of a
    pass, is (wall, cpu, slow), where slow is the mean slowdown of the
    calibrate.py runs on either side of it (cpu is 0 for a setup probe); a
    traced pass also has its per-layer totals.
    """
    for cmd in warm:
        runner.run(cmd)
    probe_calibrate(runner)             # warms calibrate.py's imports
    speed = [probe_calibrate(runner)]

    def calibrated(wall, cpu):
        speed.append(probe_calibrate(runner))
        return wall, cpu, (speed[-2] + speed[-1]) / 2

    setup = []

    def probe_setup(count):
        for _ in range(count):
            wall = probe(runner, [sys.executable, "-c", "import beattykit"],
                         "setup")
            setup.append(calibrated(wall, 0.0))

    probe_setup(SETUP_FIRST)
    plain, traced, layers = [], [], []
    t_start = time.perf_counter()

    def another_pass():
        if not plain or (trace and not traced):
            return True
        now = time.perf_counter()
        mean_pass = (now - t_start) / (len(plain) + len(traced))
        return now + mean_pass / 2 < t_start + seconds

    while another_pass():
        with_trace = trace and len(traced) < len(plain)
        times, spans_of_pass = [], []
        for cmd in cmds:
            wall, cpu, nbytes, spans = runner.run(cmd, traced=with_trace)
            times.append(calibrated(wall, cpu))
            if spans is not None:
                spans_of_pass.append((wall, nbytes, cmd.kind, spans))
        if with_trace:
            traced.append(times)
            layers.append(layer_metrics(spans_of_pass))
        else:
            plain.append(times)
        probe_setup(SETUP_EACH)
    return setup, speed, plain, traced, layers


def pass_stats(cmds, passes):
    """End-to-end times of the untraced passes: (raw stats, scaled).

    A raw metric's value is the sum over its commands of each command's
    median wall (or cpu) time across passes, which keeps one slow command
    in one pass from moving it; the quartiles and sample count are those of
    the per-pass totals.  Its scaled value sums the medians of each
    command's wall / slow instead: seconds at the reference speed.
    """
    def sum_of_medians(idx, value):
        return sum(statistics.median(value(p[i]) for p in passes) for i in idx)

    def raw(idx, col):
        per_pass = [sum(p[i][col] for i in idx) for p in passes]
        return dict(summary(per_pass),
                    value=sum_of_medians(idx, lambda t: t[col]))

    everything = range(len(cmds))
    groups = {"wall_s": everything}
    for fam in dict.fromkeys(c.family for c in cmds):
        groups[fam + "_s"] = [i for i, c in enumerate(cmds) if c.family == fam]
    stats = {name: raw(idx, 0) for name, idx in groups.items()}
    stats["cpu_s"] = raw(everything, 1)
    scaled = {name: sum_of_medians(idx, lambda t: t[0] / t[2])
              for name, idx in groups.items()}
    scaled["pass_s"] = scaled.pop("wall_s")
    return stats, scaled


def run_workload(args, refs, spec):
    cmds = workloads.commands(args.workload, args.seed, smoke=args.smoke)
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    try:
        runner = Runner(work, refs)
        warm = workloads.commands(args.workload, args.seed, smoke=True)
        setup, speed, plain, traced, layers = measure(
            runner, warm, cmds, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rss_mb = runner.peak_rss_kb / 1024.0

    stats, scaled = pass_stats(cmds, plain)
    imports = [wall for wall, _, _ in setup]
    stats["import_s"] = dict(summary(imports),
                             value=statistics.median(imports))
    stats["slowdown"] = dict(summary(speed), value=statistics.median(speed))
    scaled["setup_s"] = statistics.median(w / slow for w, _, slow in setup)
    scaled["peak_rss_mb"] = rss_mb
    if args.trace:
        counts = exact_counts(layers)
        runner.attempted += 1
        if any(c != counts[0] for c in counts):
            runner.problems.append(("trace", "counts differ between passes"))
            runner.failed += 1
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "smoke": args.smoke,
              "choices": workloads.choices(args.seed),
              "fingerprint": fingerprint(),
              "passes": len(plain), "traced_passes": len(traced),
              "fail_ratio": runner.failed / runner.attempted,
              "problems": [f"{k}: {p}" for k, p in runner.problems[:20]],
              "scaled": scaled, "stats": stats}

    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer_values([m["name"] for m in wanted], layers,
                                  [sum(t[0] for t in p) for p in traced],
                                  [sum(t[0] for t in p) for p in plain])
        detail["layers"] = values
    else:
        values = scaled
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps(detail, sort_keys=True))
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def make_refs():
    """Record the reference report of every command any seed can produce,
    at both size sets."""
    refs = {}
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    bad = []
    try:
        runner = Runner(work, {})
        for smoke, cmd in [(smoke, cmd) for smoke in (True, False)
                           for cmd in workloads.every_command(smoke)]:
            _, _, code, _ = runner.spawn(runner.argv(cmd), work / "out.txt")
            print(f"exit {code}: {cmd.key}", file=sys.stderr)
            # tiny smoke grids may fail a verdict (exit 2); a timed
            # workload command must pass
            if code not in ((0, 2) if smoke else (0,)):
                bad.append(cmd.key)
                continue
            refs[cmd.key] = check.make_reference(
                code, (work / "out.txt").read_bytes())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        raise SystemExit("refs.json not written; failing commands:\n"
                         + "\n".join(bad))
    REFS.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own test")
    p.add_argument("--make-refs", action="store_true",
                   help="rewrite refs.json from the current program")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "beattykit" / "__init__.py").is_file():
        print(f"error: no beattykit source under {ROOT / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 1
    if args.make_refs:
        make_refs()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads(REFS.read_text())
    print(json.dumps(run_workload(args, refs, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
