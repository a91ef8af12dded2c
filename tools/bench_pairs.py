"""Benchmark a change against its parent in alternating pairs; write BENCH_<n>.json.

    python3 tools/bench_pairs.py --bench 11 --rev HEAD --workload levy:5 \\
        --workload tube:3 --seed 1101 --claim levy:peak_rss_mb

Extracts the parent revision with `git archive REV | tar -x` into a staging
directory (the repository's .git is only read), then lays out both sides the
same way: one routine copies the files git lists, in git's path order, from
the staging extract into `parent` and from the working tree (the files git
tracks or would add, as they are on disk) into `change`, two sibling
directories of one temporary directory. So neither side's layout differs
from the other's: perfbench's peak_rss_mb includes the high-water mark that
a child inherits from run.py, and that has read 137 MB in one directory and
153 MB in another for the same support code, and an extract against a copy
read setup_s 4% higher on the copy with no code difference. It then runs
`perfbench/run.py --workload W --seed N --seconds S --trace 0`, with S the
run_seconds of BENCHMARK.json, once on each side per pair, alternating which
side runs first. Both sides of a pair get
the same seed; pair k of a workload uses seed --seed + k, and the seeds go
on across workloads. Each run records its
end-to-end metrics (the names, units and directions of BENCHMARK.json), its
operation counts, the host's steal share over the run, read from the
aggregate cpu line of /proc/stat, its CPU seconds: the user plus system
time of every process the run started and reaped (its operations, their
trial workers and the calibrations), the minor page faults and the
involuntary context switches of those processes, all three from
getrusage(RUSAGE_CHILDREN), and the medians of the raw import_s and of the
calibration over the run's operations, parsed from run.py's `op N: ...`
stderr lines: perfbench scales setup_s (and every time) by the calibration,
so a setup_s move with an unmoved raw import is the calibration's. It also
records each side's line count of src/heis/*.py (heis_lines), and a cold
import probe: the median seconds, peak resident set and module count of a
few fresh `import heis.cli` processes per side, alternating sides, and
whether any of them loaded scipy. `machine` says whether bytecode writing
was off (PYTHONDONTWRITEBYTECODE); with it off, every import compiles
src/heis, so setup_s includes that compile. The output
keeps BENCH_6.json's layout:
per workload the runs of each side, their median and quartiles, the pairs the
change won, the median change and the median gap over the parent's
interquartile range. A run that exits non-zero is recorded with its exit
code and the tail of its stderr, and its pair is left out of the metrics;
the file is rewritten after every workload, so a cut session keeps the sets
it finished.
"""

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host_jiffies():
    """(steal, total) jiffies of the aggregate cpu line, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def cpu_name():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def versions():
    """Of the interpreter that runs both sides (heis needs numpy and scipy)."""
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def git_names(command, *args):
    """The paths a git listing command prints, in its order."""
    out = subprocess.run(["git", "-C", str(ROOT), command, "-z", *args], capture_output=True,
                         check=True).stdout
    return [name for name in out.decode().split("\0") if name]


def extract(rev, dest):
    """Write the tree of rev into dest without touching the working tree."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"bench_pairs: git archive {rev} failed")


def lay_out(source, names, dest):
    """Copy the regular files names of source into dest, in the given order:
    the one routine that writes both sides."""
    for name in names:
        path = Path(source) / name
        if path.is_file():
            target = Path(dest) / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path, target)


def heis_lines(checkout):
    """Lines of src/heis/*.py in a checkout, counted as `wc -l` counts them."""
    return sum(f.read_bytes().count(b"\n") for f in (Path(checkout) / "src" / "heis").glob("*.py"))


IMPORT_PROBE_RUNS = 7

# One fresh `import heis.cli` from the src directory argv[1].
_IMPORT_PROBE = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import heis.cli
seconds = time.perf_counter() - t0
if not heis.cli.__file__.startswith(sys.argv[1]):
    raise SystemExit(f"imported heis from {heis.cli.__file__}, not from {sys.argv[1]}")
print(json.dumps([seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, len(sys.modules),
                  any(m.split(".")[0] == "scipy" for m in sys.modules)]))
"""


def import_probe(sides):
    """Per side, medians over IMPORT_PROBE_RUNS fresh `import heis.cli`
    processes, run alternately on the two sides with perfbench's one-thread
    BLAS environment, and whether any of them loaded a scipy module."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    samples = {side: [] for side in sides}
    for k in range(IMPORT_PROBE_RUNS):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(sides[side] / "src")],
                                 cwd=sides[side], env=env, capture_output=True, text=True,
                                 check=True).stdout
            samples[side].append(json.loads(out))
    return {side: {"runs": len(rows),
                   "import_s": round(statistics.median(r[0] for r in rows), 4),
                   "maxrss_mib": round(statistics.median(r[1] for r in rows) / 1024, 2),
                   "modules": statistics.median(r[2] for r in rows),
                   "scipy_loaded": any(r[3] for r in rows)}
            for side, rows in samples.items()}


def children_usage():
    """User plus system seconds, minor page faults and involuntary context
    switches of every reaped descendant so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_minflt, usage.ru_nivcsw


def stderr_medians(stderr):
    """Medians of the raw import_s and of the calibration seconds of the
    `op N: ...` lines run.py prints per operation; None where none reads."""
    found = {"import_s": [], "calibration_s": []}
    for line in stderr.splitlines():
        if line.startswith("op "):
            for key, pattern in (("import_s", r"\bimport_s ([-+.\de]+)"),
                                 ("calibration_s", r"\bcalibration ([-+.\de]+)")):
                m = re.search(pattern, line)
                if m:
                    found[key].append(float(m.group(1)))
    return {k: round(statistics.median(v), 4) if v else None for k, v in found.items()}


def run_once(checkout, workload, seed, seconds):
    """One perfbench run: its JSON result line (None if it crashed), the steal
    share over it, the children_usage it added, its stderr_medians and, for
    a crash, its exit code and stderr tail."""
    before, usage_before = host_jiffies(), children_usage()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    after, usage = host_jiffies(), children_usage()
    cpu, faults, nivcsw = (b - a for a, b in zip(usage_before, usage))
    usage = round(cpu, 3), faults, nivcsw
    steal = None
    if before and after and after[1] > before[1]:
        steal = round((after[0] - before[0]) / (after[1] - before[1]), 4)
    lines = proc.stdout.strip().splitlines()
    raw = stderr_medians(proc.stderr)
    if proc.returncode != 0 or not lines:
        return None, steal, usage, raw, {"seed": seed, "returncode": proc.returncode,
                                         "stderr_tail": proc.stderr[-2000:]}
    return json.loads(lines[-1]), steal, usage, raw, None


def summarize(values):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(v, 4) for v in values]}


def metric_record(spec, parent, change):
    sign = 1 if spec["better"] == "higher" else -1
    p, c = summarize(parent), summarize(change)
    iqr = p["q3"] - p["q1"]
    gap = c["median"] - p["median"]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "parent": p,
        "change": c,
        "pairs_won_by_change": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "median_change_pct": round(100 * gap / p["median"], 1) if p["median"] else None,
        "median_gap_over_parent_iqr": round(abs(gap) / iqr, 2) if iqr else None,
    }


def bench_set(sides, workload, seeds, seconds, specs):
    runs = {"parent": [], "change": []}
    steal = {"parent": [], "change": []}
    cpu = {"parent": [], "change": []}
    minflt = {"parent": [], "change": []}
    nivcsw = {"parent": [], "change": []}
    raw = {"parent": [], "change": []}
    crashed = {"parent": [], "change": []}
    first = []
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            result, share, (cpu_s, faults, switches), medians, crash = run_once(
                sides[side], workload, seed, seconds)
            runs[side].append(result)
            raw[side].append(medians)
            steal[side].append(share)
            cpu[side].append(cpu_s)
            minflt[side].append(faults)
            nivcsw[side].append(switches)
            if crash:
                crashed[side].append(crash)
                print(f"{workload} seed {seed} {side}: exit {crash['returncode']}",
                      file=sys.stderr)
                continue
            print(f"{workload} seed {seed} {side}: correct {result['correct']}, "
                  + ", ".join(f"{m} {v['value']:.4g}" for m, v in result["metrics"].items()),
                  file=sys.stderr)
    # Only pairs whose two runs both finished enter the metrics.
    whole = [(a, b) for a, b in zip(runs["parent"], runs["change"]) if a and b]
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if whole and all(name in r["metrics"] for pair in whole for r in pair):
            metrics[name] = metric_record(spec, [a["metrics"][name]["value"] for a, _ in whole],
                                          [b["metrics"][name]["value"] for _, b in whole])

    def each(key):
        return {s: [r[key] if r else None for r in rs] for s, rs in runs.items()}

    def per_op(totals, digits=None):
        return {s: [round(t / r["attempted"], digits) if r and r["attempted"] else None
                    for t, r in zip(totals[s], runs[s])] for s in totals}

    return {
        "workload": workload,
        "seeds": seeds,
        "pairs": len(seeds),
        "pairs_measured": len(whole),
        "first_side": first,
        "correct": each("correct"),
        "failed_ops": each("failed"),
        "attempted_ops": each("attempted"),
        "crashed": crashed,
        "steal_share": steal,
        "cpu_s": cpu,
        "cpu_s_per_op": per_op(cpu, 3),
        "minflt": minflt,
        "minflt_per_op": per_op(minflt),
        "nivcsw": nivcsw,
        "nivcsw_per_op": per_op(nivcsw, 1),
        "import_s_raw_median": {s: [m["import_s"] for m in ms] for s, ms in raw.items()},
        "calibration_s_median": {s: [m["calibration_s"] for m in ms] for s, ms in raw.items()},
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", type=int, required=True, help="N of the BENCH_<N>.json to write")
    ap.add_argument("--rev", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS",
                    help="a workload of BENCHMARK.json and its number of pairs; repeatable")
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                    help="the workload and metric the change claims to improve")
    ap.add_argument("--out", default=None, help="output path (default BENCH_<N>.json at the root)")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in bench["workloads"]}
    plan = []
    for item in args.workload:
        name, _, pairs = item.partition(":")
        if name not in known or not pairs.isdigit() or int(pairs) < 1:
            sys.exit(f"bench_pairs: expected NAME:PAIRS with NAME in {sorted(known)}, got {item!r}")
        plan.append((name, int(pairs)))
    seconds = bench["run_seconds"]
    parent_sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.rev],
                                capture_output=True, text=True, check=True).stdout.strip()

    record = {
        "bench": args.bench,
        "what": f"parent commit {parent_sha} against the working tree, each side's "
                "perfbench/run.py on its own fresh copy in one temporary directory, both "
                "copies written by one routine in git's path order (the parent's from a "
                "git archive extract, the change's from the working tree)",
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} --trace 0",
        "method": "pairs of runs with the same seed, one on each side, alternating which side "
                  "runs first (first_side names it per pair); medians and quartiles "
                  "(inclusive method) over the pairs; a pair is won when the change's value is "
                  "better; steal_share is the steal jiffies over all jiffies of the aggregate "
                  "cpu line of /proc/stat, read before and after each run; cpu_s is the user plus "
                  "system seconds of the processes each run started and reaped, operations, "
                  "trial workers and calibrations included (getrusage RUSAGE_CHILDREN); it "
                  "grows with the operations that fit the run, so cpu_s_per_op divides it "
                  "by attempted_ops; minflt is the minor page faults of the same processes "
                  "(ru_minflt of RUSAGE_CHILDREN), and minflt_per_op divides it likewise; "
                  "nivcsw is their involuntary context switches (ru_nivcsw), and "
                  "nivcsw_per_op divides it likewise; "
                  "import_s_raw_median and calibration_s_median are per run the medians of "
                  "the unscaled import seconds and of the calibration seconds that run.py "
                  "prints per operation on stderr; run.py scales setup_s by the calibration; "
                  "import_probe is per side the medians of the seconds, ru_maxrss and module "
                  f"count of {IMPORT_PROBE_RUNS} fresh `import heis.cli` processes, alternating "
                  "sides, and whether any loaded scipy",
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_name(), **versions(),
                    "bytecode_writing_off": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))},
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        record["claim"] = {"workload": workload, "metric": metric}
    record["sets"] = []

    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.bench}.json"
    seed = args.seed
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        staging = Path(tmp) / "staging"
        staging.mkdir()
        extract(args.rev, staging)
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        lay_out(staging, git_names("ls-tree", "-r", "--name-only", args.rev), sides["parent"])
        lay_out(ROOT, git_names("ls-files", "--cached", "--others", "--exclude-standard"),
                sides["change"])
        shutil.rmtree(staging)
        record["heis_lines"] = {side: heis_lines(path) for side, path in sides.items()}
        record["import_probe"] = import_probe(sides)
        for name, pairs in plan:
            seeds = list(range(seed, seed + pairs))
            seed += pairs
            record["sets"].append(bench_set(sides, name, seeds, seconds, bench["end_to_end"]))
            out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
