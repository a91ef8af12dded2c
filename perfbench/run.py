"""Benchmark of the heis CLI: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload tube --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds src/heis. Each operation is one
CLI experiment command, run in a fresh single-threaded process
(perfbench/child.py) that imports heis.cli and calls the command in-process.
After every operation a fresh process runs perfbench/calib.py, a fixed piece
of work that reads the machine's speed. Operations repeat with the same
inputs while the next one is expected to end within --seconds of the start;
the metrics are medians over them, with times scaled to the machine's
reference speed by the calibration medians of the same run. The outputs of
every operation are checked by perfbench/checks.py. With --trace 1 the
operations alternate untraced and traced, and the per-layer metrics come
from the traced ones. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
CALIB = HERE / "calib.py"

# Budget of one run: no new operation after OP_DEADLINE_S, and every child is
# killed by CHILD_DEADLINE_S, so a run ends well inside 180 s.
OP_DEADLINE_S = 110.0
CHILD_DEADLINE_S = 170.0
SETUP_SAMPLES = 5        # import-time samples per untraced run, at least
IMPORTTIME_SAMPLES = 3   # `-X importtime` samples per traced run
REF_PATHS = 20000        # reference-simulator paths (tube and support)

# The time of calib.py's kernel at the machine's reference speed: its median
# on the 2-vCPU VM the benchmark was written on (see README.md). A run scales
# its times by this over the median of its own calibrations.
REF_KERNEL_S = 0.33

# Each workload: the CLI command and flags, the trials its table reports, the
# reference simulation its check needs (tube or support hits, on n steps), and
# the check of its rows against that reference.
WORKLOADS = {
    "tube": {
        "command": "tube", "trials": 5000, "table_trials": 50000,
        "flags": ["--phi", "line 1 0", "--fine-step", "2^-8", "--epsilon", "0.9",
                  "--deltas", "0.9,0.8,0.7,0.6", "--min-accepted", "16", "--budget", "50000"],
        "ref": (0, 256),
        "check": lambda rows, ref: checks.check_tube(
            rows, [0.9, 0.8, 0.7, 0.6], 16, 50000, ref, REF_PATHS),
    },
    "levy": {
        "command": "levy-law", "trials": 4000, "table_trials": 4000,
        "flags": ["--fine-step", "2^-12", "--lambdas", "0.5,1,2"],
        "check": lambda rows, ref: checks.check_levy(rows, 2.0 ** -12, [0.5, 1.0, 2.0], 4000),
    },
    "support": {
        "command": "support", "trials": 10000, "table_trials": 10000,
        "flags": ["--phi", "line 1 0", "--fine-step", "2^-10", "--epsilon", "1.0"],
        "ref": (1, 1024),
        "check": lambda rows, ref: checks.check_support(rows, 10000, ref, REF_PATHS),
    },
    "dds": {
        "command": "dds-diagnostics", "trials": 10000, "table_trials": 10000,
        "flags": ["--fine-step", "2^-10", "--times", "0.25,0.5,1.0"],
        "check": lambda rows, ref: checks.check_dds(rows, 2.0 ** -10, [0.25, 0.5, 1.0], 10000),
    },
}


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(cmd, started):
    """Run one child to its end; returns (record, stderr) or raises RuntimeError."""
    timeout = max(1.0, CHILD_DEADLINE_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), proc.stderr


def calibration(started):
    """The kernel time of one calib.py process."""
    return run_child([sys.executable, str(CALIB)], started)[0]["kernel_s"]


def import_sample(started, importtime=False):
    flags = ["-X", "importtime"] if importtime else []
    return run_child([sys.executable, *flags, str(CHILD), str(SRC), "-"], started)


def importtime_cumulative(stderr, modules):
    """Cumulative seconds per module from `-X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in modules:
            out[parts[2]] = int(parts[1]) * 1e-6
    return out


def run_op(workload, argv, op_dir, traced, started, ref):
    """One operation; returns a dict of its timings and problems."""
    op_dir.mkdir(parents=True)
    spans = op_dir / "spans.json"
    cmd = [sys.executable, str(CHILD), str(SRC), str(spans) if traced else "-",
           *argv, "--out", str(op_dir)]
    t0 = time.monotonic()
    op = {"traced": traced, "problems": []}
    try:
        rec, _ = run_child(cmd, started)
    except RuntimeError as exc:
        op["problems"].append(str(exc))
        return op
    op.update(wall_s=rec["exit_mono"] - t0, import_s=rec["import_s"],
              command_s=rec["command_s"], rss_mb=rec["peak_rss_kib"] * 1024 / 1e6)
    if rec["error"]:
        op["problems"].append(f"command raised {rec['error']}")
        return op
    name = WORKLOADS[workload]["command"]
    csv_path, summary_path = op_dir / f"{name}.csv", op_dir / f"{name}.summary.json"
    if not (csv_path.is_file() and summary_path.is_file()):
        op["problems"].append(f"no table written (exit code {rec['exit_code']})")
        return op
    summary = json.loads(summary_path.read_text())
    op["problems"] += checks.check_verdict(summary, rec["exit_code"])
    op["problems"] += WORKLOADS[workload]["check"](checks.read_table(csv_path), ref)
    op["csv_sha"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    op["trials_per_s"] = WORKLOADS[workload]["table_trials"] / rec["command_s"]
    op["verdict"] = rec["exit_code"]
    if traced:
        data = json.loads(spans.read_text())
        op["layers"] = tracing.layer_metrics(data["spans"], data["counts"],
                                             WORKLOADS[workload]["table_trials"])
    return op


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    if not (SRC / "heis" / "cli.py").is_file():
        sys.exit(f"perfbench: no heis sources at {SRC}")

    wl = WORKLOADS[args.workload]
    index = sorted(WORKLOADS).index(args.workload)
    # The program's inputs: its --seed is a function of the benchmark seed.
    cli_seed = (1000 * args.seed + index) % 2 ** 31
    argv = [wl["command"], *wl["flags"], "--trials", str(wl["trials"]),
            "--seed", str(cli_seed)]
    run_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    ref = None
    if "ref" in wl:
        column, n_steps = wl["ref"]
        ref = checks.reference_line([index, args.seed % 2 ** 32, 0x5EED], REF_PATHS,
                                    n_steps, delta=0.9, epsilon=1.0)[column]

    modules = {}
    for _ in range(IMPORTTIME_SAMPLES if args.trace else 0):
        _, err = import_sample(started, importtime=True)
        for mod, s in importtime_cumulative(err, ("heis.results", "heis.cli")).items():
            modules.setdefault(mod, []).append(s)

    # Each operation is followed by a calibration; start another pair only
    # while it is expected to end within --seconds of the start of the run.
    ops, cals, durations = [], [], []
    while len(ops) < 1 + args.trace or (
            time.monotonic() - started + statistics.median(durations) <= args.seconds
            and time.monotonic() - started < OP_DEADLINE_S):
        traced = bool(args.trace) and len(ops) % 2 == 1
        t0 = time.monotonic()
        op = run_op(args.workload, argv, run_dir / f"op{len(ops)}", traced, started, ref)
        cals.append(calibration(started))
        durations.append(time.monotonic() - t0)
        first = next((o["csv_sha"] for o in ops if "csv_sha" in o), None)
        if first and op.get("csv_sha", first) != first:
            op["problems"].append("table differs from the first operation's")
        ops.append(op)
        print(f"op {len(ops)}: " + ", ".join(
            f"{k} {op[k]:.4g}" for k in ("wall_s", "import_s", "command_s") if k in op)
            + f", calibration {cals[-1]:.4g}"
            + f", verdict {op.get('verdict')}, problems {op['problems']}", file=sys.stderr)

    # Every time is scaled to the reference speed: by REF_KERNEL_S over the
    # run's median calibration (below 1 when the machine runs slow).
    cal_kernel = statistics.median(cals)
    speed = REF_KERNEL_S / cal_kernel

    good = [op for op in ops if not op["problems"]]
    failed = len(ops) - len(good)
    correct = failed == 0
    metrics = {}
    if not args.trace:
        setup = [op["import_s"] for op in ops if "import_s" in op]
        while len(setup) < SETUP_SAMPLES and time.monotonic() - started < OP_DEADLINE_S:
            setup.append(import_sample(started)[0]["import_s"])
        if good:
            metrics = {
                "wall_s": (statistics.median(op["wall_s"] for op in good) * speed, "s"),
                "setup_s": (statistics.median(setup) * speed, "s"),
                "trials_per_s": (statistics.median(
                    op["trials_per_s"] for op in good) / speed, "1/s"),
                "peak_rss_mb": (statistics.median(op["rss_mb"] for op in good), "MB"),
            }
    else:
        with_trace = [op for op in good if op["traced"]]
        plain = [op for op in good if not op["traced"]]
        counted = [{k: v for k, v in op["layers"].items() if isinstance(v, int)}
                   for op in with_trace]
        if any(c != counted[0] for c in counted):
            correct = False
            print("counts differ between traced operations", file=sys.stderr)
        if with_trace and plain:
            for name, value in with_trace[0]["layers"].items():
                if not isinstance(value, int):  # counts are equal in every traced op
                    value = statistics.median(op["layers"][name] for op in with_trace)
                metrics[name] = (value, tracing.UNITS[name])
            metrics["trace.overhead_s"] = (
                statistics.median(op["command_s"] for op in with_trace)
                - statistics.median(op["command_s"] for op in plain), "s")
            for mod in ("heis.results", "heis.cli"):
                key = "setup.import." + mod.replace(".", "_") + "_s"
                metrics[key] = (statistics.median(modules[mod]), "s")
            metrics["machine.kernel_s"] = (cal_kernel, "s")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
