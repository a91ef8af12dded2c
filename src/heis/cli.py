"""Command-line harness: seeded experiments, CSV tables, JSON summaries.

Every subcommand resolves its configuration (defaults < config file < flags),
runs the owning module's experiment, writes `<out>/<experiment>.csv` and
`<out>/<experiment>.summary.json`, prints one line per declared assertion,
and exits 0 (all assertions pass), 1 (failure or invalid input, with a
one-line error), or 2 (inconclusive: the conditioning event was hit too
rarely to decide).

Each experiment is one `Experiment` spec in the `EXPERIMENTS` registry at the
end of this module: its parameters, each declared once as a flag with its
default, `run(cfg) -> ResultTable` and
`verdicts(table, parameters) -> (assertions, inconclusive)`. `_command`
registers one click command per spec, so adding an experiment means writing
its run and verdicts functions and appending its spec. The acceptance suite
calls the same `verdicts`, so the CLI and the suite judge a table alike.

The summary contains a sha256 hash of the numeric-affecting configuration
fields; identical configs reproduce CSV files byte for byte. Wall-clock time
appears only in the summary, never in the CSV.
"""

import hashlib
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import click
import numpy as np

from . import density, girsanov, sde
from .group import area_increments
from .paths import TimeGrid
from .results import ResultTable
from .rng import RngSpec


# The largest magnitude of a curve coefficient or a levy-law lambda. The scans
# form fourth powers of a path's gap to the curve, which overflow for
# coefficients near 1e77, and cos(lambda A_1) overflows its product for
# lambda |A_1| near 1e308; 1e6 leaves a wide margin for both.
_MAX_MAGNITUDE = 1e6


class ReferenceParseError(ValueError):
    """Reference-curve mini-language error; carries the column position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (position {position})")


def parse_reference_curve(text: str) -> girsanov.ReferenceCurve:
    """Parse "zero" | "line A B" | "poly2 A B" into a ReferenceCurve."""
    tokens = [(m.group(0), m.start()) for m in re.finditer(r"\S+", text)]
    if not tokens:
        raise ReferenceParseError("empty reference-curve spec", 0)
    kind, pos = tokens[0]
    arity = {"zero": 0, "line": 2, "poly2": 2}.get(kind)
    if arity is None:
        raise ReferenceParseError(f"unknown curve kind {kind!r}", pos)
    args = tokens[1:]
    if len(args) < arity:
        raise ReferenceParseError(
            f"{kind!r} needs {arity} numbers, got {len(args)}", len(text))
    if len(args) > arity:
        raise ReferenceParseError("unexpected trailing token", args[arity][1])
    vals = []
    for tok, tpos in args:
        try:
            vals.append(float(tok))
        except ValueError:
            raise ReferenceParseError(f"expected a number, got {tok!r}", tpos) from None
        if not math.isfinite(vals[-1]):
            raise ReferenceParseError(f"expected a finite number, got {tok!r}", tpos)
        if abs(vals[-1]) > _MAX_MAGNITUDE:
            raise ReferenceParseError(f"expected a magnitude of at most 1e6, got {tok!r}", tpos)
    if kind == "poly2":
        return girsanov.ReferenceCurve.poly2(*vals)
    # "zero" is the line 0 0
    return girsanov.ReferenceCurve.line(*(vals or (0.0, 0.0)))


def parse_dyadic(text) -> float:
    """A dyadic step written as 2^-K (or 2**-K, or its decimal value)."""
    s = str(text).strip()
    m = re.fullmatch(r"2\s*(?:\^|\*\*)\s*-\s*(\d+)", s)
    try:
        v = 2.0 ** -int(m.group(1)) if m else float(s)
    except ValueError:
        raise ValueError(f"cannot parse dyadic step {text!r}") from None
    # also rejects NaN, infinity and a 2^-K that underflows to 0
    if not 0.0 < v < math.inf:
        raise ValueError(f"step must be positive and finite, got {text!r}")
    return v


def parse_fine_step(text) -> float:
    v = parse_dyadic(text)
    k = round(-math.log2(v))
    if 2.0 ** -k != v or not 6 <= k <= 20:
        raise ValueError(f"fine_step must be 2^-k with 6 <= k <= 20, got {text!r}")
    return v


def _positive_int(text) -> int:
    v = int(text)
    if v < 1:
        raise ValueError(text)
    return v


def _option_list(cfg, key, parse=parse_dyadic, expected="positive finite numbers"):
    """The list the option --key gives, or a one-line error that names it."""
    text = cfg["parameters"][key]
    try:
        values = [parse(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"invalid --{key}: expected {expected}, got {text!r}")
    return values


def config_hash(cfg: dict, experiment: str) -> str:
    """sha256 over the fields that influence the numeric output.

    Each spec names the fields its output does not depend on (helix is
    deterministic; simulate draws a single path); the rest is hashed.
    """
    pruned = dict(cfg)
    for key in EXPERIMENTS[experiment].unhashed:
        pruned.pop(key, None)
    blob = json.dumps(pruned, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def _assertion(name: str, passed: bool, detail: str, evaluated: bool = True) -> dict:
    """One verdict line. A check with fewer inputs than it needs is not
    evaluated: it keeps its `passed` value, which decides the exit code as
    before, but prints as N/A."""
    return {"name": name, "passed": bool(passed), "detail": detail,
            "evaluated": bool(evaluated)}


def _status(assertion: dict) -> str:
    if not assertion["evaluated"]:
        return "N/A"
    return "PASS" if assertion["passed"] else "FAIL"


def _file_value(option: click.Parameter, value):
    """A config-file value, converted by its flag's type from the text the
    flag would be given (a JSON string as is, any other value as JSON)."""
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        return option.type.convert(text, option, None)
    except click.BadParameter as exc:
        raise click.ClickException(f"invalid config: {option.name}: {exc.message}")


def resolve_config(experiment: str, config_file, seed, trials, fine_step, overrides: dict) -> dict:
    spec = EXPERIMENTS[experiment]
    cfg = {
        "experiment": experiment,
        "seed": 1,
        "trials": spec.trials,
        "fine_step": spec.fine_step,
        "parameters": dict(spec.parameters),
    }
    if config_file:
        try:
            loaded = json.loads(Path(config_file).read_text())
        except json.JSONDecodeError as exc:
            raise click.ClickException(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict) or not isinstance(loaded.get("parameters", {}), dict):
            raise click.ClickException("config file and its parameters must be JSON objects")
        if "experiment" in loaded and loaded["experiment"] != experiment:
            raise click.ClickException(
                f"config file is for {loaded['experiment']!r}, not {experiment!r}")
        unknown = (set(loaded) - {"experiment", "seed", "trials", "fine_step", "parameters"}
                   | set(loaded.get("parameters", {})) - set(spec.parameters))
        if unknown:
            raise click.ClickException(f"invalid config: unknown keys {sorted(unknown)}")
        options = {p.name: p for p in main.commands[experiment].params}
        for key in ("seed", "trials", "fine_step"):
            if key in loaded:
                cfg[key] = _file_value(options[key], loaded[key])
        for key, val in loaded.get("parameters", {}).items():
            cfg["parameters"][key] = _file_value(options[key], val)
    if seed is not None:
        cfg["seed"] = seed
    if trials is not None:
        cfg["trials"] = trials
    if fine_step is not None:
        cfg["fine_step"] = fine_step
    for key, val in overrides.items():
        if val is not None:
            cfg["parameters"][key] = val
    try:
        if cfg["trials"] < 1:
            raise ValueError("trials must be >= 1")
        parse_fine_step(cfg["fine_step"])
    except ValueError as exc:
        raise click.ClickException(f"invalid config: {exc}")
    return cfg


def _finish(out, experiment, cfg, assertions, inconclusive, write_csv, meta=None, started=None):
    out_dir = Path(out)
    csv_path = out_dir / f"{experiment}.csv"
    all_pass = all(a["passed"] for a in assertions)
    summary = {
        "config": _json_safe(cfg),
        "hash": config_hash(cfg, experiment),
        "assertions": assertions,
        "pass": bool(all_pass and not inconclusive),
        "inconclusive": bool(inconclusive),
        "meta": _json_safe(meta or {}),
    }
    # an --out that cannot be written (a file in the way, a full disk) is one error line
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(csv_path, "w") as fh:
            write_csv(fh)
        if started is not None:
            summary["wall_clock_s"] = round(time.perf_counter() - started, 3)
        with open(out_dir / f"{experiment}.summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise click.ClickException(f"cannot write --out {out!r}: {exc.strerror or exc}")
    for a in assertions:
        click.echo(f"[{_status(a)}] {a['name']}: {a['detail']}")
    # an underpowered run is not a refutation: inconclusive wins over FAIL
    if inconclusive:
        click.echo(f"{experiment}: INCONCLUSIVE ({csv_path})")
        sys.exit(2)
    if not all_pass:
        click.echo(f"{experiment}: FAIL ({csv_path})")
        sys.exit(1)
    click.echo(f"{experiment}: PASS ({csv_path})")
    sys.exit(0)


def harness_options(f):
    for opt in (
        click.option("--config", "config_file", type=click.Path(exists=True),
                     default=None, help="JSON config file; flags override it."),
        click.option("--out", default="results", show_default=True,
                     help="Output directory."),
        click.option("--fine-step", default=None, help="Dyadic step 2^-K, 6<=K<=20."),
        click.option("--trials", type=int, default=None, help="Monte-Carlo trials."),
        click.option("--seed", type=click.IntRange(0, 2 ** 64 - 1), default=None,
                     help="Base RNG seed, in [0, 2^64)."),
    ):
        f = opt(f)
    return f


class _Commands(click.Group):
    """The heis group. A usage error (a flag of the wrong type or range, an
    unknown option or command, no command) is one `Error:` line and exit 1,
    like any other bad input: exit 2 is INCONCLUSIVE's alone."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            raise click.ClickException(exc.format_message()) from None

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            raise click.ClickException(exc.format_message()) from None


@click.group(cls=_Commands, no_args_is_help=False)
def main():
    """Heisenberg-group diffusion experiments."""


def _phi(cfg) -> girsanov.ReferenceCurve:
    try:
        return parse_reference_curve(cfg["parameters"]["phi"])
    except ReferenceParseError as exc:
        raise click.ClickException(f"invalid --phi: {exc}")


def _simulate(cfg) -> ResultTable:
    if cfg["trials"] != 1:
        raise ValueError("simulate writes a single path; use --seed to vary it")
    grid = TimeGrid.uniform(round(1.0 / parse_fine_step(cfg["fine_step"])))
    sample = sde.hypoelliptic_bm(grid, RngSpec(cfg["seed"]))
    rows = [(t, x, y, z) for t, (x, y), z
            in zip(sample.grid.times, sample.planar, sample.z)]
    return ResultTable(["t", "x", "y", "z"], rows, {"n_steps": sample.grid.n_steps})


def _simulate_verdicts(table, parameters):
    t, x, y, z = (table.column(c) for c in table.columns)
    inc = area_increments(np.stack([x, y], axis=-1))
    defect = float(np.max(np.abs(np.diff(z) - inc)) / (t[1] - t[0]))
    return [
        _assertion("starts-at-identity", x[0] == 0.0 and y[0] == 0.0 and z[0] == 0.0,
                   "g(0) = e"),
        _assertion("area-is-left-point-lift", defect <= 1e-9,
                   f"piecewise-linear lift defect {defect:.3e} <= 1e-9"),
    ], False


def _ws_converge(cfg) -> ResultTable:
    fine = parse_fine_step(cfg["fine_step"])
    dl = sorted(_option_list(cfg, "deltas"), reverse=True)
    interp = {"linear": sde.LINEAR, "smoothstep": sde.SMOOTHSTEP}[
        cfg["parameters"]["interpolant"]]
    return sde.ws_convergence_experiment(dl, fine, cfg["trials"], RngSpec(cfg["seed"]), interp)


def _ws_converge_verdicts(table, parameters):
    # one halving of delta keeps about 0.6 of the estimate, so the halving is
    # judged only on a ladder whose finest step is at most a quarter of its coarsest
    delta, est, se = (table.column(c) for c in ("delta", "estimate", "stderr"))
    drops = all(est[i] - est[i + 1] > 3.0 * math.hypot(se[i], se[i + 1])
                for i in range(len(est) - 1))
    deep = delta[-1] <= 0.25 * delta[0]
    return [
        _assertion("drops-beyond-3se", drops, "E[d^2] " + ", ".join(f"{e:.4e}" for e in est),
                   evaluated=len(est) >= 2),
        _assertion("finest-below-half-coarsest", not deep or est[-1] < 0.5 * est[0],
                   f"finest {est[-1]:.4e}, half coarsest {0.5 * est[0]:.4e}", evaluated=deep),
    ], False


def _energy_diverge(cfg) -> ResultTable:
    hs = sorted(_option_list(cfg, "steps"))
    if hs[0] != parse_fine_step(cfg["fine_step"]):
        raise ValueError(
            f"fine_step {cfg['fine_step']} must equal the smallest step {hs[0]:g}")
    wz = parse_dyadic(cfg["parameters"]["wz_delta"])
    return sde.energy_divergence_experiment(hs, cfg["trials"], RngSpec(cfg["seed"]), wz)


def _energy_diverge_verdicts(table, parameters):
    raw_ok, raw_parts = True, []
    plateau_vals = []
    for d, est, se, _, h, _ in table.rows:
        if d == h:  # raw family
            raw_ok = raw_ok and abs(est - 2.0 / h) <= 3.0 * se
            raw_parts.append(f"h={h:g}: {est:.1f} vs {2.0 / h:.0f} (3se={3 * se:.2f})")
        elif h <= 2.0 ** -6:
            plateau_vals.append(est)
    spread = (max(plateau_vals) - min(plateau_vals)) / np.mean(plateau_vals)
    return [
        _assertion("raw-energy-2-over-h", raw_ok, "; ".join(raw_parts)),
        _assertion("smoothed-plateau-1pct", spread <= 0.01,
                   f"relative spread {spread:.2e} over {len(plateau_vals)} steps"),
    ], False


def _tube(cfg) -> ResultTable:
    p = cfg["parameters"]
    return girsanov.tube_decay_experiment(
        _phi(cfg), float(p["epsilon"]), sorted(_option_list(cfg, "deltas"), reverse=True),
        cfg["trials"], RngSpec(cfg["seed"]), parse_fine_step(cfg["fine_step"]),
        min_accepted=int(p["min_accepted"]), budget=int(p["budget"]))


def _tube_verdicts(table, parameters):
    p = table.column("p_hat")
    se = table.column("stderr")
    acc = table.column("accepted")
    # a level no trial reached has no estimate, whatever min_accepted allows
    need = max(1, int(parameters["min_accepted"]))
    valid = acc >= need
    inconclusive = not bool(np.all(valid))
    pv, sev = p[valid], se[valid]
    mono = all(pv[i + 1] <= pv[i] + 2.0 * math.hypot(sev[i], sev[i + 1])
               for i in range(len(pv) - 1))
    # strict, so a flat ladder with zero stderr (p_hat 1 throughout) fails
    drop = (len(pv) >= 2
            and pv[-1] < pv[0] - 3.0 * math.hypot(sev[0], sev[-1]))
    return [
        _assertion("acceptance-counts", not inconclusive,
                   "accepted " + ", ".join(str(int(a)) for a in acc)
                   + f" (need >= {need})"),
        _assertion("non-increasing-2se", mono,
                   "p_hat " + (", ".join(f"{x:.4f}" for x in pv) or "none usable"),
                   evaluated=len(pv) >= 2),
        _assertion("last-below-first-3se", bool(drop),
                   f"first {pv[0]:.4f}, last {pv[-1]:.4f}" if len(pv) >= 2
                   else "fewer than two usable levels"),
    ], inconclusive


def _girsanov_ratio(cfg) -> ResultTable:
    return girsanov.girsanov_ratio_experiment(
        _phi(cfg), sorted(_option_list(cfg, "deltas"), reverse=True),
        cfg["trials"], RngSpec(cfg["seed"]), parse_fine_step(cfg["fine_step"]))


def _girsanov_ratio_verdicts(table, parameters):
    target = table.meta["target"]
    est = table.column("estimate")
    se = table.column("stderr")
    valid = table.column("accepted") > 0
    ev, sev = est[valid], se[valid]
    gaps = np.abs(ev - target)
    trend = all(gaps[i + 1] <= gaps[i] + 2.0 * math.hypot(sev[i], sev[i + 1])
                for i in range(len(ev) - 1))
    mw, mw_se = table.meta["mean_weight"], table.meta["mean_weight_stderr"]
    return [
        _assertion("mean-weight-unbiased", abs(mw - 1.0) <= 3.0 * mw_se,
                   f"E[weight] = {mw:.5f} +- {mw_se:.5f}"),
        _assertion("trend-toward-target", trend,
                   f"|estimate - {target:.5f}|: "
                   + (", ".join(f"{g:.4f}" for g in gaps) or "none usable"),
                   evaluated=len(ev) >= 2),
        _assertion("final-near-target",
                   bool(valid.any()) and gaps[-1] <= 3.0 * sev[-1] + 0.02,
                   f"last estimate {ev[-1]:.5f} vs target {target:.5f}"
                   if valid.any() else "no usable level"),
    ], bool(table.meta.get("inconclusive"))


def _dds(cfg) -> ResultTable:
    return girsanov.dds_experiment(cfg["trials"], parse_fine_step(cfg["fine_step"]),
                                   _option_list(cfg, "times"),
                                   RngSpec(cfg["seed"]))


def _dds_verdicts(table, parameters):
    clock_ok, indep_ok = True, True
    details_c, details_i, quarter = [], [], []
    for t, var, tau, c1, c2, se_v, se_t, se_c1, se_c2 in table.rows:
        tol = 3.0 * math.hypot(se_v, se_t)
        clock_ok = clock_ok and abs(var - tau) <= tol
        details_c.append(f"t={t:g}: |{var:.4f}-{tau:.4f}|<= {tol:.4f}")
        indep_ok = indep_ok and abs(c1) <= 3.0 * se_c1 and abs(c2) <= 3.0 * se_c2
        details_i.append(f"t={t:g}: corr=({c1:.4f},{c2:.4f})")
        if t == 1.0:
            quarter.append(_assertion(
                "clock-mean-quarter", abs(tau - 0.25) <= 3.0 * se_t,
                f"E[tau(1)] = {tau:.5f} +- {se_t:.5f}"))
    return [
        _assertion("variance-matches-clock", clock_ok, "; ".join(details_c)),
        _assertion("area-uncorrelated-with-planar", indep_ok, "; ".join(details_i)),
        *quarter,
    ], False


def _helix(cfg) -> ResultTable:
    p = cfg["parameters"]
    ns = _option_list(cfg, "n", _positive_int, "positive integers")
    target = _option_list(cfg, "target", float, "three finite numbers")
    if len(target) != 3 or not all(map(math.isfinite, target)):
        raise ValueError(f"invalid --target: expected three finite numbers, got {p['target']!r}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return density.helix_convergence(ns, *target, p["variant"], int(p["refine"]))
    except FloatingPointError as exc:
        raise ValueError(f"invalid --target: the helix to {p['target']!r} overflows ({exc})")


def _helix_verdicts(table, parameters):
    dist = table.column("distance")
    c0, c1 = table.meta["fitted_C"], table.meta["fitted_C_refined"]
    return [
        _assertion("strictly-decreasing", bool(np.all(np.diff(dist) < 0)),
                   "distances " + ", ".join(f"{d:.5f}" for d in dist)),
        _assertion("rate-constant-stable", abs(c1 - c0) <= 0.10 * c0,
                   f"C = {c0:.5f}, refined {c1:.5f}"),
    ], False


def _support(cfg) -> ResultTable:
    return girsanov.support_positivity(
        _phi(cfg), float(cfg["parameters"]["epsilon"]), cfg["trials"],
        RngSpec(cfg["seed"]), parse_fine_step(cfg["fine_step"]))


def _support_verdicts(table, parameters):
    eps, _, _, lower, hits, total, _ = table.rows[0]
    return [
        _assertion("positive-support-lower-bound", lower > 0.0,
                   f"P(d < {eps:g}) >= {lower:.5f} at 99% ({hits}/{total} hits)"),
    ], hits == 0


def _levy_law(cfg) -> ResultTable:
    lambdas = _option_list(cfg, "lambdas")
    for lam in lambdas:
        if abs(lam) > _MAX_MAGNITUDE:
            raise ValueError(f"invalid --lambdas: expected magnitudes of at most 1e6, got {lam:g}")
    return sde.levy_area_law_experiment(parse_fine_step(cfg["fine_step"]), cfg["trials"],
                                        lambdas, RngSpec(cfg["seed"]))


def _levy_law_verdicts(table, parameters):
    _, var, var_se, *_ = table.rows[0]
    cos_ok, parts = True, []
    for lam, est, se, *_ in table.rows[1:]:
        tgt = sde.cosine_target(lam)
        cos_ok = cos_ok and abs(est - tgt) <= 3.0 * se + 0.002
        parts.append(f"lambda={lam:g}: {est:.5f} vs {tgt:.5f}")
    return [
        _assertion("variance-one-quarter", abs(var - 0.25) <= 3.0 * var_se,
                   f"Var(A_1) = {var:.5f} +- {var_se:.5f}"),
        _assertion("cosine-moments", cos_ok, "; ".join(parts)),
    ], False


def _param(flag: str, default, **click_kwargs):
    """One parameter of a command: its name (the flag's, with underscores),
    its default and its flag. The flag itself defaults to None, so an unset
    flag leaves the config file's value or this default."""
    name = flag[2:].replace("-", "_")
    return name, default, click.option(flag, name, default=None, **click_kwargs)


_CURVE_HELP = 'Reference curve: "zero" | "line A B" | "poly2 A B".'


@dataclass(frozen=True)
class Experiment:
    """One CLI command: its parameters, experiment and verdicts."""

    name: str
    help: str
    trials: int
    fine_step: str
    params: tuple  # of _param entries, in help order
    run: Callable[[dict], ResultTable]
    verdicts: Callable[[ResultTable, dict], tuple]
    # config fields the output does not depend on, left out of the hash
    unhashed: tuple = ()
    # how to ask for less memory, named by the options that set the run's size
    sizes: str = "fewer --trials or a coarser --fine-step"

    @property
    def parameters(self) -> dict:
        return {name: default for name, default, _ in self.params}


def _command(spec: Experiment):
    def command(config_file, out, fine_step, trials, seed, **overrides):
        cfg = resolve_config(spec.name, config_file, seed, trials, fine_step, overrides)
        started = time.perf_counter()
        live = EXPERIMENTS[spec.name]  # looked up at call time, like _finish below
        try:
            table = live.run(cfg)
            assertions, inconclusive = live.verdicts(table, cfg["parameters"])
        except ValueError as exc:
            raise click.ClickException(str(exc))
        except MemoryError as exc:
            detail = f": {exc}" if str(exc) else ""
            raise click.ClickException(f"out of memory, try {live.sizes}{detail}")
        except sde.WorkerError as exc:
            # the failure, then the last line of a failed worker's traceback
            first, *traceback = str(exc).splitlines()
            raise click.ClickException(" ".join([first] + traceback[-1:]))
        # looked up at call time, so a wrapper bound to heis.cli._finish sees it
        _finish(out, spec.name, cfg, assertions, inconclusive, table.to_csv,
                table.meta, started)

    command = harness_options(command)
    for _, _, option in reversed(spec.params):
        command = option(command)
    main.command(name=spec.name, help=spec.help)(command)


EXPERIMENTS = {spec.name: spec for spec in (
    Experiment(
        "simulate", "Sample one hypoelliptic Brownian path and write its nodes.",
        1, "2^-10", (), _simulate, _simulate_verdicts, unhashed=("trials",),
        sizes="a coarser --fine-step"),
    Experiment(
        "ws-converge", "Mean-square distance between g and its smoothed approximations.",
        2000, "2^-12",
        (_param("--deltas", "2^-2,2^-3,2^-4,2^-5", help="Coarse steps, e.g. 2^-2,2^-3."),
         _param("--interpolant", "linear", type=click.Choice(["linear", "smoothstep"]))),
        _ws_converge, _ws_converge_verdicts),
    Experiment(
        "energy-diverge", "Discrete energy blow-up of g versus the smoothed path's plateau.",
        512, "2^-10",
        (_param("--steps", "2^-6,2^-7,2^-8,2^-9,2^-10",
                help="Evaluation steps, e.g. 2^-6,2^-7."),
         _param("--wz-delta", "2^-3", help="Smoothing step.")),
        _energy_diverge, _energy_diverge_verdicts,
        sizes="fewer --trials or coarser --steps and --fine-step"),
    Experiment(
        "tube", "Tube-conditioned exceedance of the group distance to a curve.",
        100000, "2^-10",
        (_param("--phi", "line 1 0", help=_CURVE_HELP),
         _param("--epsilon", 0.9, type=float),
         _param("--deltas", "0.9,0.8,0.7,0.6", help="Tube radii ladder."),
         _param("--min-accepted", 200, type=int),
         _param("--budget", 1000000, type=int)),
        _tube, _tube_verdicts,
        sizes="fewer --trials, a lower --budget or a coarser --fine-step"),
    Experiment(
        "girsanov-ratio", "Tube-conditioned mean of the exponential martingale weight.",
        200000, "2^-10",
        (_param("--phi", "line 1 0", help=_CURVE_HELP),
         _param("--deltas", "1.0,0.8,0.7,0.6", help="Centered tube radii ladder.")),
        _girsanov_ratio, _girsanov_ratio_verdicts),
    Experiment(
        "dds-diagnostics",
        "Variance of the area versus the mean quarter clock, plus independence.",
        100000, "2^-10",
        (_param("--times", "0.25,0.5,1.0", help="Diagnostic times, grid nodes."),),
        _dds, _dds_verdicts),
    Experiment(
        "helix", "Helix distance-to-target convergence table.",
        1, "2^-10",
        (_param("--n", "4,8,16,32,64", help="Helix index ladder."),
         _param("--target", "0,0,1", help="Linear target a1,a2,a3."),
         _param("--variant", "identity", type=click.Choice(["identity", "verbatim"])),
         _param("--refine", 4, type=int, help="Grid refinement factor check, at least 2.")),
        _helix, _helix_verdicts, unhashed=("seed", "trials", "fine_step"),
        sizes="a smaller --n, --refine or |a3| of --target"),
    Experiment(
        "support", "Positive probability of landing epsilon-close to a reference lift.",
        100000, "2^-10",
        (_param("--phi", "line 1 0", help=_CURVE_HELP), _param("--epsilon", 1.0, type=float)),
        _support, _support_verdicts),
    Experiment(
        "levy-law", "Second moment and cosine moments of the time-1 stochastic area.",
        100000, "2^-12",
        (_param("--lambdas", "0.5,1,2", help="Cosine-moment frequencies."),),
        _levy_law, _levy_law_verdicts),
)}

for _spec in EXPERIMENTS.values():
    _command(_spec)


if __name__ == "__main__":
    main()
