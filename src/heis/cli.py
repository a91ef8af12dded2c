"""Command-line harness: seeded experiments, CSV tables, JSON summaries.

Every subcommand resolves its configuration (defaults < config file < flags),
runs the owning module's experiment, writes `<out>/<experiment>.csv` and
`<out>/<experiment>.summary.json`, prints one line per declared assertion,
and exits 0 (all assertions pass), 1 (failure), or 2 (inconclusive: the
conditioning event was hit too rarely to decide).

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
from pathlib import Path

import click
import numpy as np

from . import density, girsanov, sde
from .paths import TimeGrid, write_path_csv
from .results import ResultTable
from .rng import RngSpec

EXPERIMENTS = (
    "simulate", "ws-converge", "energy-diverge", "tube", "girsanov-ratio",
    "dds-diagnostics", "helix", "support", "levy-law",
)

_DEFAULTS = {
    "simulate": dict(trials=1, fine_step="2^-10", parameters={}),
    "ws-converge": dict(trials=2000, fine_step="2^-12", parameters={
        "deltas": "2^-2,2^-3,2^-4,2^-5", "interpolant": "linear"}),
    "energy-diverge": dict(trials=512, fine_step="2^-10", parameters={
        "steps": "2^-6,2^-7,2^-8,2^-9,2^-10", "wz_delta": "2^-3"}),
    "tube": dict(trials=100000, fine_step="2^-10", parameters={
        "phi": "line 1 0", "epsilon": 0.9, "deltas": "0.9,0.8,0.7,0.6",
        "min_accepted": 200, "budget": 1000000}),
    "girsanov-ratio": dict(trials=200000, fine_step="2^-10", parameters={
        "phi": "line 1 0", "deltas": "1.0,0.8,0.7,0.6"}),
    "dds-diagnostics": dict(trials=100000, fine_step="2^-10", parameters={
        "times": "0.25,0.5,1.0"}),
    "helix": dict(trials=1, fine_step="2^-10", parameters={
        "n": "4,8,16,32,64", "target": "0,0,1", "variant": "identity",
        "refine": 4}),
    "support": dict(trials=100000, fine_step="2^-10", parameters={
        "phi": "line 1 0", "epsilon": 1.0}),
    "levy-law": dict(trials=100000, fine_step="2^-12", parameters={
        "lambdas": "0.5,1,2"}),
}


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
    if kind == "zero":
        return girsanov.ReferenceCurve.zero()
    if kind == "line":
        return girsanov.ReferenceCurve.line(*vals)
    return girsanov.ReferenceCurve.poly2(*vals)


def parse_dyadic(text) -> float:
    """A dyadic step written as 2^-K (or 2**-K, or its decimal value)."""
    s = str(text).strip()
    m = re.fullmatch(r"2\s*(?:\^|\*\*)\s*-\s*(\d+)", s)
    if m:
        return 2.0 ** -int(m.group(1))
    try:
        v = float(s)
    except ValueError:
        raise ValueError(f"cannot parse dyadic step {text!r}") from None
    if v <= 0:
        raise ValueError(f"step must be positive, got {text!r}")
    return v


def parse_fine_step(text) -> float:
    v = parse_dyadic(text)
    k = round(-math.log2(v))
    if 2.0 ** -k != v or not 6 <= k <= 20:
        raise ValueError(f"fine_step must be 2^-k with 6 <= k <= 20, got {text!r}")
    return v


def parse_float_list(text):
    return [parse_dyadic(tok) for tok in str(text).split(",") if tok.strip()]


def parse_int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def config_hash(cfg: dict, experiment: str) -> str:
    """sha256 over the fields that influence the numeric output.

    Deterministic experiments (helix) exclude seed/trials; the single-path
    simulator excludes trials. Everything else hashes the full config.
    """
    pruned = dict(cfg)
    if experiment == "helix":
        pruned.pop("seed", None)
        pruned.pop("trials", None)
        pruned.pop("fine_step", None)
    if experiment == "simulate":
        pruned.pop("trials", None)
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


def _assertion(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def resolve_config(experiment: str, config_file, seed, trials, fine_step, overrides: dict) -> dict:
    cfg = {
        "experiment": experiment,
        "seed": 1,
        "trials": _DEFAULTS[experiment]["trials"],
        "fine_step": _DEFAULTS[experiment]["fine_step"],
        "parameters": dict(_DEFAULTS[experiment]["parameters"]),
    }
    if config_file:
        try:
            loaded = json.loads(Path(config_file).read_text())
        except json.JSONDecodeError as exc:
            raise click.ClickException(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise click.ClickException("config file must hold a JSON object")
        if "experiment" in loaded and loaded["experiment"] != experiment:
            raise click.ClickException(
                f"config file is for {loaded['experiment']!r}, not {experiment!r}")
        for key in ("seed", "trials", "fine_step"):
            if key in loaded:
                cfg[key] = loaded[key]
        cfg["parameters"].update(loaded.get("parameters", {}))
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
        cfg["seed"] = int(cfg["seed"])
        cfg["trials"] = int(cfg["trials"])
        if cfg["trials"] < 1:
            raise ValueError("trials must be >= 1")
        parse_fine_step(cfg["fine_step"])
    except ValueError as exc:
        raise click.ClickException(f"invalid config: {exc}")
    return cfg


def _finish(out, experiment, cfg, assertions, inconclusive, write_csv, meta=None, started=None):
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{experiment}.csv"
    with open(csv_path, "w") as fh:
        write_csv(fh)
    all_pass = all(a["passed"] for a in assertions)
    summary = {
        "config": _json_safe(cfg),
        "hash": config_hash(cfg, experiment),
        "assertions": assertions,
        "pass": bool(all_pass and not inconclusive),
        "inconclusive": bool(inconclusive),
        "meta": _json_safe(meta or {}),
    }
    if started is not None:
        summary["wall_clock_s"] = round(time.perf_counter() - started, 3)
    with open(out_dir / f"{experiment}.summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for a in assertions:
        status = "PASS" if a["passed"] else "FAIL"
        click.echo(f"[{status}] {a['name']}: {a['detail']}")
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
        click.option("--seed", type=int, default=None, help="Base RNG seed."),
    ):
        f = opt(f)
    return f


@click.group()
def main():
    """Heisenberg-group diffusion experiments."""


def _grid(cfg) -> TimeGrid:
    return TimeGrid.uniform(round(1.0 / parse_fine_step(cfg["fine_step"])))


def _phi(cfg) -> girsanov.ReferenceCurve:
    try:
        return parse_reference_curve(cfg["parameters"]["phi"])
    except ReferenceParseError as exc:
        raise click.ClickException(f"invalid --phi: {exc}")


@main.command()
@harness_options
def simulate(config_file, out, fine_step, trials, seed):
    """Sample one hypoelliptic Brownian path and write its nodes."""
    cfg = resolve_config("simulate", config_file, seed, trials, fine_step, {})
    if cfg["trials"] != 1:
        raise click.ClickException("simulate writes a single path; use --seed to vary it")
    started = time.perf_counter()
    sample = sde.hypoelliptic_bm(_grid(cfg), RngSpec(cfg["seed"]))
    path = sample.path()
    h = sample.grid.step
    dz = np.diff(sample.area)
    inc = 0.5 * (sample.planar[:-1, 0] * np.diff(sample.planar[:, 1])
                 - np.diff(sample.planar[:, 0]) * sample.planar[:-1, 1])
    defect = float(np.max(np.abs(dz - inc)) / h)
    assertions = [
        _assertion("starts-at-identity",
                   sample.planar[0, 0] == 0.0 and sample.planar[0, 1] == 0.0
                   and sample.area[0] == 0.0, "g(0) = e"),
        _assertion("area-is-left-point-lift", defect <= 1e-9,
                   f"piecewise-linear lift defect {defect:.3e} <= 1e-9"),
    ]
    _finish(out, "simulate", cfg, assertions, False,
            lambda fh: write_path_csv(path, fh),
            {"n_steps": sample.grid.n_steps}, started)


@main.command(name="ws-converge")
@click.option("--deltas", default=None, help="Coarse steps, e.g. 2^-2,2^-3.")
@click.option("--interpolant", default=None,
              type=click.Choice(["linear", "smoothstep"]))
@harness_options
def ws_converge(config_file, out, fine_step, trials, seed, deltas, interpolant):
    """Mean-square distance between g and its smoothed approximations."""
    cfg = resolve_config("ws-converge", config_file, seed, trials, fine_step,
                         {"deltas": deltas, "interpolant": interpolant})
    started = time.perf_counter()
    fine = parse_fine_step(cfg["fine_step"])
    dl = sorted(parse_float_list(cfg["parameters"]["deltas"]), reverse=True)
    for d in dl:
        if abs(d / fine - round(d / fine)) > 1e-9:
            raise click.ClickException(f"delta {d} is not a multiple of fine_step")
    interp = {"linear": sde.LINEAR, "smoothstep": sde.SMOOTHSTEP}[
        cfg["parameters"]["interpolant"]]
    try:
        table = sde.ws_convergence_experiment(dl, fine, cfg["trials"],
                                              RngSpec(cfg["seed"]), interp)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    est = table.column("estimate")
    assertions = [
        _assertion("monotone-decreasing", bool(np.all(np.diff(est) < 0)),
                   "E[d^2] estimates " + ", ".join(f"{e:.3e}" for e in est)),
    ]
    _finish(out, "ws-converge", cfg, assertions, False, table.to_csv,
            table.meta, started)


@main.command(name="energy-diverge")
@click.option("--steps", default=None, help="Evaluation steps, e.g. 2^-6,2^-7.")
@click.option("--wz-delta", "wz_delta", default=None, help="Smoothing step.")
@harness_options
def energy_diverge(config_file, out, fine_step, trials, seed, steps, wz_delta):
    """Discrete energy blow-up of g versus the smoothed path's plateau."""
    cfg = resolve_config("energy-diverge", config_file, seed, trials, fine_step,
                         {"steps": steps, "wz_delta": wz_delta})
    started = time.perf_counter()
    hs = sorted(parse_float_list(cfg["parameters"]["steps"]))
    fine = parse_fine_step(cfg["fine_step"])
    if hs[0] != fine:
        raise click.ClickException(
            f"fine_step {cfg['fine_step']} must equal the smallest step {hs[0]:g}")
    wz = parse_dyadic(cfg["parameters"]["wz_delta"])
    try:
        table = sde.energy_divergence_experiment(hs, cfg["trials"],
                                                 RngSpec(cfg["seed"]), wz)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    raw_ok, raw_parts = True, []
    plateau_vals = []
    for row in table.rows:
        d, est, se, _, h, _ = row
        if d == h:  # raw family
            gap = abs(est - 2.0 / h)
            raw_ok = raw_ok and gap <= 3.0 * se
            raw_parts.append(f"h={h:g}: {est:.1f} vs {2.0 / h:.0f} (3se={3 * se:.2f})")
        elif h <= 2.0 ** -6:
            plateau_vals.append(est)
    spread = (max(plateau_vals) - min(plateau_vals)) / np.mean(plateau_vals)
    assertions = [
        _assertion("raw-energy-2-over-h", raw_ok, "; ".join(raw_parts)),
        _assertion("smoothed-plateau-1pct", spread <= 0.01,
                   f"relative spread {spread:.2e} over {len(plateau_vals)} steps"),
    ]
    _finish(out, "energy-diverge", cfg, assertions, False, table.to_csv,
            table.meta, started)


@main.command()
@click.option("--phi", default=None, help='Reference curve: "zero" | "line A B" | "poly2 A B".')
@click.option("--epsilon", type=float, default=None)
@click.option("--deltas", default=None, help="Tube radii ladder.")
@click.option("--min-accepted", "min_accepted", type=int, default=None)
@click.option("--budget", type=int, default=None)
@harness_options
def tube(config_file, out, fine_step, trials, seed, phi, epsilon, deltas,
         min_accepted, budget):
    """Tube-conditioned exceedance of the group distance to a curve."""
    cfg = resolve_config("tube", config_file, seed, trials, fine_step,
                         {"phi": phi, "epsilon": epsilon, "deltas": deltas,
                          "min_accepted": min_accepted, "budget": budget})
    started = time.perf_counter()
    curve = _phi(cfg)
    dl = sorted(parse_float_list(cfg["parameters"]["deltas"]), reverse=True)
    eps = float(cfg["parameters"]["epsilon"])
    try:
        table = girsanov.tube_decay_experiment(
            curve, eps, dl, cfg["trials"], RngSpec(cfg["seed"]),
            parse_fine_step(cfg["fine_step"]),
            min_accepted=int(cfg["parameters"]["min_accepted"]),
            budget=int(cfg["parameters"]["budget"]))
    except girsanov.InsufficientAcceptanceError as exc:
        cfg_note = {"error": str(exc)}
        _finish(out, "tube", cfg, [], True,
                lambda fh: fh.write("delta,epsilon,p_hat,stderr,accepted,total,seed\n"),
                cfg_note, started)
    p = table.column("p_hat")
    se = table.column("stderr")
    acc = table.column("accepted")
    valid = acc >= int(cfg["parameters"]["min_accepted"])
    inconclusive = not bool(np.all(valid))
    pv, sev = p[valid], se[valid]
    mono = all(pv[i + 1] <= pv[i] + 2.0 * math.hypot(sev[i], sev[i + 1])
               for i in range(len(pv) - 1))
    drop = (len(pv) >= 2
            and pv[-1] <= pv[0] - 3.0 * math.hypot(sev[0], sev[-1]))
    assertions = [
        _assertion("acceptance-counts", not inconclusive,
                   "accepted " + ", ".join(str(int(a)) for a in acc)
                   + f" (need >= {cfg['parameters']['min_accepted']})"),
        _assertion("non-increasing-2se", mono,
                   "p_hat " + ", ".join(f"{x:.4f}" for x in pv)),
        _assertion("last-below-first-3se", bool(drop),
                   f"first {pv[0]:.4f}, last {pv[-1]:.4f}" if len(pv) >= 2
                   else "fewer than two usable levels"),
    ]
    _finish(out, "tube", cfg, assertions, inconclusive, table.to_csv,
            table.meta, started)


@main.command(name="girsanov-ratio")
@click.option("--phi", default=None, help='Reference curve spec.')
@click.option("--deltas", default=None, help="Centered tube radii ladder.")
@harness_options
def girsanov_ratio(config_file, out, fine_step, trials, seed, phi, deltas):
    """Tube-conditioned mean of the exponential martingale weight."""
    cfg = resolve_config("girsanov-ratio", config_file, seed, trials, fine_step,
                         {"phi": phi, "deltas": deltas})
    started = time.perf_counter()
    curve = _phi(cfg)
    dl = sorted(parse_float_list(cfg["parameters"]["deltas"]), reverse=True)
    try:
        table = girsanov.girsanov_ratio_experiment(
            curve, dl, cfg["trials"], RngSpec(cfg["seed"]),
            parse_fine_step(cfg["fine_step"]))
    except girsanov.InsufficientAcceptanceError as exc:
        _finish(out, "girsanov-ratio", cfg, [], True,
                lambda fh: fh.write("delta,estimate,stderr,accepted,total,target,seed\n"),
                {"error": str(exc)}, started)
    target = table.meta["target"]
    est = table.column("estimate")
    se = table.column("stderr")
    acc = table.column("accepted")
    valid = acc > 0
    inconclusive = bool(table.meta.get("inconclusive"))
    ev, sev = est[valid], se[valid]
    gaps = np.abs(ev - target)
    trend = all(gaps[i + 1] <= gaps[i] + 2.0 * math.hypot(sev[i], sev[i + 1])
                for i in range(len(ev) - 1))
    mw, mw_se = table.meta["mean_weight"], table.meta["mean_weight_stderr"]
    assertions = [
        _assertion("mean-weight-unbiased", abs(mw - 1.0) <= 3.0 * mw_se,
                   f"E[weight] = {mw:.5f} +- {mw_se:.5f}"),
        _assertion("trend-toward-target", trend,
                   f"|estimate - {target:.5f}|: "
                   + ", ".join(f"{g:.4f}" for g in gaps)),
        _assertion("final-near-target",
                   bool(valid.any()) and gaps[-1] <= 3.0 * sev[-1] + 0.02,
                   f"last estimate {ev[-1]:.5f} vs target {target:.5f}"
                   if valid.any() else "no usable level"),
    ]
    _finish(out, "girsanov-ratio", cfg, assertions, inconclusive, table.to_csv,
            table.meta, started)


@main.command(name="dds-diagnostics")
@click.option("--times", default=None, help="Diagnostic times, grid nodes.")
@harness_options
def dds_diagnostics(config_file, out, fine_step, trials, seed, times):
    """Variance of the area versus the mean quarter clock, plus independence."""
    cfg = resolve_config("dds-diagnostics", config_file, seed, trials, fine_step,
                         {"times": times})
    started = time.perf_counter()
    ts = parse_float_list(cfg["parameters"]["times"])
    try:
        table = girsanov.dds_experiment(cfg["trials"],
                                        parse_fine_step(cfg["fine_step"]), ts,
                                        RngSpec(cfg["seed"]))
    except ValueError as exc:
        raise click.ClickException(str(exc))
    assertions = []
    clock_ok, indep_ok = True, True
    details_c, details_i = [], []
    for row in table.rows:
        t, var, tau, c1, c2, se_v, se_t, se_c1, se_c2 = row
        gap = abs(var - tau)
        tol = 3.0 * math.hypot(se_v, se_t)
        clock_ok = clock_ok and gap <= tol
        details_c.append(f"t={t:g}: |{var:.4f}-{tau:.4f}|<= {tol:.4f}")
        ok = abs(c1) <= 3.0 * se_c1 and abs(c2) <= 3.0 * se_c2
        indep_ok = indep_ok and ok
        details_i.append(f"t={t:g}: corr=({c1:.4f},{c2:.4f})")
        if t == 1.0:
            assertions.append(_assertion(
                "clock-mean-quarter", abs(tau - 0.25) <= 3.0 * se_t,
                f"E[tau(1)] = {tau:.5f} +- {se_t:.5f}"))
    assertions.insert(0, _assertion("variance-matches-clock", clock_ok,
                                    "; ".join(details_c)))
    assertions.insert(1, _assertion("area-uncorrelated-with-planar", indep_ok,
                                    "; ".join(details_i)))
    _finish(out, "dds-diagnostics", cfg, assertions, False, table.to_csv,
            table.meta, started)


@main.command()
@click.option("--n", "n_ladder", default=None, help="Helix index ladder.")
@click.option("--target", default=None, help="Linear target a1,a2,a3.")
@click.option("--variant", default=None, type=click.Choice(["identity", "verbatim"]))
@click.option("--refine", type=int, default=None, help="Grid refinement factor check.")
@harness_options
def helix(config_file, out, fine_step, trials, seed, n_ladder, target, variant, refine):
    """Helix distance-to-target convergence table."""
    cfg = resolve_config("helix", config_file, seed, trials, fine_step,
                         {"n": n_ladder, "target": target, "variant": variant,
                          "refine": refine})
    started = time.perf_counter()
    try:
        ns = parse_int_list(cfg["parameters"]["n"])
        a1, a2, a3 = (float(v) for v in str(cfg["parameters"]["target"]).split(","))
        table = density.helix_convergence(ns, a1, a2, a3,
                                          cfg["parameters"]["variant"],
                                          int(cfg["parameters"]["refine"]))
    except ValueError as exc:
        raise click.ClickException(str(exc))
    dist = table.column("distance")
    c0, c1 = table.meta["fitted_C"], table.meta["fitted_C_refined"]
    stable = abs(c1 - c0) <= 0.10 * c0
    assertions = [
        _assertion("strictly-decreasing", bool(np.all(np.diff(dist) < 0)),
                   "distances " + ", ".join(f"{d:.5f}" for d in dist)),
        _assertion("rate-constant-stable", stable,
                   f"C = {c0:.5f}, refined {c1:.5f}"),
    ]
    _finish(out, "helix", cfg, assertions, False, table.to_csv, table.meta,
            started)


@main.command()
@click.option("--phi", default=None, help="Reference curve spec.")
@click.option("--epsilon", type=float, default=None)
@harness_options
def support(config_file, out, fine_step, trials, seed, phi, epsilon):
    """Positive probability of landing epsilon-close to a reference lift."""
    cfg = resolve_config("support", config_file, seed, trials, fine_step,
                         {"phi": phi, "epsilon": epsilon})
    started = time.perf_counter()
    est = girsanov.support_positivity(
        _phi(cfg), float(cfg["parameters"]["epsilon"]), cfg["trials"],
        RngSpec(cfg["seed"]), parse_fine_step(cfg["fine_step"]))
    table = ResultTable(
        ["epsilon", "p_hat", "stderr", "lower_99", "hits", "total", "seed"],
        [(est.epsilon, est.p_hat, est.stderr, est.lower_99, est.hits,
          est.total, est.seed)],
        {"experiment": "support", "seed": est.seed,
         "fine_step": parse_fine_step(cfg["fine_step"])},
    )
    assertions = [
        _assertion("positive-support-lower-bound", est.lower_99 > 0.0,
                   f"P(d < {est.epsilon:g}) >= {est.lower_99:.5f} at 99% "
                   f"({est.hits}/{est.total} hits)"),
    ]
    _finish(out, "support", cfg, assertions, est.hits == 0, table.to_csv,
            table.meta, started)


@main.command(name="levy-law")
@click.option("--lambdas", default=None, help="Cosine-moment frequencies.")
@harness_options
def levy_law(config_file, out, fine_step, trials, seed, lambdas):
    """Second moment and cosine moments of the time-1 stochastic area."""
    cfg = resolve_config("levy-law", config_file, seed, trials, fine_step,
                         {"lambdas": lambdas})
    started = time.perf_counter()
    lams = parse_float_list(cfg["parameters"]["lambdas"])
    table = sde.levy_area_law_experiment(parse_fine_step(cfg["fine_step"]),
                                         cfg["trials"], lams, RngSpec(cfg["seed"]))
    var_row = table.rows[0]
    var_ok = abs(var_row[1] - 0.25) <= 3.0 * var_row[2]
    cos_ok, parts = True, []
    for row in table.rows[1:]:
        lam, est, se = row[0], row[1], row[2]
        tgt = 1.0 / math.cosh(lam / 2.0)
        ok = abs(est - tgt) <= 3.0 * se + 0.002
        cos_ok = cos_ok and ok
        parts.append(f"lambda={lam:g}: {est:.5f} vs {tgt:.5f}")
    assertions = [
        _assertion("variance-one-quarter", var_ok,
                   f"Var(A_1) = {var_row[1]:.5f} +- {var_row[2]:.5f}"),
        _assertion("cosine-moments", cos_ok, "; ".join(parts)),
    ]
    _finish(out, "levy-law", cfg, assertions, False, table.to_csv, table.meta,
            started)


if __name__ == "__main__":
    main()
