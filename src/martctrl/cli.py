"""Experiment harness: config parsing, scenario dispatch, artifact emission.

Configs are flat ``key = value`` sections (INI style).  Every run emits a
manifest, a structured-text report, and CSV tables into the output
directory; the exit status encodes the outcome (0 pass, 1 assertion
failure, 2 config error, 3 numerical failure).  Any other exception
leaves a manifest with ``status = internal-error`` and propagates.  Given the same config and
seed, the numeric outputs are byte-identical.  A thread count (``[run]
threads``, ``--threads``) is accepted and recorded in the manifest, but
every stage runs serially.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import numbers
import re
import sys
import time
from functools import partial
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

try:
    import resource
except ImportError:             # not on every platform
    resource = None

from . import __version__
from .adjoint import (RegressionBasis, RegressionRankError,
                      solve_adjoint_explicit)
from .dynamics import (BlowUpError, CostWalk, SpikeSpec, VariationWalk,
                       finite_diff_check, integrate_forward, sample_controls)
from .martingale import PathGrid, sample_increments, verify_isometry
from .pmp import (JOINT_SAMPLE_TIMES, Assertion, Example1Config,
                  Example2Config, ScenarioReport, StateBox,
                  build_example1_problem, build_example2_problem,
                  example1_candidate, gateaux_check, necessary_check,
                  rate_experiments, run_example1, run_example2,
                  sufficient_check, within_3se)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Packaged problem name -> its config at the default horizon.
PACKAGED_PROBLEMS = {"example1": Example1Config(),
                     "example1-tanh": Example1Config(drift_gain=0.25),
                     "example2": Example2Config()}


class ConfigError(Exception):
    """Raised with the complete list of validation problems, not just one."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n"
                         + "\n".join(f"  - {e}" for e in self.errors))


@dataclasses.dataclass
class ExperimentConfig:
    """A fully validated run description with every default filled in."""

    scenario: str
    run: dict
    space: dict
    options: dict
    source: str = ""

    def resolved(self):
        """Canonical dict of everything that determines the numbers."""
        run = {k: v for k, v in self.run.items()
               if k not in ("threads", "output_dir")}
        return {"scenario": self.scenario, "run": run, "space": self.space,
                "options": self.options}

    def config_hash(self):
        text = json.dumps(self.resolved(), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Value parsers.  Each raises ValueError with a human-readable requirement.
# ---------------------------------------------------------------------------

def _parse_int(text, minimum=None, choices=None):
    try:
        value = int(text)
    except ValueError:
        raise ValueError("must be an integer") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"must be an integer >= {minimum}")
    if choices is not None and value not in choices:
        raise ValueError(f"must be one of {sorted(choices)}")
    return value


def _parse_float(text, positive=False, nonnegative=False):
    try:
        value = float(text)
    except ValueError:
        raise ValueError("must be a number") from None
    if not np.isfinite(value):
        raise ValueError("must be finite")
    if positive and value <= 0.0:
        raise ValueError("must be > 0")
    if nonnegative and value < 0.0:
        raise ValueError("must be >= 0")
    return value


_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _parse_bool(text):
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise ValueError("must be a boolean (true/false)") from None


def _parse_floats(text, length=None, positive=False):
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("must be a comma-separated list of numbers")
    values = tuple(_parse_float(tok, positive=positive) for tok in tokens)
    if length is not None and len(values) != length:
        raise ValueError(f"must list exactly {length} numbers")
    return values


def _parse_enum(text, choices):
    value = text.strip()
    if value not in choices:
        raise ValueError("must be one of " + ", ".join(choices))
    return value


# ---------------------------------------------------------------------------
# Option schema.  Every section is a tuple of (key, parser, default) entries.
# example1 and example2 take their defaults from the fields of
# Example1Config and Example2Config; the other scenarios' are in SCHEMAS.
# No config sets the operator sizes: each scenario takes them from the
# packaged problems it runs.  A key whose text does not parse is reported
# and keeps its default, so the cross-field checks always see a complete
# section.  A check takes the parsed [run] section, the operator sizes and
# the parsed scenario section and yields error messages.
# ---------------------------------------------------------------------------

_INT0 = partial(_parse_int, minimum=0)
_INT1 = partial(_parse_int, minimum=1)
_INT2 = partial(_parse_int, minimum=2)
_POSITIVE = partial(_parse_float, positive=True)
_NONNEGATIVE = partial(_parse_float, nonnegative=True)

# [run] keys that are also fields of Example1Config and Example2Config.
_RUN_FIELDS = ("seed", "steps", "paths", "horizon")


class Schema(NamedTuple):
    """What a scenario accepts in [run] and its own section, and its runner."""

    runner: object
    run: tuple
    space: object      # operator sizes, or a function of the options to them
    options: tuple
    checks: tuple = ()


def _run_entries(seed, steps, paths, horizon=1.0):
    return (("seed", _INT0, seed), ("steps", _INT1, steps),
            ("paths", _INT2, paths), ("horizon", _POSITIVE, horizon),
            ("threads", _INT1, None), ("output_dir", str, None))


def _space(cfg):
    return {"state_dim": cfg.state_dim, "control_dim": cfg.control_dim}


def _packaged(runner, cfg, options, checks=()):
    """Schema of a packaged scenario whose defaults are the fields of the
    default config ``cfg``; only these scenarios dump trajectories."""
    return Schema(
        runner=runner, space=_space(cfg), checks=checks,
        run=_run_entries(*(getattr(cfg, key) for key in _RUN_FIELDS))
        + (("dump_trajectories", _INT0, 0),),
        options=tuple((key, parse, getattr(cfg, key))
                      for key, parse in options))


_EX1 = PACKAGED_PROBLEMS["example1"]
_EX2 = PACKAGED_PROBLEMS["example2"]
_SPACE1 = _space(_EX1)
# One value per control (or state) dimension of the packaged problem.
_CONTROL1 = partial(_parse_floats, length=_EX1.control_dim)
_CONTROL2 = partial(_parse_floats, length=_EX2.control_dim)
_STATE2 = partial(_parse_floats, length=_EX2.state_dim)


def _window_errors(run, t0, eps_values, label="spike"):
    """Messages for the spike windows (t0, eps) that miss the run grid."""
    grid = PathGrid(horizon=run["horizon"], steps=run["steps"])
    for eps in eps_values:
        try:
            SpikeSpec(t0=t0, eps=eps, v=np.zeros(1)).window(grid)
        except ValueError as exc:
            yield (f"{label} window (t0={t0}, eps={eps}) is not "
                   f"grid-aligned: {exc}")


def _duality_window(run, space, opts):
    if opts["run_duality"]:
        yield from _window_errors(run, opts["duality_t0"],
                                  (opts["duality_eps"],), "duality spike")


def _regression_paths(run, space, opts):
    basis = RegressionBasis(opts["basis_degree"])
    n = space["state_dim"]
    if run["paths"] < basis.min_paths(n):
        yield (f"basis_degree = {basis.degree} needs [run] paths >= "
               f"{basis.min_paths(n)}: the regression adjoint fits "
               f"{basis.feature_count(n)} basis features and needs more than "
               f"10 paths per feature (got paths = {run['paths']})")


def _distinct_spikes(key):
    """Check: the spike widths under ``key`` are distinct and grid-aligned."""
    def check(run, space, opts):
        values = opts[key]
        if len(set(values)) != len(values):
            yield f"{key} entries must be distinct"
        yield from _window_errors(run, opts["t0"], values)
    return check


def _build(cfg):
    """The problem of an Example1Config or an Example2Config."""
    build = build_example2_problem if isinstance(cfg, Example2Config) \
        else build_example1_problem
    return build(cfg)[0]


def _in_control_box(packaged_config, *keys):
    """Check: the controls under ``keys`` lie in the packaged control set.

    ``packaged_config(opts)`` gives the config whose problem declares the
    set; a schedule or spike value outside it would drive the run outside
    the controls its checks assume.  Keys set to None are skipped.
    """
    def check(run, space, opts):
        box = _build(packaged_config(opts)).control_set
        bounds = " x ".join(f"[{lo:g}, {hi:g}]"
                            for lo, hi in zip(box.lower, box.upper))
        for key in keys:
            if opts[key] is not None and not box.contains(opts[key]):
                yield (f"{key} {', '.join(f'{v:g}' for v in opts[key])}"
                       f" lies outside the control box {bounds}")
    return check


def _checked_problems(opts):
    """Names of the packaged problems a derivative-check run checks."""
    return tuple(PACKAGED_PROBLEMS) if opts["problem"] == "all" \
        else (opts["problem"],)


def _checked_space(opts):
    """Operator sizes of the checked problems: one size, or one per problem
    where they differ."""
    space = {}
    for key in ("state_dim", "control_dim"):
        sizes = tuple(getattr(PACKAGED_PROBLEMS[name], key)
                      for name in _checked_problems(opts))
        space[key] = sizes[0] if len(set(sizes)) == 1 else sizes
    return space


def _parse_ladder(text):
    """At least two positive numbers (a rate needs two points), largest first."""
    values = _parse_floats(text, positive=True)
    if len(values) < 2:
        raise ValueError("must list at least 2 numbers")
    return tuple(sorted(values, reverse=True))


def _parse_section(raw, where, entries, errors):
    """Pop and convert the schema's keys from ``raw``, collecting errors."""
    values = {}
    for key, parse, default in entries:
        values[key] = default
        if key in raw:
            text = raw.pop(key).strip()
            try:
                values[key] = parse(text)
            except ValueError as exc:
                errors.append(f"[{where}] {key}: {exc} (got {text!r})")
    return values


def _reject_leftovers(raw, where, errors):
    for key in raw:
        errors.append(f"[{where}] unknown key '{key}'")


def parse_config(path):
    """Read and validate a config file; raise ConfigError with every problem."""
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config file: {exc}"]) from None
    except UnicodeDecodeError:
        raise ConfigError([f"cannot read config file: {path} is not UTF-8 "
                           "text"]) from None
    except configparser.Error as exc:
        raise ConfigError([f"malformed config file: {exc}"]) from None

    errors = []
    sections = {name: dict(cp.items(name)) for name in cp.sections()}
    run_raw = sections.pop("run", None)
    if run_raw is None:
        raise ConfigError(["missing [run] section (must name the scenario)"])
    scenario = run_raw.pop("scenario", "").strip()
    if scenario not in SCENARIOS:
        raise ConfigError(
            [f"[run] scenario must be one of {', '.join(SCENARIOS)} "
             f"(got {scenario!r})"])

    schema = SCHEMAS[scenario]
    run = _parse_section(run_raw, "run", schema.run, errors)
    _reject_leftovers(run_raw, "run", errors)

    opts_raw = sections.pop(scenario, {})
    options = _parse_section(opts_raw, scenario, schema.options, errors)
    space = schema.space(options) if callable(schema.space) \
        else dict(schema.space)
    for check in schema.checks:
        errors.extend(f"[{scenario}] {message}"
                      for message in check(run, space, options))
    _reject_leftovers(opts_raw, scenario, errors)
    for name in sections:
        errors.append(f"unknown section [{name}]")
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(scenario=scenario, run=run, space=space,
                            options=options, source=str(path))


# ---------------------------------------------------------------------------
# Scenario runners.  Each returns its ScenarioReport, whose tables map file
# stem -> (header, rows); SCHEMAS, after them, names each scenario's runner.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _Rendered:
    """CSV body text, in chunks, whose cells are already formatted as
    _csv_cell formats them; _write_csv writes it as it is."""

    chunks: Iterable[str]


def _margin_lines(margin_report):
    """The margins rows as text, one chunk per time, in the C order of the
    margins.  Each distinct t, path and probe index is formatted once, and
    each margin once, as repr of the Python value tolist() gives: the text
    _csv_cell gives that float or int."""
    paths = [f",{path}," for path in
             map(repr, margin_report.path_indices.tolist())]
    probes = [f"{q}," for q in range(margin_report.margins.shape[2])]
    for t, block in zip(map(repr, margin_report.times.tolist()),
                        margin_report.margins):
        yield "".join([f"{t}{path}{q}{m}\n"
                       for path, row in zip(paths, block.tolist())
                       for q, m in zip(probes, map(repr, row))])


def _margins_tables(margin_report):
    """Full per-path margins table plus the probe-index key.

    The margins rows are rendered text (``_Rendered``) produced by a
    generator, read once when the table is written.
    """
    rows = _Rendered(_margin_lines(margin_report))
    probe_rows = [(int(k), *[float(x) for x in v])
                  for k, v in enumerate(margin_report.probes)]
    probe_header = ["v_index"] + [f"v{j}"
                                  for j in range(margin_report.probes.shape[1])]
    return {"margins": (["t", "path", "v_index", "delta_h"], rows),
            "probes": (probe_header, probe_rows)}


def _trajectory_table(trajectories, count):
    count = min(count, trajectories.paths)
    grid = trajectories.grid
    n = trajectories.states.shape[2]
    rows = []
    for p in range(count):
        for k in range(grid.steps + 1):
            rows.append((p, k, float(grid.times[k]),
                         *[float(x) for x in trajectories.state_at(k)[p]]))
    header = ["path", "step", "t"] + [f"x{i}" for i in range(n)]
    return header, rows


def _run_fields(config):
    return {key: config.run[key] for key in _RUN_FIELDS}


def _run_example1(config):
    cfg = Example1Config(**_run_fields(config), **config.options)
    dump = config.run["dump_trajectories"]
    result = run_example1(cfg, keep_all=dump > 0)
    tables = result.report.tables
    tables.update(_margins_tables(result.margin_report))
    if dump > 0:
        tables["trajectories"] = _trajectory_table(
            result.adjoint.trajectories, dump)
    return result.report


def _run_example2(config):
    cfg = Example2Config(**_run_fields(config), **config.options)
    result = run_example2(cfg)
    dump = config.run["dump_trajectories"]
    if dump > 0:
        result.report.tables["trajectories"] = _trajectory_table(
            result.sweeps[-1].adjoint.trajectories, dump)
    return result.report


def _first_variation(config, eps, gateaux):
    """Problem and first variation of a rates or gateaux run.

    p follows the spike (t0, eps, v) of the options along the stationary
    scenario-1 candidate, riding its forward run; ``inject_fault`` doubles
    its states p, not zeta.  A gateaux run keeps X at t0 and T only and
    carries its cost walk; a rates run keeps the steps from t0 on.
    """
    opts = config.options
    cfg = Example1Config(**_run_fields(config), drift_gain=opts["drift_gain"])
    spec = SpikeSpec(t0=opts["t0"], eps=eps,
                     v=np.asarray(opts["v"], dtype=float))
    problem, _, bundle, policy = example1_candidate(cfg)
    variation = VariationWalk(problem, bundle.grid, spec)
    k0, steps = variation.k0, bundle.steps
    walks = (CostWalk(problem, bundle.grid, [k0]),) if gateaux else ()
    p = variation.first_variation(integrate_forward(
        problem, policy, bundle, cfg.x0, riders=(variation, *walks),
        keep={k0, steps} if gateaux else range(k0, steps + 1)))
    if opts["inject_fault"]:
        p = dataclasses.replace(p, states=2.0 * p.states)
    return problem, p


def _run_rates(config):
    opts = config.options
    problem, p = _first_variation(config, max(opts["eps_ladder"]), False)
    report = rate_experiments(problem, p, eps_ladder=opts["eps_ladder"])
    assertions = [
        Assertion(name="sup_gap_slope", passed=report.slope_ok,
                  detail=f"log-log slope {report.slope:.3f} (need >= 1.5)"),
        Assertion(name="remainder_vanishes",
                  passed=report.xi_decreasing and report.xi_final_ok,
                  detail=f"E|xi(T)|^2 ladder "
                         f"{np.array2string(report.exi, precision=6)}"),
    ]
    sections = {
        "rates": {
            "eps_ladder": list(report.eps),
            "slope": report.slope,
            "xi_initial": report.exi[0],
            "xi_final": report.exi[-1],
            "fault_injected": opts["inject_fault"],
        },
    }
    rows = [(float(report.eps[i]), float(report.esup[i]),
             float(report.esup_se[i]), float(report.exi[i]),
             float(report.exi_se[i])) for i in range(report.eps.size)]
    tables = {"rates": (["eps", "e_sup_sq", "e_sup_sq_se", "e_xi_sq",
                         "e_xi_sq_se"], rows)}
    return ScenarioReport(scenario="rates", sections=sections,
                          assertions=assertions, tables=tables)


def _run_gateaux(config):
    opts = config.options
    eps_list = tuple(sorted(opts["eps_list"], reverse=True))
    problem, p = _first_variation(config, eps_list[0], True)
    report = gateaux_check(problem, p, eps_list=eps_list,
                           bias_fraction=opts["bias_fraction"])
    assertions = [within_3se(
        f"quotient_matches_eps_{entry.eps:g}", entry.mean_diff,
        entry.se_diff, report.adjoint_value, "adjoint",
        f"fd {entry.fd_quotient:.6f} vs adjoint "
        f"{report.adjoint_value:.6f}, |diff| "
        f"{abs(entry.mean_diff):.2e} vs tol {entry.tol:.2e}", tol=entry.tol)
        for entry in report.entries]
    sections = {
        "gateaux": {
            "adjoint_value": report.adjoint_value,
            "adjoint_se": report.se_adjoint,
            "t0": opts["t0"],
            "v": list(opts["v"]),
            "drift_gain": opts["drift_gain"],
            "fault_injected": opts["inject_fault"],
        },
    }
    rows = [(e.eps, e.fd_quotient, e.se_fd, e.mean_diff, e.se_diff, e.tol,
             int(a.passed)) for e, a in zip(report.entries, assertions)]
    tables = {"gateaux": (["eps", "fd_quotient", "fd_se", "mean_diff",
                           "diff_se", "tol", "agree"], rows)}
    return ScenarioReport(scenario="gateaux", sections=sections,
                          assertions=assertions, tables=tables)


def _run_pmp_check(config):
    opts = config.options
    cfg = Example1Config(**_run_fields(config), schedule=opts["schedule"])
    problem, _, bundle, policy = example1_candidate(cfg)
    adjoint = solve_adjoint_explicit(
        problem, integrate_forward(problem, policy, bundle, cfg.x0))
    margin_report = necessary_check(
        problem, adjoint, sample_times=opts["sample_times"],
        sample_paths=opts["sample_paths"],
        points_per_dim=opts["points_per_dim"])
    t, _, v = margin_report.witness
    margins, verdict = margin_report.verdict(
        "hamiltonian_minimum",
        f"; witness t={t:g} v={np.array2string(v, precision=4)}")
    return ScenarioReport(scenario="pmp-check", sections={"margins": margins},
                          assertions=[verdict],
                          tables=_margins_tables(margin_report))


def _concave_running_cost_fault(problem):
    """Flip the sign of the running cost's quadratic term (fault injection)."""
    return dataclasses.replace(
        problem,
        ell=lambda t, x, u: -np.einsum("pi,pi->p", u, u),
        ell_u=lambda t, x, u: -2.0 * u,
        name=problem.name + "-concave-fault")


def _run_sufficiency(config):
    opts = config.options
    cfg = Example1Config(**_run_fields(config))
    problem, _, bundle, policy = example1_candidate(cfg)
    adjoint = solve_adjoint_explicit(problem, integrate_forward(
        problem, policy, bundle, cfg.x0, riders=(StateBox(),)))
    if opts["inject_fault"]:
        problem = _concave_running_cost_fault(problem)
    report = sufficient_check(problem, adjoint, pairs=opts["pairs"],
                              seed=config.run["seed"] + 3,
                              sample_times=opts["sample_times"])
    assertions = [
        Assertion(name="control_set_convex", passed=report.applicable,
                  detail="declared box set"),
        Assertion(name="terminal_cost_convex", passed=report.terminal_passed,
                  detail=f"max midpoint violation "
                         f"{report.terminal_violation:.2e}"),
        Assertion(name="hamiltonian_jointly_convex",
                  passed=report.joint_passed,
                  detail=f"max midpoint violation "
                         f"{report.joint_violation:.2e}"),
        Assertion(name="minimum_condition", passed=report.minimum_passed,
                  detail="margins over the probe grid"),
    ]
    sections = {
        "sufficiency": {
            "applicable": report.applicable,
            "terminal_violation": report.terminal_violation,
            "joint_violation": report.joint_violation,
            "pairs": report.pairs,
            "overall": report.overall,
            "fault_injected": opts["inject_fault"],
        },
    }
    if report.joint_witness is not None:
        sections["joint_witness"] = {
            "t": report.joint_witness["t"],
            "x1": np.array2string(report.joint_witness["x1"], precision=6),
            "v1": np.array2string(report.joint_witness["v1"], precision=6),
            "x2": np.array2string(report.joint_witness["x2"], precision=6),
            "v2": np.array2string(report.joint_witness["v2"], precision=6),
        }
    rows = [(check, int(a.passed)) for check, a in zip(
        ("control_set", "terminal", "joint", "minimum"), assertions)]
    tables = {"sufficiency": (["check", "passed"], rows)}
    return ScenarioReport(scenario="sufficiency", sections=sections,
                          assertions=assertions, tables=tables)


def _run_isometry(config):
    cfg = Example1Config(**_run_fields(config))
    _, driver, grid, _ = build_example1_problem(cfg)
    bundle = sample_increments(driver, grid, cfg.paths, cfg.seed)
    phi = np.eye(driver.state_dim)
    report = verify_isometry(phi, bundle)
    beta_sq = float(np.sum(np.asarray(cfg.beta) ** 2))
    t_end = cfg.horizon
    analytic = beta_sq * (cfg.alpha0 * t_end
                          + cfg.alpha_slope * t_end ** 2 / 2.0)
    assertions = [within_3se(
        "isometry_within_3se", report.difference, report.mc_stderr,
        report.quadrature_value, "quadrature",
        f"MC {report.mc_estimate:.6f} vs quadrature "
        f"{report.quadrature_value:.6f} "
        f"(3*SE = {3.0 * report.mc_stderr:.2e})")]
    sections = {
        "isometry": {
            "mc_estimate": report.mc_estimate,
            "quadrature_value": report.quadrature_value,
            "analytic_linear_intensity": analytic,
            "difference": report.difference,
            "mc_stderr": report.mc_stderr,
            "paths": report.paths,
        },
    }
    rows = [(report.mc_estimate, report.quadrature_value, report.difference,
             report.mc_stderr, report.paths)]
    tables = {"isometry": (["mc_estimate", "quadrature_value", "difference",
                            "mc_stderr", "paths"], rows)}
    return ScenarioReport(scenario="isometry", sections=sections,
                          assertions=assertions, tables=tables)


def _run_derivative_check(config):
    opts = config.options
    names = _checked_problems(opts)
    horizon = config.run["horizon"]
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.run["seed"]))
    assertions = []
    rows = []
    sections = {}
    for idx, name in enumerate(names):
        cfg = dataclasses.replace(PACKAGED_PROBLEMS[name], horizon=horizon)
        problem, x0 = _build(cfg), np.asarray(cfg.x0, dtype=float)
        if opts["inject_fault"] and idx == 0:
            original = problem.ell_x
            problem = dataclasses.replace(
                problem,
                ell_x=lambda t, x, u, _f=original: 1.5 * np.asarray(
                    _f(t, x, u), dtype=float) + 0.01,
                name=problem.name + "-gradient-fault")
        times = np.linspace(0.0, horizon, opts["probes"])
        probes = []
        for t in times:
            x = x0 + rng.standard_normal(x0.shape[0])
            u = sample_controls(problem.control_set, 1, rng)[0]
            probes.append((float(t), x, u))
        report = finite_diff_check(problem, probes,
                                   rel_step=opts["rel_step"],
                                   tol=opts["tol"])
        assertions.append(Assertion(
            name=f"derivatives_{problem.name}", passed=report.passed,
            detail="flagged: " + ", ".join(report.flagged)
            if report.flagged else "all within tol"))
        for deriv, err in sorted(report.max_rel_error.items()):
            rows.append((problem.name, deriv, float(err), opts["tol"],
                         int(err > opts["tol"])))
        sections[problem.name] = {
            "max_rel_error": max(report.max_rel_error.values()),
            "flagged": ", ".join(report.flagged) if report.flagged
            else "none",
            "probes": report.probes,
        }
    tables = {"derivatives": (["problem", "derivative", "max_rel_error",
                               "tol", "flagged"], rows)}
    return ScenarioReport(scenario="derivative-check", sections=sections,
                          assertions=assertions, tables=tables)


SCHEMAS = {
    "example1": _packaged(_run_example1, _EX1, (
        ("spike_count", _INT1),
        ("control_box_radius", _POSITIVE),
        ("probe_points_per_dim", _INT2),
        ("sample_times", _INT1),
        ("sample_paths", _INT1),
        ("convexity_pairs", _INT1),
        ("alpha0", _POSITIVE),
        ("alpha_slope", _NONNEGATIVE),
        ("schedule", _CONTROL1),
    ), checks=(_in_control_box(
        lambda opts: Example1Config(
            control_box_radius=opts["control_box_radius"]), "schedule"),)),
    "example2": _packaged(_run_example2, _EX2, (
        ("basis_degree", partial(_parse_int, choices={0, 1, 2})),
        # sweep 0 alone leaves stationarity_residual_decreases unpassable
        ("sweeps", _INT1),
        ("run_duality", _parse_bool),
        ("duality_t0", _NONNEGATIVE),
        ("duality_eps", _POSITIVE),
        ("duality_v", _CONTROL2),
        ("gamma", _STATE2),
        ("schedule", _CONTROL2),
    ), checks=(_duality_window, _regression_paths,
               _in_control_box(lambda opts: Example2Config(), "schedule",
                               "duality_v"))),
    "rates": Schema(_run_rates, _run_entries(2718, 400, 4000), _SPACE1, (
        ("t0", _NONNEGATIVE, 0.25),
        ("v", _CONTROL1, (0.65, 0.45)),
        ("eps_ladder", _parse_ladder, (0.2, 0.1, 0.05, 0.025)),
        ("drift_gain", _NONNEGATIVE, 0.0),
        ("inject_fault", _parse_bool, False),
    ), checks=(_distinct_spikes("eps_ladder"),
               _in_control_box(lambda opts: Example1Config(), "v"))),
    "gateaux": Schema(_run_gateaux, _run_entries(31415, 400, 20000), _SPACE1, (
        ("t0", _NONNEGATIVE, 0.3),
        ("v", _CONTROL1, (0.65, 0.45)),
        ("eps_list", partial(_parse_floats, positive=True), (0.05, 0.025)),
        ("bias_fraction", _POSITIVE, 0.1),
        ("drift_gain", _NONNEGATIVE, 0.0),
        ("inject_fault", _parse_bool, False),
    ), checks=(_distinct_spikes("eps_list"),
               _in_control_box(lambda opts: Example1Config(), "v"))),
    "pmp-check": Schema(_run_pmp_check, _run_entries(12022, 400, 2000),
                        _SPACE1, (
        ("sample_times", _INT1, _EX1.sample_times),
        ("sample_paths", _INT1, _EX1.sample_paths),
        ("points_per_dim", _INT2, _EX1.probe_points_per_dim),
        ("schedule", _CONTROL1, None),
    ), checks=(_in_control_box(lambda opts: Example1Config(), "schedule"),)),
    "sufficiency": Schema(_run_sufficiency, _run_entries(12022, 200, 2000),
                          _SPACE1, (
        ("pairs", _INT1, _EX1.convexity_pairs),
        ("sample_times", _INT1, JOINT_SAMPLE_TIMES),
        ("inject_fault", _parse_bool, False),
    )),
    "isometry": Schema(_run_isometry, _run_entries(7071, 400, 20000), _SPACE1,
                       ()),
    "derivative-check": Schema(_run_derivative_check,
                               _run_entries(99, 100, 2), _checked_space, (
        ("problem", partial(_parse_enum, choices=(*PACKAGED_PROBLEMS, "all")),
         "all"),
        ("probes", _INT1, 25),
        ("rel_step", _POSITIVE, 1e-5),
        ("tol", _POSITIVE, 1e-4),
        ("inject_fault", _parse_bool, False),
    )),
}

SCENARIOS = tuple(SCHEMAS)


# ---------------------------------------------------------------------------
# Artifact emission.
# ---------------------------------------------------------------------------

def _fmt_value(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.ndarray):
        return ", ".join(_fmt_value(v) for v in value.ravel())
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt_value(v) for v in value)
    return str(value)


def _render_report(report):
    lines = [f"scenario = {report.scenario}",
             f"passed = {_fmt_value(report.passed)}", ""]
    for name, body in report.sections.items():
        lines.append(f"[{name}]")
        for key, value in body.items():
            lines.append(f"{key} = {_fmt_value(value)}")
        lines.append("")
    lines.append("[assertions]")
    for a in report.assertions:
        lines.append(f"{a.name} = {'pass' if a.passed else 'FAIL'}")
    lines.append("")
    for a in report.assertions:
        lines.append(f"[assert:{a.name}]")
        lines.append(f"passed = {_fmt_value(a.passed)}")
        lines.append(f"detail = {a.detail}")
        lines.append("")
    return "\n".join(lines)


# Cells that csv.writer (lineterminator "\n") would put in double quotes.
_NEEDS_QUOTES = re.compile(r'[,"\n]').search


def _csv_cell(value):
    """A value as report.txt writes it, quoted where csv.writer would."""
    if type(value) is float or type(value) is int:
        return repr(value)
    text = _fmt_value(value)
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path, header, rows):
    """Write the header and the rows: tuples of values, or ``_Rendered``
    text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_csv_cell, header)) + "\n")
        if isinstance(rows, _Rendered):
            fh.writelines(rows.chunks)
        else:
            fh.writelines(",".join(map(_csv_cell, row)) + "\n"
                          for row in rows)


def _emit(config, report, out_dir, wall_seconds, status):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    report_path = out_dir / "report.txt"
    report_path.write_text(_render_report(report), encoding="utf-8")
    outputs.append(report_path.name)
    for stem, (header, rows) in sorted(report.tables.items()):
        csv_path = out_dir / f"{stem}.csv"
        _write_csv(csv_path, header, rows)
        outputs.append(csv_path.name)
    manifest = [
        f"scenario = {config.scenario}",
        f"config_path = {config.source}",
        f"config_sha256 = {config.config_hash()}",
        f"tool_version = {__version__}",
        f"seed = {config.run['seed']}",
        f"steps = {config.run['steps']}",
        f"paths = {config.run['paths']}",
        f"horizon = {_fmt_value(config.run['horizon'])}",
        f"state_dim = {_fmt_value(config.space['state_dim'])}",
        f"control_dim = {_fmt_value(config.space['control_dim'])}",
        f"threads = {config.run['threads']}",
        f"status = {status}",
        f"wall_seconds = {wall_seconds:.3f}",
        f"outputs = {', '.join(outputs)}",
    ]
    if resource is not None:    # the process's peak: KiB, bytes on macOS
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        unit = 1 if sys.platform == "darwin" else 1024
        manifest.append(f"peak_rss_mb = {peak * unit / 1e6:.1f}")
    (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n",
                                          encoding="utf-8")
    return outputs


def _error_report(config, exc):
    return ScenarioReport(
        scenario=config.scenario,
        sections={"error": {"type": type(exc).__name__, "message": str(exc)}},
        assertions=[Assertion(name="completed", passed=False,
                              detail=str(exc))])


def run(config, output_dir=None, seed=None, threads=None, verbosity=1):
    """Execute a validated config; emit artifacts; return the exit code."""
    t_start = time.perf_counter()
    if threads is None:
        threads = config.run.get("threads") or 1
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    if seed is None:
        seed = config.run["seed"]
    elif isinstance(seed, bool) or not isinstance(seed, numbers.Integral) \
            or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    config = dataclasses.replace(
        config, run={**config.run, "seed": seed, "threads": threads})
    out_dir = Path(output_dir) if output_dir is not None \
        else Path(config.run.get("output_dir") or f"{config.scenario}-out")

    status = "ok"
    try:
        report = SCHEMAS[config.scenario].runner(config)
        if not report.passed:
            status = "assertion-failure"
    except (BlowUpError, RegressionRankError) as exc:
        report = _error_report(config, exc)
        status = "numerical-failure"
    except Exception as exc:
        # a defect, not an outcome: leave the manifest, then fail loudly
        _emit(config, _error_report(config, exc), out_dir,
              time.perf_counter() - t_start, "internal-error")
        raise

    wall = time.perf_counter() - t_start
    outputs = _emit(config, report, out_dir, wall, status)
    if verbosity >= 1:
        print(f"{config.scenario}: {status} "
              f"({wall:.1f}s, outputs in {out_dir})")
    if verbosity >= 2:
        for a in report.assertions:
            mark = "pass" if a.passed else "FAIL"
            print(f"  {a.name}: {mark} -- {a.detail}")
    if status == "numerical-failure":
        return EXIT_NUMERICAL
    return EXIT_OK if status == "ok" else EXIT_ASSERTION


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="martctrl",
        description="Desk-scale experiments for controlled SDEs driven by "
                    "Hilbert-space-valued martingales: forward simulation, "
                    "spike variations, adjoint equations, and optimality "
                    "checks.")
    parser.add_argument("config", help="path to a key = value config file")
    parser.add_argument("--output-dir", default=None,
                        help="override the output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed in the config")
    parser.add_argument("--threads", type=int, default=None,
                        help="thread count, accepted and recorded; every "
                             "stage runs serially")
    parser.add_argument("--verbosity", type=int, default=1,
                        choices=(0, 1, 2))
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
    except ConfigError as exc:
        print("error: invalid configuration", file=sys.stderr)
        for err in exc.errors:
            print(f"  - {err}", file=sys.stderr)
        return EXIT_CONFIG
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return EXIT_CONFIG
    return run(config, output_dir=args.output_dir, seed=args.seed,
               threads=args.threads, verbosity=args.verbosity)


if __name__ == "__main__":
    sys.exit(main())
