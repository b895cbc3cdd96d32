"""Config parsing and end-to-end coverage for the command line runner."""

import contextlib
import csv
import os
import re
import signal
import subprocess
import sys
import tempfile
import textwrap
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import martctrl
from martctrl import cli
from martctrl.cli import (ConfigError, EXIT_ASSERTION, EXIT_CONFIG,
                          EXIT_NUMERICAL, EXIT_OK, SCENARIOS, SCHEMAS,
                          main, parse_config, run)


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def read_manifest(out_dir):
    fields = {}
    for line in (out_dir / "manifest.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        fields[key] = value
    return fields


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# parse_config
# ---------------------------------------------------------------------------

def test_minimal_config_fills_example1_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = example1
        """))
    assert cfg.scenario == "example1"
    assert cfg.run["seed"] == 12022
    assert cfg.run["steps"] == 400
    assert cfg.run["paths"] == 20000
    assert cfg.run["horizon"] == 1.0
    assert cfg.run["threads"] is None
    assert cfg.run["dump_trajectories"] == 0
    assert cfg.space == {"state_dim": 4, "control_dim": 2}
    opts = cfg.options
    assert opts["spike_count"] == 20
    assert opts["control_box_radius"] == 2.0
    assert opts["probe_points_per_dim"] == 11
    assert opts["sample_times"] == 20
    assert opts["sample_paths"] == 100
    assert opts["convexity_pairs"] == 1000
    assert opts["alpha0"] == 1.0
    assert opts["alpha_slope"] == 0.5
    assert opts["schedule"] is None and opts["feedback"] is None


def test_scenario_defaults_differ(tmp_path):
    iso = parse_config(write_config(tmp_path, """\
        [run]
        scenario = isometry
        """, name="iso.ini"))
    assert (iso.run["seed"], iso.run["steps"], iso.run["paths"]) \
        == (7071, 400, 20000)
    ex2 = parse_config(write_config(tmp_path, """\
        [run]
        scenario = example2
        """, name="ex2.ini"))
    assert (ex2.run["seed"], ex2.run["steps"], ex2.run["paths"]) \
        == (30303, 100, 4000)
    assert ex2.space == {"state_dim": 2, "control_dim": 2}
    der = parse_config(write_config(tmp_path, """\
        [run]
        scenario = derivative-check
        """, name="der.ini"))
    assert (der.run["seed"], der.run["steps"], der.run["paths"]) == (99, 100, 2)
    assert der.options["problem"] == "all"


def test_missing_run_section(tmp_path):
    path = write_config(tmp_path, """\
        [space]
        state_dim = 4
        """)
    with pytest.raises(ConfigError, match=r"missing \[run\] section"):
        parse_config(path)


def test_unknown_scenario_lists_choices(tmp_path):
    path = write_config(tmp_path, """\
        [run]
        scenario = warp-drive
        """)
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    message = str(exc.value)
    for name in SCENARIOS:
        assert name in message
    assert "warp-drive" in message


def test_unreadable_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config(tmp_path / "nope.ini")


def test_all_errors_collected_in_one_report(tmp_path):
    path = write_config(tmp_path, """\
        [run]
        scenario = rates
        steps = 0
        paths = 1
        bogus = 7

        [space]
        state_dim = 3

        [rates]
        eps_ladder = 0.2, 0.2
        t0 = 0.333
        junk = 1

        [extra]
        x = 1
        """)
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    errors = exc.value.errors
    expected = [
        "[run] steps: must be an integer >= 1 (got '0')",
        "[run] paths: must be an integer >= 2 (got '1')",
        "[run] unknown key 'bogus'",
        "[space] state_dim must be 4 for scenario rates",
        "[rates] eps_ladder entries must be distinct",
        "is not grid-aligned",
        "[rates] unknown key 'junk'",
        "unknown section [extra]",
    ]
    for fragment in expected:
        assert any(fragment in err for err in errors), fragment
    assert len(errors) >= len(expected)


def test_schedule_and_feedback_are_mutually_exclusive(tmp_path):
    path = write_config(tmp_path, """\
        [run]
        scenario = example1

        [example1]
        schedule = 0.1, 0.2
        feedback = zero
        """)
    with pytest.raises(ConfigError, match="not both"):
        parse_config(path)


def test_space_must_match_packaged_operators(tmp_path):
    path = write_config(tmp_path, """\
        [run]
        scenario = example2

        [space]
        state_dim = 4
        control_dim = 2
        """)
    with pytest.raises(ConfigError, match="state_dim must be 2"):
        parse_config(path)


def test_gateaux_eps_checked_against_grid(tmp_path):
    path = write_config(tmp_path, """\
        [run]
        scenario = gateaux
        steps = 100
        """)
    with pytest.raises(ConfigError, match="not grid-aligned"):
        parse_config(path)


def test_example2_duality_window_checked_at_parse_time(tmp_path):
    bad = write_config(tmp_path, """\
        [run]
        scenario = example2
        steps = 50
        """, name="bad.ini")
    with pytest.raises(ConfigError, match="duality spike window"):
        parse_config(bad)
    ok = write_config(tmp_path, """\
        [run]
        scenario = example2
        steps = 50

        [example2]
        run_duality = false
        """, name="ok.ini")
    cfg = parse_config(ok)
    assert cfg.options["run_duality"] is False


def test_eps_ladder_normalized_descending(tmp_path):
    path = write_config(tmp_path, """\
        [run]
        scenario = rates

        [rates]
        eps_ladder = 0.05, 0.2, 0.1
        """)
    cfg = parse_config(path)
    assert cfg.options["eps_ladder"] == (0.2, 0.1, 0.05)


def test_unknown_option_key_rejected(tmp_path):
    path = write_config(tmp_path, """\
        [run]
        scenario = isometry

        [isometry]
        turbo = yes
        """)
    with pytest.raises(ConfigError, match=r"\[isometry\] unknown key 'turbo'"):
        parse_config(path)


@pytest.mark.parametrize("text, fragments", [
    ("""\
        [run]
        scenario = example2
        paths = 20
        """, ("[example2] basis_degree = 2 needs [run] paths >= 61",
              "got paths = 20")),
    ("""\
        [run]
        scenario = rates

        [rates]
        eps_ladder = 0.2
        """, ("[rates] eps_ladder: must list at least 2 numbers "
              "(got '0.2')",)),
    ("""\
        [run]
        scenario = gateaux
        steps = 80

        [gateaux]
        eps_list = 0.05, 0.05
        """, ("[gateaux] eps_list entries must be distinct",)),
    ("""\
        [run]
        scenario = pmp-check

        [pmp-check]
        schedule = 9.0, 9.0
        """, ("[pmp-check] schedule 9, 9 lies outside the control box "
              "[-2.35, 1.65] x [-2.05, 1.95]",)),
    ("""\
        [run]
        scenario = example1

        [example1]
        control_box_radius = 0.5
        schedule = 0.5, 0.0
        """, ("[example1] schedule 0.5, 0 lies outside the control box "
              "[-0.85, 0.15] x [-0.55, 0.45]",)),
    ("""\
        [run]
        scenario = example2

        [example2]
        schedule = 6.0, 0.0
        """, ("[example2] schedule 6, 0 lies outside the control box "
              "[-5, 5] x [-5, 5]",)),
    ("""\
        [run]
        scenario = gateaux
        steps = 80
        paths = 300

        [gateaux]
        v = 9.0, 9.0
        """, ("[gateaux] v 9, 9 lies outside the control box "
              "[-2.35, 1.65] x [-2.05, 1.95]",)),
    ("""\
        [run]
        scenario = rates

        [rates]
        v = 0.0, -2.5
        """, ("[rates] v 0, -2.5 lies outside the control box "
              "[-2.35, 1.65] x [-2.05, 1.95]",)),
    ("""\
        [run]
        scenario = example2

        [example2]
        duality_v = 9.0, 9.0
        """, ("[example2] duality_v 9, 9 lies outside the control box "
              "[-5, 5] x [-5, 5]",)),
    ("""\
        [run]
        scenario = example2
        steps = 20
        paths = 300

        [example2]
        sweeps = 0
        """, ("[example2] sweeps: must be an integer >= 1 (got '0')",)),
], ids=["example2-paths-floor", "rates-single-eps", "gateaux-duplicate-eps",
        "pmp-check-schedule-outside-box", "example1-schedule-outside-box",
        "example2-schedule-outside-box", "gateaux-v-outside-box",
        "rates-v-outside-box", "example2-duality-v-outside-box",
        "example2-zero-sweeps"])
def test_preflight_rejects_configs_the_run_would_crash_on(tmp_path, capsys,
                                                          text, fragments):
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    for fragment in fragments:
        assert any(fragment in err for err in exc.value.errors), fragment
    out = tmp_path / "out"
    assert main([str(path), "--output-dir", str(out)]) == EXIT_CONFIG
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_workloads_pass_validation():
    # a preflight check that rejects a workload would fail every benchmark run
    root = Path(__file__).resolve().parents[1]
    workloads = sorted((root / "perfbench" / "workloads").glob("*.ini"))
    assert workloads
    for path in workloads:
        assert parse_config(path).scenario in SCENARIOS, path.name


def test_readme_lists_every_run_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("### `[run]` keys", 1)[1].split("###", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    keys = {key for schema in SCHEMAS.values() for key, _, _ in schema.run}
    assert sorted(listed) == sorted({"scenario"} | keys)


def _ini_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return str(value)


@pytest.mark.parametrize("scenario", SCENARIOS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_defaults_written_out_change_nothing(scenario, data):
    with tempfile.TemporaryDirectory() as tmp:
        minimal = Path(tmp) / "minimal.ini"
        minimal.write_text(f"[run]\nscenario = {scenario}\n")
        base = parse_config(minimal)
        sections = {"run": base.run, "space": base.space,
                    scenario: base.options}
        keys = sorted((name, key) for name, values in sections.items()
                      for key, value in values.items() if value is not None)
        chosen = data.draw(st.sets(st.sampled_from(keys)))
        lines = ["[run]", f"scenario = {scenario}"]
        for name, values in sections.items():
            if name != "run":
                lines.append(f"[{name}]")
            lines += [f"{key} = {_ini_value(value)}"
                      for key, value in values.items()
                      if (name, key) in chosen]
        written = Path(tmp) / "written.ini"
        written.write_text("\n".join(lines) + "\n")
        cfg = parse_config(written)
    assert cfg.options == base.options
    assert cfg.resolved() == base.resolved()
    assert cfg.config_hash() == base.config_hash()


_NUMBERS = (0.0, 0.125, 0.25, 0.5, 1.0, 2.0)
# Spike start and width keys, with the fewest widths each lists.  Their
# values are always drawn, on the run's grid and with start + width within
# the horizon: their defaults and most random numbers miss a tiny grid.
_SPIKE_STARTS = ("t0", "duality_t0")
_SPIKE_WIDTHS = {"duality_eps": None, "eps_list": 1, "eps_ladder": 2}
_ALWAYS_DRAWN = ("steps", "paths", *_SPIKE_STARTS, *_SPIKE_WIDTHS)


def _number(positive=False, nonnegative=False):
    values = st.sampled_from([v for v in _NUMBERS if v > 0.0 or not positive])
    if positive or nonnegative:
        return values
    return st.tuples(st.sampled_from((1.0, -1.0)), values).map(
        lambda pair: pair[0] * pair[1])


def _joined(values):
    return ", ".join(map(repr, values))


def _value_text(key, parse, dt, steps):
    """Text of one value from a small part of ``parse``'s domain."""
    func = getattr(parse, "func", parse)
    kw = getattr(parse, "keywords", {})
    if key == "steps":
        return st.integers(1, 8).map(str)
    if key == "paths":
        return st.integers(2, 200).map(str)
    if key in _SPIKE_STARTS:
        return st.integers(0, steps // 2).map(lambda k: repr(k * dt))
    if key in _SPIKE_WIDTHS:
        most = steps - steps // 2
        widths = st.integers(1, most).map(lambda k: k * dt)
        if _SPIKE_WIDTHS[key] is None:
            return widths.map(repr)
        return st.lists(widths, min_size=min(_SPIKE_WIDTHS[key], most),
                        max_size=min(3, most), unique=True).map(_joined)
    if func is cli._parse_int:
        if "choices" in kw:
            return st.sampled_from(sorted(kw["choices"])).map(str)
        return st.integers(kw["minimum"], kw["minimum"] + 5).map(str)
    if func is cli._parse_float:
        return _number(**kw).map(repr)
    if func is cli._parse_bool:
        return st.sampled_from(sorted(cli._BOOL_WORDS))
    if func is cli._parse_enum:
        return st.sampled_from(kw["choices"])
    if func is cli._parse_floats:
        length = kw.get("length")
        return st.lists(_number(positive=kw.get("positive", False)),
                        min_size=length or 1, max_size=length or 3).map(
            _joined)
    raise AssertionError(f"no strategy for the parser of {key}")


# Hard wall-clock limit of one draw below.  Hypothesis checks its deadline
# only after a draw returns, so without it a hang would stall the suite.
DRAW_SECONDS = 60


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the main thread once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_time_limit_interrupts_a_hang():
    with pytest.raises(TimeoutError, match="still running"):
        with _time_limit(0.2):
            while True:
                pass
    # the timer is disarmed on the way out
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("scenario", SCENARIOS)
@settings(max_examples=20, deadline=timedelta(seconds=30),
          derandomize=True, database=None)
@given(data=st.data())
def test_every_validated_config_ends_with_a_manifest(scenario, data):
    schema = SCHEMAS[scenario]
    drawn = {key: default for key, _, default in schema.run}
    lines = []
    for section, entries in (("run", schema.run), (scenario, schema.options)):
        lines.append(f"[{section}]")
        if section == "run":
            lines.append(f"scenario = {scenario}")
        for key, parse, _ in entries:
            if key == "output_dir":
                continue
            if key in _ALWAYS_DRAWN or data.draw(st.booleans()):
                text = data.draw(_value_text(
                    key, parse, drawn["horizon"] / drawn["steps"],
                    drawn["steps"]))
                lines.append(f"{key} = {text}")
                if section == "run":
                    drawn[key] = parse(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text("\n".join(lines) + "\n")
        try:
            cfg = parse_config(path)
        except ConfigError:
            event("config error")
            return
        out = Path(tmp) / "out"
        with warnings.catch_warnings(), _time_limit(DRAW_SECONDS):
            warnings.simplefilter("ignore")
            code = run(cfg, output_dir=out, verbosity=0)
        event(f"exit {code}")
        assert code in (EXIT_OK, EXIT_ASSERTION, EXIT_NUMERICAL)
        assert (out / "manifest.txt").is_file()


def test_config_hash_ignores_execution_only_keys(tmp_path):
    base = parse_config(write_config(tmp_path, """\
        [run]
        scenario = isometry
        seed = 7071
        """, name="a.ini"))
    wrapped = parse_config(write_config(tmp_path, """\
        [run]
        scenario = isometry
        seed = 7071
        threads = 8
        output_dir = elsewhere
        """, name="b.ini"))
    other_seed = parse_config(write_config(tmp_path, """\
        [run]
        scenario = isometry
        seed = 7072
        """, name="c.ini"))
    assert base.config_hash() == wrapped.config_hash()
    assert base.config_hash() != other_seed.config_hash()


# ---------------------------------------------------------------------------
# run() end to end, one scenario per exit code
# ---------------------------------------------------------------------------

def test_run_isometry_small_exit_zero(tmp_path):
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = isometry
        steps = 100
        paths = 2000
        """))
    out = tmp_path / "out"
    code = run(cfg, output_dir=out, verbosity=0)
    assert code == EXIT_OK
    manifest = read_manifest(out)
    assert manifest["scenario"] == "isometry"
    assert manifest["status"] == "ok"
    assert manifest["seed"] == "7071"
    assert manifest["threads"] == "1"
    assert manifest["config_sha256"] == cfg.config_hash()
    assert "report.txt" in manifest["outputs"]
    assert "isometry.csv" in manifest["outputs"]
    header, rows = read_csv(out / "isometry.csv")
    assert header == ["mc_estimate", "quadrature_value", "difference",
                      "mc_stderr", "paths"]
    assert len(rows) == 1
    # trapezoid quadrature of the linear intensity is exact
    assert float(rows[0][1]) == pytest.approx(1.640625, abs=1e-12)
    assert "passed = true" in (out / "report.txt").read_text()


def test_isometry_with_huge_se_is_inconclusive(tmp_path):
    # 3*SE = 3.48 against a quadrature value of 1.64: agreement within
    # 3 SE would say nothing
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = isometry
        steps = 1
        paths = 2
        """))
    out = tmp_path / "out"
    assert run(cfg, output_dir=out, verbosity=0) == EXIT_ASSERTION
    report = (out / "report.txt").read_text()
    assert "isometry_within_3se = FAIL" in report
    assert "detail = inconclusive: 3*SE exceeds half" in report


def test_run_pmp_check_zero_schedule_exit_one(tmp_path):
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = pmp-check
        steps = 50
        paths = 100

        [pmp-check]
        schedule = 0.0, 0.0
        sample_times = 3
        sample_paths = 10
        points_per_dim = 5
        """))
    out = tmp_path / "out"
    code = run(cfg, output_dir=out, verbosity=0)
    assert code == EXIT_ASSERTION
    manifest = read_manifest(out)
    assert manifest["status"] == "assertion-failure"
    header, rows = read_csv(out / "margins.csv")
    assert header == ["t", "path", "v_index", "delta_h"]
    assert len(rows) == 3 * 10 * 25
    # driving with zero control leaves the exact closed-form deficit
    min_margin = min(float(r[3]) for r in rows)
    assert min_margin == pytest.approx(-0.125, abs=1e-9)
    p_header, p_rows = read_csv(out / "probes.csv")
    assert p_header == ["v_index", "v0", "v1"]
    assert len(p_rows) == 25


def test_run_derivative_check_fault_exit_one(tmp_path):
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = derivative-check

        [derivative-check]
        problem = example1
        probes = 6
        inject_fault = true
        """))
    out = tmp_path / "out"
    code = run(cfg, output_dir=out, verbosity=0)
    assert code == EXIT_ASSERTION
    header, rows = read_csv(out / "derivatives.csv")
    assert header == ["problem", "derivative", "max_rel_error", "tol",
                      "flagged"]
    flagged = [r for r in rows if r[4] == "1"]
    assert flagged and all("ell_x" == r[1] for r in flagged)


def test_run_example2_blowup_exit_three(tmp_path):
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = example2
        steps = 50
        paths = 200

        [example2]
        gamma = 1.0e8, 0.0
        run_duality = false
        sweeps = 1
        """))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(cfg, output_dir=out, verbosity=0)
    assert code == EXIT_NUMERICAL
    manifest = read_manifest(out)
    assert manifest["status"] == "numerical-failure"
    report = (out / "report.txt").read_text()
    assert "BlowUpError" in report
    assert "completed = FAIL" in report


def test_run_example1_small_end_to_end(tmp_path):
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = example1
        steps = 60
        paths = 1200
        dump_trajectories = 3

        [example1]
        spike_count = 6
        sample_times = 4
        sample_paths = 30
        convexity_pairs = 150
        """))
    out = tmp_path / "out"
    code = run(cfg, output_dir=out, verbosity=0)
    assert code == EXIT_OK
    names = set(read_manifest(out)["outputs"].split(", "))
    assert {"report.txt", "margins.csv", "margins_summary.csv", "probes.csv",
            "spike_gaps.csv", "trajectories.csv"} <= names
    header, rows = read_csv(out / "trajectories.csv")
    assert header == ["path", "step", "t", "x0", "x1", "x2", "x3"]
    assert len(rows) == 3 * 61
    assert {r[0] for r in rows} == {"0", "1", "2"}
    g_header, g_rows = read_csv(out / "spike_gaps.csv")
    assert len(g_rows) == 6


RERUN_CONFIGS = {
    "pmp-check": ("""\
        [run]
        scenario = pmp-check
        steps = 40
        paths = 200

        [pmp-check]
        sample_times = 3
        sample_paths = 10
        points_per_dim = 5
        """, ("margins.csv", "probes.csv", "report.txt")),
    "example1": ("""\
        [run]
        scenario = example1
        steps = 40
        paths = 400

        [example1]
        spike_count = 4
        sample_times = 3
        sample_paths = 10
        probe_points_per_dim = 5
        convexity_pairs = 50
        """, ("margins.csv", "margins_summary.csv", "probes.csv",
              "spike_gaps.csv", "report.txt")),
    "gateaux": ("""\
        [run]
        scenario = gateaux
        steps = 80
        paths = 1000

        [gateaux]
        drift_gain = 0.25
        """, ("gateaux.csv", "report.txt")),
    "rates": ("""\
        [run]
        scenario = rates
        steps = 80
        paths = 600
        """, ("rates.csv", "report.txt")),
    "example2": ("""\
        [run]
        scenario = example2
        steps = 20
        paths = 600
        dump_trajectories = 2

        [example2]
        sweeps = 2
        """, ("sweeps.csv", "trajectories.csv", "report.txt")),
    "sufficiency": ("""\
        [run]
        scenario = sufficiency
        steps = 40
        paths = 300

        [sufficiency]
        pairs = 200
        """, ("sufficiency.csv", "report.txt")),
    "isometry": ("""\
        [run]
        scenario = isometry
        steps = 40
        paths = 500
        """, ("isometry.csv", "report.txt")),
    "derivative-check": ("""\
        [run]
        scenario = derivative-check

        [derivative-check]
        probes = 5
        """, ("derivatives.csv", "report.txt")),
}


@pytest.mark.parametrize("scenario", sorted(RERUN_CONFIGS, reverse=True))
def test_reruns_and_threads_are_byte_identical(tmp_path, scenario):
    text, names = RERUN_CONFIGS[scenario]
    cfg = parse_config(write_config(tmp_path, text))
    outs = [tmp_path / f"out{i}" for i in range(3)]
    assert run(cfg, output_dir=outs[0], threads=1, verbosity=0) == EXIT_OK
    assert run(cfg, output_dir=outs[1], threads=1, verbosity=0) == EXIT_OK
    assert run(cfg, output_dir=outs[2], threads=2, verbosity=0) == EXIT_OK
    for name in names:
        blobs = [(d / name).read_bytes() for d in outs]
        assert blobs[0] == blobs[1] == blobs[2], name


def test_one_step_example1_ends_with_a_manifest(tmp_path):
    # the spike family once looped forever on a one-step grid
    path = write_config(tmp_path, """\
        [run]
        scenario = example1
        steps = 1
        paths = 50
        """)
    out = tmp_path / "out"
    src = str(Path(martctrl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "martctrl", str(path), "--output-dir",
         str(out), "--verbosity", "0"], env=env, timeout=120,
        capture_output=True, text=True)
    assert proc.returncode in (EXIT_OK, EXIT_ASSERTION, EXIT_NUMERICAL), \
        proc.stderr
    assert read_manifest(out)["scenario"] == "example1"


@pytest.mark.parametrize("problem, state_dim, control_dim", [
    ("example1", "4", "2"), ("example2", "2", "2"), ("all", "4, 4, 2", "2")])
def test_derivative_check_manifest_records_checked_sizes(
        tmp_path, problem, state_dim, control_dim):
    text = f"""\
        [run]
        scenario = derivative-check

        [derivative-check]
        problem = {problem}
        probes = 3
        """
    out = tmp_path / "out"
    assert run(parse_config(write_config(tmp_path, text)), output_dir=out,
               verbosity=0) == EXIT_OK
    manifest = read_manifest(out)
    assert (manifest["state_dim"], manifest["control_dim"]) \
        == (state_dim, control_dim)
    # [space] may restate exactly these sizes
    stated = text + f"""
        [space]
        state_dim = {state_dim}
        control_dim = {control_dim}
        """
    assert parse_config(write_config(tmp_path, stated, name="s.ini")).space \
        == parse_config(write_config(tmp_path, text, name="t.ini")).space
    with pytest.raises(ConfigError, match="state_dim must be"):
        parse_config(write_config(tmp_path, text + """
        [space]
        state_dim = 3
        """, name="bad.ini"))


def test_unexpected_error_leaves_manifest_and_propagates(tmp_path,
                                                         monkeypatch):
    def broken(config):
        raise RuntimeError("defect under test")

    monkeypatch.setitem(cli._RUNNERS, "isometry", broken)
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = isometry
        """))
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="defect under test"):
        run(cfg, output_dir=out, verbosity=0)
    assert read_manifest(out)["status"] == "internal-error"
    report = (out / "report.txt").read_text()
    assert "type = RuntimeError" in report
    assert "completed = FAIL" in report


def test_seed_override_reflected_in_manifest(tmp_path):
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = isometry
        steps = 50
        paths = 500
        """))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(cfg, output_dir=out_a, verbosity=0)
    run(cfg, output_dir=out_b, seed=777, verbosity=0)
    assert read_manifest(out_a)["seed"] == "7071"
    assert read_manifest(out_b)["seed"] == "777"
    # different noise, different Monte Carlo estimate
    _, rows_a = read_csv(out_a / "isometry.csv")
    _, rows_b = read_csv(out_b / "isometry.csv")
    assert rows_a[0][0] != rows_b[0][0]


def test_rates_csv_layout(tmp_path):
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = rates
        steps = 80
        paths = 1000
        """))
    out = tmp_path / "out"
    code = run(cfg, output_dir=out, verbosity=0)
    assert code == EXIT_OK
    header, rows = read_csv(out / "rates.csv")
    assert header == ["eps", "e_sup_sq", "e_sup_sq_se", "e_xi_sq",
                      "e_xi_sq_se"]
    eps = [float(r[0]) for r in rows]
    assert eps == [0.2, 0.1, 0.05, 0.025]
    exi = np.array([float(r[3]) for r in rows])
    assert np.all(np.diff(exi) < 0.0)


# ---------------------------------------------------------------------------
# main()
# ---------------------------------------------------------------------------

def test_main_reports_config_errors(tmp_path, capsys):
    path = write_config(tmp_path, """\
        [run]
        scenario = example1
        steps = nope
        """)
    assert main([str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert "steps" in err


def test_main_rejects_bad_thread_count(tmp_path):
    path = write_config(tmp_path, """\
        [run]
        scenario = isometry
        """)
    assert main([str(path), "--threads", "0"]) == EXIT_CONFIG


def test_main_runs_quick_scenario(tmp_path):
    path = write_config(tmp_path, """\
        [run]
        scenario = derivative-check

        [derivative-check]
        problem = example1
        probes = 4
        """)
    out = tmp_path / "out"
    code = main([str(path), "--output-dir", str(out), "--verbosity", "0"])
    assert code == EXIT_OK
    assert (out / "manifest.txt").exists()
    header, rows = read_csv(out / "derivatives.csv")
    assert all(r[4] == "0" for r in rows)
