"""Config parsing and end-to-end coverage for the command line runner."""

import contextlib
import csv
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import martctrl
from martctrl import cli
from martctrl.cli import (ConfigError, EXIT_ASSERTION, EXIT_CONFIG,
                          EXIT_NUMERICAL, EXIT_OK, SCENARIOS, SCHEMAS,
                          main, parse_config, run)
from martctrl.pmp import MarginReport


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
    assert opts["schedule"] is None


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


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    # a Latin-1 byte in a comment ends the command with exit 2 and a
    # message, not a decode traceback
    path = tmp_path / "latin1.ini"
    path.write_bytes("[run]\nscenario = isometry  # café\n".encode("latin-1"))
    assert main([str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot read config file" in err
    assert "not UTF-8 text" in err


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
        "unknown section [space]",
        "[rates] eps_ladder entries must be distinct",
        "is not grid-aligned",
        "[rates] unknown key 'junk'",
        "unknown section [extra]",
    ]
    for fragment in expected:
        assert any(fragment in err for err in errors), fragment
    assert len(errors) >= len(expected)


@pytest.mark.parametrize("section, key, value, message", [
    ("space", "state_dim", "4", "unknown section [space]"),
    ("example1", "feedback", "zero", "[example1] unknown key 'feedback'"),
], ids=["space", "feedback"])
def test_removed_keys_are_config_errors(tmp_path, capsys, section, key, value,
                                        message):
    # the operator sizes come from the packaged problems, and every named
    # feedback repeated a schedule or the default: no config sets either
    path = write_config(tmp_path, f"""\
        [run]
        scenario = example1

        [{section}]
        {key} = {value}
        """)
    assert main([str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


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


def test_dump_trajectories_only_where_it_dumps(tmp_path):
    # only example1 and example2 write trajectories.csv; the other
    # scenarios reject the key instead of ignoring it
    path = write_config(tmp_path, """\
        [run]
        scenario = gateaux
        dump_trajectories = 3
        """)
    with pytest.raises(ConfigError,
                       match=r"\[run\] unknown key 'dump_trajectories'"):
        parse_config(path)
    assert main([str(path)]) == EXIT_CONFIG
    for name, schema in SCHEMAS.items():
        keys = {key for key, _, _ in schema.run}
        assert ("dump_trajectories" in keys) \
            == (name in ("example1", "example2")), name


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


TRACED_CONFIGS = {
    "example1": """\
        [run]
        scenario = example1
        steps = 40
        paths = 400

        [example1]
        spike_count = 5
        probe_points_per_dim = 3
        convexity_pairs = 50
        """,
    "example2": """\
        [run]
        scenario = example2
        steps = 20
        paths = 600

        [example2]
        sweeps = 2
        run_duality = true
        """,
    # the benchmark's second traced variation-tanh pass runs two threads
    "gateaux": """\
        [run]
        scenario = gateaux
        steps = 40
        paths = 1000
        threads = 2

        [gateaux]
        drift_gain = 0.25
        """,
}


def test_benchmark_tracer_binds_to_the_package(tmp_path):
    # the traced benchmark runs rebind martctrl's functions and methods by
    # name and read the shapes they return; a deletion under src/ must leave
    # it every module, method and attribute it reads, and the runs must pass
    # under it
    root = Path(__file__).resolve().parents[1]
    code = textwrap.dedent("""\
        import json, sys
        sys.path[:0] = sys.argv[1:3]
        from martctrl import cli
        from spans import Tracer
        tracer = Tracer()
        rebound = tracer.install()
        codes = [cli.run(cli.parse_config(path), output_dir=path + "-out",
                         verbosity=0) for path in sys.argv[3:]]
        print(json.dumps({"rebound": rebound, "codes": codes,
                          **tracer.export()}))
        """)
    paths = [str(write_config(tmp_path, text, name=f"{name}.ini"))
             for name, text in TRACED_CONFIGS.items()]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code, str(root / "perfbench"),
         str(root / "src"), *paths],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    assert traced["rebound"] > 0
    assert traced["codes"] == [EXIT_OK] * len(paths)
    for name in ("cli.run", "martingale.sample_increments",
                 "dynamics.integrate_forward", "dynamics.controls_at",
                 "adjoint.y_eval", "pmp.gateaux_check"):
        assert traced["stats"].get(name, {}).get("calls", 0) > 0, name
    assert traced["counters"]["dynamics.grid_steps"] > 0
    assert traced["counters"]["martingale.noise_bytes"] > 0


def test_readme_lists_every_run_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("### `[run]` keys", 1)[1].split("###", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    keys = {key for schema in SCHEMAS.values() for key, _, _ in schema.run}
    assert sorted(listed) == sorted({"scenario"} | keys)


def test_readme_names_every_scenario_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("### Scenario options", 1)[1].split("###", 1)[0]
    paragraphs = section.split("\n\n")
    for name, schema in SCHEMAS.items():
        text = "".join(p for p in paragraphs if p.startswith(f"`[{name}]`"))
        missing = [key for key, _, _ in schema.options
                   if f"`{key}`" not in text]
        assert text and not missing, (name, missing)


def test_readme_library_use_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library use)", "exec"), {})
    assert "True" in capsys.readouterr().out


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
        sections = {"run": base.run, scenario: base.options}
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


def test_manifest_records_the_peak_rss(tmp_path):
    # a process-wide figure, so it goes to the manifest and never into
    # report.txt, whose bytes depend on the config and seed alone
    pytest.importorskip("resource")
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = isometry
        steps = 10
        paths = 50
        """))
    out = tmp_path / "out"
    run(cfg, output_dir=out, verbosity=0)
    assert float(read_manifest(out)["peak_rss_mb"]) > 0.0
    assert "peak_rss" not in (out / "report.txt").read_text()


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


def test_run_derivative_check_audits_the_control_declaration(tmp_path):
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = derivative-check

        [derivative-check]
        problem = all
        probes = 4
        """))
    out = tmp_path / "out"
    assert run(cfg, output_dir=out, verbosity=0) == EXIT_OK
    _, rows = read_csv(out / "derivatives.csv")
    # every packaged problem declares grad_x_ignores_u, and its ell_x and
    # F_x do not move at all when the control does
    audited = {r[0]: float(r[2]) for r in rows if r[1] == "grad_x_ignores_u"}
    assert audited == {"example1": 0.0, "example1-tanh": 0.0,
                       "example2": 0.0}
    assert len(rows) == 7 * len(audited)


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


def _section(report, name):
    """The lines of one ``[name]`` section of a report.txt."""
    return report.split(f"\n[{name}]\n", 1)[1].split("\n\n", 1)[0]


def test_example1_and_pmp_check_print_the_same_margins(tmp_path):
    # both scenarios check the minimum condition along the same candidate
    # with the same sampling, so they report the same [margins] section
    extra = {"example1": ("probe_points_per_dim = 5", "spike_count = 2",
                          "convexity_pairs = 50"),
             "pmp-check": ("points_per_dim = 5",)}
    reports = {}
    for name, lines in extra.items():
        text = "\n".join(
            ("[run]", f"scenario = {name}", "steps = 40", "paths = 300",
             f"[{name}]", "schedule = 0.1, -0.2", "sample_times = 3",
             "sample_paths = 10", *lines))
        out = tmp_path / name
        run(parse_config(write_config(tmp_path, text, f"{name}.ini")),
            output_dir=out, verbosity=0)
        reports[name] = (out / "report.txt").read_text(encoding="utf-8")
    margins = _section(reports["example1"], "margins")
    assert margins == _section(reports["pmp-check"], "margins")
    assert "frac_negative = 0.0\n" not in margins
    # the pmp-check verdict is example1's with the witness added
    necessary = _section(reports["example1"], "assert:necessary_margins")
    minimum = _section(reports["pmp-check"], "assert:hamiltonian_minimum")
    assert minimum.startswith(necessary + "; witness t=")


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


def test_unexpected_error_leaves_manifest_and_propagates(tmp_path,
                                                         monkeypatch):
    def broken(config):
        raise RuntimeError("defect under test")

    monkeypatch.setitem(cli.SCHEMAS, "isometry",
                        SCHEMAS["isometry"]._replace(runner=broken))
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


def test_gateaux_run_keeps_only_the_states_it_reads(tmp_path):
    # the forward run keeps X at t0 and T and carries the first variation
    # and the base cost walk: the whole run peaks below the sampled noise
    # plus a (paths, steps + 1, 4) states array, which a run that keeps
    # every step holds at once
    paths, steps = 2000, 50
    path = write_config(tmp_path, f"""\
        [run]
        scenario = gateaux
        steps = {steps}
        paths = {paths}

        [gateaux]
        drift_gain = 0.25
        eps_list = 0.04, 0.02
        """)
    config = parse_config(path)
    tracemalloc.start()
    try:
        code = run(config, output_dir=tmp_path / "out", verbosity=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 8 * paths * steps + 8 * paths * (steps + 1) * 4


@pytest.mark.parametrize("scenario", ["rates", "gateaux"])
def test_first_variation_run_keeps_the_steps_its_readers_read(tmp_path,
                                                              scenario):
    # a rates run keeps the steps from t0 on: its spikes start from step
    # k0 and are compared against every later step; a gateaux run keeps
    # only k0 and T
    steps = 40
    config = parse_config(write_config(tmp_path, f"""\
        [run]
        scenario = {scenario}
        steps = {steps}
        paths = 50
        """))
    _, p = cli._first_variation(config, 0.1, scenario == "gateaux")
    k0, _ = p.spike.window(p.optimal.grid)
    assert 0 < k0 < steps
    expected = range(k0, steps + 1) if scenario == "rates" else (k0, steps)
    assert p.optimal.kept == tuple(expected)


def test_example1_writes_the_same_bytes_with_and_without_a_dump(tmp_path):
    # the dump keeps every step of the candidate, the plain run only the
    # steps its checks read; both give the same artifacts, byte for byte
    outputs, codes = {}, set()
    for dump in (0, 2):
        config = parse_config(write_config(tmp_path, f"""\
            [run]
            scenario = example1
            steps = 30
            paths = 400
            dump_trajectories = {dump}

            [example1]
            spike_count = 5
            sample_times = 4
            sample_paths = 20
            convexity_pairs = 60
            """, name=f"dump{dump}.ini"))
        out = tmp_path / f"out{dump}"
        codes.add(run(config, output_dir=out, verbosity=0))
        outputs[dump] = {f.name: f.read_bytes() for f in out.iterdir()
                         if f.name != "manifest.txt"}
    assert len(codes) == 1
    assert "trajectories.csv" not in outputs[0]
    assert "trajectories.csv" in outputs[2]
    names = ("report.txt", "spike_gaps.csv", "margins.csv",
             "margins_summary.csv", "probes.csv")
    assert set(outputs[0]) == set(names)
    for name in names:
        assert outputs[0][name] == outputs[2][name], name


def test_gateaux_run_forms_each_step_once_per_walk(tmp_path, monkeypatch):
    # the first variation reads the increments the forward run formed, so
    # the noise forms one step per forward step and per spike-block step:
    # 20 forward steps, then two blocks of one spike each (BLOCK_ROWS held
    # at the path count) over the 14 steps from t0 = 0.3
    paths, steps, k0 = 50, 20, 6
    calls = []
    step = martctrl.NoiseBundle.step

    def counted(self, k, out=None):
        calls.append(k)
        return step(self, k, out=out)

    monkeypatch.setattr(martctrl.NoiseBundle, "step", counted)
    monkeypatch.setattr(martctrl.dynamics, "BLOCK_ROWS", paths)
    config = parse_config(write_config(tmp_path, f"""\
        [run]
        scenario = gateaux
        steps = {steps}
        paths = {paths}

        [gateaux]
        drift_gain = 0.25
        eps_list = 0.1, 0.05
        """))
    assert run(config, output_dir=tmp_path / "out", verbosity=0) == EXIT_OK
    assert calls == list(range(steps)) + 2 * list(range(k0, steps))


def test_margins_table_streams_its_rows(tmp_path):
    # 20 times x 100 paths x 25 probes are 50,000 rows.  Built as one list
    # of tuples, emitting them peaked at 10.4 MB of traced memory; rendered
    # as text one time at a time it peaks at 0.40 MB, within the 3 MB bound
    rng = np.random.default_rng(0)
    margins = rng.standard_normal((20, 100, 25))
    report = MarginReport(times=np.linspace(0.0, 1.0, 20),
                          path_indices=np.arange(0, 1000, 10),
                          probes=rng.standard_normal((25, 2)),
                          margins=margins, min_margin=float(margins.min()),
                          frac_negative=0.5, tol=1e-9,
                          witness=(0.0, 0, np.zeros(2)))
    path = tmp_path / "margins.csv"
    tracemalloc.start()
    try:
        header, rows = cli._margins_tables(report)["margins"]
        cli._write_csv(path, header, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
    header, rows = read_csv(path)
    assert header == ["t", "path", "v_index", "delta_h"]
    assert len(rows) == margins.size
    # row (time i, path j, probe q) in the C order of the margins
    i, j, q = 13, 57, 19
    row = rows[(i * 100 + j) * 25 + q]
    assert row == [repr(float(report.times[i])), str(10 * j), str(q),
                   repr(float(margins[i, j, q]))]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 4), st.integers(1, 5),
                                       st.integers(1, 6)))
def test_margins_text_matches_the_generic_csv_cells(tmp_path_factory, data,
                                                    shape):
    # the margins rows rendered as text give the bytes of _write_csv's
    # cell path over the (t, path, v_index, delta_h) values, specials too
    values = st.one_of(st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan,
                                        5e-324, 1e300]),
                       st.floats(width=64))
    n_times, n_paths, n_probes = shape
    times = data.draw(arrays(np.float64, n_times, elements=values),
                      label="times")
    path_indices = data.draw(arrays(np.int64, n_paths,
                                    elements=st.integers(0, 10 ** 12)),
                             label="path_indices")
    margins = data.draw(arrays(np.float64, shape, elements=values),
                        label="margins")
    report = MarginReport(times=times, path_indices=path_indices,
                          probes=np.zeros((n_probes, 2)), margins=margins,
                          min_margin=0.0, frac_negative=0.0, tol=1e-9,
                          witness=(0.0, 0, np.zeros(2)))
    cells = [(t, path, q, m)
             for t, block in zip(times.tolist(), margins.tolist())
             for path, row in zip(path_indices.tolist(), block)
             for q, m in enumerate(row)]
    out = tmp_path_factory.mktemp("margins")
    header, rendered = cli._margins_tables(report)["margins"]
    cli._write_csv(out / "rendered.csv", header, rendered)
    cli._write_csv(out / "cells.csv", header, cells)
    assert (out / "rendered.csv").read_bytes() \
        == (out / "cells.csv").read_bytes()


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


def test_main_rejects_negative_seed(tmp_path, capsys):
    path = write_config(tmp_path, """\
        [run]
        scenario = isometry
        """)
    out = tmp_path / "out"
    assert main([str(path), "--seed", "-1", "--output-dir", str(out)]) \
        == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 3.7, 3.0, "5", True])
def test_run_rejects_a_seed_that_is_not_a_nonnegative_integer(tmp_path,
                                                              seed):
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = isometry
        """))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="non-negative integer"):
        run(cfg, output_dir=out, seed=seed, verbosity=0)
    assert not out.exists()


def test_run_rejects_a_thread_count_below_one(tmp_path):
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = isometry
        """))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="thread count must be >= 1"):
        run(cfg, output_dir=out, threads=0, verbosity=0)
    assert not out.exists()


@pytest.mark.parametrize("verbosity", [1, 2])
def test_run_prints_its_status_and_assertions(tmp_path, capsys, verbosity):
    cfg = parse_config(write_config(tmp_path, """\
        [run]
        scenario = isometry
        steps = 40
        paths = 2000
        """))
    out = tmp_path / "out"
    assert run(cfg, output_dir=out, verbosity=verbosity) == EXIT_OK
    status, *lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(
        rf"isometry: ok \(\d+\.\ds, outputs in {re.escape(str(out))}\)",
        status)
    verdicts = re.findall(r"^\[assert:(\w+)\]\npassed = true\ndetail = (.*)$",
                          (out / "report.txt").read_text(), re.MULTILINE)
    assert verdicts
    assert lines == ([f"  {name}: pass -- {detail}"
                      for name, detail in verdicts] if verbosity == 2 else [])


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
