"""Driver and CLI tests: configuration validation, artifact schemas,
deterministic reruns, reference tables, and exit codes."""

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from perilps import (
    ConfigError,
    build_neighborhoods,
    cli,
    compute_family,
    driver,
    generate_perturbed_lattice,
    solver,
)
from perilps.cli import main
from perilps.driver import (
    CONVERGENCE_HEADER,
    FIELDS_HEADER,
    RunConfig,
    _centerline_profile,
    convergence_ladder,
    reference_errors,
    run_case,
    sweep_contrast,
)

from oracles import full_neighborhoods


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_unknown_case():
    with pytest.raises(ConfigError, match="unknown case"):
        RunConfig(case="torsion", n=16)


def test_config_rejects_bad_n():
    with pytest.raises(ConfigError):
        RunConfig(case="patch", n=0)
    with pytest.raises(ConfigError):
        RunConfig(case="patch", n=-4)


@pytest.mark.parametrize(
    "case, fields",
    [
        ("smooth", dict(nu=0.3, k1=9.0)),
        ("patch", dict(k2=3.0)),
        ("smooth-nearinc", dict(nu1=0.3)),
        ("hole", dict(k1=4.0, nu2=0.3)),
        ("inclusion", dict(nu=0.3)),
    ],
)
def test_config_rejects_material_field_the_case_does_not_read(case, fields):
    """The library itself rejects a material field its case never reads,
    naming each one, on construction and on ``replace``."""
    with pytest.raises(ConfigError) as info:
        RunConfig(case=case, n=16, **fields)
    assert all(k in str(info.value) for k in fields)
    with pytest.raises(ConfigError):
        replace(RunConfig(case=case, n=16), **fields)


def test_config_material_defaults():
    """An unset material field reads as its case's default."""
    assert RunConfig(case="hole", n=16).material("nu") == 0.25
    assert RunConfig(case="smooth-nearinc", n=16).material("nu") == 0.495
    inc = RunConfig(case="inclusion", n=16, k2=3.0)
    fields = ("k1", "k2", "nu1", "nu2")
    assert [inc.material(k) for k in fields] == [2.0, 3.0, 0.25, 0.25]


# ---------------------------------------------------------------------------
# single runs and artifacts


@pytest.fixture(scope="module")
def patch_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("patch_run")
    result = run_case(RunConfig(case="patch", n=8), out=out)
    return result, out


def test_patch_smoke(patch_run):
    """The quadratic field is in the reproducing set, so even the
    coarsest run solves it to round-off."""
    result, _ = patch_run
    assert result.rms_error < 1e-10
    assert result.n_interior == int(result.report_mask.sum()) > 0
    assert result.solve_report.residual <= 1e-10


def test_fields_csv_schema(patch_run):
    result, out = patch_run
    lines = (out / "fields.csv").read_text().splitlines()
    assert lines[0] == FIELDS_HEADER
    assert len(lines) == 1 + result.n_interior
    # repr formatting round-trips exactly
    idx = np.nonzero(result.report_mask)[0]
    first = [float(tok) for tok in lines[1].split(",")]
    i = idx[0]
    assert first[0] == result.cloud.positions[i, 0]
    assert first[2] == result.u[i, 0]
    assert first[6] == result.u_exact[i, 0]


def test_summary_json_schema(patch_run):
    result, out = patch_run
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {
        "case",
        "n",
        "h",
        "delta",
        "N_interior",
        "rms_error",
        "solver_residual",
        "paper_reference_values",
    }
    assert summary["case"] == "patch"
    assert summary["n"] == 8
    assert summary["N_interior"] == result.n_interior
    assert summary["rms_error"] == result.rms_error
    assert summary["h"] == result.cloud.h
    assert summary["delta"] == result.cloud.delta


def test_write_csv_matches_per_value_repr(tmp_path):
    """Floats print as repr of the Python float, integer columns as ints."""
    ids = np.array([3, 11])
    vals = np.array([0.1, np.nan])
    driver.write_csv(tmp_path / "t.csv", "i,v", [ids, vals])
    expected = ["i,v"] + [f"{int(i)},{float(v)!r}" for i, v in zip(ids, vals)]
    assert (tmp_path / "t.csv").read_text() == "\n".join(expected) + "\n"


def test_rerun_is_byte_identical(tmp_path):
    cfg = RunConfig(case="patch", n=8)
    run_case(cfg, out=tmp_path / "a")
    run_case(cfg, out=tmp_path / "b")
    for name in ("fields.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_hole_run_breaks_bonds_and_reports_damage():
    result = run_case(RunConfig(case="hole", n=24))
    damage = result.damage
    mask = result.report_mask
    assert np.isfinite(result.u[mask]).all()
    assert np.isfinite(result.theta[mask]).all()
    # Damage lives in [0, 1]; reported nodes keep live bonds, and the
    # free surface shows genuine bond loss.
    on_mask = damage[mask]
    assert ((on_mask >= 0.0) & (on_mask < 1.0)).all()
    assert on_mask.max() > 0.1
    # Bond loss reaches at most one horizon past the removed nodes, whose
    # jittered positions sit within one spacing of the hole rim.
    reach = 0.2 + result.cloud.delta + result.cloud.h
    far = mask & (np.hypot(*(result.cloud.positions - 0.5).T) > reach)
    assert far.sum() > 100
    assert np.allclose(damage[far], 0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# convergence ladders


@pytest.fixture(scope="module")
def patch_ladder(tmp_path_factory):
    out = tmp_path_factory.mktemp("patch_ladder")
    report = convergence_ladder(RunConfig(case="patch", n=8), [8, 10, 12], out=out)
    return report, out


def test_ladder_report_shape(patch_ladder):
    report, _ = patch_ladder
    assert report.n_values == [8, 10, 12]
    assert len(report.rms_errors) == 3
    assert len(report.pair_orders) == 2
    assert len(report.runs) == 3
    assert report.h_values == [0.125, 0.1, 1.0 / 12.0]


def test_ladder_artifacts(patch_ladder):
    report, out = patch_ladder
    for n in (8, 10, 12):
        assert (out / f"n{n:03d}" / "fields.csv").exists()
        assert (out / f"n{n:03d}" / "summary.json").exists()
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == CONVERGENCE_HEADER
    assert len(lines) == 4
    for line, n, h, ni, err in zip(
        lines[1:], report.n_values, report.h_values, report.n_interior, report.rms_errors
    ):
        toks = line.split(",")
        assert int(toks[0]) == n
        assert float(toks[1]) == h
        assert int(toks[2]) == ni
        assert float(toks[3]) == err
    summary = json.loads((out / "summary.json").read_text())
    assert "slope" in summary
    assert summary["slope"] == report.slope


def test_ladder_validation():
    cfg = RunConfig(case="patch", n=8)
    with pytest.raises(ConfigError):
        convergence_ladder(cfg, [8])
    with pytest.raises(ConfigError):
        convergence_ladder(cfg, [12, 8])
    with pytest.raises(ConfigError):
        convergence_ladder(cfg, [8, 12, 12])


def test_two_rung_ladder_has_no_slope():
    report = convergence_ladder(RunConfig(case="patch", n=8), [8, 10])
    assert report.slope is None
    assert len(report.pair_orders) == 1


# ---------------------------------------------------------------------------
# reference tables


def test_reference_errors_lookup():
    assert reference_errors(RunConfig(case="patch", n=24))["24"] == 4.11e-14
    table = reference_errors(RunConfig(case="inclusion", n=16, perturb=0.0, nu2=0.49))
    assert table["64"] == 0.0226
    assert len(table) == 5
    for nu in (None, 0.495):
        assert reference_errors(RunConfig(case="smooth-nearinc", n=24, nu=nu))["24"] == 0.13057


def test_reference_errors_empty_when_unmatched():
    assert reference_errors(RunConfig(case="hole", n=32)) == {}
    assert reference_errors(RunConfig(case="smooth", n=24, perturb=0.0)) == {}
    assert reference_errors(RunConfig(case="inclusion", n=16, k2=4.0)) == {}
    assert reference_errors(RunConfig(case="inclusion", n=16, nu1=0.3)) == {}
    assert reference_errors(RunConfig(case="inclusion", n=16, k2=5.0)) == {}
    # The smooth-nearinc table is published for nu = 0.495 only.
    assert reference_errors(RunConfig(case="smooth-nearinc", n=24, nu=0.3)) == {}


# ---------------------------------------------------------------------------
# contrast sweep


def test_sweep_outputs(tmp_path):
    cfg = RunConfig(case="inclusion", n=12)
    out = sweep_contrast(cfg, [0.5, 1.0], out=tmp_path)
    assert (tmp_path / "profile_ratio_0.5.csv").exists()
    assert (tmp_path / "profile_ratio_1.0.csv").exists()
    lines = (tmp_path / "profile_ratio_0.5.csv").read_text().splitlines()
    assert lines[0] == "x,y,ux,ux_exact"
    assert len(lines) > 5

    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert set(summary) == {"case", "n", "ratios", "profile_rms", "max_abs_u", "rms_error"}
    assert summary["ratios"] == [0.5, 1.0]
    assert len(summary["profile_rms"]) == 2

    # Equal shear in both phases collapses to a homogeneous plate whose
    # solution is affine, so the solver reproduces it to round-off.
    homog = out["entries"][1]
    assert homog["ratio"] == 1.0
    assert homog["profile_rms"] < 1e-12
    assert homog["rms_error"] < 1e-12


@pytest.mark.parametrize("fields", [dict(k1=5.0), dict(k1=5.0, nu2=0.3), dict(k2=3.0, nu1=0.3)])
def test_sweep_rejects_material_fields(fields, tmp_path):
    """A contrast ratio sets both phases, so a modulus or Poisson ratio
    given with it would be dropped; the sweep rejects the config, names
    each dropped field and writes nothing."""
    out = tmp_path / "d"
    with pytest.raises(ConfigError) as info:
        sweep_contrast(RunConfig(case="inclusion", n=12, **fields), [4.0], out=out)
    assert all(k in str(info.value) for k in fields)
    assert not out.exists()


def test_sweep_profile_row_near_centerline(tmp_path):
    out = sweep_contrast(RunConfig(case="inclusion", n=12), [1.0], out=tmp_path)
    prof = out["entries"][0]["profile"]
    assert len(prof["x"]) == len(prof["ux"]) == len(prof["ux_exact"])
    # Profile nodes all come from one lattice row next to y = 1/2.
    assert np.all(np.abs(prof["y"] - 0.5) < 1.5 * (1.0 / 12.0))


def test_sweep_matches_single_runs_exactly():
    """The sweep's shared geometry and solver plan give the same errors
    and profiles as fresh runs."""
    cfg = RunConfig(case="inclusion", n=12)
    ratios = [0.5, 4.0]
    out = sweep_contrast(cfg, ratios)
    for entry, ratio in zip(out["entries"], ratios):
        single = run_case(replace(cfg, k2=2.0 * ratio))
        assert entry["rms_error"] == single.rms_error
        np.testing.assert_array_equal(entry["profile"]["ux"], _centerline_profile(single)["ux"])


@given(
    case=st.sampled_from(["hole", "inclusion", "smooth"]),
    n=st.integers(12, 24),
    seed=st.integers(0, 2**32 - 1),
)
@example(case="hole", n=24, seed=7)
@example(case="inclusion", n=12, seed=7)
@example(case="smooth", n=18, seed=7)
def test_runs_do_not_read_the_dropped_rows(case, n, seed):
    """The rows the neighbor search drops hold no weight: a run on every
    node's row gives bitwise the same result arrays and solution."""
    config = RunConfig(case=case, n=n, seed=seed, nu=0.495 if case == "hole" else None)
    pruned = run_case(config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "build_neighborhoods", full_neighborhoods)
        full = run_case(config)
    arrays = [f.name for f in dataclasses.fields(pruned) if isinstance(getattr(pruned, f.name), np.ndarray)]
    assert arrays == ["u", "theta", "damage", "u_exact", "report_mask"]
    for name in arrays:
        np.testing.assert_array_equal(getattr(full, name), getattr(pruned, name), err_msg=name, strict=True)
    np.testing.assert_array_equal(full.solve_report.x, pruned.solve_report.x, strict=True)
    assert full.rms_error == pruned.rms_error


@pytest.mark.parametrize("n", [12, 24])
def test_check_quadrature_does_not_read_the_dropped_rows(n, tmp_path, monkeypatch):
    """``check-quadrature`` writes the same bytes from every node's row."""
    argv = ["check-quadrature", "--n", str(n), "--out"]
    assert main([*argv, str(tmp_path / "pruned")]) == 0
    monkeypatch.setattr(cli, "build_neighborhoods", full_neighborhoods)
    assert main([*argv, str(tmp_path / "full")]) == 0
    name = "quadrature_check.csv"
    assert (tmp_path / "full" / name).read_bytes() == (tmp_path / "pruned" / name).read_bytes()


def test_sweep_analyses_the_fronts_once(tmp_path, monkeypatch):
    """The ratios share one geometry, so its front tree is built once for
    all their solves, and so is the solver's symbolic pass over it
    (lam = mu in both phases of every ratio)."""
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(driver, "front_tree", counting("tree", driver.front_tree))
    monkeypatch.setattr(solver, "_plan", counting("plan", solver._plan))
    monkeypatch.setattr(driver, "solve", counting("solve", driver.solve))
    for ratios, solves in (([], 5), (["--ratios", "1,8"], 2)):
        calls.update(tree=0, plan=0, solve=0)
        assert main(["sweep", "--n", "12", *ratios, "--out", str(tmp_path / str(solves))]) == 0
        assert calls == {"tree": 1, "plan": 1, "solve": solves}


def test_sweep_requires_ratios():
    for ratios in ([], [1.0, 0.0], [-2.0]):
        with pytest.raises(ConfigError, match="positive contrast ratios"):
            sweep_contrast(RunConfig(case="inclusion", n=12), ratios)


# ---------------------------------------------------------------------------
# command line


def test_cli_run_ok(tmp_path, capsys):
    rc = main(["run", "--case", "patch", "--n", "8", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fields.csv").exists()
    assert (tmp_path / "summary.json").exists()
    assert "rms_error" in capsys.readouterr().out


def test_cli_bad_resolution_exits_2(tmp_path, capsys):
    rc = main(["run", "--case", "patch", "--n", "7", "--out", str(tmp_path)])
    assert rc == 2
    assert "config" in capsys.readouterr().err


#: One small call of each subcommand.
COMMANDS = [
    ["run", "--case", "patch", "--n", "12"],
    ["converge", "--case", "patch", "--n-list", "12,16"],
    ["check-quadrature", "--n", "12"],
    ["sweep", "--n", "12"],
]


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_seed_outside_philox_key_exits_2(command, seed, tmp_path, capsys):
    """The jitter's Philox key lies in [0, 2**128); any other seed is a
    configuration error of every subcommand, not numpy's ValueError."""
    assert main([*command, "--seed", seed, "--out", str(tmp_path)]) == 2
    assert "error [config]" in capsys.readouterr().err


@pytest.mark.parametrize("perturb", ["-0.1", "0.5", "0.7"])
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_perturb_outside_range_exits_2(command, perturb, tmp_path, capsys):
    """The jitter amplitude lies in [0, 0.5) in units of h; any other is a
    configuration error in every subcommand, whose message names the
    flag, raised before any artifact directory is made."""
    out = tmp_path / "d"
    assert main([*command, "--perturb", perturb, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error [config]" in err and "perturb (--perturb)" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [["--perturb", "0.7"], ["--n", "7"], ["--seed", "-1"], ["--ratios", "1,-2"]]
)
def test_cli_sweep_config_error_leaves_no_directory(flags, tmp_path, capsys):
    """A sweep whose configuration, cases or geometry fail exits 2 before
    it makes its artifact directory, as ``run`` does."""
    out = tmp_path / "d"
    assert main(["sweep", "--n", "12", *flags, "--out", str(out)]) == 2
    assert "error [config]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_grid_flag_exits_2(command, tmp_path):
    """The jitter amplitude alone sets the grid: no subcommand takes a
    ``--grid``, which could drop a ``--perturb`` given beside it."""
    with pytest.raises(SystemExit) as exc:
        main([*command, "--grid", "uniform", "--perturb", "0.3", "--out", str(tmp_path)])
    assert exc.value.code == 2


#: sha256 of the ``fields.csv`` of ``run --case inclusion --n 16`` on the
#: uniform grid, as it was written when ``--grid uniform`` still spelled it.
UNIFORM_INCLUSION_16_FIELDS = "edded4c6c451dcdc8219a817b227eb9ae38a9220d14e79af044f129c4c3645ef"


def test_cli_perturb_zero_is_the_uniform_grid(tmp_path):
    """``--perturb 0`` is the uniform grid: every node sits on its cell
    center, the fields are those the uniform grid has always written, and
    the summary carries the uniform-grid table, not the perturbed one."""
    argv = ["run", "--case", "inclusion", "--n", "16", "--perturb", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    fields = (tmp_path / "fields.csv").read_bytes()
    assert hashlib.sha256(fields).hexdigest() == UNIFORM_INCLUSION_16_FIELDS
    xy = np.loadtxt(tmp_path / "fields.csv", delimiter=",", skiprows=1, usecols=(0, 1))
    assert xy.shape == (256, 2) and np.isin(xy, (np.arange(16) + 0.5) / 16).all()
    summary = json.loads((tmp_path / "summary.json").read_text())
    uniform = driver._REFERENCE_ERRORS[("inclusion", "uniform", (2.0, 1.0, 0.25, 0.25))]
    assert summary["paper_reference_values"] == {str(n): v for n, v in uniform.items()}


def test_readme_names_every_cli_flag():
    """The README's "Command line" section names exactly the subcommands'
    option strings, so a flag added, renamed or removed shows there."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    [commands] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {s for p in commands.choices.values() for a in p._actions for s in a.option_strings}
    assert documented == flags - {"-h", "--help"}


class _Built(Exception):
    """Stops a command once it has built its config, and carries it."""


@pytest.mark.parametrize("argv, case, n", [
    (["run", "--case", "hole", "--n", "12"], "hole", 12),
    (["converge", "--case", "smooth", "--n-list", "12,16"], "smooth", 12),
    (["check-quadrature", "--n", "12"], "patch", 12),
    (["sweep"], "inclusion", 64),
])
def test_cli_geometry_defaults_are_the_configs(argv, case, n, tmp_path, monkeypatch):
    """A command given no geometry flag builds ``RunConfig(case, n)``, and
    each geometry flag's help quotes that config's default: the defaults
    are set in one place."""
    config_from = cli._config_from

    def built(*args):
        raise _Built(config_from(*args))

    monkeypatch.setattr(cli, "_config_from", built)
    with pytest.raises(_Built) as exc:
        main([*argv, "--out", str(tmp_path)])
    config = RunConfig(case=case, n=n)
    assert exc.value.args[0] == config

    [commands] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = {a.dest: a for a in commands.choices[argv[0]]._actions}
    for name in ("delta_factor", "perturb", "seed"):
        assert actions[name].default is None
        assert f"(default {getattr(config, name)})" in actions[name].help


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--case", "patch", "--delta-factor", "nan"],
        ["run", "--case", "patch", "--delta-factor", "inf"],
        ["check-quadrature", "--delta-factor", "nan"],
        ["run", "--case", "inclusion", "--nu2", "nan"],
        ["run", "--case", "inclusion", "--nu2", "inf"],
        ["sweep", "--ratios", "nan"],
        ["sweep", "--ratios", "1,inf"],
        ["run", "--case", "inclusion", "--k1", "nan"],
        ["run", "--case", "inclusion", "--k1", "inf"],
        ["run", "--case", "inclusion", "--k2", "nan"],
        ["run", "--case", "inclusion", "--k2", "inf"],
    ],
)
def test_cli_non_finite_input_exits_2(argv, tmp_path, capsys):
    """NaN passes every ``<=`` check, and an infinite horizon or modulus
    reached the lattice or the solver; both are configuration errors."""
    assert main([*argv, "--n", "12", "--out", str(tmp_path)]) == 2
    assert "error [config]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["run", "--n", "16", "--case", "smooth", "--nu", "0.3"], ["--nu"]),
        (["run", "--n", "16", "--case", "smooth", "--nu2", "0.49", "--k1", "5"], ["--nu2", "--k1"]),
        (["run", "--n", "16", "--case", "smooth", "--k2", "4"], ["--k2"]),
        (["run", "--n", "16", "--case", "patch", "--k2", "3"], ["--k2"]),
        (["run", "--n", "16", "--case", "smooth-nearinc", "--nu1", "0.3"], ["--nu1"]),
        (["run", "--n", "16", "--case", "hole", "--k2", "4"], ["--k2"]),
        (["run", "--n", "16", "--case", "inclusion", "--nu", "0.3"], ["--nu"]),
        (["converge", "--case", "smooth", "--n-list", "12,16", "--nu", "0.3"], ["--nu"]),
    ],
)
def test_cli_material_flag_the_case_does_not_read_exits_2(argv, flags, tmp_path, capsys):
    """A material flag the case never reads is a configuration error that
    names it, raised before anything runs, not silently ignored."""
    out = tmp_path / "d"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error [config]" in err and all(flag in err for flag in flags)
    assert not out.exists()


@pytest.mark.parametrize("command", [c for c in COMMANDS if c[0] in ("run", "converge")])
def test_cli_mu_ratio_flag_exits_2(command, tmp_path):
    """The inclusion phases have one spelling, ``--k1/--k2/--nu1/--nu2``:
    ``--mu-ratio``, alone or beside a phase flag, is an argparse error."""
    for extra in ([], ["--k1", "5"]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--mu-ratio", "4", *extra, "--out", str(tmp_path / "d")])
        assert exc.value.code == 2
    assert not (tmp_path / "d").exists()


def test_cli_quadrature_failure_exits_3(tmp_path, capsys):
    rc = main(
        ["run", "--case", "patch", "--n", "12", "--delta-factor", "1.5",
         "--out", str(tmp_path)]
    )
    assert rc == 3
    assert "quadrature" in capsys.readouterr().err


def test_cli_converge(tmp_path, capsys):
    rc = main(
        ["converge", "--case", "patch", "--n-list", "8,10", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "convergence.csv").exists()
    out = capsys.readouterr().out
    assert "n=   8" in out and "n=  10" in out


def test_cli_converge_single_rung_exits_2(tmp_path):
    rc = main(["converge", "--case", "patch", "--n-list", "8", "--out", str(tmp_path)])
    assert rc == 2


def test_cli_converge_repeated_rung_exits_2(tmp_path):
    """A repeated resolution is rejected before any rung runs, not by the
    pair-order fit dividing by log(h / h) = 0 afterwards."""
    out = tmp_path / "d"
    rc = main(["converge", "--case", "patch", "--n-list", "12,12", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_cli_check_quadrature(tmp_path, capsys):
    rc = main(["check-quadrature", "--n", "10", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "quadrature_check.csv").read_text().splitlines()
    assert lines[0] == "node,x,y,n_neighbors,residual,rank,min_weight,max_weight"
    assert len(lines) > 1
    out = capsys.readouterr().out
    assert "max residual" in out
    assert "fallbacks: 0" in out


def test_cli_sweep(tmp_path, capsys):
    rc = main(["sweep", "--ratios", "1.0", "--n", "12", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "sweep.json").exists()
    assert (tmp_path / "profile_ratio_1.0.csv").exists()


def test_cli_sweep_honours_strict_vh(tmp_path):
    rc = main(["sweep", "--ratios", "8", "--n", "12", "--strict-vh",
               "--out", str(tmp_path)])
    assert rc == 0
    written = json.loads((tmp_path / "sweep.json").read_text())["rms_error"]
    cfg = RunConfig(case="inclusion", n=12)
    strict = sweep_contrast(replace(cfg, strict_vh=True), [8.0])["summary"]["rms_error"]
    loose = sweep_contrast(cfg, [8.0])["summary"]["rms_error"]
    assert written == strict
    assert written != loose


def test_cli_sweep_rejects_material_flags(tmp_path):
    """The sweep fixes both phases per ratio, so it takes no material flag."""
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--ratios", "8", "--n", "12", "--nu2", "0.49",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


def _load_benchmark_tracing(monkeypatch):
    """perfbench/tracing.py, loaded by path without writing bytecode."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # Its dataclasses look their module up by name while being defined.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv, bonds",
    [
        (["sweep", "--n", "12", "--ratios", "1,8"], False),
        (["run", "--case", "hole", "--n", "16", "--nu", "0.495"], True),
    ],
    ids=["sweep", "hole"],
)
def test_benchmark_trace_targets_fire(argv, bonds, tmp_path, monkeypatch):
    """Every layer the benchmark traces on a sweep and on a hole run is
    still reached through the names it wraps, and the geometry is built
    once.  Only the hole breaks bonds."""
    tracing = _load_benchmark_tracing(monkeypatch)
    tracer = tracing.Tracer({"cli": cli, "driver": driver})
    with tracer.traced(argv[0], f"cli.{argv[0]}"):
        rc = cli.main([*argv, "--out", str(tmp_path)])
    assert rc == 0
    fired = {span.name for span in tracer.spans if span.parent}
    untraced = set() if bonds else {"model.bonds"}
    assert fired == set(tracing.SPAN_NAMES) - untraced
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["pointcloud.calls"] == 1
    assert metrics["quadrature.calls"] == 1
    assert (metrics["model.broken_bonds"] > 0) == bonds


def test_cli_check_quadrature_takes_geometry_flags(tmp_path, monkeypatch):
    """check-quadrature takes every geometry flag, ``--perturb 0`` for the
    uniform grid, and reaches the three layers the benchmark traces
    through the CLI's names."""
    tracing = _load_benchmark_tracing(monkeypatch)
    tracer = tracing.Tracer({"cli": cli, "driver": driver})
    argv = ["check-quadrature", "--n", "10", "--perturb", "0", "--out", str(tmp_path)]
    with tracer.traced("check-quadrature", "cli.check-quadrature"):
        rc = cli.main(argv)
    assert rc == 0
    fired = {span.name for span in tracer.spans if span.parent}
    assert fired == {"pointcloud.lattice", "pointcloud.neighbors", "quadrature.weights"}

    rows = np.loadtxt(tmp_path / "quadrature_check.csv", delimiter=",", skiprows=1)
    cloud = generate_perturbed_lattice(10, perturb_frac=0.0, seed=7)
    nbrs = build_neighborhoods(cloud)
    family = compute_family(cloud, nbrs)
    ids = rows[:, 0].astype(int)
    np.testing.assert_array_equal(ids, np.nonzero(family.computed)[0])
    np.testing.assert_array_equal(rows[:, 1:3], cloud.positions[ids])
    for i, row in zip(ids, rows):
        w = family.weights[nbrs.pair_slice(i)]
        assert (row[3], row[6], row[7]) == (w.size, w.min(), w.max())


_IMPORT_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import perilps.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
for k, argv in enumerate(json.loads(sys.argv[3])):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = perilps.cli.main(argv + ["--out", f"{sys.argv[2]}/{k}"])
    if rc != 0:
        sys.exit(f"{argv} exited with {rc}")
print(json.dumps({"after_import": after_import, "after_calls": scipy_modules()}))
"""


def test_cli_loads_no_spatial_sparse_or_special(tmp_path):
    """In a fresh process, importing the CLI and running each command loads
    neither scipy.spatial, scipy.sparse nor scipy.special, and no call
    loads a scipy module the import did not, so nothing is deferred into
    a command's first call.  In the source, no module names scipy.spatial,
    and only ``model.py`` names scipy.sparse, for ``BlockSystem.matrix``."""
    src = Path(cli.__file__).resolve().parent.parent
    naming = {
        heavy: sorted(p.name for p in (src / "perilps").glob("*.py") if heavy in p.read_text())
        for heavy in ("scipy.spatial", "scipy.sparse")
    }
    assert naming == {"scipy.spatial": [], "scipy.sparse": ["model.py"]}
    calls = [
        ["run", "--case", "hole", "--n", "16"],
        ["check-quadrature", "--n", "12"],
        ["sweep", "--n", "12", "--ratios", "1,8"],
    ]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _IMPORT_PROBE, str(src), str(tmp_path), json.dumps(calls)],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    heavy = ("scipy.spatial", "scipy.sparse", "scipy.special")
    assert [m for m in loaded["after_calls"] if m.startswith(heavy)] == []
    assert loaded["after_calls"] == loaded["after_import"]
