import warnings

import numpy as np
import pytest

import minmaxot.cli as cli
from minmaxot.flow import FlowDivergedError, run


def run_cli(*argv):
    return cli.main(list(argv))


def small_run_args(out, seed=3, extra=(), method="I"):
    return (
        "run",
        "--scenario", "gaussian_pair",
        "--method", method,
        "--out", str(out),
        "--particles", "800",
        "--steps", "12",
        "--bins", "8",
        "--seed", str(seed),
        *extra,
    )


def test_cmd_run_writes_artifacts(tmp_path):
    out = tmp_path / "exp"
    status = run_cli(*small_run_args(out, extra=("--snapshot-steps", "0,12")))
    assert status == 0
    for name in (
        "trajectory.csv",
        "summary.csv",
        "resolved_config.txt",
        "particles_step0.csv",
        "particles_step12.csv",
        "interpolant_s0.5.csv",
    ):
        assert (out / name).exists(), name
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,lambda,kl1,kl2,cost,l2_mu,l2_nu"
    assert len(traj) == 1 + 13  # initial state plus one row per step

    # summary equals the final trajectory record exactly
    head, row = (out / "summary.csv").read_text().splitlines()
    summary = dict(zip(head.split(","), row.split(",")))
    last = traj[-1].split(",")
    assert summary["lambda"] == last[1]
    assert summary["kl1"] == last[2]
    assert summary["kl2"] == last[3]
    assert summary["cost"] == last[4]
    assert summary["l2_mu"] == last[5]
    assert summary["l2_nu"] == last[6]
    assert summary["seed"] == "3"

    resolved = (out / "resolved_config.txt").read_text()
    assert "n_pairs = 400" in resolved
    assert "bins_per_dim = 8" in resolved


def test_cmd_run_zero_steps(tmp_path):
    out = tmp_path / "zero"
    status = run_cli(
        "run", "--scenario", "gaussian_pair", "--out", str(out),
        "--particles", "400", "--steps", "0", "--bins", "8", "--seed", "1",
    )
    assert status == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the initial record


def test_csv_outputs_roundtrip(tmp_path):
    # every float cell is written in shortest round-trip form: parsing and
    # re-serializing reproduces the byte content
    out = tmp_path / "roundtrip"
    assert run_cli(*small_run_args(out)) == 0
    for name in ("trajectory.csv", "summary.csv", "interpolant_s0.5.csv"):
        lines = (out / name).read_text().splitlines()
        for line in lines[1:]:
            for cell in line.split(","):
                if not cell.lstrip("-").isdigit():
                    assert repr(float(cell)) == cell, (name, cell)


def test_determinism_across_runs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(*small_run_args(out_a, extra=("--snapshot-steps", "12"))) == 0
    assert run_cli(*small_run_args(out_b, extra=("--snapshot-steps", "12"))) == 0

    for name in ("trajectory.csv", "particles_step12.csv", "interpolant_s0.5.csv"):
        assert (out_b / name).read_bytes() == (out_a / name).read_bytes(), name
    # summary matches except the wall-clock column
    head_a, row_a = (out_a / "summary.csv").read_text().splitlines()
    head_b, row_b = (out_b / "summary.csv").read_text().splitlines()
    cols = head_a.split(",")
    a = dict(zip(cols, row_a.split(",")))
    b = dict(zip(head_b.split(","), row_b.split(",")))
    for col in cols:
        if col != "wall_clock_seconds":
            assert a[col] == b[col], col


def test_config_file_layering(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "scenario = gaussian_pair\n"
        "method = II\n"
        "steps = 9\n"
        "particles = 600  # total over both families\n"
        "bins_per_dim = 8\n"
        "seed = 5\n"
    )
    out = tmp_path / "cfg_out"
    # flags win over the config file
    status = run_cli(
        "run", "--config", str(config), "--out", str(out), "--steps", "4"
    )
    assert status == 0
    resolved = (out / "resolved_config.txt").read_text()
    assert "steps = 4" in resolved
    assert "method = II" in resolved
    assert "n_pairs = 300" in resolved


def test_config_interpolant_s_values_layering(tmp_path):
    config = tmp_path / "interp.cfg"
    config.write_text(
        "scenario = gaussian_pair\n"
        "particles = 400\n"
        "steps = 2\n"
        "bins_per_dim = 8\n"
        "interpolant_s_values = 0.1\n"
    )
    # the config value wins over the default
    out = tmp_path / "from_config"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 0
    assert sorted(p.name for p in out.glob("interpolant_s*.csv")) == ["interpolant_s0.1.csv"]
    assert "interpolant_s_values = 0.1\n" in (out / "resolved_config.txt").read_text()
    # the flag wins over the config value
    out = tmp_path / "from_flag"
    assert run_cli(
        "run", "--config", str(config), "--out", str(out), "--interpolant-s", "0.3,0.9"
    ) == 0
    names = sorted(p.name for p in out.glob("interpolant_s*.csv"))
    assert names == ["interpolant_s0.3.csv", "interpolant_s0.9.csv"]
    assert "interpolant_s_values = 0.3,0.9\n" in (out / "resolved_config.txt").read_text()


def test_bad_inputs_exit_nonzero(tmp_path):
    # odd particle count
    assert run_cli(
        "run", "--scenario", "gaussian_pair", "--out", str(tmp_path / "x"),
        "--particles", "401", "--steps", "1",
    ) == 1
    # snapshot step outside the run
    assert run_cli(
        "run", "--scenario", "gaussian_pair", "--out", str(tmp_path / "y"),
        "--particles", "400", "--steps", "2", "--snapshot-steps", "5",
    ) == 1
    # malformed config file
    bad = tmp_path / "bad.cfg"
    bad.write_text("steps 9\n")
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "z")) == 1
    # interpolation parameter outside [0, 1]
    assert run_cli(
        "run", "--scenario", "gaussian_pair", "--out", str(tmp_path / "v"),
        "--particles", "400", "--steps", "1", "--interpolant-s", "1.5",
    ) == 1
    # custom_csv without paths
    assert run_cli(
        "run", "--scenario", "custom_csv", "--out", str(tmp_path / "w"),
        "--steps", "1", "--particles", "400",
    ) == 1


@pytest.mark.parametrize(
    "flag", [("--dt", "nan"), ("--dt", "inf"), ("--lambda0", "nan"), ("--lambda0", "inf")]
)
def test_non_finite_flow_setting_writes_nothing(tmp_path, capsys, flag):
    out = tmp_path / "nonfinite"
    assert run_cli(*small_run_args(out, extra=flag)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{flag[0][2:]} must be finite" in err
    assert not out.exists()


def test_config_snapshot_steps_layering(tmp_path):
    config = tmp_path / "snap.cfg"
    config.write_text(
        "scenario = gaussian_pair\n"
        "particles = 400\n"
        "steps = 3\n"
        "bins_per_dim = 8\n"
        "snapshot_steps = 1\n"
    )
    out = tmp_path / "from_config"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 0
    assert sorted(p.name for p in out.glob("particles_step*.csv")) == ["particles_step1.csv"]
    # the flag wins over the config value
    out = tmp_path / "from_flag"
    assert run_cli(
        "run", "--config", str(config), "--out", str(out), "--snapshot-steps", "0,2"
    ) == 0
    names = sorted(p.name for p in out.glob("particles_step*.csv"))
    assert names == ["particles_step0.csv", "particles_step2.csv"]
    assert "snapshot_steps = 0,2\n" in (out / "resolved_config.txt").read_text()


@pytest.mark.parametrize("method", ["I", "II", "III"])
def test_resolved_config_records_method_variants(tmp_path, monkeypatch, method):
    # the flow runs with the requested method, and the config records it once
    ran = []

    def recording_run(mu, nu, cost, cfg, **kwargs):
        ran.append(cfg.method)
        return run(mu, nu, cost, cfg, **kwargs)

    monkeypatch.setattr(cli, "run", recording_run)
    out = tmp_path / "method"
    assert run_cli(*small_run_args(out, method=method, extra=("--steps", "1"))) == 0
    assert ran == [method]
    lines = (out / "resolved_config.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("method")] == [f"method = {method}"]


def test_negative_seed_writes_nothing(tmp_path, capsys):
    out = tmp_path / "negative_seed"
    assert run_cli(*small_run_args(out, seed=-1)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare-methods", "validate-response"])
def test_every_flag_names_a_setting(command):
    # a flag's dest is the config key and the resolved_config.txt name
    args = cli._build_parser().parse_args([command])
    assert set(vars(args)) - {"command", "config"} <= set(cli._SETTINGS)


def test_config_unknown_keys_rejected(tmp_path, capsys):
    config = tmp_path / "typo.cfg"
    config.write_text(
        "scenario = gaussian_pair\nbins = 7\nstep = 3\nkl_variant_x = reverse\n"
    )
    out = tmp_path / "typo_out"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "unknown config keys: bins, kl_variant_x, step" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "line", ["seed = abc", "dt = fast", "snapshot_steps = 0,x", "particles = 1.5"]
)
def test_config_bad_value_names_key_and_file(tmp_path, capsys, line):
    config = tmp_path / "bad_value.cfg"
    config.write_text(f"scenario = gaussian_pair\n{line}\n")
    out = tmp_path / "bad_value_out"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 1
    err = capsys.readouterr().err
    key, _, val = line.partition(" = ")
    assert f"bad value for {key} in {config}: {val!r}" in err
    assert not out.exists()


def test_config_with_particles_and_n_pairs_is_rejected(tmp_path, capsys):
    config = tmp_path / "both.cfg"
    config.write_text("scenario = gaussian_pair\nn_pairs = 100\nparticles = 400\n")
    out = tmp_path / "both_out"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"{config} gives both particles and n_pairs" in err
    assert not out.exists()


def test_particles_flag_overrides_config_n_pairs(tmp_path):
    config = tmp_path / "pairs.cfg"
    config.write_text("scenario = gaussian_pair\nn_pairs = 100\nsteps = 2\nbins_per_dim = 8\n")
    out = tmp_path / "pairs_out"
    assert run_cli("run", "--config", str(config), "--particles", "400", "--out", str(out)) == 0
    assert "n_pairs = 200" in (out / "resolved_config.txt").read_text()


@pytest.mark.parametrize("command", ["run", "compare-methods"])
def test_over_budget_grid_writes_nothing(tmp_path, capsys, command):
    out = tmp_path / "huge_grid"
    argv = (command, "--scenario", "gaussian_pair", "--particles", "400", "--steps", "2")
    assert run_cli(*argv, "--bins", "5000", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "grid of 25000000 bins exceeds the 10000000 bin budget" in err
    assert not out.exists()


def test_resolved_config_feeds_back(tmp_path):
    small = ("--scenario", "gaussian_pair", "--particles", "400", "--steps", "4", "--bins", "8")
    cases = [
        (("run", "--method", "I", *small, "--snapshot-steps", "4"),
         ("trajectory.csv", "particles_step4.csv")),
        (("run", "--method", "II", *small, "--snapshot-steps", "4"),
         ("trajectory.csv", "particles_step4.csv")),
        (("compare-methods", *small, "--seed", "2"), ("methods.csv",)),
        (("validate-response", "--scenario", "gaussian_pair", "--quad-nodes", "12",
          "--ode-horizon", "0.5", "--lambda-grid", "0.5,1"),
         ("response_report.csv", "ode_trace.csv")),
    ]
    for i, (args, outputs) in enumerate(cases):
        first, again = tmp_path / f"first_{i}", tmp_path / f"again_{i}"
        assert run_cli(*args, "--out", str(first)) == 0
        config = first / "resolved_config.txt"
        assert run_cli(args[0], "--config", str(config), "--out", str(again)) == 0
        for name in ("resolved_config.txt", *outputs):
            assert (again / name).read_bytes() == (first / name).read_bytes(), (args, name)


def test_custom_csv_scenario(tmp_path):
    rng = np.random.default_rng(0)
    mu_csv = tmp_path / "mu.csv"
    nu_csv = tmp_path / "nu.csv"
    np.savetxt(mu_csv, rng.normal(0.0, 0.2, (2000, 2)), delimiter=",")
    np.savetxt(nu_csv, rng.normal(0.5, 0.2, (2000, 2)), delimiter=",")
    out = tmp_path / "custom"
    status = run_cli(
        "run", "--scenario", "custom_csv", "--mu-csv", str(mu_csv),
        "--nu-csv", str(nu_csv), "--out", str(out),
        "--particles", "400", "--steps", "5", "--bins", "8", "--seed", "2",
    )
    assert status == 0
    assert (out / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "text,cause",
    [
        ("x,y\n0.1,0.2\n0.3,0.4\n", "could not convert string 'x' to float64"),
        ("0.1,0.2\n0.3,0.4\n0.5,0.6,0.7\n", "the number of columns changed from 2 to 3"),
        ("", "needs at least 2 samples"),
    ],
    ids=["header", "ragged", "empty"],
)
def test_bad_sample_file_names_file_and_cause(tmp_path, capsys, text, cause):
    rng = np.random.default_rng(0)
    mu_csv = tmp_path / "mu.csv"
    nu_csv = tmp_path / "nu.csv"
    mu_csv.write_text(text)
    np.savetxt(nu_csv, rng.normal(0.5, 0.2, (200, 2)), delimiter=",")
    out = tmp_path / "bad_csv_out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = run_cli(
            "run", "--scenario", "custom_csv", "--mu-csv", str(mu_csv),
            "--nu-csv", str(nu_csv), "--out", str(out), "--particles", "400", "--steps", "1",
        )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read samples from {mu_csv}: ")
    assert cause in err
    assert "usecols" not in err
    assert not out.exists()


def test_compare_methods_table(tmp_path):
    out = tmp_path / "methods"
    status = run_cli(
        "compare-methods", "--scenario", "ring_to_mixture", "--out", str(out),
        "--particles", "600", "--steps", "8", "--bins", "8", "--seed", "1",
    )
    assert status == 0
    lines = (out / "methods.csv").read_text().splitlines()
    assert lines[0] == "method,l2_error,kl,reverse_kl,total_kl"
    assert [line.split(",")[0] for line in lines[1:]] == ["I", "II", "III"]
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")[1:]]
        assert all(np.isfinite(vals))
        assert vals[3] == pytest.approx(vals[1] + vals[2], rel=1e-12)


def test_compare_methods_reports_divergence(tmp_path, monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise FlowDivergedError("non-finite particle coordinate at step 2")

    monkeypatch.setattr(cli, "run", diverge)
    status = run_cli(
        "compare-methods", "--scenario", "gaussian_pair", "--out", str(tmp_path / "m"),
        "--particles", "400", "--steps", "2", "--bins", "8",
    )
    assert status == 1
    err = capsys.readouterr().err
    assert "error: method I: non-finite particle coordinate at step 2" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m" / "methods.csv").exists()


def test_validate_response_report(tmp_path):
    out = tmp_path / "resp"
    status = run_cli(
        "validate-response", "--scenario", "gaussian_pair", "--out", str(out),
        "--lambda-grid", "0.01,0.05,0.1,1", "--ode-horizon", "2.0",
        "--ode-dt", "0.5", "--quad-nodes", "24",
    )
    assert status == 0
    lines = (out / "response_report.csv").read_text().splitlines()
    assert lines[0] == (
        "lambda,Z,V,dV_dlambda,dV_dlambda_fd,E_d,danskin_residual,z_lower_bound_ok"
    )
    rows = {float(line.split(",")[0]): line.split(",") for line in lines[1:]}
    # lower-bound indicator flips between small and moderate penalty weights
    assert rows[0.01][7] == "True"
    assert rows[1.0][7] == "False"
    for row in rows.values():
        z, v = float(row[1]), float(row[2])
        assert 0.0 < z <= 1.0
        assert v >= 0.0
        # formula derivative agrees with its own finite difference
        assert float(row[3]) == pytest.approx(float(row[4]), rel=1e-3, abs=1e-12)

    trace = (out / "ode_trace.csv").read_text().splitlines()
    assert trace[0] == "t,lambda,V,growth_bound,bound_margin"
    margins = [float(line.split(",")[4]) for line in trace[1:]]
    assert all(v >= -1e-12 for v in margins)


def test_validate_response_ring_scenario(tmp_path):
    # non-Gaussian analytic pair: the optimal-cost reference comes from the
    # exact discrete solver on a drawn sample
    out = tmp_path / "ring_resp"
    status = run_cli(
        "validate-response", "--scenario", "ring_to_mixture", "--out", str(out),
        "--lambda-grid", "0.5", "--ode-horizon", "1.0", "--ode-dt", "0.5",
        "--quad-nodes", "24",
    )
    assert status == 0
    assert (out / "response_report.csv").exists()
    assert (out / "ode_trace.csv").exists()


@pytest.mark.parametrize(
    "flag",
    [("--ode-horizon", "2.6"), ("--ode-dt", "0")]
    + [("--lambda-grid", grid) for grid in ("nan", "inf", "-1", "0", ",")],
)
def test_validate_response_bad_ode_writes_no_csv(tmp_path, capsys, flag):
    # a bad ODE horizon or step, or a lambda grid that is empty or holds a
    # weight that is not finite and positive
    out = tmp_path / "resp"
    status = run_cli(
        "validate-response", "--scenario", "gaussian_pair", "--out", str(out),
        "--lambda-grid", "0.5", "--quad-nodes", "12", *flag,
    )
    assert status == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_validate_response_rejects_empirical(tmp_path):
    rng = np.random.default_rng(1)
    mu_csv = tmp_path / "mu.csv"
    nu_csv = tmp_path / "nu.csv"
    np.savetxt(mu_csv, rng.normal(size=(100, 2)), delimiter=",")
    np.savetxt(nu_csv, rng.normal(size=(100, 2)), delimiter=",")
    status = run_cli(
        "validate-response", "--scenario", "custom_csv",
        "--mu-csv", str(mu_csv), "--nu-csv", str(nu_csv),
        "--out", str(tmp_path / "resp2"),
    )
    assert status == 1
