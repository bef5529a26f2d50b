import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from axivisc import cli, evolution, norms
from axivisc.biot_savart import KernelTable, velocity_from_vorticity
from axivisc.diagnostics import CSV_HEADER, parse_csv
from axivisc.evolution import SimConfig
from axivisc.experiment import (ExperimentConfig, InitialData, build_initial,
                                format_config, parse_config, run_experiment,
                                support_margin_violation)
from axivisc.grid import ScalarField, load_field, make_grid, save_field

# every config key, in file order, with a value different from its default
NON_DEFAULT_TEXT = """\
kind = ring_pair
amplitude = 0.7
r0 = 0.6
z0 = 0.1
sigma = 0.12
patch_radius = 0.2
separation = 0.3
r_max = 3.0
z_min = -3.0
z_max = 2.5
n_r = 40
n_z = 80
n_theta = 32
dt_cfl_factor = 0.5
eps_h = 0.001
t_end = 0.25
cadence = 3
evolve_omega_direct = true
snapshot_times = 0.1,0.2
out_dir = elsewhere
"""
CONFIG_KEYS = [ln.split(" = ")[0] for ln in NON_DEFAULT_TEXT.splitlines()]


class TestBuildInitial:
    def test_gaussian_lp_norms_closed_form(self):
        # omega0 = A r exp(-((r-r0)^2+z^2)/s^2); for s << r0 the q = omega/r
        # profile integrates like a planar Gaussian on a ring of radius r0:
        # ||q0||_p^p ~ A^p * 2 pi r0 * (pi s^2 / p)
        g = make_grid(2.0, -2.0, 2.0, 128, 128)
        d = InitialData(amplitude=1.3, r0=0.7, sigma=0.1)
        q0 = build_initial(d, g)
        for p in (1.0, 1.5, 2.0):
            expected = (1.3 ** p * 2 * math.pi * 0.7
                        * math.pi * 0.1 ** 2 / p) ** (1 / p)
            assert norms.lebesgue_norm(q0, p) == pytest.approx(expected, rel=1e-2)

    def test_patch_lorentz_closed_form(self):
        # indicator of measure V: ||.||_{p,1} = p V^{1/p}
        g = make_grid(2.0, -2.0, 2.0, 256, 256)
        d = InitialData(kind="yudovich_patch", amplitude=2.0, r0=0.8,
                        patch_radius=0.25)
        q0 = build_initial(d, g)
        vol = 2 * math.pi * 0.8 * math.pi * 0.25 ** 2   # torus volume, s << r0
        for p in (1.5, 2.0):
            expected = 2.0 * p * vol ** (1 / p)
            assert norms.lorentz_norm(q0, (p, 1.0)) == pytest.approx(
                expected, rel=2e-2)

    def test_ring_pair_is_odd_in_z(self):
        g = make_grid(2.0, -2.0, 2.0, 32, 64)
        q0 = build_initial(
            InitialData(kind="ring_pair", sigma=0.1, separation=0.3), g)
        np.testing.assert_allclose(q0.values, -q0.values[:, ::-1], atol=1e-15)

    def test_unknown_kind(self):
        g = make_grid(2.0, -2.0, 2.0, 16, 16)
        with pytest.raises(ValueError, match="kind"):
            build_initial(InitialData(kind="vortex_sheet"), g)

    def test_margin_violation_rejected(self):
        g = make_grid(2.0, -2.0, 2.0, 32, 64)
        with pytest.raises(ValueError, match="margin"):
            build_initial(InitialData(r0=1.8), g)

    def test_margin_helper(self):
        g = make_grid(2.0, -2.0, 2.0, 32, 64)
        ok = build_initial(InitialData(), g)
        assert not support_margin_violation(ok)
        shifted = ScalarField(g, np.roll(ok.values, 40, axis=1), ok.role)
        assert support_margin_violation(shifted)


class TestConfigParsing:
    def test_empty_gives_defaults(self):
        assert parse_config("") == ExperimentConfig()

    def test_comments_and_overrides(self):
        cfg = parse_config("# a comment\nn_r = 32   # trailing\n\nt_end = 0.5\n")
        assert cfg.n_r == 32
        assert cfg.t_end == 0.5

    def test_bad_value_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("t_end = 0.5\nn_r = -4\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'nr'"):
            parse_config("nr = 32\n")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config("just some words\n")

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            parse_config("kind = square_wave\n")

    def test_snapshot_times_list(self):
        cfg = parse_config("snapshot_times = 0.1,0.25,0.5\n")
        assert cfg.snapshot_times == (0.1, 0.25, 0.5)

    def test_bools(self):
        assert parse_config("evolve_omega_direct = true\n").evolve_omega_direct
        assert not parse_config("evolve_omega_direct = no\n").evolve_omega_direct
        with pytest.raises(ValueError):
            parse_config("evolve_omega_direct = maybe\n")

    def test_round_trip(self):
        cfg = ExperimentConfig(
            initial=InitialData(kind="ring_pair", amplitude=0.3, sigma=0.11),
            n_r=20, n_z=24, t_end=0.125, snapshot_times=(0.05, 0.1),
            eps_h=1e-3, out_dir="elsewhere")
        assert parse_config(format_config(cfg)) == cfg

    def test_every_field_is_a_key(self):
        fields = ([f.name for f in dataclasses.fields(InitialData)]
                  + [f.name for f in dataclasses.fields(ExperimentConfig)
                     if f.name != "initial"])
        assert sorted(CONFIG_KEYS) == sorted(fields)
        cfg = parse_config(NON_DEFAULT_TEXT)
        default = ExperimentConfig()
        for key in CONFIG_KEYS:
            obj, ref = ((cfg.initial, default.initial)
                        if hasattr(cfg.initial, key) else (cfg, default))
            assert getattr(obj, key) != getattr(ref, key), key

    def test_format_emits_every_key_in_field_order(self):
        text = format_config(ExperimentConfig())
        assert [ln.split(" = ")[0] for ln in text.splitlines()] == CONFIG_KEYS
        assert format_config(parse_config(NON_DEFAULT_TEXT)) == NON_DEFAULT_TEXT

    def test_seed_is_not_a_key(self):
        with pytest.raises(ValueError, match="unknown key 'seed'"):
            parse_config("seed = 0\n")

    def test_sim_config_carries_every_solver_field(self):
        cfg = parse_config(NON_DEFAULT_TEXT)
        sim = cfg.sim_config()
        assert sim.grid == cfg.grid()
        for f in dataclasses.fields(SimConfig):
            if f.name != "grid":
                assert getattr(sim, f.name) == getattr(cfg, f.name) != f.default


def tiny_config_text(out_dir, t_end=0.004, extra=""):
    return (f"n_r = 20\nn_z = 40\nn_theta = 16\ncadence = 2\n"
            f"t_end = {t_end}\nout_dir = {out_dir}\n{extra}")


def tamper_row(run_dir, column, row=-1, value=None):
    """Set one value of a diagnostics.csv line (the final row by default) to
    value, or scale it by 1.0001 when it is nonzero and value is None; returns
    the file's line count."""
    csv_path = os.path.join(run_dir, "diagnostics.csv")
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index(column)
    cols = lines[row].split(",")
    if value is None:
        assert float(cols[col]) != 0.0
        value = repr(float(cols[col]) * 1.0001)
    cols[col] = value
    lines[row] = ",".join(cols)
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines)


class TestCli:
    def test_run_and_check_round_trip(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        out = str(tmp_path / "out")
        cfg_file.write_text(tiny_config_text(out))
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        captured = capsys.readouterr().out
        assert "energy: PASS" in captured
        for name in ("config.txt", "diagnostics.csv", "summary.txt"):
            assert os.path.exists(os.path.join(out, name))
        assert cli.main(["check", "--out", out]) == 0
        assert "replay: PASS" in capsys.readouterr().out

    def test_check_detects_tampered_csv(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        out = str(tmp_path / "out")
        cfg_file.write_text(tiny_config_text(out))
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        capsys.readouterr()
        tamper_row(out, "sup_q")
        assert cli.main(["check", "--out", out]) == 1
        assert "replay: FAIL" in capsys.readouterr().out

    def test_check_fails_nan_in_middle_row(self, tmp_path, capsys):
        # a NaN that is neither the first nor the worst value must still FAIL
        cfg_file = tmp_path / "cfg.txt"
        out = str(tmp_path / "out")
        cfg_file.write_text(tiny_config_text(out, t_end=0.02))
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        capsys.readouterr()
        # line 2 is the middle of three rows
        assert tamper_row(out, "energy_lhs", row=2, value="nan") == 4
        assert cli.main(["check", "--out", out]) == 1
        captured = capsys.readouterr().out
        assert "replay: PASS" in captured
        assert "energy: FAIL (worst=nan)" in captured

    def test_check_detects_tampered_integral(self, tmp_path, capsys):
        # the replay rebuilds the running integrals from the snapshot header
        cfg_file = tmp_path / "cfg.txt"
        out = str(tmp_path / "out")
        cfg_file.write_text(tiny_config_text(out))
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        capsys.readouterr()
        tamper_row(out, "twice_int_dz_u_l2_sq")
        assert cli.main(["check", "--out", out]) == 1
        assert "replay: FAIL" in capsys.readouterr().out

    def test_run_zero_t_end_single_record(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        out = str(tmp_path / "out")
        cfg_file.write_text(tiny_config_text(out, t_end=0.0))
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        with open(os.path.join(out, "diagnostics.csv")) as fh:
            rows = [ln for ln in fh.read().splitlines() if ln.strip()]
        assert len(rows) == 2   # header + t=0 row
        # the single row is replayed too, and needs its snapshot
        capsys.readouterr()
        assert cli.main(["check", "--out", out]) == 0
        assert "replay: PASS" in capsys.readouterr().out
        snap = os.path.join(out, "q_t0.000000")
        for ext in (".hdr", ".bin"):
            os.remove(snap + ext)
        assert cli.main(["check", "--out", out]) == 2
        captured = capsys.readouterr()
        assert "replay: PASS" not in captured.out
        assert captured.err.startswith("error: ")
        assert snap + ".hdr" in captured.err

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("n_r = -4\n")
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_and_check_in_path_containing_q_t(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        out = str(tmp_path / "q_tdir" / "run")
        cfg_file.write_text(tiny_config_text(out))
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        capsys.readouterr()
        assert cli.main(["check", "--out", out]) == 0
        assert "replay: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("times", ["0.0010001,0.0010004", "0.0039996"])
    def test_colliding_snapshot_times_exit_2(self, tmp_path, capsys, times):
        cfg_file = tmp_path / "cfg.txt"
        out = str(tmp_path / "out")
        cfg_file.write_text(tiny_config_text(
            out, extra=f"snapshot_times = {times}\n"))
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        assert "share the file name" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("damage", ["header", "bin"])
    def test_norms_on_malformed_snapshot_exit_2(self, tmp_path, capsys, damage):
        snap = str(tmp_path / "snap")
        g = make_grid(2.0, -2.0, 2.0, 20, 40)
        save_field(snap, ScalarField(g, np.ones((20, 40)), "q_omega_over_r"))
        if damage == "header":
            with open(snap + ".hdr") as fh:
                kept = [ln for ln in fh if not ln.startswith("role=")]
            with open(snap + ".hdr", "w") as fh:
                fh.writelines(kept)
        else:
            with open(snap + ".bin", "r+b") as fh:
                fh.truncate(96)
        assert cli.main(["norms", "--snapshot", snap]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert snap + (".hdr" if damage == "header" else ".bin") in err

    @pytest.mark.parametrize("name, key, value", [
        ("q", "n_r", "abc"),
        ("q", "role", "bogus"),
        ("q", "time", "x"),
        ("omega", "int_sup_ur_over_r", "zz"),
    ])
    def test_check_on_malformed_header_exit_2(self, tmp_path, capsys,
                                              name, key, value):
        cfg_file = tmp_path / "cfg.txt"
        out = str(tmp_path / "out")
        cfg_file.write_text(tiny_config_text(out))
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        capsys.readouterr()
        hdr = os.path.join(out, f"{name}_t0.004000.hdr")
        with open(hdr) as fh:
            lines = [f"{key}={value}\n" if ln.startswith(key + "=") else ln
                     for ln in fh]
        with open(hdr, "w") as fh:
            fh.writelines(lines)
        assert cli.main(["check", "--out", out]) == 2
        captured = capsys.readouterr()
        assert "replay: PASS" not in captured.out
        assert captured.err.startswith("error: " + hdr + ": ")
        assert repr(value) in captured.err

    @pytest.mark.parametrize("missing", ["config", "snapshot", "integral"])
    def test_check_without_replay_input_exit_2(self, tmp_path, capsys, missing):
        # a replay that cannot run must not be reported as a pass
        cfg_file = tmp_path / "cfg.txt"
        out = str(tmp_path / "out")
        cfg_file.write_text(tiny_config_text(out))
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        capsys.readouterr()
        if missing == "integral":
            # a header written without the running integrals
            gone = os.path.join(out, "omega_t0.004000.hdr")
            with open(gone) as fh:
                kept = [ln for ln in fh
                        if not ln.startswith("twice_int_dz_u_l2_sq=")]
            with open(gone, "w") as fh:
                fh.writelines(kept)
        else:
            gone = os.path.join(out, "config.txt" if missing == "config"
                                else "q_t0.004000.hdr")
            os.remove(gone)
        assert cli.main(["check", "--out", out]) == 2
        captured = capsys.readouterr()
        assert "replay: PASS" not in captured.out
        assert captured.err.startswith("error: ")
        assert gone in captured.err

    @pytest.mark.parametrize("line", ["sigma = 0", "patch_radius = -1"])
    def test_nonpositive_length_exit_2(self, tmp_path, capsys, line):
        cfg_file = tmp_path / "cfg.txt"
        out = str(tmp_path / "out")
        cfg_file.write_text(tiny_config_text(out, extra=line + "\n"))
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert line.split(" = ")[0] + " must be positive" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("line, message", [
        ("r0 = 1.9", "margin"),
        ("amplitude = nan", "amplitude must be finite"),
        ("sigma = inf", "sigma must be finite"),
        ("t_end = nan", "t_end must be finite"),
        ("eps_h = nan", "eps_h must be finite"),
        ("r_max = nan", "r_max must be positive and finite"),
    ])
    def test_rejected_run_exit_2_before_writing(self, tmp_path, capsys,
                                                line, message):
        cfg_file = tmp_path / "cfg.txt"
        out = str(tmp_path / "out")
        cfg_file.write_text(tiny_config_text(out, extra=line + "\n"))
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("damage", ["header_only", "short_row", "long_row",
                                        "non_numeric"])
    def test_check_on_malformed_csv_exit_2(self, tmp_path, capsys, damage):
        cfg_file = tmp_path / "cfg.txt"
        out = str(tmp_path / "out")
        cfg_file.write_text(tiny_config_text(out))
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        capsys.readouterr()
        csv_path = os.path.join(out, "diagnostics.csv")
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        if damage == "header_only":
            lines = lines[:1]
        elif damage == "non_numeric":
            cols = lines[-1].split(",")
            cols[1] = "x2"      # step_index
            lines[-1] = ",".join(cols)
        else:
            cols = lines[-1].split(",")
            lines[-1] = ",".join(cols[:-3] if damage == "short_row"
                                 else cols + ["0.0"])
        with open(csv_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert cli.main(["check", "--out", out]) == 2
        captured = capsys.readouterr()
        assert "replay: PASS" not in captured.out
        assert captured.err.startswith("error: " + csv_path)
        if damage != "header_only":
            assert f"line {len(lines)} has" in captured.err

    def test_missing_run_dir_exit_2(self, tmp_path, capsys):
        assert cli.main(["check", "--out", str(tmp_path / "nope")]) == 2

    def test_norms_matches_library(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        out = str(tmp_path / "out")
        cfg_file.write_text(tiny_config_text(out))
        cli.main(["run", "--config", str(cfg_file)])
        capsys.readouterr()
        snap = os.path.join(out, "q_t0.000000")
        assert cli.main(["norms", "--snapshot", snap,
                         "--p", "2", "--p", "1.5", "--q", "1"]) == 0
        out_text = capsys.readouterr().out
        f, _ = load_field(snap)
        lor = norms.lorentz_norm(f, (2.0, 1.0))
        leb = norms.lebesgue_norm(f, 1.5)
        assert f"{lor:.17g}" in out_text
        assert f"{leb:.17g}" in out_text

    def test_norms_rejects_more_q_than_p(self, tmp_path, capsys):
        snap = str(tmp_path / "snap")
        g = make_grid(2.0, -2.0, 2.0, 20, 40)
        f = ScalarField(g, np.ones((20, 40)), "q_omega_over_r")
        save_field(snap, f)
        assert cli.main(["norms", "--snapshot", snap,
                         "--p", "2", "--q", "1", "--q", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "lorentz" not in captured.out
        # a lone --q pairs with the default p = 2
        assert cli.main(["norms", "--snapshot", snap, "--q", "1"]) == 0
        lor = norms.lorentz_norm(f, (2.0, 1.0))
        assert f"lorentz p=2 q=1 {lor:.17g}" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [["--p", "nan"], ["--p", "nan", "--q", "1"],
                                      ["--p", "2", "--q", "nan"]])
    def test_norms_rejects_nan_exponent(self, tmp_path, capsys, args):
        snap = str(tmp_path / "snap")
        g = make_grid(2.0, -2.0, 2.0, 20, 40)
        save_field(snap, ScalarField(g, np.ones((20, 40)), "q_omega_over_r"))
        assert cli.main(["norms", "--snapshot", snap] + args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "nan" not in captured.out

    @staticmethod
    def non_finite_snapshot(tmp_path, role):
        snap = str(tmp_path / "snap")
        g = make_grid(2.0, -2.0, 2.0, 20, 40)
        vals = np.ones((20, 40))
        vals[7, 3] = np.nan
        save_field(snap, ScalarField(g, vals, role))
        return snap

    @pytest.mark.parametrize("args", [["--p", "2"], ["--p", "inf", "--q", "inf"],
                                      ["--p", "1.5", "--q", "1"]],
                             ids=["lebesgue", "lorentz-inf", "lorentz"])
    def test_norms_of_non_finite_snapshot_exit_2(self, tmp_path, capsys, args):
        snap = self.non_finite_snapshot(tmp_path, "q_omega_over_r")
        assert cli.main(["norms", "--snapshot", snap] + args) == 2
        captured = capsys.readouterr()
        assert f"{snap}.bin: field is not finite" in captured.err
        assert "lorentz" not in captured.out
        assert "lebesgue" not in captured.out

    def test_reconstruct_of_non_finite_snapshot_exit_2(self, tmp_path, capsys):
        snap = self.non_finite_snapshot(tmp_path, "omega_theta")
        vel = str(tmp_path / "vel")
        assert cli.main(["reconstruct", "--snapshot", snap, "--out", vel]) == 2
        assert f"{snap}.bin: field is not finite" in capsys.readouterr().err
        assert not os.path.exists(vel)

    def test_run_failing_part_way_leaves_rows_and_exit_1(self, tmp_path, capsys,
                                                          monkeypatch):
        good, out = str(tmp_path / "good"), str(tmp_path / "out")
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(tiny_config_text(good, t_end=0.04))
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        with open(os.path.join(good, "diagnostics.csv")) as fh:
            good_lines = fh.read().splitlines(keepends=True)
        capsys.readouterr()

        calls = []

        def velocity_failing_at_step_3(omega, kt):
            calls.append(None)
            if len(calls) == 4:     # one solve for the initial state, then one per step
                raise ValueError("velocity field is not finite")
            return velocity_from_vorticity(omega, kt)

        monkeypatch.setattr(evolution, "velocity_from_vorticity",
                            velocity_failing_at_step_3)
        cfg_file.write_text(tiny_config_text(out, t_end=0.04))
        assert cli.main(["run", "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run failed at step 3 from t = ")

        # cadence 2: the header, then the rows of steps 0 and 2, as the good
        # run wrote them
        with open(os.path.join(out, "diagnostics.csv")) as fh:
            text = fh.read()
        assert text == "".join(good_lines[:3])
        step_2 = parse_csv(text)[-1]
        assert step_2.step_index == 2
        with open(os.path.join(out, "summary.txt")) as fh:
            assert fh.read() == (f"run: FAIL at step 3 from t = {step_2.t!r}: "
                                 "velocity field is not finite\n")
        with open(os.path.join(out, "config.txt")) as fh:
            assert parse_config(fh.read()) == parse_config(cfg_file.read_text())
        assert sorted(n for n in os.listdir(out) if n.endswith(".bin")) == [
            "omega_t0.000000.bin", "q_t0.000000.bin"]

    def test_rerun_removes_stale_summary_first(self, tmp_path, capsys, monkeypatch):
        # a summary.txt is written last, so a run that dies leaves none
        out = str(tmp_path / "out")
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(tiny_config_text(out))
        assert cli.main(["run", "--config", str(cfg_file)]) == 0

        def killed(*args, **kwargs):
            assert not os.path.exists(os.path.join(out, "summary.txt"))
            with open(os.path.join(out, "diagnostics.csv")) as fh:
                assert fh.read() == CSV_HEADER
            raise KeyboardInterrupt

        monkeypatch.setattr(evolution, "initial_state", killed)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["run", "--config", str(cfg_file)])
        assert not os.path.exists(os.path.join(out, "summary.txt"))

    def test_reconstruct_writes_velocity(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        out = str(tmp_path / "out")
        cfg_file.write_text(tiny_config_text(out))
        cli.main(["run", "--config", str(cfg_file)])
        capsys.readouterr()
        vel = str(tmp_path / "vel")
        snap = os.path.join(out, "omega_t0.000000")
        assert cli.main(["reconstruct", "--snapshot", snap, "--out", vel]) == 0
        ur, t = load_field(os.path.join(vel, "u_r"))
        assert t == 0.0
        assert ur.role == "u_r"
        assert np.abs(ur.values).max() > 0



class TestStreamedOutput:
    def test_peak_memory_does_not_grow_with_snapshot_times(self, tmp_path):
        # each landed state is written as it is reached and dropped; of the
        # 20-time run's 20 extra landings only their records, about 2 kB
        # each, stay until the run ends
        kt = KernelTable()

        def peak(snapshot_times):
            cfg = ExperimentConfig(initial=InitialData(kind="ring_pair", separation=0.25),
                                   n_r=48, n_z=96, t_end=0.01,
                                   snapshot_times=snapshot_times)
            out = str(tmp_path / f"{len(snapshot_times)}_times")
            # an untraced run first builds what a repeated run finds ready:
            # the velocity solver and the diffusion inverses of its steps
            run_experiment(cfg, out_dir=out, kt=kt)
            tracemalloc.start()
            try:
                run_experiment(cfg, out_dir=out, kt=kt)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        twenty = peak(tuple(0.0005 * k for k in range(1, 21)))
        assert abs(twenty - peak(())) <= 2 * 48 * 96 * 8


class TestImports:
    def test_no_scipy_at_run_time(self):
        # scipy is a test-only reference: neither the package nor its command
        # line loads any of it
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src")
        code = ("import sys, axivisc, axivisc.cli; "
                "print([m for m in sys.modules if m.startswith('scipy')])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "[]"
