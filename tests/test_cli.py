"""Tests for configuration parsing and the command-line pipeline."""

import filecmp
import os

import numpy as np
import pytest

import fracnoether.fracops as F
import fracnoether.noether as NO
import fracnoether.presets as PR
import fracnoether.solver as SV
import fracnoether.symmetry as SY
from fracnoether import cli
from fracnoether.cli import main
from fracnoether.config import BCS, GROUPS, PROBLEMS, ConfigError, make_config, parse_pairs

HARMONIC = """
problem = harmonic2d
alphas = 0.5, 1.0
n_sub = 50
"""

OSCILLATOR = """
problem = oscillator
omega = 1.0
alphas = 0.9
n_sub = 50
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return np.genfromtxt(lines, delimiter=",", names=True)


class TestParsePairs:
    def test_comments_and_blanks(self):
        pairs = parse_pairs("# header\n\nproblem = harmonic2d  # trailing\n")
        assert pairs == {"problem": "harmonic2d"}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_pairs("n_sub = 2\nn_sub = 3\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_pairs("just some words\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_pairs("= 3\n")


class TestMakeConfig:
    def base(self, **overrides):
        pairs = {"problem": "harmonic2d", "alphas": "0.5", "n_sub": "100"}
        pairs.update(overrides)
        return pairs

    def test_defaults(self):
        config = make_config(self.base())
        assert config.interval == (0.0, 1.0)
        assert config.kappa == -1.0
        assert config.bc_kind == "dirichlet"
        assert config.bc_data == (1.0, 2.0, 2.0, 1.0)
        assert config.dim == 2
        assert config.group == "time_translation"
        assert config.quantity == "noether"
        assert config.drift_tolerance == 5e-2
        assert config.conslaw_variant == "conslaw"
        assert config.derivative_convention == "caputo"
        assert config.outputs == "out"

    def test_oscillator_defaults(self):
        config = make_config(
            {"problem": "oscillator", "omega": "0.5", "alphas": "0.9", "n_sub": "64"}
        )
        assert config.kappa == -0.25
        assert config.bc_kind == "initial"
        assert config.dim == 1
        assert config.quantity == "oscillator"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            make_config(self.base(tolerance="1"))

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="'alphas'"):
            make_config({"problem": "harmonic2d", "n_sub": "100"})

    def test_alpha_range(self):
        with pytest.raises(ConfigError, match="\\(0, 1\\]"):
            make_config(self.base(alphas="0.5, 1.5"))
        with pytest.raises(ConfigError, match="\\(0, 1\\]"):
            make_config(self.base(alphas="0"))

    def test_n_sub_floor(self):
        with pytest.raises(ConfigError, match="n_sub"):
            make_config(self.base(n_sub="1"))

    def test_interval(self):
        config = make_config(self.base(interval="2, 3.5"))
        assert config.interval == (2.0, 3.5)
        with pytest.raises(ConfigError, match="interval"):
            make_config(self.base(interval="1, 1"))
        with pytest.raises(ConfigError, match="interval"):
            make_config(self.base(interval="1, 2, 3"))

    def test_omega_rules(self):
        with pytest.raises(ConfigError, match="missing key 'omega'"):
            make_config({"problem": "oscillator", "alphas": "0.9", "n_sub": "64"})
        with pytest.raises(ConfigError, match="not meaningful"):
            make_config(self.base(omega="1"))

    def test_kappa_rules(self):
        with pytest.raises(ConfigError, match="missing key 'kappa'"):
            make_config(
                {"problem": "custom", "alphas": "0.5", "n_sub": "10", "bc": "dirichlet, 0, 1"}
            )
        with pytest.raises(ConfigError, match="not meaningful"):
            make_config(self.base(kappa="2"))

    def test_bc_parsing(self):
        config = make_config(
            {
                "problem": "custom",
                "kappa": "1",
                "alphas": "0.5",
                "n_sub": "10",
                "bc": "initial, 0, 0, 1, 1",
            }
        )
        assert config.bc_kind == "initial"
        assert config.dim == 2
        with pytest.raises(ConfigError, match="bc"):
            make_config(self.base(bc="dirichlet, 1, 2, 3"))
        with pytest.raises(ConfigError, match="bc"):
            make_config(self.base(bc="robin, 1, 2"))

    def test_bc_dim_must_match_problem(self):
        with pytest.raises(ConfigError, match="2-dimensional"):
            make_config(self.base(bc="dirichlet, 1, 2"))

    def test_example2_takes_no_bc(self):
        with pytest.raises(ConfigError, match="example2"):
            make_config(
                {"problem": "example2", "alphas": "0.5", "n_sub": "10", "bc": "dirichlet, 1, 2"}
            )

    def test_group_parsing(self):
        config = make_config(self.base(group="dilation, 0.25"))
        assert config.group == "dilation"
        assert config.group_params == (0.25,)
        with pytest.raises(ConfigError, match="group"):
            make_config(self.base(group="spiral"))
        with pytest.raises(ConfigError, match="parameters"):
            make_config(self.base(group="time_translation, 1"))
        with pytest.raises(ConfigError, match="parameters"):
            make_config(self.base(group="localized_dilation"))

    def test_space_only_needs_two_components(self):
        pairs = {
            "problem": "oscillator",
            "omega": "1",
            "alphas": "0.9",
            "n_sub": "64",
            "group": "space_only",
        }
        with pytest.raises(ConfigError, match="2-component"):
            make_config(pairs)

    def test_quantity_rules(self):
        with pytest.raises(ConfigError, match="quantity"):
            make_config(self.base(quantity="energy"))
        with pytest.raises(ConfigError, match="oscillator"):
            make_config(self.base(quantity="oscillator"))

    def test_flag_choices(self):
        config = make_config(
            self.base(
                conslaw_variant="conslaw2",
                derivative_convention="rl",
                expected_conserved="false",
                drift_tolerance="0.1",
            )
        )
        assert config.conslaw_variant == "conslaw2"
        assert config.derivative_convention == "rl"
        assert config.expected_conserved is False
        assert config.drift_tolerance == 0.1
        assert make_config(self.base(expected_conserved="true")).expected_conserved is True
        with pytest.raises(ConfigError, match="true/false"):
            make_config(self.base(expected_conserved="maybe"))
        with pytest.raises(ConfigError, match="drift_tolerance"):
            make_config(self.base(drift_tolerance="-1"))

    @pytest.mark.parametrize("name", list(GROUPS))
    def test_each_group_builds_at_its_parameter_limits(self, name):
        lo, hi, _ = GROUPS[name]
        for count in (lo, hi):
            config = make_config(self.base(group=", ".join([name] + ["0.5"] * count)))
            assert config.group_params == (0.5,) * count
            assert isinstance(cli._make_group(config), SY.GroupSpec)
        with pytest.raises(ConfigError, match="parameters"):
            make_config(self.base(group=", ".join([name] + ["0.5"] * (hi + 1))))

    def test_group_parameter_defaults(self):
        assert make_config(self.base()).group == next(iter(GROUPS))
        assert cli._make_group(make_config(self.base(group="dilation"))).lam == 1.0
        config = make_config(self.base(interval="2, 3", group="localized_dilation, 0.4"))
        # the dilation fixes the interval start
        assert cli._make_group(config).phi0(0.7, 2.0) == 2.0

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_each_problem_default_has_the_table_dimension(self, name):
        extra = {
            "oscillator": {"omega": "1"},
            "custom": {"kappa": "1", "bc": "initial, 0, 0, 0, 1, 1, 1"},
        }
        config = make_config(
            {"problem": name, "alphas": "0.5", "n_sub": "10", **extra.get(name, {})}
        )
        dim, bc = PROBLEMS[name]
        assert config.dim == (dim or 3)
        if bc is not None:
            assert (config.bc_kind, config.bc_data) == bc

    @pytest.mark.parametrize("kind", list(BCS))
    def test_each_boundary_kind_builds_its_solver_data(self, kind):
        config = make_config(
            {"problem": "custom", "kappa": "1", "alphas": "0.5", "n_sub": "10", "bc": f"{kind}, 1, 2"}
        )
        bc = cli._boundary(config)
        assert type(bc) is type(BCS[kind]([1.0], [2.0]))
        assert [float(v[0]) for v in vars(bc).values()] == [1.0, 2.0]

    def test_unknown_boundary_kind(self):
        with pytest.raises(ConfigError, match="expected one of dirichlet, initial; got 'neumann'"):
            make_config(self.base(bc="neumann, 1, 2, 2, 1"))

    @pytest.mark.parametrize(
        "command, text, key",
        [
            (
                "solve",
                "problem = custom\nkappa = -1\nalphas = 0.5\nn_sub = 20\n"
                "bc = dirichlet, nan, 1\n",
                "bc",
            ),
            (
                "check",
                "problem = example2\nalphas = 0.5\nn_sub = 20\ngroup = dilation, inf\n",
                "group",
            ),
        ],
        ids=["bc-nan", "group-inf"],
    )
    def test_non_finite_numbers_exit_1(self, tmp_path, capsys, command, text, key):
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        out = capsys.readouterr()
        assert out.err == f"config error: key {key!r}: entries must be finite\n"
        assert not (tmp_path / "o").exists()


class TestSolveCommand:
    def test_writes_csv_pair_per_alpha(self, tmp_path):
        cfg = write_config(tmp_path, HARMONIC)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        for tag in ("0.5", "1"):
            assert (out / f"solution_alpha{tag}.csv").is_file()
            assert (out / f"residual_alpha{tag}.csv").is_file()

    def test_solution_matches_classical_reference(self, tmp_path):
        cfg = write_config(
            tmp_path, "problem = harmonic2d\nalphas = 1.0\nn_sub = 200\n"
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        data = read_csv(out / "solution_alpha1.csv")
        reference = SV.classical_reference(
            0.0, 1.0, np.array([1.0, 2.0]), np.array([2.0, 1.0])
        )
        exact = reference.value(data["t"])
        err = max(
            np.max(np.abs(data["x1"] - exact[:, 0])),
            np.max(np.abs(data["x2"] - exact[:, 1])),
        )
        assert err <= 1e-3

    def test_boundary_rows_match_config(self, tmp_path):
        cfg = write_config(tmp_path, HARMONIC)
        out = tmp_path / "out"
        main(["solve", "--config", cfg, "--out", str(out)])
        data = read_csv(out / "solution_alpha0.5.csv")
        assert data["x1"][0] == 1.0 and data["x2"][0] == 2.0
        assert data["x1"][-1] == 2.0 and data["x2"][-1] == 1.0

    def test_residual_masks_are_empty_fields(self, tmp_path):
        cfg = write_config(tmp_path, HARMONIC)
        out = tmp_path / "out"
        main(["solve", "--config", cfg, "--out", str(out)])
        lines = (out / "residual_alpha0.5.csv").read_text().splitlines()
        data_lines = [l for l in lines if not l.startswith("#")]
        assert data_lines[0] == "t,r1,r2"
        assert data_lines[-1].endswith(",,")

    def test_example2_has_no_solve(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "problem = example2\nalphas = 0.5\nn_sub = 10\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "example2" in capsys.readouterr().err


class TestNoetherCommand:
    def test_summary_matches_library_drift(self, tmp_path):
        cfg = write_config(tmp_path, HARMONIC)
        out = tmp_path / "out"
        assert main(["noether", "--config", cfg, "--out", str(out)]) == 0
        summary = read_csv(out / "drift_summary.csv")
        assert summary["alpha"].tolist() == [0.5, 1.0]

        grid = F.make_grid(0.0, 1.0, 50)
        problem = SV.LinearProblem(
            grid=grid,
            alpha=1.0,
            dim=2,
            kappa=-1.0,
            bc=SV.dirichlet(np.array([1.0, 2.0]), np.array([2.0, 1.0])),
        )
        x = SV.solve(problem).solution
        L = PR.kappa_lagrangian(-1.0, dim=2)
        expected = NO.drift(
            NO.noether_quantity(L, SY.time_translation(), x, 1.0)
        )
        assert np.isclose(summary["relative_drift"][1], expected.relative_drift, rtol=1e-12)

    def test_quantity_file_masks_final_node(self, tmp_path):
        cfg = write_config(tmp_path, HARMONIC)
        out = tmp_path / "out"
        main(["noether", "--config", cfg, "--out", str(out)])
        lines = (out / "quantity_alpha0.5.csv").read_text().splitlines()
        data_lines = [l for l in lines if not l.startswith("#")]
        assert data_lines[0] == "t,I"
        assert data_lines[-1] == "1,"
        # alpha = 1 has no undefined operator nodes
        lines1 = (out / "quantity_alpha1.csv").read_text().splitlines()
        assert not [l for l in lines1 if l.endswith(",")]

    def test_oscillator_quantity_runs(self, tmp_path):
        cfg = write_config(tmp_path, OSCILLATOR)
        out = tmp_path / "out"
        assert main(["noether", "--config", cfg, "--out", str(out)]) == 0
        summary = read_csv(out / "drift_summary.csv")
        assert summary["relative_drift"] > 0

    def test_example2_uses_preset_trajectory(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "problem = example2\nalphas = 0.5\nn_sub = 40\ngroup = dilation, -1\n",
        )
        out = tmp_path / "out"
        assert main(["noether", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "quantity_alpha0.5.csv").is_file()


class TestCheckCommand:
    def test_example2_dilation_all_pass(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "problem = example2\nalphas = 0.5\nn_sub = 100\ngroup = dilation, -1\n",
        )
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "checks.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert [r[0] for r in rows] == [
            "group_law",
            "admissible",
            "localization",
            "chain_rule",
            "invariance",
        ]
        assert all(r[1] == "true" for r in rows)

    def test_translation_fails_only_localization(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HARMONIC)
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 3
        rows = {
            line.split(",")[0]: line.split(",")[1]
            for line in (out / "checks.csv").read_text().splitlines()
            if not line.startswith("#") and "," in line and not line.startswith("check")
        }
        assert rows["localization"] == "false"
        assert all(v == "true" for k, v in rows.items() if k != "localization")
        assert "localization" in capsys.readouterr().err

    def test_quadratic_time_fails_admissibility_and_chain_rule(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "problem = harmonic2d\nalphas = 0.5\nn_sub = 50\ngroup = quadratic_time\n",
        )
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 3
        rows = {
            line.split(",")[0]: line.split(",")[1]
            for line in (out / "checks.csv").read_text().splitlines()
            if not line.startswith("#") and "," in line and not line.startswith("check")
        }
        assert rows["admissible"] == "false"
        assert rows["chain_rule"] == "false"


class TestExitCodes:
    def test_missing_omega_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "problem = oscillator\nalphas = 0.9\nn_sub = 50\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "omega" in capsys.readouterr().err

    def test_singular_system_exits_2(self, tmp_path, capsys):
        grid = F.make_grid(0.0, 1.0, 2)
        order = F.FractionalOrder(0.5)
        K = (
            F.left_integral_matrix(grid, order)
            @ F.right_integral_matrix(grid, order)
        )
        shape = SV.boundary_shape(grid, order)
        kappa = 1.0 / (K[1, 1] - shape[1] * K[2, 1])
        cfg = write_config(
            tmp_path,
            "problem = custom\n"
            f"kappa = {kappa:.17g}\n"
            "alphas = 0.5\n"
            "n_sub = 2\n"
            "bc = dirichlet, 1, 2\n",
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "singular" in capsys.readouterr().err

    def test_expected_conserved_drift_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "problem = harmonic2d\nalphas = 0.5\nn_sub = 200\n"
            "quantity = q\nexpected_conserved = true\n",
        )
        assert main(["noether", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "drift" in capsys.readouterr().err

    def test_conserved_quantity_stays_below_tolerance(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "problem = harmonic2d\nalphas = 1.0\nn_sub = 200\n"
            "quantity = q\nexpected_conserved = true\n",
        )
        assert main(["noether", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert main(["solve", "--config", missing]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_usage_errors_exit_1(self, capsys):
        assert main([]) == 1
        assert main(["solve"]) == 1
        assert main(["frobnicate", "--config", "x"]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, text",
        [
            (
                "noether",
                "problem = example2\nalphas = 0.5\nn_sub = 50\ninterval = -1, 1\n",
            ),
            (
                "check",
                "problem = example2\nalphas = 0.5\nn_sub = 50\ninterval = -1, 1\n",
            ),
            (
                "check",
                "problem = harmonic2d\nalphas = 0.5\nn_sub = 50\n"
                "interval = -5, 1\ngroup = quadratic_time\n",
            ),
            (
                "noether",
                "problem = harmonic2d\nalphas = 0.5\nn_sub = 2\n"
                "derivative_convention = rl\n",
            ),
        ],
        ids=[
            "example2-negative-a-noether",
            "example2-negative-a-check",
            "decreasing-time-map-check",
            "one-defined-node-noether",
        ],
    )
    def test_unusable_config_exits_1(self, tmp_path, capsys, command, text):
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


class TestDeterminism:
    def test_outputs_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "problem = harmonic2d\nalphas = 0.4, 0.6, 0.8, 1.0\nn_sub = 100\n",
        )
        dirs = []
        for name in ("a", "b", "c"):
            out = tmp_path / name
            assert main(["noether", "--config", cfg, "--out", str(out)]) == 0
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
            dirs.append(out)
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1])) == sorted(os.listdir(dirs[2]))
        for name in names:
            left = (dirs[0] / name).read_bytes()
            assert left == (dirs[1] / name).read_bytes()
            assert left == (dirs[2] / name).read_bytes()

    def test_preset_files_are_valid(self):
        from fracnoether.config import load_config

        root = os.path.join(os.path.dirname(__file__), "..", "presets")
        for name in ("harmonic2d.cfg", "oscillator.cfg", "example2.cfg"):
            config = load_config(os.path.join(root, name))
            assert config.alphas
