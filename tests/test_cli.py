import csv
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from vat_game import cli, coalition
from vat_game.config import (
    ConfigError,
    build_parameters,
    parse_config_file,
    parse_overrides,
)
from vat_game.model import SanctionBaseMode


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    return list(csv.DictReader(text.splitlines()))


class TestConfig:
    def test_preset_plus_override_precedence(self):
        policy, te = build_parameters("appendix", None, ["v=0.10", "x_i=0"])
        assert policy.v == 0.10
        assert te.x_i == 0.0
        assert policy.t_s == 0.24  # untouched preset value

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            parse_overrides(["vat=0.22"])

    def test_missing_parameter_rejected(self):
        with pytest.raises(ConfigError, match="missing parameters"):
            build_parameters(None, None, ["v=0.22"])

    def test_config_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("v = 0.20  # VAT\n\nt_s=0.30\n")
        assert parse_config_file(cfg) == {"v": 0.20, "t_s": 0.30}

    def test_config_file_bad_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just nonsense\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_file(cfg)


class TestPayoffsCommand:
    def test_appendix_compliance_row(self, capsys):
        code, out, _ = run(
            capsys,
            ["payoffs", "--preset", "appendix", "--scenario", "tax", "--precision", "2"],
        )
        assert code == 0
        rows = {r["event"]: r for r in read_csv(out)}
        comply = rows["comply"]
        assert comply["y_buyer"] == "1200.00"
        assert comply["y_seller"] == "11400.00"
        assert comply["y_gov"] == "12400.00"
        assert comply["total"] == "25000.00"
        assert comply["residual"] == "0.00"
        assert "evade-lt-appendix" in rows

    def test_no_taxes_column(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "payoffs", "--preset", "appendix", "--scenario", "no-taxes",
                "--event", "comply", "--precision", "0",
            ],
        )
        assert code == 0
        (row,) = read_csv(out)
        assert (row["y_buyer"], row["y_seller"], row["y_gov"]) == (
            "10000", "15000", "0",
        )

    def test_degenerate_transaction(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "payoffs", "--preset", "appendix", "--set", "x_o=0", "--set", "x_i=0",
                "--scenario", "tax", "--event", "comply", "--precision", "2",
            ],
        )
        assert code == 0
        (row,) = read_csv(out)
        assert row["y_buyer"] == "13400.00"  # incomes taxed only
        assert row["y_seller"] == "7600.00"

    def test_bayesian_requires_gamma(self, capsys):
        code, _, err = run(
            capsys, ["payoffs", "--preset", "appendix", "--regime", "bayesian"]
        )
        assert code == 1
        assert "gamma" in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "payoffs", "--preset", "appendix", "--scenario", "tax",
                "--event", "comply", "--format", "json", "--precision", "2",
            ],
        )
        assert code == 0
        (row,) = json.loads(out)
        assert row["y_buyer"] == 1200.0
        assert row["event"] == "comply"


class TestThresholdsCommand:
    def test_section6_frontier_rows(self, capsys):
        code, out, _ = run(
            capsys,
            ["thresholds", "--preset", "section6", "--mode", "paper-literal"],
        )
        assert code == 0
        rows = {r["name"]: r for r in read_csv(out)}
        assert float(rows["theta1"]["value"]) == pytest.approx(0.18213, abs=5e-5)
        assert float(rows["theta1"]["slope"]) == pytest.approx(-0.25808, abs=5e-5)
        assert float(rows["theta3"]["value"]) == pytest.approx(0.27869, abs=5e-5)
        assert float(rows["gamma_at_theta0_lt1"]["value"]) == pytest.approx(
            0.70572, abs=1e-4
        )
        # the paper-literal sanction is not scaled by x_o = 100
        assert float(rows["buyer_gamma_threshold"]["value"]) == pytest.approx(
            100.0 / 1.3, abs=1e-6
        )

    def test_degenerate_input_sentinels(self, capsys):
        code, out, _ = run(
            capsys, ["thresholds", "--preset", "section6", "--set", "x_i=0"]
        )
        assert code == 0
        rows = {r["name"]: r for r in read_csv(out)}
        assert float(rows["seller_tax_threshold"]["value"]) == 0.0
        assert rows["vat_rate_threshold"]["value"] == "always-satisfied"


class TestRegionCommand:
    def test_tiny_grid_files_and_determinism(self, capsys, tmp_path):
        out_path = tmp_path / "region.csv"
        argv = [
            "region", "--preset", "section6",
            "--theta-min", "0", "--theta-max", "0.4", "--theta-step", "0.2",
            "--gamma-min", "0", "--gamma-max", "1", "--gamma-step", "0.5",
            "--out", str(out_path),
        ]
        assert cli.main(argv) == 0
        first = out_path.read_bytes()
        companion = tmp_path / "region.frontiers.csv"
        assert companion.exists()
        first_frontiers = companion.read_bytes()

        assert cli.main(argv) == 0
        assert out_path.read_bytes() == first
        assert companion.read_bytes() == first_frontiers

        rows = read_csv(first.decode())
        assert len(rows) == 3 * 3  # theta outer, gamma inner
        assert [r["theta"] for r in rows[:3]] == ["0.000000"] * 3
        assert [r["gamma"] for r in rows[:3]] == ["0.000000", "0.500000", "1.000000"]
        for row in rows:
            assert (row["best_event"] == "comply") == (row["complies"] == "true")

    def test_single_cell_matches_best_event(self, capsys, tmp_path):
        out_path = tmp_path / "cell.csv"
        code = cli.main(
            [
                "region", "--preset", "section6", "--set", "theta=0",
                "--theta-min", "0", "--theta-max", "0", "--theta-step", "1",
                "--gamma-min", "0", "--gamma-max", "0", "--gamma-step", "1",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        (row,) = read_csv(out_path.read_text())
        assert row["best_event"] == "evade-lt1"
        assert row["complies"] == "false"

    def test_classification_agrees_with_frontier_lines(self, capsys, tmp_path):
        out_path = tmp_path / "region.csv"
        assert cli.main(
            [
                "region", "--preset", "section6", "--mode", "corrected",
                "--theta-step", "0.1", "--gamma-step", "0.1",
                "--precision", "9", "--out", str(out_path),
            ]
        ) == 0
        lines = read_csv((tmp_path / "region.frontiers.csv").read_text())
        boundary = {r["variant"]: r for r in lines}
        for row in read_csv(out_path.read_text()):
            theta, gamma = float(row["theta"]), float(row["gamma"])
            above_all = all(
                theta > float(b["intercept"]) + float(b["slope"]) * gamma + 1e-6
                for b in boundary.values()
            )
            if above_all:
                assert row["complies"] == "true", (theta, gamma)

    @pytest.mark.parametrize("mode", ["corrected", "paper-literal"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--precision", "0"],
            [],
            ["--precision", "12"],
            ["--theta-min", "0.25", "--theta-max", "0.25"],
            ["--gamma-min", "0.6", "--gamma-max", "0.6"],
            # 0 + 3 * 0.1 overshoots 0.3 by one ulp, so the last theta is hi itself
            ["--theta-max", "0.3", "--theta-step", "0.1", "--precision", "12"],
        ],
        ids=[
            "precision-0", "precision-6", "precision-12",
            "one-theta", "one-gamma", "theta-ends-at-max",
        ],
    )
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_csv_matches_generic_emitter(self, capsys, tmp_path, mode, flags, to_file):
        # The raster rendered as one dict per cell through `_emit`, which
        # formats every value on its own, is the reference for region's CSV
        # and JSON.
        for fmt in ("csv", "json"):
            self._matches_generic_emitter(capsys, tmp_path / fmt, mode, flags, to_file, fmt)

    @staticmethod
    def _matches_generic_emitter(capsys, tmp_path, mode, flags, to_file, fmt):
        tmp_path.mkdir()
        argv = [
            "region", "--preset", "section6", "--mode", mode, "--format", fmt,
            "--theta-max", "0.4", "--theta-step", "0.05", "--gamma-step", "0.25", *flags,
        ]
        args = cli.build_parser().parse_args(argv)
        sanction = SanctionBaseMode(mode)
        policy, te = build_parameters("section6", None, None)
        thetas = cli._axis(args.theta_min, args.theta_max, args.theta_step)
        gammas = cli._axis(args.gamma_min, args.gamma_max, args.gamma_step)
        winners = coalition.coalition_best_events_grid(thetas, gammas, policy, te, sanction)
        events = coalition.COALITION_EVENTS
        rows = [
            {
                "theta": theta,
                "gamma": gamma,
                "best_event": events[k].value,
                "complies": "true" if k == 0 else "false",
            }
            for theta, row in zip(thetas, winners.tolist())
            for gamma, k in zip(gammas, row)
        ]
        lines = [
            coalition.theta_frontier(v, policy, te, sanction) for v in coalition.FRONTIER_VARIANTS
        ]
        frontier_rows = [
            {
                "variant": line.variant.value.removeprefix("evade-"),
                "intercept": line.intercept,
                "slope": line.slope,
                "mode": mode,
            }
            for line in lines
        ]
        ref, got = tmp_path / f"ref.{fmt}", tmp_path / f"region.{fmt}"
        companions = [p.with_name(f"{p.stem}.frontiers.{fmt}") for p in (ref, got)]
        for table, path in ((rows, ref), (frontier_rows, companions[0])):
            cli._emit(table, fmt, args.precision, str(path) if to_file else None)
        expected = capsys.readouterr().out

        assert cli.main(argv + (["--out", str(got)] if to_file else [])) == 0
        assert capsys.readouterr().out == expected
        if to_file:
            assert expected == ""
            assert got.read_bytes() == ref.read_bytes()
            assert companions[1].read_bytes() == companions[0].read_bytes()

    def test_raster_is_never_held_whole(self, tmp_path):
        # A 501 x 501 JSON raster is 24 MiB of text. Rendered as one string
        # and framed, it peaked at twice that; written row by row, the peak
        # stays below the size of the file.
        out_path = tmp_path / "region.json"
        argv = [
            "region", "--preset", "section6", "--format", "json",
            "--theta-step", "0.002", "--gamma-step", "0.002", "--out", str(out_path),
        ]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out_path.stat().st_size

    def test_bad_grid_rejected(self, capsys):
        code, _, err = run(
            capsys,
            ["region", "--preset", "section6", "--theta-step", "0"],
        )
        assert code == 1
        assert "step" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--theta-step", "nan"], "finite"),
            (["--gamma-step", "inf"], "finite"),
            (["--theta-max", "nan"], "finite"),
            (["--theta-step", "1e-6"], "exceeds"),
            (["--theta-step", "5e-324", "--gamma-step", "5e-324"], "exceeds"),
        ],
        ids=["nan-step", "inf-step", "nan-max", "fine-step", "denormal-steps"],
    )
    def test_unbounded_grid_rejected_up_front(self, flags, message):
        # A child process with a timeout and a memory cap, so that a grid
        # that never stops growing fails the test instead of hanging it.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "vat_game.cli", "region", "--preset", "section6", *flags],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
            preexec_fn=cap_memory,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert message in proc.stderr


class TestAppendixCommand:
    def test_default_reproduction_succeeds(self, capsys):
        code, out, err = run(capsys, ["appendix", "--precision", "0"])
        assert code == 0
        assert "all cells match" in err
        rows = {r["row"]: r for r in read_csv(out)}
        assert rows["yb_net"]["compliance_with_deductions"] == "2420"
        assert rows["yf_net"]["evasion_last_transaction"] == "12700"
        assert all(v == "25000" for k, v in rows["ysoc"].items() if k != "row")

    def test_perturbed_parameters_exit_two(self, capsys):
        code, _, err = run(capsys, ["appendix", "--preset", "appendix", "--set", "v=0.10"])
        assert code == 2
        assert "MISMATCH" in err

    def test_starts_without_numpy(self):
        # only validate and region need arrays; numpy is most of a cold start
        src = str(Path(cli.__file__).resolve().parents[1])
        for argv in (
            ["appendix"],
            ["thresholds", "--preset", "section6"],
            ["payoffs", "--preset", "section6"],
        ):
            code = (
                "import sys\n"
                "from vat_game import cli\n"
                f"assert cli.main({argv!r}) == 0\n"
                "print('numpy' in sys.modules, file=sys.stderr)"
            )
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                timeout=60,
                env={**os.environ, "PYTHONPATH": src},
            )
            assert proc.returncode == 0, (argv, proc.stderr)
            assert proc.stderr.splitlines()[-1] == "False", argv


class TestValidateCommand:
    def test_single_draw(self, capsys):
        code, out, _ = run(capsys, ["validate", "--draws", "1"])
        assert code == 0
        assert "draws=1" in out
        assert "failures: 0" in out

    def test_draw_count_validated(self, capsys):
        code, _, err = run(capsys, ["validate", "--draws", "0"])
        assert code == 1

    @pytest.mark.parametrize("mode", ["corrected", "paper-literal"])
    def test_both_modes_pass(self, capsys, mode):
        code, out, _ = run(capsys, ["validate", "--draws", "500", "--mode", mode])
        assert code == 0
        assert "best-response checks: 9000" in out
        assert "failures: 0" in out


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["payoffs", "--preset", "appendix", "--regime", "bayesian", "--gamma", "2"],
            # --gamma prices only the bayesian regime; elsewhere it is refused
            ["payoffs", "--preset", "appendix", "--regime", "no-audit", "--gamma", "0.7"],
            ["payoffs", "--preset", "appendix", "--regime", "certain-audit", "--gamma", "0.7"],
            # every draw's thresholds are checked; there is no sampling option
            ["validate", "--draws", "1", "--thresholds-every", "2"],
            ["thresholds", "--preset", "section6", "--set", "x_o=0", "--set", "x_i=0"],
            ["payoffs", "--preset", "appendix", "--precision", "-1"],
            ["payoffs", "--config", str(Path(__file__).resolve().parent)],
            ["appendix", "--preset", "appendix", "--set", "v=0.10", "--tolerance", "nan"],
            ["appendix", "--tolerance", "-1"],
            ["validate", "--seed", "-1", "--draws", "1"],
            ["region", "--preset", "section6", "--set", "x_o=0"],
            # validate draws its own parameters and prints a fixed report
            ["validate", "--draws", "2", "--preset", "section6"],
            ["validate", "--draws", "2", "--config", "params.json"],
            ["validate", "--draws", "2", "--set", "v=0.5"],
            ["validate", "--draws", "2", "--format", "json"],
            ["validate", "--draws", "2", "--precision", "3"],
            ["validate", "--draws", "2", "--out", "validate.json"],
            # beyond about 17 significant digits only the output size grows
            ["payoffs", "--preset", "appendix", "--precision", "100000000000"],
            ["region", "--preset", "section6", "--precision", "50000000"],
            # x_o*(1 + v*delta) lost in the rounding of payoffs near 400
            ["thresholds", "--preset", "section6", "--set", "x_o=1e-14", "--set", "x_i=0"],
            ["region", "--preset", "section6", "--set", "x_o=1e-14", "--set", "x_i=0"],
            ["region", "--preset", "section6", "--set", "x_o=1e-320"],
            # x_o*(1 + v*delta) within one tie band of the payoffs
            ["thresholds", "--preset", "section6", "--set", "x_o=1e-9", "--set", "x_i=0"],
            ["region", "--preset", "section6", "--set", "x_o=1e-9", "--set", "x_i=0"],
            # finite inputs whose payoffs would overflow to inf or nan
            ["payoffs", "--preset", "section6", "--set", "s_v=1e308", "--regime", "certain-audit"],
            [
                "thresholds", "--preset", "section6",
                "--set", "x_o=1e308", "--set", "x_i=1e308", "--set", "y_s=1e308",
            ],
            [
                "region", "--preset", "section6", "--set", "x_o=1e308", "--set", "y_s=1e308",
                "--theta-step", "0.5", "--gamma-step", "0.5",
            ],
            # refused before any draw is made
            ["validate", "--draws", "99999999999"],
            # finite inputs whose v* = t_s*(x_o - x_i)/x_i overflows to inf
            ["thresholds", "--preset", "section6", "--set", "x_o=1e300", "--set", "x_i=1e-300"],
            [
                "thresholds", "--preset", "section6", "--set", "x_o=1e300", "--set", "x_i=1e-300",
                "--format", "json",
            ],
        ],
        ids=[
            "gamma-2", "gamma-no-audit", "gamma-certain-audit", "validate-thresholds-every",
            "x_o-0", "precision-minus-1",
            "config-is-directory", "tolerance-nan", "tolerance-minus-1", "seed-minus-1",
            "region-x_o-0", "validate-preset", "validate-config", "validate-set",
            "validate-format", "validate-precision", "validate-out",
            "precision-1e11", "region-precision-5e7",
            "thresholds-x_o-1e-14", "region-x_o-1e-14", "region-x_o-1e-320",
            "thresholds-x_o-1e-9", "region-x_o-1e-9",
            "payoffs-s_v-1e308", "thresholds-1e308", "region-1e308", "validate-draws-1e11",
            "thresholds-inf-csv", "thresholds-inf-json",
        ],
    )
    def test_bad_input_is_one_line_and_exit_one(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("vat-game: error: ")

    def test_unknown_preset_exits_one(self, capsys):
        code, _, _ = run(capsys, ["payoffs", "--preset", "bogus"])
        assert code == 1

    def test_missing_subcommand_exits_one(self, capsys):
        assert cli.main([]) == 1

    def test_roundtrip_emitted_csv(self, capsys, tmp_path):
        # re-parsing an emitted payoff file and recomputing reproduces the
        # numbers at the configured precision
        out_path = tmp_path / "payoffs.csv"
        assert cli.main(
            [
                "payoffs", "--preset", "appendix", "--scenario", "tax",
                "--precision", "6", "--out", str(out_path),
            ]
        ) == 0
        from vat_game.model import AuditRegime, Event, Scenario, expected_payoff
        from vat_game.config import build_parameters

        policy, te = build_parameters("appendix", None, None)
        for row in read_csv(out_path.read_text()):
            pv = expected_payoff(
                Scenario(row["scenario"]),
                AuditRegime(float(row["gamma"])),
                Event(row["event"]),
                policy,
                te,
            )
            assert float(row["y_buyer"]) == pytest.approx(pv.buyer, abs=1e-6)
            assert float(row["y_seller"]) == pytest.approx(pv.seller, abs=1e-6)
            assert float(row["y_gov"]) == pytest.approx(pv.government, abs=1e-6)
