"""Byte-exact CLI outputs, diffed through `cli.main`.

Each case's standard output is stored under `tests/golden/` as
`<name>.out`, and its standard error, where there is any, as
`<name>.err`. A refactor or speed-up of any command must leave every file
as it is. After a deliberate change of output, rewrite them with

    PYTHONPATH=src python3 tests/test_golden.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from vat_game import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

PRESETS = ("section6", "appendix")
MODES = ("corrected", "paper-literal")

#: Coarse raster over the whole unit square.
_COARSE = ["--theta-step", "0.1", "--gamma-step", "0.1"]
#: A fine band in theta that every frontier line of both presets crosses
#: (intercepts 0.19-0.31, slopes -0.26 to -0.49).
_BAND = [
    "--theta-min", "0.1", "--theta-max", "0.35", "--theta-step", "0.005",
    "--gamma-step", "0.05",
]

#: name -> (argv, expected exit code)
CASES: dict[str, tuple[list[str], int]] = {}
for _preset in PRESETS:
    for _mode in MODES:
        _common = ["--preset", _preset, "--mode", _mode]
        _tag = f"{_preset}-{_mode}"
        CASES[f"region-coarse-{_tag}"] = (["region", *_common, *_COARSE], 0)
        CASES[f"region-band-{_tag}"] = (["region", *_common, *_BAND], 0)
        CASES[f"thresholds-{_tag}"] = (["thresholds", *_common, "--precision", "12"], 0)
        CASES[f"payoffs-tax-no-audit-{_tag}"] = (["payoffs", *_common, "--scenario", "tax"], 0)
        CASES[f"payoffs-deductions-bayesian-{_tag}"] = (
            [
                "payoffs", *_common, "--scenario", "tax-with-deductions",
                "--regime", "bayesian", "--gamma", "0.35", "--precision", "12",
            ],
            0,
        )
        CASES[f"payoffs-tax-certain-audit-{_tag}"] = (
            ["payoffs", *_common, "--scenario", "tax", "--regime", "certain-audit"],
            0,
        )
        CASES[f"appendix-{_tag}"] = (
            ["appendix", *_common],
            0 if _preset == "appendix" else cli.EXIT_MISMATCH,
        )
CASES["region-json-section6-corrected"] = (
    ["region", "--preset", "section6", "--format", "json", "--precision", "12", *_COARSE],
    0,
)
CASES["appendix-default"] = (["appendix"], 0)


def run_case(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    argv, expected_code = CASES[name]
    code, out, err = run_case(argv)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.out").read_text()
    err_file = GOLDEN / f"{name}.err"
    assert err == (err_file.read_text() if err_file.exists() else "")


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, expected_code) in sorted(CASES.items()):
        code, out, err = run_case(argv)
        if code != expected_code:
            raise SystemExit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.out").write_text(out)
        err_file = GOLDEN / f"{name}.err"
        if err:
            err_file.write_text(err)
        else:
            err_file.unlink(missing_ok=True)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: python3 tests/test_golden.py --regenerate")
    regenerate()
