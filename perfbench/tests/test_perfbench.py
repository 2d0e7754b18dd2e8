"""Tests of the benchmark's own reference and checks.

    python3 -m pytest perfbench/tests

The reference must reproduce the paper's published figures without the
program, and every check must fail when it is fed a deliberately wrong value.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

RANDOM_PARAMS = dict(
    t_s=0.31, t_b=0.12, v=0.19, delta=0.7, theta=0.4, s_v=0.55, s_ys=0.8,
    x_o=1234.5, x_i=321.0, y_s=45_678.0, y_b=98_765.0,
)


@pytest.fixture(scope="module")
def vg():
    return run.import_program()


# ------------------------------------------------------------- the reference


def test_reference_reproduces_published_appendix_table():
    table = ref.appendix_table(ref.APPENDIX_PARAMS)
    for row, columns in ref.PUBLISHED_APPENDIX.items():
        for column, published in columns.items():
            assert abs(table[row][column] - published) <= ref.PUBLISHED_TOL, (row, column)


def test_reference_reproduces_section6_anchors():
    p = ref.SECTION6_PARAMS
    for mode in ref.MODES:
        intercept, _ = ref.frontier(p, ref.WT, mode)
        assert abs(intercept - ref.SECTION6_WT_INTERCEPT) <= ref.ANCHOR_TOL
    for variant in (ref.LT1, ref.LT2, ref.WT):
        _, slope = ref.frontier(p, variant, "paper-literal")
        assert abs(slope - ref.SECTION6_LITERAL_SLOPE) <= ref.ANCHOR_TOL


def test_reference_conserves_surplus_exactly():
    p = ref.exact(RANDOM_PARAMS)
    surplus = p["y_b"] + p["y_s"] - p["x_i"]
    for s, a, e in ref.defined_cells():
        buyer, seller, gov = ref.cell(p, s, a, e)
        assert buyer + seller + sum(gov) == surplus
    gamma = Fraction(3, 10)
    for s in ref.SCENARIOS:
        for e in ref.CANONICAL:
            assert sum(ref.expected(p, s, gamma, e, "corrected")) == surplus
            literal = sum(ref.expected(p, s, gamma, e, "paper-literal")) - surplus
            gap = ref.literal_gap(p, gamma) if s != ref.NO_TAXES and e != ref.COMPLY else 0
            assert literal == gap


def test_reference_roots_are_the_papers_closed_forms():
    p = ref.exact(RANDOM_PARAMS)
    t_s, v, delta, s_v, s_ys = p["t_s"], p["v"], p["delta"], p["s_v"], p["s_ys"]
    x_o, x_i = p["x_o"], p["x_i"]
    gamma = Fraction(0.37)
    corrected = {
        "seller_tax_threshold": v * x_i / (x_o - x_i),
        "vat_rate_threshold": t_s * (x_o - x_i) / x_i,
        "buyer_theta_threshold": (v * delta - gamma * v * (1 + s_v)) / (1 + v * delta),
        "buyer_gamma_threshold": 1 / (1 + s_v),
        "seller_gamma_threshold_ewt": (x_o - x_i) / (x_o * (1 + s_ys)),
        "seller_gamma_threshold_elt2": (t_s * (x_o - x_i) - v * x_i) / (t_s * x_o * (1 + s_ys)),
    }
    for family, want in corrected.items():
        assert ref.threshold_root(p, family, "corrected") == want, family
    # The paper-literal buyer sanction is not scaled by x_o, which moves the
    # buyer's bounds; the seller's do not depend on the mode.
    assert ref.threshold_root(p, "buyer_gamma_threshold", "paper-literal") == x_o / (1 + s_v)
    assert ref.threshold_root(p, "buyer_theta_threshold", "paper-literal") == (
        x_o * v * delta - gamma * v * (1 + s_v)
    ) / (x_o * (1 + v * delta))
    assert ref.threshold_root(p, "seller_tax_threshold", "paper-literal") == corrected[
        "seller_tax_threshold"
    ]


def test_exact_ties_are_kept_and_near_ties_left_open():
    p = ref.exact(RANDOM_PARAMS)
    # Every evasion costs the buyer the same bare price.
    top = ref.best_response(p, "buyer", ref.TAX, Fraction(0), "corrected", 0)
    assert top == (ref.LT1, ref.LT2, ref.WT)
    assert ref._top([1.0, 1.0 - 1e-12, 0.0], 1e-9) is None
    assert ref._top([1.0, 0.5, 1.0], 1e-9) == [0, 2]


# ------------------------------------------------------------------ the checks


def run_first_chunk(workload, index=0):
    return workload.chunks[index]()


def test_region_check_passes_and_catches_a_flipped_cell(vg, tmp_path):
    region = workloads.RegionRaster(vg, seed=3, tmp=tmp_path)
    out = run_first_chunk(region)
    region.check(0, out)
    assert region.problems == [] and region.counts["raster cells checked"] > 9900

    raster, _ = region._files(0)
    lines = raster.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.endswith("comply,true"))
    theta, gamma, _, _ = lines[k].split(",")
    lines[k] = f"{theta},{gamma},evade-wt,false"
    raster.write_text("\n".join(lines) + "\n")
    region.check(0, out)
    assert any("coalition argmax is comply" in m for m in region.problems)


def test_region_check_catches_non_monotone_compliance(vg, tmp_path):
    region = workloads.RegionRaster(vg, seed=4, tmp=tmp_path)
    last = len(region.chunks) - 1  # paper-literal
    out = run_first_chunk(region, last)
    region.check(last, out)
    region.finish()
    assert region.problems == []

    raster, _ = region._files(last)
    lines = raster.read_text().splitlines()
    # The last row is the largest theta at the largest gamma: compliant.
    theta, gamma, _, _ = lines[-1].split(",")
    lines[-1] = f"{theta},{gamma},evade-wt,false"
    raster.write_text("\n".join(lines) + "\n")
    region.check(last, out)
    region.finish()
    assert any("not monotone" in m for m in region.problems)


def test_region_check_catches_a_moved_frontier_anchor(vg, tmp_path):
    region = workloads.RegionRaster(vg, seed=5, tmp=tmp_path)
    index = len(region.chunks) - 1  # paper-literal
    out = run_first_chunk(region, index)
    _, frontiers = region._files(index)
    text = frontiers.read_text()
    assert "-0.258082" in text
    frontiers.write_text(text.replace("-0.258082", "-0.258182", 1))
    region.check(index, out)
    assert any("section-6 slope" in m for m in region.problems)


def test_payoff_check_passes_and_catches_small_residuals(vg, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.PayoffSweep, "DRAWS", 3)
    sweep = workloads.PayoffSweep(vg, seed=6, tmp=tmp_path)
    out = run_first_chunk(sweep)
    sweep.check(0, out)
    assert sweep.problems == [] and sweep.counts["draws priced and checked"] == 3

    (policy, te), (cells, mixtures, table) = sweep.inputs[0][1], out[1]
    off = 1e-6 * ref.scale(workloads.params(policy, te))
    pv, gov = cells[4]
    cells[4] = (pv._replace(buyer=pv.buyer + off), gov)
    sweep.check(0, out)
    assert any("conservation" in m for m in sweep.problems)


def test_payoff_check_catches_a_literal_gap_and_a_published_cell(vg, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.PayoffSweep, "DRAWS", 2)
    sweep = workloads.PayoffSweep(vg, seed=6, tmp=tmp_path)
    out = run_first_chunk(sweep)
    cells, mixtures, table = out[0]
    j = len(mixtures) - 1  # paper-literal, deductions, evade-wt, gamma = 1
    mixtures[j] = mixtures[j]._replace(buyer=mixtures[j].buyer + 1e-3)
    table["gov_vat"]["full_compliance"] += 1.0
    sweep.check(0, out)
    assert any("conservation gap" in m for m in sweep.problems)
    assert any("published gov_vat/full_compliance" in m for m in sweep.problems)


def test_payoff_check_catches_a_non_affine_mixture(vg, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.PayoffSweep, "DRAWS", 2)
    sweep = workloads.PayoffSweep(vg, seed=7, tmp=tmp_path)
    out = run_first_chunk(sweep)
    mixtures = out[1][1]
    mixtures[2] = mixtures[2]._replace(seller=mixtures[2].seller + 1.0)  # gamma = 0.5
    sweep.check(0, out)
    assert any("affine in gamma" in m for m in sweep.problems)


@pytest.fixture
def small_validate(vg, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.OracleValidate, "CHUNKS", 1)
    monkeypatch.setattr(workloads.OracleValidate, "DRAWS", 3)
    return workloads.OracleValidate(vg, seed=8, tmp=tmp_path)


def test_validate_counts_only_the_paper_literal_buyer_fault(small_validate):
    reports = run_first_chunk(small_validate)
    small_validate.check(0, reports)
    assert small_validate.problems == []
    assert small_validate.counts["validate reports checked"] == 2
    # Every paper-literal draw fails on the buyer's bounds; no corrected one.
    assert small_validate.failed == [3]
    assert small_validate.counts["paper-literal buyer_gamma_threshold disagrees"] == 3
    assert not any(k.startswith("corrected") for k in small_validate.counts if "disagrees" in k)


def test_validate_check_catches_a_closed_form_off_by_1e_6(small_validate, vg):
    fn, names = small_validate.closed_forms["seller_tax_threshold"]

    def shifted(policy, te):
        result = fn(policy, te)
        return vg.dominance.ThresholdResult.of(result.value + 1e-6)

    small_validate.closed_forms["seller_tax_threshold"] = (shifted, names)
    small_validate.check(0, run_first_chunk(small_validate))
    assert small_validate.counts["corrected seller_tax_threshold disagrees"] == 3


def test_validate_check_catches_a_wrong_best_response(small_validate, vg, monkeypatch):
    reports = run_first_chunk(small_validate)
    original = vg.dominance.dominant_events

    def complement(*args):
        best = original(*args)
        return tuple(e for e in vg.model.CANONICAL_EVENTS if e not in best)

    monkeypatch.setattr(vg.dominance, "dominant_events", complement)
    small_validate.check(0, reports)
    assert any(m.startswith("best response") for m in small_validate.problems)


def test_validate_check_catches_a_shifted_oracle_threshold(small_validate, vg, monkeypatch):
    reports = run_first_chunk(small_validate)
    original = vg.oracle.oracle_threshold

    def shifted(*args):
        result = original(*args)
        if result.sentinel is vg.dominance.Sentinel.VALUE:
            return vg.dominance.ThresholdResult.of(result.value + 2e-6)
        return result

    monkeypatch.setattr(vg.oracle, "oracle_threshold", shifted)
    small_validate.check(0, reports)
    assert any(m.startswith("oracle threshold") for m in small_validate.problems)


def test_validate_check_catches_an_empty_report(small_validate, vg):
    empty = [vg.oracle.ValidationReport(seed=small_validate.seeds[0], draws=3)] * 2
    small_validate.check(0, empty)
    problems = " ".join(small_validate.problems)
    for what in ("best_response_checks 0, want 54", "threshold_checks 0, want"):
        assert what in problems
    # The paper-literal failures are missing too.
    assert "missing threshold failure" in problems


def test_validate_check_catches_a_wrong_report(small_validate):
    corrected, literal = run_first_chunk(small_validate)
    literal.failures.pop()
    corrected.threshold_checks -= 1
    corrected.max_threshold_deviation = 2e-6
    corrected.failures.append("best-response mismatch [seed8/0] buyer tax gamma=0.0: ...")
    small_validate.check(0, [corrected, literal])
    problems = "\n".join(small_validate.problems)
    assert "validate seed 8 paper-literal: missing threshold failure" in problems
    assert "validate seed 8 corrected: threshold_checks" in problems
    assert "validate seed 8 corrected: max threshold deviation" in problems
    assert "validate seed 8 corrected: unexpected failure" in problems
