"""Acceptance gate: one test per release criterion, at stated tolerances.

Each test records a PASS/FAIL line for the terminal summary before
asserting, so a red criterion still shows up in the final report with
its measured values.
"""

import math
from collections import Counter

import numpy as np
from conftest import record_criterion
from oracles import geometric_pmf

from sortlab.algorithms import count_inversions, exchange_selection_sort
from sortlab.distributions import RandomSource, geometric, sample_array
from sortlab.model_select import SelectionPolicy, select_degree
from sortlab.montecarlo import ExperimentConfig, run_experiment
from sortlab.polyfit import DataPoint, diagnostics, fit
from sortlab.report.cli import main
from sortlab.report.fixture import REFERENCE_ROWS, reference_points
from sortlab.report.render import format_sig
from sortlab.special import f_sig, student_t_two_sided_sig
from sortlab.theory import ContinuousUniform, expected_interchanges, interchange_probability, tie_probability


def test_criterion_1_reference_table_statistical_reproduction(exchange_cells):
    failures = []
    worst_mean_margin = 0.0
    worst_sd_ratio = 0.0
    for cell, ref in zip(exchange_cells, REFERENCE_ROWS, strict=True):
        band = 5.0 * ref.sd_c / math.sqrt(ref.trials)
        mean_err = abs(cell.mean_c - ref.mean_c)
        worst_mean_margin = max(worst_mean_margin, mean_err / band)
        if mean_err > band:
            failures.append(f"p={ref.p}: mean {cell.mean_c:.2f} outside {ref.mean_c} +/- {band:.1f}")
        sd_ratio = abs(cell.sd_c - ref.sd_c) / ref.sd_c
        worst_sd_ratio = max(worst_sd_ratio, sd_ratio)
        if sd_ratio > 0.25:
            failures.append(f"p={ref.p}: sd {cell.sd_c:.2f} vs {ref.sd_c} off by {sd_ratio:.0%}")
    detail = (
        f"9 cells, n=1000, trials=100: worst mean offset {worst_mean_margin:.2f} of the 5-SE band, "
        f"worst sd deviation {worst_sd_ratio:.1%} (limit 25%)"
    )
    ok = record_criterion(1, not failures, detail if not failures else "; ".join(failures))
    assert ok, failures


def test_criterion_2_mean_strictly_decreasing_in_p(exchange_cells):
    means = [cell.mean_c for cell in exchange_cells]
    ok = all(a > b for a, b in zip(means, means[1:]))
    detail = "mean_c strictly decreasing across p=0.1..0.9: " + " > ".join(f"{m:.0f}" for m in means)
    record_criterion(2, ok, detail if ok else f"not monotone: {means}")
    assert ok, means


def test_criterion_3_cubic_regression_matches_published_tables():
    expected_b = {"(constant)": 44576.213, "x": -173518.487, "x^2": 260373.301, "x^3": -133999.436}
    expected_se = {"(constant)": 2337.970, "x": 19171.152, "x^2": 43399.090, "x^3": 28639.647}
    expected_beta = {"x": -5.229, "x^2": 8.046, "x^3": -3.769}
    expected_t = {"(constant)": 19.066, "x": -9.051, "x^2": 6.000, "x^3": -4.679}
    expected_sig = {"(constant)": ".000", "x": ".000", "x^2": ".002", "x^3": ".005"}

    points = reference_points()
    report = diagnostics(points, fit(points, 3))
    failures = []

    def check(label, actual, expected, tol):
        if actual is None or abs(actual - expected) > tol:
            failures.append(f"{label}: {actual} vs {expected} +/- {tol}")

    check("R^2", report.summary.r_squared, 0.991, 0.001)
    check("adjusted R^2", report.summary.adjusted_r_squared, 0.986, 0.001)
    check("std error of estimate", report.summary.std_error_of_estimate, 1081.351, 0.5)
    check("SS_regression", report.anova.ss_regression, 6.548e8, 5e4)
    check("SS_residual", report.anova.ss_residual, 5_846_595.0, 5_000.0)
    check("F", report.anova.f, 186.660, 0.05)
    if format_sig(report.anova.sig) != ".000":
        failures.append(f"F sig renders {format_sig(report.anova.sig)!r}, expected '.000'")
    for row in report.coefficients:
        check(f"B[{row.term_name}]", row.b, expected_b[row.term_name], 0.5)
        check(f"SE[{row.term_name}]", row.std_error, expected_se[row.term_name], 0.5)
        if row.term_name in expected_beta:
            check(f"beta[{row.term_name}]", row.beta, expected_beta[row.term_name], 0.005)
        check(f"t[{row.term_name}]", row.t, expected_t[row.term_name], 0.005)
        rendered = format_sig(row.sig)
        if rendered != expected_sig[row.term_name]:
            failures.append(f"sig[{row.term_name}] renders {rendered!r}, expected {expected_sig[row.term_name]!r}")
    detail = (
        "cubic fit of the 9 reference points reproduces the published model summary, "
        "ANOVA, and coefficient tables at stated tolerances"
    )
    ok = record_criterion(3, not failures, detail if not failures else "; ".join(failures))
    assert ok, failures


def test_criterion_4_theory_closed_form_vs_series_and_continuous_case():
    failures = []
    worst = 0.0
    for i in range(1, 20):
        p = i * 0.05
        series = math.fsum(geometric_pmf(p, r) ** 2 for r in range(4000))
        gap = abs(p / (2.0 - p) - series)
        worst = max(worst, gap)
        if gap > 1e-12:
            failures.append(f"p={p:.2f}: |closed form - series| = {gap:.3e}")
    continuous = ContinuousUniform()
    if tie_probability(continuous) != 0.0:
        failures.append("continuous tie probability is not 0")
    if interchange_probability(continuous) != 0.5:
        failures.append("continuous interchange probability is not exactly 0.5")
    if expected_interchanges(continuous, 1000) != 249_750.0:
        failures.append(f"continuous expected count {expected_interchanges(continuous, 1000)} != 249750")
    detail = f"closed form vs 4000-term series: worst gap {worst:.2e} <= 1e-12; continuous case exact (0.5, 249750)"
    ok = record_criterion(4, not failures, detail if not failures else "; ".join(failures))
    assert ok, failures


def test_criterion_5_inversion_means_match_pairwise_theory(inversion_cells):
    failures = []
    worst_rel = 0.0
    pairs = 1000 * 999 / 2.0
    for cell in inversion_cells:
        expected = pairs * (1.0 - cell.p) / (2.0 - cell.p)
        rel = abs(cell.mean_c - expected) / expected
        worst_rel = max(worst_rel, rel)
        if rel > 0.01:
            failures.append(f"p={cell.p}: mean {cell.mean_c:.1f} vs expected {expected:.1f} ({rel:.2%})")

    # Small-n bridge: exhaustive pair enumeration at n=8, p=0.4 pins the
    # per-pair probability that the grid-level identity relies on.
    p, n, trials_count = 0.4, 8, 100_000
    pmf = [geometric_pmf(p, r) for r in range(600)]
    pair_prob_oracle = math.fsum(pmf[r] * pmf[s] for r in range(600) for s in range(r))
    values = sample_array(RandomSource(77), geometric(p), trials_count * n).reshape(trials_count, n)
    rows, cols = np.triu_indices(n, k=1)
    counts = (values[:, rows] > values[:, cols]).sum(axis=1)
    expected_count = len(rows) * pair_prob_oracle
    se = counts.std(ddof=1) / math.sqrt(trials_count)
    bridge_gap = abs(counts.mean() - expected_count)
    if bridge_gap > 3.0 * se:
        failures.append(f"n=8 bridge: |{counts.mean():.4f} - {expected_count:.4f}| > 3 SE ({3*se:.4f})")

    detail = (
        f"inversion means within {worst_rel:.2%} of pairs*(1-p)/(2-p) on all 9 cells (limit 1%); "
        f"n=8 pair-enumeration bridge gap {bridge_gap:.4f} <= 3 SE = {3*se:.4f}"
    )
    ok = record_criterion(5, not failures, detail if not failures else "; ".join(failures))
    assert ok, failures


def test_criterion_6_two_element_exactness():
    config = ExperimentConfig(
        n=2,
        trials=100_000,
        p_values=(0.5,),
        counter_mode="exchange_interchanges",
        master_seed=42,
    )
    cell = run_experiment(config)[0]
    tol = 3.0 * math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 100_000)
    gap = abs(cell.mean_c - 1.0 / 3.0)
    ok = gap <= tol
    detail = f"n=2, p=0.5, 1e5 trials: mean {cell.mean_c:.6f} vs 1/3, gap {gap:.6f} <= {tol:.6f}"
    record_criterion(6, ok, detail)
    assert ok, detail


def test_criterion_7_tail_probabilities_match_quadrature_oracle():
    failures = []
    t_hi = student_t_two_sided_sig(6.000, 5)
    t_lo = student_t_two_sided_sig(-4.679, 5)
    f_val = f_sig(186.660, 3, 5)
    if abs(t_hi - 0.00185) > 1e-4:
        failures.append(f"t sig(6.000, df=5) = {t_hi:.6f} outside 0.00185 +/- 1e-4")
    if abs(t_lo - 0.0054) > 2e-4:
        failures.append(f"t sig(-4.679, df=5) = {t_lo:.6f} outside 0.0054 +/- 2e-4")
    # Quadrature oracle (frozen from 30-digit arithmetic) fixes the F tail
    # at full precision; the 3.9e-5 figure sometimes quoted for this cell
    # is arithmetically inconsistent with that oracle and with the
    # published ".000" rendering threshold check below.
    if abs(f_val - 1.4962192e-5) > 2e-9:
        failures.append(f"F sig(186.660; 3,5) = {f_val:.8e} vs oracle 1.4962192e-5 +/- 2e-9")
    rendered = (format_sig(t_hi), format_sig(t_lo), format_sig(f_val))
    if rendered != (".002", ".005", ".000"):
        failures.append(f"rendering {rendered} != ('.002', '.005', '.000')")
    detail = (
        f"t sig {t_hi:.7f} / {t_lo:.7f} within bands; F sig {f_val:.7e} matches the quadrature "
        f"oracle to 2e-9 (the 3.9e-5 figure sometimes quoted for this cell is arithmetically "
        f"inconsistent with df=(3,5)); display renders {rendered}"
    )
    ok = record_criterion(7, not failures, detail if not failures else "; ".join(failures))
    assert ok, failures


def test_criterion_8_selection_verdict_on_reference_points():
    verdict = select_degree(reference_points(), SelectionPolicy())
    quartic_sig = verdict.per_degree_reports[4].highest_order_row.sig
    ok = verdict.selected_degree == 3 and verdict.verdict_label == "O_emp(p^3)"
    detail = (
        f"expected degree 3 at alpha=0.05, got {verdict.selected_degree} ({verdict.verdict_label}, "
        f"cap-limited={verdict.cap_limited}): the measured quartic top-term sig is "
        f"{quartic_sig:.6f} < 0.05, so the stop-at-3 rule never fires; the cubic verdict holds "
        f"only for alpha in (0.005439, 0.013897), e.g. --alpha 0.01"
    )
    record_criterion(8, ok, detail if not ok else f"degree 3 selected (quartic sig {quartic_sig:.6f})")
    assert ok, detail


def test_criterion_9_property_batches(tmp_path):
    failures = []
    rng = np.random.default_rng(2024)

    # Sortedness, permutation, and the fixed comparison count on 1e4 arrays.
    sizes = rng.integers(0, 25, size=10_000)
    checked = 0
    for size in sizes:
        arr = rng.integers(0, 10, size=size)
        result, counters = exchange_selection_sort(arr)
        n = int(size)
        if counters.comparisons != n * (n - 1) // 2:
            failures.append(f"comparisons {counters.comparisons} != n(n-1)/2 at n={n}")
            break
        if np.any(np.diff(result) < 0):
            failures.append(f"output not sorted for {arr.tolist()}")
            break
        if Counter(result.tolist()) != Counter(arr.tolist()):
            failures.append(f"output not a permutation for {arr.tolist()}")
            break
        checked += 1

    # Fast inversion counter vs brute force on 1e3 cases.
    inv_checked = 0
    for _ in range(1_000):
        arr = rng.integers(-5, 6, size=rng.integers(0, 31)).tolist()
        brute = sum(arr[i] > arr[j] for i in range(len(arr)) for j in range(i + 1, len(arr)))
        if count_inversions(arr) != brute:
            failures.append(f"inversion mismatch on {arr}")
            break
        inv_checked += 1

    # OLS residuals orthogonal to every design column.
    for case in range(40):
        m = int(rng.integers(6, 14))
        x = np.sort(rng.choice(np.arange(-30, 31), size=m, replace=False)).astype(float)
        y = rng.normal(scale=50.0, size=m) + 3.0 * x - 0.2 * x**2
        degree = int(rng.integers(1, 4))
        points = [DataPoint(float(a), float(b)) for a, b in zip(x, y)]
        model = fit(points, degree)
        residuals = y - np.polynomial.polynomial.polyval(x, model.coefficients)
        design = np.vander(x, degree + 1, increasing=True)
        worst = float(np.max(np.abs(design.T @ residuals)))
        scale = float(np.max(np.abs(design)) * np.linalg.norm(y) + 1.0)
        if worst > 1e-6 * scale:
            failures.append(f"residuals not orthogonal (case {case}: {worst:.3e} > {1e-6 * scale:.3e})")
            break

    # Interpolation with zero residual df is flagged exact and fits through every point.
    for degree in (1, 2, 3):
        x = np.arange(degree + 1, dtype=float)
        y = rng.normal(scale=10.0, size=degree + 1)
        points = [DataPoint(float(a), float(b)) for a, b in zip(x, y)]
        report = diagnostics(points, fit(points, degree, min_residual_df=0))
        max_resid = max(
            abs(float(np.polynomial.polynomial.polyval(a, report.model.coefficients)) - b)
            for a, b in zip(x, y)
        )
        if not report.exact_fit or max_resid > 1e-8 * (1.0 + float(np.max(np.abs(y)))):
            failures.append(f"degree-{degree} interpolation not exact (resid {max_resid:.3e})")

    # Byte-level determinism of the simulate pipeline across worker counts.
    args = ["simulate", "--n", "60", "--trials", "8", "--p", "0.2,0.6",
            "--seed", "4242", "--no-timestamp"]
    out1, out2 = tmp_path / "jobs1.csv", tmp_path / "jobs2.csv"
    rc1 = main(args + ["--jobs", "1", "--out", str(out1)])
    rc2 = main(args + ["--jobs", "2", "--out", str(out2)])
    if (rc1, rc2) != (0, 0):
        failures.append(f"simulate exit codes {(rc1, rc2)}")
    elif out1.read_bytes() != out2.read_bytes():
        failures.append("simulate output differs between --jobs 1 and --jobs 2")

    detail = (
        f"{checked} sort property cases (sorted, permutation, comparisons = n(n-1)/2), "
        f"{inv_checked} inversion fast-vs-brute cases, OLS orthogonality and exact "
        f"interpolation checks, byte-identical simulate across --jobs"
    )
    ok = record_criterion(9, not failures, detail if not failures else "; ".join(failures))
    assert ok, failures
