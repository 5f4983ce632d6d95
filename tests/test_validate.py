"""The executable validation suites must pass on a correct build."""

import pytest

from hoytsense import specfun, validate


def _assert_all_pass(lines):
    assert lines, "suite produced no checks"
    bad = [(name, detail) for name, ok, detail in lines if not ok]
    assert not bad, f"failing checks: {bad}"


def test_specfun_suite():
    _assert_all_pass(validate.specfun_suite())


def test_incomplete_gamma_check_sees_a_branch_error(monkeypatch):
    # P + Q = 1 holds by construction within each branch; the check compares
    # the two branches, so an error of 1e-12 in either one must fail it
    cf = specfun._upper_gamma_cf
    monkeypatch.setattr(specfun, "_upper_gamma_cf",
                        lambda a, x: cf(a, x) + 1e-12)
    (line,) = [l for l in validate.specfun_suite()
               if l[0] == "incomplete_gamma_branches_agree"]
    assert line[1] is False


def test_bessel_order_zero_check_sees_a_coefficient_error(monkeypatch):
    # the check compares the fixed polynomials with the series and the
    # expansion; a relative error of 1e-13 in one piece must fail it
    names = [l[0] for l in validate.specfun_suite()]
    assert "bessel_i0_pieces_match_series" in names
    mid = specfun._I0E_MID
    monkeypatch.setattr(specfun, "_I0E_MID",
                        mid[:-1] + (mid[-1] * (1.0 + 1e-13),))
    (line,) = [l for l in validate.specfun_suite()
               if l[0] == "bessel_i0_pieces_match_series"]
    assert line[1] is False


def test_detector_suite():
    _assert_all_pass(validate.detector_suite())


def test_hoyt_suite():
    _assert_all_pass(validate.hoyt_suite())


def test_average_suite_full_grid():
    lines = validate.average_suite()
    _assert_all_pass(lines)
    names = [name for name, _, _ in lines]
    # the measured q-ordering check must be present: the average AUC rises
    # with q in the mid-SNR band (fading is deepest at small q)
    assert "avg_auc_increasing_in_q_mid_snr" in names
    # and the high-SNR law of the CAUC, over 50-60 dB
    assert "high_snr_cauc_law" in names


def test_mc_suite_small():
    _assert_all_pass(validate.mc_suite(trials=120_000, master_seed=7))


def test_errata_suite_quantifies_all_defects():
    lines = validate.errata_suite()
    _assert_all_pass(lines)
    names = {name for name, _, _ in lines}
    # the three core transcription defects plus the two supplementary checks
    assert {"kummer_argument_sign",
            "finite_sum_missing_mean_square_factor",
            "finite_sum_binomial_shift_rejected",
            "series_mean_snr_exponent",
            "laguerre_order_check",
            "cdf_marcum_argument_pair"} <= names
    details = {name: detail for name, _, detail in lines}
    # every table quantifies printed-vs-reference deviations numerically
    assert "printed-dev=" in details["kummer_argument_sign"]
    assert "printed deviates up to" in details["finite_sum_missing_mean_square_factor"]
    assert "diverges" in details["series_mean_snr_exponent"]


def test_run_suite_dispatch(monkeypatch):
    # stub suites: each real one already has its own test above
    calls = []

    def stub(name):
        def suite(**kwargs):
            calls.append((name, kwargs))
            return [(name, True, "stub")]
        return suite

    for name in list(validate.SUITES):
        monkeypatch.setitem(validate.SUITES, name, stub(name))
        monkeypatch.setattr(validate, f"{name}_suite", validate.SUITES[name])

    with pytest.raises(ValueError):
        validate.run_suite("nonsense")
    order = ("specfun", "detector", "hoyt", "average", "mc", "errata")
    lines = validate.run_suite("all", trials=60_000, master_seed=3)
    assert lines == [(name, True, "stub") for name in order]
    # trials and master_seed reach mc_suite and no other suite
    seeded = {"trials": 60_000, "master_seed": 3}
    assert calls == [(name, seeded if name == "mc" else {})
                     for name in order]
    calls.clear()
    assert validate.run_suite("hoyt", trials=5, master_seed=1) == [
        ("hoyt", True, "stub")]
    assert validate.run_suite("mc") == [("mc", True, "stub")]
    assert calls == [("hoyt", {}), ("mc", {})]
