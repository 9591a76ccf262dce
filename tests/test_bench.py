import math

import numpy as np
import pytest

from qsynth.bench import (BenchRow, CSV_HEADER, baseline_counts, fit_log,
                          run_family, to_csv)


def test_mcx_clean_reference_counts():
    rows = run_family("mcx_clean", [8, 16, 32])
    assert [r.cnot for r in rows] == [42, 90, 186]
    assert all(r.family == "mcx_clean" and r.m == 1 for r in rows)


def test_rows_sorted_and_deduplicated():
    rows = run_family("mcx_dirty", [16, 8, 8, 12])
    assert [r.n for r in rows] == [8, 12, 16]


def test_unknown_family_and_cap():
    with pytest.raises(ValueError):
        run_family("mcx_warm", [4])
    with pytest.raises(ValueError):
        run_family("mcx_clean", [5000])


def test_csv_is_byte_stable():
    rows = run_family("mcmt_x", [4, 8], m=3)
    a = to_csv(rows)
    b = to_csv(run_family("mcmt_x", [4, 8], m=3))
    assert a == b
    assert a.splitlines()[0] == CSV_HEADER
    assert a.endswith("\n")


def test_csv_float_formatting():
    rows = [BenchRow("mcx_clean", 8, 1, 42, 84, 52.0, 59.82734567)]
    line = to_csv(rows).splitlines()[1]
    assert line == "mcx_clean,8,1,42,84,52.0000,59.8273"


def test_cnot_beats_baseline_from_six_controls():
    for family in ("mcx_clean", "mcx_dirty", "mcmt_x", "mcmt_su2"):
        for r in run_family(family, range(6, 129, 13), m=2):
            assert r.cnot <= r.baseline_cnot, (family, r)
    for r in run_family("approx_u", range(10, 60, 7),
                        params={"epsilon": 0.1}):
        assert r.cnot <= r.baseline_cnot, r


def test_approx_family_params():
    rows = run_family("approx_u", [10, 11], params={"epsilon": 0.1})
    assert rows[1].cnot - rows[0].cnot == 24
    assert rows[0].baseline_depth == 32 * 10 + 8 - 52


def test_fit_log_recovers_exact_line():
    rows = [(n, 7 * math.log2(n) + 3) for n in (4, 8, 16, 32, 64)]
    a, b, r2 = fit_log(rows)
    assert abs(a - 7) < 1e-9
    assert abs(b - 3) < 1e-9
    assert abs(r2 - 1) < 1e-12


def test_fit_log_constant_rows():
    a, b, r2 = fit_log([(4, 10), (8, 10), (16, 10)])
    assert abs(a) < 1e-9
    assert r2 == 1.0


def test_fit_log_input_validation():
    with pytest.raises(ValueError):
        fit_log([(4, 10), (8, 12)])
    with pytest.raises(ValueError):
        fit_log([(8, 10), (8, 12), (8, 14)])


def test_fit_log_accepts_bench_rows():
    rows = run_family("mcx_clean", [16, 32, 64, 128])
    a, b, r2 = fit_log(rows)
    assert a > 0
    assert 0 <= r2 <= 1


def test_baseline_counts_table():
    assert baseline_counts("silva_linear_su2", 10, 2) == (144, 284)
    assert baseline_counts("khattar_clean", 10) == (68, None)
    assert baseline_counts("khattar_dirty", 10) == (128, None)
    a, d = baseline_counts("fit_ours", 16)
    assert a is None and abs(d - (25.5903 * 4 - 12.1237)) < 1e-9
    a, d = baseline_counts("fit_khattar", 16)
    assert a is None and abs(d - (29.3675 * 4 - 28.2752)) < 1e-9
    with pytest.raises(ValueError):
        baseline_counts("linear", 4)
