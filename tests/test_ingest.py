"""Data intake: paired measurement files, summary statistics, and the
bundled case study."""

import json
import warnings

import numpy as np
import pytest

from equivkit.base import DegenerateDataError, InputError
from equivkit.ingest import (
    PairedDataset,
    case_study_labels,
    load_case_study,
    read_paired_csv,
    read_summary_json,
    summarize,
)
from equivkit.mvt import MvtSummary, mvt_decide
from equivkit.univariate import UnivSummary


def _dataset(n=8, k=1, seed=0, scale="raw"):
    rng = np.random.default_rng(seed)
    ref = np.exp(rng.normal(0.0, 0.3, size=(n, k)))
    tst = ref * np.exp(rng.normal(0.05, 0.2, size=(n, k)))
    return PairedDataset(
        subjects=tuple(f"s{i}" for i in range(n)),
        reference=ref,
        test=tst,
        dimension_names=tuple(f"d{j}" for j in range(k)),
        scale=scale,
    )


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------

def test_dataset_validation():
    good = _dataset()
    assert good.n_subjects == 8 and good.dim == 1
    with pytest.raises(InputError):
        PairedDataset(("a",), np.ones((1, 1)), np.ones((1, 1)), ("d",))
    with pytest.raises(InputError):
        PairedDataset(("a", "a"), np.ones((2, 1)), np.ones((2, 1)), ("d",))
    with pytest.raises(InputError):
        PairedDataset(("a", "b"), np.ones((2, 1)), np.ones((2, 2)), ("d",))
    with pytest.raises(InputError):
        PairedDataset(("a", "b"), np.ones((2, 2)), np.ones((2, 2)), ("d", "d"))
    with pytest.raises(InputError):
        PairedDataset(("a", "b"), np.ones((2, 1)), np.ones((2, 1)), ("d",),
                      scale="sqrt")


def test_dataset_raw_positivity():
    ref = np.array([[1.0], [0.0]])
    with pytest.raises(InputError):
        PairedDataset(("a", "b"), ref, np.ones((2, 1)), ("d",), scale="raw")
    # the same values pass on the log scale, where zero is a legal number
    log_ok = PairedDataset(("a", "b"), ref, np.ones((2, 1)), ("d",), scale="log")
    assert log_ok.scale == "log"
    # NaN holes are not positivity violations
    ref2 = np.array([[1.0], [np.nan], [2.0]])
    ds = PairedDataset(("a", "b", "c"), ref2, np.ones((3, 1)), ("d",))
    assert ds.n_subjects == 3


def test_dataset_rejects_infinite_values():
    ref = np.array([[1.0], [np.inf]])
    with pytest.raises(InputError):
        PairedDataset(("a", "b"), ref, np.ones((2, 1)), ("d",))


# ---------------------------------------------------------------------------
# summarization
# ---------------------------------------------------------------------------

def test_summarize_univariate_matches_hand_computation():
    ds = _dataset(n=10, k=1, seed=3)
    s = summarize(ds)
    assert isinstance(s, UnivSummary)
    d = np.log(ds.test[:, 0]) - np.log(ds.reference[:, 0])
    assert s.theta_hat == pytest.approx(d.mean(), rel=1e-12)
    assert s.sigma1_hat == pytest.approx(d.std(ddof=1) / np.sqrt(10), rel=1e-12)
    assert s.nu2 == 9


def test_summarize_log_scale_skips_transform():
    ref = np.array([[0.0], [0.1], [-0.2], [0.3]])
    tst = ref + np.array([[0.1], [0.2], [0.15], [0.05]])
    ds = PairedDataset(("a", "b", "c", "d"), ref, tst, ("d0",), scale="log")
    s = summarize(ds)
    d = (tst - ref)[:, 0]
    assert s.theta_hat == pytest.approx(d.mean(), rel=1e-12)


def test_summarize_multivariate_structure():
    ds = _dataset(n=12, k=3, seed=5)
    s = summarize(ds)
    assert isinstance(s, MvtSummary)
    assert s.dim == 3
    assert s.nu2 == 11
    d = np.log(ds.test) - np.log(ds.reference)
    cov = np.cov(d, rowvar=False, ddof=1)
    np.testing.assert_allclose(s.theta_hat, d.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(
        s.sigma1_hat, np.sqrt(np.diag(cov) / 12), rtol=1e-12)
    want_corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    np.testing.assert_allclose(s.correlation_hat, want_corr, atol=1e-10)


def test_summarize_drops_incomplete_subjects_with_warning():
    ds = _dataset(n=8, k=2, seed=7)
    ref = ds.reference.copy()
    ref[2, 1] = np.nan
    ds2 = PairedDataset(ds.subjects, ref, ds.test, ds.dimension_names)
    with pytest.warns(UserWarning, match="dropped 1 of 8"):
        s = summarize(ds2)
    assert s.nu2 == 6  # 7 complete subjects


def test_summarize_too_few_complete_subjects():
    ref = np.array([[1.0, 1.0], [np.nan, 2.0], [2.0, np.nan]])
    tst = np.ones((3, 2))
    ds = PairedDataset(("a", "b", "c"), ref, tst, ("d0", "d1"))
    with pytest.raises(DegenerateDataError):
        with pytest.warns(UserWarning):
            summarize(ds)


def test_summarize_constant_differences_degenerate():
    ref = np.exp(np.array([[0.0], [0.3], [0.7], [1.1]]))
    tst = ref * np.exp(0.2)  # identical difference for every subject
    ds = PairedDataset(("a", "b", "c", "d"), ref, tst, ("d0",))
    with pytest.raises(DegenerateDataError, match="zero variance"):
        summarize(ds)


def test_summarize_near_singular_correlation_repaired():
    rng = np.random.default_rng(11)
    base = rng.normal(0.0, 0.2, size=(6, 1))
    # two almost perfectly collinear dimensions
    d = np.hstack([base, base * 1.0 + 1e-14 * rng.normal(size=(6, 1))])
    ref = np.exp(np.zeros((6, 2)))
    tst = np.exp(d)
    ds = PairedDataset(tuple("abcdef"), ref, tst, ("d0", "d1"))
    with pytest.warns(UserWarning, match="clipping"):
        s = summarize(ds)
    np.linalg.cholesky(s.correlation_hat)


# ---------------------------------------------------------------------------
# paired CSV
# ---------------------------------------------------------------------------

def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_read_paired_csv_roundtrip(tmp_path):
    p = _write(
        tmp_path,
        "subject,dimension,reference,test\n"
        "s1,layerA,1.00,1.10\n"
        "s1,layerB,2.00,2.30\n"
        "s2,layerA,0.90,0.95\n"
        "s2,layerB,2.10,2.05\n"
        "s3,layerA,1.05,1.15\n"
        "s3,layerB,1.95,2.18\n",
    )
    ds = read_paired_csv(p)
    assert ds.subjects == ("s1", "s2", "s3")
    assert ds.dimension_names == ("layerA", "layerB")
    assert ds.scale == "raw"
    assert ds.reference[1, 0] == pytest.approx(0.90)
    assert ds.test[2, 1] == pytest.approx(2.18)
    s = summarize(ds)
    assert isinstance(s, MvtSummary)
    assert s.nu2 == 2


def test_read_paired_csv_missing_fields_become_nan(tmp_path):
    p = _write(
        tmp_path,
        "subject,dimension,reference,test\n"
        "s1,d,1.0,\n"
        "s2,d,1.1,1.2\n"
        "s3,d,0.9,1.0\n",
    )
    ds = read_paired_csv(p)
    assert np.isnan(ds.test[0, 0])
    with pytest.warns(UserWarning, match="dropped 1 of 3"):
        s = summarize(ds)
    assert s.nu2 == 1


def test_read_paired_csv_absent_combination_is_missing(tmp_path):
    p = _write(
        tmp_path,
        "subject,dimension,reference,test\n"
        "s1,d0,1.0,1.1\n"
        "s1,d1,2.0,2.1\n"
        "s2,d0,1.2,1.3\n",
    )
    ds = read_paired_csv(p)
    assert np.isnan(ds.reference[1, 1]) and np.isnan(ds.test[1, 1])


def test_read_paired_csv_header_case_and_spacing(tmp_path):
    p = _write(
        tmp_path,
        "Subject, Dimension ,REFERENCE,Test\n"
        "s1,d,1.0,1.1\n"
        "s2,d,1.2,1.3\n",
    )
    ds = read_paired_csv(p)
    assert ds.n_subjects == 2


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("subject,dim,ref,test\ns1,d,1,2\n", "expected header"),
        ("subject,dimension,reference,test\ns1,d,1.0,1.1\ns1,d,1.0,1.1\n",
         "duplicate"),
        ("subject,dimension,reference,test\ns1,d,abc,1.1\n", "not a number"),
        ("subject,dimension,reference,test\n,d,1.0,1.1\n", "empty subject"),
        ("subject,dimension,reference,test\ns1,d,1.0\n", "expected 4 fields"),
        ("subject,dimension,reference,test\n", "no data rows"),
        ("", "empty file"),
    ],
)
def test_read_paired_csv_errors(tmp_path, body, fragment):
    p = _write(tmp_path, body)
    with pytest.raises(InputError, match=fragment):
        read_paired_csv(p)


def test_read_paired_csv_error_carries_line_number(tmp_path):
    p = _write(
        tmp_path,
        "subject,dimension,reference,test\n"
        "s1,d,1.0,1.1\n"
        "s2,d,oops,1.3\n",
    )
    with pytest.raises(InputError, match=r":3:"):
        read_paired_csv(p)


def test_read_paired_csv_missing_file():
    with pytest.raises(InputError, match="cannot read"):
        read_paired_csv("/nonexistent/nowhere.csv")


# ---------------------------------------------------------------------------
# summary JSON
# ---------------------------------------------------------------------------

def test_read_summary_json_univariate(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(
        {"theta_hat": 0.05, "sigma1_hat": 0.1, "nu2": 20, "scale": "log"}))
    s = read_summary_json(p)
    assert isinstance(s, UnivSummary)
    assert s.theta_hat == 0.05 and s.nu2 == 20


def test_read_summary_json_multivariate_identity_fallback(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(
        {"theta_hat": [0.05, 0.01], "sigma1_hat": [0.1, 0.2], "nu2": 11}))
    with pytest.warns(UserWarning, match="assuming independence"):
        s = read_summary_json(p)
    assert isinstance(s, MvtSummary)
    np.testing.assert_array_equal(s.correlation_hat, np.eye(2))
    assert s.correlation_assumed
    assert mvt_decide(s, method="tost").meta["correlation_assumed"] is True


def test_read_summary_json_with_correlation(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({
        "theta_hat": [0.05, 0.01],
        "sigma1_hat": [0.1, 0.2],
        "nu2": 11,
        "correlation": [[1.0, 0.4], [0.4, 1.0]],
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = read_summary_json(p)
    assert s.correlation_hat[0, 1] == pytest.approx(0.4)
    assert not s.correlation_assumed
    assert mvt_decide(s, method="tost").meta["correlation_assumed"] is False


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ({"sigma1_hat": 0.1, "nu2": 5}, "theta_hat"),
        ({"theta_hat": 0.1, "nu2": 5}, "sigma1_hat"),
        ({"theta_hat": 0.1, "sigma1_hat": 0.1}, "nu2"),
        ({"theta_hat": 0.1, "sigma1_hat": 0.1, "nu2": 5, "scale": "raw"},
         "log scale"),
        ({"theta_hat": 0.1, "sigma1_hat": 0.1, "nu2": "many"}, "integer"),
        ({"theta_hat": 0.1, "sigma1_hat": 0.1, "nu2": 5,
          "correlation": [[1.0, 0.2], [0.2, 1.0]]}, "no correlation"),
    ],
)
def test_read_summary_json_errors(tmp_path, payload, fragment):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(InputError, match=fragment):
        read_summary_json(p)


def test_read_summary_json_bad_json(tmp_path):
    p = tmp_path / "s.json"
    p.write_text("{not json")
    with pytest.raises(InputError, match="invalid JSON"):
        read_summary_json(p)


def test_read_summary_json_list_payload(tmp_path):
    p = tmp_path / "s.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(InputError, match="object"):
        read_summary_json(p)


# ---------------------------------------------------------------------------
# bundled case study
# ---------------------------------------------------------------------------

def test_case_study_shape_and_values():
    with pytest.warns(UserWarning, match="no correlation given for 4 dimensions"):
        s = load_case_study()
    assert isinstance(s, MvtSummary)
    assert s.dim == 4
    assert s.nu2 == 11
    np.testing.assert_array_equal(s.correlation_hat, np.eye(4))
    assert np.all(s.sigma1_hat > 0)
    assert np.all(np.abs(s.theta_hat) < 0.15)


def test_case_study_reports_mark_the_assumed_correlation():
    s = load_case_study()
    assert s.correlation_assumed
    for method in ("tost", "alpha-tost", "ctost"):
        assert mvt_decide(s, method=method).meta["correlation_assumed"] is True


def test_case_study_labels_align():
    labels = case_study_labels()
    assert len(labels) == load_case_study().dim
    assert len(set(labels)) == 4
    # ordered outermost to deepest skin layer
    assert "stratum corneum" in labels[0]
