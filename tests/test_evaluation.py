import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rppg.cli import main
from rppg.errors import DataFormatError, MissingInputError, ToolkitError
from rppg.evaluation import (
    CohortKey,
    CohortRecord,
    agreement,
    bland_altman_csv,
    cohort_report,
    load_manifest,
    report_to_csv,
    scatter_csv,
)

from helpers import json_object_text


def stats_oracle(est, gt):
    """Direct-formula reference, deliberately numpy-free."""
    diffs = [e - g for e, g in zip(est, gt)]
    n = len(diffs)
    mae = sum(abs(d) for d in diffs) / n
    bias = sum(diffs) / n
    se = math.sqrt(sum((d - bias) ** 2 for d in diffs) / n)
    me, mg = sum(est) / n, sum(gt) / n
    ve = sum((e - me) ** 2 for e in est)
    vg = sum((g - mg) ** 2 for g in gt)
    if n >= 2 and ve > 0 and vg > 0:
        cov = sum((e - me) * (g - mg) for e, g in zip(est, gt))
        r = cov / math.sqrt(ve * vg)
    else:
        r = math.nan
    return mae, bias, se, bias - 1.96 * se, bias + 1.96 * se, r


def assert_matches_oracle(est, gt, tol=1e-9):
    s = agreement(est, gt)
    mae, bias, se, lo, hi, r = stats_oracle(est, gt)
    assert s.mae == pytest.approx(mae, abs=tol)
    assert s.bias == pytest.approx(bias, abs=tol)
    assert s.se == pytest.approx(se, abs=tol)
    assert s.loa_low == pytest.approx(lo, abs=tol)
    assert s.loa_high == pytest.approx(hi, abs=tol)
    if math.isnan(r):
        assert math.isnan(s.r)
    else:
        assert s.r == pytest.approx(r, abs=tol)


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------


def test_perfect_agreement():
    s = agreement([72.0, 80.0, 66.0], [72.0, 80.0, 66.0])
    assert (s.mae, s.bias, s.se) == (0.0, 0.0, 0.0)
    assert (s.loa_low, s.loa_high) == (0.0, 0.0)
    assert s.r == pytest.approx(1.0)
    # constant truth: r undefined, everything else still zero
    s2 = agreement([70.0, 70.0], [70.0, 70.0])
    assert math.isnan(s2.r)
    assert s2.mae == 0.0


def test_constant_offset():
    s = agreement([72.0, 80.0], [70.0, 78.0])
    assert s.mae == pytest.approx(2.0)
    assert s.bias == pytest.approx(2.0)
    assert s.se == pytest.approx(0.0)
    assert (s.loa_low, s.loa_high) == (pytest.approx(2.0), pytest.approx(2.0))
    assert s.r == pytest.approx(1.0)


def test_matches_direct_formula_on_many_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(120):
        n = int(rng.integers(2, 40))
        est = list(rng.uniform(40.0, 200.0, n))
        gt = list(rng.uniform(40.0, 200.0, n))
        assert_matches_oracle(est, gt)


@settings(max_examples=80)
@given(
    st.lists(
        st.tuples(st.floats(40.0, 220.0), st.floats(40.0, 220.0)),
        min_size=2,
        max_size=30,
    )
)
def test_agreement_properties(pairs):
    est = [p[0] for p in pairs]
    gt = [p[1] for p in pairs]
    s = agreement(est, gt)
    flipped = agreement(gt, est)
    assert s.loa_high - s.loa_low == pytest.approx(2.0 * 1.96 * s.se, abs=1e-9)
    assert flipped.mae == pytest.approx(s.mae, abs=1e-9)
    assert flipped.bias == pytest.approx(-s.bias, abs=1e-9)
    assert flipped.se == pytest.approx(s.se, abs=1e-9)
    if not math.isnan(s.r):
        assert flipped.r == pytest.approx(s.r, abs=1e-9)
        assert -1.0 - 1e-12 <= s.r <= 1.0 + 1e-12
    assert s.mae >= 0.0
    assert s.loa_low <= s.bias <= s.loa_high


def test_agreement_input_validation():
    with pytest.raises(DataFormatError, match="lengths differ"):
        agreement([72.0, 80.0], [70.0])
    with pytest.raises(DataFormatError, match="at least one estimate/truth pair"):
        agreement([], [])


def test_single_pair_allowed():
    s = agreement([75.0], [72.0])
    assert s.n == 1
    assert s.mae == pytest.approx(3.0)
    assert math.isnan(s.r)


# ---------------------------------------------------------------------------
# cohort_report
# ---------------------------------------------------------------------------

KEY = CohortKey(skin_tone="dark", condition="room", viewpoint="front")


def rec(method, est, gt, key=KEY):
    return CohortRecord(method=method, key=key, estimate_bpm=est, truth_bpm=gt)


def test_single_record_fills_its_marginals():
    report = cohort_report([rec("proposed", 75.0, 72.0)])
    cols = report["methods"]["proposed"]
    for name in ("dark", "room", "front", "overall"):
        assert cols[name].mae == pytest.approx(3.0)
    for name in ("light", "medium", "3200K", "5600K", "talking", "lower"):
        assert cols[name] is None


def test_identical_methods_have_zero_delta():
    records = []
    for m in ("aggregate", "proposed"):
        records += [rec(m, 75.0, 72.0), rec(m, 64.0, 66.0)]
    report = cohort_report(records)
    deltas = report["delta_mae"]["proposed"]
    assert deltas["overall"] == pytest.approx(0.0)
    assert deltas["dark"] == pytest.approx(0.0)
    assert deltas["light"] is None


def test_three_tone_deltas_match_recomputation():
    rng = np.random.default_rng(5)
    tones = ("light", "medium", "dark")
    raw = {m: {t: [] for t in tones} for m in ("aggregate", "snr", "proposed")}
    records = []
    for tone in tones:
        key = CohortKey(skin_tone=tone, condition="5600K", viewpoint="front")
        for _ in range(6):
            truth = float(rng.uniform(55.0, 95.0))
            for m in raw:
                est = truth + float(rng.normal(0.0, 4.0))
                raw[m][tone].append((est, truth))
                records.append(rec(m, est, truth, key))
    report = cohort_report(records)
    for m in ("snr", "proposed"):
        for tone in tones:
            est, gt = zip(*raw[m][tone])
            est0, gt0 = zip(*raw["aggregate"][tone])
            expect = agreement(est, gt).mae - agreement(est0, gt0).mae
            assert report["delta_mae"][m][tone] == pytest.approx(expect, abs=1e-9)
    # no delta block for the baseline itself
    assert "aggregate" not in report["delta_mae"]


def test_cohort_report_validation():
    with pytest.raises(DataFormatError, match="no evaluation records"):
        cohort_report([])
    bad = CohortKey(skin_tone="olive", condition="room", viewpoint="front")
    with pytest.raises(DataFormatError, match="unknown cohort value"):
        cohort_report([rec("proposed", 70.0, 70.0, bad)])


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def test_report_csv_layout():
    records = [
        rec("aggregate", 75.0, 72.0),
        rec("aggregate", 64.0, 66.0),
        rec("proposed", 73.0, 72.0),
        rec("proposed", 65.0, 66.0),
    ]
    text = report_to_csv(cohort_report(records))
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[:2] == ["method", "statistic"]
    assert header[2:] == [
        "light", "medium", "dark", "3200K", "5600K", "room", "talking",
        "front", "lower", "overall",
    ]
    # 3 stats per method plus one delta row
    assert len(lines) == 1 + 3 * 2 + 1
    assert all(len(line.split(",")) == len(header) for line in lines)
    by_label = {tuple(l.split(",")[:2]): l.split(",")[2:] for l in lines[1:]}
    dark_idx = header.index("dark") - 2
    light_idx = header.index("light") - 2
    assert by_label[("aggregate", "mae_bpm")][dark_idx] == "2.5"
    assert by_label[("aggregate", "mae_bpm")][light_idx] == ""  # absent, not zero
    assert by_label[("proposed", "delta_mae_vs_aggregate")][dark_idx] == "-1.5"


def test_scatter_and_bland_altman_csv():
    pairs = [(70.0, 75.0), (80.0, 78.0)]
    sc = scatter_csv(pairs).strip().split("\n")
    assert sc[0] == "gt,est"
    assert sc[1] == "70.0,75.0"
    ba = bland_altman_csv(pairs).strip().split("\n")
    assert ba[0] == "mean,diff"
    assert ba[1] == "72.5,5.0"
    assert ba[2] == "79.0,-2.0"


def test_nan_r_rendered_as_nan():
    text = report_to_csv(cohort_report([rec("proposed", 75.0, 72.0)]))
    row = next(l for l in text.split("\n") if l.startswith("proposed,r"))
    assert row.split(",")[-1] == "nan"


# ---------------------------------------------------------------------------
# load_manifest
# ---------------------------------------------------------------------------

REPORT_FIELDS = {"method": ['"aggregate"', '"proposed"'], "video_bpm": ["72.0", "70", "0.5"]}
MANIFEST_HEADER = "report,ground_truth,skin_tone,condition,viewpoint"
MANIFEST_ROWS = st.one_of(
    st.tuples(
        st.sampled_from(["report.json", "missing.json", "sub", "", "report\0.json"]),
        st.sampled_from(["hr.csv", "zero.csv", "missing.csv", "sub"]),
        st.sampled_from(["light", "dark", "violet"]),
        st.sampled_from(["room", "dusk"]),
        st.sampled_from(["front", "lower"]),
    ).map(",".join),
    st.text(max_size=15),
)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    header=st.sampled_from([MANIFEST_HEADER, "report,gt", ""]),
    rows=st.lists(MANIFEST_ROWS, max_size=3),
    report=st.one_of(json_object_text(REPORT_FIELDS), st.text(max_size=15)),
)
@example(header=MANIFEST_HEADER, rows=["report.json,hr.csv,dark,room,front"], report="[" * 200_000)
def test_manifest_and_reports_parse_or_exit_3_or_4(tmp_path_factory, header, rows, report):
    d = tmp_path_factory.mktemp("cohort")
    (d / "sub").mkdir()
    (d / "report.json").write_text(report)
    (d / "hr.csv").write_text("time_s,value\n0,72\n1,74\n")
    (d / "zero.csv").write_text("time_s,value\n0,0\n")
    (d / "manifest.csv").write_text("\n".join([header, *rows]) + "\n")
    try:
        summary = cohort_report(load_manifest(d / "manifest.csv"))
    except ToolkitError as exc:
        # 3 when a row names a file that is missing or is a directory
        assert exc.exit_code in (MissingInputError.exit_code, DataFormatError.exit_code)
        return
    assert summary["methods"]


@pytest.mark.parametrize("method", ["a,b\nc", "a,b", "a\nb", "a\rb", "proposed\r\n", '"q'])
def test_a_method_that_breaks_the_summary_csv_exits_4_before_any_write(tmp_path, capsys, method):
    # the method heads the summary's rows: a comma or line break in it
    # would split them, and a quote would open a field that runs on into the
    # next rows, so the report is refused and nothing is written
    (tmp_path / "report.json").write_text(json.dumps({"method": method, "video_bpm": 72.0}))
    (tmp_path / "hr.csv").write_text("time_s,value\n0,72\n1,74\n")
    (tmp_path / "manifest.csv").write_text(
        "report,ground_truth,skin_tone,condition,viewpoint\nreport.json,hr.csv,dark,room,front\n"
    )
    with pytest.raises(DataFormatError, match="report.json"):
        load_manifest(tmp_path / "manifest.csv")
    out = tmp_path / "summary.csv"
    assert main(["evaluate", "--manifest", str(tmp_path / "manifest.csv"), "--out", str(out)]) == 4
    assert "report.json" in capsys.readouterr().err
    assert not out.exists()
