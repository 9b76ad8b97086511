"""Ranging noise, table bookkeeping, partner selection, serialization."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mm3nlos import geom
from mm3nlos.geom import GeomError, PathObservation, ProjectionPlane, SphericalAngles, solve
from mm3nlos.measure import (
    MIN_DISTANCE,
    FtmConfig,
    MeasurementRecord,
    MeasurementTable,
    NoUsableHistory,
    format_record,
    ftm_distance,
    parse_record,
    parse_records,
    record_first_path,
    select_historical,
)

YOZ = ProjectionPlane.from_name("yoz")
XOY = ProjectionPlane.from_name("xoy")
# Along +x: normal to the yz plane, in the xy plane.
ALONG_X = SphericalAngles(0.0, math.pi / 2)


def obs(aod_el, aoa_el, c=4.0, snr=10.0, ts=0, aod_az=math.pi / 2, aoa_az=math.pi / 2):
    """Observation with both bearings in the yz plane (azimuth +-pi/2)."""
    return PathObservation(
        aod=SphericalAngles(aod_az, aod_el),
        aoa=SphericalAngles(aoa_az, aoa_el),
        path_length=c,
        snr_db=snr,
        timestamp=ts,
    )


class FixedNormal:
    def __init__(self, value):
        self.value = value

    def standard_normal(self):
        return self.value


# ---------------------------------------------------------------------------
# ranging noise

def test_ftm_is_exact_without_noise():
    assert ftm_distance(3.7, FtmConfig(0.0), np.random.default_rng(0)) == 3.7


def test_ftm_noise_statistics():
    rng = np.random.default_rng(8)
    cfg = FtmConfig(0.25)
    draws = np.array([ftm_distance(10.0, cfg, rng) for _ in range(4000)])
    assert abs(draws.mean() - 10.0) < 0.02
    assert abs(draws.std() - 0.25) < 0.02


def test_ftm_clamps_to_a_positive_floor():
    assert ftm_distance(1.0, FtmConfig(1.0), FixedNormal(-50.0)) == MIN_DISTANCE


def test_ftm_input_validation():
    with pytest.raises(ValueError):
        FtmConfig(-0.1)
    with pytest.raises(ValueError):
        ftm_distance(0.0, FtmConfig(0.1), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# table bookkeeping

def test_table_keeps_insertion_order_and_evicts_the_oldest():
    table = MeasurementTable(capacity=3)
    for ts in range(5):
        table.add(obs(1.0 + 0.1 * ts, 2.0, ts=ts))
    assert len(table) == 3
    assert [r.observation.timestamp for r in table.records] == [2, 3, 4]


def test_table_rejects_non_increasing_timestamps():
    table = MeasurementTable()
    table.add(obs(1.0, 2.0, ts=5))
    with pytest.raises(ValueError):
        table.add(obs(1.1, 2.1, ts=5))
    with pytest.raises(ValueError):
        table.add(obs(1.1, 2.1, ts=4))


def test_first_path_slot_is_separate_from_capacity():
    table = MeasurementTable(capacity=1)
    record_first_path(table, obs(0.9, 2.2, ts=0))
    table.add(obs(1.0, 2.0, ts=1))
    table.add(obs(1.1, 2.1, ts=2))
    assert len(table) == 1
    assert table.first_path is not None
    assert table.first_path.tag == "first-path"
    record_first_path(table, obs(0.8, 2.3, ts=3))
    assert table.first_path.observation.timestamp == 3


def test_table_and_record_validation():
    with pytest.raises(ValueError):
        MeasurementTable(capacity=0)
    with pytest.raises(ValueError):
        MeasurementRecord(obs(1.0, 2.0), "fresh")


# ---------------------------------------------------------------------------
# partner selection

def test_selection_orders_by_snr_then_recency():
    table = MeasurementTable()
    table.add(obs(1.3, 2.4, snr=20.0, ts=1))
    table.add(obs(1.5, 2.6, snr=30.0, ts=2))
    table.add(obs(1.7, 2.8, snr=30.0, ts=3))
    current = obs(1.0, 2.0, ts=9)
    picked = select_historical(table, current, k=2, plane=YOZ)
    assert [p.timestamp for p in picked] == [3, 2]
    assert select_historical(table, current, k=5, plane=YOZ)[2].timestamp == 1


def test_selection_skips_records_collinear_with_the_current_path():
    current = obs(1.0, 2.0, ts=9)
    table = MeasurementTable()
    # Same bearings as the current path on both sides: unsolvable pairing.
    table.add(obs(1.0, 2.0, snr=40.0, ts=1))
    # Antiparallel bearings on both sides: equally unsolvable.
    table.add(obs(
        math.pi - 1.0, math.pi - 2.0, snr=35.0, ts=2,
        aod_az=-math.pi / 2, aoa_az=-math.pi / 2,
    ))
    table.add(obs(1.4, 2.5, snr=5.0, ts=3))
    picked = select_historical(table, current, k=3, plane=YOZ)
    assert [p.timestamp for p in picked] == [3]


def test_selection_falls_back_to_the_first_path():
    current = obs(1.0, 2.0, ts=9)
    table = MeasurementTable()
    table.add(obs(1.0, 2.0, snr=40.0, ts=1))  # collinear, skipped
    record_first_path(table, obs(1.45, 2.55, ts=0))
    picked = select_historical(table, current, k=1, plane=YOZ)
    assert picked[0].timestamp == 0


def test_selection_with_no_candidates_raises():
    current = obs(1.0, 2.0, ts=9)
    with pytest.raises(NoUsableHistory):
        select_historical(MeasurementTable(), current, k=1, plane=YOZ)
    with pytest.raises(ValueError):
        select_historical(MeasurementTable(), current, k=0, plane=YOZ)


def test_degenerate_current_projection_uses_the_first_path():
    # Bearings along +x are normal to the yz plane.
    current = PathObservation(SphericalAngles(0.0, math.pi / 2), SphericalAngles(0.0, math.pi / 2), 3.0, 10.0, 9)
    table = MeasurementTable()
    table.add(obs(1.3, 2.4, snr=20.0, ts=1))
    with pytest.raises(NoUsableHistory):
        select_historical(table, current, k=1, plane=YOZ)
    record_first_path(table, obs(1.5, 2.5, ts=2))
    assert select_historical(table, current, k=1, plane=YOZ)[0].timestamp == 2


def random_obs(rng, ts):
    def direction():
        return SphericalAngles(float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0.2, math.pi - 0.2)))

    return PathObservation(direction(), direction(), float(rng.uniform(1.0, 9.0)), float(rng.normal(15, 5)), ts)


def count_bearings(monkeypatch):
    """The plane of every geom.bearing call from now on."""
    calls = []
    real = geom.bearing

    def counting(plane, direction):
        calls.append(plane)
        return real(plane, direction)

    monkeypatch.setattr(geom, "bearing", counting)
    return calls


def test_evicted_and_re_added_records_select_like_a_fresh_table(monkeypatch):
    rng = np.random.default_rng(11)
    history = [random_obs(rng, ts) for ts in range(12)]
    history[1] = PathObservation(ALONG_X, ALONG_X, 3.0, 40.0, 1)
    # Currents include copies of history records: collinear with them on both sides.
    currents = [random_obs(rng, 100 + i) for i in range(6)]
    currents += [replace(history[i], timestamp=200 + i) for i in (2, 5, 9)]
    table = MeasurementTable(capacity=8)
    added = []
    for o in history:
        table.add(o)
        added.append(table.records[-1])
        for plane in (YOZ, XOY):
            select_historical(table, currents[0], 1, plane=plane)
    assert [r.observation.timestamp for r in table.records] == list(range(4, 12))
    # Put the evicted records back, memos and all, ahead of the newest four.
    table.records = added[:4] + table.records[-4:]
    calls = count_bearings(monkeypatch)
    for plane in (YOZ, XOY):
        select_historical(table, currents[0], 1, plane=plane)
    assert calls == []
    assert table.records[1].observation.bearings(YOZ) is None
    # Copies of the observations start with empty memos.
    fresh = MeasurementTable(capacity=8)
    for rec in table.records:
        fresh.add(replace(rec.observation))
    for plane in (YOZ, XOY):
        for k in (1, 3):
            for cur in currents:
                assert select_historical(table, cur, k, plane=plane) == select_historical(fresh, cur, k, plane=plane)


def test_rebuilt_named_plane_memoizes_one_entry_per_record(monkeypatch):
    rng = np.random.default_rng(12)
    table = MeasurementTable()
    for ts in range(10):
        table.add(random_obs(rng, ts))
    current = random_obs(rng, 99)
    calls = count_bearings(monkeypatch)
    first = select_historical(table, current, 3, plane=ProjectionPlane.from_name("yoz"))
    for _ in range(999):
        assert select_historical(table, current, 3, plane=ProjectionPlane.from_name("yoz")) == first
    # Two directions for each record and for the current path, once.
    assert calls == [YOZ] * 2 * (len(table) + 1)


def test_record_normal_to_the_plane_is_memoized_as_none_and_skipped(monkeypatch):
    table = MeasurementTable()
    table.add(PathObservation(ALONG_X, ALONG_X, 3.0, 50.0, 1))  # strongest, but unusable in yoz
    table.add(obs(1.4, 2.5, snr=5.0, ts=2))
    current = obs(1.0, 2.0, ts=9)
    calls = count_bearings(monkeypatch)
    for _ in range(3):
        assert [p.timestamp for p in select_historical(table, current, k=3, plane=YOZ)] == [2]
        assert table.records[0].observation.bearings(YOZ) is None
        # The current path and the usable record take two bearings each; the
        # normal record stops at its departure direction.
        assert len(calls) == 5


def test_a_tracking_fix_projects_each_observation_once_per_plane(monkeypatch):
    # add, select and solve on two planes, the way a streaming localizer
    # does: the partner's bearings and the current path's come from the memo.
    rng = np.random.default_rng(13)
    history = [random_obs(rng, ts) for ts in range(8)]
    table = MeasurementTable()
    calls = count_bearings(monkeypatch)
    solved = 0
    for o in history:
        table.add(o)
        for plane in (YOZ, XOY):
            try:
                partner = select_historical(table, o, 1, plane=plane)[0]
                solve(o, partner, plane)
                solved += 1
            except (GeomError, NoUsableHistory):
                pass
    assert solved > 0
    assert Counter(calls) == {YOZ: 2 * len(history), XOY: 2 * len(history)}


# ---------------------------------------------------------------------------
# serialization

def test_record_line_layout():
    rec = MeasurementRecord(obs(1.25, 2.5, c=4.125, snr=17.5, ts=7), "historical")
    assert format_record(rec) == "7,1.5707963267948966,1.25,1.5707963267948966,2.5,4.125,17.5,historical"


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_record("1,2,3")
    with pytest.raises(ValueError):
        parse_record("1.5,0.1,1.0,0.1,2.0,4.0,10.0,historical")  # fractional timestamp
    with pytest.raises(ValueError):
        parse_record("1,0.1,1.0,0.1,2.0,4.0,10.0,stale")  # unknown tag


def test_a_nan_snr_is_rejected_and_infinite_ones_are_kept():
    # A NaN key would make the SNR-ordered selection depend on insertion order.
    for text in ("nan", "-nan", "NaN"):
        with pytest.raises(ValueError, match="snr_db"):
            parse_record(f"1,0.1,1.0,0.1,2.0,4.0,{text},historical")
    with pytest.raises(ValueError, match="snr_db"):
        obs(1.0, 2.0, snr=math.nan)
    assert parse_record("1,0.1,1.0,0.1,2.0,4.0,-inf,historical").observation.snr_db == -math.inf
    table = MeasurementTable()
    table.add(obs(1.3, 2.4, snr=-math.inf, ts=1))
    table.add(obs(1.5, 2.6, snr=math.inf, ts=2))
    table.add(obs(1.7, 2.8, snr=30.0, ts=3))
    picked = select_historical(table, obs(1.0, 2.0, ts=9), k=3, plane=YOZ)
    assert [p.timestamp for p in picked] == [2, 3, 1]


def test_parse_records_round_trips_a_table_byte_for_byte():
    table = MeasurementTable(capacity=8)
    rng = np.random.default_rng(6)
    for ts in range(5):
        table.add(obs(
            float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.5, 2.5)),
            c=float(rng.uniform(1.0, 9.0)), snr=float(rng.normal(15, 5)), ts=ts,
        ))
    record_first_path(table, obs(1.0 / 3.0, 2.0 / 3.0, c=math.pi, snr=-3.25, ts=5))
    saved = table.records + [table.first_path]
    text = "\n".join(format_record(rec) for rec in saved) + "\n"
    rebuilt = parse_records(text)
    assert rebuilt == saved
    assert "\n".join(format_record(rec) for rec in rebuilt) + "\n" == text


def test_parse_records_skips_comments_and_blank_lines():
    lines = ["# comment", ""]
    for ts in range(4):
        lines.append(format_record(MeasurementRecord(obs(1.0 + 0.1 * ts, 2.0, ts=ts), "historical")))
    lines += ["  ", format_record(MeasurementRecord(obs(0.9, 2.2, ts=4), "first-path"))]
    records = parse_records("\n".join(lines))
    assert [r.observation.timestamp for r in records] == [0, 1, 2, 3, 4]
    assert [r.tag for r in records] == ["historical"] * 4 + ["first-path"]
    assert parse_records("# only a comment\n\n") == []


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(
    az=finite.filter(lambda x: abs(x) < 1e12),
    el=finite.filter(lambda x: abs(x) < 1e12),
    c=st.floats(1e-6, 1e9),
    snr=finite.filter(lambda x: abs(x) < 1e12),
    ts=st.integers(-(10 ** 9), 10 ** 9),
)
def test_any_record_round_trips_exactly(az, el, c, snr, ts):
    rec = MeasurementRecord(
        PathObservation(SphericalAngles(az, el), SphericalAngles(el, az), c, snr, ts),
        "historical",
    )
    back = parse_record(format_record(rec))
    assert back == rec
