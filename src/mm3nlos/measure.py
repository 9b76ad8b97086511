"""Ranging noise and the historical measurement table.

Path lengths come from fine-timing ranging, modeled as the true length
plus Gaussian noise.  Every sensed path is logged in a bounded table;
when a new path needs a partner for localization, the table is queried
for the strongest historical record that is not collinear with the
current one in the working plane, falling back to a separately kept
first-path record.  Each record memoizes its in-plane (departure,
arrival) azimuths per plane, keyed by the plane object itself (None
when the record is normal to that plane), so a record is projected
once per plane however often it is queried; the memo lives on the
record and goes with it when the record is evicted.  A single record
has a one-line text form (format_record / parse_record) that
round-trips exactly; parse_records reads a file of such lines,
skipping blanks and comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geom import (
    TAU,
    DegenerateProjection,
    PathObservation,
    ProjectionPlane,
    SphericalAngles,
    bearing,
    direction_from_angles,
    pair_unsolvable,
)

#: Lower clamp for noisy distances, meters.
MIN_DISTANCE = 1e-9

DEFAULT_CAPACITY = 32

_TAGS = ("current", "historical", "first-path")


class NoUsableHistory(Exception):
    """The table offers no record that could pair with the current path."""


@dataclass(frozen=True)
class FtmConfig:
    """Ranging noise model: zero-mean Gaussian with std sigma_ftm meters."""

    sigma_ftm: float

    def __post_init__(self) -> None:
        if self.sigma_ftm < 0.0:
            raise ValueError(f"sigma_ftm must be >= 0, got {self.sigma_ftm}")


def ftm_distance(true_length: float, cfg: FtmConfig, rng: np.random.Generator) -> float:
    """One noisy range measurement, clamped positive."""
    if not true_length > 0.0:
        raise ValueError(f"true_length must be > 0, got {true_length}")
    noisy = true_length + cfg.sigma_ftm * float(rng.standard_normal())
    return max(noisy, MIN_DISTANCE)


@dataclass(frozen=True)
class MeasurementRecord:
    observation: PathObservation
    tag: str
    # plane -> (aod_az, aoa_az), or None when the projection is degenerate.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tag not in _TAGS:
            raise ValueError(f"tag must be one of {_TAGS}, got {self.tag!r}")


class MeasurementTable:
    """Bounded log of past path observations plus one first-path slot.

    Historical records keep insertion order, timestamps strictly
    increasing; when full, the oldest record is evicted.  The first-path
    record is stored aside and never counts against capacity.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.records: list[MeasurementRecord] = []
        self.first_path: MeasurementRecord | None = None

    def add(self, obs: PathObservation, tag: str = "historical") -> None:
        if self.records and obs.timestamp <= self.records[-1].observation.timestamp:
            raise ValueError(
                f"timestamp {obs.timestamp} not after latest {self.records[-1].observation.timestamp}"
            )
        self.records.append(MeasurementRecord(obs, tag))
        if len(self.records) > self.capacity:
            del self.records[0]

    def __len__(self) -> int:
        return len(self.records)


def record_first_path(table: MeasurementTable, obs: PathObservation) -> None:
    """Store the shortest-ToF path aside, replacing any previous one."""
    table.first_path = MeasurementRecord(obs, "first-path")


def _azimuths(plane: ProjectionPlane, obs: PathObservation) -> tuple[float, float] | None:
    """In-plane azimuths of the departure and arrival directions, or
    None when either is normal to the plane."""
    try:
        return (
            bearing(plane, direction_from_angles(obs.aod))[0],
            bearing(plane, direction_from_angles(obs.aoa))[0],
        )
    except DegenerateProjection:
        return None


def select_historical(
    table: MeasurementTable,
    current: PathObservation,
    k: int,
    plane: ProjectionPlane,
) -> list[PathObservation]:
    """Up to k historical partners for the current path, best SNR first.

    Records whose projected directions are within geom.EPS_COLLINEAR
    of collinear with the current path on both the departure and
    arrival side are skipped: that pairing cannot be solved.  So are
    records with a direction normal to the plane.  Ties in SNR go to
    the newer record.  When nothing qualifies the first-path record is
    returned instead; NoUsableHistory means not even that exists.

    Each record's azimuths are computed on its first query in a plane
    and memoized on the record, keyed by the plane object (None marks a
    record normal to the plane, skipped on every later call).  Named
    planes are shared instances, so ProjectionPlane.from_name hits the
    memo; a plane built anew for every call adds one entry per record.
    The current path is projected on every call.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cur = _azimuths(plane, current)
    if cur is None:
        if table.first_path is not None:
            return [table.first_path.observation]
        raise NoUsableHistory("current observation does not project onto the plane")

    cur_aod, cur_aoa = cur
    usable = []
    for rec in table.records:
        memo = rec._memo
        if plane not in memo:
            memo[plane] = _azimuths(plane, rec.observation)
        azimuths = memo[plane]
        if azimuths is None:
            continue  # unusable in this plane
        aod, aoa = azimuths
        if not pair_unsolvable((cur_aod - aod) % TAU, (cur_aoa - aoa) % TAU):
            usable.append(rec.observation)
    usable.sort(key=lambda o: (-o.snr_db, -o.timestamp))
    if usable:
        return usable[:k]
    if table.first_path is not None:
        return [table.first_path.observation]
    raise NoUsableHistory("no historical record pairs with the current path")


def format_record(rec: MeasurementRecord) -> str:
    """One-line text form; floats use repr for exact round-trips."""
    o = rec.observation
    fields = (
        repr(o.timestamp),
        repr(o.aod.azimuth),
        repr(o.aod.elevation),
        repr(o.aoa.azimuth),
        repr(o.aoa.elevation),
        repr(o.path_length),
        repr(o.snr_db),
        rec.tag,
    )
    return ",".join(fields)


def parse_record(line: str) -> MeasurementRecord:
    parts = line.strip().split(",")
    if len(parts) != 8:
        raise ValueError(f"expected 8 comma-separated fields, got {len(parts)}: {line!r}")
    ts, phi_t, theta_t, phi_r, theta_r, c, snr, tag = parts
    obs = PathObservation(
        aod=SphericalAngles(float(phi_t), float(theta_t)),
        aoa=SphericalAngles(float(phi_r), float(theta_r)),
        path_length=float(c),
        snr_db=float(snr),
        timestamp=int(ts),
    )
    return MeasurementRecord(obs, tag)


def parse_records(text: str) -> list[MeasurementRecord]:
    records = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        records.append(parse_record(line))
    return records
