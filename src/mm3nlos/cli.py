"""Command-line front end: config files, sweeps, CSV and manifest output.

Experiments are described by a key = value config file plus flag
overrides (flags win).  Every sweep writes the curve CSV next to a JSON
manifest that snapshots the exact config text, the overrides, and the
effective settings, so a run can be reproduced byte for byte from its
manifest alone.  The manifest is written before the first trial and
rewritten with the finish timestamp afterwards; an interrupted sweep
leaves the completed rows in the CSV behind a truncation marker.

Subcommands: sweep-antennas, sweep-ftm, sweep-snr (error curves over
one axis), solve-once (run the solver on a recorded observation file),
and oracle-check (noiseless round-trip self-test).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields as dataclass_fields
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import Callable, Mapping

from . import __version__
from .geom import (
    DegenerateProjection,
    GeomError,
    InconsistentGeometry,
    ProjectionPlane,
    Unsolvable,
    localize,
    solve,
)
from .measure import (
    MeasurementTable,
    NoUsableHistory,
    parse_records,
    record_first_path,
    select_historical,
)
from .sim import (
    CurveRow,
    ExperimentConfig,
    box_is_covered,
    curve_csv_header,
    format_curve_row,
    format_raw_csv,
    run_experiment,
    run_oracle_suite,
)

SEED_ENV_VAR = "MM3NLOS_SEED"

_ANTENNA_AXIS = "4x4,8x8,16x16,32x32"
_SNR_AXIS = "0,5,10,15,20,25,30"
_FTM_AXIS = "0.001,0.01,0.05,0.1,0.2"

# Config keys settable by flag (--tx-upa sets tx_upa): metavar and help.
_FLAGS: dict[str, tuple[str, str]] = {
    "seed": ("U64", f"RNG seed (fallback: ${SEED_ENV_VAR})"),
    "trials": ("N", "trials per grid point"),
    "tx_upa": ("HxV[,..]", "transmit array sizes"),
    "rx_upa": ("HxV[,..]", "receive array sizes"),
    "snr_db": ("LIST", "SNR grid, dB"),
    "ftm_sigma_m": ("LIST", "ranging noise grid, meters"),
    "beam": ("MODE[,..]", "beam modes: best, aux"),
    "oversampling": ("N", "codebook oversampling factor"),
    "planes": ("NAME[,..]", "projection planes: yoz, xoy, xoz"),
}


class ConfigError(Exception):
    """A config file or flag value violates the experiment contract."""


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc


def _items(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(s) for s in _items(text))


def _parse_upa(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"expected HxV (e.g. 32x32), got {text!r}")
    n_h, n_v = (_parse_int(p.strip()) for p in parts)
    return n_h, n_v


def _parse_upa_list(text: str) -> tuple[tuple[int, int], ...]:
    return tuple(_parse_upa(s) for s in _items(text))


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(s.lower() for s in _items(text))


def _parse_triple(text: str) -> tuple[float, float, float]:
    vals = _parse_float_list(text)
    if len(vals) != 3:
        raise ConfigError(f"expected three numbers x,y,z, got {text!r}")
    return vals[0], vals[1], vals[2]


def _parse_box(text: str) -> tuple[tuple[float, float], ...]:
    vals = _parse_float_list(text)
    if len(vals) != 6:
        raise ConfigError(f"expected six numbers x_lo,x_hi,y_lo,y_hi,z_lo,z_hi, got {text!r}")
    return tuple((vals[i], vals[i + 1]) for i in range(0, 6, 2))


# One text parser per ExperimentConfig field type (the annotation text,
# as sim uses postponed annotations).  Parsers only convert; the config
# checks the values.  A field of a new type fails here, at import.
_TYPE_PARSERS: dict[str, Callable[[str], object]] = {
    "int": _parse_int,
    "float": _parse_float,
    "tuple[float, ...]": _parse_float_list,
    "tuple[str, ...]": _parse_names,
    "tuple[tuple[int, int], ...]": _parse_upa_list,
    "tuple[float, float, float]": _parse_triple,
    "tuple[tuple[float, float], ...]": _parse_box,
}

_KEY_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in dataclass_fields(ExperimentConfig)}


def _parse_fields(text: str, source: str) -> dict[str, object]:
    """key = value lines to typed config fields; names every bad field."""
    fields: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
        key = key.strip().lower().replace("-", "_")
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            fields[key] = _KEY_PARSERS[key](value.strip())
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {key}: {exc}") from exc
    return fields


def _read_config(path: str | os.PathLike[str] | None) -> tuple[str, dict[str, object]]:
    """Text and typed fields of a config file; no file gives ("", {})."""
    if path is None:
        return "", {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    text = p.read_text()
    return text, _parse_fields(text, str(p))


def _parse_overrides(overrides: Mapping[str, str], name: Callable[[str], str]) -> dict[str, object]:
    """Raw-string overrides to typed fields; errors cite name(key)."""
    fields: dict[str, object] = {}
    for key, value in overrides.items():
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown key {key!r}")
        try:
            fields[key] = _KEY_PARSERS[key](value)
        except ConfigError as exc:
            raise ConfigError(f"{name(key)}: {exc}") from exc
    return fields


def _build_config(fields: Mapping[str, object]) -> ExperimentConfig:
    try:
        return ExperimentConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(
    path: str | os.PathLike[str] | None = None,
    overrides: Mapping[str, str] | None = None,
) -> ExperimentConfig:
    """Config file plus raw-string overrides (overrides win) to settings.

    An absent or empty file yields the built-in defaults.  Raises
    ConfigError naming the offending key on any violation.
    """
    _, fields = _read_config(path)
    fields.update(_parse_overrides(overrides or {}, str))
    return _build_config(fields)


@dataclass
class RunManifest:
    """Reproducibility sidecar written next to every sweep CSV."""

    command: str
    seed: int
    version: str
    config_path: str | None
    config_text: str
    overrides: dict[str, str]
    effective_config: dict[str, object]
    outputs: list[str]
    started_utc: str
    finished_utc: str | None = None
    status: str = "running"

    def to_json(self) -> str:
        # The fields are plain JSON values already, so vars() serves; asdict
        # would deep-copy them on every write.
        return json.dumps(vars(self), indent=2, sort_keys=True) + "\n"


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_manifest(path: Path, manifest: RunManifest) -> None:
    path.write_text(manifest.to_json())


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


def _flag_overrides(args: argparse.Namespace) -> dict[str, str]:
    """Flags that were actually given, as raw strings keyed by config name."""
    given = {key: getattr(args, key) for key in _FLAGS}
    return {k: v for k, v in given.items() if v is not None}


def _resolve_config(
    args: argparse.Namespace, axis_defaults: Mapping[str, str]
) -> tuple[ExperimentConfig, str | None, str, dict[str, str]]:
    """Merge file, env seed, subcommand axis defaults, and flags."""
    config_text, fields = _read_config(args.config)
    overrides = _flag_overrides(args)
    for key, value in axis_defaults.items():
        if key not in fields and key not in overrides:
            fields[key] = _KEY_PARSERS[key](value)

    env_seed = os.environ.get(SEED_ENV_VAR)
    if "seed" not in fields and "seed" not in overrides and env_seed is not None:
        try:
            fields["seed"] = _KEY_PARSERS["seed"](env_seed)
        except ConfigError as exc:
            raise ConfigError(f"${SEED_ENV_VAR}: {exc}") from exc

    fields.update(_parse_overrides(overrides, _flag_name))
    return _build_config(fields), args.config, config_text, overrides


def _run_sweep(args: argparse.Namespace, axis_defaults: Mapping[str, str]) -> int:
    cfg, config_path, config_text, overrides = _resolve_config(args, axis_defaults)
    if not box_is_covered(cfg):
        raise ConfigError(f"target_box {cfg.target_box}: no point in it lies in both arrays' angular coverage")
    out_path = Path(args.out or f"mm3nlos-{args.command}.csv")
    raw_path = out_path.with_name(out_path.stem + ".raw.csv") if args.raw else None
    manifest_path = out_path.with_name(out_path.stem + ".manifest.json")
    outputs = [str(out_path)] + ([str(raw_path)] if raw_path else [])

    manifest = RunManifest(
        command=args.command,
        seed=cfg.seed,
        version=__version__,
        config_path=config_path,
        config_text=config_text,
        overrides=overrides,
        effective_config=asdict(cfg),
        outputs=outputs,
        started_utc=_utc_now(),
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_manifest(manifest_path, manifest)

    with open(out_path, "w", newline="\n") as fh:

        def on_row(row: CurveRow) -> None:
            fh.write(format_curve_row(row) + "\n")
            fh.flush()
            print(
                f"{row.tx_upa}/{row.rx_upa} {row.beam} snr={row.snr_db:g} "
                f"sigma={row.ftm_sigma_m:g}: mean={row.mean_error_m:.4f} m "
                f"fail={row.failure_rate:.3f}",
                file=sys.stderr,
            )

        fh.write(curve_csv_header() + "\n")
        fh.flush()
        try:
            result = run_experiment(cfg, collect_raw=args.raw, progress=on_row)
        except KeyboardInterrupt:
            fh.write("# truncated: interrupted\n")
            manifest.status = "truncated: interrupted"
            manifest.finished_utc = _utc_now()
            _write_manifest(manifest_path, manifest)
            print("interrupted; partial CSV kept", file=sys.stderr)
            return 130
        except Exception as exc:
            fh.write(f"# truncated: {exc}\n")
            manifest.status = f"truncated: {exc}"
            manifest.finished_utc = _utc_now()
            _write_manifest(manifest_path, manifest)
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if raw_path is not None:
        raw_path.write_text(format_raw_csv(result), newline="\n")
    manifest.status = "complete"
    manifest.finished_utc = _utc_now()
    _write_manifest(manifest_path, manifest)
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


#: solve-once's stderr line per solver failure, by exact type; any other
#: GeomError prints "error: " and its message.
_SOLVE_FAILURE = {
    Unsolvable: "unsolvable: collinear (scene type 0)",
    InconsistentGeometry: "inconsistent geometry: {}",
    DegenerateProjection: "degenerate projection: {}",
}


def _solve_once(args: argparse.Namespace) -> int:
    try:
        cfg, _, _, _ = _resolve_config(args, {})
        text = Path(args.records).read_text()
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        records = parse_records(text)
        if len(records) < 2:
            raise ValueError("need at least two records (current plus history)")
        tagged = [r for r in records if r.tag == "current"]
        current = tagged[0] if tagged else max(records, key=lambda r: r.observation.timestamp)
        table = MeasurementTable(cfg.table_capacity)
        rest = sorted((r for r in records if r is not current), key=lambda r: r.observation.timestamp)
        for rec in rest:
            if rec.tag == "first-path":
                record_first_path(table, rec.observation)
            else:
                table.add(rec.observation, rec.tag)
    except ValueError as exc:
        print(f"error: {args.records}: {exc}", file=sys.stderr)
        return 2

    plane = ProjectionPlane.from_name(cfg.planes[0])
    try:
        try:
            partner = select_historical(table, current.observation, 1, plane=plane)[0]
        except NoUsableHistory:
            # nothing pairable: let the solver name the failure precisely
            partner = rest[-1].observation
        result = solve(current.observation, partner, plane)
    except GeomError as exc:
        print(_SOLVE_FAILURE.get(type(exc), "error: {}").format(exc), file=sys.stderr)
        return 1

    position = localize(result, cfg.sta_pos)
    scene = result.scene
    flag = f" (collinear with {scene.collinear_with})" if scene.collinear_with else ""
    direction = ",".join(repr(float(x)) for x in result.direction)
    located = ",".join(repr(float(x)) for x in position)
    print(f"scene type: {scene.code}{flag}")
    print(f"direction: {direction}")
    print(f"distance_m: {result.distance!r}")
    print(f"position: {located}")
    print(f"plane: {cfg.planes[0]}")
    residual = result.intermediates.residual
    if not math.isnan(residual):
        print(f"residual: {residual!r}")
    return 0


def _oracle_check(args: argparse.Namespace) -> int:
    try:
        cfg, _, _, _ = _resolve_config(args, {})
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checks = run_oracle_suite(seed=cfg.seed, scenes=args.scenes)
    failures = 0
    for name, ok, detail in checks:
        print(f"{'pass' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def _scene_count(text: str) -> int:
    """--scenes: an integer >= 1 (each random check needs a scene)."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    for key, (metavar, help_text) in _FLAGS.items():
        parser.add_argument(_flag_name(key), metavar=metavar, help=help_text)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: main parses
    every argv with the same one."""
    parser = argparse.ArgumentParser(
        prog="mm3nlos",
        description="Two-path reflector localization simulator and solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweeps = (
        ("sweep-antennas", "mean error vs array size", {"tx_upa": _ANTENNA_AXIS, "rx_upa": _ANTENNA_AXIS}),
        ("sweep-ftm", "mean error vs ranging noise", {"ftm_sigma_m": _FTM_AXIS}),
        ("sweep-snr", "mean error vs SNR", {"snr_db": _SNR_AXIS}),
    )
    for name, help_text, axis in sweeps:
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        p.add_argument("--out", metavar="PATH", help="curve CSV path")
        p.add_argument("--raw", action="store_true", help="also write per-trial CSV")
        p.set_defaults(handler=lambda a, ax=axis: _run_sweep(a, ax))

    p = sub.add_parser("solve-once", help="solve a recorded observation file")
    _add_common_flags(p)
    p.add_argument("records", metavar="RECORDS", help="observation table file")
    p.set_defaults(handler=_solve_once)

    p = sub.add_parser("oracle-check", help="noiseless round-trip self-test")
    _add_common_flags(p)
    p.add_argument("--scenes", type=_scene_count, default=500, help="scenes per check (>= 1)")
    p.set_defaults(handler=_oracle_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
