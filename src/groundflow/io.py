"""File formats: the GFH1 binary map container, CSV tables and flat
key=value config files.

GFH1 container: 16-byte header (magic ``GFH1``, u32 w, u32 h, u32 channels,
little-endian), followed by channels * w * h little-endian float32 values,
each channel stored row-major by y.

CSV: every table the program writes goes through `write_csv`, which
writes floats with repr-exact precision so files round-trip and are
byte-stable across runs. Detections and trajectories share the header
``time,id,x,y,confidence``; id is -1 for unassociated detections.

Text inputs (CSV and key files) are read as UTF-8; any other bytes are a
FormatError.
"""
from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import Detection, GroundGrid, Trajectory
from .errors import DimensionMismatch, FormatError

MAGIC = b"GFH1"
_HEADER = struct.Struct("<4sIII")
_POINTS_HEADER = "time,id,x,y,confidence"   # of detections and trajectories


def save_maps(path, channels: Sequence[np.ndarray]) -> None:
    """Write a stack of (h, w) arrays as one GFH1 container."""
    channels = [np.asarray(c, dtype=np.float64) for c in channels]
    if not channels:
        raise ValueError("GFH1 container needs at least one channel")
    h, w = channels[0].shape
    for c in channels:
        if c.shape != (h, w):
            raise DimensionMismatch("all channels must share one shape")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, w, h, len(channels)))
        for c in channels:
            f.write(np.ascontiguousarray(c, dtype="<f4").tobytes())


def load_maps(path) -> tuple[int, int, list[np.ndarray]]:
    """Read a GFH1 container; returns (w, h, [float64 arrays of shape (h, w)])."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: shorter than GFH1 header")
    magic, w, h, n = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + 4 * n * w * h
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    flat = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    return w, h, [flat[k * w * h : (k + 1) * w * h].reshape(h, w).astype(np.float64) for k in range(n)]


def write_csv(path, header: str, rows: Iterable[Sequence]) -> None:
    """Write `header`, then one comma-joined line per row. A float field
    (np.float64 included) is written as repr(float(v)), any other as str(v)."""
    lines = [header]
    lines.extend(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
                 for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def save_detections(path, frames: Sequence[Sequence[Detection]]) -> None:
    write_csv(path, _POINTS_HEADER,
              ((d.time, -1, float(d.x), float(d.y), float(d.confidence))
               for dets in frames for d in dets))


def load_detections(path, num_frames: int, grid: GroundGrid) -> list[list[Detection]]:
    """Read the detections of a `num_frames`-frame scene on `grid`: frame
    t of the list holds the detections of time t, in file order.

    A row is five fields: a time in 0..num_frames - 1, a whole-number id,
    a position on the grid (x in [0, width), y in [0, height)) and a
    finite confidence. Any other row is a FormatError that names the file
    and the line.
    """
    w, h = grid.width_cells, grid.height_cells
    frames: list[list[Detection]] = [[] for _ in range(num_frames)]
    for lineno, r in _read_csv(path):
        where = f"{path}, line {lineno}"
        if len(r) != 5:
            raise FormatError(f"{where}: expected 5 fields, found {len(r)}")
        try:
            t, _, x, y, conf = int(r[0]), int(r[1]), float(r[2]), float(r[3]), float(r[4])
        except ValueError as e:
            raise FormatError(f"{where}: {e}") from e
        if not np.isfinite((x, y, conf)).all():
            raise FormatError(f"{where}: x, y and confidence must be finite")
        if not 0 <= t < num_frames:
            raise FormatError(f"{where}: time {t} is outside the scene's frames 0..{num_frames - 1}")
        if not (0 <= x < w and 0 <= y < h):
            raise FormatError(f"{where}: point ({x}, {y}) is outside the {w}x{h} grid")
        frames[t].append(Detection(t, x, y, conf))
    return frames


def save_trajectories(path, trajectories: Sequence[Trajectory]) -> None:
    write_csv(path, _POINTS_HEADER,
              ((t, traj.id, x, y, 1.0)
               for traj in sorted(trajectories, key=lambda tr: tr.id) for t, x, y in traj.points))


def _read_text(path) -> str:
    """The text of an input file, which must be UTF-8, less a leading
    byte-order mark; any other bytes are a FormatError that names the file."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text: {e}") from e


def _read_csv(path) -> list[tuple[int, list[str]]]:
    """The rows after the header, each with its line number; blank lines
    are skipped."""
    lines = [(n, ln.strip()) for n, ln in enumerate(_read_text(path).splitlines(), start=1)
             if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty CSV")
    header = lines[0][1]
    if [c.strip() for c in header.split(",")] != _POINTS_HEADER.split(","):
        raise FormatError(f"{path}: unexpected CSV header {header!r}")
    return [(n, ln.split(",")) for n, ln in lines[1:]]


def parse_kv(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' starts a comment. A key given
    on two lines is a FormatError."""
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise FormatError(f"line {lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        out[key] = value
    return out


def read_kv(path) -> dict[str, str]:
    return parse_kv(_read_text(path))


def write_kv(path, mapping: dict) -> None:
    lines = [f"{k} = {mapping[k]}" for k in sorted(mapping)]
    Path(path).write_text("\n".join(lines) + "\n")
