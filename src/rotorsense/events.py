"""Event data model, stream containers, and file I/O.

An event is a single (x, y, t, p) brightness-change record. Streams are
stored column-wise (one numpy array per field) so that million-event
files stay cheap to slice and warp. All containers are immutable after
construction and safe to share across threads.

File formats
------------
CSV (``tables.EVENTS``): optional comment line ``# width=W height=H``
carrying sensor geometry, then a header line ``t,x,y,p``, then one event
per line as decimal integers with t in [0, 2^64), x and y in [0, 2^16)
and p in {-1, 1}. Missing geometry is inferred as max coordinate + 1.

Binary: magic bytes ``EVP1``, then u16 width, u16 height
(little-endian), then packed records (u64 t, u16 x, u16 y, i8 p),
little-endian throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import tables
from .errors import ConfigError, DataError

BIN_MAGIC = b"EVP1"

# Packed little-endian record layout of the binary format.
BIN_RECORD_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])


class Event(NamedTuple):
    """A single brightness-change event."""

    x: int
    y: int
    t: int  # microseconds
    p: int  # polarity, exactly -1 or +1


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel dimensions of the emitting sensor."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise DataError(f"sensor geometry must be positive, got {self.width}x{self.height}")


class Events:
    """Immutable, time-ordered event stream backed by column arrays.

    Behaves as an ordered sequence of :class:`Event`. Unsorted input is
    tolerated and stably sorted by timestamp on construction, so all
    downstream code may assume nondecreasing ``t``.
    """

    __slots__ = ("t", "x", "y", "p")

    def __init__(
        self,
        t: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        p: np.ndarray,
        *,
        copy: bool = True,
        validate: bool = True,
    ) -> None:
        t, x, y, p = (
            _column(name, values, dtype, validate)
            for name, values, dtype in (("t", t, np.uint64), ("x", x, np.uint16), ("y", y, np.uint16), ("p", p, np.int8))
        )
        if not (t.shape == x.shape == y.shape == p.shape) or t.ndim != 1:
            raise DataError("event columns must be 1-D arrays of equal length")
        if validate and p.size and not np.all(np.abs(p) == 1):
            bad = int(np.flatnonzero(np.abs(p) != 1)[0])
            raise DataError(f"polarity must be -1 or +1, got {int(p[bad])} at index {bad}")
        if t.size and np.any(t[1:] < t[:-1]):
            order = np.argsort(t, kind="stable")
            t, x, y, p = t[order], x[order], y[order], p[order]
        elif copy:
            t, x, y, p = t.copy(), x.copy(), y.copy(), p.copy()
        for arr in (t, x, y, p):
            arr.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Events is immutable")

    @classmethod
    def empty(cls) -> "Events":
        return cls(np.empty(0, np.uint64), np.empty(0, np.uint16), np.empty(0, np.uint16), np.empty(0, np.int8))

    def __len__(self) -> int:
        return self.t.size

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            return Event(int(self.x[idx]), int(self.y[idx]), int(self.t[idx]), int(self.p[idx]))
        return Events(self.t[idx], self.x[idx], self.y[idx], self.p[idx], copy=False, validate=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Events):
            return NotImplemented
        return (
            len(self) == len(other)
            and bool(np.array_equal(self.t, other.t))
            and bool(np.array_equal(self.x, other.x))
            and bool(np.array_equal(self.y, other.y))
            and bool(np.array_equal(self.p, other.p))
        )

    def __repr__(self) -> str:
        if len(self) == 0:
            return "Events(0 events)"
        return f"Events({len(self)} events, t=[{int(self.t[0])}..{int(self.t[-1])}] us)"

    def select(self, mask_or_index: np.ndarray) -> "Events":
        """Subset by boolean mask or index array, preserving order."""
        return self[mask_or_index]

    def time_slice(self, t_lo: int, t_hi: int) -> "Events":
        """Events with t_lo <= t <= t_hi (inclusive both ends)."""
        lo = int(np.searchsorted(self.t, np.uint64(t_lo), side="left"))
        hi = int(np.searchsorted(self.t, np.uint64(t_hi), side="right"))
        return self[lo:hi]

    def infer_geometry(self) -> SensorGeometry:
        if len(self) == 0:
            return SensorGeometry(1, 1)
        return SensorGeometry(int(self.x.max()) + 1, int(self.y.max()) + 1)


def _column(name: str, values, dtype: type, validate: bool) -> np.ndarray:
    """`values` as an array of `dtype`. With `validate`, values given in
    another dtype (or as a list) must lie in the dtype's range; the first
    one outside raises DataError naming the column and its index."""
    if validate and not (isinstance(values, np.ndarray) and values.dtype == dtype):
        values = np.asarray(values)
        info = np.iinfo(dtype)
        outside = ~((values >= info.min) & (values <= info.max))  # NaN too
        if outside.any():
            i = int(np.flatnonzero(outside)[0])
            raise DataError(f"event column {name} holds {values.flat[i]} at index {i}, outside [{info.min}, {info.max}]")
    return np.asarray(values, dtype=dtype)


def concat_events(parts: Sequence[Events]) -> Events:
    """Concatenate streams, stably re-sorted by time if the parts are out
    of order. A caller that keeps a parallel per-event array (such as
    per-event labels) must pass the parts in time order, so the result's
    order is the parts' order."""
    parts = [p for p in parts if len(p)]
    if not parts:
        return Events.empty()
    return Events(
        np.concatenate([p.t for p in parts]),
        np.concatenate([p.x for p in parts]),
        np.concatenate([p.y for p in parts]),
        np.concatenate([p.p for p in parts]),
        copy=False,
        validate=False,
    )


@dataclass(frozen=True)
class EventBundle:
    """A fixed-interval slice of a stream: events with t_start <= t <= t_end."""

    events: Events
    t_start: int
    t_end: int

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise DataError("bundle interval is inverted")
        if len(self.events):
            t = self.events.t
            if int(t[0]) < self.t_start or int(t[-1]) > self.t_end:
                raise DataError("bundle contains events outside its interval")

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class EventBatch:
    """Time-contiguous concatenation of bundles grown by `batching.grow_batch`."""

    bundles: tuple[EventBundle, ...]

    def __post_init__(self) -> None:
        for prev, cur in zip(self.bundles, self.bundles[1:]):
            if cur.t_start != prev.t_end:
                raise DataError("batch bundles are not time-contiguous")

    @property
    def t_start(self) -> int:
        return self.bundles[0].t_start

    def events(self) -> Events:
        return concat_events([b.events for b in self.bundles])


def slice_bundles(events: Events, dt_us: int) -> list[EventBundle]:
    """The non-empty bundles of a stream cut into intervals of dt_us.

    Bundle m covers [t0 + m*dt, t0 + (m+1)*dt] where t0 is the first event
    timestamp. An event exactly on a bundle edge belongs to the earlier
    bundle. Only intervals that hold events yield a bundle, so a gap in the
    stream shows as a bundle that does not start where the previous one
    ends. Empty input yields an empty list.
    """
    if dt_us <= 0:
        raise ConfigError(f"bundle interval must be positive, got {dt_us}")
    if len(events) == 0:
        return []
    t0 = int(events.t[0])
    d = (events.t - np.uint64(t0)).astype(np.int64)
    dt = np.int64(dt_us)
    idx = np.maximum((d + dt - 1) // dt - 1, 0)
    # sorted t implies sorted idx: a bundle starts wherever idx changes
    edges = np.concatenate([[0], np.flatnonzero(idx[1:] != idx[:-1]) + 1, [len(events)]]).tolist()
    return [
        EventBundle(events=events[lo:hi], t_start=t0 + m * dt_us, t_end=t0 + (m + 1) * dt_us)
        for lo, hi, m in zip(edges, edges[1:], idx[edges[:-1]].tolist())
    ]


# --- CSV ---


def _write_csv(events: Events, geometry: SensorGeometry, path: str) -> None:
    geometry_line = f"# width={geometry.width} height={geometry.height}"
    tables.EVENTS.write(path, [events.t, events.x, events.y, events.p], [geometry_line])


def _read_csv(path: str) -> tuple[Events, SensorGeometry]:
    (t, x, y, p), comments = tables.EVENTS.read(path)
    events = Events(t, x, y, p, copy=False, validate=False)
    geometry = None
    for lineno, line in comments:
        fields = dict(part.split("=", 1) for part in line[1:].split() if "=" in part)
        if "width" in fields and "height" in fields:
            try:
                geometry = SensorGeometry(int(fields["width"]), int(fields["height"]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad geometry comment: {line}") from exc
    return events, geometry or events.infer_geometry()


# --- Binary ---


def _write_bin(events: Events, geometry: SensorGeometry, path: str) -> None:
    records = np.empty(len(events), dtype=BIN_RECORD_DTYPE)
    records["t"] = events.t
    records["x"] = events.x
    records["y"] = events.y
    records["p"] = events.p
    header = np.array([(geometry.width, geometry.height)], dtype=np.dtype([("w", "<u2"), ("h", "<u2")]))
    with open(path, "wb") as fh:
        fh.write(BIN_MAGIC)
        fh.write(header.tobytes())
        fh.write(records.tobytes())


def _read_bin(path: str) -> tuple[Events, SensorGeometry]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != BIN_MAGIC:
        raise DataError(f"{path}: offset 0: bad magic {blob[:4]!r}, expected {BIN_MAGIC!r}")
    if len(blob) < 8:
        raise DataError(f"{path}: offset 4: truncated header")
    header = np.frombuffer(blob[4:8], dtype=np.dtype([("w", "<u2"), ("h", "<u2")]))[0]
    body = blob[8:]
    if len(body) % BIN_RECORD_DTYPE.itemsize:
        raise DataError(
            f"{path}: offset {8 + len(body) - len(body) % BIN_RECORD_DTYPE.itemsize}: truncated record"
        )
    records = np.frombuffer(body, dtype=BIN_RECORD_DTYPE)
    p = records["p"]
    if p.size and not np.all(np.abs(p) == 1):
        bad = int(np.flatnonzero(np.abs(p) != 1)[0])
        raise DataError(
            f"{path}: offset {8 + bad * BIN_RECORD_DTYPE.itemsize}: polarity must be -1 or 1, got {int(p[bad])}"
        )
    events = Events(records["t"], records["x"], records["y"], p, validate=False)
    return events, SensorGeometry(int(header["w"]), int(header["h"]))


def read_events(path: str, format: str = "csv") -> tuple[Events, SensorGeometry]:
    """Read an event file. Events come back sorted by timestamp."""
    if format == "csv":
        return _read_csv(path)
    if format == "bin":
        return _read_bin(path)
    raise ConfigError(f"unknown event file format {format!r} (expected 'csv' or 'bin')")


def write_events(events: Events, geometry: SensorGeometry, path: str, format: str = "csv") -> None:
    """Write an event file; read_events(write_events(E)) == E bit-exactly."""
    if len(events) and np.any(events.t[1:] < events.t[:-1]):
        raise DataError("events must be sorted by timestamp before writing")
    if len(events) and (int(events.x.max()) >= geometry.width or int(events.y.max()) >= geometry.height):
        raise DataError("event coordinates exceed sensor geometry")
    if format == "csv":
        _write_csv(events, geometry, path)
    elif format == "bin":
        _write_bin(events, geometry, path)
    else:
        raise ConfigError(f"unknown event file format {format!r} (expected 'csv' or 'bin')")
