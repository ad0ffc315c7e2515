"""Telemetry records and file output.

Two CSV surfaces with a frozen column order:

``telemetry.csv`` — one row per (step, intersection):
    time, intersection, phase, mode,
    n_w_l, n_w_s, n_w_r, n_e_l, n_e_s, n_e_r, n_n_l, n_n_s, n_n_r, n_s_l, n_s_s, n_s_r,
    d_w_l, d_w_s, d_w_r, d_e_l, d_e_s, d_e_r, d_n_l, d_n_s, d_n_r, d_s_l, d_s_s, d_s_r
where ``n_*`` are the occupancies of the 12 incoming lanes in canonical
(W, E, N, S) x (left, straight, right) order and ``d_*`` the vehicles
discharged through the corresponding movements during the step.

``decisions.csv`` — one row per signal decision:
    time, intersection, phase, green_duration, switched,
    ideal_npass, actual_discharged, q_w_l, ..., q_s_r
with the 12 incoming-lane occupancies sampled at the decision boundary;
``ideal_npass`` sums n_pass over the granted phase's movements and
``actual_discharged`` counts the vehicles those movements discharged before
the next decision at the same intersection.

Identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional

import numpy as np

from .engine import StepTelemetry, movement_tables
from .network import PHASE_COLUMNS, RoadNetwork

__all__ = [
    "DecisionRecord",
    "LANE_COLUMNS",
    "TELEMETRY_HEADER",
    "DECISIONS_HEADER",
    "write_telemetry_csv",
    "write_decisions_csv",
    "read_decisions_csv",
    "write_metrics_json",
]

#: the ``mode`` column's text for a signal that shows green or yellow
GREEN = "green"
YELLOW = "yellow"

LANE_COLUMNS = tuple(
    f"{side}_{turn}" for side in ("w", "e", "n", "s") for turn in ("l", "s", "r")
)
TELEMETRY_HEADER = (
    ("time", "intersection", "phase", "mode")
    + tuple(f"n_{c}" for c in LANE_COLUMNS)
    + tuple(f"d_{c}" for c in LANE_COLUMNS)
)
DECISIONS_HEADER = (
    ("time", "intersection", "phase", "green_duration", "switched", "ideal_npass", "actual_discharged")
    + tuple(f"q_{c}" for c in LANE_COLUMNS)
)


@dataclass(slots=True)
class DecisionRecord:
    """One controller decision plus the interval outcome it produced."""

    time: int
    intersection: str
    phase: int
    green_duration: int
    switched: bool
    counts: tuple[int, ...]  # 12 incoming-lane occupancies at the boundary
    ideal_npass: int
    actual_discharged: Optional[int] = None

    def phase_mean_counts(self) -> tuple[float, float, float, float]:
        """Mean incoming count per phase over the two movements it grants
        (``PHASE_COLUMNS`` row order)."""
        c = self.counts
        return tuple((c[a] + c[b]) / 2.0 for a, b in PHASE_COLUMNS.tolist())  # type: ignore[return-value]


def _csv_field(text: str) -> str:
    """``text`` as :mod:`csv` writes it inside a row (quoted only if it must be)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


#: bytes of one block's count array (24 int64 per row) plus its row
#: prefixes; each other array of a block is smaller, so rendering a block
#: stays well under 1 MB
_BLOCK_BYTES = 1 << 17
#: fills every token up to its table's width; no UTF-8 text holds this byte
_PAD = b"\xff"
#: most decimal digits per table lookup; larger counts take one per group
_GROUP_DIGITS = 4


def _token_table(tokens: list[bytes]) -> np.ndarray:
    """One word per token, filled with ``_PAD`` to a common width.

    Widths of up to 4 and 8 bytes become ``uint32`` and ``uint64`` words, so
    a gather copies machine words; wider tables use void words.
    """
    lengths = np.fromiter(map(len, tokens), np.intp, len(tokens))
    width = int(lengths.max())
    width = 4 if width <= 4 else 8 if width <= 8 else width
    table = np.array(tokens, dtype=f"S{width}").view(np.uint8).reshape(len(tokens), width)
    table[np.arange(width) >= lengths[:, None]] = _PAD[0]
    word = {4: np.uint32, 8: np.uint64}.get(width, np.dtype((np.void, width)))
    return table.view(word).ravel()


def _number_tables(digits: int) -> tuple[np.ndarray, np.ndarray]:
    r"""Tokens of one group of up to ``digits`` decimal digits of a count.

    With ``base = 10**digits``, index ``c`` gives ``c`` as written alone
    and ``c + base`` gives it zero-padded to ``digits`` (a group below the
    leading one).  ``last`` ends each token with ``","``, or with ``"\r\n"``
    from index ``2 * base`` on; ``upper`` adds no terminator and writes a
    leading 0 as nothing.
    """
    plain = [b"%d" % c for c in range(10**digits)]
    padded = [b"%0*d" % (digits, c) for c in range(10**digits)]
    last = _token_table([t + b"," for t in plain + padded] + [t + b"\r\n" for t in plain + padded])
    return last, _token_table([b""] + plain[1:] + padded)


class _RowTables:
    r"""The byte tables of one network's ``telemetry.csv`` rows.

    Every piece of a row is an index into a table: ``"<label>,<phase>,<mode>,"``
    per (intersection, phase, yellow), ``"v,"`` or ``"v\r\n"`` per count
    (one lookup per group of up to ``_GROUP_DIGITS`` digits), and ``"<t>,"``
    per tick.  :meth:`render` turns a block of ticks into the file's bytes
    with one gather per table and one pass that drops the padding; no
    Python runs per row or per field.
    """

    def __init__(self, net: RoadNetwork):
        self.incoming = movement_tables(net)[0]
        self.n_rows = len(net.intersections)
        self.n_phases = len(PHASE_COLUMNS)
        # where each movement's discharges go in a tick's flat (intersection, 24) counts
        self.slot = {
            m.id: r * 24 + 12 + j
            for r, inter in enumerate(net.intersections)
            for j, m in enumerate(inter.movements)
        }
        self.prefixes = _token_table(
            [
                f"{_csv_field(inter.id)},{phase},{YELLOW if yellow else GREEN},".encode()
                for inter in net.intersections
                for phase in range(self.n_phases)
                for yellow in (False, True)
            ]
        )
        self.prefix_base = np.arange(self.n_rows) * 2 * self.n_phases
        self.numbers: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: ticks per block, so that a block's counts and prefixes take about _BLOCK_BYTES
        self.ticks = max(1, _BLOCK_BYTES // (self.n_rows * (24 * 8 + self.prefixes.itemsize)))

    def render(self, block: list[StepTelemetry]) -> bytes:
        """The rows of a block of ticks, as the bytes the file holds."""
        if any(step.occupancy is None for step in block):
            raise ValueError("telemetry rows need steps collected with collect=True")
        n_ticks, n_rows, n_phases = len(block), self.n_rows, self.n_phases
        counts = np.zeros((n_ticks, n_rows, 24), np.int64)
        counts[:, :, :12] = np.array([step.occupancy for step in block]).take(self.incoming, axis=1)
        movements: list[str] = []
        discharged: list[int] = []
        for step in block:
            movements += step.discharged
            discharged += step.discharged.values()
        tick = np.repeat(np.arange(n_ticks), [len(step.discharged) for step in block])
        columns = np.fromiter(map(self.slot.__getitem__, movements), np.intp, len(movements))
        counts.reshape(n_ticks, -1)[tick, columns] = discharged
        if counts.min() < 0:
            raise ValueError("telemetry counts must be non-negative")
        phases = np.array([step.phases for step in block], np.intp)
        if phases.min() < 0 or phases.max() >= n_phases:
            raise ValueError(f"a telemetry phase is outside 0-{n_phases - 1}")
        yellow = np.array([step.yellow for step in block]) != 0
        prefix = self.prefixes[self.prefix_base + 2 * phases + yellow]

        # each count as its digit groups, most significant first
        width = len(str(int(counts.max())))
        digits = min(width, _GROUP_DIGITS)
        n_groups = -(-width // digits)
        if digits not in self.numbers:
            self.numbers[digits] = _number_tables(digits)
        last, upper = self.numbers[digits]
        base = 10**digits
        groups = []
        for g in range(n_groups - 1, 0, -1):
            high = counts // base**g
            groups.append(upper[high % base + base * (high >= base)])
        low = counts % base + base * (counts >= base) if groups else counts
        low[:, :, -1] += 2 * base
        groups.append(last[low])

        times = [b"%d," % step.time for step in block]
        time_width = max(map(len, times))
        value_width = sum(group.itemsize for group in groups)
        row = np.empty((n_ticks, n_rows, time_width + prefix.itemsize + 24 * value_width), np.uint8)
        row[:, :, :time_width] = np.frombuffer(
            b"".join(time.ljust(time_width, _PAD) for time in times), np.uint8
        ).reshape(n_ticks, 1, -1)
        row[:, :, time_width : -24 * value_width] = prefix.view(np.uint8).reshape(n_ticks, n_rows, -1)
        values = row[:, :, -24 * value_width :].reshape(n_ticks, n_rows, 24, value_width)
        at = 0
        for group in groups:
            values[..., at : at + group.itemsize] = group.view(np.uint8).reshape(n_ticks, n_rows, 24, -1)
            at += group.itemsize
        return row.tobytes().translate(None, _PAD)


def write_telemetry_csv(path: str, net: RoadNetwork, steps: Iterable[StepTelemetry]) -> None:
    """Render per-step telemetry into the documented per-intersection rows.

    ``steps`` may be any iterable; it is consumed a few ticks at a time
    (see :class:`_RowTables`), each block written with one ``write``.
    Raises ``ValueError`` for a step collected without ``collect=True``, a
    negative count or a phase outside the phase table.
    """
    tables = _RowTables(net)
    steps = iter(steps)
    with open(path, "wb") as fh:
        fh.write((",".join(TELEMETRY_HEADER) + "\r\n").encode())
        while block := list(islice(steps, tables.ticks)):
            fh.write(tables.render(block))
            del block  # free this block's steps before the next is read


def write_decisions_csv(path: str, records: Iterable[DecisionRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DECISIONS_HEADER)
        for rec in records:
            actual = "" if rec.actual_discharged is None else rec.actual_discharged
            writer.writerow(
                [
                    rec.time,
                    rec.intersection,
                    rec.phase,
                    rec.green_duration,
                    int(rec.switched),
                    rec.ideal_npass,
                    actual,
                ]
                + list(rec.counts)
            )


def read_decisions_csv(path: str) -> list[DecisionRecord]:
    """Read a decisions file; a malformed row raises a one-line ``ValueError``
    naming it, counted as a line of the file, and so does a file that is not
    UTF-8, naming the file."""
    records: list[DecisionRecord] = []
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != DECISIONS_HEADER:
                raise ValueError(f"{path}: not a decisions CSV (unexpected header)")
            for row in reader:
                try:
                    records.append(_decision_record(row))
                except ValueError as exc:
                    raise ValueError(f"{path}: row {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return records


def _decision_record(row: list[str]) -> DecisionRecord:
    if len(row) != len(DECISIONS_HEADER):
        raise ValueError(f"{len(row)} fields, expected {len(DECISIONS_HEADER)}")
    time, phase, green, switched, ideal, *counts = map(int, row[:1] + row[2:6] + row[7:])
    actual = None if row[6] == "" else int(row[6])
    if not 0 <= phase <= 3:
        raise ValueError(f"phase {phase} is outside 0-3")
    if green < 1:
        raise ValueError(f"green_duration {green} is below 1")
    if switched not in (0, 1):
        raise ValueError(f"switched {switched} is not 0 or 1")
    if min(ideal, actual or 0, *counts) < 0:
        raise ValueError("a count is negative")
    return DecisionRecord(time, row[1], phase, green, bool(switched), tuple(counts), ideal, actual)


def write_metrics_json(path: str, payload: dict) -> None:
    """Canonical JSON dump: sorted keys, two-space indent, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
