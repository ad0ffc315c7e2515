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
from typing import Iterable, Optional

import numpy as np

from .engine import GREEN, YELLOW, StepTelemetry, movement_tables
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


@dataclass
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
    csv.writer(buf, lineterminator="").writerow([text, ""])
    return buf.getvalue()[:-1]


def write_telemetry_csv(path: str, net: RoadNetwork, steps: Iterable[StepTelemetry]) -> None:
    """Render per-step telemetry into the documented per-intersection rows.

    Each step's incoming-lane occupancies are gathered with one index
    table, its sparse discharges scattered into a zero block, and each row
    is written with one precomputed format, tick by tick.
    """
    incoming = movement_tables(net)[0]
    n_rows = len(net.intersections)
    slot = {
        m.id: r * 12 + j
        for r, inter in enumerate(net.intersections)
        for j, m in enumerate(inter.movements)
    }
    labels = [_csv_field(inter.id) for inter in net.intersections]
    row = "%d,%s,%d,%s," + ",".join(["%d"] * 24) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(TELEMETRY_HEADER)
        for step in steps:
            if step.occupancy is None:
                raise ValueError("telemetry rows need steps collected with collect=True")
            discharged = np.zeros(n_rows * 12, dtype=np.int64)
            for mid, n in step.discharged.items():
                discharged[slot[mid]] = n
            counts = np.concatenate(
                (step.occupancy[incoming], discharged.reshape(n_rows, 12)), axis=1
            ).tolist()
            modes = [YELLOW if y else GREEN for y in step.yellow.tolist()]
            t = step.time
            fh.write(
                "".join(
                    [
                        row % (t, label, phase, mode, *values)
                        for label, phase, mode, values in zip(
                            labels, step.phases.tolist(), modes, counts
                        )
                    ]
                )
            )


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
    naming it, counted as a line of the file."""
    records: list[DecisionRecord] = []
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
