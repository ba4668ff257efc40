"""Sweep result tables and their CSV serialization.

Numbers are serialized with 17 significant digits so that determinism
across runs and parallelism degrees is bitwise checkable.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ContractError


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_rows(path: str | Path, header: list[str], columns: list[np.ndarray]):
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ContractError("table columns have unequal lengths")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([_fmt(x) for x in row])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def _read_columns(path: str | Path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ContractError(f"{path}: empty CSV") from None
        rows = [[float(x) for x in row] for row in reader if row]
    data = np.array(rows, dtype=float)
    if data.size == 0:
        raise ContractError(f"{path}: CSV has no data rows")
    return {name: data[:, k] for k, name in enumerate(header)}


class SweepTable:
    """Base of the sweep tables: the dataclass fields are the columns, in
    the order of the CSV HEADER, and the first one is the swept axis."""

    HEADER: list[str]

    def write_csv(self, path: str | Path):
        _write_rows(path, self.HEADER, [getattr(self, f.name) for f in fields(self)])

    @classmethod
    def read_csv(cls, path: str | Path):
        cols = _read_columns(path)
        missing = set(cls.HEADER) - set(cols)
        if missing:
            raise ContractError(f"{path}: missing columns {sorted(missing)}")
        return cls(*(cols[name] for name in cls.HEADER))


@dataclass(frozen=True)
class SpectrumTable(SweepTable):
    """Probe-detuning sweep: correlation, its quadrature parts, absorption."""

    delta1: np.ndarray
    v12: np.ndarray
    du2: np.ndarray
    dv2: np.ndarray
    absorption: np.ndarray

    HEADER = ["delta1_mhz", "v12", "du2", "dv2", "absorption"]


@dataclass(frozen=True)
class PumpSweepTable(SweepTable):
    """Pump-amplitude sweep at fixed detunings, for two collision rates."""

    alpha2: np.ndarray
    v12_p0: np.ndarray
    v12_p20: np.ndarray
    absorption_p0: np.ndarray
    absorption_p20: np.ndarray

    HEADER = ["alpha2", "v12_p0", "v12_p20", "absorption_p0", "absorption_p20"]
