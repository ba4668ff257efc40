"""Correctness gate and converged accuracy reference.

The gate functions take plain values (paths, CSV text, callables) so the
benchmark's tests can feed them tampered inputs.  The reference is a dense
+-5 sigma trapezoid over the Maxwellian, evaluated through the program's
own public API and cached on disk by exact input and program source.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import replace
from pathlib import Path

REFERENCE_NODES = 8193
SELF_CHECK_NODES = 16385
REFERENCE_SPAN = 5.0


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest(src: Path) -> str:
    """Digest of the program's Python sources; keys the reference cache."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def all_finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def manifest_errors(csv_bytes: bytes, manifest: dict, csv_name: str) -> list[str]:
    """Problems with a run manifest's record of its CSV (empty when sound)."""
    recorded = manifest.get("files", {}).get(csv_name)
    if recorded is None:
        return [f"manifest lists no sha256 for {csv_name}"]
    if recorded != sha256_bytes(csv_bytes):
        return [f"manifest sha256 of {csv_name} does not match the CSV bytes"]
    return []


def csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if not rows:
        return [], []
    return rows[0], rows[1:]


def recompute_mismatches(header: list[str], rows: list[list[str]], indices,
                         recompute) -> list[int]:
    """Indices of CSV rows whose values differ from a fresh computation.

    `recompute(delta1)` returns a dict column -> float for one row; each
    value must format to the CSV's 17-significant-digit text exactly.
    """
    bad = []
    for i in indices:
        cells = dict(zip(header, rows[i]))
        fresh = recompute(float(cells["delta1_mhz"]))
        if any(format(float(v), ".17g") != cells.get(col) for col, v in fresh.items()):
            bad.append(i)
    return bad


class Reference:
    """Converged V12 and absorption for one parameter set and probe detuning.

    `point(params, delta1, nodes)` re-rules `params` onto the dense
    trapezoid and evaluates one row serially; results are cached in a JSON
    file keyed by the parameters, the row and the program source digest.
    """

    def __init__(self, v12_spectrum, DopplerConfig, cache_path: Path, digest: str):
        self.v12_spectrum = v12_spectrum
        self.DopplerConfig = DopplerConfig
        self.cache_path = cache_path
        self.digest = digest
        self.computed = 0
        try:
            self.cache = json.loads(cache_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.cache = {}

    def point(self, params, delta1: float, nodes: int = REFERENCE_NODES) -> tuple[float, float]:
        dense = replace(params, doppler=self.DopplerConfig(
            width=params.doppler.width, nodes=nodes, rule="trapezoid", span=REFERENCE_SPAN))
        key = sha256_bytes(repr((dense, float(delta1).hex(), self.digest)).encode())
        if key not in self.cache:
            table, _ = self.v12_spectrum(dense, [delta1], jobs=1)
            self.cache[key] = [float(table.v12[0]), float(table.absorption[0])]
            self.computed += 1
        v12, absorption = self.cache[key]
        return v12, absorption

    def save(self):
        if not self.computed:
            return
        self.cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.cache_path.with_name(f"{self.cache_path.name}.{os.getpid()}")
        tmp.write_text(json.dumps(self.cache), encoding="utf-8")
        os.replace(tmp, self.cache_path)
