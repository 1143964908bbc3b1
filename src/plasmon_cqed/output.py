"""Deterministic CSV/JSON artifact writers and the run manifest.

CSV convention: '#'-prefixed header comments carrying units, decimal point,
UTF-8; each column holds str values or numbers throughout, written by one
template (%s, or %.12g, exact for integers below 1e12) so identical scenarios
produce byte-identical files.  Each file is formatted in memory and written
in one call; the writers return the SHA-256 of the bytes written, which the
manifest records without reading the files back (`validate_manifest` does).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np


def _write(path, text: str) -> str:
    """Write text as UTF-8 in one call; return the SHA-256 of its bytes."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_csv(path, columns, rows, comments=()) -> str:
    """columns: list of names; rows: a 2-D array, or a sequence of
    equal-length sequences.  Returns the SHA-256 of the bytes written.

    The first row's value types give the line template: %s for a str, %.12g
    for a number (an integer below 1e12 comes out as %d writes it).  One %
    operation applies it to every value, so a str in a number column raises
    TypeError.
    """
    if isinstance(rows, np.ndarray):
        first, values = rows[:1].tolist(), rows.ravel().tolist()
    else:
        first, values = rows[:1], [v for row in rows for v in row]
    template = ",".join("%s" if isinstance(v, str) else "%.12g"
                        for row in first for v in row) + "\n"
    parts = [f"# {line}\n" for line in comments]
    parts.append(",".join(columns) + "\n")
    parts.append(template * len(rows) % tuple(values))
    return _write(path, "".join(parts))


def write_json(path, payload) -> str:
    """Sorted, indented JSON plus a newline; returns the SHA-256 written."""
    return _write(path, json.dumps(payload, indent=2, sort_keys=True,
                                   allow_nan=True) + "\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunWriter:
    """Tracks files written by a run: checksums for the manifest, cleanup of
    partial outputs on failure.  `files` maps each file name to the SHA-256
    of the bytes written to it."""

    out_dir: str
    files: dict = field(default_factory=dict)
    assumptions: list = field(default_factory=list)

    def __post_init__(self):
        os.makedirs(self.out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def csv(self, name, columns, rows, comments=()) -> None:
        self.files[name] = write_csv(self.path(name), columns, rows, comments)

    def json(self, name, payload) -> None:
        self.files[name] = write_json(self.path(name), payload)

    def note(self, text: str) -> None:
        self.assumptions.append(text)

    def discard_all(self) -> None:
        for name in self.files:
            try:
                os.unlink(self.path(name))
            except OSError:
                pass
        self.files.clear()

    def manifest(self, scenario_raw, version, wall_clock_s) -> str:
        payload = {
            "version": version,
            "wall_clock_s": round(wall_clock_s, 3),
            "scenario": scenario_raw,
            "assumptions": self.assumptions,
            "outputs": self.files,
        }
        p = self.path("run_manifest.json")
        write_json(p, payload)
        return p


def validate_manifest(out_dir) -> list:
    """Recompute checksums against run_manifest.json; returns the outputs
    that are missing or differ."""
    with open(os.path.join(out_dir, "run_manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    bad = []
    for name, digest in manifest["outputs"].items():
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path) or sha256_file(path) != digest:
            bad.append(name)
    return bad
