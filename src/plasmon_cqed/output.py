"""Deterministic CSV/JSON artifact writers and the run manifest.

CSV convention: '#'-prefixed header comments carrying units, decimal point,
UTF-8, fixed %.12g formatting so identical scenarios produce byte-identical
files.  Each file is formatted in memory and written in one call; the writers
return the SHA-256 of the bytes written, which the manifest records without
reading the files back (`validate_manifest` does read them).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np


def _row_template(types) -> str:
    """%-template of one CSV line for values of these types: str as is, Python
    int (not bool) exactly, anything else as a float at %.12g."""
    return ",".join(
        "%s" if issubclass(t, str)
        else "%d" if issubclass(t, int) and not issubclass(t, bool)
        else "%.12g" for t in types) + "\n"


def _write(path, text: str) -> str:
    """Write text as UTF-8 in one call; return the SHA-256 of its bytes."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_csv(path, columns, rows, comments=()) -> str:
    """columns: list of names; rows: a 2-D float array, or an iterable of
    equal-length sequences.  Returns the SHA-256 of the bytes written.

    A float array (dtype kind "f") is formatted by one all-float template
    applied once to all of its values.  Any other rows are formatted one by
    one, by one template per distinct sequence of value types (in practice
    one per file), so str and Python int values keep their own formats.  Both
    paths give the bytes of per-value formatting.
    """
    parts = [f"# {line}\n" for line in comments]
    parts.append(",".join(columns) + "\n")
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        nrows, ncols = rows.shape
        parts.append(_row_template((float,) * ncols) * nrows
                     % tuple(rows.ravel().tolist()))
    else:
        templates = {}
        for row in rows:
            row = tuple(row)
            types = tuple(map(type, row))
            template = templates.get(types)
            if template is None:
                template = templates[types] = _row_template(types)
            parts.append(template % row)
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

    def csv(self, name, columns, rows, comments=()) -> str:
        p = self.path(name)
        self.files[name] = write_csv(p, columns, rows, comments)
        return p

    def json(self, name, payload) -> str:
        p = self.path(name)
        self.files[name] = write_json(p, payload)
        return p

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
    """Recompute checksums against run_manifest.json; returns mismatches."""
    with open(os.path.join(out_dir, "run_manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    bad = []
    for name, digest in manifest["outputs"].items():
        actual = sha256_file(os.path.join(out_dir, name))
        if actual != digest:
            bad.append(name)
    return bad
