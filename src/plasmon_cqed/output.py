"""Deterministic CSV/JSON artifact writers and the run manifest.

CSV convention: '#'-prefixed header comments carrying units, decimal point,
UTF-8, fixed %.12g formatting so identical scenarios produce byte-identical
files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field


def _row_template(types) -> str:
    """%-template of one CSV line for values of these types: str as is, Python
    int (not bool) exactly, anything else as a float at %.12g."""
    return ",".join(
        "%s" if issubclass(t, str)
        else "%d" if issubclass(t, int) and not issubclass(t, bool)
        else "%.12g" for t in types) + "\n"


def write_csv(path, columns, rows, comments=()) -> None:
    """columns: list of names; rows: iterable of equal-length sequences.

    Each row is formatted by one template per distinct sequence of value
    types, in practice one per file.
    """
    templates = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            row = tuple(row)
            types = tuple(map(type, row))
            template = templates.get(types)
            if template is None:
                template = templates[types] = _row_template(types)
            fh.write(template % row)


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunWriter:
    """Tracks files written by a run: checksums for the manifest, cleanup of
    partial outputs on failure."""

    out_dir: str
    files: list = field(default_factory=list)
    assumptions: list = field(default_factory=list)

    def __post_init__(self):
        os.makedirs(self.out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def csv(self, name, columns, rows, comments=()) -> str:
        p = self.path(name)
        write_csv(p, columns, rows, comments)
        self.files.append(name)
        return p

    def json(self, name, payload) -> str:
        p = self.path(name)
        write_json(p, payload)
        self.files.append(name)
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
            "outputs": {name: sha256_file(self.path(name))
                        for name in sorted(self.files)},
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
