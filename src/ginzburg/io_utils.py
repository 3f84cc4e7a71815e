"""Deterministic file emission: CSV data, JSON reports, run manifests.

Every float is written with 17 significant digits (round-trip exact for
IEEE doubles), '.' decimal separator and '\\n' line endings, so identical
inputs produce byte-identical files on every platform.  Each CLI run drops
a manifest JSON next to its primary output recording the resolved
parameters, options, and the SHA-256 of every file written; `ginzburg
rerun <manifest>` replays the stored argv and verifies the hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .errors import ValidationError


def format_value(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    if isinstance(x, str):
        if any(c in x for c in ",\n\r\""):
            raise ValidationError(f"CSV field needs no quoting by design, got {x!r}")
        return x
    try:
        return format_value(float(x))
    except (TypeError, ValueError):
        raise ValidationError(f"cannot format {type(x).__name__} for CSV") from None


def write_csv(path, header, rows) -> Path:
    """Write rows (iterables matching header length) deterministically."""
    path = Path(path)
    ncol = len(header)
    lines = [",".join(header)]
    for row in rows:
        row = list(row)
        if len(row) != ncol:
            raise ValidationError(
                f"row has {len(row)} fields, header has {ncol}")
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")
    return path


def sha256_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass
class RunManifest:
    """Everything needed to reproduce and verify one CLI run."""

    subcommand: str
    argv: list
    params: dict
    options: dict
    outputs: list = field(default_factory=list)   # {path, sha256, bytes}
    version: str = ""
    wall_time_s: float = 0.0
    created_utc: str = ""

    def record_output(self, path):
        path = Path(path)
        self.outputs.append({"path": str(path), "sha256": sha256_file(path),
                             "bytes": path.stat().st_size})

    def to_dict(self) -> dict:
        return asdict(self)


def manifest_path_for(primary_output) -> Path:
    primary_output = Path(primary_output)
    return primary_output.with_name(primary_output.stem + ".manifest.json")


def write_manifest(manifest: RunManifest) -> Path:
    if not manifest.outputs:
        raise ValidationError("manifest has no outputs to sit next to")
    path = manifest_path_for(manifest.outputs[0]["path"])
    manifest.created_utc = manifest.created_utc or time.strftime(
        "%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return write_json(path, manifest.to_dict())


def load_manifest(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"manifest {path} does not exist")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest {path}: invalid JSON ({exc})") from exc
    for key in ("subcommand", "argv", "outputs"):
        if key not in data:
            raise ValidationError(f"manifest {path}: missing key {key!r}")
    return data
