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
import time
from pathlib import Path

from .errors import ValidationError


def format_value(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        # also nan (of either sign), inf and -inf
        return f"{x:.17g}"
    raise ValidationError(f"cannot format {type(x).__name__} for CSV")


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
    """Write payload as strict JSON; a non-finite number raises
    ValidationError before the file is opened."""
    path = Path(path)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(
            f"{path} not written: {exc} (inf and nan have no JSON form)") from None
    path.write_text(text + "\n", encoding="utf-8", newline="\n")
    return path


def sha256_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def manifest_path_for(primary_output) -> Path:
    primary_output = Path(primary_output)
    return primary_output.with_name(primary_output.stem + ".manifest.json")


def write_manifest(outputs, **record) -> Path:
    """Write record plus the path, SHA-256 and size of every output and the
    UTC creation time next to the first output; returns the manifest path.

    The CLI's record holds subcommand, argv, params, options, version and
    wall_time_s: everything needed to reproduce and verify the run.
    """
    if not outputs:
        raise ValidationError("manifest has no outputs to sit next to")
    paths = [Path(path) for path in outputs]
    record["outputs"] = [{"path": str(path), "sha256": sha256_file(path),
                          "bytes": path.stat().st_size} for path in paths]
    record["created_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return write_json(manifest_path_for(paths[0]), record)


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
