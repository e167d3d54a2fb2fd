"""Read back the waveform CSV files the package writes.

No subcommand reads a CSV, so the reader lives with the tests: it checks
every file it reads as strictly as a loader of outside input would.
"""

import numpy as np

from ucspd.errors import ValidationError
from ucspd.waveform import CSV_GRID_RTOL, SampledWaveform

CSV_HEADER = "t_fs,value"


def read_csv(path):
    """Read a waveform written by ``ucspd.waveform.write_csv``.

    Returns the waveform and a dict of the ``# key=value`` comment lines.
    The time column must form a uniform, strictly increasing grid; spacings
    deviating by more than 1e-6 relative are rejected.
    """
    metadata: dict[str, str] = {}
    rows: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if header_seen:
                    raise ValidationError(f"{path}: comment after header at line {lineno}")
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            if not header_seen:
                if line != CSV_HEADER:
                    raise ValidationError(
                        f"{path}: expected header {CSV_HEADER!r}, got {line!r}"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValidationError(f"{path}: expected two columns at line {lineno}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ValidationError(f"{path}: bad number at line {lineno}: {exc}") from exc
    if not header_seen:
        raise ValidationError(f"{path}: missing {CSV_HEADER!r} header")
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least two samples, got {len(rows)}")
    t = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    diffs = np.diff(t)
    dt = float(np.median(diffs))
    if dt <= 0.0:
        raise ValidationError(f"{path}: time column must be strictly increasing")
    if np.any(np.abs(diffs - dt) > CSV_GRID_RTOL * dt):
        raise ValidationError(
            f"{path}: time grid is not uniform within {CSV_GRID_RTOL:g} relative"
        )
    dt = float((t[-1] - t[0]) / (len(t) - 1))
    return SampledWaveform(float(t[0]), dt, v), metadata
