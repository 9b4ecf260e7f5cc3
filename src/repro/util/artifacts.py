"""Where exported artifacts land: ``SNOWFLAKE_ARTIFACT_DIR`` plumbing.

Every exporter in the repo (``repro stats --json``, ``trace.json``,
``repro top --out``) historically wrote into the current working
directory — fine for a one-shot CLI, littering for a long-lived
service.  :func:`artifact_path` is the one
policy point: explicit paths are honoured verbatim, *bare filenames*
are redirected into ``SNOWFLAKE_ARTIFACT_DIR`` when it is set (created
on demand), and the CWD remains the default when it is not.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["artifact_dir", "artifact_path"]


def artifact_dir() -> Path | None:
    """The configured artifact directory, or ``None`` (use the CWD)."""
    raw = os.environ.get("SNOWFLAKE_ARTIFACT_DIR", "").strip()
    return Path(raw) if raw else None


def artifact_path(path: str | os.PathLike) -> Path:
    """Resolve where an artifact should be written.

    A path that names a directory (``out/trace.json``, an absolute
    path, an explicit ``./trace.json``) is returned unchanged — the
    caller chose.  A *bare filename* defaults into
    ``SNOWFLAKE_ARTIFACT_DIR`` when set, creating the directory; the
    filename alone otherwise (today's CWD behaviour).
    """
    p = Path(path)
    if p.parent != Path("."):
        return p
    if isinstance(path, str) and path.startswith(("./", ".\\")):
        return p  # an explicit CWD choice, not a bare name
    d = artifact_dir()
    if d is None:
        return p
    d.mkdir(parents=True, exist_ok=True)
    return d / p.name
