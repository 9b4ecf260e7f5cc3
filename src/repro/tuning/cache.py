"""Persistent tuning cache — schema ``snowflake-tune/2``.

A search winner is stored per ``(tune_tag, backend, machine
fingerprint)``:

* ``tune_tag`` identifies *what is being tuned* — the
  :func:`repro.backends.jit.source_tag` of the group's baseline C
  rendering (default :class:`~repro.schedule.ScheduleOptions`), which
  keys on the stencil definitions, dtype **and** the active C compiler
  exactly like the JIT artifact cache, hashed together with the shapes
  (the rendering is size-generic, a winner is not);
* the backend identifies *what it was measured on* — the best numpy
  schedule says nothing about the best C one;
* the machine fingerprint identifies *where it was measured* — a
  winner tuned on one machine must not silently steer another.

Files live in :func:`repro.backends.jit.cache_dir` (honouring
``SNOWFLAKE_CACHE_DIR``) as
``sf_tune_<tag>.<backend>.<fingerprint>.json``.  Nothing reads them
unasked: ``compile(..., schedule="tuned")`` is the one way to use a
winner (:meth:`repro.backends.base.Backend.pop_schedule`).  Every
failure mode of :func:`load_winner` degrades to ``None`` — tuning must
never break compilation.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from typing import Mapping

import numpy as np

from ..core.stencil import StencilGroup
from ..schedule.options import ScheduleOptions

__all__ = [
    "TUNE_SCHEMA",
    "machine_fingerprint",
    "tune_tag",
    "winner_path",
    "save_winner",
    "load_winner",
    "options_from_dict",
]

#: schema tag stamped into every cache file (versioned like
#: ``snowflake-stats/1``)
TUNE_SCHEMA = "snowflake-tune/2"


def machine_fingerprint() -> str:
    """Short stable fingerprint of the measuring machine + toolchain."""
    from ..backends.jit import _cc

    raw = repr(
        (platform.system(), platform.machine(), os.cpu_count(), _cc())
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


def tune_tag(
    group: StencilGroup, shapes: Mapping[str, tuple[int, ...]]
) -> str:
    """Identity of the tuned program: source tag of the baseline render
    and the shapes.

    Rendering is pure Python (no compiler invoked), so the tag is
    available even where the C toolchain is not.
    """
    from ..backends.c_backend import generate_c_source
    from ..backends.jit import source_tag

    norm = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
    source = generate_c_source(
        group, norm, np.float64, schedule=ScheduleOptions()
    )
    raw = source_tag(source) + repr(sorted(norm.items()))
    return hashlib.sha256(raw.encode()).hexdigest()[:24]


def winner_path(
    group: StencilGroup, shapes: Mapping[str, tuple[int, ...]], backend: str
):
    """Cache-file path for this group/shapes/backend on this machine.

    ``backend`` is the registry name (``Backend.name``), not an alias.
    """
    from ..backends.jit import cache_dir

    tag = tune_tag(group, shapes)
    return cache_dir() / f"sf_tune_{tag}.{backend}.{machine_fingerprint()}.json"


def options_from_dict(d: Mapping) -> ScheduleOptions:
    """Rebuild a :class:`ScheduleOptions` from its ``to_dict`` form."""
    block = d.get("block")
    return ScheduleOptions(
        policy=d.get("policy", "greedy"),
        fuse=bool(d.get("fuse", False)),
        multicolor=bool(d.get("multicolor", True)),
        tile=d.get("tile"),
        block=tuple(block) if block is not None else None,
        time_tile=int(d.get("time_tile", 1)),
        unroll=d.get("unroll"),
    )


def save_winner(
    group: StencilGroup,
    shapes: Mapping[str, tuple[int, ...]],
    options: ScheduleOptions,
    *,
    backend: str,
    measured_s: float,
    predicted_s: float | None = None,
    trials: int = 0,
) -> str:
    """Persist a search winner; returns the file path written."""
    norm = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
    path = winner_path(group, norm, backend)
    doc = {
        "schema": TUNE_SCHEMA,
        "created": round(time.time(), 3),
        "group": group.name,
        "tune_tag": tune_tag(group, norm),
        "fingerprint": machine_fingerprint(),
        "backend": backend,
        "shapes": {g: list(s) for g, s in sorted(norm.items())},
        "options": options.to_dict(),
        "measured_s": measured_s,
        "predicted_s": predicted_s,
        "trials": trials,
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return str(path)


def load_winner(
    group: StencilGroup, shapes: Mapping[str, tuple[int, ...]], backend: str
) -> dict | None:
    """Load and validate this group/shapes/backend's winner, or ``None``."""
    try:
        path = winner_path(group, shapes, backend)
        if not path.exists():
            return None
        doc = json.loads(path.read_text())
        options_from_dict(doc["options"])
    except Exception:
        return None
    wanted = (TUNE_SCHEMA, machine_fingerprint(), backend)
    if (doc.get("schema"), doc.get("fingerprint"), doc.get("backend")) != wanted:
        return None
    return doc
