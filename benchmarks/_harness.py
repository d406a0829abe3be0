"""Result-file writer shared by the benchmarks that keep a run history.

``bench_core_speed.py``, ``bench_scale.py`` and
``bench_control_plane_soak.py`` each write one ``BENCH_*.json``: the top
level is the latest run, and ``history`` carries the previous runs
forward (the newest :data:`HISTORY_LIMIT` of them).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

HISTORY_LIMIT = 50


def write_result(result: Dict[str, object], path: Path) -> None:
    """Write ``result`` to ``path``, carrying forward the run history."""
    history: List[Dict[str, object]] = []
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except (OSError, ValueError):
            previous = None
        if isinstance(previous, dict) and "metrics" in previous:
            history = list(previous.get("history", []))
            history.append({k: previous[k] for k in
                            ("quick", "python", "timestamp", "metrics")
                            if k in previous})
    result = dict(result)
    result["history"] = history[-HISTORY_LIMIT:]
    path.write_text(json.dumps(result, indent=1) + "\n")
