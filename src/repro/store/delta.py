"""Re-export of the payload column readers under their former module.

:class:`SnapshotView` and :class:`ResultView` live in
:mod:`repro.store.codec` beside their encoders (one module owns the
layout).  This module only keeps the old import path, which the
benchmark's per-layer ``TARGETS`` (``perfbench/layers.py``) still name.
Incremental ingest diffs the per-domain signatures inline
(:meth:`repro.engine.incremental.IncrementalInferencer.ingest`).
"""

from __future__ import annotations

from .codec import ResultView, SnapshotView

__all__ = ["ResultView", "SnapshotView"]
