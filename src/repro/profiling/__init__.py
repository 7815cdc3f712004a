"""Profile collection and storage.

The paper's workflow (Figure 7) requires one profile run per application:
the first time an application is seen it runs exclusively on the full GPU
and its Table 3 counters are recorded.  Afterwards those counters — the
application's *features* — feed the performance model, and the application
becomes eligible for co-scheduling.  A profile is only its name and its
counters; every session profiles its suite when it installs a model, so
profiles live in memory and are never written to disk.

* :mod:`repro.profiling.records` — the profile record: name and counters.
* :mod:`repro.profiling.profiler` — collecting profiles with the simulator
  (stand-in for Nsight Compute).
* :mod:`repro.profiling.database` — the append-only in-memory profile
  store, the "Database" box of Figure 1.
* :mod:`repro.profiling.hotspots` — cProfile-backed hot-spot reporting
  for the event-driven simulator (``repro-cli simulate --profile``).
"""

from repro.profiling.database import ProfileDatabase
from repro.profiling.hotspots import HotSpot, HotspotProfiler
from repro.profiling.profiler import ProfileCollector
from repro.profiling.records import ProfileRecord

__all__ = [
    "ProfileRecord",
    "ProfileCollector",
    "ProfileDatabase",
    "HotSpot",
    "HotspotProfiler",
]
