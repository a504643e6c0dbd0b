"""Host-speed calibration: a fixed reference workload owned by the benchmark.

The benchmark's host is a few shared vCPUs whose speed drifts by up to 2x
over minutes, as neighbours come and go.  Picking the fastest of many
repeats removes the seconds-long slowdowns but not a slow phase that
outlasts a whole run.  So the runner also times this reference workload
between measured cycles, and scales every end-to-end time by

    REFERENCE_NOMINAL_S / (fastest reference time of the run)

which reads the run's times "at reference-host speed".  The reference does
the same kinds of work as the platform (object and dict churn, JSON, regular
expressions, an in-memory SQLite table, hashing), never touches the
platform, and must never change: changing it, or the nominal time, rescales
every reported time.
"""

from __future__ import annotations

import hashlib
import json
import re
import sqlite3
import time

#: Fastest reference time on the reference host (2 shared vCPUs, Linux 6.18
#: microVM, CPython 3.11.7).  A fixed constant: only the ratio matters.
REFERENCE_NOMINAL_S = 0.012

_ROWS = 3000
_ADDRESS = re.compile(r"(\d+)\.(\d+)\.(\d+)\.(\d+)")


def reference_seconds() -> float:
    """Wall seconds of one run of the fixed reference workload."""
    start = time.perf_counter()
    rows = [{"uuid": f"{index:032x}",
             "value": f"10.{index % 256}.{(index >> 8) % 256}.{index % 7}",
             "tags": ["tlp:white", "osint", str(index % 13)]}
            for index in range(_ROWS)]
    text = json.dumps(rows, sort_keys=True)
    decoded = json.loads(text)
    db = sqlite3.connect(":memory:")
    try:
        db.execute("CREATE TABLE t (uuid TEXT PRIMARY KEY, value TEXT)")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(row["uuid"], row["value"]) for row in decoded])
        db.execute("SELECT COUNT(*) FROM t WHERE value LIKE '10.1%'"
                   ).fetchone()
    finally:
        db.close()
    index = {}
    for row in decoded:
        octet = _ADDRESS.match(row["value"]).group(2)
        index.setdefault(octet, []).append(row["uuid"])
    hashlib.sha256(text.encode()).hexdigest()
    return time.perf_counter() - start
