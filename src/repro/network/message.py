"""Traffic classification.

The interconnect carries protocol messages bare.  Every message names
its own size (``payload_bytes``) and class (``traffic_class``); for
accounting, each one is split into a fixed header (counted as
*overhead*) and a payload counted under one of the Figure 9 traffic
classes:

* ``commit``     — commit-protocol addresses and control (probe, skip,
                   mark, commit, abort, TID traffic, invalidations, acks);
* ``miss``       — data moved to satisfy remote load misses;
* ``writeback``  — committed data returning to its home node (write-backs
                   and flushes);
* ``overhead``   — packet headers (every message pays this).
"""

CLASS_COMMIT = "commit"
CLASS_MISS = "miss"
CLASS_WRITEBACK = "writeback"
CLASS_OVERHEAD = "overhead"

TRAFFIC_CLASSES = (CLASS_COMMIT, CLASS_MISS, CLASS_WRITEBACK, CLASS_OVERHEAD)

#: Fixed per-packet header: route, type, TID tag, address — 8 bytes is the
#: conventional flit-header allowance used in DSM studies.
HEADER_BYTES = 8
