#!/usr/bin/env python3
"""Check that every track of a vp-perfetto-trace/1 file nests.

usage: python3 test/trace_nesting.py TRACE.json...

On each (pid, tid) track, any two complete ("X") events must be
disjoint or one inside the other, with 0.002 us of slack for the
writer's %.3f rounding of ts and dur.  Prints one line per file with
its event, track and mis-nested pair counts; exits 1 if any file has
a mis-nested pair.
"""

import json
import sys
from collections import defaultdict

SLACK = 0.002


def misnested_pairs(events):
    """Mis-nested pairs among one track's (ts, dur) events."""
    evs = sorted(events, key=lambda e: (e[0], -e[1]))
    bad = 0
    for i, (ts, dur) in enumerate(evs):
        end = ts + dur
        for ts2, dur2 in evs[i + 1:]:
            if ts2 >= end - SLACK:
                break  # this and every later start are disjoint from i
            end2 = ts2 + dur2
            inside = end2 <= end + SLACK
            contains = ts2 <= ts + SLACK and end <= end2 + SLACK
            if not (inside or contains):
                bad += 1
    return bad


def main(paths):
    failed = False
    for path in paths:
        with open(path) as f:
            trace = json.load(f)
        tracks = defaultdict(list)
        for e in trace["traceEvents"]:
            if e.get("ph") == "X":
                tracks[(e["pid"], e["tid"])].append((e["ts"], e["dur"]))
        bad = sum(misnested_pairs(evs) for evs in tracks.values())
        n = sum(len(evs) for evs in tracks.values())
        print(f"{path}: {n} spans on {len(tracks)} tracks, {bad} mis-nested pairs")
        failed = failed or bad > 0
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
