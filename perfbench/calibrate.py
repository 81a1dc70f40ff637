"""Fixed reference program that measures how fast the host is right now.

    python3 perfbench/calibrate.py

run.py starts it as a fresh child between measured commands. It does the
same kinds of work as `redload analyze`, in the benchmark's own code:
start an interpreter, decode packed records into small objects, update
dicts keyed by address and by context, keep a call stack, and serialise
the result as JSON. It never imports the program, so a change to the
program does not change its time; a change in the host's speed does.
The work is the same on every run; it prints nothing.
"""

import json
import struct
from collections import namedtuple

RECORDS = 60_000
FORMAT = "<BBQHQI"

Record = namedtuple("Record", "kind tid addr size value site")


def main():
    buf = bytearray()
    for i in range(RECORDS):
        buf += struct.pack(FORMAT, i % 5, i & 1, (i * 2654435761) & 0xffffff,
                           8, i % 97, i % 613)
    shadow = {}
    sizes = {}
    stack = []
    rows = {}
    for fields in struct.iter_unpack(FORMAT, buf):
        r = Record(*fields)
        if r.kind == 0:
            stack.append(r.site)
        elif r.kind == 1 and stack:
            stack.pop()
        key = (r.tid, r.addr >> 3)
        old = shadow.get(key)
        shadow[key] = (r.value, tuple(stack[-4:]))
        if old is not None and old[0] == r.value:
            pair = (old[1], r.site)
            rows[pair] = rows.get(pair, 0) + 1
        sizes[r.site] = sizes.get(r.site, 0) + r.size
    out = [{"context": list(k[0]), "site": k[1], "count": v}
           for k, v in rows.items()]
    json.dumps({"rows": out, "sizes": sizes}, indent=1)


if __name__ == "__main__":
    main()
