"""Reading and writing the Roaring stored form, over the e2e store's payloads.

Builds the ``facts`` store of ``benchmarks/e2e`` (1M rows, seed 1) in
the Roaring codec, takes every payload it holds (142 at that size: the
slot bitmaps and each attribute's existence bitmap), and times, per pass
over all of them:

- ``crc``: the CRC-32 a store checks on first read;
- ``from_payload``: the parse, its structural checks included;
- ``validate``: those checks alone (``roaring._validate``);
- ``to_payload``: writing each bitmap back out.

Each figure is the median and the quartiles of ``--repeats`` passes, in
milliseconds.  The script reads the package it is run against, so the
same file times two checkouts::

    PYTHONPATH=src python benchmarks/bench_roaring_payload.py
    PYTHONPATH=src python benchmarks/bench_roaring_payload.py --rows 20000 --repeats 3
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import zlib

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "e2e"))

from facts import RELATION, build_store, generate_columns  # noqa: E402

from repro.bitmaps import roaring  # noqa: E402
from repro.bitmaps.bitvector import _count_bits  # noqa: E402
from repro.storage.store import IndexStore  # noqa: E402


def stored_payloads(root: str) -> tuple[int, list[bytes]]:
    """The row count and a copy of every payload of the relation's
    ``.rbix`` file, as the store's own reader locates them."""
    with IndexStore(root) as store:
        image = store._file(RELATION)
        entries = [
            entry
            for meta in image.attrs.values()
            for entry in [*meta.slots.values(), meta.nonnull]
            if entry is not None
        ]
        payloads = [
            bytes(image._buf[image.payload_start + off : image.payload_start + off + n])
            for off, n, _ in entries
        ]
        return image.nbits, payloads


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = np.percentile(np.array(samples) * 1e3, [25, 50, 75])
    return {"median_ms": round(median, 3), "q1_ms": round(q1, 3), "q3_ms": round(q3, 3)}


def timed(work, repeats: int) -> dict:
    samples = []
    for _ in range(repeats):
        began = time.perf_counter()
        work()
        samples.append(time.perf_counter() - began)
    return quartiles(samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as root:
        build_store(root, generate_columns(args.rows, args.seed), "roaring")
        nbits, payloads = stored_payloads(root)
    parse = roaring.RoaringBitmap.from_payload
    bitmaps = [parse(blob, nbits) for blob in payloads]
    # What _validate is handed: the containers, and the bitmap ones' cardinalities.
    checked = [(b._containers, _count_bits(b._containers.words, axis=1)) for b in bitmaps]
    for _ in range(2):  # first touch of every page and temporary
        [parse(blob, nbits) for blob in payloads]
    report = {
        "rows": args.rows,
        "payloads": len(payloads),
        "bytes": sum(map(len, payloads)),
        "crc": timed(lambda: [zlib.crc32(blob) for blob in payloads], args.repeats),
        "from_payload": timed(lambda: [parse(blob, nbits) for blob in payloads], args.repeats),
        "validate": timed(
            lambda: [roaring._validate(nbits, *pair) for pair in checked], args.repeats
        ),
        "to_payload": timed(lambda: [bitmap.to_payload() for bitmap in bitmaps], args.repeats),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
