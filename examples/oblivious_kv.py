#!/usr/bin/env python
"""Oblivious key-value store: the downstream-application view.

Runs a small document store over AB-ORAM with the full secure data
path: values are chunked over 64B blocks, every chunk access is an
oblivious Ring ORAM access, payloads live in memory only as ChaCha20
ciphertext under a Merkle tree, and chain padding hides value sizes.
Prints what an integrator cares about: per-operation ORAM cost and the
space bill of the underlying scheme.

Run:  python examples/oblivious_kv.py [--levels 9] [--pad-chunks 4]
"""

import argparse

from repro.analysis.report import render_mapping_table
from repro.app.kvstore import ObliviousKV

DOCUMENTS = {
    b"shopping-list": b"eggs, milk, 2x oblivious RAM",
    b"diary-entry": (b"Dear diary, today the memory bus learned "
                     b"nothing about my access pattern. " * 4),
    b"ssh-key": bytes(range(64)) * 2,
    b"empty-note": b"",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, default=9)
    parser.add_argument("--scheme", default="ab")
    parser.add_argument("--pad-chunks", type=int, default=4,
                        help="pad chains to multiples of this (hides sizes)")
    args = parser.parse_args()

    kv = ObliviousKV.create(scheme=args.scheme, levels=args.levels, seed=1,
                            pad_chunks=args.pad_chunks)

    rows = []
    for key, value in DOCUMENTS.items():
        before = kv.oram.online_accesses
        kv.put(key, value)
        put_cost = kv.oram.online_accesses - before
        before = kv.oram.online_accesses
        got = kv.get(key)
        get_cost = kv.oram.online_accesses - before
        assert got == value
        rows.append({
            "key": key.decode(),
            "value_bytes": len(value),
            "chain_blocks": len(kv._directory[key]),
            "put_oram_accesses": put_cost,
            "get_oram_accesses": get_cost,
        })
    print(render_mapping_table(
        rows,
        title=(f"Document store over {kv.oram.cfg.name} "
               f"(pad_chunks={args.pad_chunks}: same-bucket sizes cost "
               "identical access counts)"),
    ))
    print()

    # Tamper with the memory image: the next read must fail loudly.
    ds = kv.oram.datastore
    chain = kv._directory[b"ssh-key"]
    # Find where the first chunk currently lives and flip one byte.
    import numpy as np
    store = kv.oram.store
    loc = np.argwhere(store.slots == chain[0])
    tampered = False
    if loc.size:
        b, s = map(int, loc[0])
        if s >= store.z_max:
            # A slot the bucket rents: its bytes live at the host.
            ext, i = kv.oram.ext, s - store.z_max
            b, s = int(ext.host_bucket[b, i]), int(ext.host_slot[b, i])
        ds.tamper_payload(b, s)
        try:
            kv.get(b"ssh-key")
        except Exception as exc:
            print(f"tamper detection: flipping one ciphertext byte -> "
                  f"{type(exc).__name__}: {exc}")
            tampered = True
    if not tampered:
        print("tamper demo skipped (block was in the stash, not the tree)")
    print()

    s = kv.stats()
    print(render_mapping_table([s], title="Store statistics"))


if __name__ == "__main__":
    main()
