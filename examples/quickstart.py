#!/usr/bin/env python
"""Quickstart: an AB-ORAM instance as an oblivious block device.

Builds the paper's AB scheme on a small tree, writes and reads a few
blocks through the full Ring ORAM protocol (readPath / evictPath /
earlyReshuffle / remote allocation), and prints the space and runtime
reports.

Run:  python examples/quickstart.py [--levels 12] [--scheme ab]
"""

import argparse

from repro import AbOram
from repro.analysis.report import render_mapping_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, default=12,
                        help="ORAM tree levels (default 12)")
    parser.add_argument("--scheme", default="ab",
                        choices=["baseline", "ir", "dr", "ns", "ab", "ring"],
                        help="paper scheme to instantiate (default ab)")
    parser.add_argument("--accesses", type=int, default=500,
                        help="random accesses to drive after the demo")
    args = parser.parse_args()

    oram = AbOram.from_scheme(args.scheme, levels=args.levels, seed=1)
    print(oram.cfg.describe())
    print()

    # -- the block-device API: every write/read is one oblivious access.
    oram.write(0, b"attack at dawn")
    oram.write(1, {"any": "python object"})
    oram.write(2, 42)
    assert oram.read(0) == b"attack at dawn"
    assert oram.read(1) == {"any": "python object"}
    assert oram.read(2) == 42
    print("roundtrip of 3 blocks: ok")

    # -- drive random traffic so the maintenance machinery has work.
    import random
    rng = random.Random(7)
    for i in range(args.accesses):
        block = rng.randrange(oram.n_blocks)
        if rng.random() < 0.5:
            oram.write(block, i)
        else:
            oram.read(block)
    oram.check()  # full protocol invariant check
    print(f"{args.accesses} random accesses: invariants hold")
    print()

    space = oram.space_report()
    print(render_mapping_table([space], title="Space report"))
    print()

    run = oram.runtime_report()
    summary = {
        "online_accesses": run["online_accesses"],
        "evictions": run["evictions"],
        "stash_peak": run["stash_peak"],
        "dead_blocks_now": run["dead_blocks"],
    }
    if "remote" in run:
        summary["extension_ratio"] = round(
            run["remote"]["extension_ratio"], 3
        )
        summary["remote_reads"] = run["remote"]["remote_reads"]
    print(render_mapping_table([summary], title="Runtime report"))


if __name__ == "__main__":
    main()
