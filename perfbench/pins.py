"""Pinned digests of the workloads' deterministic outputs.

``digests.json`` holds, per workload and seed, the digest of every
checked unit, packed as one string in sorted-key order with a digest of
the key list beside it.  The dev seeds are the ones this benchmark was
written and tuned on; the held-out seeds were only ever run to pin
them, so a later gain can be checked on a seed not used to find it.

Regenerate (one unit per workload and seed, untraced)::

    python3 perfbench/pins.py --dev 0-19 --heldout 1000
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
PIN_FILE = os.path.join(HERE, "digests.json")


def pack(digests: Dict[str, str]) -> dict:
    from spans import digest

    keys = sorted(digests)
    return {"keys": digest(keys), "n": len(keys),
            "digests": "".join(digests[k] for k in keys)}


def unpack(entry: dict, keys: List[str]) -> Dict[str, str]:
    """The pinned digest of every key, given the key set observed.

    A key set that differs from the pinned one maps every key to a
    value no digest can equal, so each counts as a mismatch.
    """
    from spans import digest

    keys = sorted(keys)
    if entry["n"] != len(keys) or entry["keys"] != digest(keys):
        return {k: "<key set changed>" for k in keys}
    width = len(entry["digests"]) // max(1, entry["n"])
    return {k: entry["digests"][i * width:(i + 1) * width]
            for i, k in enumerate(keys)}


def load() -> dict:
    with open(PIN_FILE) as fh:
        return json.load(fh)


def expected(workload: str, seed: int,
             keys: List[str]) -> Optional[Dict[str, str]]:
    """Pinned digests for ``(workload, seed)``, or None if not pinned."""
    entry = load()["workloads"].get(workload, {}).get(str(seed))
    return None if entry is None else unpack(entry, keys)


def seed_kind(seed: int) -> str:
    doc = load()
    if seed in doc["heldout_seeds"]:
        return "held-out"
    return "dev" if seed in doc["dev_seeds"] else "unpinned"


def _seeds(spec: str) -> List[int]:
    out: List[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dev", default="0-19")
    parser.add_argument("--heldout", default="1000")
    parser.add_argument("--workload", action="append",
                        help="only these workloads (default: all)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import workloads
    from instrument import FleetProbe

    dev, heldout = _seeds(args.dev), _seeds(args.heldout)
    doc = {"dev_seeds": dev, "heldout_seeds": heldout, "workloads": {}}
    if os.path.exists(PIN_FILE):
        doc["workloads"] = load()["workloads"]
    names = args.workload or list(workloads.WORKLOADS)
    for name in names:
        table = doc["workloads"].setdefault(name, {})
        for seed in dev + heldout:
            wl = workloads.WORKLOADS[name](seed)
            wl.load()
            probe = None
            if name == "fleet2":
                probe = wl.probe = FleetProbe(wl.SHARDS, timed=False)
                probe.install()
            try:
                unit = wl.run_unit(wl.MODE)
            finally:
                if probe is not None:
                    probe.uninstall()
            if unit.failures:
                print(f"{name} seed {seed}: oracle failures "
                      f"{unit.failures[:3]}", file=sys.stderr)
                return 1
            table[str(seed)] = pack(unit.digests)
            print(f"{name} seed {seed}: {len(unit.digests)} digests "
                  f"({unit.wall_s:.2f} s)", flush=True)
    with open(PIN_FILE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
