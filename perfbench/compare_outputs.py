"""Compare the outputs of two benchmark records at the benchmark's tolerance.

    python3 perfbench/compare_outputs.py parent/perfbench/out/march_pec-seed7-trace0.json \
        change/perfbench/out/march_pec-seed7-trace0.json

Exits 0 when every output of the first record is reproduced by the second
(1e-12 relative; the energy-identity residual 1e-12 absolute), 1 otherwise.
"""

import json
import sys

RTOL = 1e-12                     # outputs must repeat to this relative tolerance
ABSOLUTE = {"energy_residual"}   # already relative to the data energy: compared absolutely


def differences(want, got):
    """Each output of `want` that `got` misses or does not reproduce."""
    found = []
    for key, w in want.items():
        g = got.get(key)
        scale = 1.0 if key in ABSOLUTE else abs(w)
        if g is None or not abs(g - w) <= RTOL * scale:
            found.append(f"{key}: {w!r} -> {g!r}")
    return found


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.load(open(path)) for path in argv)
    if (first["workload"], first["seed"]) != (second["workload"], second["seed"]):
        print("error: the records are of different workloads or seeds", file=sys.stderr)
        return 2
    found = differences(first["outputs"], second["outputs"])
    for line in found:
        print(line)
    print("outputs match" if not found else f"{len(found)} output(s) differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
