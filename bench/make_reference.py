"""Regenerate bench/reference.json from one untraced sample per workload.

Run from the root of a checkout whose outputs are known to be right:

    python3 bench/make_reference.py
"""

import json

import workloads
from run import BENCH, spawn


def main() -> None:
    reference = {}
    for name in workloads.WORKLOADS:
        reply = spawn({"workload": name, "inputs": workloads.make_inputs(name, 0), "trace": False})
        reference[name] = workloads.reference_entry(name, reply["outputs"])
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
