"""Regenerate reference.json: each catalogue item's relaxation objective and oracle optimum.

    python3 perfbench/make_reference.py

Both values depend only on an item's bands and alpha, not on its seed, so
one solve per item fixes them for every run. The stored file was made at
the commit that introduced the benchmark; regenerate it only when an item
is added or changed, never to absorb a changed answer.
"""

import json
import sys

from run import HERE, import_package


def main() -> int:
    import_package()
    import workloads
    from specseq import exhaustive_search, solve_relaxation

    reference = {"objective": {}, "oracle_power": {}}
    for name in workloads.WORKLOADS:
        for item in workloads.catalogue(name):
            p = item.problem(0)
            reference["objective"][item.key] = solve_relaxation(p).objective
            if item.kind == "oracle":
                optimum = exhaustive_search(p).best_by_power[1].message_power
                reference["oracle_power"][item.key] = optimum
    text = json.dumps(reference, indent=2, sort_keys=True) + "\n"
    (HERE / "reference.json").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
