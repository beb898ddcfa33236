"""Record the reference answers and groups of every pool item.

    python3 perfbench/record.py [workload ...]

Run from the repository root at the commit whose answers are the reference.
Writes reference/<workload>.json: each item's CLI documents reduced to their
meaning (answers.summarize), and the items of each group (workloads.group)
in order of cost.  The cost is the item's fastest of COST_RUNS runs, in
kernel units.  Exits 1 if any item fails, and then writes nothing for that
workload.
"""

import json
import os
import sys

from run import SRC, kernel_seconds, run_item

sys.path.insert(0, SRC)

import answers  # noqa: E402
import workloads  # noqa: E402

COST_RUNS = 3


def record(workload):
    answer_of, groups, failed = {}, {}, 0
    for item in workloads.candidates(workload):
        seconds, outputs, reason = run_item(item)
        cost = seconds / kernel_seconds()
        key = workloads.item_key(item)
        if reason is None:
            docs = [json.loads(text) for text in outputs]
            reason = answers.consistency(docs) or next(
                filter(None, (answers.profile_residual(doc) for doc in docs
                              if doc["command"] == "profile")), None)
        if reason:
            failed += 1
            print(f"FAILED {key}: {reason}", flush=True)
            continue
        for _ in range(COST_RUNS - 1):
            cost = min(cost, run_item(item)[0] / kernel_seconds())
        answer = [answers.summarize(doc) for doc in docs]
        answer_of[key] = answer
        groups.setdefault(workloads.group(item, answer), []).append((cost, item))
        print(f"{seconds:8.3f}s {cost:10.1f}  {key}", flush=True)
    if failed:
        return failed
    groups = {label: [item for _, item in sorted(members)]
              for label, members in groups.items()}
    os.makedirs(workloads.REFERENCE, exist_ok=True)
    path = os.path.join(workloads.REFERENCE, f"{workload}.json")
    with open(path, "w") as handle:
        json.dump({"groups": groups, "answers": answer_of}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(1 if sum(record(w) for w in sys.argv[1:] or workloads.WORKLOADS) else 0)
