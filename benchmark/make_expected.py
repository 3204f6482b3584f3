"""Recompute benchmark/expected.json: answer checksums at seed 0.

    PYTHONPATH=src python benchmark/make_expected.py

Covers every question at scale 1 (which must equal the committed
goldens) and each workload's questions at its own scale.  Answers come
from the semi-naive object lane and must equal the production lane's;
the script refuses to write the file otherwise.  Run it only when the
generator or the inventory changes on purpose.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED_JSON, WORKLOADS, mix_questions, production_lane

SEED = 0


def main() -> int:
    from repro.obs import instance_checksum
    from repro.workloads.supply_chain import (
        QUESTIONS,
        answer_question,
        supply_chain_instance,
    )

    by_scale: dict[int, list] = {1: list(QUESTIONS)}
    for workload in WORKLOADS.values():
        names = {q.name for q in by_scale.setdefault(workload.scale, [])}
        by_scale[workload.scale] += [q for q in mix_questions(workload.mix)
                                     if q.name not in names]
    lane = production_lane(answer_question)
    scales = {}
    for scale, questions in sorted(by_scale.items()):
        inst = supply_chain_instance(scale, SEED)
        answers = {}
        for question in questions:
            reference = answer_question(question, inst, strategy="seminaive")
            production = answer_question(question, inst, **lane)
            if production.checksum != reference.checksum:
                print(f"scale {scale} {question.name}: production lane "
                      f"{production.checksum} != object lane "
                      f"{reference.checksum}", file=sys.stderr)
                return 1
            answers[question.name] = {"checksum": reference.checksum,
                                      "rows": len(reference.rows)}
        scales[str(scale)] = {"instance_checksum": instance_checksum(inst),
                              "questions": answers}
    with open(EXPECTED_JSON, "w", encoding="utf-8") as handle:
        json.dump({"seed": SEED, "lane": "seminaive object",
                   "scales": scales}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
