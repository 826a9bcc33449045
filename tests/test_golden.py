"""Golden outputs: sha256 of the CSVs of small seeded runs.

Criterion 8 compares reruns inside one process; these digests pin the
bytes across code changes. A change that alters an output on purpose
updates the digest here and says why in CHANGES.md. numpy does not
promise identical Generator streams across its releases, so a numpy
upgrade may also move them.
"""

import hashlib
import os

import pytest

from rrbandit.harness import RunSpec, run_bounds, run_toy, run_vqa

# name -> (runner, experiment, {section.key: value})
RUNS = {
    "toy-rr": ("toy", None, {"run.seeds": "0..4"}),
    "qaoa-rr_powell": ("vqa", "qaoa", {
        "run.optimizer": "rr_powell", "run.sizes": "5,8",
        "run.seeds": "0..1", "run.budget": "300000"}),
    "pqc-rr_reject": ("vqa", "pqc", {
        "run.optimizer": "rr_reject", "run.sizes": "4",
        "run.seeds": "0..1", "run.budget": "200000"}),
    "bounds-wedge": ("bounds", None, {}),
    # one run per optimizer config path the runs above leave unpinned
    "qaoa-spsa": ("vqa", "qaoa", {  # max_iters derived from the budget
        "run.optimizer": "spsa", "run.sizes": "4",
        "run.seeds": "0..1", "run.budget": "200000"}),
    "qaoa-powell_brent": ("vqa", "qaoa", {
        "run.optimizer": "powell_brent", "run.sizes": "4",
        "run.seeds": "0..1", "run.budget": "200000"}),
    "pqc-rr_aim": ("vqa", "pqc", {
        "run.optimizer": "rr_aim", "run.sizes": "4",
        "run.seeds": "0..1", "run.budget": "200000"}),
    "toy-spsa": ("toy", None, {"run.optimizer": "spsa", "run.seeds": "0..4"}),
    # a 12-qubit circuit whose line searches are mostly rejected
    "qaoa-rr_powell-wide": ("vqa", "qaoa", {
        "run.optimizer": "rr_powell", "run.sizes": "12",
        "run.seeds": "0", "run.budget": "1000000"}),
    # a PQC as wide as the pqc-spsa benchmark's
    "pqc-spsa-wide": ("vqa", "pqc", {
        "run.optimizer": "spsa", "run.sizes": "12", "run.seeds": "0..1",
        "optimizer.max_iters": "3"}),
}

GOLDEN = {
    "bounds-wedge": {
        "bounds.csv":
            "90641916a04a4b582f38aee9c7a1b95733e8317e7fcb1980718b2efc90d4fb42",
    },
    "pqc-rr_aim": {
        "aggregate.csv":
            "2c83921bb599a8df594fdb1a6f13dc95f011ff4af5716e5cce07edddbb464e2a",
        "runs.csv":
            "3e3489151e91d7664325ffd7b0a70f17403ad38a2058eb163e2b6cb1b228897c",
    },
    "pqc-rr_reject": {
        "aggregate.csv":
            "c2ed84212b54fb270c368cab281ce73fb99cf54a6d1220e1cbfc0913013c2faf",
        "runs.csv":
            "20263398eeea54a3d20c4f2227ff7e47d7ef6ad66c221e154f2f04485acd30e6",
    },
    "pqc-spsa-wide": {
        "aggregate.csv":
            "40ca8bbb6b6c7134a700569f662d470bcffe601d0e6381ab9ad8e811609c00f4",
        "runs.csv":
            "1772e71155df320e63e14351280ebeeb7b26b0e89a323c561559614aad78b369",
    },
    "qaoa-powell_brent": {
        "aggregate.csv":
            "2ea09e60cbe06367f625c36f2189c788851937ac17f4eccf8df26bfb2e808def",
        "runs.csv":
            "39e60b2268d1d1f27925123c7ae84d4a829e3397a2ae0a827c16e1f7f2e6d0d9",
    },
    "qaoa-rr_powell": {
        "aggregate.csv":
            "e78a4dd48eb29dd56ea78ef5c76c037845654373d4e122fd682f4067f09fb24e",
        "runs.csv":
            "745d904737bd884cd129ceaf05062967af0ed55229438bc6ec1f835ac8651da2",
    },
    "qaoa-rr_powell-wide": {
        "aggregate.csv":
            "419ce1f8b4585f0c347d997dc3361930d6b8f44a8437a67ae106dd7004044aed",
        "runs.csv":
            "1129300e3850b5971ba32ffe1a029efac4d37b520d1510011e13bd6389c2d2c3",
    },
    "qaoa-spsa": {
        "aggregate.csv":
            "70e167c2088e06da74e67db3424489290b363906d434d66a16e957d82cda3e60",
        "runs.csv":
            "653c1f35c35b75906865158be97019f39d1f9d869f5991246c83109f050a95f3",
    },
    "toy-rr": {
        "runs.csv":
            "f33135fc0d4f3432fec30890fe94dcc9111b907810e41025008406b09488ad52",
        "trace.csv":
            "13a34bc68939936b308f163f6484a31f0ca0f8d0eebe6c0598334fd2e4d31d42",
    },
    "toy-spsa": {
        "runs.csv":
            "9ab560caf1e5e2bb18a2cf4495c305f8251ac25512a10338b038080cbaf23dc8",
        "trace.csv":
            "8ac501c8a59afc917c498edbabbbcff02ceb09e9728b0c175625491ad58a2154",
    },
}


def run_digests(name, out_dir):
    runner, experiment, keys = RUNS[name]
    spec = RunSpec()
    spec.set("run", "out", str(out_dir))
    for dotted, value in keys.items():
        section, key = dotted.split(".")
        spec.set(section, key, value)
    if runner == "toy":
        run_toy(spec)
    elif runner == "vqa":
        run_vqa(experiment, spec)
    else:
        run_bounds(spec)
    out = {}
    for file_name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, file_name), "rb") as fh:
            out[file_name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_output_digests(name, tmp_path):
    assert run_digests(name, tmp_path / name) == GOLDEN[name]
