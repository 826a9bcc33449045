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
}

GOLDEN = {
    "bounds-wedge": {
        "bounds.csv":
            "90641916a04a4b582f38aee9c7a1b95733e8317e7fcb1980718b2efc90d4fb42",
    },
    "pqc-rr_reject": {
        "aggregate.csv":
            "c2ed84212b54fb270c368cab281ce73fb99cf54a6d1220e1cbfc0913013c2faf",
        "runs.csv":
            "1a0d894b88e33e0412c39864d31440f71e25056417fedf583cb7fa4426123aa0",
    },
    "qaoa-rr_powell": {
        "aggregate.csv":
            "92b7932a2ae3af30ab0e8d03b15440aa01f42196d74f65ef49e108016c968077",
        "runs.csv":
            "469005b640efd369105f1fd8bf2df024ddcf25b8d6cdbbd854b563831fd84fe0",
    },
    "toy-rr": {
        "runs.csv":
            "ba4c6dfde38f8ce1b1376bab56a176717da3ca96aeeae028ae1f93e840ed8665",
        "trace.csv":
            "1a4c6d7150106bdf1cfc61b19ea3f06bf5bbebfd36464abc129777a7fb898d7e",
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
