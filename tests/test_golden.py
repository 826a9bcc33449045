"""Golden outputs: sha256 of the CSVs of small seeded runs.

Criterion 8 compares reruns inside one process; these digests pin the
bytes across code changes. A change that alters an output on purpose
updates the digest here and says why in CHANGES.md. numpy does not
promise identical Generator streams across its releases, so a numpy
upgrade may also move them.
"""

import hashlib
import json
import os
import subprocess
import sys

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
    # the smallest QAOA sizes: at n = 2 the half state is one amplitude
    # pair and the mixer's only qubit is the mirrored one
    "qaoa-rr_powell-small": ("vqa", "qaoa", {
        "run.optimizer": "rr_powell", "run.sizes": "2,3",
        "run.seeds": "0..1", "run.budget": "300000"}),
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
            "8cf56ad066595b5c02177e063ab24ede7e2d971ad993956eff6d8d1b5428909f",
    },
    "pqc-rr_reject": {
        "aggregate.csv":
            "c2ed84212b54fb270c368cab281ce73fb99cf54a6d1220e1cbfc0913013c2faf",
        "runs.csv":
            "2edade0eb510db75f7b68063699244bce34b53c8ae295e523b7345b9e1ee6377",
    },
    "pqc-spsa-wide": {
        "aggregate.csv":
            "40ca8bbb6b6c7134a700569f662d470bcffe601d0e6381ab9ad8e811609c00f4",
        "runs.csv":
            "94ba5e897ea834625a0bdf694e2bb7dff67b7e464f71e6af956851b353072067",
    },
    "qaoa-powell_brent": {
        "aggregate.csv":
            "2ea09e60cbe06367f625c36f2189c788851937ac17f4eccf8df26bfb2e808def",
        "runs.csv":
            "b49cfabc31c693b6e9ec17b921212ebcefe6b5708384b3d54d382ee4c4b570cb",
    },
    "qaoa-rr_powell": {
        "aggregate.csv":
            "5a5296746ce47cd90b17bd4f32a8cbad05e712a8aad39fb7707db428396ff201",
        "runs.csv":
            "c202be2bdabcf40df02dd3f43edfc71ef90d58c58191334a5911c2b96abd0a2f",
    },
    "qaoa-rr_powell-small": {
        "aggregate.csv":
            "4d094ebecbf31afffb5afec31d301c53f025c53306bd8f6b08ff771cab48cbef",
        "runs.csv":
            "9de047d731d4bd56b28e5d0fc77990bf3509ab0565304be26684af6865b72f99",
    },
    "qaoa-rr_powell-wide": {
        "aggregate.csv":
            "419ce1f8b4585f0c347d997dc3361930d6b8f44a8437a67ae106dd7004044aed",
        "runs.csv":
            "cf34be0e16c7d519db49b8ad950c175deb736c51a9989b579cdfeab288c7225d",
    },
    "qaoa-spsa": {
        "aggregate.csv":
            "70e167c2088e06da74e67db3424489290b363906d434d66a16e957d82cda3e60",
        "runs.csv":
            "26ef7e4b39fe8c89c69a2d2a00c80fa530002d06497b7259822c2274392caafa",
    },
    "toy-rr": {
        "runs.csv":
            "f33135fc0d4f3432fec30890fe94dcc9111b907810e41025008406b09488ad52",
        "trace.csv":
            "13a34bc68939936b308f163f6484a31f0ca0f8d0eebe6c0598334fd2e4d31d42",
    },
    "toy-spsa": {
        "runs.csv":
            "bc1f420c369aee80724d60de967c0d8935ce97d38e9bfac9d1bccf33506d8b37",
        "trace.csv":
            "ac12eaceac3f9e2e9fdd8efbc8346acbfc014ad347bb8e9c70b49899c9c028f4",
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


def _umath():
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    return _multiarray_umath


def _dispatch_above_v2():
    """The CPU features above x86-64-v2 that numpy dispatches to on this
    machine, or [] when there are none or numpy's baseline is higher."""
    umath = _umath()
    baseline = getattr(umath, "__cpu_baseline__", [])
    if "X86_V2" not in baseline or "X86_V3" in baseline:
        return []
    features = getattr(umath, "__cpu_features__", {})
    return [name for name in getattr(umath, "__cpu_dispatch__", [])
            if features.get(name)]


# Runs whose bits must not depend on numpy's SIMD dispatch level. The
# qaoa-* runs are left out: above x86-64-v2, numpy's complex multiply in
# the QAOA phase gate uses fused multiply-adds, which round differently,
# so qaoa-rr_powell and qaoa-spsa give other digests at x86-64-v2.
DISPATCH_FREE = sorted(name for name in RUNS
                       if name.split("-")[0] in ("pqc", "toy", "bounds"))

_AT_V2 = """
import json, sys, tempfile
import test_golden
off = sys.argv[1].split()
features = test_golden._umath().__cpu_features__
assert not any(features[name] for name in off), off
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for name in sys.argv[2:]:
        out[name] = test_golden.run_digests(name, f"{tmp}/{name}")
print(json.dumps(out))
"""


def test_golden_digests_hold_at_x86_64_v2():
    """The PQC, toy and bound goldens, rerun in a subprocess with numpy's
    dispatch held to x86-64-v2, give the pinned digests."""
    above = _dispatch_above_v2()
    if not above:
        pytest.skip("no numpy dispatch target above x86-64-v2 to disable")
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(above),
               PYTHONPATH=os.pathsep.join([src, here]))
    done = subprocess.run(
        [sys.executable, "-c", _AT_V2, " ".join(above), *DISPATCH_FREE],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.strip().splitlines()[-1])
    assert got == {name: GOLDEN[name] for name in DISPATCH_FREE}
