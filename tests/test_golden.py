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
    # L = 1: neighboring arms' neighborhoods touch exactly, so each merge
    # of the excluded set is decided at the EPSILON edge; L = 3: the grid
    # is not dyadic and the neighborhoods overlap
    "toy-rr-l1": ("toy", None, {"run.seeds": "0..4",
                                "optimizer.lipschitz": "1"}),
    "toy-rr-l3": ("toy", None, {"run.seeds": "0..4",
                                "optimizer.lipschitz": "3"}),
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
    # one layer: the state scored is the product-state first layer and
    # its CZ chain, with no rotation pass after it
    "pqc-spsa-l1": ("vqa", "pqc", {
        "run.optimizer": "spsa", "run.sizes": "6,12", "run.seeds": "0..1",
        "instance.layers": "1", "optimizer.max_iters": "3"}),
    # deep line searches, which the runs above (all d_max = 1) never
    # reach: the depth-1 early stop both ways, and budgets that run out
    # after a line's first or second round
    "qaoa-rr_reject-deep": ("vqa", "qaoa", {
        "run.optimizer": "rr_reject", "run.sizes": "4,5",
        "run.seeds": "0..2", "run.budget": "1500000",
        "optimizer.d_max": "3", "optimizer.early_stop_depth1": "yes"}),
    # clipped lines at depth 3
    "qaoa-rr_powell-truncated": ("vqa", "qaoa", {
        "run.optimizer": "rr_powell", "run.sizes": "4,5",
        "run.seeds": "0..1", "run.budget": "3000000",
        "optimizer.d_max": "3", "optimizer.wrap": "truncated"}),
    "pqc-rr_aim-deep": ("vqa", "pqc", {
        "run.optimizer": "rr_aim", "run.sizes": "3,4",
        "run.seeds": "0..1", "run.budget": "1000000",
        "optimizer.d_max": "2", "optimizer.early_stop_depth1": "yes"}),
}

GOLDEN = {
    "bounds-wedge": {
        "bounds.csv":
            "90641916a04a4b582f38aee9c7a1b95733e8317e7fcb1980718b2efc90d4fb42",
    },
    "pqc-rr_aim": {
        "aggregate.csv":
            "910b96df39492a77a3005b9fff1784a86674ad90f7a1dee895bb3e1737e0273f",
        "runs.csv":
            "85ca7eb2e47afbd7956053b6e726852c4e0a31874e97f784d2b052dfa5ae4a3b",
    },
    "pqc-rr_aim-deep": {
        "aggregate.csv":
            "6a28450c10c504d1eb9fe55066a745b0ecd4e8423aac4ea518ea01b150330f9c",
        "runs.csv":
            "90ae7e5069d808f45364c0b2bcd93b28ef184c1231c446e256bf087f925a84c9",
    },
    "pqc-rr_reject": {
        "aggregate.csv":
            "5a24a5adfc9ec423398f1b697041f04c7129bf5ba990a4f969af09a1247461c1",
        "runs.csv":
            "cd4885b3ce13916c944bbbb188a942ff99605fb96fafff8da233f0785b2e0c93",
    },
    "pqc-spsa-l1": {
        "aggregate.csv":
            "be503d8d9113eb990c52b784a6697c853bcd66e81223076d193b6c0fab68e58c",
        "runs.csv":
            "b97e587505a9809919b88c37e47b326d97d5a3aef7726f1deaa7ac3198bd7be2",
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
            "e78a4dd48eb29dd56ea78ef5c76c037845654373d4e122fd682f4067f09fb24e",
        "runs.csv":
            "b73f48f4b9c1fbfb2af73ddd31c1a3e683c5947a93811763404a61deac023293",
    },
    "qaoa-rr_powell-small": {
        "aggregate.csv":
            "015e4b457ae217799ece41c1e014ac0a62e935f5bc9f56dd7d3d01e4fcd8d971",
        "runs.csv":
            "71e040879d07bc4022efb01fb49238d246721132e7f3654a2d49116beabfdb32",
    },
    "qaoa-rr_powell-truncated": {
        "aggregate.csv":
            "d04a063c1ac159fd9c6d894d2e7a0107671bb38feb75685b37573695cde871bc",
        "runs.csv":
            "ffd3fd530c2bc15f6644d7fbaeb9989129c172ee2695539dce5dbf49367d2365",
    },
    "qaoa-rr_powell-wide": {
        "aggregate.csv":
            "419ce1f8b4585f0c347d997dc3361930d6b8f44a8437a67ae106dd7004044aed",
        "runs.csv":
            "e649e7056a05a01c4b0649b02b31db4cb7395717e40af4bb50690765729f4acd",
    },
    "qaoa-rr_reject-deep": {
        "aggregate.csv":
            "19db0df403bfe7ad2eebace93d7a40fabf542e98328b0ee1c2323b23bb54d04e",
        "runs.csv":
            "4e576e0738dfbd08062ce49b0932860ad12d6fcb5f621c0aedbb9e2f4f429961",
    },
    "qaoa-spsa": {
        "aggregate.csv":
            "70e167c2088e06da74e67db3424489290b363906d434d66a16e957d82cda3e60",
        "runs.csv":
            "26ef7e4b39fe8c89c69a2d2a00c80fa530002d06497b7259822c2274392caafa",
    },
    "toy-rr": {
        "runs.csv":
            "dd1909dc83e43ed41f8da45b51f8fc9837d97410a742f9f46495838502c693d9",
        "trace.csv":
            "9acc00cc97e560cb3bed432e0b3758c6cc203a27fc8f154b82a1458925fb075e",
    },
    "toy-rr-l1": {
        "runs.csv":
            "1d15440da3e272df82fc0e79b85888dd72a56147bca7258cf17aa718bf15d525",
        "trace.csv":
            "cad765a2d3b71d24777b7060e9f56e448482e1fbe4c46612c32323194c168978",
    },
    "toy-rr-l3": {
        "runs.csv":
            "6aeafe05071c85d6ccae8fe9eb1f67cc96e159ee06418e7d5cc45fed05ec41d9",
        "trace.csv":
            "342a210ea8543a7eff661d30570bf162fbd457a94eb47bf6e115729a2222e3b5",
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
