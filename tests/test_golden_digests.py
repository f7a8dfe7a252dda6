"""Golden digests of generated boxes, pinned before any change to generation.

The matrix is kind {sfp, lrp, sfpnn} x d {1, 2} x seed {0, 1, 2} x
{full, truncated}, the same boxes as `perfbench/checks.edge_cases`, so
EDGE_DIGESTS equals the "edges" table of `perfbench/golden.json`.  The
digest is sha256 of the little-endian int64 edge array.

TRUNC_BIAS_BITS pins the exact float (as `float.hex`) of the truncation
bias of each truncated box.  In d >= 2 the bias is a sum over lattice
lags taken in offset order, which the edge digests cannot see, so a
change of summation order shows here and nowhere else.
"""

import hashlib

import numpy as np
import pytest

from sfp.graph import BoxSpec, generate_box
from sfp.params import ModelKind, ModelParams

SMALL = {1: dict(alpha=1.5, side=128, cutoff=8.0), 2: dict(alpha=3.0, side=12, cutoff=3.0)}

EDGE_DIGESTS = {
    "lrp-d1-s0-R8":
        "84967b359128ec4a6bcd2bb16adeb2f3b4cf6f3da3bc79cd228221281932fb3a",
    "lrp-d1-s0-full":
        "be5cc2685ecfc1824276f0fc8bf02c371560367915604faaed791b6e46c0e120",
    "lrp-d1-s1-R8":
        "bc10af23fdbdde17637c28597933d17c7545392e4e49c15fe847237d49273d5d",
    "lrp-d1-s1-full":
        "45ef7204dd7be713f81bf325cf7a1d546e2b3a5d8a7d89847278bec440ad901d",
    "lrp-d1-s2-R8":
        "3f18680b7e11cbe4cf14af3dadc1bc8303a4caa59c7cc1fbd992cbca6c454617",
    "lrp-d1-s2-full":
        "a2f6081707daf5d880e11df6dbe0cfb6cb81cfa0ed9f80ffcd887a9f86d81f6c",
    "lrp-d2-s0-R3":
        "0c8e7f4ed36b23c2c781e6e543ce4a2ec7b6fda282aaa9aae0e77866223c1bda",
    "lrp-d2-s0-full":
        "8e3da4555da0cb22052b41d965a9b201bc02e3c44e2a04e79f33416c65a37f2f",
    "lrp-d2-s1-R3":
        "d921ebc1b18f5772f825609d78da28bd7fd25c95dcd45ee33d88b71f6d932f3e",
    "lrp-d2-s1-full":
        "b406b352c4f24458adda3e0fa05e827b54ff56a2fc0847ad79d3824f8ccc1895",
    "lrp-d2-s2-R3":
        "d6617e255e580d75ad021335e99a4c87ca5dd524eb04fb51dc30279b52bd74bf",
    "lrp-d2-s2-full":
        "6cebf5cf4f513c43dc87a15fa2dfc02892f647e857fc797f5f62ea24a05b7fda",
    "sfp-d1-s0-R8":
        "9290743f878a6becdfa6586ba92c30a91734ef1ab1a00a95dd788496a6131d0a",
    "sfp-d1-s0-full":
        "925a0d4550008bb6c5138009beb07c5c950c61d8f1f68b8a5a34770ae9bebb6f",
    "sfp-d1-s1-R8":
        "8a6d3cfbd93cbb62dcd9840719065dc134c7c6215dc42688ebc313eb1e9123da",
    "sfp-d1-s1-full":
        "dcc709b4f28d3315b2dbc4aa340cd1c84e033e2ff40b1c69dbf5df6ba031452a",
    "sfp-d1-s2-R8":
        "295889d0a6b7a4f65ddbfb22d845f11e95654e8a519ca5ce133a35b64c8192c4",
    "sfp-d1-s2-full":
        "a4957b90cd8c653789aaee85adaf680d6ccfd05bb7228670bccdc203b80a2766",
    "sfp-d2-s0-R3":
        "9f08ca6209257d29dbf43d4bca5197c5a72edbe60bb850ec351631832777ebc7",
    "sfp-d2-s0-full":
        "60c70f1e301dc58c0a1fe10e216becbd73ec694b77abd5d8ddc007ebccb305ba",
    "sfp-d2-s1-R3":
        "53eb776dd9f7f8d570798481c8daef395ff63121d94e61fc74c543a7851078e0",
    "sfp-d2-s1-full":
        "5fcfc82e165c2c5827a9ff7a76744542bfceadeee5a9fc223340188c1e902460",
    "sfp-d2-s2-R3":
        "6301588c710bf6c01f5f918e883b426f9fc1a23950f75125983a300d52870ecb",
    "sfp-d2-s2-full":
        "26c816932f5116a89dd20709b48cb6b95c7c319d9ce19e51c5b52683c3f53f8d",
    "sfpnn-d1-s0-R8":
        "ec25a87a7bb764c7d9438e2024ee11fd7760350eb3d7cae8fdfe565a46c274a9",
    "sfpnn-d1-s0-full":
        "348fa731bcb9776d86e9c79716ff8c5e4a10fffd37fcc58f7cb129b8ac29ba70",
    "sfpnn-d1-s1-R8":
        "ce7e0cc05a05cba7d7e10f03eb402f8fb3f6f4aaf3d8a855dac2410ed12728d4",
    "sfpnn-d1-s1-full":
        "870ac1003d6a57c7edc743fe9788ec075ec5cc2a91922cf28db6ce1af98c1e11",
    "sfpnn-d1-s2-R8":
        "b13840861fe9562c7a487da70c09d5cd658ff9e990b536f41cd85947ea3f68f5",
    "sfpnn-d1-s2-full":
        "2a1b56adb71ef8b7eac35692ed58ed08ddd4c3058ed5fcfa45988a44082a0f4c",
    "sfpnn-d2-s0-R3":
        "a7d739976966011996a97efe710cd8985a786c0af0c9e45565b5eaff7f0d45f8",
    "sfpnn-d2-s0-full":
        "6b5ef3807fed38c3e0b780921f23aac11a57dcc27bd4290066b88c66ae70a2c5",
    "sfpnn-d2-s1-R3":
        "51d6d1993fd289dd84cc497a9c24258f33f0f91f6c1cab279025e887d0371681",
    "sfpnn-d2-s1-full":
        "f94bb4a4bc5b5c8c1f77f93c187dc9c2c7e1038551f95e8b850ca2bff5fae66d",
    "sfpnn-d2-s2-R3":
        "c692d634d3970bb5f485b212902eb161598414789ff7db6fe9a62862d8683979",
    "sfpnn-d2-s2-full":
        "668d1b44a6011d1e42143317adb6fc9f19c0d6f54df27aaf05c33a9a6be5b818",
}

TRUNC_BIAS_BITS = {
    "lrp-d1-s0-R8": "0x1.82c54858f88a9p+5",
    "lrp-d1-s1-R8": "0x1.82c54858f88a9p+5",
    "lrp-d1-s2-R8": "0x1.82c54858f88a9p+5",
    "lrp-d2-s0-R3": "0x1.b778800751e44p+5",
    "lrp-d2-s1-R3": "0x1.b778800751e44p+5",
    "lrp-d2-s2-R3": "0x1.b778800751e44p+5",
    "sfp-d1-s0-R8": "0x1.e8b58fdc75549p+8",
    "sfp-d1-s1-R8": "0x1.9430b84793b9ap+8",
    "sfp-d1-s2-R8": "0x1.1c108fdd91239p+8",
    "sfp-d2-s0-R3": "0x1.760cbaa6c7a59p+8",
    "sfp-d2-s1-R3": "0x1.db7799d3b3429p+8",
    "sfp-d2-s2-R3": "0x1.6ed6689fbefb2p+8",
    "sfpnn-d1-s0-R8": "0x1.e8b58fdc75549p+8",
    "sfpnn-d1-s1-R8": "0x1.9430b84793b9ap+8",
    "sfpnn-d1-s2-R8": "0x1.1c108fdd91239p+8",
    "sfpnn-d2-s0-R3": "0x1.760cbaa6c7a59p+8",
    "sfpnn-d2-s1-R3": "0x1.db7799d3b3429p+8",
    "sfpnn-d2-s2-R3": "0x1.6ed6689fbefb2p+8",
}


CASES = [(kind, d, seed, cutoff)
         for kind in (ModelKind.SFP, ModelKind.LRP, ModelKind.SFP_NN)
         for d in (1, 2)
         for seed in (0, 1, 2)
         for cutoff in (None, SMALL[d]["cutoff"])]


def _name(kind, d, seed, cutoff):
    return f"{kind.value}-d{d}-s{seed}-" + ("full" if cutoff is None else f"R{cutoff:g}")


def _build(kind, d, seed, cutoff):
    params = ModelParams(d=d, alpha=SMALL[d]["alpha"], lambda_=1.0, tau=2.5, kind=kind)
    spec = BoxSpec(d=d, side=SMALL[d]["side"])
    return generate_box(params, seed, spec, cutoff=cutoff)


@pytest.mark.parametrize("kind, d, seed, cutoff", CASES, ids=[_name(*c) for c in CASES])
def test_golden_box(kind, d, seed, cutoff):
    name = _name(kind, d, seed, cutoff)
    r = _build(kind, d, seed, cutoff)
    digest = hashlib.sha256(np.ascontiguousarray(r.edges, dtype="<i8").tobytes()).hexdigest()
    assert digest == EDGE_DIGESTS[name]
    if cutoff is None:
        assert r.trunc is None and r.trunc_bias is None
    else:
        assert r.trunc_bias.hex() == TRUNC_BIAS_BITS[name]


def test_matrix_covers_every_digest():
    assert sorted(_name(*c) for c in CASES) == sorted(EDGE_DIGESTS)
    assert sorted(TRUNC_BIAS_BITS) == sorted(n for n in EDGE_DIGESTS if not n.endswith("full"))


def test_digests_match_benchmark_golden():
    import json
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
    with open(path, "r", encoding="utf-8") as fh:
        assert json.load(fh)["edges"] == EDGE_DIGESTS
