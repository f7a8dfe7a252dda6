"""Golden digests of generated boxes, pinned before any change to generation.

The matrix is kind {sfp, lrp, sfpnn} x d {1, 2} x seed {0, 1, 2} x
{full, truncated}, the same boxes as `perfbench/checks.edge_cases`, so
EDGE_DIGESTS equals the "edges" table of `perfbench/golden.json`.  The
digest is sha256 of the little-endian int64 edge array.

TRUNC_BIAS_BITS pins the exact float (as `float.hex`) of the truncation
bias of each truncated box.  In d >= 2 the bias is a sum over lattice
lags taken in offset order, which the edge digests cannot see, so a
change of summation order shows here and nowhere else.

BIAS_BITS pins the truncation bias of boxes where the d >= 2 lag sum
and the saturation correction do real work: a d=2 box at cutoff 3,
where about 8% of the vertices are in the saturated set, at three
sides, a d=1 box with a saturated set, a d=3 box and boxes with
negative origins.  They were generated with the per-lag and per-pair
Python loops, before those were vectorised.

FILE_DIGESTS pins the bytes `save_realization` writes (format v1) for
the same 36 boxes plus one d=2 box with a negative origin and a cutoff
(ORIGIN_BOX).  They were generated with the per-line writer, before
save and load were vectorised, so any change to the file bytes shows
here.

DISTANCE_DIGESTS pins sha256 of the body of three `sfp distances`
reports (the CSV minus its #wallclock and #threads lines, as the
benchmark compares them): a coupled SFP/LRP pair, a truncated sfpnn box
with paths of up to ~80 hops, and a d=2 box.  They were generated with
the numpy level-by-level BFS, before BFS moved to scipy's traversal.

EXTRA_DIGESTS pins the edges, and for truncated boxes the bias bits, of
boxes the matrix above leaves out: d=3 LRP and sfpnn boxes, full and
truncated, and sfpnn boxes at lambda = 1e-300 in d = 1, 2, 3, where only
the forced nearest-neighbour edges open.  They were generated before
LRP pairs were decided through unit weights and forced pairs through
an infinite scale.

MC_DIGESTS pins sha256 of the report bodies of the three Monte-Carlo
kernels: adjacent and fkg for SFP and LRP at replicate counts on both
sides of the 2^16 chunk edge and across several chunks, and bridge in
d=1 and in d=2 (4225 cube vertices per replicate, so only a few rows
per tile) on both sides of its 2^14 chunk edge.  Each body is checked at
one and two threads.  They were generated with whole-chunk kernels,
before the kernels were computed in tiles over reused buffers.

BOX_REPORT_DIGESTS pins the report bodies of `sfp degrees` (with a
cutoff over three replicates, so trunc_bias_mean is recorded, without
one, and a box too small for the tail estimators) and `sfp coupling`
(as is, with --lambda-lrp and with --trunc), each at one and two
threads.  They were generated while the replicates were still split
into chunks by hand and the degree survival counts taken one tail value
at a time.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from sfp.cli import main
from sfp.graph import BoxSpec, generate_box, load_realization, save_realization
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

FILE_DIGESTS = {
    "sfp-d1-s0-full":
        "e4e6ceecc4c341e55066532538c97acba539730c78fc9e246a06c3ebdba14eb5",
    "sfp-d1-s0-R8":
        "9035590331d9a32374a24258924334f097fe9824e6f5d205cec20702912066cd",
    "sfp-d1-s1-full":
        "df0906e9746b4baa57797a4c572dfaf04deb3cf89a8ba32bf7deb791e97a00f9",
    "sfp-d1-s1-R8":
        "443a6ef23fcd733b73c245803762fcddd4d7340deaf1a153a5b31073d57c2e63",
    "sfp-d1-s2-full":
        "c78e8b2a0dc9d0ecb81dd4971f64667f46f4aa5b9ac98094fc21d20d971e7878",
    "sfp-d1-s2-R8":
        "ff5d8c1f2fc42caae0f662db68c08a35ff94b20ccbbb8f67446087bcca7247f0",
    "sfp-d2-s0-full":
        "f3cd77a71841b5d9f0c2a7e71438acb9540884dadad5e8c8fc1c528b3ac78022",
    "sfp-d2-s0-R3":
        "a3d82424289b6111b34449811c75e0f1cb9705ff1d80e4a0ae17e8c51a1fb084",
    "sfp-d2-s1-full":
        "514a2020df031929bbd68eadbe0834f26600636623954d6005f591a15bf41910",
    "sfp-d2-s1-R3":
        "72e25b5d1a652b311b09c985271e847907451d814ec2bfd7e9b000e4ce194f5a",
    "sfp-d2-s2-full":
        "038d21aec87bdaf1777007db0a970ad82a2211ffc9415e3046ea1559c5d029ff",
    "sfp-d2-s2-R3":
        "89c191e684f1fc2dd02f912177fe0d272b90a4180fb42f905e2448e0642c5052",
    "lrp-d1-s0-full":
        "f9e69883327d3e4a0b886114a802106a9e7a79c33313e653b37db548bde5ef5b",
    "lrp-d1-s0-R8":
        "86b84a178b837aa2814ae6841972bddf7830cfe9e6aa8309504a31360493c21e",
    "lrp-d1-s1-full":
        "72ebfaf6257e6e19a5ddb2495875eb189ac96103f0274f94c3af56c7d030323f",
    "lrp-d1-s1-R8":
        "065f4189d69f2395ae67a0eede4654fdde8fcb5ab963f046542778cbb3cee03f",
    "lrp-d1-s2-full":
        "9bebdec686013b7ef61c0d6444c188575d25666aef02d55901b96ebe9471f5f1",
    "lrp-d1-s2-R8":
        "d4d5e60dde31fb3d9ece0b3f96c5c51a00e369d099423eed32e0b274c3750a05",
    "lrp-d2-s0-full":
        "d7b7972fcd048e2eee1fb2f820338b27b6882abec8c8868ec243a47b678968bb",
    "lrp-d2-s0-R3":
        "53ca29b85b3785557c6dc17a4d823a4aad7eb7f571a3ee1d9150f68e36259c0a",
    "lrp-d2-s1-full":
        "a13b9ef838da1b76719c0a29ffac0121b1647fcc3b59bda4a9f1c7024a2aa772",
    "lrp-d2-s1-R3":
        "26b80d482e1a4da01870669c7286c06f3bf154d13a841e87091fde76ac23e6f1",
    "lrp-d2-s2-full":
        "44e34900f063cca095b2249c4e75234177dc416747c582f61d140fc7f09fb3f9",
    "lrp-d2-s2-R3":
        "aadeaffc410babd1f709df9f2a5731499164ec3bac2788180efe653d2b126fe9",
    "sfpnn-d1-s0-full":
        "83ed1606b4b866e4d34c6a37489301c565f1209f30240372b67ddca06f6c0852",
    "sfpnn-d1-s0-R8":
        "61976537219203e8fc1892902895cb00c6175ae945acf22311648bb76a389df7",
    "sfpnn-d1-s1-full":
        "d6a8f1170d5ffaf1aefa8d04e8d0a503ecc10ef2dac8bc313c5aed8c7f95dc6a",
    "sfpnn-d1-s1-R8":
        "bebaa2d4a23175a096d7157967caa94a50b5b66c2a55dc63728e88a52c82ee36",
    "sfpnn-d1-s2-full":
        "1901b63e360b013b1480dc683c8e8aa7431fdced920d94120279ca8c1579dd12",
    "sfpnn-d1-s2-R8":
        "6834b897a1e2d0e3956fc4c11d2a2946ea58b0c1f52cb1e2847683c822267f7b",
    "sfpnn-d2-s0-full":
        "4a9f05899923e24e4183c99ec657e5ff113de95526db45c995c2fd943522c6bf",
    "sfpnn-d2-s0-R3":
        "9fbb257855702d2315f4ab3f92f7de6318b8da3a75c0e59549d6a3e1a0eed066",
    "sfpnn-d2-s1-full":
        "12041ed2e265453ec3419f43194c8126cfe13b69686829ad107ad96df2a5148f",
    "sfpnn-d2-s1-R3":
        "8a9b87ff06b192075bb4caa9399cbe378b2c9ec812d83d6c79fdf5511e0a3cd3",
    "sfpnn-d2-s2-full":
        "6e0e0b90fb42561fa5d1e40e9be2a9b14c537668f5465f81a1bfb09c3112599b",
    "sfpnn-d2-s2-R3":
        "a6c41c8a7116b463884a7ef5b39af6c14a5f9610854a6dcd79913400fd10a09d",
    "sfp-d2-s3-R4-origin":
        "c1a3f9857dcb516c9ee902f8d22f018d9b3569724d6565289fdcfbc33ee0ed0e",
}

ORIGIN_BOX = "sfp-d2-s3-R4-origin"

# name: (d, alpha, tau, lambda, kind, side, origin, cutoff, seed, float.hex of trunc_bias)
BIAS_BITS = {
    "sat-d2-L64": (2, 3.0, 2.5, 1.0, "sfp", 64, None, 3.0, 0, "0x1.65527f5d83d3bp+14"),
    "sat-d2-L96": (2, 3.0, 2.5, 1.0, "sfp", 96, None, 3.0, 1, "0x1.d5c835e716b1dp+15"),
    "sat-d2-L128": (2, 3.0, 2.5, 1.0, "sfp", 128, None, 3.0, 0, "0x1.9914088111551p+16"),
    "sat-d1-L1000": (1, 1.5, 2.5, 1.0, "sfp", 1000, None, 4.0, 0, "0x1.4194b1bb2bf8cp+12"),
    "d3-L10-origin": (3, 4.0, 2.5, 2.0, "sfp", 10, (-3, 2, 5), 2.5, 0, "0x1.6144f9f5a5088p+13"),
    "d2-L40-origin-lrp": (2, 3.0, 2.5, 1.0, "lrp", 40, (-7, -2), 5.5, 2, "0x1.f0ef5ed0fb189p+8"),
    "d2-L33-sfpnn": (2, 2.5, 3.5, 0.5, "sfpnn", 33, None, 4.2, 3, "0x1.d305d83f3da3dp+10"),
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


def _file_digest(r, path):
    save_realization(r, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind, d, seed, cutoff", CASES, ids=[_name(*c) for c in CASES])
def test_golden_file_bytes(kind, d, seed, cutoff, tmp_path):
    name = _name(kind, d, seed, cutoff)
    path = tmp_path / "box.txt"
    assert _file_digest(_build(kind, d, seed, cutoff), path) == FILE_DIGESTS[name]
    # Loading and saving again rewrites the same bytes.
    assert _file_digest(load_realization(path), tmp_path / "again.txt") == FILE_DIGESTS[name]


def test_golden_file_bytes_negative_origin(tmp_path):
    params = ModelParams(d=2, alpha=2.5, lambda_=1.0, tau=2.5, kind=ModelKind.SFP)
    r = generate_box(params, 3, BoxSpec(d=2, side=9, origin=(-4, 3)), cutoff=4.0)
    path = tmp_path / "box.txt"
    assert _file_digest(r, path) == FILE_DIGESTS[ORIGIN_BOX]
    assert _file_digest(load_realization(path), tmp_path / "again.txt") == FILE_DIGESTS[ORIGIN_BOX]


@pytest.mark.parametrize("name", sorted(BIAS_BITS))
def test_golden_truncation_bias(name):
    d, alpha, tau, lam, kind, side, origin, cutoff, seed, bits = BIAS_BITS[name]
    params = ModelParams(d=d, alpha=alpha, lambda_=lam, tau=tau, kind=ModelKind.parse(kind))
    r = generate_box(params, seed, BoxSpec(d=d, side=side, origin=origin), cutoff=cutoff)
    assert r.trunc_bias.hex() == bits


def test_matrix_covers_every_digest():
    assert sorted(_name(*c) for c in CASES) == sorted(EDGE_DIGESTS)
    assert sorted([*EDGE_DIGESTS, ORIGIN_BOX]) == sorted(FILE_DIGESTS)
    assert sorted(TRUNC_BIAS_BITS) == sorted(n for n in EDGE_DIGESTS if not n.endswith("full"))


def test_digests_match_benchmark_golden():
    import json
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
    with open(path, "r", encoding="utf-8") as fh:
        assert json.load(fh)["edges"] == EDGE_DIGESTS


_DIST = ["distances", "--alpha", "1.5", "--tau", "3.5", "--lambda", "5"]

# name: (sfp distances arguments, sha256 of the report body)
DISTANCE_DIGESTS = {
    "coupled-d1": (
        _DIST + ["--seed", "7", "--side", "2048", "--n-list", "16,32,64,128,256,512,1024",
                 "--sources", "16", "--compare-lrp"],
        "db6e2c5416566b3ef793c4945dba360ac004424ce29a423be3b81e7464ac1ae2"),
    "sfpnn-trunc-d1": (
        _DIST + ["--seed", "8", "--model", "sfpnn", "--side", "8192", "--trunc", "64",
                 "--n-list", "16,32,64,128,256,512,1024,2048,4096", "--sources", "16"],
        "35bc517cbd29c3e6a551ce457535236f0f26d660860d1645fadfa1ebae299efc"),
    "sfp-d2": (
        ["distances", "--dim", "2", "--alpha", "3.0", "--tau", "2.5", "--lambda", "2",
         "--seed", "9", "--side", "48", "--trunc", "6", "--n-list", "4,8,16,32",
         "--sources", "12"],
        "b12b1f2530348641fcf0e01abf833fc65e3adef91e0bf8e08b3108d258abae94"),
}


def _report_body_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) in (0, 2)
    body = "\n".join(line for line in out.getvalue().splitlines()
                     if not line.startswith(("#wallclock", "#threads")))
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DISTANCE_DIGESTS))
def test_golden_distance_report(name):
    argv, digest = DISTANCE_DIGESTS[name]
    assert _report_body_digest(argv) == digest


_D3 = dict(d=3, alpha=4.0, lam=1.0, side=7, origin=None)
_TINY = dict(kind="sfpnn", lam=1e-300, origin=-3, seed=5)

# name: (box, sha256 of the edges, float.hex of trunc_bias or None)
EXTRA_DIGESTS = {
    "lrp-d3-s0-full": (dict(_D3, kind="lrp", seed=0, cutoff=None),
                       "e4aad34f300f5c202f6e4cf752c9eb43ac3f1704a1cb4d19dfcedd768e51cd47", None),
    "lrp-d3-s0-R2.5": (dict(_D3, kind="lrp", seed=0, cutoff=2.5),
                       "5b36e6505446e6661f4839c47b51944ef77861307c00bb92cb41c43a1f9eb815",
                       "0x1.44c7ee682f226p+7"),
    "lrp-d3-s1-full": (dict(_D3, kind="lrp", seed=1, cutoff=None),
                       "7992ae740c6bd1b79b7b08ecf80bbd7d5d18faa096487b6b1e15a8f6a9554094", None),
    "lrp-d3-s1-R2.5": (dict(_D3, kind="lrp", seed=1, cutoff=2.5),
                       "a11c25b2e2ee8042519b92f156fca22cc468ab6f3674e78056b898ecac0bdcc0",
                       "0x1.44c7ee682f226p+7"),
    "sfpnn-d3-s0-full": (dict(_D3, kind="sfpnn", seed=0, cutoff=None),
                         "5299bbb279f9724e276e18909853def8439c8779e150151e1adad266560eb6b4", None),
    "sfpnn-d3-s0-R2.5": (dict(_D3, kind="sfpnn", seed=0, cutoff=2.5),
                         "cfe38b3c8a7cea4c096505281390643b5d44679e0a0ed89c2e12c220bd2b0e3e",
                         "0x1.c6b78ca240ee0p+10"),
    "sfpnn-d3-s1-full": (dict(_D3, kind="sfpnn", seed=1, cutoff=None),
                         "d3bd921f0707f6f4750f90c3d20f3e39da9ef5c150201fb81c58ff20d9849be2", None),
    "sfpnn-d3-s1-R2.5": (dict(_D3, kind="sfpnn", seed=1, cutoff=2.5),
                         "1256e1180650e60fae9c8c686888a441ab9d45816179c341f5e9e77283c992b6",
                         "0x1.04f6746236ce2p+10"),
    "sfpnn-d1-lam1e-300-full": (dict(_TINY, d=1, alpha=1.5, side=128, cutoff=None),
                                "a039ae208c32b589194ced56e961bf84013b0c7833104f695f63bb62fd7170bf",
                                None),
    "sfpnn-d1-lam1e-300-R8": (dict(_TINY, d=1, alpha=1.5, side=128, cutoff=8.0),
                              "a039ae208c32b589194ced56e961bf84013b0c7833104f695f63bb62fd7170bf",
                              "0x1.f80c5804187ccp-989"),
    "sfpnn-d2-lam1e-300-full": (dict(_TINY, d=2, alpha=2.5, side=12, cutoff=None),
                                "38d79afe027451a4617389aeea79effdc541a696028a25e69814818cb5a4a429",
                                None),
    "sfpnn-d2-lam1e-300-R3": (dict(_TINY, d=2, alpha=2.5, side=12, cutoff=3.0),
                              "38d79afe027451a4617389aeea79effdc541a696028a25e69814818cb5a4a429",
                              "0x1.68b08e9e50481p-987"),
    "sfpnn-d3-lam1e-300-full": (dict(_TINY, d=3, alpha=3.5, side=6, cutoff=None),
                                "488e5ed00ac3c06079f9fbd4cd6a3b4a7733af76384c9efa08007c7c9774a6ac",
                                None),
    "sfpnn-d3-lam1e-300-R2.5": (dict(_TINY, d=3, alpha=3.5, side=6, cutoff=2.5),
                                "488e5ed00ac3c06079f9fbd4cd6a3b4a7733af76384c9efa08007c7c9774a6ac",
                                "0x1.92a164ccd063bp-987"),
}


@pytest.mark.parametrize("name", sorted(EXTRA_DIGESTS))
def test_golden_extra_box(name):
    box, digest, bias = EXTRA_DIGESTS[name]
    d, side = box["d"], box["side"]
    params = ModelParams(d=d, alpha=box["alpha"], lambda_=box["lam"], tau=2.5,
                         kind=ModelKind.parse(box["kind"]))
    origin = None if box["origin"] is None else (box["origin"],) * d
    r = generate_box(params, box["seed"], BoxSpec(d=d, side=side, origin=origin),
                     cutoff=box["cutoff"])
    assert hashlib.sha256(np.ascontiguousarray(r.edges, dtype="<i8").tobytes()).hexdigest() == digest
    assert (None if r.trunc_bias is None else r.trunc_bias.hex()) == bias
    if box["lam"] == 1e-300:
        # Only the forced lattice edges: d L^(d-1) (L-1) of them.
        assert r.n_edges == d * side ** (d - 1) * (side - 1)


_MC = ["--alpha", "1.5", "--tau", "2.5"]
MC_ARGV = {}
for _m in ("sfp", "lrp"):
    for _n in (65535, 65537, 200003):
        MC_ARGV[f"adjacent-{_m}-{_n}"] = ["adjacent", *_MC, "--model", _m, "--rxy", "21.5",
                                          "--ryz", "4.6", "--seed", "11", "--replicates", str(_n)]
        MC_ARGV[f"fkg-{_m}-{_n}"] = ["fkg", *_MC, "--model", _m, "--path", "0;17;-5;30;12",
                                     "--seed", "12", "--replicates", str(_n)]
for _n in (16383, 16385, 50001):
    MC_ARGV[f"bridge-d1-{_n}"] = ["bridge", *_MC, "--beta", "0.5", "--seed", "13",
                                  "--replicates", str(_n)]
    MC_ARGV[f"bridge-d2-{_n}"] = ["bridge", "--dim", "2", "--alpha", "3", "--tau", "2.5",
                                  "--beta", "0.5", "--n-list", "1024", "--seed", "14",
                                  "--replicates", str(_n)]

MC_DIGESTS = {
    "adjacent-sfp-65535": "042913dd3208b8151c331a8e349c298e72e47d8e7d2439208dc4babf9371257a",
    "fkg-sfp-65535": "c42f5c56c08f1d56121ce7a09d8364d38a164affd7f0f7d665ec8c666e0fdaf0",
    "adjacent-sfp-65537": "0cb8962ecf56a70730ffd8d18f44122327670e189a9b05317dc2984d2f9f0383",
    "fkg-sfp-65537": "3df0422964a90878a616627c8d72e95271aff9c015704b2453e9f313c71ecd30",
    "adjacent-sfp-200003": "0a242d4f038dbb09ea7e3584a164d31b7d4518e249e3cd217c5f95105192e46c",
    "fkg-sfp-200003": "d688013d58fc0be2a4ded6ca55d30c3cbb4249549be66b29f60cd183bdb35196",
    "adjacent-lrp-65535": "a2cae4bfeceb0e172f2e426aa7bdbb7c2ae9aab4cdcb4fceaddf2e2810b3d349",
    "fkg-lrp-65535": "773edab36df1716feefaf930298fc34622b98a61a3baef05a35e226c4b5d159d",
    "adjacent-lrp-65537": "b8af135c2e7b909b3a698036daadafadd9265e0e61a72d665fd017f19167efdc",
    "fkg-lrp-65537": "97a2c6e52fbb4f08e50a29095dcf1adc8e44169ca7169437d20083d2f9bf66ce",
    "adjacent-lrp-200003": "5e33a79bcb085f55741515d8e2758bc3ed597ab3e03bc6299bd107576aa177ea",
    "fkg-lrp-200003": "d1ae5b30558cb7163b0272948248b337ecbea913122f70672729e5b0a2cba177",
    "bridge-d1-16383": "be3b051fb7bb77a9ed67ed70fa33c2acbc868e2b819efefce296f61da1f41472",
    "bridge-d2-16383": "f433e033a473af9bc99d56bc72a5a32dfb6dbc8ac03f4789f57a311f5eee0e36",
    "bridge-d1-16385": "a686add184b8691d9c1db3c0f955fdc7f603fe84ca8fa364ecc13510cb549573",
    "bridge-d2-16385": "3e2f5d9e56ba0645d3b0b943e1236e51e0789e14491ffd1e2c366963bf123924",
    "bridge-d1-50001": "b60569f8ce4bac9d1736f1e222f523d8357a292eb596da3b9543c8b3be574c3e",
    "bridge-d2-50001": "6481d4a12c8b4401a891a3449098abf218abd9b793b85ddf0fe0289d68973a01",
}


def test_mc_cases_cover_every_digest():
    assert sorted(MC_ARGV) == sorted(MC_DIGESTS)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(MC_DIGESTS))
def test_golden_mc_report(name, threads):
    assert _report_body_digest(MC_ARGV[name] + ["--threads", str(threads)]) == MC_DIGESTS[name]


_DEG = ["degrees", "--alpha", "1.5", "--tau", "2.5", "--lambda", "1"]
_CPL = ["coupling", "--alpha", "1.5", "--tau", "2.5", "--lambda", "1"]

# name: (sfp arguments, sha256 of the report body)
BOX_REPORT_DIGESTS = {
    "degrees-trunc-3rep": (
        _DEG + ["--seed", "21", "--side", "4000", "--trunc", "16", "--replicates", "3"],
        "5963a9cfbf8d8f86e24b439196f2469a0d86029535cece4f8656b5627d57a4a0"),
    "degrees-full": (
        _DEG + ["--seed", "22", "--side", "3000", "--replicates", "2"],
        "d870129675613ae9aaebeb1c97228320802b2444e265ab5ee489bee795b5c440"),
    "degrees-insufficient-tail": (
        _DEG + ["--seed", "23", "--side", "500", "--trunc", "16"],
        "115398556f514da7602b2a11c5346670c6b0386435086e6194dca54fcee6c1f7"),
    "coupling": (
        _CPL + ["--seed", "24", "--side", "600", "--replicates", "10"],
        "718b750b01eb25c952075bb1be5546031da5691948b4e9f8680f8c29f4f69884"),
    "coupling-lambda-lrp": (
        _CPL + ["--seed", "25", "--side", "600", "--replicates", "10", "--lambda-lrp", "3"],
        "280788c699a187729dba437241390a00fdad059aaf6c9698fab9bdee2df3a43e"),
    "coupling-trunc": (
        _CPL + ["--seed", "26", "--side", "2000", "--replicates", "10", "--trunc", "16"],
        "fc090454fa922ab38dc1af14c5d308ba6d6dec0a2789bde0d197b199f9fe5d70"),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(BOX_REPORT_DIGESTS))
def test_golden_box_report(name, threads):
    argv, digest = BOX_REPORT_DIGESTS[name]
    assert _report_body_digest(argv + ["--threads", str(threads)]) == digest
