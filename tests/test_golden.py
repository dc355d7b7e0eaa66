"""Byte pins: every merged document and report stays identical under refactoring.

Each case is one (ancestor, mine, theirs) triple merged under all three
policies; the pins are the sha256 of the canonical merged bytes and of
the rendered report with its run-dependent ``stat wall_time_s`` line
masked. The cases are the paper's figure 3 and 4 fixtures, 20 seeded
random-op simulations, one hand-built triple with asset conflicts and a
manifest entry restored for a surviving reference, and one hand-built
triple that pins the order in which the merge phases report: a conflict
of every kind, and drops from resolution, the manifest merge and cycle
repair.

A pin changes only with a change that means to change merge output.
"""

from __future__ import annotations

import hashlib
import re
import sys

import pytest

from scenemerge import (
    AssetConflict,
    MergePolicy,
    PolicyKind,
    PropertyValue,
    canonical_bytes,
    merge3,
    read_document,
)
from scenemerge.assets import BlobStore, CommandStrategy, ManifestMerger
from scenemerge.report import render_report
from scenemerge.sim import SizeParams, apply_script, generate
from conftest import D, I, fixture_path, g

SMALL = SizeParams(nodes=16, edges=19, ops_per_branch=4)
POLICIES = ("manual", "prefer-a", "prefer-b")
_WALL_TIME = re.compile(r"^stat wall_time_s .*$", re.MULTILINE)


def _fixture_triple(stem: str):
    return tuple(
        read_document(fixture_path(f"{stem}-{role}.lvl")).graph
        for role in ("base", "mine", "theirs")
    )


def _sim_triple(seed: int):
    scenario = generate(seed, SMALL)
    return (
        scenario.base,
        apply_script(scenario.base, scenario.script_a),
        apply_script(scenario.base, scenario.script_b),
    )


def _asset_triple():
    """Both branches change tex.png; mine deletes old.png while theirs
    changes it and adds a reference to it that survives the merge."""
    asset = PropertyValue.asset_ref
    nodes = [("root", "Scene"), ("a", "GameObject", {"skin": asset("tex.png")})]
    edges = [("root", "a", D), ("root", "b", D), ("root", "c", D)]
    base = g(
        "root",
        [*nodes, ("b", "GameObject", {"icon": asset("old.png")}), ("c", "GameObject")],
        edges,
        {"tex.png": "d0", "old.png": "e0"},
    )
    mine = g(
        "root",
        [*nodes, ("b", "GameObject"), ("c", "GameObject")],
        edges,
        {"tex.png": "d1"},
    )
    theirs = g(
        "root",
        [
            *nodes,
            ("b", "GameObject", {"icon": asset("old.png")}),
            ("c", "GameObject", {"badge": asset("old.png")}),
        ],
        edges,
        {"tex.png": "d2", "old.png": "e2"},
    )
    return base, mine, theirs


def _every_phase_triple():
    """One conflict of each kind and a drop from each settling phase.

    Both branches add ``n`` with different ``w`` (add-add), set ``p.w``
    differently (property), move ``m`` under different parents
    (reparent) and change ``tex.png`` (asset); mine deletes ``d`` while
    theirs edits its child ``e`` (delete-modify); mine adds ``a -> b``
    and theirs ``b -> a``, so cycle repair drops one of them.
    """
    asset = PropertyValue.asset_ref
    real = PropertyValue.real
    kept = [("root", "Scene"), ("q", "GameObject"), ("a", "GameObject"), ("b", "GameObject")]
    kept_edges = [("root", "q", D), ("root", "a", D), ("root", "b", D)]
    base = g(
        "root",
        [
            *kept,
            ("p", "GameObject", {"w": real(1.0), "skin": asset("tex.png")}),
            ("m", "GameObject"),
            ("d", "GameObject"),
            ("e", "GameObject"),
        ],
        [*kept_edges, ("root", "p", D), ("root", "m", D), ("root", "d", D), ("d", "e", D)],
        {"tex.png": "d0"},
    )
    mine = g(
        "root",
        [
            *kept,
            ("p", "GameObject", {"w": real(2.0), "skin": asset("tex.png")}),
            ("m", "GameObject"),
            ("n", "Light", {"w": real(1.0)}),
        ],
        [*kept_edges, ("root", "p", D), ("p", "m", D), ("root", "n", D), ("a", "b", I)],
        {"tex.png": "d1"},
    )
    theirs = g(
        "root",
        [
            *kept,
            ("p", "GameObject", {"w": real(3.0), "skin": asset("tex.png")}),
            ("m", "GameObject"),
            ("d", "GameObject"),
            ("e", "GameObject", {"x": real(1.0)}),
            ("n", "Light", {"w": real(3.0)}),
        ],
        [
            *kept_edges, ("root", "p", D), ("q", "m", D), ("root", "d", D), ("d", "e", D),
            ("root", "n", D), ("b", "a", I),
        ],
        {"tex.png": "d2"},
    )
    return base, mine, theirs


CASES = {
    "fig3": lambda: _fixture_triple("fig3"),
    "fig4": lambda: _fixture_triple("fig4"),
    **{f"sim-{seed}": (lambda seed=seed: _sim_triple(seed)) for seed in range(1, 21)},
    "assets": _asset_triple,
    "every-phase": _every_phase_triple,
}

# (case, policy) -> (sha256 of merged bytes, sha256 of the masked report)
PINS = {
    ("assets", "manual"): (
        "1db43f069e63c99ffe95e10efcdb7db18d2420382bde005d9b38b1e52f3606d9",
        "4dccbb8824d6263982aeb373b88d0f1555054534360df5aed396a9c84faed963",
    ),
    ("assets", "prefer-a"): (
        "4897b31a73cf227da22565a0d7ae2d3c6fe5f9738b0d7c7712f924fbd4f68c92",
        "66ef65d2461fc9e384fe03eaec28ad87b4e073a9ae173f1951eaadc8f1b6a4fa",
    ),
    ("assets", "prefer-b"): (
        "42c848dc119406c1604f072c23411d11d7dc27bd8032fc7a0389ef3c257e845f",
        "a0b336438fa4fc8f4563597bef3c81444b615ba80424d50aa5821f7e904b36ae",
    ),
    ("every-phase", "manual"): (
        "3b47847a2bf85b4a3f4ffa34ebf422fd5276373b86b1f1ec0b2631ab60b037c9",
        "32099a2df405ebde4a787b474f542499fb01c29afccab8e524f84ee8f0ed62af",
    ),
    ("every-phase", "prefer-a"): (
        "8b4e60b336168d2d11079c1d3c07c97653f5dfdfbce2925f6a40c4bcb1e6c702",
        "9e1fbbcf40494ad2fcbea9548dab028979196e6a43329cb688d202390cf8da1b",
    ),
    ("every-phase", "prefer-b"): (
        "328beb6503a10657c923e2a35b0b41eca50f8f7e111ed5c144c546f018f6e50b",
        "340880c046336b6a8a7194fad0f11fa85ce88805b4a67ee3504b2b97b8e69fd9",
    ),
    ("fig3", "manual"): (
        "8d6316dc76b993ecfd1dcc71151a12c06c9ea0c4b5151a2a10bf04e471b48e5c",
        "bf78b4d97609378ec9c05975a16f16096d2abf7d7108fec460cb5a85990d332a",
    ),
    ("fig3", "prefer-a"): (
        "8d6316dc76b993ecfd1dcc71151a12c06c9ea0c4b5151a2a10bf04e471b48e5c",
        "d7ff843451aa53ad4b8a640434e2458d1cdf5a08170ba40881898bc57010ca21",
    ),
    ("fig3", "prefer-b"): (
        "8d6316dc76b993ecfd1dcc71151a12c06c9ea0c4b5151a2a10bf04e471b48e5c",
        "6856b7ae5a587b679a4e44cbd61a2da7dc28bca48991cecbf327417e7c6712bc",
    ),
    ("fig4", "manual"): (
        "bc4742f6569d8bf656ab8a97ef8c407765389437d13fedbfa60d0500908dcee4",
        "0fe984310bd9158b6094eda16a7f838d9e4cf49e2a21f5bcc6787b93fec88a91",
    ),
    ("fig4", "prefer-a"): (
        "d8801b3bfece90a2dbf5f965680d9afdc45c22452526eb24b8f5df2e23047c0d",
        "3b8616744953be09e3c1a7161a98ea36930c8cd07d3342b2969bd0cc69d1d908",
    ),
    ("fig4", "prefer-b"): (
        "40396a3ce07e3e08e441fc0effd879bc93724aa257ee5b0327b7278c9eb28cb4",
        "4436775a9b497698918345cc49407c32dfa8acdff3da2fd6083b9def56069050",
    ),
    ("sim-1", "manual"): (
        "ce6b37f5a9f5c92fcee99122c9af0a5c02259a9a0f48ff61adfd296e79941baa",
        "cfd69fe871b36d25d4881d409b9f3332cc894d72ea3f2b2e24e4d116f4634583",
    ),
    ("sim-1", "prefer-a"): (
        "ce6b37f5a9f5c92fcee99122c9af0a5c02259a9a0f48ff61adfd296e79941baa",
        "5e1725f366afb3b6281acfd91f6f877128b35a800722b88aefcc17bf212182d3",
    ),
    ("sim-1", "prefer-b"): (
        "ce6b37f5a9f5c92fcee99122c9af0a5c02259a9a0f48ff61adfd296e79941baa",
        "1fe7d879d9c9497c3d5909ab02581fb614ea9c88ab23d88630ff035e8078e733",
    ),
    ("sim-10", "manual"): (
        "3b3b11de6e51980f1771727a13323026aeac819c40efbfe930bbaee02d58c78b",
        "e63396a2ee6ab2eaf5ca71abd32da06a41c0eba364e1b2840bfd8971a9935097",
    ),
    ("sim-10", "prefer-a"): (
        "3b3b11de6e51980f1771727a13323026aeac819c40efbfe930bbaee02d58c78b",
        "747c4eef331b6d58af744ad34a477661f33199e38851daa21f7adf56b162787b",
    ),
    ("sim-10", "prefer-b"): (
        "3b3b11de6e51980f1771727a13323026aeac819c40efbfe930bbaee02d58c78b",
        "335a235c4e7dd1d711e455fafeb96f23dd672b59047cc959a416061b5ea18739",
    ),
    ("sim-11", "manual"): (
        "aeb9f3a147fb5df63d833fa618e68c918a277d21e6ea103f622b394e3ba0e516",
        "dd4772188fdff35dc9b4b02d2349ee25968d2ec2fa21f4e0df7ae9d14ada548f",
    ),
    ("sim-11", "prefer-a"): (
        "aeb9f3a147fb5df63d833fa618e68c918a277d21e6ea103f622b394e3ba0e516",
        "c07e286a257ea5998ca4e9737e0fe4677651ba736869656fff876ff630be9dd6",
    ),
    ("sim-11", "prefer-b"): (
        "aeb9f3a147fb5df63d833fa618e68c918a277d21e6ea103f622b394e3ba0e516",
        "4ed74c6f7afb45b68467768286616ca4006bb0564db01174a87950f1d69b4f41",
    ),
    ("sim-12", "manual"): (
        "2332abea180ead658f9bd7c7a3b6c6a32d89af7cd85da1c9d404dcac9786e9a7",
        "42585b6d0b5b12180cf4d9a535b97391588a9a7544259b508ec38a15ed351638",
    ),
    ("sim-12", "prefer-a"): (
        "81f70fd0b478dd5183919fb560410b8656fef64cc398386178b6f12a553e8435",
        "19b8c08b4d23ea8b273d5c178b61aa494b078172e150d251bfe76f6b3c01e9f0",
    ),
    ("sim-12", "prefer-b"): (
        "5c2f3245237447a0dd3e187a238ec7221dfc263eb5dd1eb3ad3e64be48a8c293",
        "885a14040306c3b4129ac8469c8198be573aac0ffbd07e5bd548255e108a9b60",
    ),
    ("sim-13", "manual"): (
        "03b12bbe8d8267baf89895593403403ddc577a7649462855613f2b1c77eaf08c",
        "9b7250665027e21be69729b73c051569de83412d3027961e10dddd0cd7092701",
    ),
    ("sim-13", "prefer-a"): (
        "03b12bbe8d8267baf89895593403403ddc577a7649462855613f2b1c77eaf08c",
        "66d9ac004d3c2a86e6284d124585eceade764e30ceb63881fc801f6ad5aa2bf6",
    ),
    ("sim-13", "prefer-b"): (
        "03b12bbe8d8267baf89895593403403ddc577a7649462855613f2b1c77eaf08c",
        "3fae09c9ab27f046a82c58f33c7e8e9dfe1d7904eb6d7051ba712fb957543f8e",
    ),
    ("sim-14", "manual"): (
        "9df8169645b9e96b79b9f26e214e53647027d6c400799fd278347e169431e5c6",
        "adb2bafedcbf22d1436d571b784d4a2357c8a792c70a69e0af55dbc422ae6f0c",
    ),
    ("sim-14", "prefer-a"): (
        "9df8169645b9e96b79b9f26e214e53647027d6c400799fd278347e169431e5c6",
        "8837f51c0d71d03f6e0fa68020353fbf4a96e08ced853f35d5ac4b9dcb7bef0b",
    ),
    ("sim-14", "prefer-b"): (
        "9df8169645b9e96b79b9f26e214e53647027d6c400799fd278347e169431e5c6",
        "b865fb70bc6635f844da65d74473887952d43db9c290d1bc6fd5a013b1fc1790",
    ),
    ("sim-15", "manual"): (
        "c7772bb001bae8de5387d059fff5eb4c87fe641991651009dfc8f4620fc808b5",
        "b38a70e0091250b9303fd37e5fdf3a5843fe034409b70a8e91ff818b7b07e532",
    ),
    ("sim-15", "prefer-a"): (
        "c7772bb001bae8de5387d059fff5eb4c87fe641991651009dfc8f4620fc808b5",
        "38151c825d122c35a9f0af1648b98907741776d2a39b61a520276fd047623f51",
    ),
    ("sim-15", "prefer-b"): (
        "c7772bb001bae8de5387d059fff5eb4c87fe641991651009dfc8f4620fc808b5",
        "34bc4d4a88808bb7130a80947fe75fbc575dd9eedfd3e7c9adbb032cb9684fc4",
    ),
    ("sim-16", "manual"): (
        "da9a81be50159aa02f258d9aca79be6397b02ea5640bdd1c86c22ed8ada8d417",
        "5b4eeb9453c120c5b8b8cc32135bc2b09be0f4f6c934b1d6e08b721978e35c98",
    ),
    ("sim-16", "prefer-a"): (
        "da9a81be50159aa02f258d9aca79be6397b02ea5640bdd1c86c22ed8ada8d417",
        "4c2ba91d57e7c9ff299cdf9bd6a50d1e3e5d1b6356ebe8f14ec49bc451f4a61f",
    ),
    ("sim-16", "prefer-b"): (
        "da9a81be50159aa02f258d9aca79be6397b02ea5640bdd1c86c22ed8ada8d417",
        "02c02dbeba25746d21d955b8c50d892627dad26443695274b5e827325fe701a7",
    ),
    ("sim-17", "manual"): (
        "0540d877fc95e24bba02529b3161db47e78863f8e46fa4a65c1b55221304b698",
        "3df8f83a914a9992b7b11044900a1647d75b3e2d00148b9a10017ff31094cb3b",
    ),
    ("sim-17", "prefer-a"): (
        "0540d877fc95e24bba02529b3161db47e78863f8e46fa4a65c1b55221304b698",
        "cd8c63ea9740bbd4bf55f4d0cf6197bdf05d89953b661d64b6788a356cef6d83",
    ),
    ("sim-17", "prefer-b"): (
        "0540d877fc95e24bba02529b3161db47e78863f8e46fa4a65c1b55221304b698",
        "efa16102b4d907b7973992f8fb1da70461572b6f7f9400b8c843088c46a90291",
    ),
    ("sim-18", "manual"): (
        "58ac90086b65189281b3fe1f17b087a02f9e88ea3d6f0b24e5be6c173c2d32d4",
        "336efba322b2347bf78415f547780c91f295f56f8fb0042e6fc59801d97cdfd4",
    ),
    ("sim-18", "prefer-a"): (
        "a8a7025830874ed71c6be88b0c0dbfcb4b731965e727e8816e88a242397990c1",
        "26a8295824bc540f8e35699092936b7bd7dfda10e44f247bae301927840894a2",
    ),
    ("sim-18", "prefer-b"): (
        "fbfd06d945380ed53bdf3f8dd19e8f8fe8f369c4ed2752e8c809cfb6750755c9",
        "266a83f234eebbfa7b02de58abeb78616b726b3121d648f57b527b577d960629",
    ),
    ("sim-19", "manual"): (
        "cbbba2351c9f953e32e5afcfd2b6916cdee13eb63a004d96b8e8a8359fd20261",
        "dd7e6ea4e678e8b677cb0c1a8eee597064b028ac61982dd547f71b5e24b950d5",
    ),
    ("sim-19", "prefer-a"): (
        "84c07f31ae67ed3ee720028d2b237311d45755279aae4114b01147a6934a140b",
        "0e190ffaabecede7958a07f1733f9c68052fed8ea1bdd43b7f17a893fc756375",
    ),
    ("sim-19", "prefer-b"): (
        "2be20f5272bf3c861876eb587d357092abac528b5d9d6128df57ad10db7ca26e",
        "9c869860d76d7c0dd765ee09585fabe09f86fb307ab8a9bbfd3e25f61a079991",
    ),
    ("sim-2", "manual"): (
        "894e1007f4beff344b3d982e1a78a306523ac3d203cacaf15d6e940ee3232dae",
        "a315fde79c735014ccc45cd7eac6e243be6477debc2dea4bffadab4de9b5c48a",
    ),
    ("sim-2", "prefer-a"): (
        "6a28d3b19e0d478af3ac7f83693d94fe4db797a6d688197cacfc5f0d69d1d56a",
        "1cdb276fe08e434af5deb1328923836bb582100111ea059ac5fc4a449c94153e",
    ),
    ("sim-2", "prefer-b"): (
        "7809709af46e7aafb5f014325d88fbe30d903c6e57a46fde1bd6dfe59fd0811d",
        "913ad6394893275a880aee2047336e3751385f4b0f308b7abf5bf7ee93f7768c",
    ),
    ("sim-20", "manual"): (
        "f232255545ab2d711045d3f171617727e02c8015af0c5fdf2686b74f9d364943",
        "5e86d08a84aec7214a8f99498bc745d0b535c4ec20ca8f38a214ec05ca9751ec",
    ),
    ("sim-20", "prefer-a"): (
        "f232255545ab2d711045d3f171617727e02c8015af0c5fdf2686b74f9d364943",
        "69c26df391ca9b9a48a10a4134a259e80cad42c8f75b242d485c632bdbf0df34",
    ),
    ("sim-20", "prefer-b"): (
        "f232255545ab2d711045d3f171617727e02c8015af0c5fdf2686b74f9d364943",
        "4d4f63f3627e25a5b3d5fd8b07222a930ab2f833cd2ca88087cf0960ccc4951a",
    ),
    ("sim-3", "manual"): (
        "56577ed7299d35653f3048c92a975c85571a26d02acdf401664cfdb7ecd27bcc",
        "bee269fc01e07d5ae2caa560b6569f6be2932ce8610dcb544d6dca5d1a4cf0a3",
    ),
    ("sim-3", "prefer-a"): (
        "56577ed7299d35653f3048c92a975c85571a26d02acdf401664cfdb7ecd27bcc",
        "393fb749331dce2b949add914b6e5b04f8f437127e1ff2371c860c0ed3c6084e",
    ),
    ("sim-3", "prefer-b"): (
        "56577ed7299d35653f3048c92a975c85571a26d02acdf401664cfdb7ecd27bcc",
        "9bd037753355a45a27150984a13b718215de8c9cae66cf0bdafc57ce9ed05f7f",
    ),
    ("sim-4", "manual"): (
        "89aea3c1d60747d560f2b25c4ade1cdaa6cc94fc862d2c09b8900a2913fbaba7",
        "ab35b4af1feb2e755403f4470f4796dbaefffce93e5e2d7bb8836603c49f84b2",
    ),
    ("sim-4", "prefer-a"): (
        "89aea3c1d60747d560f2b25c4ade1cdaa6cc94fc862d2c09b8900a2913fbaba7",
        "5b26daafde348cbb3e2a72fe846b05665d0e0fa1bc59e8087f4f4db3b5067a8f",
    ),
    ("sim-4", "prefer-b"): (
        "89aea3c1d60747d560f2b25c4ade1cdaa6cc94fc862d2c09b8900a2913fbaba7",
        "03b1f97ae0cfcc98ff83a9470b6591ac026f103d5097342b30ca46cb4a42cd4a",
    ),
    ("sim-5", "manual"): (
        "ce2b135fa749079358ba624e799100a5f3f61e35fba968c19b608da819be2b04",
        "b5112c5ae0fbb739f5095db51c163488a3c5c04c14c60854097a3ab52091ca5a",
    ),
    ("sim-5", "prefer-a"): (
        "ce2b135fa749079358ba624e799100a5f3f61e35fba968c19b608da819be2b04",
        "6e4f9409f8f33e4a73e0852008ce91a3103431a77f1e93bc7da398aec2b2cca2",
    ),
    ("sim-5", "prefer-b"): (
        "ce2b135fa749079358ba624e799100a5f3f61e35fba968c19b608da819be2b04",
        "a1ff117b8ef48b36f70f804aa84b74454a3838c02b72e2dbb038b92717c13822",
    ),
    ("sim-6", "manual"): (
        "cc171c1eb7ae7905d1e4df848bc447b6646afef6a0fc5b9f7ad13f311ea7622d",
        "2b18dc0cede5482aac0b66c569e69a87c489d6656d8712377ad21fc27f1b2371",
    ),
    ("sim-6", "prefer-a"): (
        "cc171c1eb7ae7905d1e4df848bc447b6646afef6a0fc5b9f7ad13f311ea7622d",
        "654d176aeed52a95b182dfd2bfd04ae1c7e3baa5694e835516a57400c4ccac67",
    ),
    ("sim-6", "prefer-b"): (
        "cc171c1eb7ae7905d1e4df848bc447b6646afef6a0fc5b9f7ad13f311ea7622d",
        "9368016c9a3ed3f9875ed1dac67b13f8adc03606942f7be0b2f54e191045632b",
    ),
    ("sim-7", "manual"): (
        "976369a9c62815f69b64db0216d08ebb3bdbb32df4c87ba2f9b5228af82b3d22",
        "90b53b471bea0dabb1739712762aedac378970668f7d736ac537caad95438ea8",
    ),
    ("sim-7", "prefer-a"): (
        "976369a9c62815f69b64db0216d08ebb3bdbb32df4c87ba2f9b5228af82b3d22",
        "b2ea85ce9e3e32e20d35b8161838690122d1d893af6adb001f4f476c02a5b73e",
    ),
    ("sim-7", "prefer-b"): (
        "976369a9c62815f69b64db0216d08ebb3bdbb32df4c87ba2f9b5228af82b3d22",
        "328a75a79c9ad77bd7f323f64bdce22988a00c35a605208a31055dfb275b2681",
    ),
    ("sim-8", "manual"): (
        "c52fdc6bc51ddab22470b3c745c3fbf1df14b81ec21b265ba71ab6a8043d1681",
        "2bebeb42776ce5f0e139577507f5261f879350af2c720246389706c6e8d071dd",
    ),
    ("sim-8", "prefer-a"): (
        "c52fdc6bc51ddab22470b3c745c3fbf1df14b81ec21b265ba71ab6a8043d1681",
        "ce786f2963dc9618a4325a82f2273bd68d34e3387791e8fead324351c31ee617",
    ),
    ("sim-8", "prefer-b"): (
        "c52fdc6bc51ddab22470b3c745c3fbf1df14b81ec21b265ba71ab6a8043d1681",
        "5b8582d60014db309af7e7339cbb31d48a520044e2880161e230ca3d4f9ba214",
    ),
    ("sim-9", "manual"): (
        "c986ff20a8900c0b0d334fc378c5f2be09afe96c28f45dc1a34697416a5c11d0",
        "f2ba44feed9e241823cfab22496dd5ce5d66cfab8cc589407e02846886c1fae4",
    ),
    ("sim-9", "prefer-a"): (
        "c986ff20a8900c0b0d334fc378c5f2be09afe96c28f45dc1a34697416a5c11d0",
        "a716bff827e77acbc02af43d0236d4ec39997269cf5e1f77d3943e3c93c2015b",
    ),
    ("sim-9", "prefer-b"): (
        "c986ff20a8900c0b0d334fc378c5f2be09afe96c28f45dc1a34697416a5c11d0",
        "25f3508b2d7562f1f54efbfe4f862dd0bf2cf4155651f14b37da0dc3dd4aa6c2",
    ),
}


def _merge(case: str, policy_name: str):
    policy = MergePolicy(PolicyKind(policy_name))
    return merge3(*CASES[case](), policy), policy


def _digests(outcome, policy) -> tuple[str, str]:
    report = _WALL_TIME.sub("stat wall_time_s -", render_report(outcome, policy))
    return (
        hashlib.sha256(canonical_bytes(outcome.merged)).hexdigest(),
        hashlib.sha256(report.encode("utf-8")).hexdigest(),
    )


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("policy_name", POLICIES)
def test_merge_bytes_are_pinned(case, policy_name):
    outcome, policy = _merge(case, policy_name)
    assert _digests(outcome, policy) == PINS[(case, policy_name)]


@pytest.mark.parametrize("policy_name", POLICIES)
def test_asset_pins_hold_with_a_content_step_for_an_unused_tag(policy_name, tmp_path):
    # the store is empty, so any blob read for the triple's png ids would fail
    never = [sys.executable, "-c", "raise SystemExit(3)"]
    merger = ManifestMerger(BlobStore(tmp_path), {"obj": CommandStrategy(never)}, {"obj": never})
    policy = MergePolicy(PolicyKind(policy_name))
    outcome = merge3(*_asset_triple(), policy, merger)
    assert _digests(outcome, policy) == PINS[("assets", policy_name)]


def test_pins_cover_cycle_repair_and_asset_conflicts():
    outcomes = [_merge(case, policy)[0] for case in CASES for policy in POLICIES]
    assert any(outcome.removed_cycle_edges for outcome in outcomes)
    assert any(
        isinstance(conflict, AssetConflict)
        for outcome in outcomes
        for conflict in outcome.conflicts
    )
