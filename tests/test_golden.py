"""Byte-for-byte pins of what gatelab writes: one sha256 per CLI
invocation over every registry block, per block over the verify
reports of all its single-cell mutants, and one over the
cin-independence reports of both compressors' mutants.

A refactor that means to keep behaviour keeps every digest.  A change
that means to alter an output says so and records the new digests,
which ``python tests/test_golden.py`` prints.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io

import pytest

from gatelab import cli
from gatelab.core import GateKind
from gatelab.generators import REGISTRY, BlockSpec, build_block
from gatelab.verify import verify_cout_independence, verify_exhaustive, verify_random

# Small parameters for the parametrised blocks.
PARAMS = {"kogge_stone": {"width": 5}, "array_reducer": {"cols": 3}, "pipeline": {"cols": 3}}
_COMPRESSORS = ("compressor72_proposed", "compressor72_cascade")


def _flags(name: str) -> list[str]:
    return [
        arg
        for key, value in PARAMS.get(name, {}).items()
        for arg in (f"--{key}", str(value))
    ]


def _invocations() -> list[tuple[str, ...]]:
    runs: list[tuple[str, ...]] = []
    for name in REGISTRY:
        block = [name, *_flags(name), "--out", "-"]
        for fmt in ("json", "hdl", "dot"):
            runs.append(("build", *block, "--format", fmt))
        runs.append(("build", *block, "--format", "dot", "--annotate"))
        runs.append(("verify", *block))
        runs.append(("verify", *block, "--random", "--seed", "5", "--count", "300"))
        for cost in ("0", "1"):
            runs.append(("depth", *block, "--inv-cost", cost))
    runs.append(("compare", "compressor72_cascade", "compressor72_proposed", "--out", "-"))
    runs.append(
        ("compare", "traditional_fa", "adjusted_fa", "sfa", "--inv-cost", "1", "--out", "-")
    )
    for name in _COMPRESSORS:
        runs.append(("verify", name, "--check", "cin-independence", "--out", "-"))
    return runs


def cli_digest(argv: tuple[str, ...]) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    text = f"{code}\n{out.getvalue()}\n--stderr--\n{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()


_SWAPS = {
    GateKind.AND2: GateKind.OR2,
    GateKind.OR2: GateKind.AND2,
    GateKind.NAND2: GateKind.NOR2,
    GateKind.NOR2: GateKind.NAND2,
}
_MODES = {
    "exhaustive": verify_exhaustive,
    "random": lambda circuit: verify_random(circuit, seed=3, count=700),
}


def _mutants(name: str):
    """Every mutant of a block that swaps one cell AND<->OR or NAND<->NOR,
    in cell order."""
    circuit = build_block(BlockSpec(name, PARAMS.get(name, {})))
    for k, cell in enumerate(circuit.cells):
        if cell.kind in _SWAPS:
            cells = list(circuit.cells)
            cells[k] = dataclasses.replace(cell, kind=_SWAPS[cell.kind])
            yield dataclasses.replace(circuit, cells=tuple(cells))


def _digest(reports) -> str:
    digest = hashlib.sha256()
    for report in reports:
        digest.update(report.to_json().encode())
    return digest.hexdigest()


def mutant_digest(name: str, mode: str) -> str:
    """sha256 of the reports, in cell order, of every mutant of a block."""
    return _digest(map(_MODES[mode], _mutants(name)))


def _carry_in_rewirings(name: str):
    """Every mutant of a compressor that rewires one cell input to Ci1 or
    Ci2, in cell, then input, then carry-in order.  No AND<->OR or
    NAND<->NOR swap brings a carry-in into a cone that reads none, so
    these are the mutants whose cin-independence reports fail."""
    circuit = build_block(BlockSpec(name))
    carry_ins = [circuit.net(port) for port in ("Ci1", "Ci2")]
    for k, cell in enumerate(circuit.cells):
        for j in range(len(cell.ins)):
            for net in carry_ins:
                cells = list(circuit.cells)
                ins = cell.ins[:j] + (net,) + cell.ins[j + 1 :]
                cells[k] = dataclasses.replace(cell, ins=ins)
                yield dataclasses.replace(circuit, cells=tuple(cells))


def cin_mutant_digest() -> str:
    """sha256 of the cin-independence reports of both compressors'
    mutants, the proposed block's first: each block's swaps, then its
    carry-in rewirings."""
    return _digest(
        verify_cout_independence(mutant)
        for name in _COMPRESSORS
        for mutants in (_mutants(name), _carry_in_rewirings(name))
        for mutant in mutants
    )


CLI_DIGESTS: dict[str, str] = {
    "build sorter2 --out - --format json": "c47c92389ce4667edf9ef64fc57826b4b927eb9ecd0bedfc81c7a1ca718fdca6",
    "build sorter2 --out - --format hdl": "1c91c7a275e1b81e224af43f07b8b6997f91be6fab34aedba92fccbb0427c69a",
    "build sorter2 --out - --format dot": "5d633c153c08f2753318aecd6841b27c55c88066cc96f50fd2ba6e1ef15fccc6",
    "build sorter2 --out - --format dot --annotate": "b87fcd6fecb5b8df0d23a2fcae1ecf04ff6d78fbe454884334d0274362d3be1c",
    "verify sorter2 --out -": "40f985099aba0a29bb4717433025f4d0c087c50bffda1e3a4d5997b6f8cfb4fb",
    "verify sorter2 --out - --random --seed 5 --count 300": "aff59a5e8f5b09bfad4679f319ec500d8e9574bc0b921f9e657c1e7bee70b24e",
    "depth sorter2 --out - --inv-cost 0": "61f86e44161b20e80396209e724660742c3cfbd1c44082ad37f82b5ebdc649cc",
    "depth sorter2 --out - --inv-cost 1": "1ec664faa8fd17301702e93b2de9e094e38e76fb42e8ebdbec81099eaf6ecf32",
    "build half_sorter4 --out - --format json": "29b813db04c1f680701c8443ce5c5062aeb4a0dd36fa47d707d4e48b02e347be",
    "build half_sorter4 --out - --format hdl": "324bc7dfd885a7f1be09d9445d9b223cdea0316c0936c63f9a3416b788657ce0",
    "build half_sorter4 --out - --format dot": "9c28b0aea4313c11430bbe5f420270365995c5e7c76bfc365f51e26d5aa6e1d4",
    "build half_sorter4 --out - --format dot --annotate": "6bdc2b2b0af1a8bbe127bb4ae1b2a8e79b5170eda16153d5b1875b62491c42d2",
    "verify half_sorter4 --out -": "d8b56f3a2426ecd378a7998bf2147a25a6d5c5f46dee80243a1c4aa588139764",
    "verify half_sorter4 --out - --random --seed 5 --count 300": "084318800db777e823375ddc7e52766cc67c7b32f0397e2fb1db2b462edd0ed9",
    "depth half_sorter4 --out - --inv-cost 0": "b97391fbb5aa2171f4a5da7bef152f0bbac7cabb2049bfdfa46b21010ed9ee99",
    "depth half_sorter4 --out - --inv-cost 1": "6df1afa326c300dbc96d9b24789bf445d9c899b2f27c15842f99cad070adb021",
    "build sorting_network4 --out - --format json": "dfe7d785204243ad0898daed64b1e1f4f87523a246406962acea1b6d24fa4a4d",
    "build sorting_network4 --out - --format hdl": "ab0278f40f160961f42649b90de5f66786b6d8cc51a8a7b3df44e4d9e0e21ac2",
    "build sorting_network4 --out - --format dot": "4ed6029474004026ca169804330b902a41be76bc20ab4125de74fb34a28cd83b",
    "build sorting_network4 --out - --format dot --annotate": "0f87c24224590ab2b35f23040aa95e5dd720afdd340033f6b52a701c51a1b7d1",
    "verify sorting_network4 --out -": "d5604bcf8399fac56269ef1c60965d20b8c6e7b08357a53161a8a8f322911e47",
    "verify sorting_network4 --out - --random --seed 5 --count 300": "dd3fd39efbf6d021cf0f2f6c96bb159cab6b5d6b3b48978db1b03545fa48e084",
    "depth sorting_network4 --out - --inv-cost 0": "9eea515b45ee2df28b825613998306a82eb38768cd8aaa43d369a70c7e3abc38",
    "depth sorting_network4 --out - --inv-cost 1": "c7769aa4df7e0435feb1e81f8727d147eda8647c79049c001867fb2713bc3718",
    "build sfa --out - --format json": "d239f571562dc8bdc6ea3ce242cc96d0c55dfacaf9050b10c4b00f19f195e2e1",
    "build sfa --out - --format hdl": "9a462665c92cfb7ae6f94310c1e5b0c876ed3c019f0fb7fcbbe2ff51ced9ef87",
    "build sfa --out - --format dot": "550ddfc528b724782a9e28c3c595290026e5b3f6c28dc4b744e749a9d41f29a0",
    "build sfa --out - --format dot --annotate": "99d249e209ffd98074cf3cbdcf7f78200cc68f5771f8b0ba6bd581d982c5b780",
    "verify sfa --out -": "3253822df7bfda94cf5236080fefe08ad2f8f409abf342ea8f9de9a495b976de",
    "verify sfa --out - --random --seed 5 --count 300": "486adb3444b5de172a2d16d481308a2b87a78a491ea3f862ac61f207c487cd27",
    "depth sfa --out - --inv-cost 0": "0c40454ab8191f9a26819f6e5cd902185143c7621e03b9f7f29f1a0f025e9bef",
    "depth sfa --out - --inv-cost 1": "42129c50178142acef85c9f04106bd56a1310e812ef3e4a8386747233e9acbda",
    "build traditional_fa --out - --format json": "aad972a9f14b95a505a425e148d05caab8fbcd71c34bf92830a99b37da2ad5d2",
    "build traditional_fa --out - --format hdl": "2b00ab92c4f5ab85171918719e335ba7dd300b18e3d7d5403dc3397f63bc8d17",
    "build traditional_fa --out - --format dot": "6492970a8ddcd3084c9337b7b643af13585eca485b63be95612ddf2d59e4f8b9",
    "build traditional_fa --out - --format dot --annotate": "5042d71577351d5cd5e873ef35da42f042f9ce9c5ed514f60efaa78281679e6d",
    "verify traditional_fa --out -": "4332d4724e7962da3ae76b34de3ffc253ae17c6249af665a0d1a6d85e2f98dee",
    "verify traditional_fa --out - --random --seed 5 --count 300": "febbd592419db594805c69da59ff830c57505309c7ead4162893939e7a5c2910",
    "depth traditional_fa --out - --inv-cost 0": "7fffea6bfd528d4cdc705e90b3be47b07710b693627519ded94a5077b9843cbb",
    "depth traditional_fa --out - --inv-cost 1": "9e8283244085052774f11d33be0b2e82ef5c6e375c99c484f6d68f2a9d006038",
    "build adjusted_fa --out - --format json": "2d86f85d0d8429fddcc7092d2964d2f5a7dc7f4a14425b0e8b72d122635c789c",
    "build adjusted_fa --out - --format hdl": "b0e306375c18affd0d02a2960f7a10ecb6f258d546c33c2df84952305045a4f2",
    "build adjusted_fa --out - --format dot": "7d6fcf780c5c968bfb55c772d16d488a1405896f5fcf04b9be3c43b33da2a25d",
    "build adjusted_fa --out - --format dot --annotate": "4eea35d6e09c32cdef042841c0fec27cea13cd06cdfae367a229e5b257f03406",
    "verify adjusted_fa --out -": "452f8f9ed8b10d39c779958f840323721fb79490d6ee146ac68f0fd2a0e745fd",
    "verify adjusted_fa --out - --random --seed 5 --count 300": "07d4a19a1f9eba1362a1693e831a4d2e00487b7f8803475175b21ceb748e1739",
    "depth adjusted_fa --out - --inv-cost 0": "90d951bb834996db06ac546c672a23f4710f8b437642296ef5059c1bc43e02c8",
    "depth adjusted_fa --out - --inv-cost 1": "b31c22d35c95d6950f5a13e2cdbef44c33fd4f437261c48c90964e3e05f6a4e8",
    "build compressor72_proposed --out - --format json": "fdbe3855dbd484a260a207d9c6149841238d6b3fc04a9751b957a2d91482b93d",
    "build compressor72_proposed --out - --format hdl": "9ab2a5e85507e30fc6182bf06b2d395d96523312a89c497a20057bb92bf9e2ea",
    "build compressor72_proposed --out - --format dot": "f9de84066680ca0bc420afe51be14a5a8b325d8e5f02b90fb032958383d897e9",
    "build compressor72_proposed --out - --format dot --annotate": "d523741c09cd28777c08938283669367241f69b6883f53778f0c26e960f8fa25",
    "verify compressor72_proposed --out -": "483802175fab62af4822fd55ac9a31453878f1b658b9e4b72d6f912a9b1cc066",
    "verify compressor72_proposed --out - --random --seed 5 --count 300": "f4d1d1833364cb40aac203fd416bc42052677fcbb701bd6ab6370b3421d4e535",
    "depth compressor72_proposed --out - --inv-cost 0": "643bdc119db67bb650c96bc248c0cf3ae48b0246fa5f35354307e24e7e53aed6",
    "depth compressor72_proposed --out - --inv-cost 1": "ad1a39057de1eddea2e5a7da629164a80b3dd9887375fe5c6622df69ef98f536",
    "build compressor72_cascade --out - --format json": "fbd0733e0f54ee9a74b1674eb64085e2013acae55f54b462cf99895d7be2a9a0",
    "build compressor72_cascade --out - --format hdl": "0489d1a69db1db026411ab320ca07adc98ea4fed82b7613bd9adebded0118615",
    "build compressor72_cascade --out - --format dot": "8d2c6319e7cc8fdfd848a725d98fe23376212e30ce5ae449faab6ab110948f81",
    "build compressor72_cascade --out - --format dot --annotate": "a7b6a8121ced0645c6f69ebadfd662e70b6013b818cf7ba3374d595c1fb167c7",
    "verify compressor72_cascade --out -": "bb278d43ebc2b5e52f77ce0b70d71f5b56f3e3ad32a1fc2d91f24798f24c1a5f",
    "verify compressor72_cascade --out - --random --seed 5 --count 300": "a4bdfd558ebec16f8b57546e7b7c77bc17cb2b17e92a0c11908eff0740139d8a",
    "depth compressor72_cascade --out - --inv-cost 0": "b421a1e928cf6d6c9f9b00d1d3928836e8a7b1c9e647fcbb023aa24ad3415cf5",
    "depth compressor72_cascade --out - --inv-cost 1": "6841de057bcf6cd2c9c8e5550711521515b92f9090dabf5e292017820820034a",
    "build kogge_stone --width 5 --out - --format json": "4422b7f0123b3778dc5c1f435fb66787755a85305bf629f05b9ec04e30f2e043",
    "build kogge_stone --width 5 --out - --format hdl": "530fde07ae76b3cf3e0b8a8405e910d776d6af1fd361ec71a87d0118212147f9",
    "build kogge_stone --width 5 --out - --format dot": "61cf6fff4a70974076c604f80350970222a2ab86257b93d87006a9348db8163a",
    "build kogge_stone --width 5 --out - --format dot --annotate": "9805a44153d2c8e4f596c6f85cc15f8b4b9367d162a91d64dada6117aa8d361f",
    "verify kogge_stone --width 5 --out -": "9f5094f1321e34b9ca45108178737c355b886411d4bd5613cc82c2ab0e55a0ee",
    "verify kogge_stone --width 5 --out - --random --seed 5 --count 300": "49cea0b75a707a89893e3ea65e998d81668c7ea08d19ce66ce30b0e18e396bc4",
    "depth kogge_stone --width 5 --out - --inv-cost 0": "dbeace63302ee9eeda5ad4fc183ea0d0f0f3d76fedb5b7bc14a0b974b28539e1",
    "depth kogge_stone --width 5 --out - --inv-cost 1": "362b252e4d452335fad65d49eb650f3e6b9b9c8d275cb5ed36712d69f7e498e2",
    "build array_reducer --cols 3 --out - --format json": "443c5b0fafadd05aa80e0a966bc128767e0e7e439c7bcb5a0abf93ce41856e99",
    "build array_reducer --cols 3 --out - --format hdl": "78d7c06eae0cfafbbd67e5ce655c125b6c905457c6166893c9693329a8198265",
    "build array_reducer --cols 3 --out - --format dot": "f19c1f3778a1c45ff134d71e5c2bf8d23b8f33438263f75ced88553ab10b11a1",
    "build array_reducer --cols 3 --out - --format dot --annotate": "f8b696e4528473b78427923f4132e76a28d0ff7a97fded2e6bb7b1c76e45c445",
    "verify array_reducer --cols 3 --out -": "a5765050e6df96fc41224a303deb0b39c3a2aeb4d827b7e2736d0d13717988e2",
    "verify array_reducer --cols 3 --out - --random --seed 5 --count 300": "681d5d95e0afccfc1a4773f5430552d5db22f1eb9b6aec1ee3a7ad1077c7d0b5",
    "depth array_reducer --cols 3 --out - --inv-cost 0": "30e66e52861c80f06b7362ab4c6e86d69f4c098edc3f66188a5b4ab24caf9860",
    "depth array_reducer --cols 3 --out - --inv-cost 1": "9ed3f4e087befafcccd003169f7789a985d632ce6935f6e58ce76096617528ef",
    "build pipeline --cols 3 --out - --format json": "80c1ca9a8cab475e10b27ac81164cb49b36402e56433ababd98e648c5e0bfde7",
    "build pipeline --cols 3 --out - --format hdl": "83aa0fc5340c9770a575d73f820221a9c15e9b4eef8bd92359c873e7964b1fe7",
    "build pipeline --cols 3 --out - --format dot": "9266fd6e1309bd521a7b7a4eaefd7f4cf677286d3f249225f081abb143a7277a",
    "build pipeline --cols 3 --out - --format dot --annotate": "0c6cf5ceabe142f8649fe17fdd23ff26392c7cc46a5d182fec3efef0061f319b",
    "verify pipeline --cols 3 --out -": "a7383f65a56c35285389d97439299546ed09d34cea9f00c7b33da1b9090204c1",
    "verify pipeline --cols 3 --out - --random --seed 5 --count 300": "a4cdcfabbb4397d8e931566471695e66c0e820bf4efec807441f7c1565d4dadf",
    "depth pipeline --cols 3 --out - --inv-cost 0": "1f8dc5fec09c5de9d04ab6800098647d969fd78eededf53e08ebbdd273e8d690",
    "depth pipeline --cols 3 --out - --inv-cost 1": "4fa9ed8f56f36c9b3ac8b37cc5c1e9da264ec8adf895af1f91a6e417f6c54da3",
    "compare compressor72_cascade compressor72_proposed --out -": "824ed888a09720c93ae553c8572e2e2fbbcd572b4cd2591b14005eebe063c956",
    "compare traditional_fa adjusted_fa sfa --inv-cost 1 --out -": "c17d7d5d11edc2056d2e686de8e7f22db82b3be2049bdd4b07aa89c83e160e47",
    "verify compressor72_proposed --check cin-independence --out -": "546a65d96fbd7982a91bdbfae0cf7825ca815ece1b9f6ee3a90cd479d7d9a0c7",
    "verify compressor72_cascade --check cin-independence --out -": "8456874ecb47681538c63248b342b1aff30257ea7cd8f7376603b1f86d6ce514",
}

MUTANT_DIGESTS: dict[str, str] = {
    "sorter2 exhaustive": "9a2b48d89e49d34fe810da8eaf7cd91b3d5ac828345f2a86cc26ca4d14b3bb0b",
    "sorter2 random": "5607cb70e90cb1050f903127b8d74aaa6e6924d14b1dea473993aeadbbe49ec9",
    "half_sorter4 exhaustive": "dfaa2720b2cf179949ce1431c16b44d014c7dfe26a3a51aab61db9f127554f0d",
    "half_sorter4 random": "f7a7ffc83eb0de5d11d58add361091c49b29e78e1cdb82adb51bce2a726e9652",
    "sorting_network4 exhaustive": "81ff7b2e185d2b912e3dec9374f3336a5f73300e9ca6dfcd999d7f47d1fc535d",
    "sorting_network4 random": "7ad4b71ae2f3f07c195849921c52ccd461f9b3411e559f02b21d57962439b802",
    "sfa exhaustive": "b3d73e2ab5a329eceae63eb5d42e580c80a4da5561cc7daaf78f94d64a432a17",
    "sfa random": "0a27a7ece2edb5995e29482cd48236a19579041fe00303616ae1820a9628bd17",
    "traditional_fa exhaustive": "3e6e0c59945bff21d97d8892c1b28ebaf50f954dac472547baf6d758ee9f3e4e",
    "traditional_fa random": "3346f6be96c4055429a72f16815c2c9b6ecaf32ef6537c5695bab6f59c74003c",
    "adjusted_fa exhaustive": "7b6aee88ebd1eb74f9a658e7886571b0193981d6911d0ebd8dc03fd2b1c66c98",
    "adjusted_fa random": "cd477c21be5e0d6e55916f2716cfe1a54dfc084ba6dcee35df80da961ef636aa",
    "compressor72_proposed exhaustive": "ede7e38e2fa3e1638c8e1146753beb4e2aa0e8851739f0a9d713da4fbf71bdf2",
    "compressor72_proposed random": "f0f26e8a2b75609a99ca1a91b17c61d13fa6cd2484637566134e242477e3eb76",
    "compressor72_cascade exhaustive": "367741feac09a42481aa842d5b99221541f937c3ea6eed7716de45741104cc8b",
    "compressor72_cascade random": "98be830198cd327627b2e499499e80bf81fa9483ce4f715496d25f301121a1fd",
    "kogge_stone exhaustive": "137579053587af01bc9669c09abad55adae41cd23c4f7a1c7a0ba4cf614fb3b9",
    "kogge_stone random": "5d8b13a49b9aec8447e97006093d3c94870697be901021d45a1f9a4c34eac9ea",
    "array_reducer exhaustive": "ae58272b8c14e03e0c52e9f338cab3be98eaa720c9bc7f2b4a35706fd69bae41",
    "array_reducer random": "b34997765252d4b2ad973b29781d52675adaf897ce8ff96bae8bbaefd33de8df",
    "pipeline exhaustive": "e6c976536e2e3b02f78ced9f30f04a72fee71b907606015f9e27194b88d7a160",
    "pipeline random": "fbbf05b76133661599a62491960567c2fda9a3f1a3a8c7b29bfbda03cc7630ad",
}


CIN_MUTANT_DIGEST = "efaf8d1469f67dbab53c52530b33796c44e1b4e4a349d00e1c4c0d35e1ac10c4"


@pytest.mark.parametrize("key", list(CLI_DIGESTS))
def test_cli_output_is_unchanged(key):
    assert cli_digest(tuple(key.split())) == CLI_DIGESTS[key]


@pytest.mark.parametrize("key", list(MUTANT_DIGESTS))
def test_mutant_reports_are_unchanged(key):
    assert mutant_digest(*key.split()) == MUTANT_DIGESTS[key]


def test_cin_independence_mutant_reports_are_unchanged():
    assert cin_mutant_digest() == CIN_MUTANT_DIGEST


def test_digests_cover_every_invocation_and_block():
    assert list(CLI_DIGESTS) == [" ".join(argv) for argv in _invocations()]
    assert list(MUTANT_DIGESTS) == [f"{name} {mode}" for name in REGISTRY for mode in _MODES]


if __name__ == "__main__":
    print("CLI_DIGESTS = {")
    for argv in _invocations():
        print(f'    "{" ".join(argv)}": "{cli_digest(argv)}",')
    print("}\n\nMUTANT_DIGESTS = {")
    for name in REGISTRY:
        for mode in _MODES:
            print(f'    "{name} {mode}": "{mutant_digest(name, mode)}",')
    print("}\n")
    print(f'CIN_MUTANT_DIGEST = "{cin_mutant_digest()}"')
