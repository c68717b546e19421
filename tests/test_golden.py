"""Golden-output pin: SHA-256 digests of files written at fixed seeds.

The reproducibility tests elsewhere compare two runs of the same build, so a
change that alters a draw order or a single coefficient still passes them.
These digests were recorded once and are compared against every build: a
refactor that claims "same behaviour" must keep them unchanged.  If a change
alters the outputs on purpose, it must say why and re-record the digests.

Each file is pinned four times.  The ``*_V1`` tables hold the digests of
its rendering in file format 1 (``oracles.render_v1`` of
``oracles.render_v2`` of ``oracles.render_v3``), recorded before format 2
existed, the ``*_V2`` tables those of its rendering in format 2
(``oracles.render_v2`` of ``oracles.render_v3``), recorded before format 3
existed, and the ``*_V3`` tables those of its rendering in format 3
(``oracles.render_v3``), recorded before format 4 existed; so they show
that no value and no draw moved with any format.  The ``*_V4`` tables hold
the digests of the files as written.  ``report.json`` has the same fields
in every format, so its digests are equal up to format 3, whose indented
layout its rendering keeps.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from aces import serial
from aces.channel import ArithmeticChannel, RandomSource
from aces.cipher import encrypt
from aces.circuit import EvalKeys, RefreshPolicy, evaluate, parse_circuit
from aces.cli import main
from aces.homo import hom_mul
from aces.keygen import keygen
from aces.refresh import secret_refresh_checker
from oracles import dumps, render_v1, render_v2, render_v3

DESK_ARGS = ["--p", "2", "--q", "15015", "--degree", "4", "--n", "3", "--bigN", "2", "--k0", "1"]
MID_Q = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
MID_ARGS = ["--p", "2", "--q", str(MID_Q), "--degree", "16", "--n", "6", "--bigN", "4", "--k0", "1"]
ODD_Q = math.prod((5, 7, 11, 13, 17, 19))
ODD_ARGS = ["--p", "3", "--q", str(ODD_Q), "--degree", "8", "--n", "4", "--bigN", "5", "--k0", "1"]
LARGE_Q = math.prod((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
CHANNEL_Q = {"desk": 15015, "mid": MID_Q, "odd": ODD_Q}

CIRCUIT = "in a b\nt = mul a b\ns = add t b\nr = mul s a\nout r s\n"

GOLDEN_CLI_V1 = {
    "desk": {
        "keys/channel.json": "97032fd81ac66cb2f889a71d0774af04ce5f8da18f0da5b7f3564ef7ebb60c17",
        "keys/public.json": "f947523d5a95c96685154dc2a04b178b32d5242b50a4c188abcb07fe53f2f83e",
        "keys/secret.json": "b44cd727abd0a9ddf21417b4f758df3b498716ff7d89d8f1613ccd05a6a7f0e8",
        "a.json": "e9200e46a52794fa7f9c67f18f7933f0a662c6e2a2600d599efbf3decaaf1593",
        "b.json": "6143c5769115cd95291cd71f5657274d45c2bbcfbddfd418bd98b288254bd55f",
        "out/r.json": "f42a21f22f3da50dc3406bde75300587cc7cbe321d77fe6590f26e6a35465e6a",
        "out/s.json": "df183691112a1151cddfbc6f36da08d5ce17cd4a24dc040c5bda41eb30c0c246",
        "out/report.json": "a1cf5732c40e00c1ea21e1e80046fc5f7995a2d97ff66434efb624a2399176de",
    },
    "mid": {
        "keys/channel.json": "09146a750167b79a7bfae297964a48dc76426e9b800b1c58e0a870954d4b8ff1",
        "keys/public.json": "9adb84deb4b5ce9f38a5280b0d78324baff4287b13943fa26ca47847cf7b952f",
        "keys/secret.json": "716d5017b147d49809d0b206eb9ff9909f49ecc32caaa52eef5895cc12125523",
        "a.json": "6aeb6c18a57346e6fa5f89739cec6273ebaf96992a93cc23a8b9312c3bef3afa",
        "b.json": "7df84e01e91c9490c6b6810343441495ac748fc9bcbf0ee30ab0b2b398f1d3db",
        "out/r.json": "93a619c1f27fb1f1308deabf6a08cfcff850a6f4b225e239b247a214a01b1c4e",
        "out/s.json": "9cf16a437e35ad2539cdef17177ab7dca2a7d164fda64dc3dfb6815ff794e0e9",
        "out/report.json": "134af46bb3285e765c65593541cab81fbab6dcd8f330c770d23ab2268ffa9164",
    },
}
GOLDEN_DESK_REFRESH_V1 = {
    "t6.json": "dd88e5f979e4f2f12a4798cacb5554e24775260d0121902148ea03370df49827",
    "report.json": "b91b86242d6542c2a25f5d44f2b0e6ff66413e1cd5c7728e21877c963835d6cb",
}
# CLI keygen (seed 7e57), encrypt, then refresh --secret (seed f1), at mid
# and at the odd-row channel; the encryption seeds were picked so that the
# input is refreshable (so the exact check passes at once and draws nothing),
# and the refreshed file decrypts to the message.
GOLDEN_CLI_REFRESH_V1 = {
    "mid": ("e4", 1, {
        "keys/public.json": "b10bbe7797ecd97554596375ae0f55845afeb5f9f6d9582fd698df2fca350f11",
        "keys/secret.json": "c45191c3ffae1546ade31a55131290da41de2086d3c9589a4c7907d812251466",
        "a.json": "d1d4cb42d5d2ce838a654deebc77e26ac046c3bf86e08887c8fa341afb88c25e",
        "fresh.json": "100e764bd75a97f6f35ae1c9ca5ad720adf1834e387ef38517c188ac711d98d5",
    }),
    "odd": ("e1", 2, {
        "keys/public.json": "45aea8053f3fb1a5761ec5bfdd9b6759d2e240d6498170617c7d00900eeca41a",
        "keys/secret.json": "9411abd3cb105e24ae6545e0503ec4ceb1c7b90e0074a24ee51d78e8bbbace57",
        "a.json": "6dfd16f2190aacf37c1e1ed7c6938bd44e7257ecca2950774b53c7160a9b8571",
        "fresh.json": "f615cf5dd39e7b14d4b4d593d90abb9577c8f4fce3cd1349b51bf880a6015d82",
    }),
}
GOLDEN_LARGE_MUL_V1 = "3a839708e9c4b82bb88a10c1dd459c4744d2a42524fee0b7a1ffe14140515e7d"
GOLDEN_ODD_ROWS_V1 = {
    "public.json": "07bb8b79679aef284c780eb73d8d56cba0b5e649427a6141b2b9bf7d9b7ebb29",
    "secret.json": "a0dd2a8c456ff8232ff1aeb71ed8c1c12368f4900413f47bd93be4b2095ea9ec",
    "a.json": "9374b17b18d11b2fbfde068fd1747cd9220b9ebdd882a10ddd3b17cdaf8a0d9b",
    "b.json": "d97a0e6d2f29d71b2d6dee29ce4f0288529d032fa2984c4f693246ffb7cc9d6e",
    "ab.json": "b1aea759a9b63b95f9abd97a77711e182032836ec194749f91bd525a038d0f53",
}
GOLDEN_CLI_V2 = {
    "desk": {
        "keys/channel.json": "999f5c9b8d8457c5e09edc274313eb7a1feb77e3be2b7b9c25dfa4caf2e6d85c",
        "keys/public.json": "6a740b55b99b2b7e062d0d42343a5ac5d16fcbe8cd69068ed8b8c289644f5800",
        "keys/secret.json": "089fc1b6f8bd2b001ef28f91004966b94977640f6a3b511d9d87960012a67299",
        "a.json": "2d5c49ed12b175dd85350c21036758206f8efeee84f5b636e62da4bc6bd8d417",
        "b.json": "bee4f2319226eb99387ef11cfb612a7efc481b073121ddbf566efb2fb665c3f1",
        "out/r.json": "05990d3f7d1979c11d56f092252fadcb83fa276dfdd1995e5970818a3f5a9c8e",
        "out/s.json": "ec8074aa590b83f0837dedf67ec71588e5945ae92f77211ab2abcb8f1d4a6721",
        "out/report.json": "a1cf5732c40e00c1ea21e1e80046fc5f7995a2d97ff66434efb624a2399176de",
    },
    "mid": {
        "keys/channel.json": "0c35ef8be689bc6744a0007848331fd454eee7706c1c56f0a84e50a461d5d13f",
        "keys/public.json": "8eb424bec97cc109dd4bad16204da46d917a2ad0d3d15d02aac2421e2eac9e08",
        "keys/secret.json": "b4c7f6ea5633a91587ea41472256756e18318478c5474c293fff3220bda64c92",
        "a.json": "9475f65da48384f045281828b90dc4848fda6d43e47a1b62ae9045b0ce53a6b8",
        "b.json": "895a984bb97aadd9b2b3d486f802cd5f4da6cce263f63677d5c708a1d6a43f99",
        "out/r.json": "cd00348d6048ebb993bc117e3c7e59675184ed0ab95871ee72551089748e60ba",
        "out/s.json": "a133982a5011ba816cbf69aca25bf2c87793e4f7f7da44bb859515af2de89213",
        "out/report.json": "134af46bb3285e765c65593541cab81fbab6dcd8f330c770d23ab2268ffa9164",
    },
}
GOLDEN_DESK_REFRESH_V2 = {
    "t6.json": "02ad28adc9ad7ab9153c917152085866ffd2e9bc952ff07a70e4d75be11940b4",
    "report.json": "b91b86242d6542c2a25f5d44f2b0e6ff66413e1cd5c7728e21877c963835d6cb",
}
GOLDEN_CLI_REFRESH_V2 = {
    "mid": {
        "keys/public.json": "007b1e7224813981a1c654e89699f8b82807fe7fa95cf09441ab14d661ae9365",
        "keys/secret.json": "9382e17ee91b03a34ce8bc159dc225de60313cbae2a529ab323a67dc6e51a026",
        "a.json": "473e95ed101998bde65d25c19984cbd1c4828479e23193d8e85a57c1862d563d",
        "fresh.json": "54bd1291087ded86200694e0788238842639e4f8924f343913f807b4bf79e47d",
    },
    "odd": {
        "keys/public.json": "cae9940f1b963223b3bc83a7639d54ef92384e03d7465fc57e9405b28efde780",
        "keys/secret.json": "ff40dca7ca9809a308ff53c7fa3ddf1ee89a60e302fa203cdda6c6b293544548",
        "a.json": "7097a456d2f0f879f29cc37cbfb14085efa76e2e05876fbeaf59798b9d4911a6",
        "fresh.json": "34db01cbbc4b72aff27b9626774833452da90ebe559fe9a6c14deb665f88d6c0",
    },
}
GOLDEN_LARGE_MUL_V2 = "a0caffbd7032babbf322d9fb826b3c23fee95977defa248b52d4db0468a1ed9d"
GOLDEN_ODD_ROWS_V2 = {
    "public.json": "a7d253106b77b1d7e0dd26866f0b65a1ee990f47ad0213294c05e2fe054c2534",
    "secret.json": "3d6082bc5ba673bf5dab96203f965cdf020c86cc391617653cf7ade1155dbba3",
    "a.json": "d9c6fc8bf355391865408c4828b72bc90aed246c93d9d58c07a5c8566af684cc",
    "b.json": "e5aa7a371fe9fa4bc1dd1e570b82200dec54b07ad33e1cf4f0c0e265ca16f030",
    "ab.json": "200c6451460b0ff9ad2b415160ff8ae5ddb470b111680ba43f670fa968ec13f2",
}

GOLDEN_CLI_V3 = {
    "desk": {
        "keys/channel.json": "514b1a56b5666d6b20020faa1eb47835e779a0c8bf10732a7c9cce77a210426d",
        "keys/public.json": "08cd3ca431dce6ee32827e62a1fe4dd334c84c4b44d83b41490d7eb04ba70086",
        "keys/secret.json": "c57b6717b0011282e9b4b07731404e34c5eb2bbc913eba764e73bb5860e972f4",
        "a.json": "25c83d9b9b8349207c87b3e9e47936dc3ed791bacdc21801747790559a6a12b5",
        "b.json": "f62f8d7f76086fe97c32920ea6aa9cf972664b8206defd47eac47470a82e36c2",
        "out/r.json": "4c16f78d8966cb6915dea9ebdbb7cc1942a540d42724e119199abb4f6b3f1167",
        "out/s.json": "8963b03ab7cdc651f162feff614dd763eb74d127bbbb6cea4230b83590e5cd94",
        "out/report.json": "a1cf5732c40e00c1ea21e1e80046fc5f7995a2d97ff66434efb624a2399176de",
    },
    "mid": {
        "keys/channel.json": "bda35e954a1928a618da4314e78f0f97c86086be1d92f9093cdd7ea5722152fe",
        "keys/public.json": "acf69b8debbaddbe789684abb9fa2251c3f0a0ad3aa56faa1cc96c2320e23d8d",
        "keys/secret.json": "853d9d9e31628e1618551170f5a90a13bddc716128429d4c33cacf1693c76d05",
        "a.json": "0627ce1c712c9b5a6199be7b2b6e3320ccd5cee450428d4419b87a440ed40d9a",
        "b.json": "0c5a4dcb50cb580a5238106b3eec3349909389e1b939d9a01498ffe0b8a78f65",
        "out/r.json": "2c41d3a5d530246dcc939a38756d5f6281960a604bb99d7f32d9427591ba744b",
        "out/s.json": "0415db1bc3169e54e8a838cdeeaaa2a8754b06d2560d4137c689b0393346e05e",
        "out/report.json": "134af46bb3285e765c65593541cab81fbab6dcd8f330c770d23ab2268ffa9164",
    },
}
GOLDEN_DESK_REFRESH_V3 = {
    "t6.json": "a32b1c1d85b0618007443d8f8f72e08407f1946a00dad02fc7824341e09b8583",
    "report.json": "b91b86242d6542c2a25f5d44f2b0e6ff66413e1cd5c7728e21877c963835d6cb",
}
GOLDEN_CLI_REFRESH_V3 = {
    "mid": {
        "keys/public.json": "4f3a160b60d9fef0a93764013b7d8382e933cf3047b517a729501636f78aab0e",
        "keys/secret.json": "31c89f07407751f3f7c0552971fef6ce54c84d10dc7286ea81d303b103e6428b",
        "a.json": "cbd4f6237d71a41d2df67454a86c821c3b83148e85375657d7a2427e480329ea",
        "fresh.json": "8455ca5560c45d5690bb4423227465429b4781fb99b9664220c84de1becf0044",
    },
    "odd": {
        "keys/public.json": "b637a3c10083ba515ab1951f38a543c6b5f56b3e37d1416961e6820344ad4767",
        "keys/secret.json": "7323f5ea4d25a462a08e4899d32b480be829f495c5533ea2e59fbaa096968a08",
        "a.json": "3bf066098b1af0e97e5995ab93467ea96400de0192f78349ad96be3605449688",
        "fresh.json": "f5b79f5c77d54085c52b6e800374969abe76eeb61c5ae1ece4a0cbf8893bf3e5",
    },
}
GOLDEN_LARGE_MUL_V3 = "993e6adff8aec7b00b599c4190435dbbdb43aad11aaa94159465eb5e74f66206"
GOLDEN_ODD_ROWS_V3 = {
    "public.json": "fc469ca3d6fdf3f25586bc98217265abeb2261a0a24bf77d3380bcbb6c603e4f",
    "secret.json": "7ea6648753caee5e5065e453a88af65b009217c89ad148bb13997e93dd75cc68",
    "a.json": "aa9729bba757bde2e235839582a2d8966391108e711443a28a890ff3b451b80c",
    "b.json": "01082f41b3ffb0465a9d863479d468da3e6de46591cc80662b234c15716ae05c",
    "ab.json": "1f81fca6414927a13aee77201611b250c81a57f183cec26d049cb17e6ef05951",
}


GOLDEN_CLI_V4 = {
    "desk": {
        "keys/channel.json": "133bd1ed8f9f54ac909fb728ff46b5d381de4f8d2fce9d6fb39556a7a2b163fe",
        "keys/public.json": "0c5fe65ce589b13f186c4fb7d1432c8536825942d8a39766746fd7d07880d784",
        "keys/secret.json": "35b3153489a08e6b4e2dcfd9808bdc55646405ffa5bd67d3c75f545ee330e443",
        "a.json": "b1f917a38dcca6443855695883fab0dc2078d6c38db9270fbf449706d95fa313",
        "b.json": "66d1e0392dba3f259d8d580c9213ff92995d1ace17715889b1ab227a7961c4c3",
        "out/r.json": "8d6871a50939830de503d5eceaec64db4ac7a2e015c69b805210a8b1ef60563c",
        "out/s.json": "a1038a563bfdcf2ce8aa47525591182ed7cfaaf059a9527a18f7f812e9bc4ef5",
        "out/report.json": "b047491480042efee2373c3b191104158ba1f4e1db07bfe4250d5c947d5fdb11",
    },
    "mid": {
        "keys/channel.json": "b6bdc43643725460fe82aab8b8b67366b1979b6955b0fa0538c5b6672d4fe18c",
        "keys/public.json": "8998d6a0ce56822a02a38a8ae6c4a12eed85e9489f44043d300692785e68eee7",
        "keys/secret.json": "7bec92aaa01fcb0ba97ccc1f585eb6913adf2ea2fedf77384585d578469257f7",
        "a.json": "739bb79a86f2150ab8e2680b84c091c48bfcc33a9857ad9030c5322ec6443560",
        "b.json": "b5b63b8701c6715fd0344d5c2287e3014f512d5ef241410a24c5d24cddf20082",
        "out/r.json": "b929df0ebcd762a8cafee159ca34eb4dd4696e7d959a81fc66e2f4a6a10885a3",
        "out/s.json": "ef9a4fe770af913f0ef09422131564e9521225ee8e0307016989ae9b631323d0",
        "out/report.json": "a798832f4fd826e9ac3487fbf32577960d7577e2730e16f71bf2fbe54463af6d",
    },
}
GOLDEN_DESK_REFRESH_V4 = {
    "t6.json": "8319f9c2b4e7b403f635fe690aa3496dcb79a52cf8ef11cb6f245f7d00818991",
    "report.json": "d1a053782000336889d7be0f5b4c845a6ff4b381e9ab47308413d222fcbac04f",
}
GOLDEN_CLI_REFRESH_V4 = {
    "mid": {
        "keys/public.json": "48d1cc1ecdbc8f252ed65d7621731d84d1bee2c205b96094be3151cbcd5849d3",
        "keys/secret.json": "3a4acd8d6d9616682c94cd0958e48a3f2ad4cb531b0ce83eff0855e295bb87c3",
        "a.json": "0fb4ce6cd093cc1ccddbd12c84685760d1daa54442ad7702c2542712980b475b",
        "fresh.json": "3d141bcd5fc970a257b49d741992bdc86e74f8917de09910b4eaac5d7c6668ad",
    },
    "odd": {
        "keys/public.json": "c208d3b291045f786874ce3b8ee29f9b4f471821882cd879d3b5ecf845e39867",
        "keys/secret.json": "6b14d39669bfc039961bc0efc74c47b749fbc86f005af08431fcc37d986b31ed",
        "a.json": "943880b67eeccee29cd7c6f8b6f4db1e37cb25ad32453846d8bd52487aa3d177",
        "fresh.json": "1017ce81fbf828f4494f0c1c80e9acbef4471bb188ce98a4d264c76a847160bb",
    },
}
GOLDEN_LARGE_MUL_V4 = "59b1b916ffa54d19c4efe1706431a7fc38cb42e0b7d5cfe2a970ae1cc8fb0c82"
GOLDEN_ODD_ROWS_V4 = {
    "public.json": "76d675895a00f2b6bb43a11277ffd45753a1d5bc2271658346d91a298930a0c5",
    "secret.json": "f07778f79a47dcbdbb8dd3a21eb63e54cd5f5252c673460480198efa053d8c54",
    "a.json": "c64c3bf1af9461729c5629e98827be930782a0956ba46cf0e08663ebd6ad4df3",
    "b.json": "c5955b13b9a2621be04313d030a7663b6f6fe2d8803e044307c0b9a8dedb4636",
    "ab.json": "0325d60240557a532a962a010ea94af10fc66376f10a9a0e48a32b4a12172901",
}

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(root: Path, rels, q: int) -> tuple[dict, dict, dict, dict]:
    """The format-1, format-2 and format-3 rendering digests and the file
    digest of each file."""
    files = {rel: (root / rel).read_bytes() for rel in rels}
    v3 = {rel: render_v3(json.loads(data)) for rel, data in files.items()}
    v2 = {rel: render_v2(json.loads(data), q) for rel, data in v3.items()}
    return ({rel: _digest(render_v1(doc, q)) for rel, doc in v2.items()},
            {rel: _digest(dumps(doc)) for rel, doc in v2.items()},
            {rel: _digest(data) for rel, data in v3.items()},
            {rel: _digest(data) for rel, data in files.items()})


def _run(argv):
    assert main([str(a) for a in argv]) == 0


@pytest.mark.parametrize("name,params", [("desk", DESK_ARGS), ("mid", MID_ARGS)])
def test_cli_outputs_match_golden_digests(tmp_path, name, params):
    keys = tmp_path / "keys"
    _run(["keygen", *params, "--seed", "60fd", "--out", keys])
    for label, message, seed in (("a", 1, "a1"), ("b", 1, "b2")):
        _run(["encrypt", "--pub", keys / "public.json", "--channel", keys / "channel.json",
              "--message", message, "--seed", seed, "--out", tmp_path / f"{label}.json"])
    (tmp_path / "c.txt").write_text(CIRCUIT, encoding="utf-8")
    _run(["eval", "--pub", keys / "public.json", "--channel", keys / "channel.json",
          "--circuit", tmp_path / "c.txt", "--input", f"a={tmp_path / 'a.json'}",
          "--input", f"b={tmp_path / 'b.json'}", "--refresh", "off",
          "--out", tmp_path / "out"])
    v1, v2, v3, v4 = _digests(tmp_path, GOLDEN_CLI_V1[name], CHANNEL_Q[name])
    assert v1 == GOLDEN_CLI_V1[name]
    assert v2 == GOLDEN_CLI_V2[name]
    assert v3 == GOLDEN_CLI_V3[name]
    assert v4 == GOLDEN_CLI_V4[name]


@pytest.mark.parametrize("name,params", [("mid", MID_ARGS), ("odd", ODD_ARGS)])
def test_cli_refresh_matches_golden_digests(tmp_path, capsys, name, params):
    seed, message, golden = GOLDEN_CLI_REFRESH_V1[name]
    keys = tmp_path / "keys"
    files = ["--pub", keys / "public.json", "--channel", keys / "channel.json"]
    _run(["keygen", *params, "--seed", "7e57", "--out", keys])
    _run(["encrypt", *files, "--message", message, "--seed", seed, "--out", tmp_path / "a.json"])
    _run(["refresh", *files, "--ct", tmp_path / "a.json", "--seed", "f1",
          "--secret", keys / "secret.json", "--out", tmp_path / "fresh.json"])
    v1, v2, v3, v4 = _digests(tmp_path, golden, CHANNEL_Q[name])
    assert v1 == golden
    assert v2 == GOLDEN_CLI_REFRESH_V2[name]
    assert v3 == GOLDEN_CLI_REFRESH_V3[name]
    assert v4 == GOLDEN_CLI_REFRESH_V4[name]
    capsys.readouterr()
    _run(["decrypt", "--secret", keys / "secret.json", "--channel", keys / "channel.json",
          "--ct", tmp_path / "fresh.json"])
    assert capsys.readouterr().out.strip() == str(message)


def test_desk_auto_refresh_matches_golden_digests(tmp_path, desk_channel):
    ch = desk_channel
    bundle = keygen(ch, RandomSource(b"golden-desk-refresh"))
    rng = RandomSource(b"golden-desk-refresh/eval")
    a = encrypt(bundle.public, ch, 1, rng)
    chain = "in a\n" + "".join(
        f"t{i} = mul {'a' if i == 1 else f't{i - 1}'} a\n" for i in range(1, 7)
    ) + "out t6\n"
    policy = RefreshPolicy(checker=secret_refresh_checker(bundle.secret, ch))
    outputs, report = evaluate(parse_circuit(chain), {"a": a}, EvalKeys.from_bundle(bundle),
                               policy, rng)
    assert report.refresh_events  # the pin covers the refresh path
    serial.dump(serial.ciphertext_to_dict(outputs["t6"]), tmp_path / "t6.json")
    serial.dump({"levels": report.levels,
                 "refresh_events": [list(e) for e in report.refresh_events]},
                tmp_path / "report.json")
    v1, v2, v3, v4 = _digests(tmp_path, GOLDEN_DESK_REFRESH_V1, ch.q)
    assert v1 == GOLDEN_DESK_REFRESH_V1
    assert v2 == GOLDEN_DESK_REFRESH_V2
    assert v3 == GOLDEN_DESK_REFRESH_V3
    assert v4 == GOLDEN_DESK_REFRESH_V4


def test_large_hom_mul_matches_golden_digest(tmp_path):
    ch = ArithmeticChannel(p=3, q=LARGE_Q, omega=1, u=tuple([-1] + [0] * 63 + [1]),
                           n=10, big_n=8, k0=1).require_valid()
    bundle = keygen(ch, RandomSource(b"golden-large"))
    rng = RandomSource(b"golden-large/mul")
    a = encrypt(bundle.public, ch, 2, rng)
    b = encrypt(bundle.public, ch, 2, rng)
    serial.dump(serial.ciphertext_to_dict(hom_mul(ch, bundle.tensor, a, b)), tmp_path / "ab.json")
    v1, v2, v3, v4 = _digests(tmp_path, ["ab.json"], ch.q)
    assert v1["ab.json"] == GOLDEN_LARGE_MUL_V1
    assert v2["ab.json"] == GOLDEN_LARGE_MUL_V2
    assert v3["ab.json"] == GOLDEN_LARGE_MUL_V3
    assert v4["ab.json"] == GOLDEN_LARGE_MUL_V4


def test_odd_row_count_matches_golden_digests(tmp_path):
    """An odd number N = 5 of public-key rows, p = 3, a cyclic u = X^8 - 1:
    keygen, two public encryptions and their product."""
    ch = ArithmeticChannel(p=3, q=ODD_Q, omega=1, u=tuple([-1] + [0] * 7 + [1]),
                           n=4, big_n=5, k0=1).require_valid()
    bundle = keygen(ch, RandomSource(b"golden-odd"))
    rng = RandomSource(b"golden-odd/mul")
    a = encrypt(bundle.public, ch, 1, rng)
    b = encrypt(bundle.public, ch, 2, rng)
    serial.dump(serial.public_to_dict(bundle), tmp_path / "public.json")
    serial.dump(serial.secret_to_dict(bundle.secret), tmp_path / "secret.json")
    for name, ct in (("a", a), ("b", b), ("ab", hom_mul(ch, bundle.tensor, a, b))):
        serial.dump(serial.ciphertext_to_dict(ct), tmp_path / f"{name}.json")
    v1, v2, v3, v4 = _digests(tmp_path, GOLDEN_ODD_ROWS_V1, ch.q)
    assert v1 == GOLDEN_ODD_ROWS_V1
    assert v2 == GOLDEN_ODD_ROWS_V2
    assert v3 == GOLDEN_ODD_ROWS_V3
    assert v4 == GOLDEN_ODD_ROWS_V4
