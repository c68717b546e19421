"""Golden-output pin: SHA-256 digests of files written at fixed seeds.

The reproducibility tests elsewhere compare two runs of the same build, so a
change that alters a draw order or a single coefficient still passes them.
These digests were recorded once and are compared against every build: a
refactor that claims "same behaviour" must keep them unchanged.  If a change
alters the outputs on purpose, it must say why and re-record the digests.

Each file is pinned seven times.  The ``*_V1`` to ``*_V6`` tables hold the
digests of its renderings in file formats 1 to 6: ``oracles.render_v6``
renders it in format 6 (every residue in a word of 1, 2, 4 or 8 bytes
instead of a field of the bit length of q - 1), ``oracles.render_v5`` that
in format 5 (the public file's ``sigma`` primes and refresher levels put
back), ``oracles.render_v4`` that in format 4 (the public file's seeds
expanded into the word strings format 4 held), ``oracles.render_v3`` that
in format 3, ``oracles.render_v2`` that in format 2 and
``oracles.render_v1`` that in format 1.  The ``*_V7`` tables hold the
digests of the files as written.  Each older table was first recorded
before the next format existed, so they show that no value and no draw
moved with a format: the ``*_V6`` tables were the digests of the files as
format 6 wrote them, and hold unchanged through format 7.  The ``*_V1`` to
``*_V5`` tables were re-recorded with format 5, whose keygen draws the
public seeds from its stream in place of ``f0`` and the refresher's vector
parts, so every key moved, and hold unchanged since.  The refresh tables'
``t6.json`` and ``fresh.json`` digests were re-recorded in every format
when a refresh came to draw its carriers from a seed of its own: they
cover a refreshed ciphertext, whose carriers moved, and no other digest
did.  ``report.json`` has the same fields in every format, so its digests
are equal up to format 3, whose indented layout its rendering keeps, and
again from format 4 on.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from aces import serial
from aces.channel import ArithmeticChannel, RandomSource
from aces.cipher import encrypt
from aces.circuit import RefreshPolicy, evaluate, parse_circuit
from aces.cli import main
from aces.homo import hom_mul
from aces.keygen import keygen
from aces.refresh import secret_refresh_checker
from oracles import (
    dumps, dumps_compact, render_v1, render_v2, render_v3, render_v4, render_v5, render_v6,
)

DESK_ARGS = ["--p", "2", "--q", "15015", "--degree", "4", "--n", "3", "--bigN", "2", "--k0", "1"]
MID_Q = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
MID_ARGS = ["--p", "2", "--q", str(MID_Q), "--degree", "16", "--n", "6", "--bigN", "4", "--k0", "1"]
ODD_Q = math.prod((5, 7, 11, 13, 17, 19))
ODD_ARGS = ["--p", "3", "--q", str(ODD_Q), "--degree", "8", "--n", "4", "--bigN", "5", "--k0", "1"]
LARGE_Q = math.prod((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
LARGE_ARGS = ["--p", "3", "--q", str(LARGE_Q), "--degree", "64", "--n", "10", "--bigN", "8",
              "--k0", "1"]

CIRCUIT = "in a b\nt = mul a b\ns = add t b\nr = mul s a\nout r s\n"

GOLDEN_CLI_V1 = {
    "desk": {
        "keys/channel.json": "97032fd81ac66cb2f889a71d0774af04ce5f8da18f0da5b7f3564ef7ebb60c17",
        "keys/public.json": "82dd29c0944dcd3001b8f68dcbda48cd6250ada4b2f81f6d3146b4befae43e27",
        "keys/secret.json": "b44cd727abd0a9ddf21417b4f758df3b498716ff7d89d8f1613ccd05a6a7f0e8",
        "a.json": "74c53bd1b2c6c07a417663ae6f065bb398ee532f19c4b3e14fd92923b7fb9f68",
        "b.json": "5342ce72cba1a82fa0c71bf3e9fecc36ce3b96516361a4a82bf56ac115a4c310",
        "out/r.json": "9dd7c237c27e22144357aaf33c0cf9b70568538d5b35fdcdc40226f773cbfc47",
        "out/s.json": "01344d590368f903a1a7a80b01c9e7d1aea02e90c4a3e7ba31947ec27bad37b5",
        "out/report.json": "a1cf5732c40e00c1ea21e1e80046fc5f7995a2d97ff66434efb624a2399176de",
    },
    "mid": {
        "keys/channel.json": "09146a750167b79a7bfae297964a48dc76426e9b800b1c58e0a870954d4b8ff1",
        "keys/public.json": "edf86bf65806fa7ce0aaa9e63e76d6e37bd97e7143bed72c22ef3ef30f2eaf96",
        "keys/secret.json": "716d5017b147d49809d0b206eb9ff9909f49ecc32caaa52eef5895cc12125523",
        "a.json": "4b28b390e861638320e4bb6609da9d86a214864ce2f7932fbfe00951fb45bd70",
        "b.json": "066fc44ac110eda7a2a1d7b94fac46820711302c75a006186e2cbee9a9df3b62",
        "out/r.json": "3a852559924f05a7b66b6d7b4f21f600141eb667ce6884eda4cb8895d317fda6",
        "out/s.json": "63762db7f2cb86856bf50e2e69b29afc5bc089f54151ded887b662e18f90b81f",
        "out/report.json": "134af46bb3285e765c65593541cab81fbab6dcd8f330c770d23ab2268ffa9164",
    },
}
GOLDEN_DESK_REFRESH_V1 = {
    "t6.json": "3a3aa6a9e51480152a6dcb40b5aa75531e308862fc091da4ae1314e0261902e1",
    "report.json": "b91b86242d6542c2a25f5d44f2b0e6ff66413e1cd5c7728e21877c963835d6cb",
}
# CLI keygen (seed 7e57), encrypt, then refresh --secret (seed f1), at mid
# and at the odd-row channel; the encryption seeds were picked so that the
# input is refreshable (so the exact check passes at once and draws nothing),
# and the refreshed file decrypts to the message.
GOLDEN_CLI_REFRESH_V1 = {
    "mid": ("e4", 1, {
        "keys/public.json": "c1f48f7ddb05ad571bf708191fd4e6d155d7db4d3e965e65a2fe2fa4ce6c9f87",
        "keys/secret.json": "c45191c3ffae1546ade31a55131290da41de2086d3c9589a4c7907d812251466",
        "a.json": "b856bfd503199cd7d3092f8b39108800745102286df801d9d57807cb9a0a0db3",
        "fresh.json": "c36b8ca2ae0885371ebde53d7752a6d2d36d36dcaa99b548c07ae0e5fac6441e",
    }),
    "odd": ("e1", 2, {
        "keys/public.json": "f625937d19c8d3c89f9c80d914659e292a60de9614e7e918f8e9143a37776c92",
        "keys/secret.json": "9411abd3cb105e24ae6545e0503ec4ceb1c7b90e0074a24ee51d78e8bbbace57",
        "a.json": "1cf0b6a9b275c5f287b14a821962416c8fa54eea6bac426990c55ee4024f5112",
        "fresh.json": "27c222a6779ef3ba96a3f630021cfd07ec28ae11caf10037332a57183655effb",
    }),
}
GOLDEN_LARGE_MUL_V1 = "1e76c4b35d8781139246f1bfe8e444c435edcf31fd04fa4a392eb841e46de645"
GOLDEN_ODD_ROWS_V1 = {
    "public.json": "a51ace238a20eab993a93f40ce9da595b8324d54b0aed07dd1da9d47b6c9bbfa",
    "secret.json": "a0dd2a8c456ff8232ff1aeb71ed8c1c12368f4900413f47bd93be4b2095ea9ec",
    "a.json": "31566fc0fb684e3e1bc07581f27f528f48688f2bfa1f1fa5134ffb8cc188d276",
    "b.json": "fb3e60c957761121b9747448c6a1f5ebbe29155c6de892b1cebc2f5ca8ac9250",
    "ab.json": "d059671df5153d3f348b60be64ba1040d9a6fa8858247fa3764c31aed122c0af",
}
GOLDEN_CLI_V2 = {
    "desk": {
        "keys/channel.json": "999f5c9b8d8457c5e09edc274313eb7a1feb77e3be2b7b9c25dfa4caf2e6d85c",
        "keys/public.json": "e3f5a48c433b54040964a5c3d5d711c6fb5fa96ffe37fe0a975747fa38b9e8df",
        "keys/secret.json": "089fc1b6f8bd2b001ef28f91004966b94977640f6a3b511d9d87960012a67299",
        "a.json": "ae51c4ff8a70eb80b8cafcf583383886cad580109e955758809db2d18ca6d10a",
        "b.json": "1aeb3977792b8d4f1ee74d39b290b50532149181aef2b0d6961307136227228a",
        "out/r.json": "1023a6bbf2d9cca2b9be4a75731718f18eddc52c60aa637c0c4ab3c85b35e699",
        "out/s.json": "18890ef9d2252fed3a346e37120fb8f16c679602ee3cd9498a2c74b989bf3114",
        "out/report.json": "a1cf5732c40e00c1ea21e1e80046fc5f7995a2d97ff66434efb624a2399176de",
    },
    "mid": {
        "keys/channel.json": "0c35ef8be689bc6744a0007848331fd454eee7706c1c56f0a84e50a461d5d13f",
        "keys/public.json": "76fb43c53f65ff4796fbd18f9ac358539df518e9e46aa7087a231a229e1fc274",
        "keys/secret.json": "b4c7f6ea5633a91587ea41472256756e18318478c5474c293fff3220bda64c92",
        "a.json": "9e5f2ed03a4e30a9c9013438d14704f1252c47a6ae65a0b07eb5f74d3fc8770e",
        "b.json": "dd88022e7ca67cfa3314fa4cf8b293c4386977fccd6563d77faa80fe09c6c6c3",
        "out/r.json": "297174e768c216a7474351717359084b8305db648cd3673f3f00f18aecdeaaad",
        "out/s.json": "c673a7b461ad6df73c560769a90238eef1f1fa23892a19c37ed9f61487c192ab",
        "out/report.json": "134af46bb3285e765c65593541cab81fbab6dcd8f330c770d23ab2268ffa9164",
    },
}
GOLDEN_DESK_REFRESH_V2 = {
    "t6.json": "0213010ec29dc7618df5f90e23c9bedf4887615b55c0338a6570d545febadfc2",
    "report.json": "b91b86242d6542c2a25f5d44f2b0e6ff66413e1cd5c7728e21877c963835d6cb",
}
GOLDEN_CLI_REFRESH_V2 = {
    "mid": {
        "keys/public.json": "61ea452c4ca066c861569e71f3e74e8aee961bfa8d5148b62835271e72c65c0d",
        "keys/secret.json": "9382e17ee91b03a34ce8bc159dc225de60313cbae2a529ab323a67dc6e51a026",
        "a.json": "79f25c65a9fa2265f155a4321077dfa0cd5a829f2151e3926dc8c7ac54dbc223",
        "fresh.json": "df73d1ee18b78c87f33a45cb8d320c0b700a101e596df992577332738521a726",
    },
    "odd": {
        "keys/public.json": "609daf493bdbd1931158a2e766e2774a5511d31866596d291bdcd8df240d9a1b",
        "keys/secret.json": "ff40dca7ca9809a308ff53c7fa3ddf1ee89a60e302fa203cdda6c6b293544548",
        "a.json": "e82acf01c77e9a39446787aa3c5b1d265e3692e77dd0eaf6b7c35fdf5cb2482a",
        "fresh.json": "890763e53e2f74250950b21642c6404b9cd4b534b795e01f4f3eb00f2d031c8c",
    },
}
GOLDEN_LARGE_MUL_V2 = "f52f6beb6efd2423be0d9af25e4029d3272c0bb4e60c3cf4a60f761906fc7a59"
GOLDEN_ODD_ROWS_V2 = {
    "public.json": "dfbaad1f8329b2c73278fbc63a076a27d63a796d7cd863ed55a8d0a847d5411e",
    "secret.json": "3d6082bc5ba673bf5dab96203f965cdf020c86cc391617653cf7ade1155dbba3",
    "a.json": "aab82155ad9b0110e9eef1e2658b554863e2641e6c4969029e991509edf1d2ad",
    "b.json": "a7f9db1858b6d80bdd4d5cbb17b11a728031d8fe4bc34b626bf04c30de94860e",
    "ab.json": "ca5ecfd6086a6404edf59099954a1a1fa389e54f9fb284065cf1d4163d689911",
}

GOLDEN_CLI_V3 = {
    "desk": {
        "keys/channel.json": "514b1a56b5666d6b20020faa1eb47835e779a0c8bf10732a7c9cce77a210426d",
        "keys/public.json": "ae714d7ebfe3ca260128f6295741c9df76c7e97015fa9061ae5ada8b2ab32e51",
        "keys/secret.json": "c57b6717b0011282e9b4b07731404e34c5eb2bbc913eba764e73bb5860e972f4",
        "a.json": "0c62be5608f35a3ba99da650d7f003f84c441fab2649b76030cbb527d1924fa9",
        "b.json": "0c922119569e973a1d03b86f0494e494a7bd35cf4db4340b56c9f734f99151b2",
        "out/r.json": "ba6906a2347f6e9cf4edf110341e6a07d88204d003c0dd32420c093e8de56fd0",
        "out/s.json": "6ba76030b724224f3da1a1f278b1e7d32b8f81f4b9ec2b1ac8b2c58287ed9ddc",
        "out/report.json": "a1cf5732c40e00c1ea21e1e80046fc5f7995a2d97ff66434efb624a2399176de",
    },
    "mid": {
        "keys/channel.json": "bda35e954a1928a618da4314e78f0f97c86086be1d92f9093cdd7ea5722152fe",
        "keys/public.json": "b06f2b8028a2a6ad10083d98f02ae74b91ff4b0a9f48f134f6e46350b0379584",
        "keys/secret.json": "853d9d9e31628e1618551170f5a90a13bddc716128429d4c33cacf1693c76d05",
        "a.json": "532fc5d99f4a4d1147fd94527fbdf8a45d8bd5a336108875eb239b5d4972acc2",
        "b.json": "55d200914e34444bea983847cee12e1b71e189dd1d046eb1b39e7d7eca9d8902",
        "out/r.json": "23998dd715d4e2b81dc9fc3ac10154fdadf3050ca28e891749eaee590789fd39",
        "out/s.json": "d0406f9eedeef8d55b6d2dd969ddf04eb0ab0855cd3718bf191a95facce12dba",
        "out/report.json": "134af46bb3285e765c65593541cab81fbab6dcd8f330c770d23ab2268ffa9164",
    },
}
GOLDEN_DESK_REFRESH_V3 = {
    "t6.json": "05e6b0094d5b575bee202133cad1040ba9477134d9221cb2dfa61a0f5729982c",
    "report.json": "b91b86242d6542c2a25f5d44f2b0e6ff66413e1cd5c7728e21877c963835d6cb",
}
GOLDEN_CLI_REFRESH_V3 = {
    "mid": {
        "keys/public.json": "18b355dcb2431ff5b42648a64c4eb59f2171cb894a6026e388b4eebd00edd031",
        "keys/secret.json": "31c89f07407751f3f7c0552971fef6ce54c84d10dc7286ea81d303b103e6428b",
        "a.json": "a0715733f5b73dcc98bd2c19790cda5409695ab049c2c82d269f0c1682d0a04b",
        "fresh.json": "e7f332b4b9f2eaea25d9d1747018561c58f71c507c9dc34c9cde100569836b67",
    },
    "odd": {
        "keys/public.json": "00048d0010cf963a1644b0d06ae4e9df89f80de0e0e219c7f1734973ffd8eeaa",
        "keys/secret.json": "7323f5ea4d25a462a08e4899d32b480be829f495c5533ea2e59fbaa096968a08",
        "a.json": "bea73f35b524341b13a113f6891ada4e7c8d3a8351a9a15efe08386cd8132180",
        "fresh.json": "1e9a211501e4c60b57dcdcecc4ba6f7376f9f1970d4ba57330f39f8511417fd6",
    },
}
GOLDEN_LARGE_MUL_V3 = "3e07e0bd613f6ddfc3f03adad550243106d8ebc86039fd7f2bd9ca9fee5a6eb3"
GOLDEN_ODD_ROWS_V3 = {
    "public.json": "f560eb8497bfe4c21dd08c23df2f04088b462ab7d93b5780c744c7c7d9dd8edf",
    "secret.json": "7ea6648753caee5e5065e453a88af65b009217c89ad148bb13997e93dd75cc68",
    "a.json": "cc9a829ee9f7293d557cb951e0c5568d01722a0896749acbc4b3f036cd7f6cc9",
    "b.json": "153af8eb45ba4407341cfa2e676ac55de961edf2008d5699e476005d3444bb87",
    "ab.json": "1fa0b737dbb4f4b5e306353c5b4d8bccfa0f571b4d99218435d3f4c88c23d822",
}


GOLDEN_CLI_V4 = {
    "desk": {
        "keys/channel.json": "133bd1ed8f9f54ac909fb728ff46b5d381de4f8d2fce9d6fb39556a7a2b163fe",
        "keys/public.json": "eae48d2b21937728e54570a6864b7639985fa75cf54e804f41fcbe81f8f42caa",
        "keys/secret.json": "35b3153489a08e6b4e2dcfd9808bdc55646405ffa5bd67d3c75f545ee330e443",
        "a.json": "0e168642f956f070c69cdf840892e991291c055cf1369dc9d0d6baae00008802",
        "b.json": "3eefd8ebc5f978cf8825780b85e4b097633f40c0c371124ed4959d2275006569",
        "out/r.json": "67e4e4267344f150bd6b1ecd73e5fd856439ec3da8455bcca5b8fd4a38988510",
        "out/s.json": "dedbdb9e6ac0cde74b15c9c9ab1d8c43856c0a84cc499eb6b882f493162010a7",
        "out/report.json": "b047491480042efee2373c3b191104158ba1f4e1db07bfe4250d5c947d5fdb11",
    },
    "mid": {
        "keys/channel.json": "b6bdc43643725460fe82aab8b8b67366b1979b6955b0fa0538c5b6672d4fe18c",
        "keys/public.json": "c3d56365c1c42ddaeff7a82eb1f29eb3b4cfb52ed5f2e67ddc9064e74e216da1",
        "keys/secret.json": "7bec92aaa01fcb0ba97ccc1f585eb6913adf2ea2fedf77384585d578469257f7",
        "a.json": "0dd574dab5a1980e7ea05365f17ebb251f4b583c3de2057921824f5f331bb64d",
        "b.json": "19a9b871202466e77a172ac60b0c2ba88d197eb2f9d7dc48098ca101db347dc7",
        "out/r.json": "79d827abea222bf476d902ba17d7f28c0db72df1beb428ec80a239fd2b9fd2f6",
        "out/s.json": "5166f0c68165eabad05f09432aa6a2bd88b0fe6edccdce6bfd6553b6c12c2cc4",
        "out/report.json": "a798832f4fd826e9ac3487fbf32577960d7577e2730e16f71bf2fbe54463af6d",
    },
}
GOLDEN_DESK_REFRESH_V4 = {
    "t6.json": "85c294919fe0251c9ebb723fe3d2d7e2543433a1bcd2d3ddd541139d86b1974a",
    "report.json": "d1a053782000336889d7be0f5b4c845a6ff4b381e9ab47308413d222fcbac04f",
}
GOLDEN_CLI_REFRESH_V4 = {
    "mid": {
        "keys/public.json": "fb9685b7105c6b58b4c109e32db2a1a1eff2d0a354995ef1736d831c55635f41",
        "keys/secret.json": "3a4acd8d6d9616682c94cd0958e48a3f2ad4cb531b0ce83eff0855e295bb87c3",
        "a.json": "41486ef901ef4835e18bf3aa2b7e7d0537a100d125dbb19d6b548a23b4605dab",
        "fresh.json": "33d31ed6d4008ab7575dc9977e045640632723fd0cee999f5d5ff62ba146bf17",
    },
    "odd": {
        "keys/public.json": "a119f3f7628528b9c11a5d813e2071d5c7a045b05e155a0fd312872184855d0e",
        "keys/secret.json": "6b14d39669bfc039961bc0efc74c47b749fbc86f005af08431fcc37d986b31ed",
        "a.json": "dd35d799bb1a71f28885b2a404024086b3387999abcddf8f6995c2862dabad03",
        "fresh.json": "d5a359e4da29df6761ed64349ebc4b8afea620bc3cb487bb70b6cc6310d07e00",
    },
}
GOLDEN_LARGE_MUL_V4 = "369e97555b6eddbffd57f4dc4ed0d086b0ba617c83ee724eae6335e5b237bbba"
GOLDEN_ODD_ROWS_V4 = {
    "public.json": "716910beca8029b747dac599686e2be81838fc9dcd24f7a020ca2b4dd79f8ba9",
    "secret.json": "f07778f79a47dcbdbb8dd3a21eb63e54cd5f5252c673460480198efa053d8c54",
    "a.json": "9ff68c696688a1c54cd85c212fafd7286646aa0061c294dbcbb516af311876ae",
    "b.json": "816601846c24e9747c7711c070ec96b0418dbaf75a253b5ac2b1ec3c5b9df2cc",
    "ab.json": "36646f50158721df4d86989df0ee6f40aee8e00d89b46e10d36c652bfdace112",
}

GOLDEN_CLI_V5 = {
    "desk": {
        "keys/channel.json": "6206af7ead18964545e378cf9062a8094f055f9e9e286ef2c9a42384753f563f",
        "keys/public.json": "402ef3206edf63e2ad5861500d9698dba4e4cc1e435c74a9e8874f5c9700c850",
        "keys/secret.json": "019073e40155c1becba5131f6d9d4f481da127afe3d2a3f5ba9b09fa3c32fe61",
        "a.json": "7f5b3ebb033a505e7174d81589372e06160531fb00f979af919201d588847370",
        "b.json": "de6844a874e5b98412bf3ba699f7a14d8421f0559f967ee57899e725bd45701a",
        "out/r.json": "22ee3e2c1dbff0c4d2baea36c5c46a451c04337a19509ed7d1a5078390c6174c",
        "out/s.json": "8077917d36de53d4feb60dd057985e9b2e6ddd7cd124b27bec4173565778d4d3",
        "out/report.json": "b047491480042efee2373c3b191104158ba1f4e1db07bfe4250d5c947d5fdb11",
    },
    "mid": {
        "keys/channel.json": "9bc0ec4a34e74c97a0f6c4918f828257415dbf91e4b511b268e5450c97d4bf15",
        "keys/public.json": "bdd5fd10d88fc7b94f1dbd5b1f3662ddc4d367c02824420b61210f95b62cbb9a",
        "keys/secret.json": "527875f3e7b1f37f34dda8f9288ddceb3b9909bb94635bc1f306d0162d84b07a",
        "a.json": "0106580f3f50f96f9e68aef28127b489593d89c2523e99cfc473b80d9127cdc6",
        "b.json": "7ae3a0e25154cab65be4df9c4be4f424f29eddba10e64071938c9bfb1e91322d",
        "out/r.json": "ac94a42885814347052e12383eaffcad4566e093146bd6339229cda35e9e2b76",
        "out/s.json": "f9fecfb07b3c41f74ba507cd77382051c776f2a2f5d527b645be180be70c4bcd",
        "out/report.json": "a798832f4fd826e9ac3487fbf32577960d7577e2730e16f71bf2fbe54463af6d",
    },
}
GOLDEN_DESK_REFRESH_V5 = {
    "t6.json": "27a3cf11a0fe81bdb20af83f64b34c641b001b9d6099191fb1b1fe26b3d65aba",
    "report.json": "d1a053782000336889d7be0f5b4c845a6ff4b381e9ab47308413d222fcbac04f",
}
GOLDEN_CLI_REFRESH_V5 = {
    "mid": {
        "keys/public.json": "172501cd5fdffbac0b731512b77a595946041be74140c4efcb8690369f8b09c0",
        "keys/secret.json": "5bfdc8d8344cf2cceab968f871e712e48dc940bb057e3f85169802a030af22d3",
        "a.json": "2bfc717809ff8217f45dba0313386b812375adccc7063204cec12abdfc792ad8",
        "fresh.json": "74f051f1516a9d2cb258807f5eeeaa15cf246a6ae188e897398c9f30f42d7d85",
    },
    "odd": {
        "keys/public.json": "6037bd7b86532480daaab135cc516008056db0898041b5bcab22056fc71e0b58",
        "keys/secret.json": "02b935c5f8c1b2026a1fb5fb1f7228ba7063d9e36d8406f45c3f61568bacfe63",
        "a.json": "cbc7b4f6b5531df10d327ed96c882ca4ede7380984b2ea86c35c7e128dd675ae",
        "fresh.json": "01a9508aa9f30f73013ad7d1fa4dcebd0de96fcad5895a7f5af4808802ab45d9",
    },
}
GOLDEN_LARGE_MUL_V5 = "4b7a02f594a0fc7f43c00bc50625ee61ef3cdd7e012f16739ed3910220659ced"
GOLDEN_ODD_ROWS_V5 = {
    "public.json": "4f549805f0127737695998dee65dd5bc535c21e1018d6333f28adda9c642e31d",
    "secret.json": "d749e6ab29aab38500cf29428f679d6fcdbb2a18c735dab66f067a3a4c3bb0c7",
    "a.json": "4e973501755816bd0cac92510768a2f856915064d11bb952a8e16ef81f39757d",
    "b.json": "67efc8246110d5603de9700092a343831aeb4a2aa21422adc5dbe1e867d631c6",
    "ab.json": "211555821a2278657cfeb39a63870f213ce028d37ffaf9f9ea43752f7ced88af",
}

GOLDEN_CLI_V6 = {
    "desk": {
        "keys/channel.json": "efaf0b0308d65ce28658aed014c398e931d3e80dc1d64a477bacea75d96ab6b2",
        "keys/public.json": "d4bc60eaa1709756438bacd6c4c172e4139619e674b61eb80cb6b5b78b31ff13",
        "keys/secret.json": "55155a50fe5d99e420bee1c00db68a26d8bc1f7e6704197760fd4b8d338cb443",
        "a.json": "a484b4dc32ec6f3d9e787cc904fddef765326613b03beeafa1c06ac8de66f200",
        "b.json": "cf77af18368ed5b1317bfbf4eaccd32085a6a0b1891423029dac2b9a6dc45f95",
        "out/r.json": "9f62f4dafc516b440f6d55469656fca8a7e70c1ecd82739133a7bc3c475940d7",
        "out/s.json": "38e68cdf5d3e64dabb979ab326a3549926e8570bcefd2714759babd4a0769869",
        "out/report.json": "b047491480042efee2373c3b191104158ba1f4e1db07bfe4250d5c947d5fdb11",
    },
    "mid": {
        "keys/channel.json": "8322d16d0534b0c6a8c9515e39cc6bf655943179ae5a270175d924fc68f24356",
        "keys/public.json": "89ee576199f87c70787fedf96506034a65cba92a5b3978966ceea3d2dd66a414",
        "keys/secret.json": "229af1ab727148cc46b50fe0f2e27d5bf632551b067311bdeeeba88207da3e91",
        "a.json": "ca03257a3b5b92d4930aa6b190bf1286040536995e80c60d939dc29d0ec4f0c4",
        "b.json": "56501cd16f8094cb7df38da29ca007e42ebfb08a047c4597742843ed801aae9c",
        "out/r.json": "12695ca62f74ddf054babd8856aaf9a7c2572ed214612f1ad5108fc9d0971290",
        "out/s.json": "be9841cbffb3d53affd5f66542b03b0c52783d2c4db79914f8d4e3d64e9e1071",
        "out/report.json": "a798832f4fd826e9ac3487fbf32577960d7577e2730e16f71bf2fbe54463af6d",
    },
}
GOLDEN_DESK_REFRESH_V6 = {
    "t6.json": "ab783ab0abbe73e7a5e59d036a4208c3eae739bbe96ded4c2cf688204ce49566",
    "report.json": "d1a053782000336889d7be0f5b4c845a6ff4b381e9ab47308413d222fcbac04f",
}
GOLDEN_CLI_REFRESH_V6 = {
    "mid": {
        "keys/public.json": "b7fbfeca9632504e90e3edeaeb31d731289363df3729491c34a8270ed6201a89",
        "keys/secret.json": "0e5da7dda1fd17b820595ce06628f533728b30e6e1cdddc502d827a835110142",
        "a.json": "590b4651fc53c8b2bace74c5711d634a5c867c1624606d60e50467cb8fffbf0e",
        "fresh.json": "ae4ea8d0bf05e9e203e83217526d5e0b71f1d134a46984e5d4adbd6964aaedcb",
    },
    "odd": {
        "keys/public.json": "ff73f96a69240a6914fb671fe7970c884c383db51992aa42651eec6937b2d1eb",
        "keys/secret.json": "1fc132485b03abaadf82c07f82aebb6a800776d0f8209e4b9d39056fef9e4848",
        "a.json": "235b840d4b9be7334b1010389e15bef19c9e676271fbcd2ebb8b026bc57e0e4b",
        "fresh.json": "f4651b475a899952a460392dbeba4b8c2f1c09e9ffaa9e85aaf3cce52fe9259c",
    },
}
GOLDEN_LARGE_MUL_V6 = "5667a8f3f2b9e620c6866cb54a1bf19fecd8253c31829040ffbcbc30edb7c2d2"
GOLDEN_ODD_ROWS_V6 = {
    "public.json": "422e4a57af85d832a996cf0371adc6e1e92186491de269a726ddada19a8b7605",
    "secret.json": "28a7b576b5d71e759e103f50fbae479b2bae3242e8671fa99f6db2a0f2b79b8b",
    "a.json": "dd5d104a953e85a6e6d9126d62ff41b568d15bf0b2924e76fbf8e443b0297640",
    "b.json": "432bd83a71ab23ae6c5b0e07d0bb1d281bd4d1f0037024066eed81abc401b03a",
    "ab.json": "118e3495a3272bda7060de795e24113f69c92887cdcad3cd64c9f29adce28b52",
}

GOLDEN_CLI_V7 = {
    "desk": {
        "keys/channel.json": "b8b059bd06a7784528b9612a2c657d0ed496ae4a59264ab50c4d24ecbf050f0f",
        "keys/public.json": "7c7277ae8f2e5015580994c67d12ea9043d5edc3520aaaab40655b7da9578071",
        "keys/secret.json": "1d2aab085cf0bfa2f5b9d1040a93bba20b94d57be92d0ab8e7a3037e171f57de",
        "a.json": "0f62e99d075cf90b96674a43dec81c7a789eff67b40cebbbf9f52fffa55e4824",
        "b.json": "d48e2f6e76d65dd42d8e468785ea1d7675a56e926818dbc10abd4212c12ad7cf",
        "out/r.json": "fc331989aee231f699ac0ac8b91f56ce75ebec40f5facd8b9674e98ef401e037",
        "out/s.json": "4793b9ea270f5e2440b25ff751f57c7e1cca2fa0cd7fb0238ed14630d833e849",
        "out/report.json": "b047491480042efee2373c3b191104158ba1f4e1db07bfe4250d5c947d5fdb11",
    },
    "mid": {
        "keys/channel.json": "05a35c7c99433e27c39acec8a91e0fcbe1202f85d88e43c79bc8914d4d7e591f",
        "keys/public.json": "c61cb1eb2043a651072cb2476e314fd454aa21e9f66c129f3527e22e40156eda",
        "keys/secret.json": "332938fd9c156b9f71a48a7608d517a6ef0edf0fa852657d87230521d76f8991",
        "a.json": "f1383cfe486227e3c8d33836cd15ffa6e50bd3cad11395af1ad6153ae3840b02",
        "b.json": "6fa2b4859fbe4d76248f08782ba500335a2cb84718bfbcc2a26551df6ad8501c",
        "out/r.json": "9cd23bce4c88a7f26c5d5d58ce3f3ad8836eda26e05c4133da9953c492692679",
        "out/s.json": "3354573122fc143592bc5f6a87478350d8e7465933091fd00505a8eff87fb9b0",
        "out/report.json": "a798832f4fd826e9ac3487fbf32577960d7577e2730e16f71bf2fbe54463af6d",
    },
}
GOLDEN_DESK_REFRESH_V7 = {
    "t6.json": "be5982803f38ecb80b5d013b74185140e4c9e7d7db3e5b8c634441a79801a732",
    "report.json": "d1a053782000336889d7be0f5b4c845a6ff4b381e9ab47308413d222fcbac04f",
}
GOLDEN_CLI_REFRESH_V7 = {
    "mid": {
        "keys/public.json": "238a349568ead5a50d7b88204b73c16712d3e1c3b31f57171741bed00bb908ae",
        "keys/secret.json": "49d61464c0d1b3324664ea6b389ccd0a01ddaf6eaec96fe861e4e11182dfdd13",
        "a.json": "8657af5b39418ca8524cb3d2e61ed99371b36318d30ef141e56a037b91e5b6f9",
        "fresh.json": "a5c7eeba1d9f10c7f5653fb1f1ae7657ab8538c73a530bbbb4ab706f4d37afbb",
    },
    "odd": {
        "keys/public.json": "37911ab138d25c6f3da8877bda6b54b5886560633a78ce0bedbe13ed40c47d7e",
        "keys/secret.json": "65db030d025ee44b47e8627289d73ec4c2d6de6206cf53039e737314188d79dd",
        "a.json": "b9830ee7d97a6709b5ca37dc4aaa7599b3e468d20b66285ef3f4938b14b45b66",
        "fresh.json": "6d5f828d5621de8881c14dcc6565b5ad5489500305cb0b51e5a46fdf9acf8596",
    },
}
GOLDEN_LARGE_MUL_V7 = "9def18317ff44ade1891e7a10f4ff627143ffd2aa00628ccb6c1443488d86dff"
GOLDEN_ODD_ROWS_V7 = {
    "public.json": "70058cec58e9174b3431c5150034b72464c043edfe0111d5c2e6693f3e0ca63c",
    "secret.json": "05152c00a530445454b84cccfd32737a6080fe9b90095084b4d1040ce5667db7",
    "a.json": "7fca7c792b59bdc2723b955b7581a483fd3363cfa621a260999f0615be757cba",
    "b.json": "a7a49264ae0c32cede4c062339314ca9d12f4aeed776c1fd6fc949d1d4a0ba9b",
    "ab.json": "c1127ccb86e6698d715e4896478d61e56f3314b6272c395118be7c19a556c0f4",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(root: Path, rels, ch) -> tuple[dict, ...]:
    """The format-1 to format-6 rendering digests and the file digest of
    each file, over the channel ``ch``."""
    files = {rel: (root / rel).read_bytes() for rel in rels}
    v6 = {rel: render_v6(json.loads(data), ch) for rel, data in files.items()}
    v5 = {rel: render_v5(doc, ch.q) for rel, doc in v6.items()}
    v4 = {rel: render_v4(doc, ch) for rel, doc in v5.items()}
    v3 = {rel: render_v3(doc) for rel, doc in v4.items()}
    v2 = {rel: render_v2(json.loads(data), ch.q) for rel, data in v3.items()}
    return ({rel: _digest(render_v1(doc, ch.q)) for rel, doc in v2.items()},
            {rel: _digest(dumps(doc)) for rel, doc in v2.items()},
            {rel: _digest(data) for rel, data in v3.items()},
            {rel: _digest(dumps_compact(doc)) for rel, doc in v4.items()},
            {rel: _digest(dumps_compact(doc)) for rel, doc in v5.items()},
            {rel: _digest(dumps_compact(doc)) for rel, doc in v6.items()},
            {rel: _digest(data) for rel, data in files.items()})


def _channel(keys: Path):
    return serial.channel_from_dict(serial.load(keys / "channel.json"))


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
    v1, v2, v3, v4, v5, v6, v7 = _digests(tmp_path, GOLDEN_CLI_V1[name], _channel(keys))
    assert v1 == GOLDEN_CLI_V1[name]
    assert v2 == GOLDEN_CLI_V2[name]
    assert v3 == GOLDEN_CLI_V3[name]
    assert v4 == GOLDEN_CLI_V4[name]
    assert v5 == GOLDEN_CLI_V5[name]
    assert v6 == GOLDEN_CLI_V6[name]
    assert v7 == GOLDEN_CLI_V7[name]


@pytest.mark.parametrize("name,params", [("mid", MID_ARGS), ("odd", ODD_ARGS)])
def test_cli_refresh_matches_golden_digests(tmp_path, capsys, name, params):
    seed, message, golden = GOLDEN_CLI_REFRESH_V1[name]
    keys = tmp_path / "keys"
    files = ["--pub", keys / "public.json", "--channel", keys / "channel.json"]
    _run(["keygen", *params, "--seed", "7e57", "--out", keys])
    _run(["encrypt", *files, "--message", message, "--seed", seed, "--out", tmp_path / "a.json"])
    _run(["refresh", *files, "--ct", tmp_path / "a.json", "--seed", "f1",
          "--secret", keys / "secret.json", "--out", tmp_path / "fresh.json"])
    v1, v2, v3, v4, v5, v6, v7 = _digests(tmp_path, golden, _channel(keys))
    assert v1 == golden
    assert v2 == GOLDEN_CLI_REFRESH_V2[name]
    assert v3 == GOLDEN_CLI_REFRESH_V3[name]
    assert v4 == GOLDEN_CLI_REFRESH_V4[name]
    assert v5 == GOLDEN_CLI_REFRESH_V5[name]
    assert v6 == GOLDEN_CLI_REFRESH_V6[name]
    assert v7 == GOLDEN_CLI_REFRESH_V7[name]
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
    outputs, report = evaluate(parse_circuit(chain), {"a": a}, bundle, policy, rng)
    assert report.refresh_events  # the pin covers the refresh path
    serial.dump(serial.ciphertext_to_dict(outputs["t6"]), tmp_path / "t6.json")
    serial.dump({"levels": report.levels,
                 "refresh_events": [list(e) for e in report.refresh_events]},
                tmp_path / "report.json")
    v1, v2, v3, v4, v5, v6, v7 = _digests(tmp_path, GOLDEN_DESK_REFRESH_V1, ch)
    assert v1 == GOLDEN_DESK_REFRESH_V1
    assert v2 == GOLDEN_DESK_REFRESH_V2
    assert v3 == GOLDEN_DESK_REFRESH_V3
    assert v4 == GOLDEN_DESK_REFRESH_V4
    assert v5 == GOLDEN_DESK_REFRESH_V5
    assert v6 == GOLDEN_DESK_REFRESH_V6
    assert v7 == GOLDEN_DESK_REFRESH_V7


def test_large_hom_mul_matches_golden_digest(tmp_path):
    ch = ArithmeticChannel(p=3, q=LARGE_Q, omega=1, u=tuple([-1] + [0] * 63 + [1]),
                           n=10, big_n=8, k0=1).require_valid()
    bundle = keygen(ch, RandomSource(b"golden-large"))
    rng = RandomSource(b"golden-large/mul")
    a = encrypt(bundle.public, ch, 2, rng)
    b = encrypt(bundle.public, ch, 2, rng)
    serial.dump(serial.ciphertext_to_dict(hom_mul(ch, bundle.tensor, a, b)), tmp_path / "ab.json")
    v1, v2, v3, v4, v5, v6, v7 = _digests(tmp_path, ["ab.json"], ch)
    assert v1["ab.json"] == GOLDEN_LARGE_MUL_V1
    assert v2["ab.json"] == GOLDEN_LARGE_MUL_V2
    assert v3["ab.json"] == GOLDEN_LARGE_MUL_V3
    assert v4["ab.json"] == GOLDEN_LARGE_MUL_V4
    assert v5["ab.json"] == GOLDEN_LARGE_MUL_V5
    assert v6["ab.json"] == GOLDEN_LARGE_MUL_V6
    assert v7["ab.json"] == GOLDEN_LARGE_MUL_V7


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
    v1, v2, v3, v4, v5, v6, v7 = _digests(tmp_path, GOLDEN_ODD_ROWS_V1, ch)
    assert v1 == GOLDEN_ODD_ROWS_V1
    assert v2 == GOLDEN_ODD_ROWS_V2
    assert v3 == GOLDEN_ODD_ROWS_V3
    assert v4 == GOLDEN_ODD_ROWS_V4
    assert v5 == GOLDEN_ODD_ROWS_V5
    assert v6 == GOLDEN_ODD_ROWS_V6
    assert v7 == GOLDEN_ODD_ROWS_V7


# Bytes of public.json and of a fresh ciphertext of 1 (keygen seed 60fd,
# encrypt seed a1) as written: residue fields of 14, 42 and 57 bits.  Format
# 6 wrote 946 and 98, 3782 and 1263, 15640 and 7596 B (words of 2, 8 and 8
# bytes; at desk the fields fill the same base64 characters the words did).
FILE_BYTES = {
    "desk": {"public.json": 946, "a.json": 98},
    "mid": {"public.json": 2802, "a.json": 843},
    "large": {"public.json": 14020, "a.json": 6760},
}


@pytest.mark.parametrize("name,params", [("desk", DESK_ARGS), ("mid", MID_ARGS),
                                         ("large", LARGE_ARGS)])
def test_file_sizes_are_pinned(tmp_path, name, params):
    """A size regression fails here before a benchmark run sees it."""
    keys = tmp_path / "keys"
    _run(["keygen", *params, "--seed", "60fd", "--out", keys])
    _run(["encrypt", "--pub", keys / "public.json", "--channel", keys / "channel.json",
          "--message", 1, "--seed", "a1", "--out", tmp_path / "a.json"])
    for path in (keys / "public.json", tmp_path / "a.json"):
        assert path.stat().st_size == FILE_BYTES[name][path.name], path.name
