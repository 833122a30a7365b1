"""The exact CLI reports pinned bit for bit: verify-wdvv, saito and logvf.

Each digest is the sha256 of the bytes the verb writes with --json FILE for
a catalog entry, in the order (verify-wdvv, saito, logvf).  The reports
carry the verdicts and the printed C, T, Binf and h, so a change to the
checks, the derivations or the report layout that alters one byte fails
here.
"""

import hashlib

import pytest

from flatiso import catalog, cli

VERBS = ("verify-wdvv", "saito", "logvf")

DIGESTS = {
    "H3": ("aa969f886d31463953b1b7e59b4a14a67783a40d7dbcbe504d50a14e61f612dc",
           "7a1dd46d65a7388465c4dae33b447f28dab2997b6198e139459c82a91e36cd9e",
           "0328d90eb8caf4909d4820617195c2afa4d0c4d12287b7d0942327eef14fed44"),
    "H3p": ("6ef5e4fb024899f4b101bf18edc15d5f43cb891a5f8f23791ab873afc0dfa087",
            "e8758f22db6ff5e40e6502eae84d659a78af0d00368817dd90a0dd78e04329f6",
            "94433e86120f857d4fdbc1a3d19408f51b228ef4534e114cd36f9b531443b0e8"),
    "H3pp": ("8a6504d7ce0f1d6f982827565730babcab2af30f40770235d8777b2b5d2039e1",
             "ccaad1b10c9b8cd2d7d9a5912bec4cde6bbe368f14306408adb5af74a2da2a95",
             "71db1c8acbc9186f7312d834cbd919f21f318e5c3e9fd6c19ac4d08dc87b49bf"),
    "LT8": ("197ffdee76ad52c46fcfc7c7ed0a185dbb55dbbef2add1499e1f4fa4cc7da786",
            "a0bea1529eb8888a7fb44f0b15910ba210d8c4d569b96421891c42ce5140ed31",
            "4d031dd1b84fab7a55670bd0cb9023b74ee3d34caeafda33fed145393d0bbaeb"),
    "LT26": ("6045731d7d606b0324232bed197801b34b04935a7ec380d994a6dce756bcfbb1",
             "99cb5dea34e3b783acb9505c8eb173b07ea4bfbff14cf88f008c428b5269e833",
             "b96cb3c022877a1d13af7462dbff653b5cf799dab5bf60e2dd993d0dfb496167"),
    "LT27": ("94de6dd3d9b9e304c6677140cd2f2ce13d8554b53ed312c13bd3d84a3ba4f99d",
             "6cd13a105bb5da1c2bb12a509c2c5f0baddb84343e95fa526261c050ad429333",
             "106073fd84bdb3f5f58f86d50df5b039ba15df75bb376ff381b39a01eb6c00b5"),
    "LT13": ("72cd88b2fe95290175025f028be18ed810f5064c8289cade1a8d0b8a3f2b6050",
             "740c89b0f4eea80e20adfd9521a140b3d27392b22bbcca7de33851d0f140ffd3",
             "f1790e76298586c7d8827c561a45fd8365d6b8f02e4fb0098dd76235598300d9"),
    "LT14": ("41464add486cc9eabc2dc8a48599db18ea821875a0d8d85551e44328b49973e3",
             "e971551472894ebf853e729e4b41aa3de494baf209806a8f5c84fe7d425adf0d",
             "6e7a38de5063daa68cea5e5de0f69cb4de291c805c1d484683658e4d48630d72"),
    "LT18": ("ec57b8026a422900a17a925dcfe4ddfd3d833b496afa7b70c2a519b67af769f2",
             "e02b7563f5d985dd859affe6b375c7753b711b045f6febefb255f4cdd14e13fc",
             "c8ba4eb1b57831cc76fee9db0508b061bf99d317daec66dd05fce5ecd23c8638"),
    "LT19": ("35a54d9733bb73114b62c77dd3ffa57dba23b6f1569230b6130178a87852db79",
             "1b6562465ffd42025b319af7825530f993674cbfba3ca2b3f67606ec3dea407b",
             "806ec6fe118fd368499b511f3f45a363b2b45729af1e44b3aa40c3497cd7e8cf"),
    "LT30": ("dd56792e1b5f16ae33a41a2756007a9fe60f2b8a3aa8bd796dbe92f7c5e1f800",
             "9c7e14f19986b990a961064dfcb069470bf012cae3dc9c4913ab389821318c62",
             "5a5b5e75aa0844fa5a809b7f5966f881eff90628c56c69f5cc852351b792ae5c"),
}


def test_digests_cover_the_catalog():
    assert list(DIGESTS) == catalog.catalog_list()


@pytest.mark.parametrize("eid", list(DIGESTS))
def test_json_reports_bit_identical(eid, tmp_path):
    got = []
    for verb in VERBS:
        out = tmp_path / f"{verb}.json"
        assert cli.main([verb, "--catalog", eid, "--json", str(out)]) == 0
        got.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert tuple(got) == DIGESTS[eid]
