"""Exact output pinned bit for bit: the serialized C, T and h of every entry.

Each digest is the sha256 of exprio.format_elem over the matrix entries in
row-major order, joined by newlines (for h, of the single element).  Any
change to the ring, the parser or the derivations that alters a single
printed coefficient or term order fails here.
"""

import hashlib

import pytest

from flatiso import catalog, exprio, flatcore

DIGESTS = {
    "H3": ("f2c1cf11f785f0e9e6131c8d1587970a300dbd20a82af54b090bfb86ba8e9ef4",
           "4a70760231ee42f4a525a91663bf03bbc4f1753c69ac9e3cc0b129581ff40bed",
           "0596a793bb44477f62e82c91f4ecaf1321acbd7ca40ac0da4f3f7e6237194e8e"),
    "H3p": ("265f21eeae403337cb0c739cfdd8d84f16fd6b96814dd0a59f332c8b0902a51e",
            "c9abd1943e54aafed61222ffecc3cd2e0df694dd3104478671b59c72783d9fd9",
            "df9ef64fb5e56f33ccec7afdfd157105dc25f6d18556592db442f723d9f31610"),
    "H3pp": ("324a2c4dd1c944994299bdf79d3b78e89f45a33624dac648b3eaf49bdb1982a7",
             "872ec557bec15d867382c493b0fe689d7b8cab2d44fccfc6ff46334e9c830227",
             "7d007c5bea41b9d23657c95d568f262aafbf6d93b61723954f0ae8b1c8ffafa0"),
    "LT8": ("1444d2aa65b0eb0cb0d23c94e16fc22a04bec283f932907bdbff10a2c0ceca28",
            "44202e7328a11aa75cc12cb20d3d31e10f02c133900d038815f3063119ff29b6",
            "9e33f44eaf497a40e6bfbc7473e97a46e53bf591ec910da70e9b02ffc12b7d0d"),
    "LT26": ("77ac5ca05a63bced6e4bbb4bfddd221420011483e1d4498917fd32a765b15512",
             "624293d8fc4729785a0404fa86c68ea10f205d75154f23b7b6c31424e337a840",
             "ffd3ecb8c2a204c468845654c6170d2a0898ea3ccb47587ba14e2f49207bf327"),
    "LT27": ("77f00d88c9bb1116d04992edcc78fa15dd2e661e9394eeafb0745136658b9b35",
             "9df9cf2d4cae796eb7128d445709ac547b447011e9494c977c8ce2ea33ddd4db",
             "e12ec77ff5b56b9c2ce39084df2513f64f9a66ec3bf0216f1d6236af7b6fcce8"),
    "LT13": ("cce9600a1b425eaf1887914fef7534f5ccb90adfdda520bf7f167796d729aafe",
             "320f51748177d9aa0ea6f7b610d7b9efddd7ba35489c366c7320742ad8d51695",
             "dca8c18c8a8fc2b2019d25b289736ae55c3b7939ebd2120752865cbf08aeff75"),
    "LT14": ("094e88fd4d171adcf13f634ef63674df92150a40457b3a8bc2c6022f6af1031b",
             "1e4c55da008695b9be08fec67d6194ff6b6b25f83b7e6b87eba5e9c28a0db4a7",
             "a40ec2d0312f62dee3de54f50b700284e587642f100783dd8a22d0bd086e2920"),
    "LT18": ("30c346a1355e7d6a4d6fa5a75a6006012c107af46555d6c5d0168c74227b3c84",
             "6d6561a6d4f9e6076f89da4d354192d25b838cd15a6c1166c78df127244a4cf7",
             "42ae25a706f57882c62747405a0ab829588a6874ace7c1264951fb318adc1b35"),
    "LT19": ("44c51396c8e426c8f656cafec950f26d876b2e4d12be846a26a201438d94ac8b",
             "57c14fa97d8736b9d9271af06c8ab543ecb3f2044de97986556773039e827ab1",
             "b532922ec6f98c3f4c51e0861fba18ba220e7903b3c64fea87a1f3c17cd96f80"),
    "LT30": ("128b5fc8b715138e26c79c2d59015ca11b942c6bb93003f5cf01a06984113cb8",
             "db1b79adfc231b2ca628be1e7cb1f5dd21986c7cb588a18fac79bc48e43b26bf",
             "aa276e642434f7b61ef52dabd71aa0cb60b358c0e952e5c70b5e72c8e9eede23"),
}


def _digest(elems):
    text = "\n".join(exprio.format_elem(e) for e in elems)
    return hashlib.sha256(text.encode()).hexdigest()


def test_digests_cover_the_catalog():
    assert list(DIGESTS) == catalog.catalog_list()


@pytest.mark.parametrize("eid", list(DIGESTS))
def test_c_t_h_bit_identical(eid):
    pvf = catalog.catalog_get(eid).pvf
    m = flatcore.printed(flatcore.build_saito_matrices(pvf))
    got = (_digest(e for row in m.C for e in row),
           _digest(e for row in m.T for e in row),
           _digest([m.h]))
    assert got == DIGESTS[eid]
