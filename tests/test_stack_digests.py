"""The compiled numeric forms of every catalog entry, pinned by digest.

T0 and its partials are what every numeric check evaluates.  Their compiled
stacks (exponents, coefficients in term order, bounds and the groups of
elements by power of z and of rel_z) decide the evaluated values bit for
bit, so any change to how C, T or T0 are built shows here.
"""

import hashlib

import numpy as np
import pytest

from flatiso import catalog, flatcore

DIGESTS = {
    "H3": ("c57032b5917c0df2d44487bddc811d39774706ddceb32e9d168586a6a0c9ad38",
           "55b5f4bba9c1228568f0fdaf81e54563991469466a84f8995a051ed9aa4df994"),
    "H3p": ("3e925ba0e8dce28617865d6a67596f32b74bbe55e524e015cf11bc8465bee798",
            "9e123f69f4663adda0b9cd378e6b6a33ee0f4736f4fe88f08d04d1601baad7b3"),
    "H3pp": ("b8c577d1b28c37f800cd2d430dee29d6d79aa3b1515989eed0e4ef6ed257edda",
             "d47624b5b23744276f52841bf512592599aed49ef052244686535731d2a45966"),
    "LT8": ("bcb3999ef01127962eec829697e7ebf23071d79dbb8438afd044cbcd85d3ce02",
            "d966ac8e353f6f3e14920fe2ac425ba40201aea8008eaf013fba482235da73b5"),
    "LT26": ("62c3a772fd43d3807ac83492eb553aa006de3c021f912fe51f890754d26c003e",
             "d2332b66750438b9efb7a9db92ad0950497c84c07632b1ef7b21e875c7c61deb"),
    "LT27": ("658b434c3dcf91aadd529594e10ef149126ceeab13919debd0d06ef3338a822d",
             "a991e40429e34e61feec637f44bd4fb8dcf4319b547d7cfe75e781ad57ff6c4b"),
    "LT13": ("be74bf2176d81f2263eee567534f6d604b5ad872902c4a14255aa11bb3061454",
             "35ef04e7fd32c7d7569e92ee87f85ee2b6b04199f68d58742f7d984216d20198"),
    "LT14": ("70fb82779d071817eb5e7c885735349d75c5e57d2c0991afba411917a37ba5d5",
             "d1c89b33e91c9a12c856e4d1c475f3b2fba7aaacc350d30ef5ed6fc028f89db2"),
    "LT18": ("a9a7b607ec1e82b5660efacda4e10a074fdd9554bfec3c41ae3383462cab4de0",
             "c1e9faf6e0c5b31a40d409c942eae14fca347398f362c115054f33a5e3292ed1"),
    "LT19": ("0836f088d372de3928e69f47a99c796bcaae891e7ca7f22deed127a9d6a0172e",
             "667f2d6155164179ec929be1426c19e1280ce52b05073cfa53a52d216d746642"),
    "LT30": ("ccd1db1e7e3ec82057e3c3e9bf3bbb4c4a344455a723e4564a3d6495dacd7423",
             "1420a8aacd243c474bd7eeb625618792b088d4b869734f3ec7d5bb7cef11e41c"),
}


def stack_digest(stack):
    """sha256 of an EvalStack: each evaluated slot with its top exponent and
    exponent column, the coefficients, the bounds, then the z and rel_z
    denominator groups; numbers as little-endian int64 and complex128."""
    h = hashlib.sha256()
    slots, coeffs, bounds = stack._compiled
    for s, col, top in slots:
        h.update(repr((s, top)).encode())
        h.update(np.asarray(col, dtype="<i8").tobytes())
    h.update(np.asarray(coeffs, dtype="<c16").tobytes())
    h.update(repr(list(bounds)).encode())
    for groups in (stack._zden, stack._dden):
        for d, rows in groups:
            h.update(repr(d).encode())
            h.update(np.asarray(rows, dtype=bool).tobytes())
        h.update(b"|")
    return h.hexdigest()


def test_every_entry_is_pinned():
    assert sorted(DIGESTS) == sorted(catalog.IDS)


@pytest.mark.parametrize("eid", catalog.IDS)
def test_t0_stacks_are_pinned(eid):
    m = flatcore.build_saito_matrices(catalog.catalog_get(eid).pvf)
    assert (stack_digest(m.T0_stack), stack_digest(m.dT0_stack)) == DIGESTS[eid]
