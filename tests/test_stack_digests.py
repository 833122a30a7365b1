"""The compiled numeric forms of every catalog entry, pinned by digest.

T0 with h's t_n-coefficients (the tracker's one stack) and T0's partials
are what every numeric check evaluates.  Their compiled stacks (exponents,
coefficients in term order, bounds and the groups of elements by power of z
and of rel_z) decide the evaluated values bit for bit, so any change to how
C, T, T0 or h are built shows here.
"""

import hashlib

import numpy as np
import pytest

from flatiso import catalog, flatcore

DIGESTS = {
    "H3": ("965601da25261692c0fdf8534549d059f1f57f299e3b526b2ac39c7671d402c1",
           "55b5f4bba9c1228568f0fdaf81e54563991469466a84f8995a051ed9aa4df994"),
    "H3p": ("07057a2e877fd7425528d53118853d4020d72e02429150d11317526262d84244",
            "9e123f69f4663adda0b9cd378e6b6a33ee0f4736f4fe88f08d04d1601baad7b3"),
    "H3pp": ("fb1bf4cc307e3cd900848a018dda86c72cb3ee78302f48cf8b0cc7076b66aaf4",
             "d47624b5b23744276f52841bf512592599aed49ef052244686535731d2a45966"),
    "LT8": ("5cd7a4a8bbdd61bb718a2b139127a51de6b1e0cb163d01d3bbe7c716293096fa",
            "d966ac8e353f6f3e14920fe2ac425ba40201aea8008eaf013fba482235da73b5"),
    "LT26": ("4722f526121c01c25f37e0cdc189ecc6480606aa5922d82a17351aa028e33f2a",
             "d2332b66750438b9efb7a9db92ad0950497c84c07632b1ef7b21e875c7c61deb"),
    "LT27": ("88137b7786534074ad272cff0c2b35aafe4a1944adf6f05b6e9da0c0f8753adc",
             "a991e40429e34e61feec637f44bd4fb8dcf4319b547d7cfe75e781ad57ff6c4b"),
    "LT13": ("a741fff429cdc662e8b85b3af16c5ecaafa6b5a8e6decae64e2cac03ab0f2f97",
             "35ef04e7fd32c7d7569e92ee87f85ee2b6b04199f68d58742f7d984216d20198"),
    "LT14": ("c5bec1598f682b2078827fc319cd7dd89cae02b9a25a7da2cb3ae34499c2f443",
             "5cdaed9bc3885d054c1f37a04d891149a4758c6636e0291748b4a6d71db5147b"),
    "LT18": ("7adda9c0e1a1ecb0cf36abc81f26dbc8e27ee7f4785e471a6cfc4de6b7f5198b",
             "c1e9faf6e0c5b31a40d409c942eae14fca347398f362c115054f33a5e3292ed1"),
    "LT19": ("9e8a0f0e95503c68409fd62d85e70f70cf8bd1b9e2a5118b5651430e83425da3",
             "8009640f533e962175f621eda014f6725ef416d9e7cf604e0664724bb284abaf"),
    "LT30": ("3cc040a0d841a6c9d97f1c7f4ab9cbb4b42cd2dd2ae3b1956051e947582a5530",
             "1420a8aacd243c474bd7eeb625618792b088d4b869734f3ec7d5bb7cef11e41c"),
}


def stack_digest(stack):
    """sha256 of an EvalStack: each evaluated slot with its top exponent and
    exponent column, the coefficients, the bounds, then the z and rel_z
    denominator groups; numbers as little-endian int64 and complex128."""
    h = hashlib.sha256()
    for s, col, top in stack._slots:
        h.update(repr((s, top)).encode())
        h.update(np.asarray(col, dtype="<i8").tobytes())
    h.update(np.asarray(stack._coeffs, dtype="<c16").tobytes())
    h.update(repr(list(stack._bounds)).encode())
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
    assert (stack_digest(m.T0_h_stack), stack_digest(m.dT0_stack)) == DIGESTS[eid]
