import json

import pytest

from flatiso import catalog, exprio
from flatiso.errors import UnknownId


def test_list_ids():
    ids = catalog.catalog_list()
    assert ids == ["H3", "H3p", "H3pp", "LT8", "LT26", "LT27", "LT13", "LT14",
                   "LT18", "LT19", "LT30"]
    assert len(set(ids)) == len(ids)


def test_unknown_id():
    with pytest.raises(UnknownId):
        catalog.catalog_get("unknown")
    with pytest.raises(ValueError):
        catalog.catalog_verify("LT8", depth="bogus")


def test_entry_fields():
    e = catalog.catalog_get("LT8")
    assert e.pvf.weights == tuple(__import__("fractions").Fraction(x)
                                  for x in ("2/7", "3/7", "1"))
    assert e.flags == {"has_prepotential": False, "has_extension": False}
    assert len(e.default_path.points) == 41
    assert e.p6_entry == (1, 2)


def test_extension_entries_have_relations():
    e = catalog.catalog_get("H3p")
    assert e.flags["has_extension"]
    assert e.doc["pvf"]["extension"]["relation"] == "z^4 + z*t1 + t2"
    assert catalog.catalog_get("LT30").pvf.weights[0] == \
        __import__("fractions").Fraction(1, 8)


def test_checksum_manifest_guards(tmp_path, monkeypatch):
    manifest = json.loads(catalog._data_text("MANIFEST.json"))
    assert set(manifest) == {f"{i.lower()}.json" for i in catalog.catalog_list()}
    # tampering must be detected
    real = catalog._data_text

    def tampered(fn):
        text = real(fn)
        if fn == "lt8.json":
            text = text.replace("2/7", "3/7", 1)
        return text

    monkeypatch.setattr(catalog, "_data_text", tampered)
    monkeypatch.setattr(catalog, "_manifest_checked", False)
    catalog._cache.pop("LT8", None)
    with pytest.raises(Exception):
        catalog.catalog_get("LT8")
    monkeypatch.setattr(catalog, "_manifest_checked", False)


def test_derived_g_matches_prepotential():
    # the algebraic-prepotential entries ship g derived from F; re-derive
    for eid in ("H3p", "H3pp"):
        pvf = catalog.catalog_get(eid).pvf
        F = exprio.parse_expr(pvf.meta["prepotential"], pvf.ring)
        derived = [F.partial(2), F.partial(1), F.partial(0)]
        for a, b in zip(pvf.g, derived):
            assert (a - b).is_zero()


def test_all_entries_pass_symbolic_verification():
    for eid in catalog.catalog_list():
        rep = catalog.catalog_verify(eid, "symbolic")
        assert rep["pass"], (eid, rep)
        assert rep["symbolic"]["saito_criterion_c"] == "1"
        assert rep["symbolic"]["discriminant_weight"] == "3"


def test_h3_prepotential_flagged_and_reconstructed():
    rep = catalog.catalog_verify("H3", "symbolic")
    assert rep["symbolic"]["prepotential_found"]
    assert rep["symbolic"]["prepotential_matches"]


def test_numeric_depth_lt8():
    rep = catalog.catalog_verify("LT8", "numeric")
    assert rep["numeric"]["pass"]
    assert rep["numeric"]["pvi_residual"] < 1e-6
    assert rep["numeric"]["trace_spread"] < 1e-8


def test_full_depth_one_extension_entry():
    rep = catalog.catalog_verify("H3pp", "full")
    assert rep["pass"], rep
    assert rep["full"]["schlesinger_residual"] < 1e-6
    assert rep["full"]["midconv_gamma_inf_error"] < 1e-8


@pytest.mark.parametrize("eid", ["H3", "H3p", "LT8"])
def test_symbolic_verify_derives_once(eid, monkeypatch):
    # one build of the matrices, one gradient matrix C (H3 also runs the
    # prepotential check on it) and one n x n determinant (h = det(-T))
    from flatiso import flatcore
    n = catalog.catalog_get(eid).pvf.n
    builds, grads, dets = [], [], []
    build, grad, det = (flatcore.build_saito_matrices, flatcore._gradient_matrix,
                        flatcore.mat_det)

    def counting_build(pvf):
        builds.append(pvf)
        return build(pvf)

    def counting_grad(pvf):
        grads.append(pvf)
        return grad(pvf)

    def counting_det(a):
        if len(a) == n:
            dets.append(a)
        return det(a)

    monkeypatch.setattr(flatcore, "build_saito_matrices", counting_build)
    monkeypatch.setattr(flatcore, "_gradient_matrix", counting_grad)
    monkeypatch.setattr(flatcore, "mat_det", counting_det)
    rep = catalog.catalog_verify(eid, "symbolic")
    assert rep["pass"]
    assert rep["symbolic"].get("prepotential_found", eid == "H3") == (eid == "H3")
    assert len(builds) == 1
    assert len(grads) == 1
    assert len(dets) == 1


def test_full_verify_tracks_snapshots_once(monkeypatch):
    # the numeric and full depths share the default path's residue snapshots
    from flatiso import isomono
    calls = []
    real = isomono.snapshots_along

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(isomono, "snapshots_along", counting)
    assert catalog.catalog_verify("LT8", "full")["pass"]
    assert len(calls) == 1
