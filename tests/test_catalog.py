import json
import math

import pytest

from flatiso import catalog, cli, exprio, p6
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


def test_midconv_gamma_inf_error_gates_nothing(monkeypatch):
    # the lift's Gamma_inf is (Gamma_inf - lam, -lam) by construction, so
    # its distance from the weights is reported as a rounding reading only:
    # a lift whose Gamma_inf were off by 1e-3 would still pass
    from flatiso import midconv
    from flatiso.flatcore import build_saito_matrices
    real = midconv.middle_convolution

    def shifted(sys, lam):
        out = real(sys, lam)
        out.Gamma_inf = out.Gamma_inf + 1e-3
        return out

    monkeypatch.setattr(midconv, "middle_convolution", shifted)
    e = catalog.catalog_get("LT8")
    pts = e.default_path.points
    block, _ = catalog.midconv_block(build_saito_matrices(e.pvf),
                                     pts[len(pts) // 2], z_seed=e.z_seed)
    assert abs(block["gamma_inf_error"] - 1e-3) < 1e-12
    assert block["pass"]


def theta_pairs(rep):
    """numeric.theta as the JSON report writes it: [re, im] pairs."""
    return json.loads(json.dumps(rep["numeric"]["theta"],
                                 default=cli._json_value))


def test_theta_strings_have_no_negative_zero(monkeypatch):
    # LT27 theta is real; its imaginary parts round to a zero whose sign
    # follows last-bit noise.  The report writes it unsigned, unperturbed
    # and with the noise forced negative.
    rep = catalog.catalog_verify("LT27", "full")
    assert all(math.copysign(1.0, v) == 1.0
               for pair in theta_pairs(rep) for v in pair if v == 0)
    pvi_on_frames = p6.pvi_on_frames

    def negative_noise(*args, **kwargs):
        samples, params, defects = pvi_on_frames(*args, **kwargs)
        for name in ("theta0", "theta1", "thetat", "thetainf"):
            setattr(params, name, getattr(params, name).real - 1e-15j)
        return samples, params, defects

    monkeypatch.setattr(p6, "pvi_on_frames", negative_noise)
    theta = theta_pairs(catalog.catalog_verify("LT27", "numeric"))
    assert theta == [[0.333333333333, 0.0]] * 3 + [[-0.2, 0.0]]
    assert all(math.copysign(1.0, im) == 1.0 for _, im in theta)


@pytest.mark.parametrize("eid", ["H3", "H3p", "LT8"])
def test_symbolic_verify_derives_once(eid, monkeypatch):
    # one structure of g (check_extended_wdvv tests T's homogeneity on it
    # and builds no second one), one gradient matrix C (H3 also runs the
    # prepotential check on it), one n x n determinant (h = det(-T)), one
    # weight test per entry of T and one flat-normalization test, whose
    # verdicts the WDVV report and the logvf identities share
    from functools import cached_property
    from flatiso import flatcore
    from flatiso.ring import RingElem
    n = catalog.catalog_get(eid).pvf.n
    structures, grads, dets, weighed, normalized = [], [], [], [], []
    structure, grad, det = (flatcore._structure, flatcore._gradient_matrix,
                            flatcore.mat_det)
    has_weight = RingElem._has_weight
    flat_normalized = flatcore.SaitoMatrices.flat_normalized.func

    def counting_structure(pvf):
        structures.append(structure(pvf))
        return structures[-1]

    def counting_has_weight(e, target):
        weighed.append(e)
        return has_weight(e, target)

    def counting_grad(pvf):
        grads.append(pvf)
        return grad(pvf)

    def counting_normalized(m):
        normalized.append(m)
        return flat_normalized(m)
    counting_normalized = cached_property(counting_normalized)
    counting_normalized.__set_name__(flatcore.SaitoMatrices, "flat_normalized")

    def counting_det(a):
        if len(a) == n:
            dets.append(a)
        return det(a)

    monkeypatch.setattr(flatcore, "_structure", counting_structure)
    monkeypatch.setattr(flatcore, "_gradient_matrix", counting_grad)
    monkeypatch.setattr(flatcore, "mat_det", counting_det)
    monkeypatch.setattr(RingElem, "_has_weight", counting_has_weight)
    monkeypatch.setattr(flatcore.SaitoMatrices, "flat_normalized",
                        counting_normalized)
    rep = catalog.catalog_verify(eid, "symbolic")
    assert rep["pass"]
    assert rep["symbolic"].get("prepotential_found", eid == "H3") == (eid == "H3")
    assert len(structures) == 1
    assert len(grads) == 1
    assert len(dets) == 1
    T_ids = {id(e) for row in structures[0].T for e in row}
    assert sum(id(e) in T_ids for e in weighed) == n * n
    assert len(normalized) == 1 and normalized[0] is structures[0]


def test_symbolic_verify_inverts_each_unit_once(monkeypatch):
    # z is divided by the shift route (Ring._z_divide), so the only inverse
    # in these extension rings is rel_z's (one determinant), formed at most
    # once per ring; the lazy rings of LT19 and LT14 cancel nothing by it
    from collections import Counter
    from flatiso import ring as ring_mod
    inverses, dets = [], []
    inverse, adjugate = ring_mod.Ring._inverse, ring_mod._adjugate_column

    def counting_inverse(self, b):
        inverses.append((id(self.ext), frozenset(b.items())))
        return inverse(self, b)

    def counting_adjugate(pk, mat):
        dets.append(len(mat))
        return adjugate(pk, mat)

    monkeypatch.setattr(ring_mod.Ring, "_inverse", counting_inverse)
    monkeypatch.setattr(ring_mod, "_adjugate_column", counting_adjugate)
    monkeypatch.setattr(catalog, "_cache", {})
    exts = {}
    for eid in ("H3p", "H3pp", "LT27", "LT19", "LT14"):
        assert catalog.catalog_verify(eid, "symbolic")["pass"]
        exts[eid] = id(catalog.catalog_get(eid).pvf.ring.ext)
    per_ring = Counter(ext for ext, _ in inverses)
    assert len(per_ring) == 3 and max(per_ring.values()) <= 1
    assert per_ring[exts["LT19"]] == per_ring[exts["LT14"]] == 0
    assert len(dets) == len(inverses)


def test_symbolic_verify_commutes_nothing_with_t(monkeypatch):
    # T = -E C = -sum_k w_k t_k B^(k) reduces the relations to the 3
    # commutators [B^(p), B^(q)] per entry and a weight test, so the pass
    # differentiates no entry of T; its fused sums are, per entry, the 9
    # entries of each commutator, the 3 trace defects, the 4 levels of
    # h = det(-T) (the 3x3 row and its three 2x2 minors) and the 3 traces,
    # and H3's prepotential F (11 * (27 + 3 + 4 + 3) + 1 = 408).  The 18
    # entries of the commutators against B^(3) - I and the Euler row's
    # trace defect are counted though every part of them is skipped
    # (test_flat_structures_multiply_nothing_against_their_defects)
    from flatiso import flatcore
    from flatiso.ring import Ring, RingElem
    commuted, differentiated, structures = [], [], []
    mat_commutator, fused_sum = flatcore.mat_commutator, Ring.fused_sum
    partial = RingElem.partial
    check = flatcore.check_saito_relations
    fused = 0

    def counting_commutator(a, b):
        commuted.append((a, b))
        return mat_commutator(a, b)

    def counting_sum(self, products=()):
        nonlocal fused
        fused += 1
        return fused_sum(self, products)

    def counting_partial(self, var):
        differentiated.append(self)
        return partial(self, var)

    def capturing(m):
        structures.append(m)
        return check(m)

    def touches_t(pairs):
        ts = [m.T for m in structures]
        return sum(1 for a, b in pairs if any(a is T or b is T for T in ts))

    def t_partials():
        return sum(1 for a in differentiated for m in structures
                   if any(a is e for row in m.T for e in row))

    monkeypatch.setattr(flatcore, "mat_commutator", counting_commutator)
    monkeypatch.setattr(flatcore, "check_saito_relations", capturing)
    monkeypatch.setattr(Ring, "fused_sum", counting_sum)
    monkeypatch.setattr(RingElem, "partial", counting_partial)
    monkeypatch.setattr(catalog, "_cache", {})
    for eid in catalog.catalog_list():
        assert catalog.catalog_verify(eid, "symbolic")["pass"]
    assert len(structures) == 11
    assert len(commuted) == 33 and touches_t(commuted) == 0
    assert t_partials() == 0
    assert fused == 408


def test_flat_structures_multiply_nothing_against_their_defects(monkeypatch):
    # on a flat structure B^(n) - I and T_nj + w_j t_j vanish entry by entry,
    # so the fused sums that read them, the 9 entries of each commutator
    # [B^(p), B^(n) - I] (p < n) and the Euler row's trace defect, skip every
    # part: no monomial product runs inside them.  Forming the two defects
    # is not counted
    from flatiso import flatcore
    from flatiso.ring import Ring, _Packing
    structures, sums = [], []
    structure, fused_sum, mul = flatcore._structure, Ring.fused_sum, _Packing.mul
    products = 0

    def counting_mul(self, a, b):
        nonlocal products
        products += 1
        return mul(self, a, b)

    def recording_sum(self, parts=()):
        parts = list(parts)
        before = products
        out = fused_sum(self, parts)
        sums.append(({id(f) for _, *fs in parts for f in fs}, products - before))
        return out

    def keeping_structure(pvf):
        structures.append(structure(pvf))
        return structures[-1]

    monkeypatch.setattr(_Packing, "mul", counting_mul)
    monkeypatch.setattr(Ring, "fused_sum", recording_sum)
    monkeypatch.setattr(flatcore, "_structure", keeping_structure)
    monkeypatch.setattr(catalog, "_cache", {})
    for eid in catalog.catalog_list():
        assert catalog.catalog_verify(eid, "symbolic")["pass"]
    assert len(structures) == 11
    defects = {id(e) for m in structures
               for e in m.flat_defect + [x for row in m.unit_defect for x in row]}
    reading = [count for factors, count in sums if factors & defects]
    assert len(reading) == 11 * (2 * 9 + 1)
    assert reading == [0] * len(reading)
    assert products > 0


def test_full_verify_compiles_two_stacks(monkeypatch):
    # a full-depth verify compiles the two stacks of its one structure, the
    # tracker's (T0 with h's t_n-coefficients) and dT0, and nothing else:
    # every PVI entry choice is read off the tracked T0 (p6._samples_on),
    # with no stack of its own.  The relation's stacks are kept on the ring,
    # compiled by whichever test first evaluates on it, so only the
    # structure's are counted
    from flatiso.numeric import EvalStack, _relation_forms
    stacks = []
    init = EvalStack.__init__

    def counting(self, elems):
        stacks.append(self)
        init(self, elems)

    monkeypatch.setattr(EvalStack, "__init__", counting)
    assert catalog.catalog_verify("LT19", "full")["pass"]
    ring = catalog.catalog_get("LT19").pvf.ring
    assert all(s.ring is ring for s in stacks)
    assert len([s for s in stacks if s not in _relation_forms(ring)]) == 2


def test_symbolic_verify_divides_no_row_by_h(monkeypatch, perturbed_lazy):
    # the trace identity certifies every row of -T, so long division by h
    # runs only for a row whose trace defect is nonzero
    from flatiso import flatcore
    from flatiso.errors import RowNotLogarithmic
    calls = []
    divmod_main_var = flatcore.divmod_main_var

    def counting(f, h, var):
        calls.append(var)
        return divmod_main_var(f, h, var)

    monkeypatch.setattr(flatcore, "divmod_main_var", counting)
    monkeypatch.setattr(catalog, "_cache", {})
    for eid in catalog.catalog_list():
        assert catalog.catalog_verify(eid, "symbolic")["pass"]
    assert calls == []
    # the control's rows 0 and 1 fail the identity and are divided, once each
    m = flatcore.build_saito_matrices(perturbed_lazy("LT19"))
    with pytest.raises(RowNotLogarithmic) as exc:
        catalog.logvf_block(m)
    assert exc.value.row == 1
    assert calls == [2, 2]


def test_full_verify_tracks_snapshots_once(monkeypatch):
    # the snapshots, the PVI check and the entry survey (every second frame)
    # all read the one track of the 41-point default path
    from flatiso import p6
    lengths = []
    real = p6.StructureSampler.track

    def counting(self, path):
        lengths.append(len(path))
        return real(self, path)

    monkeypatch.setattr(p6.StructureSampler, "track", counting)
    assert catalog.catalog_verify("LT8", "full")["pass"]
    assert lengths.count(41) == 1


@pytest.mark.parametrize("eid", ["LT19", "LT14"])
def test_full_verify_derives_each_object_once(monkeypatch, eid):
    # one structure per entry on the lazy rings too: the 9 entries of
    # T = -E C are each differentiated along the Euler field once, as are
    # the 18 entries of B^(1) and B^(2) that dT0 = -(E + w_k) B^(k) reads,
    # and h = det(-T) is the one 3x3 determinant.  The 41 partials are C's
    # 9, the 27 of the B^(k), dh's 3 and the 2 of the logvf identities; no
    # entry of T0 is differentiated, and h is split into its t_n-coefficients
    # once, for its monic check, h_stack and the logvf identities
    from flatiso import flatcore
    from flatiso.ring import RingElem
    calls = {"euler": 0, "det3": 0}
    structures, differentiated, split = [], [], []
    euler, partial, mat_det = RingElem.euler, RingElem.partial, flatcore.mat_det
    coeffs_in = RingElem.coeffs_in
    structure = flatcore._structure

    def counting_euler(self):
        calls["euler"] += 1
        return euler(self)

    def counting_partial(self, var):
        differentiated.append(self)
        return partial(self, var)

    def counting_split(self, var):
        split.append(self)
        return coeffs_in(self, var)

    def counting_det(a):
        calls["det3"] += len(a) == 3
        return mat_det(a)

    def keeping_structure(pvf):
        structures.append(structure(pvf))
        return structures[-1]

    monkeypatch.setattr(RingElem, "euler", counting_euler)
    monkeypatch.setattr(RingElem, "partial", counting_partial)
    monkeypatch.setattr(RingElem, "coeffs_in", counting_split)
    monkeypatch.setattr(flatcore, "mat_det", counting_det)
    monkeypatch.setattr(flatcore, "_structure", keeping_structure)
    monkeypatch.setattr(catalog, "_cache", {})
    assert catalog.catalog_verify(eid, "full")["pass"]
    assert calls == {"euler": 27, "det3": 1}
    assert len(differentiated) == 41
    [m] = structures
    T0 = [e for row in m.T0 for e in row]
    assert not any(x is e for x in differentiated for e in T0)
    assert sum(x is m.h for x in split) == 1


def test_build_script_rederives_committed_g():
    # H3p and H3pp derive g from the prepotential through .partial(k).cancel()
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "tools" / "build_catalog_data.py"
    spec = importlib.util.spec_from_file_location("build_catalog_data", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for eid in ("H3", "H3p", "H3pp"):
        pvf = tool.build_pvf(eid, tool.RAW[eid])
        assert (exprio.serialize_pvf(pvf)["g"]
                == catalog.catalog_get(eid).doc["pvf"]["g"])
