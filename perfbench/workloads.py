"""The three seeded workloads, driven through flatiso's public API.

A workload has a `setup(seed, passes)` that returns its prepared state and an
`items(state, seed, pass_index)` generator of `Item`s.  An item's `run()`
does one request and returns its gates: `Verdict(name, got, expected)` for
an exact answer, `Gate(name, value, tol)` for a numeric check that passes
when value < tol.  Numeric tolerances are read from `catalog.TOLERANCES` at
the moment the gate is formed.  Inputs come from numpy generators seeded by
(seed, pass index), so a seed fixes every input of a run.

flatiso is imported inside `setup`, never at module import, so a worker can
check that the package was not loaded before its set-up began.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import linear_sum_assignment

# eig(M) = exp(2 pi i eig(residue)) for the loop monodromy; loops run at
# monodromy_on_loop's default tol (1e-10 per unit step) and land near 1e-11.
MONODROMY_TOL = 1e-8
PATH_POINTS = 401
JM_PER_PASS = 22
RADIUS_FRACTION = (0.15, 0.35)
CONTROL = "LT8-perturbed"
WORK_DIR = ".perfbench_run"       # scratch files, relative to the checkout root


@dataclass
class Gate:
    name: str
    value: float
    tol: float


@dataclass
class Verdict:
    name: str
    got: bool
    expected: bool


@dataclass
class Item:
    kind: str
    entry: str
    run: Callable[[], list]
    points: int = 0               # path points the request sweeps


@dataclass
class Entry:
    id: str
    cat: object                   # catalog.CatalogEntry
    m: object = None              # SaitoMatrices
    lam: list = field(default_factory=list)


def _rng(*key):
    return np.random.default_rng(list(key))


def _load_entries(build):
    from flatiso import catalog, flatcore, p6
    out = []
    for eid in catalog.catalog_list():
        cat = catalog.catalog_get(eid)
        e = Entry(id=eid, cat=cat)
        if build:
            e.m = flatcore.build_saito_matrices(cat.pvf)
            e.lam = p6.default_lambda(cat.pvf.ring.weights)
        out.append(e)
    return out


def _tol(key):
    from flatiso import catalog
    return catalog.TOLERANCES[key]


# ---------------------------------------------------------------------------
# catalog-exact: exact verdicts, one fresh process per pass
# ---------------------------------------------------------------------------

class CatalogExact:
    name = "catalog-exact"

    def setup(self, seed, passes):
        from flatiso import flatcore
        entries = _load_entries(build=False)
        klein = next(e.cat.pvf for e in entries if e.id == "LT8")
        g = list(klein.g)
        g[2] = g[2] + klein.ring.var(0) ** 7
        control = flatcore.PotentialVF(ring=klein.ring, g=g, name=CONTROL)
        return entries, control

    def items(self, state, seed, pass_index):
        from flatiso import catalog, flatcore
        entries, control = state
        names = [e.id for e in entries] + [CONTROL]
        for k in _rng(seed, pass_index).permutation(len(names)):
            eid = names[k]
            if eid == CONTROL:
                yield Item("control", eid, lambda: [Verdict(
                    "extended_wdvv", flatcore.check_extended_wdvv(control).is_solution,
                    False)])
            else:
                yield Item("verdict", eid, lambda eid=eid: [Verdict(
                    "catalog_verify", catalog.catalog_verify(eid, "symbolic")["pass"],
                    True)])

    def entries(self, state):
        return len(state[0]) + 1


# ---------------------------------------------------------------------------
# path-sweep: PVI extraction, Schlesinger flow, middle convolution
# ---------------------------------------------------------------------------

class PathSweep:
    name = "path-sweep"

    def setup(self, seed, passes):
        return _load_entries(build=True)

    def items(self, entries, seed, pass_index):
        rng = _rng(seed, pass_index)
        ends = {e.id: rng.uniform(0.5, 1.0) for e in entries}
        for k in rng.permutation(len(entries)):
            e = entries[k]
            dp = e.cat.doc["default_path"]
            lo, hi = dp["t2_start"], dp["t2_end"]
            svals = np.linspace(lo, lo + ends[e.id] * (hi - lo), PATH_POINTS)
            pts = [(dp["t1"], s) for s in svals]
            yield Item("extract-p6", e.id, lambda e=e, p=pts, s=svals: _extract(e, p, s),
                       PATH_POINTS)
            yield Item("schlesinger", e.id, lambda e=e, p=pts, s=svals: _schlesinger(e, p, s),
                       PATH_POINTS)
            yield Item("midconv", e.id, lambda e=e, p=pts: _midconv(e, p[len(p) // 2]), 1)

    def entries(self, entries):
        return len(entries)


def _extract(e, pts, svals):
    from flatiso import p6
    c = e.cat
    samples = p6.extract_p6_solution(e.m, e.lam, c.p6_entry, pts,
                                     z_seed=c.z_seed, svals=svals)
    params = p6.p6_parameters(e.m, pts[0], lam=e.lam,
                              sampler=p6.StructureSampler(e.m, z_seed=c.z_seed),
                              entry_choice=c.p6_entry)
    return [Gate("pvi_residual", p6.p6_residual(samples, params), _tol("pvi_residual"))]


def _schlesinger(e, pts, svals):
    from flatiso import isomono
    snaps = isomono.snapshots_along(e.m, pts, e.lam, z_seed=e.cat.z_seed)
    residual = isomono.schlesinger_residual(snaps, svals=svals)
    traces = np.array([s.traces for s in snaps])
    spread = float(np.abs(traces - traces[0]).max())
    return [Gate("schlesinger_residual", residual, _tol("schlesinger_residual")),
            Gate("trace_constancy", spread, _tol("trace_constancy"))]


def _midconv(e, point):
    from flatiso import midconv
    lam_w = list(e.cat.pvf.ring.weights)
    snap, sys1, family = midconv.rank_one_from_structure(
        e.m, point, lam_w, z_seed=e.cat.z_seed)
    out = midconv.middle_convolution(sys1, -lam_w[-1])
    ginf = _match_error(out.Gamma_inf, np.array(lam_w, dtype=complex))
    traces = _match_error(out.traces(), snap.traces)
    inv = midconv.invariant_subspace_check(sys1, -lam_w[-1], family=family)
    return [Gate("midconv_gamma_inf", ginf, _tol("midconv_recovery")),
            Gate("midconv_traces", traces, _tol("midconv_recovery")),
            Gate("invariance_defect", inv.max_defect, _tol("invariance_defect"))]


def _match_error(got, want):
    """Largest distance under the best one-to-one matching of two spectra."""
    cost = np.abs(np.asarray(got)[:, None] - np.asarray(want)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ---------------------------------------------------------------------------
# isomonodromy-ode: Jimbo-Miwa round trips and monodromy loops
# ---------------------------------------------------------------------------

class IsomonodromyOde:
    name = "isomonodromy-ode"

    def setup(self, seed, passes):
        from flatiso import isomono
        entries = _load_entries(build=True)
        snaps = {}
        for i, e in enumerate(entries):
            # the whole default path, whatever the picks, so set-up costs the
            # same on every seed
            along = isomono.snapshots_along(e.m, e.cat.default_path.points, e.lam,
                                            z_seed=e.cat.z_seed)
            for p in passes:
                snaps[e.id, p] = along[int(_rng(seed, p, i + 1).integers(len(along)))]
        return entries, snaps

    def items(self, state, seed, pass_index):
        entries, snaps = state
        rng = _rng(seed, pass_index)
        loops = [("monodromy", e.id, r) for e in entries for r in range(3)]
        jms = [("jm-roundtrip", "JM", int(s))
               for s in rng.integers(0, 2 ** 31, JM_PER_PASS)]
        # one radius fraction per stratum of RADIUS_FRACTION, so every pass
        # spans the whole range
        lo, hi = RADIUS_FRACTION
        strata = rng.permutation(len(loops)) + rng.uniform(size=len(loops))
        fracs = lo + (hi - lo) * strata / len(loops)
        todo = loops + jms
        for k in rng.permutation(len(todo)):
            kind, eid, arg = todo[k]
            if kind == "jm-roundtrip":
                yield Item(kind, f"seed={arg}", lambda s=arg: _jm_roundtrip(s))
            else:
                yield Item(kind, eid, lambda s=snaps[eid, pass_index], r=arg,
                           f=fracs[k]: _monodromy(s, r, f))

    def entries(self, state):
        return len(state[0])


def _monodromy(snap, root, frac):
    from flatiso import isomono
    zc = snap.z[root]
    near = min(abs(zc - z) for i, z in enumerate(snap.z) if i != root)
    M = isomono.monodromy_on_loop(snap, center=zc, radius=frac * near)
    want = np.exp(2j * np.pi * np.linalg.eigvals(snap.residues[root]))
    return [Gate("monodromy_exp_identity",
                 _match_error(np.linalg.eigvals(M), want), MONODROMY_TOL)]


class CliFailure(Exception):
    """The jm-roundtrip verb exited with an error code (2 or 3)."""


def _jm_roundtrip(seed):
    from flatiso import cli
    out = os.path.join(WORK_DIR, "jm-roundtrip.json")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["jm-roundtrip", "--seed", str(seed), "--json", out])
    if code not in (0, 1):
        raise CliFailure(f"exit {code}: {err.getvalue().strip()}")
    with open(out) as f:
        rep = json.load(f)
    return [Verdict("exit_code_0", code == 0, True),
            Gate("pvi_residual", rep["pvi_residual"], _tol("pvi_residual")),
            Gate("schlesinger_residual", rep["schlesinger_residual"],
                 _tol("schlesinger_residual"))]


WORKLOADS = {w.name: w for w in (CatalogExact(), PathSweep(), IsomonodromyOde())}
