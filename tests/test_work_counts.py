"""The work the quadrature does, counted rather than timed: the passes of the
Gauss-Kronrod rule (``specfun._gk15_panels`` calls), the nodes at which
they evaluate the integrands, the passes of M's heads, and the calls of the
time factor and its wings.  These counts repeat exactly on any host, so
they show a change of the rule or of the panel sets as work done, where
wall times move with the host.  Each pin is the count measured with
QUADPACK's 31-point rule on panels four half periods wide; the 15-point
rule on half periods took 2,460 nodes in 3 passes for the fig5a map, and
459,495 nodes and 273 head passes for the 200 pool pairs.
"""

import math

import numpy as np

from vharvest import harvesting, specfun
from vharvest.harvesting import ModelKind, compute_terms
from vharvest.survey import Axis, pair_from_params, spacetime_map


def count_work(monkeypatch, run) -> dict:
    """The passes, nodes and M head passes of the rule while run() runs: a
    head pass is a pass made inside an ``integrate_group`` call with wings
    (M's) but not inside its wings (``specfun._wings``)."""
    work, inside = {"passes": 0, "nodes": 0, "head": 0}, []
    real_panels = specfun._gk15_panels

    def panels(*args, **kwargs):
        out = real_panels(*args, **kwargs)
        work["passes"] += 1
        work["nodes"] += out[3]
        work["head"] += inside[-1:] == ["head"]
        return out

    def within(name, real):
        def spy(*args, **kwargs):
            inside.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()
        return spy

    monkeypatch.setattr(specfun, "_gk15_panels", panels)
    real_group = harvesting.integrate_group

    def group(f, edges, kernel, members, *args):
        if args[-1] is None:  # L's or L_AB's, no wings
            return real_group(f, edges, kernel, members, *args)
        return within("head", real_group)(f, edges, kernel, members, *args)

    monkeypatch.setattr(harvesting, "integrate_group", group)
    monkeypatch.setattr(specfun, "_wings", within("wings", specfun._wings))
    try:
        run()
    finally:
        monkeypatch.undo()
    return work


def pool_pairs(n: int, seed: int = 20261020) -> list:
    # identical-atom pairs over the benchmark pool's ranges: a model, Omega T
    # in [0.5, 15], a0 Omega log-uniform in [1e-4, 1e-2], d and t_BA in
    # [0.5, 25] T and random Euler angles
    rng = np.random.default_rng(seed)
    models = list(ModelKind)
    return [pair_from_params({"omega_T": rng.uniform(0.5, 15.0),
                              "a0_omega": 10.0 ** rng.uniform(-4.0, -2.0),
                              "d_over_T": rng.uniform(0.5, 25.0),
                              "tba_over_T": rng.uniform(0.5, 25.0),
                              "psi": rng.uniform(0.0, 2.0 * math.pi),
                              "theta": math.acos(rng.uniform(-1.0, 1.0)),
                              "phi": rng.uniform(0.0, 2.0 * math.pi)},
                             models[rng.integers(len(models))]) for _ in range(n)]


def test_the_fig5a_map_takes_at_most_1612_nodes_in_3_passes(monkeypatch):
    # fig5a's grid as the benchmark runs it: EM, Omega T = 12, a0 Omega =
    # 1e-3, d and t_BA over 0..24 T at 10 x 10 (L, M's head, and the wings
    # of d = 0 on the real axis)
    work = count_work(monkeypatch, lambda: spacetime_map(
        Axis("d_over_T", 0.0, 24.0, 10), Axis("tba_over_T", 0.0, 24.0, 10), omega_T=12.0))
    assert work["passes"] <= 3 and work["nodes"] <= 1612


def test_the_fig5a_map_makes_3_time_calls_and_1_wings_call(monkeypatch):
    # a pass evaluates the time factors of all its clocks in one call: the
    # head's passes, the d = 0 wings' pass and the ray pass's envelope row
    # make 3 calls of the time kernel on 15,190 clock-nodes (delays times
    # nodes), and the ray pass 1 call of the wings on 5,200; with a call per
    # delay they were 30 and 10 calls on as many clock-nodes
    calls = {"time": [], "wings": []}

    def spy(name, real):
        def counted(k, t_ba, T, *, d_omega):
            calls[name].append(np.size(k) * (np.size(t_ba) if np.ndim(k) == 1 else 1))
            return real(k, t_ba, T, d_omega=d_omega)
        return counted

    monkeypatch.setattr(harvesting, "scaled_time_kernel",
                        spy("time", harvesting.scaled_time_kernel))
    monkeypatch.setattr(harvesting, "_time_wings", spy("wings", harvesting._time_wings))
    spacetime_map(Axis("d_over_T", 0.0, 24.0, 10), Axis("tba_over_T", 0.0, 24.0, 10),
                  omega_T=12.0)
    assert len(calls["time"]) == 3 and sum(calls["time"]) <= 15190
    assert len(calls["wings"]) == 1 and sum(calls["wings"]) <= 5200


def test_200_pool_pairs_take_at_most_299956_nodes_and_205_head_passes(monkeypatch):
    # each pair alone with L_AB, as a `compute` call: a mean of 1,499.8 nodes
    # and 1.025 head passes a pair
    pairs = pool_pairs(200)
    work = count_work(monkeypatch, lambda: [compute_terms(pair) for pair in pairs])
    assert work["nodes"] <= 299956 and work["head"] <= 205
