"""End-to-end differential runs on the metric kinds and instance shapes the
uniform fuzz corpus does not cover: explicit matrices, the L-infinity norm,
co-located facilities, and fractional opening costs."""

import random

from netfloc import (Engine, Instance, OracleView, compare_states,
                     engine_snapshot)


def _differential_run(inst, rng, events=60):
    engine = Engine(inst)
    view = OracleView(inst, engine.hierarchy)
    live = {}
    serial = 0
    for _ in range(events):
        if live and rng.random() < 1 / 3:
            cid = rng.choice(sorted(live))
            engine.delete_client(cid)
            live.pop(cid)
        else:
            serial += 1
            cid = f"c{serial}"
            point = rng.randrange(inst.n_points)
            engine.insert_client(cid, point)
            live[cid] = point
        if view.hierarchy is not engine.hierarchy:
            view = OracleView(inst, engine.hierarchy)
        mism = compare_states(engine_snapshot(engine),
                              view.recompute_state(live))
        assert mism == [], mism[:3]
    return engine


def test_explicit_matrix_metric_differential():
    rng = random.Random(101)
    coords = [rng.randint(0, 400) for _ in range(12)]
    matrix = [[abs(a - b) for b in coords] for a in coords]
    inst = Instance("explicit-matrix", matrix=matrix,
                    facilities=[(0, 12), (5, 30), (9, 7)])
    engine = _differential_run(inst, rng)
    assert engine.cost_query() >= 0


def test_linf_metric_differential():
    rng = random.Random(103)
    pts = [(rng.randint(0, 500), rng.randint(0, 500)) for _ in range(15)]
    inst = Instance("euclidean-Linf", points=pts,
                    facilities=[(i, rng.randint(1, 100)) for i in range(4)])
    _differential_run(inst, rng)


def test_colocated_facilities_differential():
    # Two facilities on one point: only one can enter any separated set, and
    # designation must prefer the cheaper one.
    inst = Instance("euclidean-L2", points=[[0], [0], [90], [200]],
                    facilities=[(0, 50), (1, 20), (2, 35)])
    rng = random.Random(107)
    engine = _differential_run(inst, rng, events=40)
    for node in engine.hierarchy.nodes:
        if node.facility == 0:
            entry = engine.hierarchy.facility_chain_at(1, node.r)
            if entry is not None and entry in node.x_areas:
                assert inst.facilities[node.designated_facility].opening_cost <= 20


def test_fractional_costs_differential():
    rng = random.Random(109)
    pts = [(rng.randint(0, 300), rng.randint(0, 300)) for _ in range(10)]
    inst = Instance("euclidean-L2", points=pts,
                    facilities=[(0, 2.5), (3, 0.75), (7, 11.25)])
    _differential_run(inst, rng, events=50)


def test_unknown_point_in_trace_is_input_error(line5, data_dir, tmp_path, capsys):
    from netfloc.harness import main

    bad = tmp_path / "bad.trace"
    bad.write_text("+ c1 99\n")
    assert main(["run", str(data_dir / "line5.json"), str(bad)]) == 2
    assert "out of range" in capsys.readouterr().err
