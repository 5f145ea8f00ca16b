"""Differential suite: served results are bit-identical to offline solves.

The serving contract (``docs/SERVING.md``) is that admission into the
always-hot continuous batch is invisible in the numbers: whatever the
arrival order, client interleaving or batch capacity, every request's
result equals the standalone ``SpikingCSPSolver.solve`` run — and the
offline ``solve_instances`` batch run — with the same seed and budget.
"""

import asyncio

import numpy as np
import pytest

from repro.csp.config import CSPConfig
from repro.csp.scenarios import make_instance
from repro.csp.solver import SpikingCSPSolver, solve_instances
from repro.serve import OpenLoopLoad, SolveService, run_open_loop

MAX_STEPS = 800
CHECK_INTERVAL = 10


def _pool(count, base_seed, num_vertices=9):
    return [
        make_instance("coloring", seed=base_seed + i, num_vertices=num_vertices, num_colors=3)
        for i in range(count)
    ]


def _assert_result_equal(offline, served):
    assert offline.solved == served.solved
    assert offline.steps == served.steps
    assert offline.total_spikes == served.total_spikes
    assert offline.neuron_updates == served.neuron_updates
    np.testing.assert_array_equal(offline.values, served.values)
    np.testing.assert_array_equal(offline.decided, served.decided)


def _serve_pool(pool, *, capacity, seed=3, interleave=None, max_steps=MAX_STEPS):
    """Serve every instance; returns the ServeResults in pool order."""

    async def main():
        service = SolveService(
            capacity=capacity,
            check_interval=CHECK_INTERVAL,
            default_max_steps=max_steps,
            seed=seed,
            clock="steps",
        )
        async with service:
            if interleave is None:
                results = await service.submit_many(pool)
            else:
                # Stagger submissions across scheduler steps so requests
                # join a batch that is already mid-flight.
                async def delayed(index, graph, clamps):
                    await service.wait_for_step(interleave * index)
                    return await service.submit(graph, clamps, client=f"c{index % 3}")

                results = list(
                    await asyncio.gather(
                        *(delayed(i, g, c) for i, (g, c) in enumerate(pool))
                    )
                )
            await service.stop(drain=True)
        return results

    return asyncio.run(main())


@pytest.mark.parametrize("capacity", [1, 3, 8])
def test_served_results_match_standalone_solver(capacity):
    pool = _pool(8, base_seed=40)
    results = _serve_pool(pool, capacity=capacity)
    config = CSPConfig()
    for (graph, clamps), served in zip(pool, results):
        offline = SpikingCSPSolver(graph, config, seed=served.seed).solve(
            clamps, max_steps=MAX_STEPS, check_interval=CHECK_INTERVAL
        )
        _assert_result_equal(offline, served.result)


def test_served_results_match_offline_solve_instances():
    pool = _pool(6, base_seed=70)
    results = _serve_pool(pool, capacity=4)
    offline = solve_instances(
        pool,
        seeds=[served.seed for served in results],
        max_steps=MAX_STEPS,
        check_interval=CHECK_INTERVAL,
    )
    for off, served in zip(offline, results):
        _assert_result_equal(off, served.result)


def test_interleaved_admission_matches_standalone():
    """Requests admitted mid-run (slot refills) stay bit-exact."""
    pool = _pool(7, base_seed=90)
    results = _serve_pool(pool, capacity=2, interleave=17)
    config = CSPConfig()
    for (graph, clamps), served in zip(pool, results):
        offline = SpikingCSPSolver(graph, config, seed=served.seed).solve(
            clamps, max_steps=MAX_STEPS, check_interval=CHECK_INTERVAL
        )
        _assert_result_equal(offline, served.result)


def test_arrival_order_does_not_change_results():
    """Content-derived seeds: a request's answer is independent of when
    it arrives, what shares the batch with it, and the batch capacity."""
    pool = _pool(6, base_seed=120)
    rng = np.random.default_rng(5)
    order = list(rng.permutation(len(pool)))
    forward = _serve_pool(pool, capacity=3)
    shuffled = _serve_pool([pool[i] for i in order], capacity=5, interleave=9)
    for position, index in enumerate(order):
        a, b = forward[index], shuffled[position]
        assert a.seed == b.seed
        assert a.key == b.key
        _assert_result_equal(a.result, b.result)


def test_explicit_seed_matches_standalone():
    graph, clamps = make_instance("coloring", seed=7, num_vertices=9, num_colors=3)

    async def main():
        async with SolveService(
            capacity=2, check_interval=CHECK_INTERVAL, seed=0, clock="steps"
        ) as service:
            return await service.submit(graph, clamps, seed=1234, max_steps=MAX_STEPS)

    served = asyncio.run(main())
    assert served.seed == 1234
    offline = SpikingCSPSolver(graph, CSPConfig(), seed=1234).solve(
        clamps, max_steps=MAX_STEPS, check_interval=CHECK_INTERVAL
    )
    _assert_result_equal(offline, served.result)


def test_open_loop_load_matches_standalone_and_repeats_deterministically():
    spec = OpenLoopLoad(
        num_clients=3,
        requests_per_client=4,
        mean_interarrival_steps=25.0,
        scenario="coloring",
        scenario_params={"num_vertices": 9, "num_colors": 3},
        unique_instances=5,
        seed=21,
        max_steps=MAX_STEPS,
    )

    def run_once():
        async def main():
            service = SolveService(
                capacity=4,
                check_interval=CHECK_INTERVAL,
                default_max_steps=MAX_STEPS,
                seed=21,
                clock="steps",
            )
            async with service:
                rows = await run_open_loop(service, spec)
                await service.stop(drain=True)
            return rows, service.metrics().as_dict()

        return asyncio.run(main())

    (first, metrics), (second, repeat_metrics) = run_once(), run_once()
    assert repeat_metrics == metrics
    config = CSPConfig()
    from repro.serve import build_instance_pool

    pool = build_instance_pool(spec)
    offline_by_pick = {}
    for (_, pick, served), (_, _, repeat) in zip(first, second):
        assert served is not None and repeat is not None
        assert served.seed == repeat.seed
        _assert_result_equal(served.result, repeat.result)
        if pick not in offline_by_pick:
            graph, clamps = pool[pick]
            offline_by_pick[pick] = SpikingCSPSolver(graph, config, seed=served.seed).solve(
                clamps, max_steps=MAX_STEPS, check_interval=CHECK_INTERVAL
            )
        _assert_result_equal(offline_by_pick[pick], served.result)

    # The request ledger balances and the drain left nothing in flight.
    assert (
        metrics["served"] + metrics["shed"] + metrics["cancelled"] + metrics["in_flight"]
        == metrics["submitted"]
    )
    assert metrics["in_flight"] == 0
    assert metrics["solved"] / spec.total_requests >= 0.9
    # Every repeat of a pool instance is coalesced or served from the memo.
    unique = len({(pick, served.seed, served.max_steps) for _, pick, served in first})
    assert metrics["cache_hits"] + metrics["coalesced"] == spec.total_requests - unique
