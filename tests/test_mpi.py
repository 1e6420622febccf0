"""Simulated-MPI substrate: communicator, topology, nondeterminism, faults."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import zero_sum_series
from repro.mpi import (
    FaultModel,
    MachineTopology,
    SimComm,
    arrival_order_tree,
    binomial_tree,
    make_reduction_op,
    run_campaign,
    sample_arrival_times,
    topology_aware_tree,
    tree_cost,
)
from repro.summation import get_algorithm
from repro.trees import balanced, serial


@pytest.fixture
def topo():
    return MachineTopology(nodes=3, sockets_per_node=2, cores_per_socket=4)


class TestTopology:
    def test_rank_count_and_coords(self, topo):
        assert topo.n_ranks == 24
        assert topo.coords(0) == (0, 0, 0)
        assert topo.coords(23) == (2, 1, 3)
        with pytest.raises(ValueError):
            topo.coords(24)

    def test_latency_tiers(self, topo):
        assert topo.link_latency(0, 1) == topo.latency_socket
        assert topo.link_latency(0, 4) == topo.latency_node
        assert topo.link_latency(0, 8) == topo.latency_network

    def test_binomial_tree_steps(self):
        steps = binomial_tree(8)
        assert len(steps) == 7
        assert steps[0] == (0, 1)
        survivors = {0}
        for a, b in steps:
            assert a in survivors or b not in survivors
            survivors.add(a)
            survivors.discard(b)
        assert survivors == {0}

    def test_topology_aware_tree_valid(self, topo):
        t = topology_aware_tree(topo)
        t.validate()
        assert t.n_leaves == 24

    def test_topology_tree_beats_oblivious_shapes(self, topo):
        t_topo = tree_cost(topology_aware_tree(topo), topo)
        # the oblivious comparator reduces in an order unrelated to
        # placement (Balaji & Kimpe's fixed-order tree): same balanced
        # shape, ranks scattered
        scattered = np.random.default_rng(0).permutation(24)
        t_bal_oblivious = tree_cost(balanced(24), topo, leaf_rank=scattered)
        t_ser = tree_cost(serial(24), topo)
        assert t_topo < t_bal_oblivious < t_ser

    def test_advantage_grows_with_scale(self):
        """Balaji & Kimpe: the topology advantage increases with core count."""
        gains = []
        for nodes in (2, 8):
            t = MachineTopology(nodes=nodes, sockets_per_node=2, cores_per_socket=8)
            gains.append(
                tree_cost(balanced(t.n_ranks), t) / tree_cost(topology_aware_tree(t), t)
            )
        assert gains[1] > gains[0]

    def test_tree_cost_leaf_rank_mapping(self, topo):
        t = balanced(24)
        cost_identity = tree_cost(t, topo)
        # a permutation that scatters neighbours across nodes costs more
        perm = np.roll(np.arange(24), 12)
        cost_scattered = tree_cost(t, topo, leaf_rank=perm)
        assert cost_scattered >= cost_identity * 0.5  # sanity: same order of magnitude

    def test_invalid_topology(self):
        with pytest.raises(ValueError):
            MachineTopology(nodes=0)


class TestSimCommBasics:
    def test_scatter_covers_and_balances(self):
        comm = SimComm(5)
        chunks = comm.scatter_array(np.arange(17, dtype=np.float64))
        assert sum(c.size for c in chunks) == 17
        assert max(c.size for c in chunks) - min(c.size for c in chunks) <= 1

    def test_reduce_matches_direct_sum(self):
        comm = SimComm(8)
        data = np.random.default_rng(0).uniform(-1, 1, 1000)
        chunks = comm.scatter_array(data)
        op = make_reduction_op(get_algorithm("CP"))
        r = comm.reduce(chunks, op, tree="balanced")
        assert r.value == pytest.approx(float(np.sum(data)), abs=1e-10)
        assert r.tree.n_leaves == 8

    def test_allreduce_broadcast(self):
        comm = SimComm(4)
        chunks = comm.scatter_array(np.ones(40))
        vals = comm.allreduce(chunks, make_reduction_op(get_algorithm("ST")))
        assert vals == [40.0] * 4

    def test_max_allreduce(self):
        comm = SimComm(3)
        assert comm.max_allreduce([1.0, 5.0, 2.0]) == 5.0

    def test_pr_pre_pass_automatic(self):
        comm = SimComm(4)
        data = zero_sum_series(4000, seed=1)
        chunks = comm.scatter_array(data)
        r = comm.reduce(chunks, make_reduction_op(get_algorithm("PR")))
        assert r.value == 0.0

    def test_size_checks(self):
        comm = SimComm(4)
        with pytest.raises(ValueError, match="one entry per rank"):
            comm.reduce([np.ones(3)], make_reduction_op(get_algorithm("ST")))

    def test_resolved_trees_are_cached_and_read_only(self, topo):
        comm = SimComm(topology=topo)
        chunks = comm.scatter_array(np.ones(48))
        op = make_reduction_op(get_algorithm("K"))
        for spec in ("balanced", "serial", "topology"):
            first = comm.reduce(chunks, op, tree=spec).tree
            batch = comm.reduce_batch([chunks, chunks], op, tree=spec)
            assert all(r.tree is first for r in batch)
            with pytest.raises(ValueError, match="read-only"):
                first.schedule[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            serial(5).schedule[:] = 0

    def test_tree_specs(self, topo):
        comm = SimComm(topology=topo)
        chunks = comm.scatter_array(np.ones(48))
        op = make_reduction_op(get_algorithm("ST"))
        for spec in ("balanced", "serial", "topology", serial(24)):
            assert comm.reduce(chunks, op, tree=spec).value == 48.0
        with pytest.raises(ValueError):
            comm.reduce(chunks, op, tree="mystery")
        with pytest.raises(ValueError):
            comm.reduce(chunks, op, tree=serial(7))


class TestNondeterminism:
    def test_arrival_tree_valid(self):
        sched = sample_arrival_times(33, jitter=0.5, seed=2)
        run = arrival_order_tree(sched)
        run.tree.validate()
        assert run.completion_time > 0.0

    def test_zero_jitter_deterministic_schedule(self):
        a = sample_arrival_times(16, jitter=0.0, seed=3)
        b = sample_arrival_times(16, jitter=0.0, seed=4)
        assert np.array_equal(a.ready, b.ready)

    def test_nondet_reduce_varies_for_st(self):
        comm = SimComm(32, seed=5)
        data = zero_sum_series(32_000, seed=6)
        chunks = comm.scatter_array(data)
        op = make_reduction_op(get_algorithm("ST"))
        vals = {comm.reduce_nondeterministic(chunks, op, jitter=0.6).value for _ in range(20)}
        assert len(vals) > 1

    def test_nondet_reduce_constant_for_pr(self):
        comm = SimComm(32, seed=7)
        data = zero_sum_series(32_000, seed=8)
        chunks = comm.scatter_array(data)
        op = make_reduction_op(get_algorithm("PR"))
        vals = {
            comm.reduce_nondeterministic(chunks, op, jitter=0.6, engine="object").value
            for _ in range(10)
        }
        assert vals == {0.0}

    def test_same_seed_same_runs(self):
        data = zero_sum_series(8000, seed=9)
        results = []
        for _ in range(2):
            comm = SimComm(16, seed=10)
            chunks = comm.scatter_array(data)
            op = make_reduction_op(get_algorithm("ST"))
            results.append([comm.reduce_nondeterministic(chunks, op).value for _ in range(5)])
        assert results[0] == results[1]

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            sample_arrival_times(0)
        with pytest.raises(ValueError):
            sample_arrival_times(4, jitter=-1.0)


class TestFaults:
    def test_campaign_shapes_vary_more_with_faults(self):
        data = zero_sum_series(16_000, seed=11)
        comm = SimComm(32, seed=12)
        chunks = comm.scatter_array(data)
        op = make_reduction_op(get_algorithm("ST"))
        calm = run_campaign(comm, chunks, op, FaultModel(jitter=0.05, fault_prob=0.0), 25)
        stormy = run_campaign(
            comm, chunks, op, FaultModel(jitter=0.05, fault_prob=0.3, fault_delay=50.0), 25
        )
        assert np.ptp(stormy.depths) >= np.ptp(calm.depths)
        assert stormy.times.mean() > calm.times.mean()

    def test_pr_survives_any_weather(self):
        data = zero_sum_series(16_000, seed=13)
        comm = SimComm(32, seed=14)
        chunks = comm.scatter_array(data)
        op = make_reduction_op(get_algorithm("PR"))
        campaign = run_campaign(
            comm, chunks, op, FaultModel(jitter=1.0, fault_prob=0.5), 20, engine="object"
        )
        assert campaign.n_distinct_values == 1

    def test_fault_model_validation(self):
        with pytest.raises(ValueError):
            FaultModel(fault_prob=2.0)
        with pytest.raises(ValueError):
            FaultModel(jitter=-0.1)
        comm = SimComm(4)
        with pytest.raises(ValueError):
            run_campaign(comm, [np.ones(1)] * 4, make_reduction_op(get_algorithm("ST")), FaultModel(), 0)
