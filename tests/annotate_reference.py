"""Reference for the router's annotations: every one computed up front, with
no block memo and no matrix memo; and a helper that reads every block's CNOT
counts from the compile memo, as the router's block predictor does."""

from optswap.commutation import commutation_analysis
from optswap.dag import build_dag
from optswap.gates import SWAP_MATRIX
from optswap.synthesis import annotate_block_costs, collect_blocks, min_cnot_count, pair_unitary


def annotate_eagerly(circuit, memo):
    """A DAG of `circuit` with its blocks and commute sets, and in ``costs``
    each block's CNOT counts without and with an appended SWAP; `memo`
    serves the commutation analysis only."""
    dag = build_dag(circuit)
    dag.costs = {}
    for blk in collect_blocks(dag):
        u = pair_unitary([dag.gates[nid] for nid in blk.node_ids], blk.qubit_pair)
        dag.costs[blk.block_id] = (min_cnot_count(u), min_cnot_count(SWAP_MATRIX @ u))
    commutation_analysis(dag, memo)
    return dag


def force_annotations(dag, memo):
    """Each block's counts without and with an appended SWAP, read through
    ``annotate_block_costs``, which classifies the ones `memo` lacks."""
    costs = {}
    for blk in dag.blocks:
        res = annotate_block_costs(dag, blk, memo)
        costs[blk.block_id] = (res.cx, res.cx_with_swap)
    return costs


def assert_same_annotations(dag, memo, ref):
    assert dag.blocks == ref.blocks
    assert dag.block_id == ref.block_id
    assert force_annotations(dag, memo) == ref.costs
    assert dag.commute_set == ref.commute_set
