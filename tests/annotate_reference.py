"""Reference for the router's annotations: every one computed up front, as
``routing._annotate_for_routing`` did before it computed them on demand,
with no block memo and no matrix memo; and a helper that forces every
on-demand annotation of a routing DAG."""

from optswap.commutation import commutation_analysis
from optswap.dag import build_dag
from optswap.gates import SWAP_MATRIX
from optswap.synthesis import collect_blocks, min_cnot_count, pair_unitary


def annotate_eagerly(circuit, memo):
    """Block ids, both block cost maps and commute sets of `circuit`; `memo`
    serves the commutation analysis only."""
    dag = build_dag(circuit)
    for blk in collect_blocks(dag):
        u = pair_unitary([dag.gates[nid] for nid in blk.node_ids], blk.qubit_pair)
        dag.block_cx[blk.block_id] = min_cnot_count(u)
        dag.block_cx_with_swap[blk.block_id] = min_cnot_count(SWAP_MATRIX @ u)
    commutation_analysis(dag, memo)
    return dag


def force_annotations(dag):
    """Read every annotation of a DAG, as the predictors read them: block
    ids, then each block's costs (even blocks through ``block_cx`` first,
    odd ones through ``block_cx_with_swap``), then the commute sets."""
    for bid in sorted(set(dag.block_id.values())):
        first, second = ((dag.block_cx, dag.block_cx_with_swap) if bid % 2 == 0
                         else (dag.block_cx_with_swap, dag.block_cx))
        first[bid]
        second[bid]
    dag.commute_set
    return dag


def assert_same_annotations(dag, ref):
    assert dag.block_id == ref.block_id
    assert dag.block_cx == ref.block_cx
    assert dag.block_cx_with_swap == ref.block_cx_with_swap
    assert dag.commute_set == ref.commute_set
