"""R-Tree baseline: STR bulk loading, or Guttman insertion as the ablation's build."""

from repro.baselines.rtree.guttman import GuttmanRTree
from repro.baselines.rtree.node import RTreeNode
from repro.baselines.rtree.rtree import RTreeIndex
from repro.baselines.rtree.str_bulkload import build_str_rtree, str_pack

__all__ = [
    "GuttmanRTree",
    "RTreeIndex",
    "RTreeNode",
    "build_str_rtree",
    "str_pack",
]
