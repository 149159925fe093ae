"""mathns: namespace discovery for mathematical identifiers.

The pipeline extracts identifier-definition relations from text around
formulas, embeds documents in an identifier vector space, clusters
them, selects category-pure clusters and assembles each into a named
namespace mapped onto a category hierarchy.  The top level holds what
the demos use; everything else is imported from its module.
"""

from .cluster import kmeans, snn_dbscan
from .corpus import build_corpus, default_stop_lists, drop_sparse_documents, load_corpus
from .decompose import lsa_embed, nmf, nmf_assign, randomized_svd
from .evaluate import purity_report, random_baseline
from .extraction import Relation, extract_relations, prepare_corpus, rank_candidates
from .idspace import vectorize
from .namespaces import (
    HierarchyScheme,
    build_namespace,
    map_to_hierarchy,
    merge_exact,
    merge_fuzzy,
    squash_score,
)
from .simindex import SimilarityIndex, build_snn_graph

__version__ = "0.1.0"
