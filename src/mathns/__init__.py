"""mathns: namespace discovery for mathematical identifiers.

The pipeline extracts identifier-definition relations from text around
formulas, embeds documents in an identifier vector space, clusters
them, selects category-pure clusters and assembles each into a named
namespace mapped onto a category hierarchy.
"""

from .cluster import (
    NOISE,
    ClusterAssignment,
    agglomerative,
    dbscan,
    kmeans,
    minibatch_kmeans,
    snn_dbscan,
)
from .corpus import (
    Corpus,
    Document,
    StopLists,
    build_corpus,
    corpus_stats,
    default_stop_lists,
    drop_sparse_documents,
    identifier_key,
    load_corpus,
    normalize_identifier,
    parse_document,
    split_key,
)
from .decompose import NmfFactors, SvdFactors, lsa_embed, nmf, nmf_assign, randomized_svd
from .evaluate import (
    PurityReport,
    cluster_purity,
    namespace_defining,
    purity_report,
    random_baseline,
)
from .extraction import (
    PreparedDocument,
    RankerParams,
    Relation,
    extract_relations,
    match_patterns,
    nearest_noun,
    prepare_corpus,
    prepare_document,
    rank_candidates,
    ranker_score,
)
from .idspace import (
    DocMatrix,
    Vocabulary,
    tfidf_weight,
    vectorize,
)
from .namespaces import (
    OTHERS,
    HierarchyScheme,
    Namespace,
    build_namespace,
    map_to_hierarchy,
    merge_exact,
    merge_fuzzy,
    squash_score,
    token_set_ratio,
)
from .pipeline import PipelineConfig, run_pipeline, run_stage
from .simindex import (
    NeighborList,
    SimilarityIndex,
    build_snn_graph,
    similarity,
)
from .textproc import Lexicon, TaggedToken, chunk_phrases, pos_tag, tokenize_sentences

__version__ = "0.1.0"
