"""Gene-disease association prediction over multi-ontology knowledge graphs."""

__version__ = "0.1.0"

from .evaluation import (  # noqa: E402
    AssociationDataset,
    EvalReport,
    evaluate_run,
    roc_auc,
    sample_negatives,
    stratified_split,
    threshold_sweep,
    waf,
)
from .kg import KnowledgeGraph, build_kg  # noqa: E402
from .kge import EmbeddingTable, KgeTrainConfig, embed  # noqa: E402
from .ontology import (  # noqa: E402
    AnnotationMap,
    CuratedAssociation,
    Ontology,
    OntologyTerm,
    entity_node,
    filter_associations,
    parse_associations,
    parse_gaf,
    parse_obo,
    plain_id,
)
from .pairing import combine, cosine  # noqa: E402
from .semsim import (  # noqa: E402
    PairPlan,
    SimilarityConfig,
    ic_resnik,
    ic_seco,
    ssm_baseline,
)

__all__ = [
    "AnnotationMap", "AssociationDataset", "CuratedAssociation",
    "EmbeddingTable", "EvalReport", "KgeTrainConfig", "KnowledgeGraph",
    "Ontology", "OntologyTerm", "PairPlan", "SimilarityConfig",
    "__version__", "build_kg", "combine", "cosine", "embed",
    "entity_node", "evaluate_run", "filter_associations", "ic_resnik",
    "ic_seco", "parse_associations", "parse_gaf", "parse_obo", "plain_id",
    "roc_auc", "sample_negatives", "ssm_baseline", "stratified_split",
    "threshold_sweep", "waf",
]
