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
    EntityId,
    Ontology,
    OntologyTerm,
    filter_associations,
    parse_associations,
    parse_gaf,
    parse_obo,
)
from .pairing import combine, cosine  # noqa: E402
from .semsim import (  # noqa: E402
    SimilarityConfig,
    ic_resnik,
    ic_seco,
    sim_groupwise,
    ssm_baseline,
)

__all__ = [
    "AnnotationMap", "AssociationDataset", "CuratedAssociation",
    "EmbeddingTable", "EntityId", "EvalReport", "KgeTrainConfig",
    "KnowledgeGraph", "Ontology", "OntologyTerm", "SimilarityConfig",
    "__version__", "build_kg", "combine", "cosine", "embed",
    "evaluate_run", "filter_associations", "ic_resnik", "ic_seco",
    "parse_associations", "parse_gaf", "parse_obo", "roc_auc",
    "sample_negatives", "sim_groupwise", "ssm_baseline", "stratified_split",
    "threshold_sweep", "waf",
]
