"""Memory-bank multi-label representation learning.

Core pieces: a momentum-updated feature memory bank used as a non-parametric
classifier, cycle-consistent positive-label prediction, a squared-error
multi-label loss with hard-negative class mining, a small hand-backpropagated
embedding model, and CMC/mAP retrieval evaluation.
"""

from .bank import MemoryBank, RankList
from .errors import (ConfigError, MemlabelError, NumericError, ParseError,
                     TrainingDiverged)
from .labels import (CandidateSet, MultiLabel, filter_by_threshold,
                     knn_labels, knn_predict, label_quality, mplp_labels,
                     mplp_predict, similarity_score_labels,
                     similarity_score_predict, singleton_label)
from .losses import (LossConfig, LossReport, compute_loss, gradient_sweep,
                     mcl_class_loss, mcl_tau_loss, mem_softmax_ce_loss,
                     mine_hard_negatives, mmcl_class_loss, mmcl_loss)
from .model import EmbeddingModel
from .trainer import (AugmentConfig, PredictorConfig, TrainSchedule, augment,
                      predict_labels, train)
from .evaluation import MetricsReport, RetrievalSplit, evaluate
from .data import SampleRecord, SyntheticSpec, generate, import_features

__version__ = "0.1.0"
