"""Retrieval-augmented text classification: BM25 kNN memory over a BiLSTM
encoder with multi-perspective cosine attention."""

from .corpus import Document, LabelSpace, SplitSpec, Vocabulary, build_vocab, load_dataset, split_dev, subsample, tokenize
from .retrieval import Bm25Params, InvertedIndex, NeighborSet, bm25_score, build_index, precompute_neighbors, search_knn
from .autodiff import Adam, Tape, Tensor, grad_check
from .encoder import EncoderConfig, TextEncoder, load_pretrained_embeddings
from .memory import PRESETS, FeatureConfig, KnnTextModel, MatchingParams, ModelConfig
from .trainer import Checkpoint, EvalReport, TrainConfig, evaluate, load_checkpoint, run_pipeline, run_setup, save_checkpoint, train
from .config import RunConfig, load_run_config

__version__ = "0.1.0"
