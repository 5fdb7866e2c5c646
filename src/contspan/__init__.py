"""Continual learning for extractive span prediction over domain streams.

Fixed-capacity replay memory with uncertainty-aware eviction, adversarial
domain alignment between memory and current-domain representations, and
logit distillation against the previous-step model, plus the standard
continual-learning baselines and evaluation protocol.
"""

from .autodiff import Tensor, backward, finite_difference_check, seeded_rng, Adam
from .backbone import BackboneModel, ModelConfig, span_loss_batch, decode_answer
from .data import GenConfig, Sample, DomainStream, generate_cdaq_stream, \
    generate_cdac_stream, ingest_jsonl, build_input_sequence
from .engine import ContinualConfig, ContinualEngine, run_stream
from .memory import Memory, MemoryItem, init_memory, update_memory, \
    retention_weights
from .metrics import EvalReport, em_f1, f1_avg, f1_all

__version__ = "0.1.0"
