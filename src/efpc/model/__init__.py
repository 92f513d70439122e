"""Trainable word-classification encoder: config, vocab, network, training,
losses, optimizer, and checkpoint IO."""

from .adam import AdamState, adam_step, init_adam
from .bundle import Model, new_model
from .checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from .config import LOSS_VARIANTS, ModelConfig, TrainConfig
from .losses import ce_grad_logits, ce_rows, loss_agnostic, loss_drop, loss_mask
from .network import backward, backward_detailed, classify, encode, forward_loss
from .params import (
    ModelParams,
    init_params,
    tensor_order,
    tensor_shapes,
    validate_params,
    zeros_like_params,
)
from .tokenizer import TokenizedExample, tokenize_words, window_example
from .training import EpochStats, TrainReport, prepare_examples, token_accuracy, train
from .vocab import (
    PAD_ID,
    SEP_ID,
    UNK_ID,
    Vocab,
    build_vocab,
    vocab_from_word_list,
    vocab_from_words,
)

