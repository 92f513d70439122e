"""Trainable word-classification encoder: config, vocab, network, training,
losses, optimizer, and checkpoint IO."""

from .adam import adam_step, init_adam
from .bundle import Model, new_model
from .checkpoint import MAGIC, load_checkpoint, save_checkpoint
from .config import LOSS_VARIANTS, ModelConfig, TrainConfig
from .network import backward_detailed, classify, encode
from .params import ModelParams, init_params, tensor_shapes
from .tokenizer import TokenizedExample, tokenize_words, window_example
from .training import prepare_examples, token_accuracy, train
from .vocab import (
    PAD_ID,
    SEP_ID,
    UNK_ID,
    build_vocab,
    vocab_from_word_list,
    vocab_from_words,
)
