"""Operator-polynomial residual networks.

A residual module is a polynomial of block operators added to an identity
path. This package provides the symbolic algebra of those polynomials with
Horner-style cascade rewriting, an architecture description language, a
small numpy tensor/autodiff engine that executes lowered module graphs with
explicit parameter sharing, analytic cost reports, a training loop with
residual scaling and stochastic path dropping, and multi-crop evaluation.
"""

from .algebra import (
    BlockId,
    IDENTITY,
    ModuleKind,
    OperatorExpr,
    block_applications,
    cascade,
    drop_paths,
    expand_module,
    expand_symbolic,
    format_expr,
    parse_expr,
    symbolically_equal,
)
from .builder import (
    ConvBlock,
    DenseBlock,
    Model,
    deepen_interleave,
    load_checkpoint,
    lower,
    parse_arch,
    save_checkpoint,
    upgrade,
)
from .cost import count_macs, count_params, efficiency_table, grid_configs
from .data import AugmentConfig, Dataset, augment, synth_dataset
from .dsl import NetworkConfig, StageConfig, parse_network, preset, render_network
from .engine import (
    ParamStore,
    Tensor,
    backward,
    finite_diff_grad,
    forward,
    softmax_cross_entropy,
)
from .evaluation import PoolingConfig, multicrop_eval, topk_error, topk_pool
from .training import (
    OptimizerHP,
    StochasticPathConfig,
    TrainHistory,
    Trainer,
    gate_probabilities,
    lr_at,
    rmsprop_step,
    sample_gates,
    substreams,
    train,
)

__version__ = "0.1.0"
