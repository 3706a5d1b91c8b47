"""Goal-oriented semantic communication pipeline for image foreground
classification: attention-based masking, compact latent coding with palette
refinement, bit-exact framing, channel simulation, and metrics."""

from .autodiff import Parameter, Tensor
from .channel import CODECS, ChannelConfig, inject_bsc, measure_ber, transmit_awgn
from .classifier import ClassifierConfig, ClassifierModel, classify, finetune
from .distill import DistillConfig, MaskingNetwork, distill_loss, make_views
from .errors import (
    CorruptFrameError,
    DatasetFormatError,
    UndefinedMetricError,
    UnsupportedFormatError,
)
from .framing import frame_size_bits, parse_frame, serialize_frame
from .masking import SemanticMask, apply_mask, build_semantic_mask, cls_attention_maps
from .metrics import masked_psnr
from .pipeline import PipelineModels, RefineParams, receive, run_end_to_end, sweep, transmit
from .ssae import SSAE, SSAEConfig, apply_refinement, kmeans_palette, plan_refinement, quantize
from .vit import ViTConfig, patchify, vit_forward

__version__ = "0.1.0"
