"""Inference-time diversity guidance for masked diffusion language models.

The package couples a reverse-unmasking generation engine with two
per-step logit interventions: a sequential orthogonal-repulsion guidance
whose outputs are batch-size invariant, and a joint determinantal
baseline. Toy denoisers, a binary logits-trace replay path, and an
evaluation harness (pass@k, diversity, invariance, overhead) round out
the library.
"""

from .dpp import build_l_ensemble, dpp_grad_logits, dpp_loss, dpp_step
from .engine import (
    GenerationConfig,
    GenerationRun,
    denoise_step,
    generate_batch,
    make_guidance_hook,
    run_generation,
    sample_tokens,
)
from .errors import (
    ContractError,
    DegenerateInputError,
    DivDiffError,
    FactorizationError,
    InvalidInputError,
    NumericalError,
    TraceFormatError,
)
from .features import (
    FeatureSet,
    UnifiedDistribution,
    backprop_to_logits,
    extract_features,
    feature_set,
    quality_scores,
    unified_distribution,
)
from .harness import (
    GridSpec,
    RunReport,
    grid_run,
    invariance_check,
    overhead_profile,
    pairwise_diversity,
    pass_at_k,
    run_single,
)
from .linalg import cholesky_logdet, softmax_rows, softmax_vjp, spd_inverse
from .models import (
    BigramDenoiser,
    PlantedDenoiser,
    PlantedTask,
    bigram_train,
    check_answer,
    default_problem,
    default_prompt,
    default_task,
)
from .odd import anneal_alpha, odd_losses, odd_step, project_onto_basis
from .state import MaskState, Schedule, build_schedule, mask_token
from .streams import sample_stream, stream_uniforms
from .trace import ReplayDenoiser, trace_read, trace_write

__version__ = "0.1.0"
