"""Desk-scale contrastive objectives, their exact oracles, and the
mini-batch optimizers that approximate them."""

from .bimodal import (PairedDataset, TwowayOracleResult, load_paired,
                      make_bimodal_state, save_paired, twoway_estimator,
                      twoway_oracle_F, twoway_oracle_value, twoway_step,
                      twoway_update_u)
from .embed_core import (AugmentationFamily, Dataset, DegenerateInputError,
                         MiniBatch, MinibatchSampler, all_views,
                         apply_augmentation, batch_views, cosine_sim,
                         l2_normalize, load_dataset, make_augmentation_family,
                         negative_members, sample_minibatch, save_dataset)
from .encoder import (DegenerateEmbeddingError, EncoderParams, encode,
                      encode_batch, backward_batch, finite_diff_flat,
                      finite_diff_grad, flatten_params, init_encoder,
                      load_encoder, save_encoder, unflatten_params, vjp_sim)
from .harness import (ConfigError, GradcheckReport, MetricsRecord, RunConfig,
                      SweepResult, SweepRow, apply_overrides, emit_metrics,
                      generate_synthetic, generate_synthetic_pairs, gradcheck,
                      load_config, plateau, read_metrics, sweep_batch_size,
                      train, validate_config)
from .objective import (GlobalObjectiveConfig, OracleResult, OracleSizeError,
                        aug_consistency_eps, aug_consistency_eps_mean,
                        g_exact, g_minibatch, global_loss_v1, global_loss_v2,
                        local_loss, oracle_F, oracle_value)
from .optimizers import (NumericError, OptimizerState, StepReport,
                         dcl_surrogate, make_simclr_state, make_sogclr_state,
                         simclr_batch_loss, simclr_estimator, simclr_step,
                         sogclr_estimator, sogclr_step, sogclr_update_u)

__version__ = "0.1.0"
