"""Tensor-based Bayesian joint activity detection and channel estimation
for LEO-satellite grant-free random access."""

from .baselines import AmpConfig, SompConfig, amp_mmv, somp
from .channel import (ChannelRealization, DeviceGeometry, LinkBudget,
                      antenna_gain, device_state_matrix, draw_channels,
                      large_scale_gain, sample_device_geometry, sample_rain_db)
from .config import ScenarioConfig, SweepSpec, load_config, make_sweep, parse_config
from .detection import detect, error_probability, nmse, nmse_active
from .harness import TrialRecord, aggregate, run_sweep, run_trial, write_outputs
from .signals import (assemble_preamble_matrix, gen_preambles, snr_to_noise_variance,
                      synthesize_received)
from .specfun import SignedLogValue, hyp1f1, ln_gamma_signed
from .tensors import FactorMatrices, khatri_rao
from .vbi import (EngineConfig, EngineResult, PosteriorState, expected_residual,
                  init_posterior, inverse_mean_moments, precompute_gram, run,
                  update_qX, update_qbeta, update_qmu, update_qv, woodbury_pays)

__version__ = "0.1.0"
