"""European option pricing under space-time fractional diffusion."""

from .model import (ModelKind, ModelParams, RiskNeutralParam, ValidationError,
                    mu_gamma_approx, mu_gamma_mb, mu_gamma_series, mu_levy,
                    risk_neutral, validate)
from .numerics import (FracpriceError, NonConvergenceError, NumericsError,
                       green_density, green_scale, normal_cdf,
                       reciprocal_gamma, reference_price)
from .pricing import (OptionKind, ParityError, PricingInputs,
                      SeriesDiagnostics, SeriesDivergenceError, bs_call,
                      dfrac_call_series, price, price_grid, put_from_parity)
from .volatility import (ImpliedVolResult, InversionError, SmilePoint,
                         atm_bs_implied, atm_fbs_implied, build_smile,
                         implied_vol)
from .calibration import (CalibrationError, CalibrationResult, QuoteChain,
                          aggregated_error, calibrate)

__version__ = "0.1.0"
