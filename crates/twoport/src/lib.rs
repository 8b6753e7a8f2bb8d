//! # rfkit-net
//!
//! Two-port and N-port microwave network algebra for the rfkit suite:
//!
//! * [`SParams`], [`YParams`], [`ZParams`], [`Abcd`] representations with
//!   all pairwise conversions and connection rules (cascade, parallel,
//!   series);
//! * power gains ([`gains`]) and stability measures ([`stability`]);
//! * classic noise parameters ([`noise`]) and Hillbrand–Russer
//!   noise-correlation matrices ([`correlation`]) for cascading noisy
//!   stages;
//! * N-port S matrices with termination reduction ([`nport`]) — used for
//!   the T splitter;
//! * Touchstone I/O ([`touchstone`]) and swept responses ([`sweep`]).
//!
//! ## Example: gain and noise of a padded amplifier
//!
//! ```
//! use rfkit_net::{Abcd, NoisyAbcd, NoiseParams};
//! use rfkit_num::Complex;
//!
//! // 0.9 dB NF device behind a small series loss:
//! let device = NoisyAbcd::from_noise_params(
//!     Abcd::through(),
//!     &NoiseParams::new(1.23, 8.0, Complex::ZERO, 50.0),
//! );
//! let loss = NoisyAbcd::passive_series(Complex::real(5.0), 290.0);
//! let chain = loss.cascade(&device);
//! let f = chain.noise_params(50.0)?.noise_factor(Complex::ZERO);
//! assert!(f > 1.23); // the resistor in front always costs noise
//! # Ok::<(), rfkit_net::NetworkError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod circles;
pub mod correlation;
pub mod deembed;
pub mod gains;
mod m2;
pub mod noise;
pub mod nport;
mod params;
pub mod stability;
pub mod sweep;
pub mod tabulated;
pub mod touchstone;

pub use correlation::{Chain, NoisyAbcd};
pub use m2::M2;
pub use noise::{CascadeStage, NoiseParams};
pub use nport::{NPort, NPortError};
pub use params::{Abcd, NetworkError, SParams, YParams, ZParams};
pub use sweep::{FrequencyResponse, ResponsePoint};
pub use tabulated::{TabulatedError, TabulatedTwoPort};
