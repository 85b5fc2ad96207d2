//! From-scratch neural networks for Heimdall.
//!
//! Implements everything the paper's modeling stages need: a dense MLP with
//! minibatch training (§3.5), the feature scalers of the Fig 7d sweep plus
//! LinnOS-style digitization, the ×1024 integer quantization of §4.1 for
//! sub-microsecond deployment inference, and a small Elman RNN for the model
//! exploration study (Fig 8).
//!
//! # Examples
//!
//! ```
//! use heimdall_nn::{Dataset, Mlp, MlpConfig, QuantizedMlp, TrainOpts};
//!
//! let mut data = Dataset::new(2);
//! for i in 0..200 {
//!     let x = i as f32 / 200.0;
//!     data.push(&[x, 1.0 - x], if x > 0.5 { 1.0 } else { 0.0 });
//! }
//! let mut model = Mlp::new(MlpConfig::heimdall(2), 42);
//! model.train(&data, &TrainOpts::default());
//! let deployed = QuantizedMlp::quantize_paper(&model);
//! assert!(deployed.predict(&[0.9, 0.1]) > deployed.predict(&[0.1, 0.9]));
//! ```

pub mod activation;
pub mod batch;
pub mod data;
pub mod mlp;
pub mod quantized;
pub mod rnn;
pub mod scaler;

pub use activation::Activation;
pub use data::Dataset;
pub use mlp::{dot_f32, Mlp, MlpConfig, Optimizer, OutputLayer, TrainOpts, TrainStats};
pub use quantized::{QuantizedMlp, PAPER_SCALE};
pub use rnn::{RnnClassifier, RnnTrainOpts};
pub use scaler::{digitize, ColumnStats, Scaler, ScalerKind};
