//! Recoverable convolution errors.
//!
//! A malformed request must not abort the process once convolutions are
//! dispatched from a serving engine that handles many independent
//! requests. Every planning/execution path — [`crate::conv1d()`],
//! [`crate::conv2d`], [`crate::conv3d`], [`crate::deconv2d`],
//! [`crate::PreparedConv`] and `iwino-engine` — reports [`ConvError`]
//! instead of panicking; callers that want a panic `unwrap` it themselves.

use iwino_tensor::ConvShape;
use std::fmt;

/// Why a convolution request could not be planned or run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConvError {
    /// A tensor's dimensions disagree with what `shape` implies.
    ShapeMismatch {
        /// Which operand was wrong (`"input"`, `"filter"`, `"dy"` …).
        what: &'static str,
        /// Dims of any rank (4 for 2-D operands, 5 for 3-D).
        got: Vec<usize>,
        want: Vec<usize>,
    },
    /// The algorithm only handles unit strides (§4: Im2col-Winograd is a
    /// unit-stride algorithm) but the shape is strided.
    NonUnitStride {
        algorithm: &'static str,
        sh: usize,
        sw: usize,
    },
    /// No registered algorithm answers to this name (engine dispatch).
    UnknownAlgorithm { name: String },
    /// The named algorithm's `supports` query rejected the shape (engine
    /// dispatch); `supported` lists the registered backends that can run it,
    /// so callers of a forced backend know where to re-route. The shape is
    /// boxed to keep the error (carried through every `Result` in the
    /// planning paths) register-sized.
    UnsupportedShape {
        algorithm: &'static str,
        shape: Box<ConvShape>,
        supported: Vec<&'static str>,
    },
    /// The shape has no output: a zero stride, or a filter larger than the
    /// padded input on some axis. Boxed like `UnsupportedShape`.
    InvalidShape {
        shape: Box<ConvShape>,
        reason: &'static str,
    },
}

impl fmt::Display for ConvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvError::ShapeMismatch { what, got, want } => {
                write!(f, "{what} dims mismatch: got {got:?}, want {want:?}")
            }
            ConvError::NonUnitStride { algorithm, sh, sw } => {
                write!(
                    f,
                    "{algorithm} is a unit-stride algorithm (§4) but stride is {sh}×{sw}; \
                     run strided convolutions through iwino_engine::Engine"
                )
            }
            ConvError::UnknownAlgorithm { name } => write!(f, "no convolution algorithm named {name:?} is registered"),
            ConvError::UnsupportedShape {
                algorithm,
                shape,
                supported,
            } => {
                write!(
                    f,
                    "{algorithm} does not support shape {shape:?}; supported by: {}",
                    if supported.is_empty() {
                        "no registered backend".to_string()
                    } else {
                        supported.join(", ")
                    }
                )
            }
            ConvError::InvalidShape { shape, reason } => write!(f, "invalid convolution shape {shape:?}: {reason}"),
        }
    }
}

impl std::error::Error for ConvError {}

/// The shape yields an output — every stride at least 1 and the filter no
/// larger than the padded input on either axis — or a
/// [`ConvError::InvalidShape`] saying which rule it breaks. Past this
/// check `ConvShape::oh`/`ow` cannot panic.
pub fn check_shape(s: &ConvShape) -> Result<(), ConvError> {
    let reason = if s.sh == 0 || s.sw == 0 {
        "stride must be at least 1"
    } else if s.fh > s.ih + 2 * s.ph {
        "filter taller than padded input"
    } else if s.fw > s.iw + 2 * s.pw {
        "filter wider than padded input"
    } else {
        return Ok(());
    };
    Err(ConvError::InvalidShape {
        shape: Box::new(*s),
        reason,
    })
}

/// `got == want` or a [`ConvError::ShapeMismatch`] naming the operand.
pub fn expect_dims<const D: usize>(what: &'static str, got: [usize; D], want: [usize; D]) -> Result<(), ConvError> {
    if got == want {
        Ok(())
    } else {
        Err(ConvError::ShapeMismatch {
            what,
            got: got.to_vec(),
            want: want.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_operand() {
        let e = expect_dims("input", [1, 2, 3, 4], [1, 2, 3, 5]).unwrap_err();
        let msg = format!("{e}");
        assert!(msg.contains("input"), "{msg}");
        assert!(msg.contains("[1, 2, 3, 4]"), "{msg}");
    }

    #[test]
    fn shapes_without_an_output_are_typed_errors() {
        let ok = ConvShape::square(1, 4, 2, 2, 3);
        assert_eq!(check_shape(&ok), Ok(()));
        let wide = ConvShape { fw: 7, ..ok };
        let tall = ConvShape { fh: 7, ..ok };
        let flat = ConvShape { sw: 0, ..ok };
        for (bad, reason) in [(wide, "wider"), (tall, "taller"), (flat, "stride")] {
            match check_shape(&bad) {
                Err(ConvError::InvalidShape { shape, reason: why }) => {
                    assert_eq!(*shape, bad);
                    assert!(why.contains(reason), "{why}");
                }
                other => panic!("{bad:?} passed the shape check: {other:?}"),
            }
        }
        // Exactly as wide as the padded input: one output column.
        assert_eq!(check_shape(&ConvShape { fw: 6, ..ok }), Ok(()));
    }

    #[test]
    fn matching_dims_pass() {
        assert!(expect_dims("filter", [4, 3, 3, 2], [4, 3, 3, 2]).is_ok());
    }

    #[test]
    fn unsupported_shape_names_capable_backends() {
        let e = ConvError::UnsupportedShape {
            algorithm: "im2col-winograd",
            shape: Box::new(ConvShape {
                sh: 2,
                sw: 2,
                ..ConvShape::square(1, 9, 3, 4, 3)
            }),
            supported: vec!["im2col-indirect"],
        };
        let msg = format!("{e}");
        assert!(msg.starts_with("im2col-winograd does not support"), "{msg}");
        assert!(msg.ends_with("supported by: im2col-indirect"), "{msg}");
    }

    #[test]
    fn non_unit_stride_points_at_the_engine() {
        let e = ConvError::NonUnitStride {
            algorithm: "Im2col-Winograd",
            sh: 2,
            sw: 2,
        };
        assert!(format!("{e}").contains("iwino_engine::Engine"), "{e}");
    }

    #[test]
    fn error_is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(ConvError::UnknownAlgorithm { name: "nope".into() });
        assert!(format!("{e}").contains("nope"));
    }
}
