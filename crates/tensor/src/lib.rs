//! Dense `f32` tensor math and hand-written neural-network layers.
//!
//! This crate is the numerical substrate of ScheMoE-RS. It provides:
//!
//! * [`Tensor`] — a dense, row-major, `f32` n-dimensional array with the
//!   operations MoE training needs (matmul, softmax, layer norm, GELU, ...).
//! * [`gemm`] — the one register-tiled product kernel every matrix product
//!   runs on, with the reduction-order contract bit-identity rests on.
//! * [`nn`] — neural-network modules (linear, embedding, layer norm,
//!   multi-head attention, feed-forward) with *hand-written* backward passes.
//!   There is no autograd tape; every module caches what its backward needs
//!   and the composition order is explicit, which mirrors how the ScheMoE
//!   paper decomposes an MoE layer into schedulable tasks.
//! * [`optim`] — plain SGD and Adam optimizers over [`nn::Param`].
//! * [`grad_check`] — finite-difference gradient checking used by the test
//!   suite to validate every backward implementation.
//!
//! # Examples
//!
//! ```
//! use schemoe_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c.data(), a.data());
//! ```

#![deny(unsafe_code)]

pub mod checkpoint;
pub mod gemm;
pub mod grad_check;
pub mod nn;
pub mod ops;
pub mod optim;
pub mod rng;
pub mod shape;
pub mod snapshot;
pub mod tensor;

pub use shape::Shape;
pub use tensor::{Tensor, TensorError};
