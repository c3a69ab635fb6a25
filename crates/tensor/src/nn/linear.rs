//! Fully connected (dense) layer.

use rand::rngs::SmallRng;

use crate::gemm::{gemm, Init, Mat};
use crate::nn::{Module, Param, Saved};
use crate::rng;
use crate::tensor::Tensor;

/// A dense layer computing `y = x · W + b` over rank-2 inputs `[n, in]`.
pub struct Linear {
    w: Param,
    b: Param,
    cache_x: Saved,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SmallRng) -> Self {
        Linear {
            w: Param::new("linear.w", rng::xavier(in_features, out_features, rng)),
            b: Param::new("linear.b", Tensor::zeros(&[out_features])),
            cache_x: Saved::default(),
        }
    }

    /// Creates a layer from explicit weight `[in, out]` and bias `[out]`.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not rank-2 or the bias length differs from
    /// the weight's output dimension.
    pub fn from_parts(w: Tensor, b: Tensor) -> Self {
        assert_eq!(w.rank(), 2, "weight must be rank-2");
        assert_eq!(b.dims(), &[w.dims()[1]], "bias must match output features");
        Linear {
            w: Param::new("linear.w", w),
            b: Param::new("linear.b", b),
            cache_x: Saved::default(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.w.value.dims()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.w.value.dims()[1]
    }

    /// Read-only access to the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.w
    }

    /// Read-only access to the bias parameter.
    pub fn bias(&self) -> &Param {
        &self.b
    }
}

impl Module for Linear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert!(
            x.rank() == 2 && x.dims()[1] == self.in_features(),
            "linear forward: input shape must be [n, in_features]"
        );
        // y = b + x · W: the bias starts each element's reduction chain.
        let mut y = Tensor::zeros(&[x.dims()[0], self.out_features()]);
        gemm(
            Mat::of(x),
            Mat::of(&self.w.value),
            Init::Row(self.b.value.data()),
            y.data_mut(),
        );
        self.cache_x.store(x);
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let out_features = self.out_features();
        let x = self.cache_x.consume("linear");
        assert!(
            dy.rank() == 2 && dy.dims() == [x.dims()[0], out_features],
            "linear backward: dy shape mismatch"
        );
        // dW += x^T · dy, accumulated straight into the gradient;
        // db += sum over rows of dy; dx = dy · W^T.
        gemm(
            Mat::of(x).t(),
            Mat::of(dy),
            Init::Out,
            self.w.grad.data_mut(),
        );
        let db = dy.sum_rows().expect("dy must be rank-2");
        self.b.grad.add_assign(&db).expect("db shape matches b");
        dy.matmul_t(&self.w.value).expect("dx = dy · W^T")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_module_gradients;
    use crate::rng;

    #[test]
    fn forward_matches_manual_computation() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let mut lin = Linear::from_parts(w, b);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = lin.forward(&x);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = rng::seeded(11);
        let mut lin = Linear::new(3, 4, &mut rng);
        let x = rng::uniform(&[5, 3], 1.0, &mut rng);
        check_module_gradients(&mut lin, &x, 2e-2);
    }

    #[test]
    #[should_panic(expected = "without a cached forward")]
    fn backward_without_forward_panics() {
        let mut rng = rng::seeded(1);
        let mut lin = Linear::new(2, 2, &mut rng);
        lin.backward(&Tensor::ones(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "without a cached forward")]
    fn a_backward_consumes_the_saved_input_though_its_storage_stays() {
        let mut lin = Linear::new(2, 2, &mut rng::seeded(1));
        lin.forward(&Tensor::ones(&[1, 2]));
        lin.backward(&Tensor::ones(&[1, 2]));
        lin.backward(&Tensor::ones(&[1, 2]));
    }

    #[test]
    fn repeated_backward_accumulates_grads() {
        let mut rng = rng::seeded(2);
        let mut lin = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        lin.forward(&x);
        lin.backward(&Tensor::ones(&[1, 2]));
        let g1 = lin.weight().grad.clone();
        lin.forward(&x);
        lin.backward(&Tensor::ones(&[1, 2]));
        let g2 = lin.weight().grad.clone();
        assert!(g2.max_abs_diff(&g1.scale(2.0)).unwrap() < 1e-6);
    }
}
