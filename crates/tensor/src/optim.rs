//! Optimizers: plain SGD and Adam.

use crate::nn::{Module, Param};
use crate::tensor::Tensor;

/// A callback that walks every [`Param`] of a model, used by
/// [`Sgd::step_params`] / [`Adam::step_params`] for models that are not
/// themselves [`Module`]s.
pub type ParamWalker<'a> = dyn FnMut(&mut dyn FnMut(&mut Param)) + 'a;

/// Plain stochastic gradient descent: `w -= lr * g`. It holds no state
/// beyond its learning rate, so a fresh `Sgd` continues any other's
/// trajectory bit-for-bit and restoring training needs the weights alone.
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one update to every parameter of `module`, then zeroes grads.
    pub fn step<M: Module + ?Sized>(&mut self, module: &mut M) {
        self.step_params(&mut |f| module.visit_params(f));
    }

    /// Like [`Self::step`], but over an arbitrary parameter visitor — for
    /// models (whole networks, embeddings) that are not themselves
    /// [`Module`]s.
    pub fn step_params(&mut self, visit: &mut ParamWalker<'_>) {
        let lr = self.lr;
        visit(&mut |p: &mut Param| {
            for (w, g) in p.value.data_mut().iter_mut().zip(p.grad.data()) {
                *w -= lr * g;
            }
            p.zero_grad();
        });
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    clip: Option<f32>,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the standard betas `(0.9, 0.999)`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: None,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Clips each parameter's gradient to the given global-norm bound.
    pub fn with_grad_clip(mut self, max_norm: f32) -> Self {
        self.clip = Some(max_norm);
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one update to every parameter of `module`, then zeroes grads.
    pub fn step<M: Module + ?Sized>(&mut self, module: &mut M) {
        self.step_params(&mut |f| module.visit_params(f));
    }

    /// Like [`Self::step`], but over an arbitrary parameter visitor — for
    /// models (whole networks, embeddings) that are not themselves
    /// [`Module`]s.
    pub fn step_params(&mut self, visit: &mut ParamWalker<'_>) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps, clip) = (self.lr, self.beta1, self.beta2, self.eps, self.clip);
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut idx = 0usize;
        visit(&mut |p: &mut Param| {
            if ms.len() <= idx {
                ms.push(Tensor::zeros(p.value.dims()));
                vs.push(Tensor::zeros(p.value.dims()));
            }
            let scale = clip_scale(&p.grad, clip);
            let m = &mut ms[idx];
            let v = &mut vs[idx];
            for (((mi, vi), g), w) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(p.grad.data().iter())
                .zip(p.value.data_mut().iter_mut())
            {
                let g = g * scale;
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
            p.zero_grad();
            idx += 1;
        });
    }
}

/// Returns the multiplier that rescales a gradient to satisfy a norm bound.
fn clip_scale(grad: &Tensor, clip: Option<f32>) -> f32 {
    match clip {
        Some(max_norm) => {
            let norm = grad.norm();
            if norm > max_norm {
                max_norm / norm
            } else {
                1.0
            }
        }
        None => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Linear, Module, SoftmaxCrossEntropy};
    use crate::rng;

    /// Both optimizers must drive a tiny classification problem to low loss.
    fn train_and_measure(mut stepper: impl FnMut(&mut Linear)) -> f32 {
        let mut rng = rng::seeded(41);
        let mut lin = Linear::new(4, 3, &mut rng);
        let x = rng::uniform(&[12, 4], 1.0, &mut rng);
        // Labels derived from a fixed rule so the problem is learnable.
        let targets: Vec<usize> = (0..12)
            .map(|i| (x.row(i)[0] > 0.0) as usize + (x.row(i)[1] > 0.0) as usize)
            .collect();
        let mut loss = SoftmaxCrossEntropy::new();
        let mut last = f32::MAX;
        for _ in 0..300 {
            let y = lin.forward(&x);
            last = loss.forward(&y, &targets);
            let dy = loss.backward();
            lin.backward(&dy);
            stepper(&mut lin);
        }
        last
    }

    #[test]
    fn sgd_reduces_loss() {
        let mut opt = Sgd::new(0.5);
        let final_loss = train_and_measure(|m| opt.step(m));
        assert!(final_loss < 0.1, "final loss {final_loss}");
    }

    #[test]
    fn adam_reduces_loss() {
        let mut opt = Adam::new(0.1);
        let final_loss = train_and_measure(|m| opt.step(m));
        assert!(final_loss < 0.1, "final loss {final_loss}");
    }

    #[test]
    fn grad_clip_bounds_update_size() {
        // The clip Adam applies: a planted huge gradient is rescaled onto
        // the norm bound, so a unit-rate step with it moves no weight
        // further than the bound.
        let mut rng = rng::seeded(42);
        let mut lin = Linear::new(2, 2, &mut rng);
        lin.visit_params(&mut |p| {
            for g in p.grad.data_mut() {
                *g = 1e6;
            }
            assert_eq!(clip_scale(&p.grad, None), 1.0);
            let clipped = p.grad.scale(clip_scale(&p.grad, Some(1.0)));
            let norm = clipped.norm();
            assert!(norm <= 1.0 + 1e-5, "clipped norm {norm} exceeds the bound");
            let delta = clipped.data().iter().fold(0.0f32, |m, g| m.max(g.abs()));
            assert!(delta <= 1.0 + 1e-5, "update magnitude {delta} exceeds clip");
        });
    }

    #[test]
    fn a_fresh_sgd_continues_a_long_lived_ones_trajectory() {
        // The rejoin scenario: SGD holds nothing but its rate, so a fresh
        // optimizer over shipped weights continues bit-identically.
        let mut rng = rng::seeded(44);
        let mut donor_model = Linear::new(3, 3, &mut rng);
        let mut donor = Sgd::new(0.1);
        let x = rng::uniform(&[4, 3], 1.0, &mut rng);
        for _ in 0..3 {
            let y = donor_model.forward(&x);
            donor_model.backward(&y);
            donor.step(&mut donor_model);
        }

        // Ship the weights alone, as the rejoin protocol does.
        let mut weights = Vec::new();
        donor_model.visit_params(&mut |p| weights.push(p.value.clone()));
        let mut rejoiner_model = Linear::new(3, 3, &mut rng::seeded(45));
        let mut wi = 0;
        rejoiner_model.visit_params(&mut |p| {
            p.value = weights[wi].clone();
            wi += 1;
        });
        let mut rejoiner = Sgd::new(0.1);

        // More steps on each side must agree exactly.
        for (model, opt) in [
            (&mut donor_model, &mut donor),
            (&mut rejoiner_model, &mut rejoiner),
        ] {
            for _ in 0..2 {
                let y = model.forward(&x);
                model.backward(&y);
                opt.step(model);
            }
        }
        let mut donor_after = Vec::new();
        donor_model.visit_params(&mut |p| donor_after.push(p.value.data().to_vec()));
        let mut rejoiner_after = Vec::new();
        rejoiner_model.visit_params(&mut |p| rejoiner_after.push(p.value.data().to_vec()));
        assert_eq!(donor_after, rejoiner_after);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut rng = rng::seeded(43);
        let mut lin = Linear::new(2, 2, &mut rng);
        lin.forward(&Tensor::ones(&[1, 2]));
        lin.backward(&Tensor::ones(&[1, 2]));
        let mut opt = Adam::new(0.01);
        opt.step(&mut lin);
        lin.visit_params(&mut |p| assert!(p.grad.data().iter().all(|&g| g == 0.0)));
    }
}
