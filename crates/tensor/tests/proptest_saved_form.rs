//! The explicit saved-activation form against the layers' implicit
//! `forward` + `backward`, and both against the formulas the layers have
//! always computed, bit for bit: a batch split into several forward calls,
//! and a backward group split into segments, accumulate exactly what one
//! whole call does.

use proptest::prelude::*;
use schemoe_tensor::gemm::{gemm, Init, Mat};
use schemoe_tensor::nn::{
    Activation, ActivationKind, FeedForward, Linear, Module, SavedForm, Segment,
};
use schemoe_tensor::ops::{gelu, gelu_grad, relu, relu_grad};
use schemoe_tensor::{rng, Tensor};

type Elementwise = fn(f32) -> f32;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn uniform(dims: &[usize], seed: u64) -> Tensor {
    rng::uniform(dims, 1.0, &mut rng::seeded(seed))
}

/// Every parameter's value and gradient, in visiting order.
fn params(layer: &mut dyn Module) -> Vec<(Tensor, Tensor)> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push((p.value.clone(), p.grad.clone())));
    out
}

/// Gives every gradient a non-zero start, so that a chain resumed from
/// the stored value is told apart from one started at zero.
fn seed_grads(layer: &mut dyn Module, seed: u64) {
    let mut i = 0;
    layer.visit_params(&mut |p| {
        i += 1;
        p.grad = uniform(p.grad.dims(), seed ^ i);
    });
}

/// The parent formulas of `Linear`: `y = b + x · W`; `dW += xᵀ · dy`,
/// `db` = the rows of `dy` summed then added, `dx = dy · Wᵀ`.
fn linear_oracle(p: &mut [(Tensor, Tensor)], x: &Tensor, dy: &Tensor) -> (Tensor, Tensor) {
    let (w, b) = (&p[0].0, &p[1].0);
    let mut y = Tensor::zeros(&[x.dims()[0], w.dims()[1]]);
    gemm(Mat::of(x), Mat::of(w), Init::Row(b.data()), y.data_mut());
    let dx = dy.matmul_t(w).unwrap();
    gemm(Mat::of(x).t(), Mat::of(dy), Init::Out, p[0].1.data_mut());
    p[1].1.add_assign(&dy.sum_rows().unwrap()).unwrap();
    (y, dx)
}

/// One shape's check: `make()` twice (the implicit and the explicit form
/// start identical), the batch cut at `cuts` for the explicit form.
fn check<L: Module + SavedForm>(
    make: impl Fn() -> L,
    (rows, width): (usize, usize),
    cuts: (usize, usize),
    seed: u64,
    oracle: impl Fn(&mut [(Tensor, Tensor)], &Tensor, &Tensor) -> (Tensor, Tensor),
) {
    let (mut implicit, mut explicit) = (make(), make());
    seed_grads(&mut implicit, seed);
    seed_grads(&mut explicit, seed);
    let mut want = params(&mut implicit);
    let x = uniform(&[rows, width], seed ^ 0xA);
    let y_implicit = implicit.forward(&x);
    let out = y_implicit.dims()[1];
    let dy = uniform(&[rows, out], seed ^ 0xB);
    let dx_implicit = implicit.backward(&dy);
    let (y_want, dx_want) = oracle(&mut want, &x, &dy);

    // The explicit form: one forward call per segment, one backward group.
    let (lo, hi) = (
        cuts.0.min(cuts.1) % (rows + 1),
        cuts.0.max(cuts.1) % (rows + 1),
    );
    let (lo, hi) = (lo.min(hi), lo.max(hi));
    let bounds = [0, lo, hi, rows];
    let sw = explicit.saved_width();
    let mut saved = vec![0.0; rows * sw];
    let mut y = vec![0.0; rows * out];
    for r in bounds.windows(2) {
        let xs = Mat::new(&x.data()[r[0] * width..r[1] * width], r[1] - r[0], width);
        let s = &mut saved[r[0] * sw..r[1] * sw];
        explicit.forward_saving(xs, s, &mut y[r[0] * out..r[1] * out]);
    }
    let group: Vec<Segment> = bounds
        .windows(2)
        .map(|r| Segment {
            x: Mat::new(&x.data()[r[0] * width..r[1] * width], r[1] - r[0], width),
            saved: Mat::new(&saved[r[0] * sw..r[1] * sw], r[1] - r[0], sw),
            dy: Mat::new(&dy.data()[r[0] * out..r[1] * out], r[1] - r[0], out),
        })
        .collect();
    let mut dx = vec![0.0; rows * width];
    explicit.backward_from(&group, &mut dx);

    let shape = format!("rows={rows} width={width} cuts={lo},{hi}");
    assert_eq!(
        bits(y_implicit.data()),
        bits(y_want.data()),
        "implicit y {shape}"
    );
    assert_eq!(bits(&y), bits(y_want.data()), "explicit y {shape}");
    assert_eq!(
        bits(dx_implicit.data()),
        bits(dx_want.data()),
        "implicit dx {shape}"
    );
    assert_eq!(bits(&dx), bits(dx_want.data()), "explicit dx {shape}");
    let got = [params(&mut implicit), params(&mut explicit)];
    for (form, got) in ["implicit", "explicit"].iter().zip(got) {
        for (i, ((_, g), (_, w))) in got.iter().zip(&want).enumerate() {
            assert_eq!(bits(g.data()), bits(w.data()), "{form} grad {i} {shape}");
        }
    }
}

proptest! {
    #[test]
    fn linear_saved_form_is_forward_and_backward_bit_for_bit(
        rows in 0usize..=24, width in 1usize..=12, out in 1usize..=20,
        cuts in (0usize..=24, 0usize..=24), seed in 0u64..1 << 32
    ) {
        let make = || Linear::new(width, out, &mut rng::seeded(seed));
        check(make, (rows, width), cuts, seed, linear_oracle);
    }

    #[test]
    fn activation_saved_form_is_forward_and_backward_bit_for_bit(
        rows in 0usize..=24, width in 1usize..=12, use_relu in 0usize..2,
        cuts in (0usize..=24, 0usize..=24), seed in 0u64..1 << 32
    ) {
        let kind = if use_relu == 1 { ActivationKind::Relu } else { ActivationKind::Gelu };
        let (f, grad): (Elementwise, Elementwise) =
            if use_relu == 1 { (relu, relu_grad) } else { (gelu, gelu_grad) };
        let oracle = |_: &mut [(Tensor, Tensor)], x: &Tensor, dy: &Tensor| {
            let y = x.map(f);
            let dx = x.data().iter().zip(dy.data()).map(|(&xv, &d)| grad(xv) * d);
            (y, Tensor::from_vec(dx.collect(), x.dims()).unwrap())
        };
        check(|| Activation::new(kind), (rows, width), cuts, seed, oracle);
    }

    #[test]
    fn feed_forward_saved_form_is_forward_and_backward_bit_for_bit(
        rows in 0usize..=24, width in 1usize..=12, hidden in 1usize..=20,
        cuts in (0usize..=24, 0usize..=24), seed in 0u64..1 << 32
    ) {
        let make = || FeedForward::new(width, hidden, ActivationKind::Gelu, &mut rng::seeded(seed));
        check(make, (rows, width), cuts, seed, feed_forward_oracle(hidden));
    }
}

/// Linear, GELU, Linear, differentiated in reverse.
fn feed_forward_oracle(
    hidden: usize,
) -> impl Fn(&mut [(Tensor, Tensor)], &Tensor, &Tensor) -> (Tensor, Tensor) {
    move |p, x, dy| {
        let (first, second) = p.split_at_mut(2);
        let mut h = Tensor::zeros(&[x.dims()[0], hidden]);
        gemm(
            Mat::of(x),
            Mat::of(&first[0].0),
            Init::Row(first[1].0.data()),
            h.data_mut(),
        );
        let a = h.map(gelu);
        let (y, da) = linear_oracle(second, &a, dy);
        let dh = h
            .data()
            .iter()
            .zip(da.data())
            .map(|(&hv, &d)| gelu_grad(hv) * d);
        let dh = Tensor::from_vec(dh.collect(), h.dims()).unwrap();
        let (_, dx) = linear_oracle(first, x, &dh);
        (y, dx)
    }
}

/// The `moe_wide` expert's shape (M 1024, H 8): both layers take their
/// one-pass backward and the second layer's forward a `k = 8` product,
/// with a row tail in every part of the cut group.
#[test]
fn feed_forward_at_the_moe_wide_shape_is_forward_and_backward_bit_for_bit() {
    let (width, hidden) = (1024, 8);
    for (rows, cuts, seed) in [(131, (45, 98), 1), (64, (0, 33), 2), (9, (9, 9), 3)] {
        let make = || FeedForward::new(width, hidden, ActivationKind::Gelu, &mut rng::seeded(seed));
        check(make, (rows, width), cuts, seed, feed_forward_oracle(hidden));
    }
}
