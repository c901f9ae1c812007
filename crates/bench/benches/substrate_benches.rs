//! Criterion benches for the tensor / nn substrates: the kernels every
//! experiment spends its time in (matmul, the two convolution paths, and a full
//! forward/backward pass of the scaled MNIST model).

use criterion::{criterion_group, criterion_main, Criterion};
use dnnip_nn::loss::cross_entropy;
use dnnip_nn::zoo;
use dnnip_tensor::conv::{conv2d_forward, conv2d_forward_im2col, Conv2dGeometry};
use dnnip_tensor::{ops, Tensor};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let a = Tensor::from_fn(&[64, 64], |i| (i as f32 * 0.37).sin());
    let b = Tensor::from_fn(&[64, 64], |i| (i as f32 * 0.11).cos());
    c.bench_function("matmul_64x64", |bench| {
        bench.iter(|| ops::matmul(black_box(&a), black_box(&b)).unwrap())
    });
}

fn bench_conv_direct_vs_im2col(c: &mut Criterion) {
    // Ablation: the two convolution formulations on a CIFAR-scaled layer shape.
    let input = Tensor::from_fn(&[1, 16, 16, 16], |i| (i as f32 * 0.017).sin());
    let weight = Tensor::from_fn(&[16, 16, 3, 3], |i| (i as f32 * 0.031).cos() * 0.1);
    let bias = Tensor::zeros(&[16]);
    let geom = Conv2dGeometry::square(3, 1, 1);
    let mut group = c.benchmark_group("conv2d_16ch_16x16");
    group.bench_function("direct", |bench| {
        bench.iter(|| conv2d_forward(black_box(&input), &weight, &bias, geom).unwrap())
    });
    group.bench_function("im2col", |bench| {
        bench.iter(|| conv2d_forward_im2col(black_box(&input), &weight, &bias, geom).unwrap())
    });
    group.finish();

    // A stacked batch of 8: one im2col block and matmul per sample.
    let batched_input = Tensor::from_fn(&[8, 16, 16, 16], |i| (i as f32 * 0.017).sin());
    let mut batch_group = c.benchmark_group("conv2d_16ch_16x16_batch8");
    batch_group.bench_function("im2col_per_sample", |bench| {
        bench.iter(|| {
            conv2d_forward_im2col(black_box(&batched_input), &weight, &bias, geom).unwrap()
        })
    });
    batch_group.finish();
}

fn bench_model_forward_backward(c: &mut Criterion) {
    let net = zoo::mnist_model_scaled(3).unwrap();
    let sample = Tensor::from_fn(&[1, 16, 16], |i| (i as f32 * 0.013).sin().abs());
    let batch = net.batch_one(&sample).unwrap();
    c.bench_function("mnist_scaled_forward", |bench| {
        bench.iter(|| net.forward(black_box(&batch)).unwrap())
    });
    c.bench_function("mnist_scaled_forward_backward", |bench| {
        bench.iter(|| {
            let pass = net.forward_cached(black_box(&batch)).unwrap();
            let loss = cross_entropy(&pass.output, &[3]).unwrap();
            net.backward(&pass, &loss.grad_logits).unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_conv_direct_vs_im2col, bench_model_forward_backward
}
criterion_main!(benches);
