//! Component micro-benchmarks for the physical-layer building blocks:
//! QAM-256 modulation of one 784-byte sample and a 1024-point FFT round
//! trip. The solver, mapper, engine and training hot paths are timed by
//! perfbench's per-layer metrics (`perfbench/`), not here.

use criterion::{criterion_group, criterion_main, Criterion};
use metaai_math::fft::{fft, ifft};
use metaai_math::C64;
use metaai_phy::Modulation;
use std::hint::black_box;

fn bench_phy(c: &mut Criterion) {
    let bytes: Vec<u8> = (0..784).map(|i| (i * 37) as u8).collect();
    let bits = metaai_phy::bits::bytes_to_bits(&bytes);
    c.bench_function("phy/modulate_784_bytes_qam256", |b| {
        b.iter(|| black_box(Modulation::Qam256.modulate(&bits).len()))
    });
    let mut buf: Vec<C64> = (0..1024).map(|i| C64::cis(i as f64 * 0.37)).collect();
    c.bench_function("phy/fft_1024", |b| {
        b.iter(|| {
            fft(&mut buf);
            ifft(&mut buf);
            black_box(buf[0])
        })
    });
}

criterion_group! {
    name = components;
    config = Criterion::default().sample_size(20);
    targets = bench_phy
}
criterion_main!(components);
