//! Criterion benches of the domain models: ΣΔ conversions, filament
//! mutual-inductance sums, ASK/LSK processing, and the envelope-level
//! system session.

use biosensor::{Enzyme, MetaboliteSensor, SigmaDeltaAdc};
use coils::mutual::CoilPair;
use comms::ask::{AskDemodulator, AskModulator};
use comms::bits::BitStream;
use criterion::{criterion_group, criterion_main, Criterion};
use implant_core::system::ImplantSystem;
use link::budget::PowerBudget;
use std::hint::black_box;

fn bench_adc(c: &mut Criterion) {
    let adc = SigmaDeltaAdc::ironic();
    c.bench_function("sigma_delta_14bit_conversion", |b| {
        b.iter(|| black_box(adc.convert_current(black_box(2.0e-6))));
    });
    let sensor = MetaboliteSensor::lactate(Enzyme::clodx());
    c.bench_function("full_sensor_measurement", |b| {
        b.iter(|| black_box(sensor.measure(black_box(1.0))));
    });
}

fn bench_coils(c: &mut Criterion) {
    c.bench_function("coil_pair_mutual_at_6mm", |b| {
        let pair = CoilPair::ironic();
        b.iter(|| black_box(pair.mutual_at(black_box(6.0e-3))));
    });
    c.bench_function("misaligned_mutual_line_integral", |b| {
        let pair = CoilPair::ironic();
        b.iter(|| black_box(pair.mutual_misaligned(6.0e-3, 5.0e-3)));
    });
    c.bench_function("power_budget_distance_sweep_50", |b| {
        let budget = PowerBudget::ironic_air();
        b.iter(|| black_box(budget.distance_sweep(2.0e-3, 30.0e-3, 50)));
    });
}

fn bench_comms(c: &mut Criterion) {
    let bits = BitStream::prbs9(1024, 0x1B7);
    let tx = AskModulator::ironic_downlink();
    let rx = AskDemodulator::ironic_downlink();
    c.bench_function("ask_modulate_1024_bits", |b| {
        b.iter(|| black_box(tx.envelope(black_box(&bits), 0.0)));
    });
    c.bench_function("ask_demodulate_1024_bits", |b| {
        let env = tx.envelope(&bits, 0.0);
        b.iter(|| black_box(rx.demodulate_envelope(&env, bits.len())));
    });
    c.bench_function("frame_encode_decode", |b| {
        let frame = comms::Frame::new(&[0x42; 16]).expect("fits");
        b.iter(|| {
            let encoded = frame.encode();
            black_box(comms::Frame::decode(&encoded).expect("round-trips"))
        });
    });
}

fn bench_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("system");
    group.sample_size(10);
    group.bench_function("envelope_level_measurement_session", |b| {
        b.iter(|| {
            let mut sys = ImplantSystem::ironic();
            black_box(sys.measurement_session(black_box(1.0)))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_adc, bench_coils, bench_comms, bench_system);
criterion_main!(benches);
