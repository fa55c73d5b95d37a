//! Histogram micro-costs across geometries: the §4.2 design choices
//! (1-minute bins, 4-hour range) against wider/narrower alternatives,
//! plus the production weighted aggregation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sitw_stats::histogram::WeightedBins;
use sitw_stats::{PercentileCursor, RangeHistogram, Recorded};

fn bench_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram_record");
    for bins in [60usize, 240, 480, 1440] {
        group.bench_with_input(BenchmarkId::from_parameter(bins), &bins, |b, &bins| {
            let mut h = RangeHistogram::new(bins, 1);
            let mut v = 0u64;
            b.iter(|| {
                v = (v + 37) % (bins as u64 + 10);
                black_box(h.record(v))
            })
        });
    }
    group.finish();
}

fn bench_percentiles_and_cv(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram_read");
    for bins in [60usize, 240, 1440] {
        let mut h = RangeHistogram::new(bins, 1);
        for i in 0..10_000u64 {
            h.record((i * 37) % bins as u64);
        }
        group.bench_with_input(BenchmarkId::new("head_tail", bins), &h, |b, h| {
            b.iter(|| black_box((h.head_value(5.0), h.tail_value(99.0))))
        });
        // One policy decision's worth of histogram work on the same
        // stream, as it was (record, then walk for both cutoffs) and as
        // the hybrid policy does it now (record, move two cursors, read).
        group.bench_with_input(BenchmarkId::new("record_walk", bins), &h, |b, h| {
            let mut h = h.clone();
            let mut i = 10_000u64;
            b.iter(|| {
                i += 1;
                h.record((i * 37) % bins as u64);
                black_box((h.head_value(5.0), h.tail_value(99.0)))
            })
        });
        group.bench_with_input(BenchmarkId::new("record_cursor", bins), &h, |b, h| {
            let mut h = h.clone();
            let mut head = PercentileCursor::seek(&h, 5.0);
            let mut tail = PercentileCursor::seek(&h, 99.0);
            let mut i = 10_000u64;
            b.iter(|| {
                i += 1;
                if let Recorded::InBounds { bin } = h.record((i * 37) % bins as u64) {
                    head.on_record(&h, bin);
                    tail.on_record(&h, bin);
                }
                black_box((head.head_value(&h), tail.tail_value(&h)))
            })
        });
        group.bench_with_input(BenchmarkId::new("cv", bins), &h, |b, h| {
            b.iter(|| black_box(h.bin_count_cv()))
        });
    }
    group.finish();
}

fn bench_weighted_aggregation(c: &mut Criterion) {
    // The §6 production scheme: aggregate 14 daily histograms.
    let days: Vec<RangeHistogram> = (0..14)
        .map(|d| {
            let mut h = RangeHistogram::new(240, 1);
            for i in 0..200u64 {
                h.record((i * 7 + d) % 240);
            }
            h
        })
        .collect();
    c.bench_function("weighted_aggregate_14_days", |b| {
        b.iter(|| {
            let mut agg = WeightedBins::new(240, 1);
            for (age, h) in days.iter().rev().enumerate() {
                agg.add_scaled(h, 0.85f64.powi(age as i32));
            }
            black_box((agg.head_value(5.0), agg.tail_value(99.0)))
        })
    });
}

criterion_group!(
    benches,
    bench_record,
    bench_percentiles_and_cv,
    bench_weighted_aggregation
);
criterion_main!(benches);
