//! End-to-end batch zone scanning: file on disk → detections, through
//! the full `ZoneScanner` pipeline — a reader thread that cuts recycled
//! buffers at line starts and tracks `$ORIGIN`, one lexer thread per
//! worker running `ZoneStreamParser` over whole chunks, and the in-order
//! merge on the calling thread (seam settling, dedup, router batches,
//! pooled detection).
//!
//! Two fixtures, both written by `sham_workload::write_synthetic_zone`
//! into the temp dir:
//!
//! * an 8 MB zone for the criterion group (interactive, dry-run safe);
//! * a ≥100 MB zone (120 MB) for the perf snapshot — the whole-TLD-dump
//!   scale the pipeline is sized for. Generated (and deleted) only on
//!   real snapshot runs; `--test` dry runs reuse the small fixture.
//!
//! The snapshot section `scan_zone` lands in `BENCH_detection.json`
//! with both rates of record, each timed over its own passes:
//!
//! * `scan_zone_end_to_end/threads_{n}_ops_per_sec` — records/sec;
//! * `scan_zone_mb/threads_{n}_ops_per_sec` — MB/sec: the fixture's
//!   bytes over the median pass time.
//!
//! At `n` threads the scan runs `n` lexer threads; the 1-thread entry
//! still overlaps one lexer thread with the merge.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sham_bench::{measure_ops_per_sec, snapshot_samples, snapshot_thread_sweep};
use sham_core::{DetectionIndex, ScanConfig, SessionRouter, ZoneScanner};
use sham_workload::{reference_list, write_synthetic_zone, ZoneGenConfig, ZoneGenStats};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Detection index over the same reference stems the generator plants
/// lookalikes of, so every pass exercises real detections.
fn shared_index() -> Arc<DetectionIndex> {
    let font = sham_glyph::SynthUnifont::v12();
    let result = sham_simchar::build(
        &font,
        &sham_simchar::BuildConfig {
            repertoire: sham_simchar::Repertoire::Blocks(vec!["Basic Latin", "Cyrillic"]),
            ..sham_simchar::BuildConfig::default()
        },
    );
    DetectionIndex::shared(
        sham_simchar::HomoglyphDb::new(result.db, sham_confusables::UcDatabase::embedded()),
        reference_list(500),
    )
}

/// Writes one fixture zone of `target_bytes` to `path`, streaming.
fn generate(path: &Path, target_bytes: u64) -> ZoneGenStats {
    let cfg = ZoneGenConfig {
        target_bytes,
        homograph_permille: 5,
        malformed_permille: 2,
        seed: 0xBE2C_5CA4,
        ..ZoneGenConfig::default()
    };
    let file = std::fs::File::create(path).expect("create bench fixture");
    let mut out = std::io::BufWriter::new(file);
    write_synthetic_zone(&mut out, &cfg).expect("write bench fixture")
}

/// One full pass: open, scan, detect, close the books.
fn scan_pass(index: &Arc<DetectionIndex>, path: &Path) -> usize {
    let mut scanner = ZoneScanner::new(
        SessionRouter::new(Arc::clone(index)),
        ScanConfig::default(),
    );
    scanner.scan_file("com", path).expect("bench fixture scans");
    let report = scanner.finish();
    report
        .verify_accounting()
        .expect("bench pass must keep the books closed");
    report.detection_count()
}

fn bench_scan_zone(c: &mut Criterion) {
    let dry = criterion::dry_run_mode();
    let dir = std::env::temp_dir();
    let index = shared_index();

    let small_path = dir.join("shamfinder_bench_small.zone");
    let small = generate(&small_path, 8 << 20);

    let mut group = c.benchmark_group("scan_zone");
    group.sample_size(10);
    group.throughput(Throughput::Elements(small.records));
    group.bench_function("scan_8mb_end_to_end", |b| {
        b.iter(|| std::hint::black_box(scan_pass(&index, &small_path)))
    });
    group.finish();

    // The snapshot fixture: the acceptance-scale ≥100 MB dump on real
    // runs; the small one on dry runs (which never write the snapshot).
    let (big_path, big): (PathBuf, ZoneGenStats) = if dry {
        (small_path.clone(), small)
    } else {
        let path = dir.join("shamfinder_bench_120mb.zone");
        let stats = generate(&path, 120 << 20);
        (path, stats)
    };

    snapshot_thread_sweep(
        "scan_zone",
        &["scan_zone_end_to_end", "scan_zone_mb"],
        |name| {
            let (units, per_unit) = match name {
                "scan_zone_end_to_end" => (big.records, 1.0),
                _ => (big.bytes, 1e-6),
            };
            let rate = measure_ops_per_sec(units as usize, snapshot_samples(), || {
                std::hint::black_box(scan_pass(&index, &big_path));
            });
            rate * per_unit
        },
    );

    if !dry {
        let _ = std::fs::remove_file(&big_path);
    }
    let _ = std::fs::remove_file(&small_path);
}

criterion_group!(benches, bench_scan_zone);
criterion_main!(benches);
