//! The two end-to-end passes every workload runs, built exactly as the
//! CLI builds them (`cmd_scan_zone`, `cmd_serve_feed`), and the oracle
//! checks that follow each pass.

use crate::fixture::{self, Expect, FEED_TLDS};
use sham_confusables::UcDatabase;
use sham_core::scan::{ScanConfig, ScanReport, ZoneScanner};
use sham_core::{
    Backpressure, DetectionIndex, FeedError, FeedItem, FeedSource, FlushHook, IngestConfig,
    IngestEvent, IngestReport, IngestService, RetryPolicy, SessionRouter,
};
use sham_glyph::SynthUnifont;
use sham_simchar::{build, BuildConfig, HomoglyphDb};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The CLI's `build_db(4)`.
pub fn build_db() -> HomoglyphDb {
    let font = SynthUnifont::v12();
    let result = build(
        &font,
        &BuildConfig {
            theta: 4,
            ..BuildConfig::default()
        },
    );
    HomoglyphDb::new(result.db, UcDatabase::embedded())
}

/// Set-up as the CLI does it: SimChar θ=4 over the full font, then the
/// shared index over the reference list. Returns the index and seconds.
pub fn setup(refs: &[String]) -> (Arc<DetectionIndex>, f64) {
    let started = Instant::now();
    let db = build_db();
    let index = DetectionIndex::shared(db, refs.iter().cloned());
    (index, started.elapsed().as_secs_f64())
}

/// The zone files of a fixture, in TLD order of `expect.txt`.
pub fn zone_paths(dir: &Path, expect: &Expect) -> Vec<(String, PathBuf)> {
    expect
        .zones
        .iter()
        .map(|z| {
            (
                z.tld.clone(),
                dir.join("zones").join(format!("{}.zone", z.tld)),
            )
        })
        .collect()
}

/// `scan-zone`'s scanner with its default flags.
pub fn scanner(index: &Arc<DetectionIndex>) -> ZoneScanner {
    let router = SessionRouter::new(Arc::clone(index)).with_batch_capacity(1024);
    let config = ScanConfig {
        chunk_bytes: 1 << 20,
        dedup_window: 8_192,
        batch_capacity: 1024,
        ..ScanConfig::default()
    };
    ZoneScanner::new(router, config)
}

/// Outcome of one checked pass.
pub struct Checked {
    /// Operations attempted: zone lines, or registrations.
    pub ops: u64,
    /// Operations that failed (see `check_scan` / `check_feed`).
    pub failed: u64,
    /// Oracle mismatches, empty when the pass is correct.
    pub errors: Vec<String>,
}

/// One `scan-zone` pass over the fixture's zone files. Times
/// `scan_file` start to `finish()` returning.
pub fn scan_pass(
    index: &Arc<DetectionIndex>,
    zones: &[(String, PathBuf)],
) -> io::Result<(ScanReport, Duration)> {
    let mut scanner = scanner(index);
    let started = Instant::now();
    for (tld, path) in zones {
        scanner.scan_file(tld, path)?;
    }
    let report = scanner.finish();
    Ok((report, started.elapsed()))
}

/// Zone oracle, independent of the lexer: the writer's counts, the
/// accounting identity, and the detected ACE set.
/// Failed operations are lines quarantined beyond the planted ones,
/// plus one per mismatched detection or count.
pub fn check_scan(report: &ScanReport, expect: &Expect) -> Checked {
    let mut errors = Vec::new();
    let mut failed = 0u64;
    let mut ops = 0u64;
    if let Err(e) = report.verify_accounting() {
        errors.push(e);
        failed += 1;
    }
    for z in &expect.zones {
        ops += z.lines;
        let Some(s) = report.per_tld.get(&z.tld) else {
            errors.push(format!(".{}: not scanned", z.tld));
            failed += z.lines;
            continue;
        };
        failed += s.quarantined.saturating_sub(z.malformed);
        let lane = report.router.per_tld.iter().find(|l| l.tld == z.tld);
        let (routed, idns) = lane.map_or((0, 0), |l| (l.report.total_domains, l.report.idn_count));
        let got = (
            s.bytes,
            s.lines,
            s.records,
            s.quarantined,
            s.routed,
            routed as u64,
            idns as u64,
        );
        let want = (
            z.bytes,
            z.lines,
            z.records,
            z.malformed,
            z.owners,
            z.owners,
            z.idns,
        );
        if got != want {
            errors.push(format!(
                ".{}: (bytes, lines, records, quarantined, routed, lane domains, lane IDNs) \
                 = {got:?}, fixture wrote {want:?}",
                z.tld
            ));
            failed += 1;
        }
    }
    let mut detected: Vec<&str> = report
        .router
        .detections()
        .map(|d| d.idn_ascii.as_str())
        .collect();
    detected.sort_unstable();
    detected.dedup();
    if detected
        .iter()
        .copied()
        .ne(expect.scan_detections.iter().map(String::as_str))
    {
        let got: std::collections::HashSet<&str> = detected.iter().copied().collect();
        let want: std::collections::HashSet<&str> =
            expect.scan_detections.iter().map(String::as_str).collect();
        let missing: Vec<&&str> = want.difference(&got).take(5).collect();
        let extra: Vec<&&str> = got.difference(&want).take(5).collect();
        let wrong = want.symmetric_difference(&got).count() as u64;
        errors.push(format!(
            "detections: {} found, {} expected; {wrong} differ (missing e.g. {missing:?}, \
             unexpected e.g. {extra:?})",
            got.len(),
            want.len()
        ));
        failed += wrong;
    }
    Checked {
        ops,
        failed,
        errors,
    }
}

/// A `FeedSource` replaying pre-built items, timing each reference
/// churn from the moment it is handed out to the connector's next pull:
/// `submit_churn` returns only once the drainer applied the diff, so
/// that pull marks when the churn took effect.
pub struct ReplayFeed {
    items: std::vec::IntoIter<FeedItem>,
    churn_at: Option<Instant>,
    latencies: Arc<Mutex<Vec<f64>>>,
}

impl ReplayFeed {
    pub fn new(items: Vec<FeedItem>, latencies: Arc<Mutex<Vec<f64>>>) -> ReplayFeed {
        ReplayFeed {
            items: items.into_iter(),
            churn_at: None,
            latencies,
        }
    }
}

impl FeedSource for ReplayFeed {
    fn name(&self) -> &str {
        "replay"
    }

    fn next(&mut self) -> Result<Option<FeedItem>, FeedError> {
        if let Some(at) = self.churn_at.take() {
            let ms = at.elapsed().as_secs_f64() * 1e3;
            self.latencies
                .lock()
                .expect("latency log poisoned")
                .push(ms);
        }
        let item = self.items.next();
        if let Some(FeedItem::Event(IngestEvent::ReferenceChurn { .. })) = item {
            self.churn_at = Some(Instant::now());
        }
        Ok(item)
    }
}

/// `serve-feed`'s service with its default flags (Block backpressure,
/// queue and batch 1024, lanes com/net/org).
pub fn service(index: &Arc<DetectionIndex>, hook: Option<FlushHook>) -> IngestService {
    let config = IngestConfig {
        queue_capacity: 1024,
        batch_capacity: 1024,
        backpressure: Backpressure::Block,
        tlds: Some(FEED_TLDS.iter().map(|t| t.to_string()).collect()),
        retry: RetryPolicy::default(),
        ..IngestConfig::default()
    };
    let service = IngestService::new(Arc::clone(index), config);
    match hook {
        Some(hook) => service.with_flush_hook(hook),
        None => service,
    }
}

/// One `serve-feed` pass. The items are cloned before the clock starts;
/// times `IngestService::run`. Returns the report, its wall time and
/// the churn latencies in ms.
pub fn feed_pass(
    index: &Arc<DetectionIndex>,
    events: &[IngestEvent],
    hook: Option<FlushHook>,
) -> (IngestReport, Duration, Vec<f64>) {
    let items: Vec<FeedItem> = events.iter().cloned().map(FeedItem::Event).collect();
    let latencies = Arc::new(Mutex::new(Vec::new()));
    let feed = ReplayFeed::new(items, Arc::clone(&latencies));
    let service = service(index, hook);
    let started = Instant::now();
    let report = service.run(vec![Box::new(feed)]);
    let elapsed = started.elapsed();
    let latencies = std::mem::take(&mut *latencies.lock().expect("latency log poisoned"));
    (report, elapsed, latencies)
}

/// Feed oracle: every delivered registration accounted, none shed or
/// lost, and the detection report equal to a direct `SessionRouter`
/// replay. Failed operations are registrations shed, lost or
/// unaccounted.
pub fn check_feed(report: &IngestReport, expect: &Expect, churns: usize) -> Checked {
    let mut errors = Vec::new();
    let delivered = report.events_delivered();
    let accounted = report.events_accounted();
    let failed = report.shed + report.lost + delivered.abs_diff(accounted);
    if delivered != expect.registrations || accounted != delivered {
        errors.push(format!(
            "registrations: {delivered} delivered, {accounted} accounted, {} in the fixture",
            expect.registrations
        ));
    }
    if report.shed != 0 || report.lost != 0 {
        errors.push(format!("shed {} lost {}", report.shed, report.lost));
    }
    if churns as u64 != expect.churns {
        errors.push(format!(
            "{churns} churns timed, {} in the fixture",
            expect.churns
        ));
    }
    if fixture::report_digest(&report.router) != expect.feed_digest {
        errors.push("detection report differs from the direct router replay".to_string());
    }
    Checked {
        ops: expect.registrations,
        failed,
        errors,
    }
}

/// The `q`-quantile of `values` (nearest rank), 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
