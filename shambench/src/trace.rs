//! The traced run: each layer replayed through its public entry point
//! over the workload's inputs, with spans around every call.
//!
//! Spans (name, start, end, parent, run id) are kept in memory and
//! written as JSON lines when the run ends. Timings are per chunk or
//! per batch, never per line. Self times that the metrics name are
//! differences of separate replays (for instance `scan.self_s` is the
//! in-memory scan minus the lexer replay minus the router replay); a
//! span's own self time (its duration minus the part its children
//! cover) is written with the spans.

use crate::alloc::Counter;
use crate::fixture::{self, Expect, FEED_TLDS};
use crate::phases::{self, Checked};
use sham_core::{DetectionIndex, FlushHook, IngestEvent, SessionRouter};
use sham_dns::zone::{ZoneScan, ZoneStreamParser};
use sham_punycode::DomainName;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span recorder.
pub struct Tracer {
    run: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run: u64) -> Tracer {
        Tracer {
            run,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span; returns its result and the span's seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.now();
        self.spans[id].end = end;
        (out, end - start)
    }

    /// Each span's duration minus the part of it its children cover.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    pub fn write(&self, path: &Path) -> io::Result<()> {
        let own = self.self_times();
        let mut text = String::new();
        let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_s\":{:.9},\"end_s\":{:.9},\"self_s\":{:.9}}}",
                self.run, s.name, s.start, s.end, own[id]
            );
            *by_name.entry(s.name).or_default() += own[id];
        }
        for (name, secs) in by_name {
            let _ = writeln!(
                text,
                "{{\"run\":{},\"self_total\":\"{name}\",\"self_s\":{secs:.9}}}",
                self.run
            );
        }
        std::fs::write(path, text)
    }
}

/// Metric name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Interleaved rounds of the scan-side replays.
const ROUNDS: usize = 3;

/// A fixed integer loop: the box's calibration speed in Mops/s.
pub fn calibration() -> f64 {
    const OPS: u64 = 50_000_000;
    let started = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    OPS as f64 / started.elapsed().as_secs_f64() / 1e6
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Newline split + UTF-8 check: the same-box floor.
pub fn frame(zones: &[(String, Vec<u8>)]) -> u64 {
    let mut lines = 0u64;
    for (_, bytes) in zones {
        for line in bytes.split(|&b| b == b'\n') {
            if std::str::from_utf8(line).is_ok() {
                lines += 1;
            }
        }
    }
    black_box(lines)
}

pub fn read_zones(paths: &[(String, std::path::PathBuf)]) -> io::Result<Vec<(String, Vec<u8>)>> {
    paths
        .iter()
        .map(|(tld, p)| Ok((tld.clone(), std::fs::read(p)?)))
        .collect()
}

#[derive(Default)]
struct LexCounts {
    lines: u64,
    records: u64,
    quarantined: u64,
    new_owners: u64,
}

/// `ZoneStreamParser::scan_line` over every line, one span per ~1 MiB
/// chunk of lines.
fn lex(tracer: &mut Tracer, zones: &[(String, Vec<u8>)]) -> LexCounts {
    let mut c = LexCounts::default();
    for (tld, bytes) in zones {
        let mut parser = ZoneStreamParser::new(tld);
        let mut rest: &[u8] = bytes;
        while !rest.is_empty() {
            let cut = (1usize << 20).min(rest.len());
            let end = rest[cut..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(rest.len(), |p| cut + p + 1);
            let (chunk, tail) = rest.split_at(end);
            rest = tail;
            tracer.span("dns.lex_chunk", |_| {
                let body = chunk.strip_suffix(b"\n").unwrap_or(chunk);
                for raw in body.split(|&b| b == b'\n') {
                    c.lines += 1;
                    let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
                    let Ok(text) = std::str::from_utf8(raw) else {
                        c.quarantined += 1;
                        let _ = parser.scan_line("");
                        continue;
                    };
                    match parser.scan_line(text) {
                        Ok(ZoneScan::Record { new_owner, .. }) => {
                            c.records += 1;
                            c.new_owners += new_owner as u64;
                        }
                        Ok(ZoneScan::Skip) => {}
                        Err(_) => c.quarantined += 1,
                    }
                }
            });
        }
    }
    c
}

/// `SessionRouter::push_domains` in batches of 1,024 plus `flush`, one
/// span per batch. Returns detections and batch count.
fn route(
    tracer: &mut Tracer,
    index: &Arc<DetectionIndex>,
    names: &[DomainName],
    span: &'static str,
) -> (usize, usize) {
    let mut router = SessionRouter::new(Arc::clone(index)).with_batch_capacity(1024);
    let mut batches = 0;
    for batch in names.chunks(1024) {
        tracer.span(span, |_| router.push_domains(batch));
        batches += 1;
    }
    tracer.span(span, |_| router.flush());
    (router.into_report().detection_count(), batches)
}

/// The direct replay the ingest service must equal: the same events
/// through a `SessionRouter` configured as the drainer's, on the
/// calling thread, with no queues.
fn replay_feed(index: &Arc<DetectionIndex>, events: &[IngestEvent]) -> u64 {
    let mut router = SessionRouter::new(Arc::clone(index))
        .with_tlds(FEED_TLDS)
        .with_batch_capacity(1024);
    let mut run: Vec<DomainName> = Vec::new();
    for event in events {
        match event {
            IngestEvent::Registered(d) => run.push(d.clone()),
            IngestEvent::ReferenceChurn { added, removed } => {
                router.push_domains(&run);
                run.clear();
                router.apply_reference_diff(added, removed);
            }
        }
    }
    router.push_domains(&run);
    fixture::report_digest(&router.into_report())
}

/// Replays every layer (the scan-side ones in [`ROUNDS`] interleaved
/// rounds); returns the per-layer metrics and the oracle outcomes of
/// every traced scan and feed pass.
pub fn run(
    tracer: &mut Tracer,
    refs: &[String],
    dir: &Path,
    expect: &Expect,
    events: &[IngestEvent],
) -> io::Result<(Vec<Metric>, Vec<Checked>)> {
    let mut m: Vec<Metric> = Vec::new();

    // index: build as set-up does, then mount a v3 snapshot written now.
    let ((index, _), build_s) = tracer.span("index.build", |_| phases::setup(refs));
    let mut snapshot = Vec::new();
    index.write_snapshot(&mut snapshot)?;
    let mut mounts = Vec::new();
    for _ in 0..3 {
        let (mounted, secs) = tracer.span("index.mount", |_| {
            DetectionIndex::from_snapshot_bytes(
                &snapshot,
                index.db().simchar_shared(),
                index.db().uc_shared(),
            )
        });
        if mounted?.reference_count() != index.reference_count() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "mounted index lost references",
            ));
        }
        mounts.push(secs);
    }
    drop(snapshot);
    m.push(("index.build_s", build_s, "s"));
    m.push(("index.mount_s", median(mounts), "s"));

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.push(("machine.nproc", nproc as f64, "count"));
    m.push((
        "machine.threads",
        rayon::current_num_threads() as f64,
        "count",
    ));
    m.push((
        "machine.calib_mops",
        median((0..3).map(|_| calibration()).collect()),
        "Mops/s",
    ));

    let paths = phases::zone_paths(dir, expect);
    let zones = read_zones(&paths)?;
    let bytes: u64 = zones.iter().map(|(_, b)| b.len() as u64).sum();
    let mb = bytes as f64 / 1e6;

    // frame: the floor, median of three.
    let floors: Vec<f64> = (0..3)
        .map(|_| tracer.span("frame", |_| frame(&zones)).1)
        .collect();
    m.push(("frame.floor_mb_per_s", mb / median(floors), "MB/s"));

    // The routed owners, from the fixture (not the lexer), in scan
    // order: zone by zone, each in file order.
    let mut owners: Vec<DomainName> = Vec::new();
    for (tld, _) in &paths {
        owners.extend(events.iter().filter_map(|e| match e {
            IngestEvent::Registered(d) if d.tld() == tld => Some(d.clone()),
            _ => None,
        }));
    }
    let idns: Vec<DomainName> = owners.iter().filter(|d| d.is_idn()).cloned().collect();

    // The terms of `scan.self_s` and `scan.io_s` are measured in
    // interleaved rounds and reduced to medians, so that drift of the
    // box between them does not land in the differences. Counts come
    // from the first round.
    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut checks = Vec::new();
    let mut first = None;
    for round in 0..ROUNDS {
        // dns: the lexer alone.
        let counter = Counter::start();
        let (lexed, lex_s) = tracer.span("dns.lex", |t| lex(t, &zones));
        let lex_allocs = counter.stop();
        // scan from memory, then the end-to-end pass from the files.
        let counter = Counter::start();
        let (mem_report, mem_s) = tracer.span("scan.reader", |_| {
            let mut scanner = phases::scanner(&index);
            for (tld, data) in &zones {
                scanner.scan_reader(tld, &data[..])?;
            }
            Ok::<_, io::Error>(scanner.finish())
        });
        let scan_allocs = counter.stop();
        checks.push(phases::check_scan(&mem_report?, expect));
        let before = sham_core::pool_stats();
        let (file_pass, file_s) = tracer.span("scan.file", |_| phases::scan_pass(&index, &paths));
        let after = sham_core::pool_stats();
        let (file_report, _) = file_pass?;
        checks.push(phases::check_scan(&file_report, expect));
        // router: every routed owner; session: the IDN owners alone.
        let ((_, batches), push_s) =
            tracer.span("router", |t| route(t, &index, &owners, "router.batch"));
        let ((detections, _), detect_s) =
            tracer.span("session", |t| route(t, &index, &idns, "session.batch"));
        let (_, decode_s) = tracer.span("punycode.decode", |_| {
            for d in &idns {
                black_box(d.unicode_without_tld());
            }
        });
        for (name, secs) in [
            ("lex", lex_s),
            ("mem", mem_s),
            ("file", file_s),
            ("push", push_s),
            ("detect", detect_s),
            ("decode", decode_s),
        ] {
            times.entry(name).or_default().push(secs);
        }
        if round == 0 {
            let totals = file_report.totals();
            let exec = file_report.router.exec();
            first = Some((
                lexed,
                lex_allocs,
                scan_allocs,
                before,
                after,
                totals,
                exec,
                batches,
                detections,
            ));
        }
    }
    drop(zones);
    drop(owners);
    let (lexed, lex_allocs, scan_allocs, before, after, totals, exec, batches, detections) =
        first.expect("at least one round");
    let t = |name: &str| median(times[name].clone());
    let (lex_s, mem_s, file_s, push_s, detect_s) =
        (t("lex"), t("mem"), t("file"), t("push"), t("detect"));

    m.push(("dns.lex_s", lex_s, "s"));
    m.push(("dns.lex_mb_per_s", mb / lex_s, "MB/s"));
    m.push(("dns.records", lexed.records as f64, "count"));
    m.push(("dns.quarantined", lexed.quarantined as f64, "count"));
    m.push(("dns.new_owners", lexed.new_owners as f64, "count"));
    m.push((
        "dns.allocs_per_line",
        lex_allocs as f64 / lexed.lines.max(1) as f64,
        "allocs/line",
    ));
    m.push(("scan.self_s", mem_s - lex_s - push_s, "s"));
    m.push(("scan.io_s", file_s - mem_s, "s"));
    m.push((
        "scan.dedup_ratio",
        totals.deduped() as f64 / totals.records.max(1) as f64,
        "ratio",
    ));
    m.push(("scan.routed", totals.routed as f64, "count"));
    m.push((
        "scan.allocs_per_record",
        scan_allocs as f64 / totals.records.max(1) as f64,
        "allocs/record",
    ));
    m.push(("traced.scan_mb_per_s", mb / file_s, "MB/s"));
    m.push(("router.push_s", push_s, "s"));
    m.push(("router.batches", batches as f64, "count"));
    m.push((
        "router.idn_share",
        idns.len() as f64 / totals.routed.max(1) as f64,
        "ratio",
    ));
    m.push(("session.detect_s", detect_s, "s"));
    m.push(("session.idns_per_s", idns.len() as f64 / detect_s, "1/s"));
    m.push(("session.detections", detections as f64, "count"));
    m.push((
        "session.detection_yield",
        detections as f64 / idns.len().max(1) as f64,
        "ratio",
    ));
    m.push(("punycode.decode_s", t("decode"), "s"));
    m.push((
        "pool.jobs_executed",
        (after.jobs_executed - before.jobs_executed) as f64,
        "count",
    ));
    m.push((
        "pool.busy_ms",
        (after.busy_nanos - before.busy_nanos) as f64 / 1e6,
        "ms",
    ));
    m.push((
        "pool.parked_ms",
        (after.parked_nanos - before.parked_nanos) as f64 / 1e6,
        "ms",
    ));
    m.push((
        "exec.inline_share",
        exec.inline_batches as f64 / exec.batches.max(1) as f64,
        "ratio",
    ));
    drop(idns);

    // ingest: the service with a counting flush hook, then the direct
    // router replay of the same events.
    let flushes = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&flushes);
    let hook: FlushHook = Arc::new(move |_tld: &str, _ordinal: u64| {
        counted.fetch_add(1, Ordering::Relaxed);
    });
    // Tell the parent a feed pass starts: its watchdog covers the hang.
    crate::emit(&[
        ("event", crate::json_str("start")),
        ("phase", crate::json_str("feed")),
        ("ops", expect.registrations.to_string()),
    ]);
    let ((report, _, latencies), run_s) = tracer.span("ingest.run", |_| {
        phases::feed_pass(&index, events, Some(hook))
    });
    crate::emit(&[("event", crate::json_str("fed"))]);
    checks.push(phases::check_feed(&report, expect, latencies.len()));
    let (digest, replay_s) = tracer.span("ingest.replay", |_| replay_feed(&index, events));
    if digest != expect.feed_digest {
        checks.push(Checked {
            ops: 0,
            failed: 0,
            errors: vec!["direct router replay differs from the fixture's expectation".into()],
        });
    }
    let flushes = flushes.load(Ordering::Relaxed);
    let routed: u64 = report.lanes.iter().map(|l| l.routed).sum();
    m.push(("ingest.run_s", run_s, "s"));
    m.push(("ingest.self_s", run_s - replay_s, "s"));
    m.push(("ingest.flushes", flushes as f64, "count"));
    m.push((
        "ingest.mean_flush",
        routed as f64 / flushes.max(1) as f64,
        "names/flush",
    ));
    m.push((
        "ingest.blocked",
        report.lanes.iter().map(|l| l.blocked).sum::<u64>() as f64,
        "count",
    ));
    m.push((
        "ingest.churn_apply_ms_p50",
        phases::quantile(&latencies, 0.50),
        "ms",
    ));
    m.push((
        "ingest.churn_apply_ms_p95",
        phases::quantile(&latencies, 0.95),
        "ms",
    ));
    m.push((
        "traced.feed_events_per_s",
        report.events_delivered() as f64 / run_s,
        "events/s",
    ));
    Ok((m, checks))
}
