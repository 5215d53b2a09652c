//! GB-scale batch zone scanning: file → detections, overlapped I/O.
//!
//! This is the whole-`.com`-zone workload of the paper's §5 as one
//! streaming pipeline (the QUIC-Lab `domain_extractor` shape):
//!
//! ```text
//!  reader thread          calling thread
//!  ┌───────────┐  full   ┌────────────────────────────────────────────┐
//!  │ chunked   │ ──────▶ │ byte-level line split (SWAR newline)       │
//!  │ File reads│  chunks │   └▶ ZoneStreamParser::scan_line           │
//!  │ recycled  │ ◀────── │       (ASCII byte lexer; Unicode fallback) │
//!  │ buffers   │  free   │       └▶ dedup (consecutive + window)      │
//!  └───────────┘  buffers│           └▶ blacklist suffix filter       │
//!                        │               └▶ IDN prefilter             │
//!                        │                   ├ xn-- owner: clone once │
//!                        │                   │  into its router lane  │
//!                        │                   └ other owner: counted   │
//!                        │                      (count_non_idn)       │
//!                        └────────────────────────────────────────────┘
//! ```
//!
//! * **Overlapped I/O** — a reader thread fills large recycled buffers
//!   and hands them over a bounded channel, so disk reads overlap
//!   parsing/detection and the parser never waits on a warm file
//!   (double-buffered: while one chunk is being scanned the next is
//!   being read).
//! * **Allocation-free lexing** — lines are split with a word-at-a-time
//!   newline scan over the chunk bytes and fed to
//!   [`ZoneStreamParser::scan_line`]. An all-ASCII line (every line of
//!   a real zone dump) is tokenised on its bytes; a line with any other
//!   byte falls back to `split_whitespace`, so Unicode whitespace
//!   separates fields exactly as before. A new owner is resolved into
//!   the parser's retained name buffer and NS/CNAME/MX targets are
//!   validated into a reused slot, so once those buffers are warm a
//!   well-formed ASCII line allocates nothing (pinned by
//!   `crates/dns/tests/zone_alloc.rs`). Owners come back *borrowed*.
//! * **Pre-detection dedup** — zone dumps repeat each owner once per
//!   record (NS runs, glue); the scanner drops consecutive repeats for
//!   free (the parser's owner cache flags them) and catches
//!   out-of-order repeats with a bounded hash window.
//! * **IDN prefilter** — only an owner with an `xn--` label can be a
//!   homograph (the paper's Step 2), and in a `.com` dump that is about
//!   one owner in 200. An IDN owner that survives dedup and the
//!   blacklist is cloned exactly once, into its TLD's router lane
//!   batch. Every other owner is only counted:
//!   [`SessionRouter::count_non_idn`] opens the owner's own TLD lane
//!   (or counts it unrouted under a fixed lane set), adds it to the
//!   lane's domain total and advances the lane's flush trigger — the
//!   same books, and the same detection batches, a push of every owner
//!   would give. Nothing is allocated per non-IDN owner.
//! * **Accounting invariant** — every parsed line is accounted for:
//!   `records + quarantined == routed + deduped + blacklisted +
//!   quarantined` per TLD ([`TldScanStats::is_accounted`]); the CLI and
//!   tests close the books on it. `routed` counts every owner entered
//!   into the router's books, IDN or not, so summed over all files it
//!   still equals the router's `total_domains()` and the identity needs
//!   no separate term for the counted-only owners.
//!
//! Lane batches flush at the router's configured batch capacity
//! ([`SessionRouter::with_batch_capacity`]), counted in owners routed
//! to the lane, IDN or not — so detection batches are the ones a push
//! of every owner would cut.

use crate::router::{RouterReport, SessionRouter};
use sham_dns::zone::{ZoneScan, ZoneStreamParser};
use sham_punycode::DomainName;
use sham_web::Blacklist;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::{self, Read};
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

/// Tuning knobs for [`ZoneScanner`]. `Default` is sized for multi-GB
/// files on spinning or networked storage.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Bytes per read chunk (default 1 MiB; floored at 4 KiB).
    pub chunk_bytes: usize,
    /// Bounded-channel depth between reader and parser (default 4;
    /// floored at 2 so the pipeline is at least double-buffered).
    pub channel_depth: usize,
    /// Out-of-order dedup window: how many recent owner hashes are
    /// remembered (default 8192; 0 disables the window — consecutive
    /// dedup still applies).
    pub dedup_window: usize,
    /// Not read by the scanner: it keeps no batch of its own (IDN
    /// owners go straight into their router lane, every other owner is
    /// only counted), so lane batching is the router's
    /// [`with_batch_capacity`](SessionRouter::with_batch_capacity).
    /// Kept so existing `ScanConfig` literals still compile.
    pub batch_capacity: usize,
    /// Cap on quarantined-line samples kept for the report.
    pub quarantine_samples: usize,
    /// Suffix blacklists applied before detection; a domain matching
    /// any feed is counted and dropped.
    pub blacklists: Vec<Blacklist>,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            chunk_bytes: 1 << 20,
            channel_depth: 4,
            dedup_window: 8_192,
            batch_capacity: crate::router::DEFAULT_ROUTER_BATCH,
            quarantine_samples: 8,
            blacklists: Vec::new(),
        }
    }
}

/// Per-TLD accounting for one scan run. Every counter is in *lines*
/// except `bytes`; `records` are well-formed record lines only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TldScanStats {
    /// Bytes consumed from this TLD's files.
    pub bytes: u64,
    /// Raw lines seen (blank/comment/directive lines included).
    pub lines: u64,
    /// Well-formed record lines.
    pub records: u64,
    /// Malformed or non-UTF-8 lines, skipped and counted.
    pub quarantined: u64,
    /// Records dropped because the owner repeated the previous line's.
    pub dedup_consecutive: u64,
    /// Records dropped by the bounded out-of-order owner window.
    pub dedup_window: u64,
    /// Records dropped by a blacklist suffix match.
    pub blacklisted: u64,
    /// Owners entered into the router's books — IDN or not. IDNs join
    /// a lane batch for detection; every other owner is counted by
    /// [`SessionRouter::count_non_idn`] without being cloned.
    pub routed: u64,
    /// Wall-clock seconds spent scanning this TLD's files.
    pub elapsed_secs: f64,
}

impl TldScanStats {
    /// Lines that reached the record machine: records + quarantined.
    pub fn parsed(&self) -> u64 {
        self.records + self.quarantined
    }

    /// Records dropped by either dedup stage.
    pub fn deduped(&self) -> u64 {
        self.dedup_consecutive + self.dedup_window
    }

    /// The closing side of the books: routed + deduped + blacklisted
    /// + quarantined.
    pub fn accounted(&self) -> u64 {
        self.routed + self.deduped() + self.blacklisted + self.quarantined
    }

    /// The `records_accounted` invariant: every parsed line is routed,
    /// deduplicated, blacklisted, or quarantined — nothing vanishes.
    pub fn is_accounted(&self) -> bool {
        self.parsed() == self.accounted()
    }

    /// Folds another TLD's (or file's) counters into this one.
    pub fn merge(&mut self, other: &TldScanStats) {
        self.bytes += other.bytes;
        self.lines += other.lines;
        self.records += other.records;
        self.quarantined += other.quarantined;
        self.dedup_consecutive += other.dedup_consecutive;
        self.dedup_window += other.dedup_window;
        self.blacklisted += other.blacklisted;
        self.routed += other.routed;
        self.elapsed_secs += other.elapsed_secs;
    }
}

/// Everything a finished scan knows: the router's detection report plus
/// the scanner's own per-TLD accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScanReport {
    /// Detection outcome (per-TLD lanes, detections, exec stats).
    pub router: RouterReport,
    /// Scanner-side accounting, keyed by TLD.
    pub per_tld: BTreeMap<String, TldScanStats>,
    /// First few quarantined-line diagnostics (bounded).
    pub quarantine_samples: Vec<String>,
    /// Files scanned.
    pub files: usize,
}

impl ScanReport {
    /// All TLD counters folded together.
    pub fn totals(&self) -> TldScanStats {
        let mut t = TldScanStats::default();
        for s in self.per_tld.values() {
            t.merge(s);
        }
        t
    }

    /// Total detections across all lanes.
    pub fn detection_count(&self) -> usize {
        self.router.detection_count()
    }

    /// Checks the accounting invariant on every TLD, naming the first
    /// TLD whose books don't close.
    pub fn verify_accounting(&self) -> Result<(), String> {
        for (tld, s) in &self.per_tld {
            if !s.is_accounted() {
                return Err(format!(
                    "accounting broken for .{tld}: parsed {} != accounted {} \
                     (routed {} + dedup {} + blacklisted {} + quarantined {})",
                    s.parsed(),
                    s.accounted(),
                    s.routed,
                    s.deduped(),
                    s.blacklisted,
                    s.quarantined
                ));
            }
        }
        Ok(())
    }
}

/// FNV-1a 64 over the owner's ACE bytes (already lowercase) — keys the
/// bounded dedup window.
#[inline]
fn owner_hash(owner: &DomainName) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in owner.as_ascii().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Word-at-a-time `\n` finder (SWAR: subtract-and-mask zero-byte
/// detection on 8-byte words) — the chunk splitter's inner loop.
#[inline]
fn find_newline(haystack: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let head_len = haystack.len() & !7;
    let mut i = 0;
    while i < head_len {
        let word = u64::from_le_bytes(haystack[i..i + 8].try_into().unwrap());
        let x = word ^ (LO * b'\n' as u64);
        let zero = x.wrapping_sub(LO) & !x & HI;
        if zero != 0 {
            return Some(i + (zero.trailing_zeros() >> 3) as usize);
        }
        i += 8;
    }
    haystack[head_len..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|p| head_len + p)
}

/// The streaming batch scanner. Feed it files (or any reader) with
/// [`scan_file`](Self::scan_file) / [`scan_reader`](Self::scan_reader),
/// then close the books with [`finish`](Self::finish).
pub struct ZoneScanner {
    router: SessionRouter,
    config: ScanConfig,
    stats: BTreeMap<String, TldScanStats>,
    quarantine: Vec<String>,
    window: VecDeque<u64>,
    window_set: HashSet<u64>,
    files: usize,
}

impl ZoneScanner {
    /// Wraps a configured router; its lane set and batch capacity
    /// govern routing and detection batches.
    pub fn new(router: SessionRouter, config: ScanConfig) -> Self {
        ZoneScanner {
            router,
            config,
            stats: BTreeMap::new(),
            quarantine: Vec::new(),
            window: VecDeque::new(),
            window_set: HashSet::new(),
            files: 0,
        }
    }

    /// Scans one zone file; the TLD (fallback `$ORIGIN`) is `tld`.
    pub fn scan_file(&mut self, tld: &str, path: &Path) -> io::Result<()> {
        let file = std::fs::File::open(path)?;
        self.scan_reader(tld, file)
    }

    /// Scans one byte stream as `tld`'s zone. I/O errors abort this
    /// stream (already-scanned lines stay accounted); parse errors
    /// quarantine single lines and continue.
    pub fn scan_reader<R: Read + Send>(&mut self, tld: &str, reader: R) -> io::Result<()> {
        let started = Instant::now();
        let chunk_bytes = self.config.chunk_bytes.max(4096);
        let depth = self.config.channel_depth.max(2);

        // Full buffers flow one way, drained buffers flow back: the
        // reader recycles instead of allocating per chunk, and the
        // bounded channel is the backpressure that keeps at most
        // `depth` chunks in flight.
        let (full_tx, full_rx) = mpsc::sync_channel::<io::Result<Vec<u8>>>(depth);
        let (free_tx, free_rx) = mpsc::channel::<Vec<u8>>();
        for _ in 0..=depth {
            let _ = free_tx.send(Vec::with_capacity(chunk_bytes));
        }

        let mut parser = ZoneStreamParser::new(tld);
        let mut file_stats = TldScanStats::default();
        let mut carry: Vec<u8> = Vec::new();

        let result: io::Result<()> = std::thread::scope(|s| {
            s.spawn(move || {
                let mut reader = reader;
                'chunks: while let Ok(mut buf) = free_rx.recv() {
                    buf.resize(chunk_bytes, 0);
                    let n = loop {
                        match reader.read(&mut buf) {
                            Ok(n) => break n,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(e) => {
                                let _ = full_tx.send(Err(e));
                                break 'chunks;
                            }
                        }
                    };
                    if n == 0 {
                        break;
                    }
                    buf.truncate(n);
                    if full_tx.send(Ok(buf)).is_err() {
                        break;
                    }
                }
                // Dropping full_tx is the EOF signal.
            });

            for msg in full_rx.iter() {
                let buf = msg?;
                file_stats.bytes += buf.len() as u64;
                let mut rest: &[u8] = &buf;
                // Complete a line carried over from the previous chunk.
                if !carry.is_empty() {
                    match find_newline(rest) {
                        Some(nl) => {
                            carry.extend_from_slice(&rest[..nl]);
                            self.process_line(&mut parser, &mut file_stats, &carry);
                            carry.clear();
                            rest = &rest[nl + 1..];
                        }
                        None => {
                            carry.extend_from_slice(rest);
                            let _ = free_tx.send(buf);
                            continue;
                        }
                    }
                }
                while let Some(nl) = find_newline(rest) {
                    self.process_line(&mut parser, &mut file_stats, &rest[..nl]);
                    rest = &rest[nl + 1..];
                }
                carry.extend_from_slice(rest);
                let _ = free_tx.send(buf);
            }
            Ok(())
        });

        // A final unterminated line still counts.
        if result.is_ok() && !carry.is_empty() {
            let line = std::mem::take(&mut carry);
            self.process_line(&mut parser, &mut file_stats, &line);
        }
        file_stats.elapsed_secs = started.elapsed().as_secs_f64();
        self.stats.entry(tld.to_string()).or_default().merge(&file_stats);
        self.files += 1;
        debug_assert!(
            self.stats[tld].is_accounted(),
            "scan accounting diverged for .{tld}"
        );
        result
    }

    /// One raw line through scan → dedup → blacklist → IDN prefilter →
    /// router.
    fn process_line(
        &mut self,
        parser: &mut ZoneStreamParser,
        stats: &mut TldScanStats,
        raw: &[u8],
    ) {
        stats.lines += 1;
        let raw = match raw.split_last() {
            Some((b'\r', head)) => head,
            _ => raw,
        };
        let text = match std::str::from_utf8(raw) {
            Ok(t) => t,
            Err(_) => {
                stats.quarantined += 1;
                self.sample_quarantine(parser.lines_seen() + 1, "invalid UTF-8");
                // Keep the parser's line numbering in step with the
                // file even though it never saw this line.
                let _ = parser.scan_line("");
                return;
            }
        };
        match parser.scan_line(text) {
            Ok(ZoneScan::Skip) => {}
            Err(e) => {
                stats.quarantined += 1;
                self.sample_quarantine(e.line, &e.message);
            }
            Ok(ZoneScan::Record { owner, new_owner }) => {
                stats.records += 1;
                if !new_owner {
                    stats.dedup_consecutive += 1;
                    return;
                }
                let hash = owner_hash(owner);
                if self.config.dedup_window > 0 {
                    if self.window_set.contains(&hash) {
                        stats.dedup_window += 1;
                        return;
                    }
                    if self.window.len() >= self.config.dedup_window {
                        if let Some(old) = self.window.pop_front() {
                            self.window_set.remove(&old);
                        }
                    }
                    self.window.push_back(hash);
                    self.window_set.insert(hash);
                }
                if self
                    .config
                    .blacklists
                    .iter()
                    .any(|bl| bl.contains_suffix(owner.as_ascii()))
                {
                    stats.blacklisted += 1;
                    return;
                }
                // IDN prefilter: only an `xn--` owner can be a
                // homograph, and only it is cloned (once, into its
                // lane's batch). Any other owner is counted into the
                // router's books exactly as a push would count it.
                stats.routed += 1;
                if owner.is_idn() {
                    self.router.push_domains(std::iter::once(owner));
                } else {
                    self.router.count_non_idn(owner);
                }
            }
        }
    }

    fn sample_quarantine(&mut self, line: usize, message: &str) {
        if self.quarantine.len() < self.config.quarantine_samples {
            self.quarantine.push(format!("line {line}: {message}"));
        }
    }

    /// Per-TLD accounting so far (books may still be open).
    pub fn stats(&self) -> &BTreeMap<String, TldScanStats> {
        &self.stats
    }

    /// Flushes every lane and closes the books.
    pub fn finish(mut self) -> ScanReport {
        self.router.flush();
        ScanReport {
            router: self.router.into_report(),
            per_tld: self.stats,
            quarantine_samples: self.quarantine,
            files: self.files,
        }
    }
}

/// Infers the TLD a zone file covers from its name: the stem up to the
/// first `.` (`com.zone`, `net.zone.txt` → `com`, `net`).
pub fn tld_from_path(path: &Path) -> Option<String> {
    let name = path.file_name()?.to_str()?;
    let stem = name.split('.').next()?;
    if stem.is_empty() {
        None
    } else {
        Some(stem.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectionIndex;
    use sham_confusables::UcDatabase;
    use sham_glyph::SynthUnifont;
    use sham_simchar::{build, BuildConfig, HomoglyphDb, Repertoire};
    use std::sync::Arc;

    fn shared_index(refs: &[&str]) -> Arc<DetectionIndex> {
        let font = SynthUnifont::v12();
        let result = build(
            &font,
            &BuildConfig {
                repertoire: Repertoire::Blocks(vec!["Basic Latin", "Cyrillic"]),
                ..BuildConfig::default()
            },
        );
        DetectionIndex::shared(
            HomoglyphDb::new(result.db, UcDatabase::embedded()),
            refs.iter().map(|s| s.to_string()),
        )
    }

    #[test]
    fn find_newline_matches_naive_scan() {
        let cases: &[&[u8]] = &[
            b"",
            b"\n",
            b"no newline here at all, longer than a word",
            b"tail\n",
            b"\nhead",
            b"exactly8\nbytes",
            b"0123456789abcdef\nrest\n",
            b"short",
        ];
        for case in cases {
            assert_eq!(
                find_newline(case),
                case.iter().position(|&b| b == b'\n'),
                "on {case:?}"
            );
        }
        // Every offset within a couple of words.
        for pos in 0..24 {
            let mut v = vec![b'x'; 24];
            v[pos] = b'\n';
            assert_eq!(find_newline(&v), Some(pos));
        }
    }

    #[test]
    fn tld_inference_from_file_names() {
        assert_eq!(tld_from_path(Path::new("/tmp/com.zone")), Some("com".into()));
        assert_eq!(tld_from_path(Path::new("NET.zone.txt")), Some("net".into()));
        assert_eq!(tld_from_path(Path::new("dir/org")), Some("org".into()));
        assert_eq!(tld_from_path(Path::new(".hidden")), None);
    }

    #[test]
    fn scan_accounts_dedups_blacklists_and_detects() {
        let zone = "$ORIGIN com.\n\
                    $TTL 3600\n\
                    ; synthetic sample\n\
                    xn--ggle-55da IN NS ns1.parking.example.\n\
                    xn--ggle-55da IN NS ns2.parking.example.\n\
                    \tIN A 192.0.2.1\n\
                    benign IN A 192.0.2.2\n\
                    listed IN A 192.0.2.3\n\
                    sub.listed IN A 192.0.2.4\n\
                    broken IN A not-an-ip\n\
                    benign IN AAAA 2001:db8::1\n";
        let mut blacklist = Blacklist::new("test");
        blacklist.add("listed.com");
        let config = ScanConfig {
            dedup_window: 16,
            blacklists: vec![blacklist],
            chunk_bytes: 4096,
            ..ScanConfig::default()
        };
        let index = shared_index(&["google"]);
        let mut scanner = ZoneScanner::new(SessionRouter::new(index), config);
        scanner
            .scan_reader("com", zone.as_bytes())
            .expect("in-memory scan cannot fail I/O");
        let report = scanner.finish();
        report.verify_accounting().unwrap();

        let stats = &report.per_tld["com"];
        assert_eq!(stats.lines, 11);
        assert_eq!(stats.records, 7);
        assert_eq!(stats.quarantined, 1);
        // Same-owner NS run + continuation: 2 consecutive dedups; the
        // later `benign` repeat is caught by the window.
        assert_eq!(stats.dedup_consecutive, 2);
        assert_eq!(stats.dedup_window, 1);
        // `listed` and `sub.listed` both fall to the suffix match.
        assert_eq!(stats.blacklisted, 2);
        assert_eq!(stats.routed, 2);
        assert!(stats.is_accounted());
        // The lookalike owner is detected, the benign one is not.
        assert_eq!(report.detection_count(), 1);
    }

    #[test]
    fn chunk_size_does_not_change_the_outcome() {
        let mut zone = String::from("$ORIGIN net.\n");
        for i in 0..200 {
            zone.push_str(&format!("owner{i} IN A 192.0.2.{}\n", i % 250));
            zone.push_str(&format!("owner{i} IN NS ns.owner{i}.net.\n"));
        }
        // No trailing newline on the last line.
        zone.push_str("lastone IN A 192.0.2.9");

        let index = shared_index(&["google"]);
        let mut baseline = None;
        for chunk in [4096, 4099, 1 << 16] {
            let config = ScanConfig { chunk_bytes: chunk, ..ScanConfig::default() };
            let mut scanner = ZoneScanner::new(SessionRouter::new(Arc::clone(&index)), config);
            scanner.scan_reader("net", zone.as_bytes()).unwrap();
            let report = scanner.finish();
            report.verify_accounting().unwrap();
            let stats = report.per_tld["net"];
            assert_eq!(stats.routed, 201);
            assert_eq!(stats.dedup_consecutive, 200);
            match &baseline {
                None => baseline = Some(report.router.clone()),
                Some(b) => assert_eq!(b, &report.router, "chunk {chunk} diverged"),
            }
        }
    }
}
