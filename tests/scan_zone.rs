//! scan-zone ≡ batch replay: the chunk-parallel [`ZoneScanner`] over a
//! generated multi-TLD zone must be *detection-identical* to an
//! unchunked line-by-line replay through [`ZoneStreamParser::scan_line`]
//! plus the same dedup/blacklist pre-stage feeding a plain
//! [`SessionRouter`] — same router report, same per-TLD accounting,
//! same quarantine samples — at every chunk size and thread count.
//! Hostile layouts (mid-file `$ORIGIN` switches, continuation runs and
//! single lines longer than a chunk, CRLF, invalid UTF-8, directive,
//! comment and blank lines at the cuts) must not move a figure either.
//! Truncating the input at an arbitrary byte offset or corrupting a
//! byte mid-stream must never panic and must keep the
//! `records_accounted` books closed (and the two models still agree on
//! the damaged input).

use proptest::prelude::*;
use shamfinder::core::{
    DetectionIndex, RouterReport, ScanConfig, SessionRouter, TldScanStats, ZoneScanner,
};
use shamfinder::dns::zone::{ZoneScan, ZoneStreamParser};
use shamfinder::web::Blacklist;
use shamfinder::workload::{reference_list, write_synthetic_zone, ZoneGenConfig};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Quarantine samples the scanner keeps (`ScanConfig::default()`).
const SAMPLES: usize = 8;

/// Serialises the tests that force a worker count: the override is
/// process-wide, and each of them must scan at the count it set.
fn forcing_threads() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Reference stems shared by the generator and the detection index, so
/// the planted Cyrillic lookalikes are actually detectable.
const REFERENCE_SIZE: usize = 60;

/// One shared index for every case — the SimChar build is the expensive
/// part and the index is immutable.
fn index() -> &'static Arc<DetectionIndex> {
    static INDEX: OnceLock<Arc<DetectionIndex>> = OnceLock::new();
    INDEX.get_or_init(|| {
        let font = shamfinder::glyph::SynthUnifont::v12();
        let result = shamfinder::simchar::build(
            &font,
            &shamfinder::simchar::BuildConfig {
                repertoire: shamfinder::simchar::Repertoire::Blocks(vec![
                    "Basic Latin",
                    "Cyrillic",
                ]),
                ..shamfinder::simchar::BuildConfig::default()
            },
        );
        DetectionIndex::shared(
            shamfinder::simchar::HomoglyphDb::new(
                result.db,
                shamfinder::confusables::UcDatabase::embedded(),
            ),
            reference_list(REFERENCE_SIZE),
        )
    })
}

fn gen_zone(tld: &str, seed: u64, target_bytes: u64, homographs: u32, malformed: u32) -> Vec<u8> {
    let cfg = ZoneGenConfig {
        tld: tld.to_string(),
        target_bytes,
        target_records: 0,
        homograph_permille: homographs,
        reference_size: REFERENCE_SIZE,
        malformed_permille: malformed,
        seed,
    };
    let mut buf = Vec::new();
    write_synthetic_zone(&mut buf, &cfg).expect("Vec<u8> writes cannot fail");
    buf
}

/// The lines the scanner's chunk splitter yields for `data`: split on
/// `\n`, no phantom empty line after a trailing newline, a final
/// unterminated line still counts.
fn byte_lines(data: &[u8]) -> Vec<&[u8]> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut lines: Vec<&[u8]> = data.split(|&b| b == b'\n').collect();
    if data.last() == Some(&b'\n') {
        lines.pop();
    }
    lines
}

/// A router over the shared index: auto-opening, or restricted to the
/// fixed lane set `lanes`.
fn router(lanes: Option<&[&str]>) -> SessionRouter {
    let router = SessionRouter::new(Arc::clone(index()));
    match lanes {
        Some(tlds) => router.with_tlds(tlds.iter().copied()),
        None => router,
    }
}

/// What the reference model expects of a scan.
struct Replay {
    router: RouterReport,
    per_tld: BTreeMap<String, TldScanStats>,
    /// The first [`SAMPLES`] quarantined lines, as `line N: message`.
    samples: Vec<String>,
}

/// The reference model: one unchunked, single-threaded-I/O pass per
/// file through `scan_line` with the identical dedup-window, blacklist
/// and accounting rules, feeding the router domain by domain. Every
/// routed owner — IDN or not — goes through `push_domains`, so the
/// model is an oracle for the scanner's IDN prefilter rather than a
/// copy of it. The dedup window is keyed by the owner *string* (not
/// its hash), pinning the intended semantics of the scanner's hash
/// window.
fn replay(
    inputs: &[(&str, &[u8])],
    dedup_window: usize,
    blacklists: &[Blacklist],
    lanes: Option<&[&str]>,
) -> Replay {
    let mut router = router(lanes).with_batch_capacity(97);
    let mut per_tld: BTreeMap<String, TldScanStats> = BTreeMap::new();
    let mut window: VecDeque<String> = VecDeque::new();
    let mut window_set: HashSet<String> = HashSet::new();
    let mut samples = Vec::new();
    let mut sample = |line: usize, message: &str| {
        if samples.len() < SAMPLES {
            samples.push(format!("line {line}: {message}"));
        }
    };

    for (tld, data) in inputs {
        let stats = per_tld.entry(tld.to_string()).or_default();
        stats.bytes += data.len() as u64;
        let mut parser = ZoneStreamParser::new(tld);
        for raw in byte_lines(data) {
            stats.lines += 1;
            let raw = match raw.split_last() {
                Some((b'\r', head)) => head,
                _ => raw,
            };
            let text = match std::str::from_utf8(raw) {
                Ok(t) => t,
                Err(_) => {
                    stats.quarantined += 1;
                    sample(parser.lines_seen() + 1, "invalid UTF-8");
                    let _ = parser.scan_line("");
                    continue;
                }
            };
            match parser.scan_line(text) {
                Ok(ZoneScan::Skip) => {}
                Err(e) => {
                    stats.quarantined += 1;
                    sample(e.line, &e.message);
                }
                Ok(ZoneScan::Record { owner, new_owner }) => {
                    stats.records += 1;
                    if !new_owner {
                        stats.dedup_consecutive += 1;
                        continue;
                    }
                    if dedup_window > 0 {
                        let key = owner.as_ascii().to_string();
                        if window_set.contains(&key) {
                            stats.dedup_window += 1;
                            continue;
                        }
                        if window.len() >= dedup_window {
                            if let Some(old) = window.pop_front() {
                                window_set.remove(&old);
                            }
                        }
                        window_set.insert(key.clone());
                        window.push_back(key);
                    }
                    if blacklists
                        .iter()
                        .any(|bl| bl.contains_suffix(owner.as_ascii()))
                    {
                        stats.blacklisted += 1;
                        continue;
                    }
                    stats.routed += 1;
                    router.push_domains(std::iter::once(owner));
                }
            }
        }
    }
    Replay {
        router: router.into_report(),
        per_tld,
        samples,
    }
}

/// Runs the real scanner over the same inputs.
fn scan(
    inputs: &[(&str, &[u8])],
    chunk_bytes: usize,
    dedup_window: usize,
    blacklists: Vec<Blacklist>,
    lanes: Option<&[&str]>,
) -> shamfinder::core::ScanReport {
    let config = ScanConfig {
        chunk_bytes,
        dedup_window,
        blacklists,
        ..ScanConfig::default()
    };
    let mut scanner = ZoneScanner::new(router(lanes).with_batch_capacity(256), config);
    for (tld, data) in inputs {
        scanner
            .scan_reader(tld, *data)
            .expect("in-memory readers cannot fail I/O");
    }
    scanner.finish()
}

/// Full-fidelity comparison: router reports equal, every per-TLD
/// counter equal (elapsed time excepted), the same quarantine samples,
/// books closed on both sides.
fn assert_equivalent(report: &shamfinder::core::ScanReport, want: &Replay, context: &str) {
    let expected_tld = &want.per_tld;
    report
        .verify_accounting()
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    assert_eq!(report.router, want.router, "{context}: detections diverged");
    assert_eq!(
        report.quarantine_samples, want.samples,
        "{context}: quarantine samples diverged"
    );
    assert_eq!(
        report.per_tld.len(),
        expected_tld.len(),
        "{context}: TLD sets diverged"
    );
    for (tld, want) in expected_tld {
        let mut got = report.per_tld[tld];
        got.elapsed_secs = 0.0;
        assert!(
            want.is_accounted(),
            "{context}: replay books don't close for .{tld}"
        );
        assert_eq!(&got, want, "{context}: .{tld} accounting diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any generator shape (lookalike/malformed rates, seed), any chunk
    /// size, any dedup-window length, with and without a TLD-wide
    /// blacklist: the chunked scanner and the unchunked replay agree
    /// exactly on a two-TLD feed.
    #[test]
    fn scanner_matches_unchunked_replay(
        seed in any::<u64>(),
        homographs in 10u32..80,
        malformed in 0u32..30,
        chunk in 4096usize..20_000,
        window in 0usize..96,
        blacklist_net in 0u8..2,
    ) {
        let com = gen_zone("com", seed, 24 << 10, homographs, malformed);
        let net = gen_zone("net", seed ^ 0x9E37_79B9, 16 << 10, homographs, malformed);
        let inputs: Vec<(&str, &[u8])> = vec![("com", &com), ("net", &net)];

        let mut blacklists = Vec::new();
        if blacklist_net == 1 {
            let mut bl = Blacklist::new("tld-wide");
            bl.add("net");
            blacklists.push(bl);
        }

        let want = replay(&inputs, window, &blacklists, None);
        let report = scan(&inputs, chunk, window, blacklists, None);
        assert_equivalent(&report, &want, "generated feed");

        if blacklist_net == 1 {
            let net_stats = &report.per_tld["net"];
            prop_assert_eq!(net_stats.routed, 0, "TLD-wide blacklist leaked");
            prop_assert!(net_stats.blacklisted > 0);
        }
    }
}

/// Rewrites the owner token of record lines, picked per owner by an
/// FNV hash of the token and `seed` (so an owner's whole run changes
/// together): upper-cased (`xn--` owners become `XN--`), made absolute
/// in another TLD (`foo` → `foo.net.`), or both (`FOO.ORG.`); about
/// half the owners keep their token.
fn reshape_owners(data: &[u8], seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + data.len() / 4);
    for (i, line) in data.split(|&b| b == b'\n').enumerate() {
        if i > 0 {
            out.push(b'\n');
        }
        let owner_len = line
            .iter()
            .position(|b| b.is_ascii_whitespace())
            .unwrap_or(line.len());
        if owner_len == 0 || matches!(line[0], b'$' | b';') {
            out.extend_from_slice(line);
            continue;
        }
        let (owner, rest) = line.split_at(owner_len);
        let hash = owner.iter().fold(0xcbf2_9ce4_8422_2325u64 ^ seed, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        match hash % 8 {
            0 | 1 => out.extend(owner.iter().map(u8::to_ascii_uppercase)),
            2 => {
                out.extend_from_slice(owner);
                out.extend_from_slice(b".net.");
            }
            3 => {
                out.extend(owner.iter().map(u8::to_ascii_uppercase));
                out.extend_from_slice(b".ORG.");
            }
            _ => out.extend_from_slice(owner),
        }
        out.extend_from_slice(rest);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The IDN prefilter routes by each owner's own TLD and counts
    /// `XN--` owners as IDNs: on feeds whose owners are upper-cased or
    /// absolute in another TLD, the scanner still equals the
    /// push-everything replay — auto-opening lanes for the foreign
    /// TLDs, or, under a fixed `.com` lane set, counting every foreign
    /// owner (ASCII ones included) as unrouted.
    #[test]
    fn prefilter_routes_foreign_and_uppercase_owners(
        seed in any::<u64>(),
        chunk in 4096usize..20_000,
        window in 0usize..96,
        fixed in 0u8..2,
    ) {
        let fixed_lanes = fixed == 1;
        let com = reshape_owners(&gen_zone("com", seed, 24 << 10, 60, 5), seed);
        let net = reshape_owners(&gen_zone("net", seed ^ 0x5EED, 12 << 10, 60, 5), !seed);
        let inputs: Vec<(&str, &[u8])> = vec![("com", &com), ("net", &net)];
        let lanes: Option<&[&str]> = if fixed_lanes { Some(&["com"]) } else { None };

        let want = replay(&inputs, window, &[], lanes);
        let report = scan(&inputs, chunk, window, Vec::new(), lanes);
        assert_equivalent(&report, &want, "reshaped feed");

        // Every routed owner lands in a lane or in `unrouted`.
        let routed: u64 = report.per_tld.values().map(|s| s.routed).sum();
        prop_assert_eq!(routed, report.router.total_domains() as u64);
        let lane_tlds: Vec<&str> =
            report.router.per_tld.iter().map(|t| t.tld.as_str()).collect();
        if fixed_lanes {
            prop_assert_eq!(lane_tlds, vec!["com"]);
            prop_assert!(report.router.unrouted_domains > 0, "foreign owners must be unrouted");
        } else {
            prop_assert_eq!(lane_tlds, vec!["com", "net", "org"]);
            prop_assert_eq!(report.router.unrouted_domains, 0);
        }
        prop_assert!(report.router.idn_count() > 0, "upper-cased IDN owners must still count");
    }
}

/// A fixed damaged-input corpus base; generated once.
fn damage_base() -> &'static Vec<u8> {
    static BASE: OnceLock<Vec<u8>> = OnceLock::new();
    BASE.get_or_init(|| gen_zone("com", 0xDA11A6ED, 48 << 10, 40, 8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating at an arbitrary byte offset and corrupting a byte at
    /// an arbitrary position (high-bit flip → invalid UTF-8, zero byte,
    /// or an injected newline that reshapes line structure) never
    /// panics, keeps the books closed, and the two models still agree
    /// on the damaged bytes.
    #[test]
    fn truncation_and_corruption_keep_the_books(
        cut in 0usize..(48 << 10),
        flip_at in any::<usize>(),
        flip_mode in 0u8..4,
        chunk in 4096usize..9_000,
    ) {
        let base = damage_base();
        let cut = cut.min(base.len());
        let mut data = base[..cut].to_vec();
        if !data.is_empty() {
            let at = flip_at % data.len();
            match flip_mode {
                0 => data[at] ^= 0x80,      // often invalid UTF-8
                1 => data[at] = 0x00,
                2 => data[at] = b'\n',      // reshape line structure
                _ => {}                     // pure truncation
            }
        }
        let inputs: Vec<(&str, &[u8])> = vec![("com", &data)];
        let want = replay(&inputs, 64, &[], None);
        let report = scan(&inputs, chunk, 64, Vec::new(), None);
        assert_equivalent(&report, &want, "damaged feed");
    }
}

/// The acceptance-criterion configuration, pinned exactly: a two-TLD
/// generated feed with planted lookalikes scans to the same report at
/// 1 and N worker threads, both equal to the unchunked replay, and the
/// lookalikes are actually detected.
#[test]
fn scan_is_thread_count_invariant_and_detects_plants() {
    let com = gen_zone("com", 11, 128 << 10, 50, 5);
    let net = gen_zone("net", 12, 64 << 10, 50, 5);
    let inputs: Vec<(&str, &[u8])> = vec![("com", &com), ("net", &net)];

    let _serial = forcing_threads();
    let want = {
        let _one = rayon::ThreadOverride::new(1);
        replay(&inputs, 8_192, &[], None)
    };
    assert!(
        want.router.detection_count() > 0,
        "generated corpus must be detection-rich"
    );
    assert_eq!(
        want.samples.len(),
        SAMPLES,
        "the corpus has malformed lines to sample"
    );

    let hardware = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4));
    for threads in [1usize, hardware] {
        let _forced = rayon::ThreadOverride::new(threads);
        let report = scan(&inputs, 1 << 16, 8_192, Vec::new(), None);
        assert_equivalent(&report, &want, &format!("{threads} thread(s)"));
    }
}

/// An empty input file closes its books trivially and produces an
/// all-zero ledger rather than a missing or phantom entry.
#[test]
fn empty_file_accounts_to_zero() {
    let inputs: Vec<(&str, &[u8])> = vec![("org", b"")];
    let want = replay(&inputs, 16, &[], None);
    let report = scan(&inputs, 4096, 16, Vec::new(), None);
    assert_equivalent(&report, &want, "empty file");
    let mut org = report.per_tld["org"];
    org.elapsed_secs = 0.0;
    assert_eq!(org, TldScanStats::default());
    assert_eq!(report.files, 1);
}

/// A small xorshift generator for the hostile layouts.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.below(pool.len())]
    }
}

/// One piece of a hostile layout, each line ended by `\n` or `\r\n`.
fn hostile_piece(rng: &mut Rng, out: &mut Vec<u8>) {
    let crlf = rng.below(3) == 0;
    let line = |out: &mut Vec<u8>, text: &[u8]| {
        out.extend_from_slice(text);
        out.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
    };
    match rng.below(12) {
        // `$ORIGIN` switches, the same origin again, and malformed
        // directives that must leave the origin alone.
        0 => {
            let directive = rng.pick(&[
                "$ORIGIN net.",
                "$ORIGIN com.",
                "$ORIGIN com.",
                "$ORIGIN sub.org.",
                "$ORIGINAL example.",
                "$ORIGIN foo bar.",
                "$ORIGIN",
                "$TTL 300",
                "$TTLX 5",
                " $ORIGIN net.",
            ]);
            line(out, directive.as_bytes());
        }
        // Comment and blank lines.
        1 => line(
            out,
            rng.pick(&["; comment", "", "   ", "\t; indented", "$ORIGIN net. ; c"])
                .as_bytes(),
        ),
        // A continuation run, often longer than a chunk, with origin
        // switches inside it, often between two lines of one owner
        // token: a chunk that resolves no owner of its own can still
        // void the token in force.
        2 => {
            if rng.below(2) == 0 {
                line(out, b"shop IN A 192.0.2.1");
            }
            for i in 0..1 + rng.below(400) {
                let text = match rng.below(40) {
                    0 | 1 => "\tIN A nope".to_string(),
                    2 => "; between".to_string(),
                    3 => rng.pick(&["$ORIGIN net.", "$ORIGIN com."]).to_string(),
                    _ => format!("\tIN A 192.0.2.{}", i % 250),
                };
                line(out, text.as_bytes());
            }
            if rng.below(2) == 0 {
                line(out, b"shop IN A 192.0.2.3");
            }
        }
        // A single line longer than a chunk: a TXT record, a comment,
        // or garbage.
        3 => {
            let long = "x".repeat(4096 + rng.below(8192));
            let text = match rng.below(3) {
                0 => format!("longtxt IN TXT \"{long}\""),
                1 => format!("; {long}"),
                _ => long,
            };
            line(out, text.as_bytes());
        }
        // Invalid UTF-8.
        4 => line(out, b"bad\xff\xfe IN A 192.0.2.1"),
        // An owner repeated over many lines, so cuts fall inside runs
        // of one owner token.
        5 => {
            let owner = rng.pick(&["dup", "xn--ggle-55da", "DUP", "dup.net."]);
            for _ in 0..1 + rng.below(60) {
                line(out, format!("{owner} IN NS ns1.example.").as_bytes());
            }
        }
        // A bad owner, and an owner whose rdata is bad, each followed
        // by continuations.
        6 => {
            line(
                out,
                rng.pick(&["..bad.. IN A 192.0.2.1", "foo IN A nope"])
                    .as_bytes(),
            );
            line(out, b"\tIN A 192.0.2.2");
            line(out, b"foo IN NS ns.foo.com.");
        }
        // A token repeated across an origin change names a new owner.
        7 => {
            line(out, b"shop IN A 192.0.2.1");
            line(out, rng.pick(&["$ORIGIN net.", "$ORIGIN com."]).as_bytes());
            line(out, b"shop IN A 192.0.2.2");
        }
        // Ordinary records: plain and IDN owners, absolute and relative.
        _ => {
            let n = rng.below(1 << 20);
            let owner = match rng.below(4) {
                0 => format!("xn--80ak6aa92e{}", n % 7),
                1 => format!("host{n}.org."),
                _ => format!("host{n}"),
            };
            line(out, format!("{owner} IN A 192.0.2.{}", n % 250).as_bytes());
        }
    }
}

/// A hostile layout of at least `target` bytes. Some layouts open with
/// a continuation line, which has no owner to continue.
fn hostile_zone(seed: u64, target: usize) -> Vec<u8> {
    let mut rng = Rng(seed | 1);
    let mut out = Vec::new();
    if rng.below(2) == 0 {
        out.extend_from_slice(b"\tIN A 192.0.2.9\n");
    }
    while out.len() < target {
        hostile_piece(&mut rng, &mut out);
    }
    out
}

/// Scans `inputs` at 1, 2 and 4 worker threads, each compared with the
/// replay.
fn assert_thread_counts_match(
    inputs: &[(&str, &[u8])],
    chunk: usize,
    window: usize,
    context: &str,
) {
    let want = replay(inputs, window, &[], None);
    let _serial = forcing_threads();
    for threads in [1, 2, 4] {
        let _forced = rayon::ThreadOverride::new(threads);
        let report = scan(inputs, chunk, window, Vec::new(), None);
        assert_equivalent(
            &report,
            &want,
            &format!("{context}, chunk {chunk}, {threads} thread(s)"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Hostile layouts — mid-file `$ORIGIN` switches, continuation runs
    /// and single lines longer than a chunk, CRLF, invalid UTF-8, and
    /// directive, comment and blank lines wherever the cuts fall —
    /// scan to the replay's report, samples included, at 1, 2 and 4
    /// worker threads.
    #[test]
    fn hostile_layouts_match_replay_at_any_thread_count(
        seed in any::<u64>(),
        chunk in 4096usize..9_000,
        window in 0usize..64,
    ) {
        let com = hostile_zone(seed, 40 << 10);
        let net = hostile_zone(!seed, 12 << 10);
        let inputs: Vec<(&str, &[u8])> = vec![("com", &com), ("net", &net)];
        assert_thread_counts_match(&inputs, chunk, window, "hostile layout");
    }
}

/// Directive, comment, blank, CRLF, invalid-UTF-8 and continuation
/// lines at every cut: a file of ordinary records up to byte ~4.1k,
/// then a section of such lines. A chunk size equal to the offset just
/// after a newline puts the first cut exactly there, so each line
/// boundary of the section is a cut in turn.
#[test]
fn every_cut_in_a_section_of_special_lines() {
    let mut data = Vec::new();
    let mut i = 0;
    while data.len() < 4_200 {
        data.extend_from_slice(format!("filler{i} IN A 192.0.2.1\n").as_bytes());
        i += 1;
    }
    let section_start = data.len();
    for line in [
        &b"$ORIGIN net."[..],
        b"; comment",
        b"",
        b"keep IN A 192.0.2.1\r",
        b"\tIN A 192.0.2.2",
        b"  ",
        b"$TTL 60",
        b"keep IN NS ns.keep.net.",
        b"$ORIGIN net.",
        b"keep IN A 192.0.2.3",
        b"\xff\xfe",
        b"\tIN A 192.0.2.4\r",
        b"$ORIGINAL x.",
        b"keep IN A 192.0.2.5",
        b"$ORIGIN com.",
        b"keep IN A 192.0.2.6",
        b"\tIN A nope",
        b"xn--80ak6aa92e IN A 192.0.2.7",
        b"; done",
    ] {
        data.extend_from_slice(line);
        data.push(b'\n');
    }
    let section_end = data.len();
    for k in 0..200 {
        data.extend_from_slice(format!("tail{k} IN A 192.0.2.1\n").as_bytes());
    }
    let inputs: Vec<(&str, &[u8])> = vec![("com", &data)];
    for cut in section_start..=section_end {
        if data[cut - 1] == b'\n' {
            assert_thread_counts_match(&inputs, cut, 32, "special-line section");
        }
    }
}

/// The facts that cross a cut, each carried over a chunk that resolves
/// no owner of its own (a continuation run longer than a chunk): an
/// owner token voided by an `$ORIGIN` change (also one that changes the
/// origin and back), a token that survives, a run with no owner at all,
/// and a run owned by a line quarantined after its owner resolved.
#[test]
fn seams_carry_across_chunks_without_owner_lines() {
    let run = |out: &mut String, lines: usize, switch: &[&str]| {
        for i in 0..lines {
            if i == lines / 2 {
                for directive in switch {
                    out.push_str(directive);
                    out.push('\n');
                }
            }
            out.push_str(&format!("\tIN A 192.0.2.{}\n", i % 250));
        }
    };
    let mut cases = Vec::new();
    for switch in [
        &["$ORIGIN net."][..],
        &["$ORIGIN net.", "$ORIGIN com."],
        &["; none"],
        &["$ORIGIN com."],
    ] {
        let mut zone = String::from("$ORIGIN com.\nshop IN A 192.0.2.1\n");
        run(&mut zone, 1_200, switch);
        zone.push_str("shop IN A 192.0.2.2\nother IN A 192.0.2.3\n");
        cases.push(zone);
    }
    let mut orphan = String::new();
    run(&mut orphan, 1_200, &["$ORIGIN net."]);
    orphan.push_str("shop IN A 192.0.2.2\n");
    cases.push(orphan);
    // An owner line quarantined for its rdata still sets the owner its
    // continuations belong to.
    let mut bad_rdata = String::from("foo IN A nope\n");
    run(&mut bad_rdata, 1_200, &["; none"]);
    bad_rdata.push_str("foo IN A 192.0.2.2\nbar IN A 192.0.2.3\n");
    cases.push(bad_rdata);
    for (i, zone) in cases.iter().enumerate() {
        let inputs: Vec<(&str, &[u8])> = vec![("com", zone.as_bytes())];
        for chunk in [4096, 5000, 7777] {
            assert_thread_counts_match(&inputs, chunk, 16, &format!("seam case {i}"));
        }
    }
}

/// Chunks of many thousand owners: a lexer hands such a chunk to the
/// merge in several outputs, and the pieces must join like one. The
/// first quarantined lines come late in a chunk, in a later output.
#[test]
fn chunks_of_many_owners_match_replay() {
    let mut zone = String::new();
    for i in 0..30_000 {
        match i % 97 {
            0 => zone.push_str("$ORIGIN net.\n"),
            1 => zone.push_str("$ORIGIN com.\n"),
            2 if i > 6_000 => zone.push_str("broken IN A nope\n"),
            3 => zone.push_str("\tIN A 192.0.2.9\n"),
            _ => {}
        }
        let owner = if i % 50 == 0 {
            format!("xn--80ak6aa92e{i}")
        } else {
            format!("o{i}")
        };
        zone.push_str(&format!("{owner} IN A 192.0.2.{}\n", i % 250));
        if i % 7 == 0 {
            zone.push_str(&format!("{owner} IN NS ns1.example.\n"));
        }
    }
    let inputs: Vec<(&str, &[u8])> = vec![("com", zone.as_bytes())];
    for chunk in [1 << 18, (1 << 18) + 4321] {
        assert_thread_counts_match(&inputs, chunk, 64, "many owners per chunk");
    }
}
